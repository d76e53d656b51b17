"""Built-in contest families: registry, validation, probability structure."""
from __future__ import annotations

import json
import math
import random
import re
import sys
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from tiebreak import (
    ContestSpec,
    DomainError,
    FAMILIES,
    TieRule,
    ValidationError,
    describe_families,
    family_names,
    make_contest,
    make_family,
    outcome_distribution,
    solve_beta,
)

from tiebreak.families import FLOATS, LANES, _jia_shares

from helpers import CONCAVE_CASES, DIFF_CASES, RATIO_CASES, build, case_id

ALL_REDUCED = RATIO_CASES + DIFF_CASES


class TestRegistry:
    def test_registry_lists_five_families(self):
        assert set(family_names()) == {
            "vesperoni-ratio",
            "jia-ratio",
            "vesperoni-diff",
            "jia-diff",
            "blavatskyy-power",
        }
        assert set(FAMILIES) == set(family_names())

    def test_describe_families_mentions_every_family(self):
        text = describe_families()
        for name in family_names():
            assert name in text

    def test_unknown_family_rejected(self):
        with pytest.raises(ValidationError):
            make_family("logit-ratio")

    @pytest.mark.parametrize("name", [["jia-diff"], {"a": 1}, 5, None],
                             ids=["list", "dict", "int", "none"])
    def test_a_family_name_that_is_no_string_is_unknown(self, name):
        text = f"unknown family {name!r}; known families: {', '.join(family_names())}"
        doc = {"family": name, "params": {"k": 2}, "v1": 2.0, "v2": 1.0, "q": 0.5}
        for call in (lambda: make_family(name, k=2),
                     lambda: ContestSpec.from_json(json.dumps(doc))):
            with pytest.raises(ValidationError, match=f"^{re.escape(text)}$"):
                call()

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValidationError):
            make_family("jia-diff", k=2, gamma=1.0)

    def test_missing_parameter_rejected(self):
        with pytest.raises(ValidationError):
            make_family("jia-ratio", r=1.0)

    @pytest.mark.parametrize(
        "name,params",
        [
            ("jia-ratio", dict(r=0.0, k=2)),
            ("jia-ratio", dict(r=1.0, k=0.5)),
            ("vesperoni-ratio", dict(r=-1.0, k=2)),
            ("vesperoni-diff", dict(k=0.0)),
            ("blavatskyy-power", dict(r=1.5)),
            ("blavatskyy-power", dict(r=0.0)),
        ],
    )
    def test_parameter_bounds_enforced(self, name, params):
        with pytest.raises(ValidationError):
            make_family(name, **params)

    def test_default_cost_per_class(self):
        assert make_family("jia-ratio", r=1.0, k=2).default_cost.value == "linear"
        assert make_family("jia-diff", k=2).default_cost.value == "quadratic_half"
        assert make_family("blavatskyy-power", r=0.5).default_cost.value == "linear"

    def test_family_instances_are_frozen(self):
        csf = make_family("jia-diff", k=2)
        with pytest.raises(Exception):
            csf.k = 3


class TestPreconditionFlags:
    def test_within_bounds_reported_ok(self):
        assert make_family("vesperoni-ratio", r=0.5, k=2).lemma_precondition_ok
        assert make_family("jia-ratio", r=1.0, k=7).lemma_precondition_ok

    def test_violations_reported_not_ok(self):
        assert not make_family("vesperoni-ratio", r=0.6, k=2).lemma_precondition_ok
        assert not make_family("jia-ratio", r=1.2, k=2).lemma_precondition_ok

    def test_precondition_text_present(self):
        assert make_family("vesperoni-ratio", r=0.5, k=2).lemma_precondition


@pytest.mark.parametrize("case", ALL_REDUCED, ids=case_id)
class TestReducedStructure:
    """Properties shared by every ratio-form and difference-form family."""

    def thetas(self, csf):
        if csf.kind == "ratio":
            return np.geomspace(1e-3, 1e3, 41)
        return np.linspace(-8.0, 8.0, 41)

    def test_probabilities_form_distribution(self, case):
        csf = build(case)
        theta = self.thetas(csf)
        p, p0 = csf.p(theta), csf.p0(theta)
        assert np.all(p >= 0) and np.all(p <= 1)
        assert np.all(p0 >= -1e-15) and np.all(p + p0 <= 1 + 1e-12)

    def test_z_is_affine_in_tie_share(self, case):
        csf = build(case)
        theta = self.thetas(csf)
        z0, z1 = csf.z(theta, 0.0), csf.z(theta, 1.0)
        np.testing.assert_allclose(csf.z(theta, 0.5), 0.5 * (z0 + z1), atol=1e-15)
        np.testing.assert_allclose(z0, csf.p(theta), atol=1e-15)
        np.testing.assert_allclose(z1 - z0, csf.p0(theta), atol=1e-15)

    def test_win_prob_strictly_increasing(self, case):
        csf = build(case)
        theta = self.thetas(csf)
        assert np.all(np.diff(csf.p(theta)) > 0)

    def test_label_swap_symmetry(self, case):
        """Swapping efforts swaps win probabilities and keeps the tie mass."""
        csf = build(case)
        for x1, x2 in [(0.7, 0.2), (1.3, 1.3), (0.05, 2.0)]:
            p1, p2, p0 = csf.outcome(x1, x2)
            q1, q2, q0 = csf.outcome(x2, x1)
            assert p1 == pytest.approx(q2, abs=1e-12)
            assert p2 == pytest.approx(q1, abs=1e-12)
            assert p0 == pytest.approx(q0, abs=1e-12)

    def test_outcome_sums_to_one(self, case):
        csf = build(case)
        for x1, x2 in [(0.7, 0.2), (0.0, 0.0), (1e-6, 3.0)]:
            assert sum(csf.outcome(x1, x2)) == pytest.approx(1.0, abs=1e-12)

    def test_scalar_in_scalar_out(self, case):
        csf = build(case)
        theta = 1.25 if csf.kind == "ratio" else 0.25
        for fn in (csf.p, csf.p0):
            assert isinstance(fn(theta), float)
        assert isinstance(csf.z_prime(theta, 0.3), float)
        assert isinstance(csf.z_slopes(np.array([theta]), 0.3)[1], np.ndarray)

    def test_negative_effort_rejected(self, case):
        csf = build(case)
        with pytest.raises(DomainError):
            csf.outcome(-0.1, 0.5)


class TestRatioConventions:
    def test_zero_zero_treated_as_even(self):
        csf = make_family("jia-ratio", r=1.0, k=2)
        assert csf.outcome(0.0, 0.0) == pytest.approx(csf.outcome(1.0, 1.0), abs=1e-15)

    def test_lone_positive_effort_wins_outright(self):
        csf = make_family("vesperoni-ratio", r=0.5, k=2)
        assert csf.outcome(0.4, 0.0) == (1.0, 0.0, 0.0)
        assert csf.outcome(0.0, 0.4) == (0.0, 1.0, 0.0)

    def test_nonpositive_ratio_rejected_by_reduced_maps(self):
        csf = make_family("jia-ratio", r=1.0, k=2)
        with pytest.raises(DomainError):
            csf.z(0.0, 0.5)
        with pytest.raises(DomainError):
            csf.z_prime(-1.0, 0.5)

    def test_extreme_ratios_stay_finite(self):
        csf = make_family("vesperoni-ratio", r=0.5, k=2)
        for theta in (1e-12, 1e12):
            for value in (csf.p(theta), csf.p0(theta), csf.z(theta, 0.3)):
                assert np.isfinite(value)
                assert 0.0 <= value <= 1.0

    def test_tie_mass_peaks_at_even_contest(self):
        for case in RATIO_CASES:
            csf = build(case)
            theta = np.geomspace(1e-3, 1e3, 101)
            assert np.all(csf.p0(1.0) >= csf.p0(theta) - 1e-15)


class TestDiffConventions:
    def test_outcome_depends_on_gap_only(self):
        csf = make_family("jia-diff", k=2)
        assert csf.outcome(0.9, 0.4) == pytest.approx(csf.outcome(0.5, 0.0), abs=1e-15)

    def test_even_contest_at_zero_gap(self):
        csf = make_family("vesperoni-diff", k=3)
        p1, p2, p0 = csf.outcome(0.3, 0.3)
        assert p1 == pytest.approx(p2, abs=1e-15)

    def test_extreme_gaps_stay_finite(self):
        csf = make_family("jia-diff", k=5)
        for theta in (-500.0, -50.0, 50.0, 500.0):
            for value in (csf.p(theta), csf.p0(theta), csf.z(theta, 0.7)):
                assert np.isfinite(value)
                assert -1e-15 <= value <= 1.0 + 1e-15

    def test_tie_mass_peaks_at_zero_gap(self):
        for case in DIFF_CASES:
            csf = build(case)
            theta = np.linspace(-10, 10, 101)
            assert np.all(csf.p0(0.0) >= csf.p0(theta) - 1e-15)


class TestTielessCollapse:
    """k=1 members reduce to the classic tieless logit and Tullock forms."""

    def test_ratio_k1_has_no_tie_mass(self):
        theta = np.geomspace(1e-3, 1e3, 101)
        for name in ("jia-ratio", "vesperoni-ratio"):
            csf = make_family(name, r=0.8, k=1)
            np.testing.assert_allclose(csf.p0(theta), 0.0, atol=1e-15)
            np.testing.assert_allclose(
                csf.p(theta), theta**0.8 / (theta**0.8 + 1.0), atol=1e-12
            )

    def test_diff_k1_is_logistic(self):
        theta = np.linspace(-10, 10, 101)
        for name in ("jia-diff", "vesperoni-diff"):
            csf = make_family(name, k=1)
            np.testing.assert_allclose(csf.p0(theta), 0.0, atol=1e-15)
            np.testing.assert_allclose(
                csf.p(theta), 1.0 / (1.0 + np.exp(-theta)), atol=1e-12
            )

    def test_k1_z_independent_of_tie_share(self):
        csf = make_family("jia-diff", k=1)
        theta = np.linspace(-5, 5, 21)
        np.testing.assert_allclose(csf.z(theta, 0.0), csf.z(theta, 1.0), atol=1e-15)


@pytest.mark.parametrize("case", CONCAVE_CASES, ids=case_id)
class TestConcaveFamily:
    def test_outcome_is_share_of_shifted_total(self, case):
        csf = build(case)
        x1, x2 = 0.8, 0.3
        f1, f2 = x1 ** csf.r, x2 ** csf.r
        total = f1 + f2 + 1.0
        p1, p2, p0 = csf.outcome(x1, x2)
        assert p1 == pytest.approx(f1 / total, abs=1e-14)
        assert p2 == pytest.approx(f2 / total, abs=1e-14)
        assert p0 == pytest.approx(1.0 / total, abs=1e-14)

    def test_win_prob_blends_tie_share(self, case):
        csf = build(case)
        p1, _, p0 = csf.outcome(0.8, 0.3)
        assert csf.win_prob(0.8, 0.3, 0.25) == pytest.approx(p1 + 0.25 * p0, abs=1e-14)

    def test_impact_power_curve(self, case):
        """Own share over the tie share is the impact x^r."""
        csf = build(case)
        x = np.array([0.0, 0.5, 1.0, 4.0])
        p1, _, p0 = csf.outcome(x, 1.0)
        np.testing.assert_allclose(p1 / p0, x ** csf.r, rtol=1e-15, atol=1e-15)

    def test_win_slope_requires_positive_effort(self, case):
        """At x1 = 1 against no rival effort the slope is the impact's slope r
        times the head 1 - q over T^2 = 4."""
        csf = build(case)
        with pytest.raises(DomainError):
            csf.win_prob_d1(0.0, 1.0, 0.3)
        assert csf.win_prob_d1(1.0, 0.0, 0.3) == pytest.approx(csf.r * 0.7 / 4.0, abs=1e-15)

    def test_negative_effort_rejected(self, case):
        csf = build(case)
        with pytest.raises(DomainError):
            csf.outcome(-0.2, 0.1)


@pytest.mark.parametrize("efforts", [2.5e199, np.array([2.5e199, 2.5e199])])
def test_concave_win_slope_at_huge_efforts_stays_finite(efforts):
    """The squared total (5e199)^2 would overflow; dividing twice does not."""
    csf = make_family("blavatskyy-power", r=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = csf.win_prob_d1(efforts, efforts, 0.5)
    np.testing.assert_allclose(got, 1e-200, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("case", CONCAVE_CASES, ids=case_id)
@pytest.mark.parametrize("effort", [1e110, 2.5e199, 1e308, sys.float_info.max])
def test_concave_shares_at_huge_efforts_stay_finite(case, effort):
    """Equal huge efforts split the win evenly and leave the tie 1 / (2 x^r + 1),
    with no warning, also where 2 x^r + 1 overflows at linear impact."""
    csf = build(case)
    r = csf.r
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p1, p2, tie = csf.outcome(effort, effort)
        win = csf.win_prob(effort, effort, 0.3)
    assert p1 == p2 == win == 0.5
    assert tie == pytest.approx(0.5 / effort ** r, rel=1e-15, abs=5e-324) and tie > 0.0


@pytest.mark.parametrize("case", CONCAVE_CASES, ids=case_id)
@pytest.mark.parametrize("name", ["outcome", "win_prob", "win_prob_d1"])
def test_concave_accessors_return_a_builtin_float_for_a_scalar(case, name):
    csf = build(case)
    call = (lambda x: csf.outcome(x, 1.0)) if name == "outcome" else (
        lambda x: getattr(csf, name)(x, 1.0, 0.3))
    for x in (2.0, np.float64(2.0), np.array(2.0)):
        got = call(x)
        assert all(type(v) is float for v in (got if name == "outcome" else (got,)))
    got = call([0.5, 2.0])
    for value in (got if name == "outcome" else (got,)):
        assert type(value) is np.ndarray and value.shape == (2,)


def _quiet(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call()


def test_linear_impact_slope_at_the_least_effort_is_exact():
    """At x1 = 5e-324, T = x1 + x2 + 1 = 2 and the rival's head is 1.7, so
    win' = head / T^2 = 0.425 and win = (x1 + 0.3) / T = 0.15 exactly."""
    csf = make_family("blavatskyy-power", r=1.0)
    assert _quiet(lambda: csf.win_prob_d1(5e-324, 1.0, 0.3)) == 0.425
    assert _quiet(lambda: csf.win_prob(5e-324, 1.0, 0.3)) == 0.15


def test_win_slope_evaluates_no_curvature():
    """The slope r x^(r - 1) h / T^2 is finite at r = 0.5, x1 = 1e-300, where the
    curvature's x^(r - 2) is not."""
    csf = make_family("blavatskyy-power", r=0.5)
    got = _quiet(lambda: csf.win_prob_d1(1e-300, 1.0, 0.3))
    assert got == pytest.approx(0.5e150 * 1.7 / 4.0, rel=1e-15)


def test_win_slope_against_a_zero_head_is_zero():
    """x2 = 0 and q = 1 leave the rival no head: player 1 wins for sure at
    every own effort, so win' is 0 even where the impact's slope is 5e149."""
    csf = make_family("blavatskyy-power", r=0.5)
    assert _quiet(lambda: csf.win_prob_d1(1e-300, 0.0, 1.0)) == 0.0
    got = _quiet(lambda: csf.win_prob_d1(np.array([1e-300, 1.0]), 0.0, [1.0, 0.5]))
    assert got[0] == 0.0 and got[1] > 0.0


def test_concave_win_slope_at_tiny_effort_overflows_quietly():
    """At r = 0.01, x1 = 5e-324: the slope's x^-0.99 is past the largest double."""
    assert _quiet(lambda: make_family("blavatskyy-power", r=0.01).win_prob_d1(
        5e-324, 1.0, 0.2)) == math.inf


def test_linear_impact_shares_where_the_impact_total_overflows():
    """x1 + x2 + 1 overflows at (1.5e308, 1e308), where halving each term is exact:
    the shares are 0.6, 0.4 and 1 / 2.5e308, with no warning, and an entry whose
    total is finite keeps its bits beside one whose total overflows."""
    csf = make_family("blavatskyy-power", r=1.0)
    want = (0.6, 0.4, 0.5 / 1.25e308)
    assert _quiet(lambda: csf.outcome(1.5e308, 1e308)) == want
    assert _quiet(lambda: csf.win_prob(1.5e308, 1e308, 0.3)) == 0.6
    spec = make_contest("blavatskyy-power", r=1.0, v1=2.0, v2=1.0, q=0.3)
    got = _quiet(lambda: outcome_distribution(spec, (1.5e308, 1e308)))
    assert (got.p1, got.p2, got.p0) == want
    x1, x2 = np.array([1.5e308, 3.0]), np.array([1e308, 1.0])
    for got, alone in zip(_quiet(lambda: csf.outcome(x1, x2)), zip(want, csf.outcome(3.0, 1.0))):
        assert got.tolist() == list(alone)
    assert _quiet(lambda: csf.win_prob(x1, x2, 0.3)).tolist() == [0.6, csf.win_prob(3.0, 1.0, 0.3)]


LARGEST = sys.float_info.max


@pytest.mark.parametrize("x1, x2", [
    (1.5e308, 1e308), (1e308, 1.5e308), (LARGEST, LARGEST), (LARGEST, 0.0), (0.0, LARGEST),
    (LARGEST, 1.0), (5e-324, LARGEST), (LARGEST, 1e307), (1e308, 1e308), (1e308, 8e307),
    (9e307, 9e307), (8.9e307, 8.9e307), (LARGEST / 2.0, LARGEST / 2.0)])
def test_linear_impact_shares_near_the_largest_double_are_within_an_ulp(x1, x2):
    """Each share and the eventual win probability lie within one ulp of the exact
    rational x_i / (x1 + x2 + 1), quietly, where the total overflows (halved) and
    where it just stays finite (the last two pairs)."""
    csf = make_family("blavatskyy-power", r=1.0)
    total = Fraction(x1) + Fraction(x2) + 1
    exact = (Fraction(x1) / total, Fraction(x2) / total, 1 / total,
             (Fraction(x1) + Fraction(0.3)) / total)
    got = (*_quiet(lambda: csf.outcome(x1, x2)), _quiet(lambda: csf.win_prob(x1, x2, 0.3)))
    for value, want in zip(got, exact, strict=True):
        assert abs(Fraction(value) - want) <= Fraction(math.ulp(float(want))), (value, want)


@pytest.mark.parametrize("family", ["jia-ratio", "vesperoni-ratio"])
@pytest.mark.parametrize("theta", [1e200, np.array([1e200, 1e200])])
def test_ratio_curvature_at_huge_ratios_is_quiet(family, theta):
    """theta * theta overflows to inf, so z'' is -0.0, with no warning."""
    csf = make_family(family, r=0.5, k=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zpp = csf.z_slopes(theta, 0.3)[1]
    assert np.all(np.asarray(zpp) == 0.0) and np.all(np.signbit(zpp))


TIE_RULE_METHODS = {
    "ratio": ("z", "z_prime", "z_slopes"),
    "diff": ("z", "z_prime", "z_slopes"),
    "concave": ("win_prob", "win_prob_d1"),
}


def _tie_rule_method(csf, name):
    """The named method; for `z_slopes` its z_q'' row (its z_q' row is
    `z_prime`'s, bit for bit, as `TestZSlopes` checks)."""
    if name == "z_slopes":
        return lambda *args: csf.z_slopes(*args)[1]
    return getattr(csf, name)

Q_COLUMN = np.array([0.0, 0.3, 0.5, 0.9871, 1.0])[:, None]


def _states(csf):
    """The arguments before q of a tie-rule method, as 1-D arrays of one length."""
    if csf.kind == "concave":
        x = np.geomspace(1e-3, 1e2, 9)
        return (x, x[::-1].copy())
    if csf.kind == "ratio":
        return (np.geomspace(1e-3, 1e3, 9),)
    return (np.linspace(-8.0, 8.0, 9),)


@pytest.mark.parametrize("case,name", [
    (case, name) for case in ALL_REDUCED + CONCAVE_CASES
    for name in TIE_RULE_METHODS[build(case).kind]
], ids=lambda v: case_id(v) if isinstance(v, tuple) else v)
class TestArrayTieShares:
    """Every method taking a tie rule broadcasts an array of tie shares."""

    def test_q_column_against_a_state_row_matches_per_q_calls(self, case, name):
        csf = build(case)
        method, states = _tie_rule_method(csf, name), _states(csf)
        table = method(*(s[None, :] for s in states), Q_COLUMN)
        assert table.shape == (Q_COLUMN.size, states[0].size)
        for row, q in zip(table, Q_COLUMN[:, 0].tolist()):
            np.testing.assert_array_equal(row, method(*states, q))

    def test_q_array_is_elementwise_with_states(self, case, name):
        csf = build(case)
        method, states = _tie_rule_method(csf, name), _states(csf)
        qs = np.linspace(0.0, 1.0, states[0].size)
        out = method(*states, qs)
        assert out.shape == qs.shape
        for j, q in enumerate(qs.tolist()):
            assert out[j] == method(*states, q)[j], j

    def test_tie_shares_outside_the_unit_interval_raise(self, case, name):
        csf = build(case)
        method, states = _tie_rule_method(csf, name), _states(csf)
        for bad in ([0.2, np.nan], np.array([-0.1]), (0.5, 1.1), np.array([[0.3], [np.inf]]),
                    ["a"]):
            with pytest.raises(ValidationError):
                method(*(s[0] for s in states), bad)

    def test_scalar_inputs_return_a_builtin_float(self, case, name):
        csf = build(case)
        method, states = _tie_rule_method(csf, name), _states(csf)
        for q in (0.3, TieRule(0.3), np.float64(0.3)):
            assert type(method(*(float(s[4]) for s in states), q)) is float


@pytest.mark.parametrize("case", ALL_REDUCED, ids=case_id)
class TestZSlopes:
    """`z_slopes` returns (z_q', z_q'') from one call, z_q' exactly as `z_prime` does."""

    def test_q_column_against_a_state_row_matches_the_accessors_bit_for_bit(self, case):
        csf = build(case)
        row = _states(csf)[0][None, :]
        zp, zpp = csf.z_slopes(row, Q_COLUMN)
        assert zp.shape == zpp.shape == (Q_COLUMN.size, row.size)
        assert zp.tobytes() == csf.z_prime(row, Q_COLUMN).tobytes()
        for got, q in zip(zpp, Q_COLUMN[:, 0].tolist()):
            assert got.tobytes() == csf.z_slopes(row[0], q)[1].tobytes()

    def test_scalar_inputs_return_builtin_floats(self, case):
        csf = build(case)
        theta = float(_states(csf)[0][4])
        for q in (0.3, TieRule(0.3), np.float64(0.3)):
            zp, zpp = csf.z_slopes(theta, q)
            assert type(zp) is float and type(zpp) is float
            assert zp == csf.z_prime(theta, q)
            assert zpp == csf.z_slopes(np.array([theta]), q)[1][0]

    def test_tie_shares_outside_the_unit_interval_raise(self, case):
        csf = build(case)
        theta = float(_states(csf)[0][4])
        for bad in (np.nan, -0.1, 1.1, [0.2, np.nan], np.array([-0.1]), (0.5, 1.1)):
            with pytest.raises(ValidationError):
                csf.z_slopes(theta, bad)


DIFF_KERNEL_THETAS = (0.0, -0.0, 1e-300, -1e-300, 1e-9, -1e-9, 0.3, 1.0, -1.0, 1.5, -1.5,
                      36.0, -36.0, 700.0, -700.0, 745.0, -745.0,
                      *np.random.default_rng(1206).uniform(-40.0, 40.0, 120).tolist())
RATIO_KERNEL_THETAS = (1e-320, 5e-324, 1e-200, 1e-160, 1.0, 1e154, 1e200, 1e308,
                       *(10.0 ** np.random.default_rng(1407).uniform(-320.0, 308.0, 150)).tolist())
DIFF_KERNEL_KS = (1.0, 1.5, 2.0, 2.5, 3.0, 7.3, 1e3, 1e6, 1e9, 1e12)
RATIO_KERNEL_PARAMS = ((0.05, 1.0), (0.3, 1.5), (0.5, 2.0), (1.0, 1.0), (1.0, 2.0), (2.0, 7.3),
                       (50.0, 3.0))
KERNEL_FAMILIES = ([(family, {"k": k}) for family in ("jia-diff", "vesperoni-diff")
                    for k in DIFF_KERNEL_KS]
                   + [(family, {"r": r, "k": k}) for family in ("jia-ratio", "vesperoni-ratio")
                      for r, k in RATIO_KERNEL_PARAMS])


def _kernel_results(csf, theta, q, xp):
    """Every kernel of a reduced family at theta and tie rule q on the primitives `xp`."""
    return (*csf._shares(theta, xp), *csf._triple(theta, xp), csf._zp(theta, q, xp),
            *csf._zslopes(theta, q, xp))


@pytest.mark.parametrize("q", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("family, params", KERNEL_FAMILIES, ids=map(case_id, KERNEL_FAMILIES))
def test_float_kernels_match_the_lane_kernels_bit_for_bit(family, params, q):
    """The scalar solvers run the kernels on `FLOATS`, the lanes on `LANES`: a
    float theta gives builtin floats with a one-element array's bits, and with
    its entry's bits in lanes that hold every theta (both sides of a ratio
    family's 1 or a difference family's 0), sign of zero, overflowed and
    underflowed ratio slopes included, and raises and warns nothing."""
    csf = make_family(family, **params)
    ratio = csf.kind == "ratio"
    thetas = RATIO_KERNEL_THETAS if ratio else DIFF_KERNEL_THETAS
    # ratio lanes warn where a slope leaves the normal range
    with np.errstate(all="ignore") if ratio else np.errstate():
        every = _kernel_results(csf, np.array(thetas), q, LANES)
    for i, theta in enumerate(thetas):
        with np.errstate(all="ignore") if ratio else np.errstate():
            refs = _kernel_results(csf, np.array([theta]), q, LANES)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gots = _kernel_results(csf, theta, q, FLOATS)
        for got, ref, entry in zip(gots, refs, every, strict=True):
            assert type(got) is float and np.float64(got).tobytes() == ref.tobytes(), (
                theta, got, ref)
            assert entry[i].tobytes() == ref.tobytes(), (theta, entry[i], ref)


class PowerCount(np.ndarray):
    """An ndarray that counts the entries `np.power` computes on it or on arrays
    computed from it: its whole output, or where a `where=` mask holds."""

    powered = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        def base(x):
            return x.view(np.ndarray) if isinstance(x, PowerCount) else x

        kwargs = {key: tuple(map(base, v)) if key == "out" else base(v) for key, v in kwargs.items()}
        kwargs.setdefault("out", None)  # the out=None NumPy drops: a masked call sets its mask only
        result = getattr(ufunc, method)(*map(base, inputs), **kwargs)
        if ufunc is np.power:
            mask = np.broadcast_to(kwargs.get("where", True), result.shape)
            PowerCount.powered += np.count_nonzero(mask)
        return result.view(PowerCount) if type(result) is np.ndarray else result


@pytest.mark.parametrize("family, per_entry", [("jia-ratio", 1), ("vesperoni-ratio", 3)])
def test_ratio_shares_power_each_entry_of_a_mixed_block_once(family, per_entry):
    """A block on both sides of theta = 1, as the grid oracle evaluates, powers
    each entry once, by its own side's exponent: jia's core takes no power, and
    vesperoni's adds s^k and sb^k.  Its bits are the float instance's (see
    `test_float_kernels_match_the_lane_kernels_bit_for_bit`)."""
    csf = make_family(family, r=0.5, k=2.0)
    block = np.array([[1e-3, 0.5, 0.999, 1.0], [1.001, 2.0, 7.0, 1e6]])
    PowerCount.powered = 0
    shares = csf._shares(block.view(PowerCount), LANES)
    assert PowerCount.powered == per_entry * block.size
    for i, theta in enumerate(block.flat):
        assert [float(share.flat[i]) for share in shares] == list(csf._shares(theta, FLOATS))


@pytest.mark.parametrize("mask, holds", [
    (np.zeros(101, dtype=bool), False),
    (np.arange(101) == 50, True),
    (np.ones((2, 3), dtype=bool), True),
])
def test_lane_live_is_a_builtin_bool(mask, holds):
    """`LANES.live` returns a builtin bool, as `FLOATS.live` does, so that
    `live(c) and ...` in a solver step is a bool on either instance."""
    got = LANES.live(mask)
    assert type(got) is bool and got is holds


@pytest.mark.parametrize("case", ALL_REDUCED, ids=case_id)
def test_tie_slopes_evaluate_the_shares_once(monkeypatch, case):
    """p0' and p0'' are the rows of `z_slopes` at the tie rules 0 and 1, and one
    call takes both rows from one share evaluation, with the bits of per-q
    calls (2,001 points, as the convexity precondition scans, and one float)."""
    csf = build(case)
    theta = np.linspace(0.01 if csf.kind == "ratio" else -3.0, 3.0, 2001)
    ends = np.array([[0.0], [1.0]])
    wants = [([csf.z_slopes(th, q) for q in (0.0, 1.0)],
              csf.z_prime(th, 1.0) - csf.z_prime(th, 0.0)) for th in (theta, 0.7)]
    shares, calls = type(csf)._shares, []

    def counted(self, *args):
        calls.append(args)
        return shares(self, *args)

    monkeypatch.setattr(type(csf), "_shares", counted)
    for th, (want, want_tie) in zip((theta, 0.7), wants):
        got = csf.z_slopes(th, ends)
        assert len(calls) == 1
        calls.clear()
        for row, slopes in enumerate(want):
            for i in (0, 1):
                assert np.asarray(got[i][row]).tobytes() == np.asarray(slopes[i]).tobytes()
        assert (got[0][1] - got[0][0]).tobytes() == np.asarray(want_tie).tobytes()


@pytest.mark.parametrize("family", ["jia-diff", "vesperoni-diff"])
@pytest.mark.parametrize("k", [1.0, 2.0, 7.3, 1e6])
def test_nonnegative_theta_arrays_skip_the_sign_selection_bit_for_bit(family, k):
    """Gap roots evaluate the kernels at theta >= 0 only, where the shares are
    returned without a sign selection; they equal the shares that a call whose
    array also holds negative thetas selects."""
    csf = make_family(family, k=k)
    theta = np.array([0.0, -0.0, 1e-300, 0.5, 745.0, 800.0,
                      *np.random.default_rng(2107).uniform(0.0, 40.0, 60)])
    mixed = np.concatenate([theta, -theta[2:]])
    for complements in (True, False):
        alone = _jia_shares(np.exp(-abs(theta)), theta < 0.0, csf.k, LANES, complements)
        selected = _jia_shares(np.exp(-abs(mixed)), mixed < 0.0, csf.k, LANES, complements)
        for got, ref in zip(alone, selected, strict=True):
            assert got.tobytes() == ref[:theta.size].tobytes()
    q = np.array([[0.0], [0.3], [1.0]])
    for got, ref in zip(csf._zslopes(theta, q, LANES), csf._zslopes(mixed, q, LANES)):
        assert got.tobytes() == np.ascontiguousarray(ref[:, :theta.size]).tobytes()


@pytest.mark.parametrize("case", DIFF_CASES, ids=case_id)
def test_diff_outcome_and_gap_root_return_builtin_floats(case):
    csf = build(case)
    for x1, x2 in [(1.25, 0.5), (0.5, 1.25), (0.0, 0.0), (np.float64(2.0), 1.0)]:
        out = csf.outcome(x1, x2)
        assert all(type(p) is float for p in out), (x1, x2, out)
        assert out == tuple(float(p[0]) for p in csf.outcome(np.array([x1]), np.array([x2])))
    assert type(solve_beta(csf, (3.0, 1.2), 0.3)) is float


class TestJiaSlopePrecision:
    """Jia slopes keep full relative precision where a share approaches one.

    The reference evaluates the same closed forms in 50-digit decimal
    arithmetic, with every complement formed exactly.
    """

    @staticmethod
    def _reference(u, ub, w, wb, q, lead_curv, trail_curv, factor1, factor2):
        zp = factor1 * ((1 - q) * u * ub + q * w * wb)
        zpp = factor2 * ((1 - q) * u * ub * lead_curv + q * w * wb * trail_curv)
        return zp, zpp

    @staticmethod
    def _assert_close(value: float, ref) -> None:
        assert abs((Decimal(value) - ref) / ref) <= Decimal("1e-14")

    @pytest.mark.parametrize("theta", [12.0, 20.0, 30.0, -12.0, -30.0])
    @pytest.mark.parametrize("q", [0.0, 1.0, 0.25])
    def test_jia_diff_against_decimal(self, theta, q):
        csf = make_family("jia-diff", k=2.0)
        with localcontext() as ctx:
            ctx.prec = 50
            e, k, qd = Decimal(theta).exp(), Decimal(2), Decimal(q)
            u, ub = e / (k + e), k / (k + e)
            w, wb = 1 / (k * e + 1), k * e / (k * e + 1)
            zp, zpp = self._reference(u, ub, w, wb, qd, 1 - 2 * u, 2 * w - 1, 1, 1)
            self._assert_close(csf.z_prime(theta, q), zp)
            self._assert_close(csf.z_slopes(theta, q)[1], zpp)

    @pytest.mark.parametrize("theta", [1e8, 1e12, 1e-8, 1e-12])
    @pytest.mark.parametrize("r", [1.0, 0.5])
    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_jia_ratio_against_decimal(self, theta, r, q):
        csf = make_family("jia-ratio", r=r, k=2.0)
        with localcontext() as ctx:
            ctx.prec = 50
            th, rd, k, qd = Decimal(theta), Decimal(r), Decimal(2), Decimal(q)
            t = th**rd
            u, ub = t / (t + k), k / (t + k)
            w, wb = 1 / (1 + k * t), k * t / (1 + k * t)
            zp, zpp = self._reference(u, ub, w, wb, qd, 2 * rd * u + 1 - rd,
                                      2 * rd * wb + 1 - rd, rd / th, -rd / th**2)
            self._assert_close(csf.z_prime(theta, q), zp)
            self._assert_close(csf.z_slopes(theta, q)[1], zpp)


def _ratio_slopes_decimal(family, r, k, theta, q):
    """(z_q', z_q'') of a ratio family in 50-digit decimal arithmetic, from the
    closed forms of its class docstring with t = theta^r."""
    with localcontext() as ctx:
        ctx.prec = 50
        th, r, k, q = Decimal(theta), Decimal(r), Decimal(k), Decimal(q)
        t = th ** r
        if family == "jia-ratio":
            u, ub, w, wb = t / (t + k), k / (t + k), 1 / (1 + k * t), k * t / (1 + k * t)
            lead, trail = (1 - q) * u * ub, q * w * wb
            return (r / th * (lead + trail),
                    -r / th**2 * (lead * (2 * r * u + 1 - r) + trail * (2 * r * wb + 1 - r)))
        u, ub = t / (1 + t), 1 / (1 + t)
        lead, trail = (1 - q) * u**k * ub, q * u * ub**k
        return (k * r / th * (lead + trail),
                k * r / th**2 * (lead * ((r * k - 1) * ub - (1 + r) * u)
                                 + trail * ((r - 1) * ub - (1 + k * r) * u)))


def _ratio_slope_draws(family, extreme, count=500):
    """(r, k, theta, q) drawn as `tools/bitscan.py` draws ratio contests: design
    scale r in (0, 1], k in [1, 10], prize ratio in [1, 10]; extreme scale r
    within 1e-6 to 1e-2 of 0 or 1, k up to 1e9, ratio up to 1e3; vesperoni's r
    divided by k.  Theta is the ratio or its inverse."""
    rng = random.Random(f"2026:{family}:{extreme}")
    for _ in range(count):
        if extreme:
            edge = math.exp(rng.uniform(math.log(1e-6), math.log(1e-2)))
            r, k = rng.choice((edge, 1.0 - edge)), math.exp(rng.uniform(0.0, math.log(1e9)))
            ratio = math.exp(rng.uniform(0.0, math.log(1e3)))
        else:
            r, k, ratio = 1.0 - rng.random(), rng.uniform(1.0, 10.0), math.exp(
                rng.uniform(0.0, math.log(10.0)))
        theta = ratio if rng.random() < 0.5 else 1.0 / ratio
        yield r / k if family == "vesperoni-ratio" else r, k, theta, rng.random()


# Largest relative errors, in eps, of (z_q', z_q'') on `_ratio_slope_draws`, both
# sides of 1 each: the maxima of the per-family ratio kernels that worked from
# theta^r, which the shared core replaced, measured the same way.  Vesperoni's
# extreme draws lose digits where u^k nears the subnormal range, on either path.
RATIO_SLOPE_BUDGETS = {("jia-ratio", False): (2.06, 2.86), ("jia-ratio", True): (2.00, 2.82),
                       ("vesperoni-ratio", False): (10.56, 11.49),
                       ("vesperoni-ratio", True): (562.2, 563.15)}


@pytest.mark.parametrize("family, extreme", RATIO_SLOPE_BUDGETS, ids=lambda v: str(v))
def test_ratio_slopes_hold_their_error_budgets(family, extreme):
    worst = [0.0, 0.0]
    for r, k, theta, q in _ratio_slope_draws(family, extreme):
        csf = make_family(family, r=r, k=k)
        for th in (theta, 1.0 / theta):
            slopes = csf.z_slopes(th, q)
            assert slopes[0] == csf.z_prime(th, q)
            for i, (got, ref) in enumerate(zip(slopes, _ratio_slopes_decimal(family, r, k, th, q))):
                if abs(ref) > Decimal(sys.float_info.min):
                    error = abs((Decimal(got) - ref) / ref) / Decimal(sys.float_info.epsilon)
                    worst[i] = max(worst[i], float(error))
    assert worst[0] <= RATIO_SLOPE_BUDGETS[family, extreme][0], worst
    assert worst[1] <= RATIO_SLOPE_BUDGETS[family, extreme][1], worst


@pytest.mark.parametrize("family", ["jia-ratio", "vesperoni-ratio"])
@pytest.mark.parametrize("theta", [5e-324, 1e-320])
def test_ratio_slopes_at_subnormal_theta_are_finite(family, theta):
    """z_q', of order r theta^(r - 1), stays in range where theta is subnormal:
    the share products are divided by theta, never multiplied by r / theta,
    which overflows.  p0' is z_1' - z_0' of those finite rows."""
    csf = make_family(family, r=0.5, k=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = csf.z_prime(theta, 0.3), csf.z_prime(theta, 1.0) - csf.z_prime(theta, 0.0)
    slopes = [_ratio_slopes_decimal(family, 0.5, 2.0, theta, q)[0] for q in (0.3, 1.0, 0.0)]
    for value, ref in zip(got, (slopes[0], slopes[1] - slopes[2])):
        assert math.isfinite(value) and abs((Decimal(value) - ref) / ref) <= Decimal("1e-13")


def _masked_ratio_outcome(csf, x1, x2):
    """`RatioCsf.outcome` as it was formed with zero-effort masks: the reference.

    Theta is kept an array for the lane kernels: the float kernels give the same
    bits, but Python floats raise on a ratio that underflows to zero."""
    x1a, x2a = np.broadcast_arrays(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
    interior = (x1a > 0) & (x2a > 0)
    with np.errstate(over="ignore"):
        theta = np.asarray(np.where(interior, x1a, 1.0) / np.where(interior, x2a, 1.0))
    win1, win2, tie = csf._triple(theta, LANES)
    only1 = (x1a > 0) & (x2a == 0)
    only2 = (x1a == 0) & (x2a > 0)
    win1 = np.where(only1, 1.0, np.where(only2, 0.0, win1))
    win2 = np.where(only1, 0.0, np.where(only2, 1.0, win2))
    tie = np.where(only1 | only2, 0.0, tie)
    return tuple(float(p) if np.ndim(p) == 0 else p for p in (win1, win2, tie))


OUTCOME_EFFORTS = np.concatenate([
    [0.0, 5e-324, 1e-310, 1e-300, 1e-10, 0.5, 1.0, 2.0, 1e10, 1e300, 1.7e308],
    10.0 ** np.random.default_rng(1903).uniform(-320.0, 308.0, 60),
    np.random.default_rng(1904).uniform(0.0, 3.0, 60),
])


@pytest.mark.parametrize("family,params", [
    *RATIO_CASES, ("vesperoni-ratio", dict(r=0.001, k=1000)), ("jia-ratio", dict(r=5.0, k=3)),
], ids=lambda v: v if isinstance(v, str) else "-".join(f"{k}{x:g}" for k, x in v.items()))
def test_ratio_outcome_matches_the_masked_formula_bit_for_bit(family, params):
    """Zeros in either argument, subnormal, huge and overflowing ratios; broadcast
    grids, 0-d arrays and scalars, with no warning."""
    csf = make_family(family, **params)
    x = OUTCOME_EFFORTS
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = csf.outcome(x[:, None], x[None, :])
        zero_d = csf.outcome(np.array(x[3]), np.array(x[:5]))
        scalars = [csf.outcome(float(a), float(b)) for a in x[::7] for b in x[::5]]
    for got, ref in zip(grid + zero_d, _masked_ratio_outcome(csf, x[:, None], x[None, :])
                        + _masked_ratio_outcome(csf, np.array(x[3]), np.array(x[:5]))):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    refs = [_masked_ratio_outcome(csf, float(a), float(b)) for a in x[::7] for b in x[::5]]
    for got, ref in zip(scalars, refs):
        assert all(type(p) is float for p in got)
        assert np.array(got).tobytes() == np.array(ref).tobytes(), (got, ref)


def test_ratio_outcome_of_an_overflowing_or_underflowing_effort_ratio_is_an_outright_win():
    csf = make_family("jia-ratio", r=1.0, k=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert csf.outcome(1e300, 1e-10) == (1.0, 0.0, 0.0)
        assert csf.outcome(1e-10, 1e300)[1:] == (1.0, 0.0)  # theta 1e-310 is subnormal
        assert csf.outcome(5e-324, 1.7e308) == (0.0, 1.0, 0.0)


# The reference for `tie_inflection`: the kernel's p0'' on a dense grid over
# [0, 2 theta*] at seeded k from 1 + 1e-9 to 1e12.  Near theta* and near k = 1,
# p0'' = z_1'' - z_0'' is a difference of terms far larger than itself, so a
# point decides nothing where |p0''| is within a few eps of |z_0''| + |z_1''|;
# nor does one within a few ulps of theta*, which the fact places to two ulps,
# so the grid holds two probes 8 ulps either side of theta*.
INFLECTION_KS = sorted((1.0 + np.exp(np.random.default_rng(2026).uniform(
    np.log(1e-9), np.log(1e12), 40))).tolist())
NOISE_EPS = 8.0 * np.finfo(float).eps


@pytest.mark.parametrize("family", ("jia-diff", "vesperoni-diff"))
def test_tie_curvature_changes_sign_at_the_inflection(family):
    for k in INFLECTION_KS:
        csf = make_family(family, k=k)
        inflection = csf.tie_inflection
        probes = inflection + np.array([-8.0, 8.0]) * np.spacing(inflection)
        theta = np.concatenate([np.linspace(0.0, 2.0 * inflection, 4001), probes])
        lose, win = csf.z_slopes(theta, 0.0)[1], csf.z_slopes(theta, 1.0)[1]
        curvature, noise = win - lose, NOISE_EPS * (np.abs(lose) + np.abs(win))
        want = np.where(theta < inflection, -1.0, 1.0)
        near = np.abs(theta - inflection) <= 4.0 * np.spacing(inflection)
        wrong = (want * curvature <= 0.0) & (np.abs(curvature) > noise) & ~near
        assert not wrong.any(), (k, theta[wrong][:3], curvature[wrong][:3])


@pytest.mark.parametrize("family, k, root", [
    # 1 + rho^k - k (rho + rho^(k - 1)) factors as (1 + x)(x^2 - 5x/2 + 1) in
    # x = sqrt(rho) at k = 1.5 and carries rho^2 - 4 rho + 1 at k = 2 and 3
    ("vesperoni-diff", 1.5, lambda: Decimal(4).ln()),
    ("vesperoni-diff", 2.0, lambda: (2 + Decimal(3).sqrt()).ln()),
    ("vesperoni-diff", 3.0, lambda: (2 + Decimal(3).sqrt()).ln()),
    # cosh theta* = (5/2 + sqrt(25/4 + 32)) / 4
    ("jia-diff", 2.0, lambda: (lambda c: (c + (c * c - 1).sqrt()).ln())(
        (Decimal("2.5") + Decimal("38.25").sqrt()) / 4)),
])
def test_tie_inflection_is_the_nearest_double_to_its_exact_root(family, k, root):
    with localcontext() as ctx:
        ctx.prec = 60
        want = float(root())  # the double nearest the exact root
    assert make_family(family, k=k).tie_inflection == want


@pytest.mark.parametrize("family", ("jia-diff", "vesperoni-diff"))
def test_tieless_families_have_no_concave_tie_stretch(family):
    assert make_family(family, k=1.0).tie_inflection == 0.0


@pytest.mark.parametrize("family", ("jia-diff", "vesperoni-diff"))
@pytest.mark.parametrize("k", (1.0 + 2.0 ** -52, 1e300, 1.7976931348623157e308))
def test_tie_inflection_is_finite_across_the_double_range(family, k):
    inflection = make_family(family, k=k).tie_inflection
    assert 1.0 < inflection < 710.0
