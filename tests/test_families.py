"""Built-in contest families: registry, validation, probability structure."""
from __future__ import annotations

import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from tiebreak import (
    DomainError,
    FAMILIES,
    TieRule,
    ValidationError,
    describe_families,
    family_names,
    make_contest,
    make_family,
    solve_beta,
)

from tiebreak.families import FLOATS, LANES, _logistic_shares

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
        assert isinstance(csf.z_double_prime(np.array([theta]), 0.3), np.ndarray)

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
        f1, f2 = csf.impact(x1), csf.impact(x2)
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
        csf = build(case)
        x = np.array([0.0, 0.5, 1.0, 4.0])
        np.testing.assert_allclose(csf.impact(x), x ** csf.r, atol=1e-15)

    def test_impact_derivative_requires_positive_effort(self, case):
        csf = build(case)
        with pytest.raises(DomainError):
            csf.impact_prime(0.0)
        assert csf.impact_prime(1.0) == pytest.approx(csf.r, abs=1e-15)

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


@pytest.mark.parametrize("r", [0.5, 1.0])
@pytest.mark.parametrize("effort", [1e110, 2.5e199])
def test_concave_curvature_at_huge_efforts_stays_finite(r, effort):
    """total**2 and total**3 would overflow; dividing by the total in turn does not."""
    csf = make_family("blavatskyy-power", r=r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tie_d1 = csf.tie_prob_d1(effort, effort)
        win_d11 = csf.win_prob_d11(effort, effort, 0.5)
        tie_d11 = csf.tie_prob_d11(effort, effort)
    assert all(np.isfinite((tie_d1, win_d11, tie_d11)))
    assert tie_d1 <= 0.0 and win_d11 <= 0.0 and tie_d11 >= 0.0


TIE_RULE_METHODS = {
    "ratio": ("z", "z_prime", "z_double_prime"),
    "diff": ("z", "z_prime", "z_double_prime"),
    "concave": ("win_prob", "win_prob_d1", "win_prob_d11"),
}

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
        method, states = getattr(csf, name), _states(csf)
        table = method(*(s[None, :] for s in states), Q_COLUMN)
        assert table.shape == (Q_COLUMN.size, states[0].size)
        for row, q in zip(table, Q_COLUMN[:, 0].tolist()):
            np.testing.assert_array_equal(row, method(*states, q))

    def test_q_array_is_elementwise_with_states(self, case, name):
        csf = build(case)
        method, states = getattr(csf, name), _states(csf)
        qs = np.linspace(0.0, 1.0, states[0].size)
        out = method(*states, qs)
        assert out.shape == qs.shape
        for j, q in enumerate(qs.tolist()):
            assert out[j] == method(*states, q)[j], j

    def test_tie_shares_outside_the_unit_interval_raise(self, case, name):
        csf = build(case)
        method, states = getattr(csf, name), _states(csf)
        for bad in ([0.2, np.nan], np.array([-0.1]), (0.5, 1.1), np.array([[0.3], [np.inf]]),
                    ["a"]):
            with pytest.raises(ValidationError):
                method(*(s[0] for s in states), bad)

    def test_scalar_inputs_return_a_builtin_float(self, case, name):
        csf = build(case)
        method, states = getattr(csf, name), _states(csf)
        for q in (0.3, TieRule(0.3), np.float64(0.3)):
            assert type(method(*(float(s[4]) for s in states), q)) is float


@pytest.mark.parametrize("case", ALL_REDUCED, ids=case_id)
class TestZSlopes:
    """`z_slopes` returns (z_q', z_q'') from one call, exactly as the accessors do."""

    def test_q_column_against_a_state_row_matches_the_accessors_bit_for_bit(self, case):
        csf = build(case)
        row = _states(csf)[0][None, :]
        zp, zpp = csf.z_slopes(row, Q_COLUMN)
        assert zp.shape == zpp.shape == (Q_COLUMN.size, row.size)
        assert zp.tobytes() == csf.z_prime(row, Q_COLUMN).tobytes()
        assert zpp.tobytes() == csf.z_double_prime(row, Q_COLUMN).tobytes()

    def test_scalar_inputs_return_builtin_floats(self, case):
        csf = build(case)
        theta = float(_states(csf)[0][4])
        for q in (0.3, TieRule(0.3), np.float64(0.3)):
            zp, zpp = csf.z_slopes(theta, q)
            assert type(zp) is float and type(zpp) is float
            assert (zp, zpp) == (csf.z_prime(theta, q), csf.z_double_prime(theta, q))

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
            *csf._zslopes(theta, q, xp), *csf._slopes_and_tie(theta, q, xp))


@pytest.mark.parametrize("q", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("family, params", KERNEL_FAMILIES, ids=map(case_id, KERNEL_FAMILIES))
def test_float_kernels_match_the_lane_kernels_bit_for_bit(family, params, q):
    """The scalar solvers run the kernels on `FLOATS`, the lanes on `LANES`: a
    float theta gives builtin floats with a one-element array's bits, sign of
    zero, overflowed and underflowed ratio slopes included, and raises and
    warns nothing."""
    csf = make_family(family, **params)
    ratio = csf.kind == "ratio"
    for theta in RATIO_KERNEL_THETAS if ratio else DIFF_KERNEL_THETAS:
        # ratio lanes warn where theta^r or theta^2 leaves the normal range
        with np.errstate(all="ignore") if ratio else np.errstate():
            refs = _kernel_results(csf, np.array([theta]), q, LANES)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gots = _kernel_results(csf, theta, q, FLOATS)
        for got, ref in zip(gots, refs, strict=True):
            assert type(got) is float and np.float64(got).tobytes() == ref.tobytes(), (
                theta, got, ref)


@pytest.mark.parametrize("case", ALL_REDUCED, ids=case_id)
def test_tie_slopes_evaluate_the_shares_once(monkeypatch, case):
    """p0' and p0'' take both tie rules' slopes from one share evaluation,
    with the bits of z_1' - z_0' and z_1'' - z_0'' (2,001 points, as the
    convexity precondition scans, and one float)."""
    csf = build(case)
    theta = np.linspace(0.01 if csf.kind == "ratio" else -3.0, 3.0, 2001)
    wants = [(csf.z_prime(th, 1.0) - csf.z_prime(th, 0.0),
              csf.z_double_prime(th, 1.0) - csf.z_double_prime(th, 0.0)) for th in (theta, 0.7)]
    shares, calls = type(csf)._shares, []

    def counted(self, *args):
        calls.append(args)
        return shares(self, *args)

    monkeypatch.setattr(type(csf), "_shares", counted)
    for th, (want_p, want_pp) in zip((theta, 0.7), wants):
        got_p = csf.p0_prime(th)
        assert len(calls) == 1
        got_pp = csf.p0_double_prime(th)
        assert len(calls) == 2
        calls.clear()
        assert type(got_p) is type(want_p) and type(got_pp) is type(want_pp)
        assert np.asarray(got_p).tobytes() == np.asarray(want_p).tobytes()
        assert np.asarray(got_pp).tobytes() == np.asarray(want_pp).tobytes()


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
        alone = _logistic_shares(theta, csf.k, LANES, complements)
        selected = _logistic_shares(mixed, csf.k, LANES, complements)
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
            self._assert_close(csf.z_double_prime(theta, q), zpp)

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
            self._assert_close(csf.z_double_prime(theta, q), zpp)


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
