"""Built-in contest families: registry, validation, probability structure."""
from __future__ import annotations

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
)

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
