"""Equilibrium solvers: anchors, first-order residuals, label handling."""
from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest

from tiebreak import (
    ConvergenceError,
    CostKind,
    DEFAULT_TOLERANCES,
    Equilibrium,
    SolveMethod,
    Tolerances,
    ValidationError,
    Valuations,
    make_contest,
    make_family,
    solve,
    solve_beta,
    solve_concave,
    solve_diff,
    solve_ratio,
)
from tiebreak.equilibrium import (
    CORNER_UNIQUENESS_WARNING,
    UNCHECKED_ASSUMPTIONS_WARNING,
    _log_impact_foc,
)

from helpers import DIFF_CASES, FD_REL_TOL, RATIO_CASES, build, case_id, max_rel_err

# Root of gap = sigma(gap) * (1 - sigma(gap)) for prize gap 1, computed by an
# independent 200-step bisection on [0, 1] before the solver existed.
FROZEN_LOGISTIC_GAP_PRIZES_2_1 = 0.24624809274753395


class TestRatioClosedForm:
    def test_linear_tie_response_anchor(self):
        """Doubled-sharpness ratio family at prizes (2, 1): both efforts are
        linear in the tie share with hand-checked coefficients."""
        csf = make_family("jia-ratio", r=1.0, k=2)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            eq = solve_ratio(csf, (2.0, 1.0), q)
            assert eq.x1 == pytest.approx(0.5 - 0.18 * q, abs=1e-12)
            assert eq.x2 == pytest.approx(0.25 - 0.09 * q, abs=1e-12)
            assert eq.method is SolveMethod.CLOSED_FORM

    def test_tieless_lottery_anchor(self):
        csf = make_family("jia-ratio", r=1.0, k=1)
        eq = solve_ratio(csf, (1.0, 1.0), 0.5)
        assert eq.x1 == pytest.approx(0.25, abs=1e-14)
        assert eq.x2 == pytest.approx(0.25, abs=1e-14)

    def test_symmetric_shared_tie_anchor(self):
        eq = solve_ratio(make_family("vesperoni-ratio", r=0.5, k=2), (1.0, 1.0), 0.5)
        assert eq.x1 == pytest.approx(0.125, abs=1e-12)
        assert eq.x2 == pytest.approx(0.125, abs=1e-12)

    @pytest.mark.parametrize("case", RATIO_CASES, ids=case_id)
    def test_effort_ratio_equals_prize_ratio(self, case):
        csf = build(case)
        eq = solve_ratio(csf, (3.0, 1.2), 0.3)
        assert eq.x1 / eq.x2 == pytest.approx(2.5, abs=1e-12)
        assert eq.beta == pytest.approx(2.5, abs=1e-12)

    @pytest.mark.parametrize("case", RATIO_CASES, ids=case_id)
    def test_first_order_residuals_vanish(self, case):
        csf = build(case)
        for v, q in [((2.0, 1.0), 0.0), ((1.0, 3.0), 0.7), ((5.0, 4.0), 1.0)]:
            eq = solve_ratio(csf, v, q)
            assert max(abs(r) for r in eq.residuals) <= DEFAULT_TOLERANCES.closed_form_residual

    def test_swapped_prizes_mirror_the_solution(self):
        # Tie shares 0.25 and 0.75 are exact binary complements, so the
        # mirrored solve reproduces the same floats bit for bit.
        csf = make_family("jia-ratio", r=1.0, k=2)
        ahead = solve_ratio(csf, (2.0, 1.0), 0.25)
        behind = solve_ratio(csf, (1.0, 2.0), 0.75)
        assert behind.x1 == ahead.x2 and behind.x2 == ahead.x1
        assert behind.beta == pytest.approx(1.0 / ahead.beta, abs=1e-14)

    def test_precondition_violation_rejected_without_force(self):
        csf = make_family("vesperoni-ratio", r=0.6, k=2)
        with pytest.raises(ValidationError):
            solve_ratio(csf, (2.0, 1.0), 0.5)
        eq = solve_ratio(csf, (2.0, 1.0), 0.5, force=True)
        assert any("under protest" in w for w in eq.warnings)

    def test_unaudited_warning_togglable(self):
        csf = make_family("jia-ratio", r=1.0, k=2)
        assert UNCHECKED_ASSUMPTIONS_WARNING in solve_ratio(csf, (2.0, 1.0), 0.5).warnings
        clean = solve_ratio(csf, (2.0, 1.0), 0.5, audited=True)
        assert UNCHECKED_ASSUMPTIONS_WARNING not in clean.warnings

    def test_rejects_wrong_family_kind(self):
        with pytest.raises(ValidationError):
            solve_ratio(make_family("jia-diff", k=2), (2.0, 1.0), 0.5)

    def test_tiny_closed_form_efforts_keep_exact_residuals(self):
        """Efforts near 1e-301 square to zero; the residual must not."""
        eq = solve_ratio(make_family("vesperoni-ratio", r=0.001, k=1000), (2.0, 1.0), 0.0)
        assert 1e-302 < eq.x1 < 1e-300
        assert eq.residuals == (0.0, 0.0)

    def test_underflowing_closed_form_raises(self):
        with pytest.raises(ConvergenceError, match="underflow"):
            solve_ratio(make_family("vesperoni-ratio", r=1e-9, k=1e9), (2.0, 1.0), 0.0)


class TestEffortGapRoot:
    def test_equal_prizes_give_exact_zero(self):
        csf = make_family("jia-diff", k=2)
        assert solve_beta(csf, (1.5, 1.5), 0.3) == 0.0

    def test_logistic_anchor(self):
        beta = solve_beta(make_family("jia-diff", k=1), (2.0, 1.0), 0.5)
        assert beta == pytest.approx(FROZEN_LOGISTIC_GAP_PRIZES_2_1, abs=1e-12)

    @pytest.mark.parametrize("case", DIFF_CASES, ids=case_id)
    def test_root_residual_within_tolerance(self, case):
        csf = build(case)
        for v1, v2, q in [(2.0, 1.0, 0.0), (1.2, 1.0, 0.5), (7.0, 2.0, 1.0)]:
            beta = solve_beta(csf, (v1, v2), q)
            resid = abs(beta - (v1 - v2) * csf.z_prime(beta, q))
            assert resid <= DEFAULT_TOLERANCES.beta_residual

    def test_swapped_prizes_use_mirrored_tie_share(self):
        csf = make_family("vesperoni-diff", k=2)
        direct = solve_beta(csf, (2.0, 1.0), 0.25)
        mirrored = solve_beta(csf, (1.0, 2.0), 0.75)
        assert direct == pytest.approx(mirrored, abs=1e-14)
        resid = abs(mirrored - 1.0 * csf.z_prime(mirrored, 0.25))
        assert resid <= DEFAULT_TOLERANCES.beta_residual

    def test_gap_shrinks_as_tie_share_favors_leader(self):
        csf = make_family("vesperoni-diff", k=2)
        betas = [solve_beta(csf, (1.5, 1.0), q) for q in np.linspace(0, 1, 9)]
        assert all(b > 0 for b in betas)
        assert all(later < earlier for earlier, later in zip(betas, betas[1:]))

    def test_rejects_wrong_family_kind(self):
        with pytest.raises(ValidationError):
            solve_beta(make_family("jia-ratio", r=1.0, k=2), (2.0, 1.0), 0.5)

    def test_residual_target_scales_with_the_prize_gap(self):
        """At prizes (1e6, 1) the gap residual's rounding floor is ~1e-10."""
        csf = make_family("jia-diff", k=2)
        beta = solve_beta(csf, (1e6, 1.0), 0.0)
        gap = 1e6 - 1.0
        resid = abs(beta - gap * csf.z_prime(beta, 0.0))
        assert resid <= DEFAULT_TOLERANCES.beta_residual * gap
        assert beta == pytest.approx(12.0219025, abs=1e-6)


class TestDiffSolver:
    def test_efforts_are_prize_times_slope_at_the_gap(self):
        csf = make_family("jia-diff", k=2)
        eq = solve_diff(csf, (1.2, 1.0), 0.25)
        slope = csf.z_prime(eq.beta, 0.25)
        assert eq.x1 == pytest.approx(1.2 * slope, abs=1e-14)
        assert eq.x2 == pytest.approx(1.0 * slope, abs=1e-14)
        assert eq.x1 - eq.x2 == pytest.approx(eq.beta, abs=1e-12)
        assert eq.method is SolveMethod.ROOT_FIND

    def test_effort_ratio_equals_prize_ratio(self):
        eq = solve_diff(make_family("vesperoni-diff", k=3), (3.0, 2.0), 0.6)
        assert eq.x1 / eq.x2 == pytest.approx(1.5, abs=1e-12)

    def test_symmetric_prizes_symmetric_efforts(self):
        csf = make_family("vesperoni-diff", k=1)
        eq = solve_diff(csf, (1.0, 1.0), 0.0)
        assert eq.beta == 0.0
        assert eq.x1 == eq.x2 == pytest.approx(0.25, abs=1e-14)

    def test_swapped_prizes_mirror_the_solution(self):
        csf = make_family("jia-diff", k=2)
        ahead = solve_diff(csf, (1.2, 1.0), 0.25)
        behind = solve_diff(csf, (1.0, 1.2), 0.75)
        assert behind.x1 == ahead.x2 and behind.x2 == ahead.x1
        assert behind.beta == pytest.approx(-ahead.beta, abs=1e-14)

    def test_residuals_in_quadratic_cost_units(self):
        csf = make_family("jia-diff", k=2)
        eq = solve_diff(csf, (1.2, 1.0), 0.5)
        assert max(abs(r) for r in eq.residuals) <= 1e-12


class TestConcaveSolver:
    def test_linear_impact_head_start_substitution(self):
        """At prizes (9, 9) each effort is the lottery benchmark 2.25 minus
        that player's own tie share; the total never moves."""
        csf = make_family("blavatskyy-power", r=1.0)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            eq = solve_concave(csf, (9.0, 9.0), q)
            assert eq.x1 == pytest.approx(2.25 - q, abs=1e-12)
            assert eq.x2 == pytest.approx(2.25 - (1.0 - q), abs=1e-12)
            assert eq.total == pytest.approx(3.5, abs=1e-12)
            assert eq.method is SolveMethod.CLOSED_FORM
            assert eq.beta is None

    def test_negative_formula_value_becomes_corner(self):
        csf = make_family("blavatskyy-power", r=1.0)
        eq = solve_concave(csf, (9.0, 1.0), 0.5)
        assert eq.corner_flags == (False, True)
        assert eq.x2 == 0.0
        assert eq.x1 == pytest.approx(math.sqrt(4.5) - 1.0, abs=1e-10)
        assert eq.method is SolveMethod.FOC_SOLVE
        assert CORNER_UNIQUENESS_WARNING in eq.warnings
        # The cornered player's payoff slope at zero must be nonpositive.
        assert eq.residuals[1] <= 1e-12

    def test_lopsided_prizes_corner_in_closed_form(self):
        csf = make_family("blavatskyy-power", r=1.0)
        eq = solve_concave(csf, (1e12, 1e-6), 0.5)
        assert eq.x1 == pytest.approx(math.sqrt(0.5e12) - 1.0, rel=1e-15)
        assert eq.x2 == 0.0
        assert eq.corner_flags == (False, True)
        assert abs(eq.residuals[0]) <= 1e-12 and eq.residuals[1] <= 0.0

    def test_small_prizes_collapse_to_inactivity(self):
        csf = make_family("blavatskyy-power", r=1.0)
        eq = solve_concave(csf, (1.0, 1.0), 0.0)
        assert (eq.x1, eq.x2) == (0.0, 0.0)
        assert eq.corner_flags == (True, True)

    def test_concave_impact_square_root_anchors(self):
        csf = make_family("blavatskyy-power", r=0.5)
        even = solve_concave(csf, (4.0, 4.0), 0.5)
        assert even.x1 == pytest.approx(0.25, abs=1e-12)
        assert even.x2 == pytest.approx(0.25, abs=1e-12)
        skewed = solve_concave(csf, (4.0, 4.0), 0.0)
        assert skewed.x1 == pytest.approx(4.0 / 9.0, abs=1e-12)
        assert skewed.x2 == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_iterative_residuals_meet_target(self):
        csf = make_family("blavatskyy-power", r=0.7)
        eq = solve_concave(csf, (5.0, 2.0), 0.25)
        assert eq.method is SolveMethod.FOC_SOLVE
        assert max(abs(r) for r in eq.residuals) <= DEFAULT_TOLERANCES.iterative_residual

    def test_swapped_prizes_mirror_the_solution(self):
        csf = make_family("blavatskyy-power", r=0.5)
        ahead = solve_concave(csf, (4.0, 2.0), 0.3)
        behind = solve_concave(csf, (2.0, 4.0), 0.7)
        assert behind.x1 == pytest.approx(ahead.x2, abs=1e-12)
        assert behind.x2 == pytest.approx(ahead.x1, abs=1e-12)

    def test_tiny_rival_impact_keeps_tie_pressure_digits(self):
        """The weak player's pressure f1 + (1 - q) with q = 1 and f1 ~ 1e-15
        must not be rounded through 1 + f1."""
        eq = solve_concave(make_family("blavatskyy-power", r=0.9462), (0.1522, 0.0694), 0.0)
        assert max(abs(r) for r in eq.residuals) <= 1e-12

    def test_underflowing_effort_raises_at_once(self):
        csf = make_family("blavatskyy-power", r=0.999999)
        started = time.perf_counter()
        with pytest.raises(ConvergenceError, match="underflow"):
            solve_concave(csf, (4.0, 2.0), 0.0)
        assert time.perf_counter() - started < 0.1

    def test_log_impact_jacobian_matches_central_differences(self):
        h = 1e-6
        for r, v1, v2, q in [(0.5, 4.0, 2.0, 0.3), (0.9, 4.0, 0.5, 0.0),
                             (0.2, 7.0, 1.0, 1.0), (0.7, 1e3, 1e-3, 0.5)]:
            args = (math.log(r * v1), math.log(r * v2), (1.0 - r) / r,
                    math.log(1.0 - q) if q < 1.0 else -math.inf,
                    math.log(q) if q > 0.0 else -math.inf)
            for g in [(0.3, -0.8), (-2.0, 1.5), (-9.0, -0.1)]:
                _, jac, _ = _log_impact_foc(*g, *args)
                numeric = []
                for i in range(2):
                    up = list(g)
                    down = list(g)
                    up[i] += h
                    down[i] -= h
                    g_up = _log_impact_foc(*up, *args)[0]
                    g_down = _log_impact_foc(*down, *args)[0]
                    numeric.append([(a - b) / (2.0 * h) for a, b in zip(g_up, g_down)])
                fd = (numeric[0][0], numeric[1][0], numeric[0][1], numeric[1][1])
                assert max_rel_err(fd, jac) <= FD_REL_TOL, (r, q, g)

    def test_exhausted_iteration_budget_raises(self):
        csf = make_family("blavatskyy-power", r=0.5)
        squeezed = dataclasses.replace(DEFAULT_TOLERANCES, max_iterations=1)
        with pytest.raises(ConvergenceError, match="residual"):
            solve_concave(csf, (4.0, 4.0), 0.5, tolerances=squeezed)

    def test_rejects_wrong_family_kind(self):
        with pytest.raises(ValidationError):
            solve_concave(make_family("jia-ratio", r=1.0, k=2), (2.0, 1.0), 0.5)


class TestDispatch:
    def test_routes_by_family_class(self):
        ratio = make_contest(family="jia-ratio", v1=2.0, v2=1.0, q=0.5, r=1.0, k=2)
        diff = make_contest(family="jia-diff", v1=1.2, v2=1.0, q=0.5, k=2)
        concave = make_contest(family="blavatskyy-power", v1=9.0, v2=9.0, q=0.5, r=1.0)
        assert solve(ratio).method is SolveMethod.CLOSED_FORM
        assert solve(diff).method is SolveMethod.ROOT_FIND
        assert solve(concave).method is SolveMethod.CLOSED_FORM

    def test_rejects_mismatched_cost_technology(self):
        spec = make_contest(
            family="jia-ratio", v1=2.0, v2=1.0, q=0.5, r=1.0, k=2,
            cost="quadratic_half",
        )
        with pytest.raises(ValidationError, match="linear"):
            solve(spec)

    def test_matches_direct_solver_calls(self):
        spec = make_contest(family="jia-ratio", v1=2.0, v2=1.0, q=0.25, r=1.0, k=2)
        via_dispatch = solve(spec)
        direct = solve_ratio(spec.csf, (2.0, 1.0), 0.25)
        assert via_dispatch.x1 == direct.x1 and via_dispatch.x2 == direct.x2


class TestEquilibriumRecord:
    def test_rejects_negative_efforts(self):
        with pytest.raises(ValidationError):
            Equilibrium(
                x1=-0.1, x2=0.2, beta=None, method=SolveMethod.CLOSED_FORM,
                residuals=(0.0, 0.0),
            )

    def test_total_and_json_shape(self):
        eq = Equilibrium(
            x1=0.3, x2=0.2, beta=1.5, method=SolveMethod.CLOSED_FORM,
            residuals=(0.0, 0.0),
        )
        assert eq.total == pytest.approx(0.5)
        doc = eq.to_json_dict()
        assert set(doc) == {
            "x1", "x2", "beta", "method", "residuals", "corner_flags", "warnings",
        }
        assert doc["method"] == "closed_form"


class TestRandomDrawResiduals:
    def test_gap_roots_over_random_admissible_draws(self):
        """Sixty seeded draws over both difference families: the fixed-point
        residual stays at machine scale and equal prizes hit zero exactly."""
        rng = np.random.default_rng(413)
        for _ in range(60):
            name = "jia-diff" if rng.random() < 0.5 else "vesperoni-diff"
            csf = make_family(name, k=int(rng.integers(1, 6)))
            v_lo = float(10.0 ** rng.uniform(-1.0, 1.0))
            v_hi = v_lo * float(1.0 + rng.uniform(0.0, 3.0))
            q = float(rng.random())
            if rng.random() < 0.2:
                v_hi = v_lo
            v1, v2 = (v_hi, v_lo) if rng.random() < 0.5 else (v_lo, v_hi)
            beta = solve_beta(csf, (v1, v2), q)
            if v1 == v2:
                assert beta == 0.0
                continue
            vals = Valuations(v1, v2)
            q_int = 1.0 - q if vals.swapped else q
            resid = abs(beta - (vals.v1 - vals.v2) * csf.z_prime(beta, q_int))
            assert resid <= DEFAULT_TOLERANCES.beta_residual
