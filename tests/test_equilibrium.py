"""Equilibrium solvers: anchors, first-order residuals, label handling."""
from __future__ import annotations

import decimal
import fractions
import math
import random
import re
import sys
import time

import numpy as np
import pytest

from tiebreak import (
    ConvergenceError,
    CostKind,
    Equilibrium,
    RandomTieRule,
    SolveMethod,
    ValidationError,
    Valuations,
    expected_effort,
    make_contest,
    make_family,
    optimal_q,
    solve,
    solve_beta,
    solve_many,
    sweep,
)
import tiebreak.equilibrium as equilibrium_mod
from tiebreak.audit import audit_family
from tiebreak.equilibrium import (
    BETA_RESIDUAL,
    UNCHECKED_ASSUMPTIONS_WARNING,
    _concave_newton,
    _log_impact_foc,
    solve_lanes,
)
from tiebreak.families import FLOATS, LANES

from helpers import (DIFF_CASES, FD_REL_TOL, LOTTERY_CONTEST, RATIO_CASES, build, case_id,
                     concave_residual_bound, max_rel_err, solve_at)

# Root of gap = sigma(gap) * (1 - sigma(gap)) for prize gap 1, computed by an
# independent 200-step bisection on [0, 1] before the solver existed.
FROZEN_LOGISTIC_GAP_PRIZES_2_1 = 0.24624809274753395


class TestRatioClosedForm:
    def test_linear_tie_response_anchor(self):
        """Doubled-sharpness ratio family at prizes (2, 1): both efforts are
        linear in the tie share with hand-checked coefficients."""
        csf = make_family("jia-ratio", r=1.0, k=2)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            eq = solve_at(csf, (2.0, 1.0), q)
            assert eq.x1 == pytest.approx(0.5 - 0.18 * q, abs=1e-12)
            assert eq.x2 == pytest.approx(0.25 - 0.09 * q, abs=1e-12)
            assert eq.method is SolveMethod.CLOSED_FORM

    def test_tieless_lottery_anchor(self):
        csf = make_family("jia-ratio", r=1.0, k=1)
        eq = solve_at(csf, (1.0, 1.0), 0.5)
        assert eq.x1 == pytest.approx(0.25, abs=1e-14)
        assert eq.x2 == pytest.approx(0.25, abs=1e-14)

    def test_symmetric_shared_tie_anchor(self):
        eq = solve_at(make_family("vesperoni-ratio", r=0.5, k=2), (1.0, 1.0), 0.5)
        assert eq.x1 == pytest.approx(0.125, abs=1e-12)
        assert eq.x2 == pytest.approx(0.125, abs=1e-12)

    @pytest.mark.parametrize("case", RATIO_CASES, ids=case_id)
    def test_effort_ratio_equals_prize_ratio(self, case):
        csf = build(case)
        eq = solve_at(csf, (3.0, 1.2), 0.3)
        assert eq.x1 / eq.x2 == pytest.approx(2.5, abs=1e-12)
        assert eq.beta == pytest.approx(2.5, abs=1e-12)

    @pytest.mark.parametrize("case", RATIO_CASES, ids=case_id)
    def test_first_order_residuals_vanish(self, case):
        """Closed-form residuals are at rounding level: at most 2 eps here, held to 8 eps."""
        csf = build(case)
        for v, q in [((2.0, 1.0), 0.0), ((1.0, 3.0), 0.7), ((5.0, 4.0), 1.0)]:
            eq = solve_at(csf, v, q)
            assert max(abs(r) for r in eq.residuals) <= 8.0 * sys.float_info.epsilon

    def test_swapped_prizes_mirror_the_solution(self):
        # Tie shares 0.25 and 0.75 are exact binary complements, so the
        # mirrored solve reproduces the same floats bit for bit.
        csf = make_family("jia-ratio", r=1.0, k=2)
        ahead = solve_at(csf, (2.0, 1.0), 0.25)
        behind = solve_at(csf, (1.0, 2.0), 0.75)
        assert behind.x1 == ahead.x2 and behind.x2 == ahead.x1
        assert behind.beta == pytest.approx(1.0 / ahead.beta, abs=1e-14)

    def test_precondition_violation_rejected_without_force(self):
        csf = make_family("vesperoni-ratio", r=0.6, k=2)
        with pytest.raises(ValidationError):
            solve_at(csf, (2.0, 1.0), 0.5)
        eq = solve_at(csf, (2.0, 1.0), 0.5, force=True)
        assert eq.warnings == (UNCHECKED_ASSUMPTIONS_WARNING,)

    def test_tiny_closed_form_efforts_keep_exact_residuals(self):
        """Efforts near 1e-301 square to zero; the residual must not."""
        eq = solve_at(make_family("vesperoni-ratio", r=0.001, k=1000), (2.0, 1.0), 0.0)
        assert 1e-302 < eq.x1 < 1e-300
        assert eq.residuals == (0.0, 0.0)

    def test_underflowing_closed_form_raises(self):
        with pytest.raises(ConvergenceError, match="underflow"):
            solve_at(make_family("vesperoni-ratio", r=1e-9, k=1e9), (2.0, 1.0), 0.0)


@pytest.mark.parametrize("family,params,v,warned", [
    ("jia-ratio", dict(r=1.0, k=2), (2.0, 1.0), False),
    ("jia-diff", dict(k=2), (3.0, 1.2), False),
    ("vesperoni-diff", dict(k=2), (1.2, 3.0), False),
    ("jia-diff", dict(k=2), (1.2, 20.0), True),  # 20 * sqrt(3) / 18 > 1
    ("blavatskyy-power", dict(r=0.5), (4.0, 2.0), False),
], ids=["ratio", "diff", "diff-swapped", "diff-past-its-curvature-bound", "concave"])
def test_the_condition_warning_follows_the_audit(family, params, v, warned):
    """A solve given no keyword warns exactly where the family's audit at the
    larger prize fails."""
    csf = make_family(family, **params)
    assert audit_family(csf, max(v)).passed is not warned
    eq = solve_at(csf, v, 0.5)
    assert eq.warnings == ((UNCHECKED_ASSUMPTIONS_WARNING,) if warned else ())


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
            assert resid <= BETA_RESIDUAL

    def test_swapped_prizes_use_mirrored_tie_share(self):
        csf = make_family("vesperoni-diff", k=2)
        direct = solve_beta(csf, (2.0, 1.0), 0.25)
        mirrored = solve_beta(csf, (1.0, 2.0), 0.75)
        assert direct == pytest.approx(mirrored, abs=1e-14)
        resid = abs(mirrored - 1.0 * csf.z_prime(mirrored, 0.25))
        assert resid <= BETA_RESIDUAL

    def test_gap_shrinks_as_tie_share_favors_leader(self):
        csf = make_family("vesperoni-diff", k=2)
        betas = [solve_beta(csf, (1.5, 1.0), q) for q in np.linspace(0, 1, 9)]
        assert all(b > 0 for b in betas)
        assert all(later < earlier for earlier, later in zip(betas, betas[1:]))

    def test_rejects_wrong_family_kind(self):
        with pytest.raises(ValidationError):
            solve_beta(make_family("jia-ratio", r=1.0, k=2), (2.0, 1.0), 0.5)

    def test_takes_valuations_as_a_prize_pair(self):
        csf = make_family("vesperoni-diff", k=2)
        assert solve_beta(csf, Valuations(1.0, 2.0), 0.75) == solve_beta(csf, (1.0, 2.0), 0.75)

    def test_residual_target_scales_with_the_prize_gap(self):
        """At prizes (1e6, 1) the gap residual's rounding floor is ~1e-10."""
        csf = make_family("jia-diff", k=2)
        beta = solve_beta(csf, (1e6, 1.0), 0.0)
        gap = 1e6 - 1.0
        resid = abs(beta - gap * csf.z_prime(beta, 0.0))
        assert resid <= BETA_RESIDUAL * gap
        assert beta == pytest.approx(12.0219025, abs=1e-6)


class TestDiffSolver:
    def test_efforts_are_prize_times_slope_at_the_gap(self):
        csf = make_family("jia-diff", k=2)
        eq = solve_at(csf, (1.2, 1.0), 0.25)
        slope = csf.z_prime(eq.beta, 0.25)
        assert eq.x1 == pytest.approx(1.2 * slope, abs=1e-14)
        assert eq.x2 == pytest.approx(1.0 * slope, abs=1e-14)
        assert eq.x1 - eq.x2 == pytest.approx(eq.beta, abs=1e-12)
        assert eq.method is SolveMethod.ROOT_FIND

    def test_effort_ratio_equals_prize_ratio(self):
        eq = solve_at(make_family("vesperoni-diff", k=3), (3.0, 2.0), 0.6)
        assert eq.x1 / eq.x2 == pytest.approx(1.5, abs=1e-12)

    def test_symmetric_prizes_symmetric_efforts(self):
        csf = make_family("vesperoni-diff", k=1)
        eq = solve_at(csf, (1.0, 1.0), 0.0)
        assert eq.beta == 0.0
        assert eq.x1 == eq.x2 == pytest.approx(0.25, abs=1e-14)

    def test_swapped_prizes_mirror_the_solution(self):
        csf = make_family("jia-diff", k=2)
        ahead = solve_at(csf, (1.2, 1.0), 0.25)
        behind = solve_at(csf, (1.0, 1.2), 0.75)
        assert behind.x1 == ahead.x2 and behind.x2 == ahead.x1
        assert behind.beta == pytest.approx(-ahead.beta, abs=1e-14)

    def test_residuals_in_quadratic_cost_units(self):
        csf = make_family("jia-diff", k=2)
        eq = solve_at(csf, (1.2, 1.0), 0.5)
        assert max(abs(r) for r in eq.residuals) <= 1e-12


class TestConcaveSolver:
    def test_linear_impact_head_start_substitution(self):
        """At prizes (9, 9) each effort is the lottery benchmark 2.25 minus
        that player's own tie share; the total never moves."""
        csf = make_family("blavatskyy-power", r=1.0)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            eq = solve_at(csf, (9.0, 9.0), q)
            assert eq.x1 == pytest.approx(2.25 - q, abs=1e-12)
            assert eq.x2 == pytest.approx(2.25 - (1.0 - q), abs=1e-12)
            assert eq.total == pytest.approx(3.5, abs=1e-12)
            assert eq.method is SolveMethod.CLOSED_FORM
            assert eq.beta is None

    def test_negative_formula_value_becomes_corner(self):
        csf = make_family("blavatskyy-power", r=1.0)
        eq = solve_at(csf, (9.0, 1.0), 0.5)
        assert eq.corner_flags == (False, True)
        assert eq.x2 == 0.0
        assert eq.x1 == pytest.approx(math.sqrt(4.5) - 1.0, abs=1e-10)
        assert eq.method is SolveMethod.CLOSED_FORM
        assert eq.warnings == ()
        # The cornered player's payoff slope at zero must be nonpositive.
        assert eq.residuals[1] <= 1e-12

    def test_corner_on_the_interior_boundary_keeps_the_first_candidate(self):
        """Here the interior formula gives x2 = -1.1e-16 <= 0 with b1 > 0, which
        decides the corner: (b1, 0) is returned, not (0, b2), by both entry
        points, and player 2's slope there rounds to +2.2e-16, one eps."""
        spec = make_contest(family="blavatskyy-power", v1=5.321030716303847,
                            v2=3.0170996739989486, q=0.3033129832041895, r=1.0)
        (lane,) = solve_many(spec, [spec.q])
        for eq in (solve(spec), lane):
            assert (eq.x1, eq.x2) == (0.9253812651058497, 0.0)
            assert eq.residuals[1] == 2.220446049250313e-16 == sys.float_info.epsilon
            assert eq.corner_flags == (False, True) and eq.warnings == ()

    # a cornered linear-impact solve is closed form too, on both entry points
    def test_lopsided_prizes_corner_in_closed_form(self):
        spec = make_contest("blavatskyy-power", v1=1e12, v2=1e-6, q=0.5, r=1.0)
        (lane,) = solve_many(spec, [spec.q])
        for eq in (solve(spec), lane):
            assert eq.x1 == pytest.approx(math.sqrt(0.5e12) - 1.0, rel=1e-15)
            assert eq.x2 == 0.0
            assert eq.corner_flags == (False, True)
            assert abs(eq.residuals[0]) <= 1e-12 and eq.residuals[1] <= 0.0
            assert eq.method is SolveMethod.CLOSED_FORM

    @pytest.mark.parametrize("v", [(1.0, 1.0), (0.8, 0.5)])
    def test_small_prizes_collapse_to_inactivity(self, v):
        spec = make_contest("blavatskyy-power", v1=v[0], v2=v[1], q=0.0, r=1.0)
        (lane,) = solve_many(spec, [spec.q])
        for eq in (solve(spec), lane):
            assert (eq.x1, eq.x2) == (0.0, 0.0)
            assert eq.corner_flags == (True, True)
            assert eq.method is SolveMethod.CLOSED_FORM

    # prizes whose (v1 + v2)^2 would overflow (past about 1.34e154) or
    # underflow to zero (near 1e-300)
    @pytest.mark.parametrize("v1,v2,q,x1,x2,q_star", [
        (1e200, 1e200, 0.5, 2.5e199, 2.5e199, 0.0),
        (1e200, 1.0, 0.0, 1e100, 0.0, 0.0),
        (1.0, 1e200, 1.0, 0.0, 1e100, 1.0),
        (1e-300, 1e-300, 0.5, 0.0, 0.0, 0.0),
        (1.7e308, 1e-300, 0.5, math.sqrt(0.85e308), 0.0, 0.0),
    ])
    def test_linear_impact_extreme_prizes_solve(self, v1, v2, q, x1, x2, q_star):
        spec = make_contest(family="blavatskyy-power", v1=v1, v2=v2, q=q, r=1.0)
        eq = solve(spec)
        (lane,) = solve_many(spec, [q])
        assert (eq.x1, eq.x2) == (lane.x1, lane.x2) == pytest.approx((x1, x2), rel=1e-15)
        assert eq.residuals == lane.residuals
        for res, cornered in zip(eq.residuals, eq.corner_flags):
            assert (res <= 0.0) if cornered else abs(res) <= 1e-15
        best = optimal_q(spec)
        assert best.q_star.q == q_star
        assert best.total_effort == pytest.approx(solve(spec.with_q(q_star)).total, rel=1e-15)

    @pytest.mark.parametrize("r, prizes", [(1e-155, (3.0, 1.2)), (1e-200, (3.0, 1.2)),
                                           (1e-300, (3.0, 1.2)), (1e-305, (3.0, 1.2)),
                                           (1e-309, (1e300, 4e299)), (5e-324, (1e300, 4e299))])
    def test_exponents_far_below_one_solve(self, r, prizes):
        """Far below linear impact each effort is within 1e-12 of its r -> 0 limit
        x_i = r v_i a_i / 9, with a1 = 2 - q1 and a2 = 1 + q1 (impacts x^r -> 1, T -> 3),
        formed in 60-digit `decimal` from the given doubles, on `solve`, on a `solve_many`
        lane and at `optimal_q`'s q = 0, certified by dR/dq.  In the log-impacts r log x_i,
        Newton's determinant overflows below r of about 7.5e-155, and c = (1 - r) / r is
        inf at a subnormal r; in the log efforts every Jacobian entry is at most 2."""
        (v1, v2), q = prizes, 0.4
        spec = make_contest("blavatskyy-power", v1=v1, v2=v2, q=q, r=r)

        def limits(q1):
            with decimal.localcontext() as ctx:
                ctx.prec = 60
                d = decimal.Decimal
                return (d(r) * d(v1) * (2 - d(q1)) / 9, d(r) * d(v2) * (1 + d(q1)) / 9)

        eq = solve(spec)
        (lane,) = solve_many(spec, [q])
        assert lane == eq and eq.method is SolveMethod.FOC_SOLVE
        assert max(abs(res) for res in eq.residuals) <= 1e-12
        best = optimal_q(spec)
        assert best.q_star.q == 0.0
        for got, q1 in ((eq, q), (best, 0.0)):
            for x, limit in zip((got.x1, got.x2), limits(q1)):
                assert abs(decimal.Decimal(x) - limit) <= decimal.Decimal("1e-12") * limit, (got, q1)

    @pytest.mark.parametrize("r", [1e-308, 1e-309, 5e-324])
    def test_an_effort_below_the_normal_range_still_underflows(self, r):
        spec = make_contest("blavatskyy-power", v1=3.0, v2=1.2, q=0.4, r=r)
        with pytest.raises(ConvergenceError, match="underflows double precision"):
            solve(spec)

    def test_a_least_subnormal_prize_raises_the_underflow_error(self):
        """At v2 = 1e-323, v2 / 4 rounds to 0, so a Newton start formed as log(v / 4)
        raised a bare "math domain error"; from log v - log 4 every entry point raises the
        typed underflow error."""
        spec = make_contest("blavatskyy-power", v1=3.0, v2=1e-323, q=0.4, r=0.5)
        for call in (solve, lambda s: solve_many(s, [0.0, 0.4, 1.0]), lambda s: sweep(s, 11),
                     optimal_q, lambda s: expected_effort(s, RandomTieRule([(0.4, 1.0)]))):
            with pytest.raises(ConvergenceError, match="underflows double precision"):
                call(spec)

    def test_concave_impact_square_root_anchors(self):
        csf = make_family("blavatskyy-power", r=0.5)
        even = solve_at(csf, (4.0, 4.0), 0.5)
        assert even.x1 == pytest.approx(0.25, abs=1e-12)
        assert even.x2 == pytest.approx(0.25, abs=1e-12)
        skewed = solve_at(csf, (4.0, 4.0), 0.0)
        assert skewed.x1 == pytest.approx(4.0 / 9.0, abs=1e-12)
        assert skewed.x2 == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_iterative_residuals_meet_target(self):
        spec = make_contest("blavatskyy-power", v1=5.0, v2=2.0, q=0.25, r=0.7)
        eq = solve(spec)
        assert eq.method is SolveMethod.FOC_SOLVE
        assert max(abs(r) for r in eq.residuals) <= concave_residual_bound(spec)

    def test_swapped_prizes_mirror_the_solution(self):
        csf = make_family("blavatskyy-power", r=0.5)
        ahead = solve_at(csf, (4.0, 2.0), 0.3)
        behind = solve_at(csf, (2.0, 4.0), 0.7)
        assert behind.x1 == pytest.approx(ahead.x2, abs=1e-12)
        assert behind.x2 == pytest.approx(ahead.x1, abs=1e-12)

    def test_tiny_rival_impact_keeps_tie_pressure_digits(self):
        """The weak player's pressure f1 + (1 - q) with q = 1 and f1 ~ 1e-15
        must not be rounded through 1 + f1."""
        eq = solve_at(make_family("blavatskyy-power", r=0.9462), (0.1522, 0.0694), 0.0)
        assert max(abs(r) for r in eq.residuals) <= 1e-12

    def test_underflowing_effort_raises_at_once(self):
        csf = make_family("blavatskyy-power", r=0.999999)
        started = time.perf_counter()
        with pytest.raises(ConvergenceError, match="underflow"):
            solve_at(csf, (4.0, 2.0), 0.0)
        assert time.perf_counter() - started < 0.1

    def test_log_impact_jacobian_matches_central_differences(self):
        """`_log_impact_foc`'s Jacobian in the log efforts y against central differences."""
        h = 1e-6
        for r, v1, v2, q in [(0.5, 4.0, 2.0, 0.3), (0.9, 4.0, 0.5, 0.0),
                             (0.2, 7.0, 1.0, 1.0), (0.7, 1e3, 1e-3, 0.5)]:
            args = (math.log(r * v1), math.log(r * v2), r,
                    math.log(1.0 - q) if q < 1.0 else -math.inf,
                    math.log(q) if q > 0.0 else -math.inf)
            for y in [(0.3, -0.8), (-2.0, 1.5), (-9.0, -0.1)]:
                jac = _log_impact_foc(*y, *args)[2:6]
                numeric = []
                for i in range(2):
                    up = list(y)
                    down = list(y)
                    up[i] += h
                    down[i] -= h
                    g_up = _log_impact_foc(*up, *args)[:2]
                    g_down = _log_impact_foc(*down, *args)[:2]
                    numeric.append([(a - b) / (2.0 * h) for a, b in zip(g_up, g_down)])
                fd = (numeric[0][0], numeric[1][0], numeric[0][1], numeric[1][1])
                assert max_rel_err(fd, jac) <= FD_REL_TOL, (r, q, y)

    def test_exhausted_iteration_budget_raises(self, monkeypatch):
        csf = make_family("blavatskyy-power", r=0.5)
        monkeypatch.setattr(equilibrium_mod, "MAX_ITERATIONS", 1)
        with pytest.raises(ConvergenceError, match="did not reach the rounding floor") as scalar:
            solve_at(csf, (4.0, 4.0), 0.5)
        with pytest.raises(ConvergenceError) as lane:
            solve_many(make_contest("blavatskyy-power", v1=4.0, v2=4.0, q=0.5, r=0.5), [0.5])
        assert str(lane.value) == str(scalar.value)

    def test_the_floor_is_read_at_the_returned_state(self, monkeypatch):
        """At prizes (4, 2), q = 0.3 and r = 0.5 Newton reaches its rounding floor on
        its fourth step: a budget of 4 ends on that step and is accepted by both entry
        points, a budget of 3 is not."""
        spec = make_contest("blavatskyy-power", v1=4.0, v2=2.0, q=0.3, r=0.5)
        monkeypatch.setattr(equilibrium_mod, "MAX_ITERATIONS", 4)
        assert _concave_newton(spec.csf, 4.0, 2.0, 0.3)[2]
        (lane,) = solve_many(spec, [0.3])
        assert lane == solve(spec)
        monkeypatch.setattr(equilibrium_mod, "MAX_ITERATIONS", 3)
        with pytest.raises(ConvergenceError, match="^Newton solve did not reach the rounding "
                           r"floor within 3 iterations \(log-impacts -0.558535, -1.34762 at "
                           r"r = 0.5\)$"):
            solve(spec)

    def test_mirrored_contests_quote_the_same_floor_error(self):
        """At r = 1 - 2^-53 Newton stops off its rounding floor at q1 = 0.6000000000000001
        (0.7 too) and an effort underflows at most other tie rules.  A contest and its
        mirror, prizes swapped and q read as 1 - q, solve the same stronger-player-first
        problem, so their floor errors quote the same log-impacts, stronger player first;
        each lane of `sweep`'s grid fails with its scalar solve's error, and `sweep` with
        the first of them."""
        text = ("Newton solve did not reach the rounding floor within 100 iterations "
                "(log-impacts -0.190455, -32.1434 at r = 0.9999999999999999)")
        strong, weak, q = 12.416185386576371, 1.5288262462377622, 0.6000000000000001
        grid = np.linspace(0.0, 1.0, 11)
        lane_texts = []
        for v, q_user in (((strong, weak), q), ((weak, strong), 1.0 - q)):
            spec = make_contest("blavatskyy-power", v1=v[0], v2=v[1], q=q_user,
                                r=0.9999999999999999)
            with pytest.raises(ConvergenceError) as scalar:
                solve(spec)
            assert str(scalar.value) == text
            assert str(solve_lanes(spec, [0.5, q_user]).errors[1]) == text
            lanes, texts = solve_lanes(spec, grid), {}
            for i, q_lane in enumerate(grid.tolist()):
                try:
                    solve(spec.with_q(q_lane))
                except ConvergenceError as error:
                    texts[i] = str(error)
            assert {i: str(error) for i, error in lanes.errors.items()} == texts
            with pytest.raises(ConvergenceError) as swept:
                sweep(spec, 11)
            assert str(swept.value).endswith(": " + texts[min(texts)])
            lane_texts.append(texts)
        assert lane_texts[0][6] == lane_texts[1][4] == text  # q = 0.6000000000000001 and 0.4
        assert lane_texts[0][7] == lane_texts[1][3] != text
        assert "rounding floor" in lane_texts[0][7]

    def test_an_underflow_off_the_floor_raises_the_underflow_error(self):
        """Here Newton stops off its rounding floor with the weaker effort at
        e^-4.65e8: the underflow gate comes first, on `solve` and on a lane."""
        spec = make_contest("blavatskyy-power", v1=0.5890765271355118, v2=0.01019272421015903,
                            q=2.3914407660929176e-215, r=0.9999989289968744)
        y1, y2, at_floor = _concave_newton(spec.csf, spec.v1, spec.v2, spec.q)
        assert not at_floor and math.exp(y2) == 0.0
        text = ("an equilibrium effort underflows double precision "
                "(log-impacts -494.681, -4.65265e+08 at r = 0.9999989289968744)")
        with pytest.raises(ConvergenceError) as scalar:
            solve(spec)
        assert str(scalar.value) == text
        assert str(solve_lanes(spec, [0.5, spec.q]).errors[1]) == text


def _on_one_scale(*values: float) -> tuple[list[int], int]:
    """Integers n_i and one power of two d with values[i] = n_i / d exactly."""
    ratios = [value.as_integer_ratio() for value in values]
    d = max(den for _, den in ratios)
    return [num * (d // den) for num, den in ratios], d


def _linear_impact_equilibria(v1: float, v2: float, q: float) -> set[tuple[bool, bool]]:
    """Which of a linear-impact contest's three candidate profiles are mutual
    best responses, each named by who is active, decided exactly.

    With heads h1 = q, h2 = 1 - q and y_i = x_i + h_i, player i's payoff
    v_i y_i / Y - x_i is concave in x_i, so a profile is an equilibrium iff
    each active player's slope v_i y_j / Y^2 - 1 is 0 and each idle one's
    <= 0.  The interior profile x_i = v_i^2 v_j / (v1 + v2)^2 - h_i zeroes
    both slopes, so it holds where both efforts are >= 0.  In (b1, 0),
    player 1 answers an idle rival with b1 = sqrt(v1 h2) - 1 where v1 h2 > 1
    and 0 otherwise, and player 2's slope at zero, v2 (b1 + h1) / (b1 + 1)^2
    - 1, is <= 0 iff v2 h1 <= 1 at b1 = 0 and, squared, iff
    v1 v2^2 <= (v1 + v2)^2 h2 at b1 > 0.  (0, b2) is its mirror.  Every
    comparison is made in integers, each value scaled by one power of two."""
    (a1, a2, h1), d = _on_one_scale(v1, v2, q)
    h2, top, one = d - h1, (a1 + a2) ** 2, d * d
    x1, x2 = a1 * a1 * a2 - h1 * top, a2 * a2 * a1 - h2 * top  # times d (v1 + v2)^2 > 0
    found = {(x1 > 0, x2 > 0)} if x1 >= 0 and x2 >= 0 else set()
    if (a2 * h1 <= one) if a1 * h2 <= one else (a1 * a2 * a2 <= top * h2):
        found.add((a1 * h2 > one, False))
    if (a1 * h2 <= one) if a2 * h1 <= one else (a2 * a1 * a1 <= top * h1):
        found.add((False, a2 * h1 > one))
    return found


def _is_the_candidate(eq: Equilibrium, v1: float, v2: float, q: float, active) -> bool:
    """Whether `eq` is the candidate in which the players `active` are active,
    to within 8 eps: where both are, each x_i of v_i^2 v_j / (v1 + v2)^2 - h_i,
    relative to v_i^2 v_j / (v1 + v2)^2 + 1; where player i is alone,
    (x_i + 1)^2 of v_i h_j, relative to v_i h_j."""
    (a1, a2, h1, x1, x2), d = _on_one_scale(v1, v2, q, eq.x1, eq.x2)
    if (x1 > 0, x2 > 0) != active:
        return False
    a, h, x, top = (a1, a2), (h1, d - h1), (x1, x2), (a1 + a2) ** 2
    for i, j in ((0, 1), (1, 0)):
        if all(active):  # times d (v1 + v2)^2 / eps
            lead = a[i] * a[i] * a[j]
            if abs(x[i] * top - lead + h[i] * top) << 52 > 8 * (lead + d * top):
                return False
        elif active[i] and abs((x[i] + d) ** 2 - a[i] * h[j]) << 52 > 8 * a[i] * h[j]:
            return False  # times d^2 / eps
    return True


class TestLinearImpactUniqueness:
    """Every linear-impact contest has exactly one equilibrium (the proof is
    `equilibrium._lottery`'s docstring), and both entry points return it:
    checked exactly on seeded contests at design and extreme prize scales,
    tie rules 0, 1/2 and 1 among random ones."""

    PRIZE_PAIRS = 2500  # each at four tie rules

    def test_exactly_one_candidate_holds_and_is_returned(self):
        rng = random.Random(25)
        seen = set()
        for i in range(self.PRIZE_PAIRS):
            scale = 7.0 if i % 2 else 300.0
            v1, v2 = (math.exp(rng.uniform(-scale, scale)) for _ in range(2))
            qs = [rng.random(), rng.random(), rng.random(), rng.choice((0.0, 0.5, 1.0))]
            spec = make_contest(family="blavatskyy-power", v1=v1, v2=v2, q=qs[0], r=1.0)
            lanes = solve_lanes(spec, qs)
            assert not lanes.errors
            for lane, q in enumerate(qs):
                found = _linear_impact_equilibria(v1, v2, q)
                assert len(found) == 1, (v1, v2, q, found)
                (active,) = found
                eq = solve(spec.with_q(q))
                assert _is_the_candidate(eq, v1, v2, q, active), (v1, v2, q, active, eq)
                assert eq.corner_flags == (not active[0], not active[1])
                # an idle player's slope is <= 0 to rounding: one eps on the
                # interior/corner boundary, -5.7e-4 at most on these 11,813
                assert all(r <= 4.0 * sys.float_info.epsilon
                           for r, on in zip(eq.residuals, active) if not on)
                assert eq.warnings == () and lanes.equilibrium(lane) == eq
                seen.add(active)
        assert len(seen) == 4  # both active, either alone and both idle

    NEAR_BOUNDARY = 2400  # contests, each within 4 ulps of a tie rule zeroing an effort

    def test_contests_on_the_interior_corner_boundary_return_the_exact_equilibrium(self):
        """The corner is decided by the sign of the interior x2 as rounded, which can
        fall on the wrong side of 0 only within rounding of the boundary, where the
        interior and the axis profile meet.  On seeded contests whose tie rule lies
        within 4 ulps of one that zeroes an interior effort, so that the effort is a
        few ulps from 0 on either side, both entry points return the exact
        equilibrium (candidate decided in integers, efforts at 60 digits) to within
        4 eps of max(v_i^2 v_j / (v1 + v2)^2, |x_i|) + 1; the worst seen is 1.63 eps.
        Prizes are drawn stronger player first, so the solver's tie shares are q and
        1 - q exactly; weak-first, the weaker player's head is 1 - (1 - q), rounded."""
        rng, checked, pairs, sides = random.Random(60), 0, 0, set()
        eps = decimal.Decimal(sys.float_info.epsilon)
        while checked < self.NEAR_BOUNDARY:
            scale, pairs = 7.0 if pairs % 2 else 300.0, pairs + 1
            v2, v1 = sorted(math.exp(rng.uniform(-scale, scale)) for _ in range(2))
            lead1, lead2 = v1 * v1 * v2 / (v1 + v2) ** 2, v2 * v2 * v1 / (v1 + v2) ** 2
            qs = []
            for base in (lead1, 1.0 - lead2):  # the tie rules zeroing x1 and x2
                for ulps in rng.sample(range(-4, 5), 3):
                    q = base
                    for _ in range(abs(ulps)):
                        q = math.nextafter(q, 2.0 if ulps > 0 else -1.0)
                    if 0.0 <= q <= 1.0:
                        qs.append(q)
            if not qs:
                continue
            spec = make_contest(family="blavatskyy-power", v1=v1, v2=v2, q=qs[0], r=1.0)
            lanes = solve_lanes(spec, qs)
            assert not lanes.errors
            for lane, q in enumerate(qs):
                (active,) = _linear_impact_equilibria(v1, v2, q)
                with decimal.localcontext() as ctx:
                    ctx.prec = 60
                    a1, a2, h1 = (decimal.Decimal(value) for value in (v1, v2, q))
                    lead = (a1 * a1 * a2 / (a1 + a2) ** 2, a2 * a2 * a1 / (a1 + a2) ** 2)
                    interior = (lead[0] - h1, lead[1] - (1 - h1))
                    sides.update(x > 0 for x in interior if abs(x) < 1e-12)
                    exact = (interior if all(active) else
                             ((a1 * (1 - h1)).sqrt() - 1, 0) if active[0] else
                             (0, (a2 * h1).sqrt() - 1) if active[1] else (0, 0))
                    for eq in (solve(spec.with_q(q)), lanes.equilibrium(lane)):
                        for got, want, lead_i in zip((eq.x1, eq.x2), exact, lead):
                            limit = 4 * eps * (max(lead_i, abs(want)) + 1)
                            assert abs(decimal.Decimal(got) - want) <= limit, (v1, v2, q, eq)
                checked += 1
        assert sides == {False, True}  # interior efforts on both sides of 0


def _log_impact_states(n: int, seed: int):
    """Seeded (y1, y2, r, q1) states of `_log_impact_foc`: exponents from the least
    subnormal to the last double below 1, tie shares at and next to 0 and 1, and log
    efforts across [-800, 800], every other one with a1 = f2 + 1 - q1 near
    a2 = f1 + q1 (f_i = e^(r y_i)), where J12 and J21 sit at rounding level."""
    rng = random.Random(seed)
    rs = (5e-324, 1e-309, 1e-155, 1e-3, 0.5, 0.999999, 1.0 - 1e-12, 1.0 - 2.0**-53)
    qs = (0.0, 1.0, 1e-300, 1.0 - 1e-16, 0.5)
    for i in range(n):
        r = rng.choice(rs) if i % 3 else rng.uniform(1e-3, 1.0)
        q1 = rng.choice(qs) if i % 5 else rng.random()
        y1, y2 = rng.uniform(-800.0, 800.0), rng.uniform(-800.0, 800.0)
        if i % 2:
            g1 = rng.uniform(-5.0, 30.0) * min(1.0, r * 800.0)
            head = math.exp(g1) + 2.0 * q1 - 1.0  # f2 with a1 = a2
            if head > 0.0:
                y = g1 / r, (math.log(head) + rng.choice((0.0, 1e-15, -1e-15, 1e-9))) / r
                if all(map(math.isfinite, y)):
                    y1, y2 = y
        yield y1, y2, r, q1


class TestLogImpactJacobianIsNeverSingular:
    """Below linear impact, the Jacobian in the log efforts y has det J =
    (1 - r)^2 + 2r (1 - r)(s1 + s2) + r^2 f1 f2 / (a1 a2) >= (1 - r)^2 with
    J12 J21 <= 0 and every entry at most 2, so every Newton step exists at every
    double r < 1 and the contest has one equilibrium (the proof is
    `equilibrium._concave_newton`'s docstring)."""

    STATES = 20000

    def test_computed_determinant_is_positive_on_both_instances(self):
        y1, y2, r, q1 = (np.array(column) for column in zip(*_log_impact_states(self.STATES, 59)))
        with np.errstate(divide="ignore"):
            lanes = _log_impact_foc(y1, y2, 0.0, 0.0, r, np.log(1.0 - q1), np.log(q1), LANES)
        floats = [_log_impact_foc(*y, 0.0, 0.0, r_i, FLOATS.log(1.0 - q), FLOATS.log(q))
                  for *y, r_i, q in zip(y1.tolist(), y2.tolist(), r.tolist(), q1.tolist())]
        flipped = 0
        for J11, J12, J21, J22 in (lanes[2:6], [np.array(row) for row in zip(*floats)][2:6]):
            det, cross = J11 * J22 - J12 * J21, J12 * J21
            assert np.all(det >= (1.0 - r) ** 2 * (1.0 - 4.0 * sys.float_info.epsilon))
            assert np.all(np.abs((J11, J12, J21, J22)) <= 2.0)
            # a rounding-flipped product is far below J11 J22
            assert np.all((cross <= 0.0) | (cross < J11 * J22 * sys.float_info.epsilon))
            flipped += np.count_nonzero(cross > 0.0)
        assert flipped > 0  # the scan reaches the rounding-level products

    def test_determinant_identity_in_exact_arithmetic(self):
        """det J and J12 J21 from J's entries as `_log_impact_foc` forms them,
        r (f_i / a_i - 2 s_j) off the diagonal, with f_i = e^(r y_i) to 400 digits
        and everything after it exact rationals: det J equals the proof's closed
        form and J12 J21 <= 0 at every r, the least subnormal included; the float
        determinant agrees to rounding."""
        for y1, y2, r, q1 in _log_impact_states(40, 5):
            with decimal.localcontext() as ctx:
                ctx.prec = 400
                f1, f2 = (fractions.Fraction((decimal.Decimal(r) * decimal.Decimal(y)).exp())
                          for y in (y1, y2))
            r_f, q_f = fractions.Fraction(r), fractions.Fraction(q1)
            t, a1, a2 = f1 + f2 + 1, f2 + (1 - q_f), f1 + q_f
            s1, s2 = f1 / t, f2 / t
            J11, J22 = -(1 - r_f) - 2 * r_f * s1, -(1 - r_f) - 2 * r_f * s2
            J12, J21 = r_f * (f2 / a1 - 2 * s2), r_f * (f1 / a2 - 2 * s1)
            closed = ((1 - r_f) ** 2 + 2 * r_f * (1 - r_f) * (s1 + s2)
                      + r_f * r_f * f1 * f2 / (a1 * a2))
            assert J11 * J22 - J12 * J21 == closed
            assert J12 * J21 <= 0
            J = _log_impact_foc(y1, y2, 0.0, 0.0, r, FLOATS.log(1.0 - q1), FLOATS.log(q1))[2:6]
            assert abs(J[0] * J[3] - J[1] * J[2] - float(closed)) <= 1e-13 * float(closed)


class TestDispatch:
    def test_routes_by_family_class(self):
        ratio = make_contest(family="jia-ratio", v1=2.0, v2=1.0, q=0.5, r=1.0, k=2)
        diff = make_contest(family="jia-diff", v1=1.2, v2=1.0, q=0.5, k=2)
        concave = make_contest(family="blavatskyy-power", v1=9.0, v2=9.0, q=0.5, r=1.0)
        assert solve(ratio).method is SolveMethod.CLOSED_FORM
        assert solve(diff).method is SolveMethod.ROOT_FIND
        assert solve(concave).method is SolveMethod.CLOSED_FORM

    def test_rejects_unknown_family_kind(self):
        for call in (solve, lambda spec: solve_many(spec, [0.25, 0.5])):
            with pytest.raises(ValidationError, match="^no solver for family kind 'lottery'$"):
                call(LOTTERY_CONTEST)


class TestEquilibriumRecord:
    def test_rejects_negative_efforts(self):
        with pytest.raises(ValidationError):
            Equilibrium(
                x1=-0.1, x2=0.2, beta=None, method=SolveMethod.CLOSED_FORM,
                residuals=(0.0, 0.0),
            )

    @pytest.mark.parametrize("columns", [dict(residuals=(0.0,)),
                                         dict(residuals=(0.0, 0.0), corner_flags=(False,))])
    def test_rejects_a_column_without_one_entry_per_player(self, columns):
        with pytest.raises(ValidationError,
                           match="^residuals and corner_flags must have one entry per player$"):
            Equilibrium(x1=0.3, x2=0.2, beta=1.5, method=SolveMethod.CLOSED_FORM, **columns)

    @pytest.mark.parametrize("field,value,text", [
        ("residuals", 5, "residuals must be a pair, got 5"),
        ("corner_flags", None, "corner_flags must be a pair, got None"),
        ("x1", "a", "x1 and x2 must be real numbers, got ('a', 0.2)"),
        ("x2", "0.5", "x1 and x2 must be real numbers, got (0.3, '0.5')"),
    ])
    def test_a_field_of_the_wrong_type_is_named(self, field, value, text):
        columns = dict(x1=0.3, x2=0.2, beta=1.5, method=SolveMethod.CLOSED_FORM,
                       residuals=(0.0, 0.0))
        with pytest.raises(ValidationError, match=f"^{re.escape(text)}$"):
            Equilibrium(**dict(columns, **{field: value}))

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
            assert resid <= BETA_RESIDUAL
