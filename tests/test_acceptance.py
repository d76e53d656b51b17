"""Acceptance gate: end-to-end checks of the package's headline guarantees.

Each test prints one `ACCEPTANCE <n> <label>: PASS|FAIL` line directly to the
terminal (bypassing capture) so a full run leaves a visible scoreboard.  The
checks pit the analytic layer against independent evidence: the brute-force
grid, central finite differences, hand-derived closed forms, and frozen
constants computed before the solvers existed.
"""
from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from tiebreak import (
    GridSpec,
    RandomTieRule,
    Valuations,
    convexity_precondition,
    estimate_vbar,
    expected_effort,
    audit_diff,
    make_contest,
    make_family,
    solve,
    solve_beta,
    sweep,
    verify,
)

from helpers import central_diff, max_rel_err, solve_at


@contextmanager
def scoreboard(capsys, number: int, label: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number:02d} {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {number:02d} {label}: PASS")


def ratio_contest(name: str, r: float, k: float, v1=2.0, v2=1.0, q=0.0):
    return make_contest(family=name, v1=v1, v2=v2, q=q, r=r, k=k)


def test_acceptance_01_ratio_closed_form_vs_grid_oracle(capsys):
    with scoreboard(capsys, 1, "ratio closed form is a grid equilibrium"):
        grid = GridSpec(x_max=2.0, steps=2001)
        assert grid.h == pytest.approx(1e-3)
        started = time.perf_counter()
        for name, r, k in (("jia-ratio", 1.0, 2.0), ("vesperoni-ratio", 0.5, 2.0)):
            for q in (0.0, 0.5, 1.0):
                spec = ratio_contest(name, r, k, q=q)
                report = verify(spec, solve(spec), grid)
                assert report.passed, (name, q, report.payoff_losses)
                assert max(report.payoff_losses) <= 1e-4, (name, q)
        elapsed = time.perf_counter() - started
        assert elapsed <= 30.0, f"verification took {elapsed:.1f}s"


def test_acceptance_02_ratio_sweeps_linear_and_decreasing(capsys):
    with scoreboard(capsys, 2, "ratio effort curves decrease linearly"):
        for name, r, k in (("jia-ratio", 1.0, 2.0), ("vesperoni-ratio", 0.5, 2.0)):
            curve = sweep(ratio_contest(name, r, k), 101)
            totals = np.array(curve.totals)
            assert np.all(np.diff(totals) <= -1e-8), name
            midpoint_gap = np.abs(0.5 * (totals[:-2] + totals[2:]) - totals[1:-1])
            assert float(np.max(midpoint_gap)) <= 1e-10, name
            if name == "jia-ratio":
                expected = 0.75 - 0.27 * np.array(curve.q_values)
                assert float(np.max(np.abs(totals - expected))) <= 1e-10


def test_acceptance_03_diff_sweeps_drop_and_gap_shrinks(capsys):
    with scoreboard(capsys, 3, "difference effort curves drop as ties favor the leader"):
        for name in ("vesperoni-diff", "jia-diff"):
            csf = make_family(name, k=2)
            assert audit_diff(csf, v1=1.2).passed, name
            spec = make_contest(family=name, v1=1.2, v2=1.0, q=0.0, k=2)
            curve = sweep(spec, 21)
            totals = np.array(curve.totals)
            assert np.all(np.diff(totals) <= 1e-12), name
            assert totals[0] - totals[-1] > 1e-6, name
            betas = [solve_beta(csf, (1.2, 1.0), q) for q in curve.q_values]
            assert np.all(np.diff(betas) < 0.0), name


def test_acceptance_04_symmetric_prizes_make_the_rule_irrelevant(capsys):
    with scoreboard(capsys, 4, "equal prizes are indifferent to the tie rule"):
        cases = [
            (make_contest(family="jia-ratio", v1=1.0, v2=1.0, q=0.0, r=1.0, k=2), 1e-10),
            (make_contest(family="vesperoni-ratio", v1=1.0, v2=1.0, q=0.0, r=0.5, k=2), 1e-10),
            (make_contest(family="jia-diff", v1=1.0, v2=1.0, q=0.0, k=2), 1e-8),
            (make_contest(family="vesperoni-diff", v1=1.0, v2=1.0, q=0.0, k=2), 1e-8),
        ]
        for spec, tol in cases:
            totals = np.array(sweep(spec, 21).totals)
            assert float(totals.max() - totals.min()) <= tol, spec.family


def test_acceptance_05_square_root_impact_benchmark(capsys):
    with scoreboard(capsys, 5, "square-root impact anchors and coin advantage"):
        csf = make_family("blavatskyy-power", r=0.5)
        even = solve_at(csf, (4.0, 4.0), 0.5)
        assert even.x1 == pytest.approx(0.25, abs=1e-12)
        assert even.x2 == pytest.approx(0.25, abs=1e-12)
        skewed = solve_at(csf, (4.0, 4.0), 0.0)
        assert skewed.x1 == pytest.approx(4.0 / 9.0, abs=1e-12)
        assert skewed.x2 == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert skewed.total == pytest.approx(5.0 / 9.0, abs=1e-12)
        assert even.total == pytest.approx(0.5, abs=1e-12)
        assert skewed.total > even.total
        for prize in range(1, 21):
            v = float(prize)
            r0 = solve_at(csf, (v, v), 0.0).total
            r_half = solve_at(csf, (v, v), 0.5).total
            assert r0 > r_half, prize


def test_acceptance_06_linear_impact_head_start_substitution(capsys):
    with scoreboard(capsys, 6, "linear impact swaps effort for head starts one for one"):
        csf = make_family("blavatskyy-power", r=1.0)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            eq = solve_at(csf, (9.0, 9.0), q)
            assert eq.x1 == pytest.approx(2.25 - q, abs=1e-10)
            assert eq.x2 == pytest.approx(2.25 - (1.0 - q), abs=1e-10)
            assert eq.total == pytest.approx(3.5, abs=1e-10)
        small = solve_at(csf, (1.0, 1.0), 0.25)
        assert small.x1 >= 0.0 and small.x2 >= 0.0
        assert small.corner_flags[1], "clamped player must be flagged"


def test_acceptance_07_unbiased_random_rules_are_interchangeable(capsys):
    with scoreboard(capsys, 7, "unbiased random rules agree for ratio families"):
        rules = [
            RandomTieRule.from_pairs([(0.0, 0.5), (1.0, 0.5)]),
            RandomTieRule.from_pairs([(0.5, 1.0)]),
            RandomTieRule.from_pairs([(0.25, 0.5), (0.75, 0.5)]),
            RandomTieRule.from_pairs([(0.1, 0.5), (0.9, 0.5)]),
            RandomTieRule.from_pairs([(0.0, 0.25), (0.5, 0.5), (1.0, 0.25)]),
        ]
        assert all(rule.is_unbiased for rule in rules)
        for name, r, k in (("jia-ratio", 1.0, 2.0), ("vesperoni-ratio", 0.5, 2.0)):
            spec = ratio_contest(name, r, k)
            values = [expected_effort(spec, rule) for rule in rules]
            spread = max(values) - min(values)
            assert spread <= 1e-10, (name, spread)


def test_acceptance_08_convexity_precondition_transfers(capsys):
    with scoreboard(capsys, 8, "certified convexity makes the coin weakly better"):
        csf = make_family("vesperoni-diff", k=2)
        spec = make_contest(family="vesperoni-diff", v1=0.5, v2=0.4, q=0.0, k=2)
        assert convexity_precondition(csf, v1=0.5).holds
        curve = sweep(spec, 21)
        assert curve.shape.convex.holds
        coin = RandomTieRule.from_pairs([(0.0, 0.5), (1.0, 0.5)])
        coin_value = expected_effort(spec, coin)
        half_value = solve(spec.with_q(0.5)).total
        assert coin_value >= half_value - 1e-12


def test_acceptance_09_curvature_bound_recovers_logistic_constant(capsys):
    with scoreboard(capsys, 9, "curvature bound matches the logistic constant"):
        value = estimate_vbar(make_family("jia-diff", k=1))
        target = 6.0 * math.sqrt(3.0)
        assert abs(value - target) <= 0.01 * target


def test_acceptance_10_analytic_derivatives_match_finite_differences(capsys):
    with scoreboard(capsys, 10, "analytic derivatives match finite differences"):
        tol, h = 1e-6, 1e-5
        ratio_grid = np.geomspace(0.05, 20.0, 200)
        diff_grid = np.linspace(-10.0, 10.0, 200)
        reduced = [
            (make_family("vesperoni-ratio", r=0.5, k=2), ratio_grid),
            (make_family("jia-ratio", r=1.0, k=2), ratio_grid),
            (make_family("vesperoni-diff", k=2), diff_grid),
            (make_family("jia-diff", k=2), diff_grid),
        ]
        for csf, grid in reduced:
            for q in (0.0, 0.3, 1.0):
                fd1 = central_diff(lambda t: csf.z(t, q), grid, h)
                assert max_rel_err(fd1, csf.z_prime(grid, q)) <= tol, csf.name
                fd2 = central_diff(lambda t: csf.z_prime(t, q), grid, h)
                assert max_rel_err(fd2, csf.z_slopes(grid, q)[1]) <= tol, csf.name
            tie_slope = csf.z_prime(grid, 1.0) - csf.z_prime(grid, 0.0)  # z_q is affine in q
            assert max_rel_err(central_diff(csf.p0, grid, h), tie_slope) <= tol, csf.name

        blava = make_family("blavatskyy-power", r=0.5)
        efforts = np.geomspace(0.05, 20.0, 60)
        for q in (0.0, 0.3, 1.0):
            for other in (0.0, 0.4, 3.0):
                win = lambda xs: np.array(
                    [blava.win_prob(x, other, q) for x in np.atleast_1d(xs)]
                )
                win_d1 = np.array([blava.win_prob_d1(x, other, q) for x in efforts])
                assert max_rel_err(central_diff(win, efforts, h), win_d1) <= tol


def test_acceptance_11_gap_root_residuals_over_random_draws(capsys):
    with scoreboard(capsys, 11, "gap roots stay at machine residual over 1000 draws"):
        rng = np.random.default_rng(20260819)
        names = ("jia-diff", "vesperoni-diff")
        equal_prize_draws = 0
        for index in range(1000):
            csf = make_family(names[index % 2], k=int(rng.integers(1, 7)))
            v_lo = float(10.0 ** rng.uniform(-1.0, 1.0))
            if rng.random() < 0.1:
                v_hi = v_lo
            else:
                v_hi = v_lo * float(1.0 + 10.0 ** rng.uniform(-3.0, 0.7))
            q = float(rng.random())
            v1, v2 = (v_hi, v_lo) if rng.random() < 0.5 else (v_lo, v_hi)
            beta = solve_beta(csf, (v1, v2), q)
            if v1 == v2:
                assert beta == 0.0
                equal_prize_draws += 1
                continue
            vals = Valuations(v1, v2)
            q_int = 1.0 - q if vals.swapped else q
            residual = abs(beta - (vals.v1 - vals.v2) * csf.z_prime(beta, q_int))
            assert residual <= 1e-12, (csf.name, v1, v2, q, residual)
        assert equal_prize_draws >= 50
