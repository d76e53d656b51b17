"""Walk through a ratio-form contest from closed form to brute-force check.

The script solves one asymmetric contest, shows how both efforts respond to
the tie-breaking rule, certifies the shape of the total-effort curve, asks
the designer layer for the best rule, and finally confronts the closed form
with an exhaustive grid search that knows nothing about the formula.

Run:
    python demos/ratio_contests.py
    python demos/ratio_contests.py --v1 3 --v2 1.5 --sweep-points 21
"""
from __future__ import annotations

import argparse

from tiebreak import (
    GridSpec,
    audit_ratio,
    make_contest,
    optimal_q,
    solve,
    sweep,
    verify,
)

DEFAULT_SWEEP_POINTS = 11


def header(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--v1", type=float, default=2.0, help="player 1 prize")
    parser.add_argument("--v2", type=float, default=1.0, help="player 2 prize")
    parser.add_argument("--q", type=float, default=0.5, help="tie share for player 1")
    parser.add_argument(
        "--sweep-points", type=int, default=DEFAULT_SWEEP_POINTS,
        help="sample count for the response curve",
    )
    args = parser.parse_args()

    spec = make_contest(
        family="jia-ratio", v1=args.v1, v2=args.v2, q=args.q, r=1.0, k=2,
    )

    header("Audit the regularity conditions")
    report = audit_ratio(spec.csf)
    print(f"family {report.family} with params {report.params}")
    print(f"all conditions hold for every theta and tie rule: {report.passed}")
    for condition in report.conditions:
        print(f"  {condition.name:28s} {'ok' if condition.passed else 'VIOLATED'}")

    header("Closed-form equilibrium")
    eq = solve(spec)
    print(f"prizes ({spec.v1}, {spec.v2}), tie share q = {spec.q}")
    print(f"efforts x1 = {eq.x1:.12f}, x2 = {eq.x2:.12f}")
    print(f"effort ratio beta = {eq.beta:.12f} (equals the prize ratio)")
    print(f"first-order residuals: {eq.residuals[0]:.2e}, {eq.residuals[1]:.2e}")

    header("Response of total effort to the tie rule")
    curve = sweep(spec, args.sweep_points)
    for q, x1, x2, total in zip(curve.q_values, curve.x1, curve.x2, curve.totals):
        print(f"  q = {q:4.2f}   x1 = {x1:.6f}   x2 = {x2:.6f}   R = {total:.6f}")
    shape = curve.shape
    print(f"certified monotone decreasing: {shape.monotone_decreasing.holds}")
    print(f"certified linear in q:         {shape.linear.holds}")

    header("Designer's choice")
    best = optimal_q(spec)
    print(f"optimal tie share q* = {best.q_star.q} ({best.rationale.value})")
    print(f"total effort at q*: {best.total_effort:.12f}")
    print("with unequal prizes, never breaking ties toward the favorite")
    print("extracts the most effort; with equal prizes any rule does.")

    header("Brute-force confirmation")
    grid = GridSpec.for_contest(spec, steps=1001)
    check = verify(spec, eq, grid)
    print(f"grid: {check.steps} steps of {check.h:.4g} up to x_max = {check.x_max:.4g}")
    print(f"payoff losses vs best grid deviation: "
          f"{check.payoff_losses[0]:.3e}, {check.payoff_losses[1]:.3e}")
    print(f"nearest exact grid equilibrium: {check.nearest_nash} "
          f"(distance {check.nash_distance:.3e})")
    print(f"verification passed: {check.passed}")


if __name__ == "__main__":
    main()
