"""Difference-form contests: the effort gap, its root, and prize bounds.

In difference-form families only the effort gap x1 - x2 matters for the
outcome.  The equilibrium gap solves a one-dimensional fixed-point equation;
this script traces that root as the tie rule moves, shows the resulting
drop in total effort, and demonstrates the prize bound beyond which the
audit refuses to certify the solution formula.

Run:
    python demos/difference_contests.py
    python demos/difference_contests.py --k 3 --v1 1.5
"""
from __future__ import annotations

import argparse
import math

import numpy as np

from tiebreak import (
    audit_diff,
    estimate_vbar,
    make_contest,
    make_family,
    solve,
    solve_beta,
    sweep,
)

GAP_SAMPLES = 5


def header(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=float, default=2.0, help="tie-band sharpness")
    parser.add_argument("--v1", type=float, default=1.2, help="player 1 prize")
    parser.add_argument("--v2", type=float, default=1.0, help="player 2 prize")
    args = parser.parse_args()

    csf = make_family("jia-diff", k=args.k)

    header("How large may the prize be?")
    vbar = estimate_vbar(csf)
    print(f"the audit certifies concavity only while v1 stays below {vbar:.6f}")
    print(f"requested v1 = {args.v1}: "
          f"{'within' if args.v1 < vbar else 'OUTSIDE'} the certified range")
    report = audit_diff(csf, v1=args.v1)
    print(f"audit at v1 = {args.v1}: {'passed' if report.passed else 'failed'}")
    big = max(args.v1, 1.0) * 40.0
    big_report = audit_diff(csf, v1=big)
    worst = big_report.condition("curvature_within_prize_bound")
    print(f"audit at v1 = {big:.1f}: passed = {big_report.passed} "
          f"(worst violation {worst.violation:.3e} at gap {worst.witness_theta:.3f})")

    header("The equilibrium effort gap")
    for q in np.linspace(0.0, 1.0, GAP_SAMPLES):
        beta = solve_beta(csf, (args.v1, args.v2), float(q))
        residual = abs(beta - (args.v1 - args.v2) * csf.z_prime(beta, float(q)))
        print(f"  q = {q:4.2f}   gap = {beta:.12f}   fixed-point residual {residual:.1e}")
    print("the gap shrinks as ties break more often toward the leader:")
    print("a protected leader can afford to coast.")

    header("Total effort across tie rules")
    spec = make_contest(
        family="jia-diff", v1=args.v1, v2=args.v2, q=0.0, k=args.k,
    )
    curve = sweep(spec, 11)
    for q, total in zip(curve.q_values, curve.totals):
        print(f"  q = {q:4.2f}   R = {total:.9f}")
    drop = curve.totals[0] - curve.totals[-1]
    print(f"drop from q=0 to q=1: {drop:.3e}")
    print(f"certified nonincreasing: {curve.shape.monotone_decreasing.holds}")

    header("Quadratic costs change the books, not the ranking")
    eq = solve(spec)
    print(f"at q = 0: efforts ({eq.x1:.9f}, {eq.x2:.9f}), gap {eq.beta:.9f}")
    print(f"effort ratio x1/x2 = {eq.x1 / eq.x2:.9f} "
          f"(equals the prize ratio {args.v1 / args.v2:.9f})")
    spent = 0.5 * eq.x1 ** 2 + 0.5 * eq.x2 ** 2
    print(f"total cost actually sunk: {spent:.9f}")
    print(f"tieless logistic benchmark ratio 6*sqrt(3) = {6 * math.sqrt(3):.6f} "
          "caps certified prizes at k = 1")


if __name__ == "__main__":
    main()
