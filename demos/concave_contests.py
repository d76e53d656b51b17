"""Concave-impact contests: tie shares acting as head starts.

Here the tie rule does not just split a knife-edge event: it works exactly
like a head start added to each player's impact.  With linear impact the
substitution is one for one, so the designer cannot move total effort at
interior solutions; with strictly concave impact the response curve bends
and an extreme rule strictly beats the even split.

Run:
    python demos/concave_contests.py
    python demos/concave_contests.py --prize 9 --exponent 0.7
"""
from __future__ import annotations

import argparse

from tiebreak import (
    audit_concave,
    make_contest,
    optimal_q,
    solve,
    sweep,
)

Q_SAMPLES = (0.0, 0.25, 0.5, 0.75, 1.0)


def header(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--prize", type=float, default=4.0, help="common prize value")
    parser.add_argument(
        "--exponent", type=float, default=0.5,
        help="impact exponent in (0, 1]; 1 means linear impact",
    )
    args = parser.parse_args()

    header("Linear impact: a pure substitution story")
    linear = make_contest(family="blavatskyy-power", v1=9.0, v2=9.0, q=0.0, r=1.0)
    print(f"audit: {'passed' if audit_concave(linear.csf).passed else 'failed'}")
    print("with prizes (9, 9), each effort is the lottery benchmark 2.25")
    print("minus that player's own tie share; the total never moves:")
    for q in Q_SAMPLES:
        eq = solve(linear.with_q(q))
        print(f"  q = {q:4.2f}   x = ({eq.x1:.4f}, {eq.x2:.4f})   "
              f"R = {eq.total:.4f}")
    small = solve(make_contest(family="blavatskyy-power", v1=1.0, v2=1.0, q=0.25, r=1.0))
    print("small prizes push the formula negative and the solver clamps:")
    print(f"  prizes (1, 1), q = 0.25 -> x = ({small.x1}, {small.x2}), "
          f"corners {small.corner_flags}")

    header("Strictly concave impact: the curve bends")
    v = args.prize
    spec = make_contest(family="blavatskyy-power", v1=v, v2=v, q=0.0, r=args.exponent)
    for q in Q_SAMPLES:
        eq = solve(spec.with_q(q))
        print(f"  q = {q:4.2f}   x = ({eq.x1:.9f}, {eq.x2:.9f})   "
              f"R = {eq.total:.9f}")
    even = solve(spec.with_q(0.5)).total
    extreme = solve(spec.with_q(0.0)).total
    print(f"R(0) = {extreme:.9f} versus R(1/2) = {even:.9f}: "
          f"{'extreme rule wins' if extreme > even else 'even split wins'}")

    header("What the optimizer finds")
    best = optimal_q(spec)
    print(f"optimal q* = {best.q_star.q} via {best.rationale.value} search")
    print(f"efforts at q*: ({best.x1:.9f}, {best.x2:.9f}), "
          f"total {best.total_effort:.9f}")
    curve = sweep(spec, 11)
    print("certificates on the sampled curve "
          "(recorded, not asserted, for this family):")
    print(f"  monotone decreasing: {curve.shape.monotone_decreasing.holds}")
    print(f"  convex:              {curve.shape.convex.holds}")


if __name__ == "__main__":
    main()
