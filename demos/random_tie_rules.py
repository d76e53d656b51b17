"""Random tie rules: committing to a coin flip before the contest starts.

A designer need not fix a deterministic tie share: drawing it from a
distribution ahead of play is also a credible rule.  When total effort is
linear in the share, every unbiased lottery earns exactly what the fair
committed rule earns.  When the response curve is convex, randomizing over
the extremes strictly beats committing to the middle.

Run:
    python demos/random_tie_rules.py
"""
from __future__ import annotations

import argparse

from tiebreak import (
    RandomTieRule,
    convexity_precondition,
    expected_effort,
    make_contest,
    solve,
)

UNBIASED_RULES = (
    ("fair coin over the extremes", [(0.0, 0.5), (1.0, 0.5)]),
    ("committed even split", [(0.5, 1.0)]),
    ("coin over quartiles", [(0.25, 0.5), (0.75, 0.5)]),
    ("coin over 0.1 and 0.9", [(0.1, 0.5), (0.9, 0.5)]),
    ("three-point mixture", [(0.0, 0.25), (0.5, 0.5), (1.0, 0.25)]),
)


def header(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()

    header("Ratio form: linearity makes unbiased rules interchangeable")
    ratio = make_contest(family="jia-ratio", v1=2.0, v2=1.0, q=0.5, r=1.0, k=2)
    for label, atoms in UNBIASED_RULES:
        rule = RandomTieRule.from_pairs(atoms)
        value = expected_effort(ratio, rule)
        print(f"  {label:32s} mean q = {rule.mean_q:.2f}   "
              f"expected R = {value:.12f}")
    print("every unbiased rule lands on the same expected total effort.")

    header("Difference form: convexity rewards the gamble")
    diff = make_contest(family="vesperoni-diff", v1=0.5, v2=0.4, q=0.5, k=2)
    precondition = convexity_precondition(diff.csf, v1=diff.v1)
    print(f"tie-mass curvature strictly negative up to the prize bound: "
          f"{precondition.holds} (gaps up to {precondition.theta_max:.4f}; p0 stops "
          f"being concave at theta* = {diff.csf.tie_inflection:.4f})")
    coin = RandomTieRule.from_pairs([(0.0, 0.5), (1.0, 0.5)])
    coin_value = expected_effort(diff, coin)
    committed = solve(diff).total
    print(f"  coin over extremes: expected R = {coin_value:.12f}")
    print(f"  committed q = 1/2:  R          = {committed:.12f}")
    print(f"  coin advantage: {coin_value - committed:.3e}")

    header("Concave impact: corners break linearity too")
    concave = make_contest(
        family="blavatskyy-power", v1=2.4, v2=2.4, q=0.5, r=1.0,
    )
    coin_value = expected_effort(concave, coin)
    committed = solve(concave).total
    print(f"  prizes (2.4, 2.4), linear impact with corners in play:")
    print(f"  coin over extremes: expected R = {coin_value:.12f}")
    print(f"  committed q = 1/2:  R          = {committed:.12f}")
    print(f"  gap: {coin_value - committed:.3e}")
    print("at extreme rules one player sits at zero effort, so the average")
    print("of the endpoint totals no longer matches the midpoint total.")


if __name__ == "__main__":
    main()
