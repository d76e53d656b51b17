"""The brute-force oracle: what a formula-free grid search can certify.

Every closed form in the package can be cross-examined by a discretized
game that evaluates raw payoffs and nothing else.  This script shows the
three oracle views: a single best response, the set of exact grid equilibria,
and the verification report, which forgives rounding alone at every grid.

Run:
    python demos/grid_oracle.py
    python demos/grid_oracle.py --steps 4001
"""
from __future__ import annotations

import argparse

from tiebreak import (
    GridSpec,
    grid_best_response,
    grid_nash,
    make_contest,
    solve,
    verify,
)

RESOLUTIONS = (251, 501, 1001)


def header(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=2001, help="grid resolution")
    args = parser.parse_args()

    spec = make_contest(family="jia-ratio", v1=2.0, v2=1.0, q=0.5, r=1.0, k=2)
    grid = GridSpec(x_max=2.0, steps=args.steps)

    header("A single best response, by exhaustion")
    opponent = 0.205
    response, value = grid_best_response(spec, opponent, grid)
    print(f"against x2 = {opponent}, player 1's best grid effort is {response}")
    print(f"yielding payoff {value:.9f}")

    header("Exact grid equilibria")
    points = grid_nash(spec, grid)
    print(f"profiles where both efforts are exact grid best responses: {len(points)}")
    for point in points:
        print(f"  ({point.x1}, {point.x2})")

    header("Verification of the closed form")
    eq = solve(spec)
    print(f"closed form says ({eq.x1}, {eq.x2})")
    report = verify(spec, eq, grid)
    print(f"payoff losses: {report.payoff_losses[0]:.3e}, "
          f"{report.payoff_losses[1]:.3e}")
    print(f"acceptance bands: {report.bands[0]:.3e}, {report.bands[1]:.3e}")
    print(f"nearest grid equilibrium {report.nearest_nash} at distance "
          f"{report.nash_distance:.3e}")
    print(f"passed: {report.passed}")

    header("The band is the rounding floor at every step")
    for steps in RESOLUTIONS:
        coarse = GridSpec(x_max=2.0, steps=steps)
        check = verify(spec, eq, coarse)
        print(f"  steps = {steps:5d}   h = {coarse.h:.4g}   "
              f"band = {max(check.bands):.3e}   "
              f"loss = {max(check.payoff_losses):.3e}")
    print("no grid point beats a true best response, so the loss of a correct")
    print("solution is 0 at every pitch, and a pass means no grid point beats it.")

    header("An impostor does not get through")
    fake = (0.9, 0.9)
    bad = verify(spec, fake, grid)
    print(f"claimed profile {fake}: passed = {bad.passed}, "
          f"losses {bad.payoff_losses[0]:.3e}, {bad.payoff_losses[1]:.3e}")


if __name__ == "__main__":
    main()
