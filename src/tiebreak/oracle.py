"""Brute-force discretized-game oracle.

Everything here treats the contest as a finite bimatrix game on an effort
grid and checks Nash conditions exhaustively.  The oracle deliberately calls
only outcome probabilities and payoffs, never the analytic derivative code,
so agreement between a solver's output and the oracle is evidence from an
independent route.  It depends on `core` alone, whose `payoffs` every scan
reads at broadcast efforts.  Each input is read by `core`'s one check of
its kind: the ceiling is a positive magnitude, the steps a sample count, the
opponent's effort a finite real, the player a player label, and `verify`'s
claimed equilibrium a profile, which `payoff` takes alike.

`grid_nash` finds every grid equilibrium, a profile of exact best responses,
in one scan of the payoff grid, in blocks of player-1 rows sized by a cell
budget, and never holds an n x n matrix: a block settles player 2's best
responses on its rows, a running column maximum carries player 1's, and
only player 2's best cells are kept to the end.  Each cell is evaluated once,
and the peak memory stays flat as the grid grows.  Its time grows with the
square of the steps, so a grid of more than `MAX_SCAN_CELLS` cells is refused
before the scan starts; `grid_best_response` scans one column and takes any
step count that `GridSpec` takes.

`verify` evaluates each claimed payoff at the claimed profile itself, not at
a grid snap, and every grid effort is a feasible deviation, so a grid point
that pays more than the claim refutes it exactly, whatever the pitch (an
a-posteriori check; Rump, Acta Numerica 19, 2010).  Under the paper's second
assumption each player's objective is concave with a unique best response,
so at a true equilibrium no grid point pays more, and the verdict forgives
rounding alone (`BAND_FLOOR_REL`) at every grid: a pass means that no grid
point beats the claim.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import (ContestSpec, EffortProfile, JsonRecord, count_value, finite_value, payoff,
                   payoffs, player_value, positive_value, profile_value)
from .errors import DomainError, ValidationError

BAND_FLOOR_REL = 1e-12
"""The payoff loss `verify` forgives, relative to the larger of the player's
prize, the magnitude of their claimed payoff and 1: the win share is at most 1,
so that scale also bounds the cost at the claim, and the band covers the
rounding of every term of the payoff."""

COARSE_STEPS = 10
"""Grids with fewer steps than this are flagged as too coarse to trust."""

_BLOCK_CELLS = 1 << 15
"""Cells per block of `grid_nash` rows: each temporary array (256 kB) stays
cache-sized, and the peak memory stays flat in the grid size."""

MAX_SCAN_CELLS = 10 ** 8
"""Most payoff cells `grid_nash` scans: 10,000 steps, about 2 s on one core of
a Xeon host (0.3 s at 4,001 steps)."""


@dataclass(frozen=True)
class GridSpec:
    """Effort-grid geometry: `steps` efforts from 0 to `x_max`, h = x_max / (steps - 1) apart."""

    x_max: float
    steps: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_max", positive_value(self.x_max, "x_max"))
        object.__setattr__(self, "steps", count_value(self.steps, "steps"))

    @property
    def h(self) -> float:
        return self.x_max / (self.steps - 1)

    def axis(self) -> np.ndarray:
        return np.linspace(0.0, self.x_max, self.steps)

    @classmethod
    def for_contest(cls, spec: ContestSpec, steps: int = 2001) -> "GridSpec":
        """Grid whose ceiling no best response can exceed.

        Any effort costing more than the prize is dominated by staying out, so
        the ceiling is the largest prize's break-even effort plus one grid
        step, the fixed point x_max = bound * (steps - 1) / (steps - 2), divided first
        only where that order overflows, and the largest double where both do: no effort exceeds it.
        """
        steps, prize = count_value(steps, "steps", 3), spec.valuations.v1
        bound = spec.cost.break_even(prize)
        x_max = bound * (steps - 1) / (steps - 2)
        if x_max == math.inf:
            x_max = min(bound / (steps - 2) * (steps - 1), sys.float_info.max)
        return cls(x_max=x_max, steps=steps)


def _deviation(spec: ContestSpec, opponent: float, axis: np.ndarray, player: int):
    """`player`'s best effort on `axis` and its payoff against any finite
    nonnegative opponent effort; exact payoff ties go to the smaller effort."""
    column = payoffs(spec, *((axis, opponent) if player == 1 else (opponent, axis)))[player - 1]
    idx = int(np.argmax(column))
    return float(axis[idx]), float(column[idx])


def grid_best_response(spec: ContestSpec, opponent_effort: float, grid: GridSpec,
                       player: int = 1) -> tuple[float, float]:
    """Best grid effort and its payoff against a fixed opponent effort.

    Scans every grid point by direct payoff evaluation; exact payoff ties
    resolve to the smaller effort.  The opponent effort must lie within the
    grid ceiling (it need not sit on the grid itself).
    """
    player = player_value(player)
    opp = finite_value(opponent_effort, "opponent effort")
    if not (0.0 <= opp <= grid.x_max):
        raise DomainError(f"opponent effort {opp} outside the grid range [0, {grid.x_max}]")
    return _deviation(spec, opp, grid.axis(), player)


def grid_nash(spec: ContestSpec, grid: GridSpec) -> list[EffortProfile]:
    """All grid equilibria, profiles of exact best responses, sorted lexicographically.

    Player 2's best cells are kept per row block with player 1's payoffs
    there, and checked against player 1's column maxima once every block has
    run.  A grid of more than `MAX_SCAN_CELLS` cells raises `ValidationError`.
    """
    if grid.steps ** 2 > MAX_SCAN_CELLS:
        raise ValidationError(f"grid_nash scans steps^2 payoff cells: {grid.steps} steps exceed "
                              f"the ceiling of {math.isqrt(MAX_SCAN_CELLS)}")
    axis = grid.axis()
    rows = max(1, _BLOCK_CELLS // axis.size)
    col_max = np.full(axis.size, -np.inf)
    kept = []
    for lo in range(0, axis.size, rows):
        pay1, pay2 = payoffs(spec, axis[lo:lo + rows, None], axis[None, :])
        np.maximum(col_max, np.max(pay1, axis=0), out=col_max)
        i, j = np.nonzero(pay2 >= np.max(pay2, axis=1, keepdims=True))
        kept.append((i + lo, j, pay1[i, j]))
    i, j, pay = (np.concatenate(parts) for parts in zip(*kept))
    best = pay >= col_max[j]
    return [EffortProfile(float(axis[a]), float(axis[b])) for a, b in zip(i[best], j[best])]


@dataclass(frozen=True)
class VerificationReport(JsonRecord):
    """Outcome of checking a candidate profile against the grid oracle.

    `payoff_losses` is, per player, the payoff gained by the best grid
    deviation over staying at the candidate (clipped at zero); the check
    passes when each loss is within that player's `bands` entry, the rounding
    floor `BAND_FLOOR_REL` times the larger of their prize, the magnitude of
    their claimed payoff and 1, whatever the grid pitch.  A pass means no
    grid point beats the candidate.  `nash_distance` is the Chebyshev distance
    to the nearest grid equilibrium `nearest_nash`, both None if the grid has none.
    """

    profile: EffortProfile
    payoff_losses: tuple[float, float]
    bands: tuple[float, float]
    best_responses: tuple[float, float]
    nearest_nash: EffortProfile | None
    nash_distance: float | None
    x_max: float
    steps: int
    h: float
    resolution_too_coarse: bool
    notes: tuple[str, ...] = field(default=())

    json_keys = ("profile", "passed", "payoff_losses", "bands", "best_responses",
                 "nearest_nash", "nash_distance", ("grid", ("x_max", "steps", "h")),
                 "resolution_too_coarse", "notes")

    @property
    def passed(self) -> bool:
        return all(loss <= band for loss, band in zip(self.payoff_losses, self.bands))


def verify(spec: ContestSpec, eq, grid: GridSpec) -> VerificationReport:
    """Check a claimed equilibrium against the brute-force grid.

    For each player, compares their payoff at the claimed profile with their
    best grid response against the rival's claimed effort, which may lie
    anywhere, above the grid ceiling included; the claim fails when a grid
    point pays more than rounding (`BAND_FLOOR_REL`) forgives.  Also reports
    the nearest grid equilibrium, the first in `grid_nash`'s order at the least
    Chebyshev distance.  `eq` is any profile `payoff` takes (`core.profile_value`).
    """
    profile = profile_value(eq)
    axis = grid.axis()
    best, losses, bands = [], [], []
    for player, prize, rival in ((1, spec.v1, profile.x2), (2, spec.v2, profile.x1)):
        response, response_pay = _deviation(spec, rival, axis, player)
        at = payoff(spec, profile, player)
        best.append(response)
        losses.append(max(0.0, response_pay - at))
        bands.append(BAND_FLOOR_REL * max(prize, abs(at), 1.0))

    notes = [note] if (note := getattr(spec.csf, "zero_effort_note", None)) else []
    nearest, distance = None, None
    equilibria = grid_nash(spec, grid)
    if equilibria:
        dists = [max(abs(p.x1 - profile.x1), abs(p.x2 - profile.x2)) for p in equilibria]
        k = int(np.argmin(dists))
        nearest, distance = equilibria[k], float(dists[k])
    else:
        notes.append("no exact grid equilibrium exists at this resolution")

    return VerificationReport(
        profile=profile,
        payoff_losses=tuple(losses),
        bands=tuple(bands),
        best_responses=tuple(best),
        nearest_nash=nearest,
        nash_distance=distance,
        x_max=grid.x_max,
        steps=grid.steps,
        h=grid.h,
        resolution_too_coarse=grid.steps < COARSE_STEPS,
        notes=tuple(notes),
    )
