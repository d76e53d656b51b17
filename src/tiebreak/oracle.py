"""Brute-force discretized-game oracle.

Everything here treats the contest as a finite bimatrix game on an effort
grid and checks Nash conditions exhaustively.  The oracle deliberately calls
only outcome probabilities and payoffs, never the analytic derivative code,
so agreement between a solver's output and the oracle is evidence from an
independent route.

Payoffs on a grid of pitch h can differ from the continuous optimum by an
amount proportional to h, so `verify` converts the pitch into a payoff
acceptance band via a numerically probed slope bound instead of using a
magic constant.  The first grid step is excluded from the slope probe: under
the zero-effort convention of ratio-form contests the payoff jumps
discontinuously between zero and any positive effort, and a band built from
that jump would be vacuously wide.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ContestSpec, CostKind, EffortProfile, payoff
from .errors import DomainError, ValidationError

BAND_FLOOR_REL = 1e-12
"""Relative floor added to verification bands to absorb pure roundoff."""

COARSE_STEPS = 10
"""Grids with fewer steps than this are flagged as too coarse to trust."""

_BLOCK_ROWS = 128

RATIO_ZERO_NOTE = (
    "ratio-form zero-effort convention in effect: (0, 0) is scored at "
    "theta = 1 and a lone positive effort wins outright"
)


@dataclass(frozen=True)
class GridSpec:
    """Effort-grid geometry for the brute-force scan.

    `eps` is the best-response payoff slack used by `grid_nash`; None means
    exact grid argmax (slack 0).  The pitch is h = x_max / (steps - 1).
    """

    x_max: float
    steps: int
    eps: float | None = None

    def __post_init__(self) -> None:
        try:
            xm = float(self.x_max)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"x_max must be a number, got {self.x_max!r}") from exc
        if not (math.isfinite(xm) and xm > 0):
            raise ValidationError(f"x_max must be positive and finite, got {xm}")
        object.__setattr__(self, "x_max", xm)
        if not isinstance(self.steps, (int, np.integer)) or isinstance(self.steps, bool):
            raise ValidationError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 2:
            raise ValidationError(f"steps must be >= 2, got {self.steps}")
        object.__setattr__(self, "steps", int(self.steps))
        if self.eps is not None:
            try:
                eps = float(self.eps)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"eps must be a number, got {self.eps!r}") from exc
            if math.isnan(eps) or eps < 0:
                raise ValidationError(f"eps must be >= 0, got {eps}")
            if math.isinf(eps):
                raise ValidationError(f"eps must be finite, got {eps}")
            object.__setattr__(self, "eps", eps)

    @property
    def h(self) -> float:
        return self.x_max / (self.steps - 1)

    @property
    def resolved_eps(self) -> float:
        return 0.0 if self.eps is None else self.eps

    def axis(self) -> np.ndarray:
        return np.linspace(0.0, self.x_max, self.steps)

    @classmethod
    def for_contest(cls, spec: ContestSpec, steps: int = 2001,
                    eps: float | None = None) -> "GridSpec":
        """Grid whose ceiling no best response can exceed.

        Any effort whose cost exceeds the prize is dominated by staying out,
        so the ceiling is the largest prize's break-even effort (the prize
        itself under linear cost, sqrt(2 * prize) under half-quadratic cost)
        plus one grid step; solving the fixed point gives
        x_max = bound * (steps - 1) / (steps - 2).
        """
        if not isinstance(steps, (int, np.integer)) or steps < 3:
            raise ValidationError("for_contest requires integer steps >= 3")
        vals = spec.valuations
        if spec.cost is CostKind.LINEAR:
            bound = vals.v1
        else:
            bound = math.sqrt(2.0 * vals.v1)
        return cls(x_max=bound * (steps - 1) / (steps - 2), steps=int(steps), eps=eps)


def _eventual_win_probs(spec: ContestSpec, x1, x2):
    win1, win2, tie = spec.csf.outcome(x1, x2)
    q = spec.tie.q
    return win1 + q * np.asarray(tie), win2 + (1.0 - q) * np.asarray(tie)


def _payoff_columns(spec: ContestSpec, own: np.ndarray, other: float, player: int):
    """Payoffs for one player across a vector of own efforts, rival fixed."""
    if player == 1:
        prob1, _ = _eventual_win_probs(spec, own, other)
        return spec.v1 * np.asarray(prob1) - spec.cost.cost(own)
    _, prob2 = _eventual_win_probs(spec, other, own)
    return spec.v2 * np.asarray(prob2) - spec.cost.cost(own)


def grid_best_response(spec: ContestSpec, opponent_effort: float, grid: GridSpec,
                       player: int = 1) -> tuple[float, float]:
    """Best grid effort and its payoff against a fixed opponent effort.

    Scans every grid point by direct payoff evaluation; exact payoff ties
    resolve to the smaller effort.  The opponent effort must lie within the
    grid ceiling (it need not sit on the grid itself).
    """
    if player not in (1, 2):
        raise ValidationError(f"player must be 1 or 2, got {player!r}")
    opp = float(opponent_effort)
    if not (0.0 <= opp <= grid.x_max):
        raise DomainError(
            f"opponent effort {opp} outside the grid range [0, {grid.x_max}]"
        )
    axis = grid.axis()
    payoffs = _payoff_columns(spec, axis, opp, player)
    idx = int(np.argmax(payoffs))
    return float(axis[idx]), float(payoffs[idx])


def _payoff_matrices(spec: ContestSpec, axis: np.ndarray):
    """Full payoff matrices, player-1 efforts on rows, player-2 on columns."""
    n = axis.size
    pay1 = np.empty((n, n))
    pay2 = np.empty((n, n))
    cost = spec.cost.cost(axis)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        x1 = axis[lo:hi, None]
        x2 = axis[None, :]
        prob1, prob2 = _eventual_win_probs(spec, x1, x2)
        pay1[lo:hi, :] = spec.v1 * prob1 - cost[lo:hi, None]
        pay2[lo:hi, :] = spec.v2 * prob2 - cost[None, :]
    return pay1, pay2


def grid_nash(spec: ContestSpec, grid: GridSpec) -> list[EffortProfile]:
    """All grid profiles where both efforts are eps-best responses.

    With the default slack (eps = 0) a profile qualifies only if each
    player's effort exactly maximizes their payoff column against the
    other's effort.  Results are sorted lexicographically.
    """
    axis = grid.axis()
    pay1, pay2 = _payoff_matrices(spec, axis)
    eps = grid.resolved_eps
    best1 = pay1 >= np.max(pay1, axis=0, keepdims=True) - eps
    best2 = pay2 >= np.max(pay2, axis=1, keepdims=True) - eps
    cells = np.argwhere(best1 & best2)
    return [EffortProfile(float(axis[i]), float(axis[j])) for i, j in cells]


def _slope_bound(spec: ContestSpec, axis: np.ndarray, other: float, player: int) -> float:
    """Largest per-step payoff slope along the scan, first step excluded.

    Excluding the 0 -> h step keeps the ratio-form zero-effort payoff jump
    from inflating the bound; the remaining steps probe the smooth region.
    """
    payoffs = _payoff_columns(spec, axis, other, player)
    h = axis[1] - axis[0]
    diffs = np.abs(np.diff(payoffs[1:])) if payoffs.size > 2 else np.abs(np.diff(payoffs))
    if diffs.size == 0:
        return 0.0
    return float(np.max(diffs) / h)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a candidate profile against the grid oracle.

    `payoff_losses` is, per player, the payoff gained by the best grid
    deviation over staying at the candidate (clipped at zero); the check
    passes when each loss is within that player's `bands` entry, which is
    2 * slope_bound * h plus a roundoff floor.  `nash_distance` is the
    Chebyshev distance to the nearest grid equilibrium, None when the grid
    has none.
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
    eps: float
    resolution_too_coarse: bool
    notes: tuple[str, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return all(loss <= band for loss, band in zip(self.payoff_losses, self.bands))

    def to_json_dict(self) -> dict:
        return {
            "profile": {"x1": self.profile.x1, "x2": self.profile.x2},
            "passed": self.passed,
            "payoff_losses": list(self.payoff_losses),
            "bands": list(self.bands),
            "best_responses": list(self.best_responses),
            "nearest_nash": (
                None if self.nearest_nash is None
                else {"x1": self.nearest_nash.x1, "x2": self.nearest_nash.x2}
            ),
            "nash_distance": self.nash_distance,
            "grid": {"x_max": self.x_max, "steps": self.steps,
                     "h": self.h, "eps": self.eps},
            "resolution_too_coarse": self.resolution_too_coarse,
            "notes": list(self.notes),
        }


def verify(spec: ContestSpec, eq, grid: GridSpec) -> VerificationReport:
    """Check a claimed equilibrium against the brute-force grid.

    For each player, compares their payoff at the claimed profile with their
    best grid response against the rival's claimed effort; the difference
    must fit inside a band derived from the grid pitch and a probed slope
    bound.  Also reports the nearest exact grid equilibrium, recomputed
    independently of any solver.
    """
    if hasattr(eq, "x1") and hasattr(eq, "x2"):
        profile = EffortProfile(float(eq.x1), float(eq.x2))
    else:
        try:
            profile = EffortProfile(float(eq[0]), float(eq[1]))
        except (TypeError, ValueError, IndexError, KeyError) as exc:
            raise ValidationError(
                "eq must expose x1/x2 attributes or be a two-element sequence"
            ) from exc

    axis = grid.axis()
    br1, br1_pay = grid_best_response(spec, profile.x2, grid, player=1)
    br2, br2_pay = grid_best_response(spec, profile.x1, grid, player=2)
    at1 = payoff(spec, profile, 1)
    at2 = payoff(spec, profile, 2)
    loss1 = max(0.0, br1_pay - at1)
    loss2 = max(0.0, br2_pay - at2)

    scale1 = max(abs(br1_pay), abs(at1), 1.0)
    scale2 = max(abs(br2_pay), abs(at2), 1.0)
    band1 = 2.0 * _slope_bound(spec, axis, profile.x2, 1) * grid.h + BAND_FLOOR_REL * scale1
    band2 = 2.0 * _slope_bound(spec, axis, profile.x1, 2) * grid.h + BAND_FLOOR_REL * scale2

    equilibria = grid_nash(spec, grid)
    if equilibria:
        dists = [max(abs(p.x1 - profile.x1), abs(p.x2 - profile.x2)) for p in equilibria]
        k = int(np.argmin(dists))
        nearest, distance = equilibria[k], float(dists[k])
    else:
        nearest, distance = None, None

    notes = []
    if spec.csf.kind == "ratio":
        notes.append(RATIO_ZERO_NOTE)
    if not equilibria:
        notes.append("no exact grid equilibrium exists at this resolution")

    return VerificationReport(
        profile=profile,
        payoff_losses=(loss1, loss2),
        bands=(band1, band2),
        best_responses=(br1, br2),
        nearest_nash=nearest,
        nash_distance=distance,
        x_max=grid.x_max,
        steps=grid.steps,
        h=grid.h,
        eps=grid.resolved_eps,
        resolution_too_coarse=grid.steps < COARSE_STEPS,
        notes=tuple(notes),
    )
