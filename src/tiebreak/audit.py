"""Numerical audits of the regularity conditions behind the solvers.

The closed forms and root-finding steps in `equilibrium` are valid only under
shape conditions on the reduced contest functions (monotone eventual win
probability, curvature bounds, unimodal tie probability, boundary limits).
These quantify over every theta, which no finite computation can certify, so
this module scans dense grids instead and reports the worst violation found
together with a witness point.  A passing report therefore means "no
violation found on the probed grid", never a proof; every report carries the
disclaimer string and the grid it probed.

Strict inequalities are tested with slack: a value on the wrong side of zero
by at most `STRICT_SLACK` still passes, so exact-zero points (e.g. the tie
probability's derivative at its symmetric peak) do not fail on floating-point
noise.  The peak point itself is exempt from the unimodality inequalities.

Boundary limits (eventual win probability approaching 0 and 1, tie
probability vanishing) cannot sit on a fixed grid edge for every parameter
choice, so tail checks evaluate a ladder of points stepping outward by
factors of 10, up to `TAIL_CAP`, and take the first that meets the limit
within `TAIL_TOL`; that point (or the last one probed, on failure) is
recorded as the witness.

z_q = p + q p0 is affine in q, so each scanned quantity (z_q', z_q'', their
combinations, |z_q''| - 1/v1, the tail gaps) is affine in q or the absolute
value of an affine function, worst at the smallest or largest grid q: audits
evaluate shares once per grid and z_q', z_q'' and p0 on those two rows only
(and q = 0, 1 for the tie slope).  Grids and tail ladders are shared read-only.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import JsonRecord, q_value
from .errors import DomainError, ValidationError
from .families import LANES

STRICT_SLACK = 1e-12
"""Wrong-side tolerance for strict grid inequalities."""

TAIL_TOL = 1e-3
"""Acceptance tolerance for boundary-limit checks."""

TAIL_START = 1e3
"""Smallest magnitude at which tail checks begin probing."""

TAIL_CAP = 1e12
"""Largest magnitude a tail check will probe."""

DEGENERATE_TIE_TOL = 1e-14
"""Below this, the tie probability is treated as identically zero."""

RATIO_GRID_LO = 1e-3
RATIO_GRID_HI = 1e3
DIFF_GRID_LO = -10.0
DIFF_GRID_HI = 10.0
DEFAULT_GRID_POINTS = 2001

DEFAULT_Q_GRID: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)

GRID_DISCLAIMER = (
    "grid evidence, not proof: conditions were checked on the recorded finite "
    "grid only"
)

RATIO_ZERO_CONVENTION_NOTE = (
    "zero-effort convention: the all-zero profile (0, 0) is scored at "
    "theta = 1; a lone positive effort wins outright"
)


def default_ratio_grid(points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Log-spaced theta grid covering both tails of a ratio-form contest."""
    return np.geomspace(RATIO_GRID_LO, RATIO_GRID_HI, points)


def default_diff_grid(points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Linear theta grid covering both tails of a difference-form contest."""
    return np.linspace(DIFF_GRID_LO, DIFF_GRID_HI, points)


@dataclass(frozen=True)
class ConditionRecord(JsonRecord):
    """Outcome of one audited condition.

    `violation` is the worst wrong-side magnitude found (0.0 when the
    condition passed); `witness_theta` / `witness_q` (an end of the q grid)
    locate it, tie-broken toward the smallest theta and then the smallest q.
    Tail checks reuse the witness fields for the point that settled the limit.
    """

    name: str
    passed: bool
    violation: float = 0.0
    witness_theta: float | None = None
    witness_q: float | None = None
    note: str = ""


@dataclass(frozen=True)
class AuditReport(JsonRecord):
    """Grid-evidence report on a family's regularity conditions.

    `m` and `M` bound the second derivative of the eventual win probability
    over the probed grid (for concave families they bound the impact
    function's second derivative instead; see `audit_concave`).
    """

    family: str
    params: dict
    kind: str
    conditions: tuple[ConditionRecord, ...]
    m: float
    M: float
    theta_min: float
    theta_max: float
    theta_count: int
    q_values: tuple[float, ...]
    disclaimer: str = GRID_DISCLAIMER
    notes: tuple[str, ...] = field(default=())

    json_keys = ("family", "params", "kind", "passed", "conditions", "m", "M", "vbar",
                 ("grid", ("theta_min", "theta_max", "theta_count", "q_values")),
                 "disclaimer", "notes")

    def __post_init__(self) -> None:
        if not self.m <= self.M:
            raise ValidationError(f"audit bounds out of order: m={self.m} > M={self.M}")

    @property
    def vbar(self) -> float | None:
        """1 / max(|m|, |M|) for difference-form families, else None: prizes at
        or below it keep the curvature condition satisfied on the probed grid."""
        denom = max(abs(self.m), abs(self.M))
        return 1.0 / denom if self.kind == "diff" and denom > 0 else None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    @property
    def failures(self) -> tuple[ConditionRecord, ...]:
        return tuple(c for c in self.conditions if not c.passed)

    def condition(self, name: str) -> ConditionRecord:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)


@functools.cache
def _shared_grid(positive: bool) -> np.ndarray:
    """The default ratio (positive) or difference grid, built once, read-only."""
    grid = default_ratio_grid() if positive else default_diff_grid()
    grid.flags.writeable = False
    return grid


def _slope_rows(csf, theta_grid, q_grid):
    """(theta, qs, ends, z_q', z_q'', z_1' - z_0', p0): a reduced family's checked
    grids, and on theta its slopes with one row per q in ends = (min qs, max qs),
    from one share evaluation on those rows and q = 0 and 1."""
    if theta_grid is None:
        theta = _shared_grid(csf.kind == "ratio")
    else:
        theta = np.asarray(theta_grid, dtype=float)
        if theta.ndim != 1 or theta.size < 2:
            raise ValidationError("theta grid must be a 1-d sequence with at least two points")
        if not np.all(np.isfinite(theta)):
            raise DomainError("theta grid must be finite")
        if csf.kind == "ratio" and np.any(theta <= 0):
            raise DomainError("theta grid must be > 0 for ratio-form families")
        theta = np.sort(theta)
    qs = DEFAULT_Q_GRID if q_grid is None else tuple(sorted(q_value(q) for q in q_grid))
    if len(qs) == 0:
        raise ValidationError("q grid must be nonempty")
    ends = (qs[0], qs[-1])
    rows = sorted({*ends, 0.0, 1.0})
    zp, zpp, p0 = csf._slopes_and_tie(theta, np.array(rows)[:, None], LANES)
    at = slice(None) if rows == list(ends) else [rows.index(q) for q in ends]
    return theta, qs, ends, zp[at], zpp[at], zp[-1] - zp[0], p0


def _strict_condition(name: str, deficit: np.ndarray, theta: np.ndarray,
                      qs: tuple[float | None, ...], note: str = "") -> ConditionRecord:
    """Record a condition whose (q, theta) deficit matrix must stay <= STRICT_SLACK.

    On failure the witness is the largest wrong-side excess; ties on the
    exact worst value resolve to the smallest theta, then the smallest q.
    """
    worst = float(deficit.max())
    if worst <= STRICT_SLACK:
        return ConditionRecord(name=name, passed=True, violation=0.0, note=note)
    wt, wq = min((float(theta[it]), qs[iq]) for iq, it in np.argwhere(deficit == worst))
    return ConditionRecord(
        name=name, passed=False, violation=worst,
        witness_theta=wt, witness_q=wq, note=note,
    )


@functools.lru_cache(maxsize=16)
def _tail_ladder(theta_min: float, theta_max: float):
    """A grid's tail probe points as (down, up, both in one read-only array)."""
    down, up = [min(theta_min, 1.0 / TAIL_START)], [max(theta_max, TAIL_START)]
    while down[-1] / 10.0 >= 1.0 / TAIL_CAP:
        down.append(down[-1] / 10.0)
    while up[-1] * 10.0 <= TAIL_CAP:
        up.append(up[-1] * 10.0)
    points = np.array(down + up)
    points.flags.writeable = False
    return tuple(down), tuple(up), points


def _tail_conditions(csf, theta: np.ndarray, q_col: np.ndarray) -> list[ConditionRecord]:
    """The boundary limits of a ratio-form family, from one share evaluation.

    The ladders step by factors of 10 from min(theta_min, 1/TAIL_START) down
    and from max(theta_max, TAIL_START) up, within [1/TAIL_CAP, TAIL_CAP].
    A gap is the worst across the tie rules in `q_col`; the witness is the
    first point within TAIL_TOL, else the last."""
    down, up, points = _tail_ladder(float(theta[0]), float(theta[-1]))
    n = len(down)
    with np.errstate(all="ignore"):
        win, _, tie = csf._triple(points, LANES)
        z = win + q_col * tie
        limits = (("vanishes_at_zero", down, np.abs(z[:, :n]).max(axis=0)),
                  ("saturates_at_infinity", up, np.abs(1.0 - z[:, n:]).max(axis=0)),
                  ("tie_prob_vanishes_at_zero", down, np.abs(tie[:n])))
    records = []
    for name, probes, gaps in limits:
        gaps = gaps.tolist()  # a few probes: plain floats beat array calls
        at = next((i for i, gap in enumerate(gaps) if not gap > TAIL_TOL), len(gaps) - 1)
        point, gap = probes[at], gaps[at]
        records.append(ConditionRecord(
            name=name, passed=gap <= TAIL_TOL, violation=0.0 if gap <= TAIL_TOL else gap,
            witness_theta=point, note=f"limit gap {gap:.3e} at probe point {point:.3e}"))
    return records


def _unimodality_condition(theta: np.ndarray, p0: np.ndarray, slope: np.ndarray,
                           peak: float) -> ConditionRecord:
    """Tie probability rises strictly left of `peak` and falls right of it.

    `p0` is the tie probability on the ascending grid and `slope` its
    derivative.  The peak point itself is exempt.  When the tie probability is identically
    zero on the grid (single-winner families) the condition passes with a
    degenerate note instead of asserting vacuous strictness.
    """
    if float(max(p0.max(), -p0.min())) <= DEGENERATE_TIE_TOL:
        return ConditionRecord(
            name="tie_prob_unimodal", passed=True, violation=0.0,
            note="degenerate: p0 = 0 everywhere on the probed grid",
        )
    left, right = np.searchsorted(theta, peak, "left"), np.searchsorted(theta, peak, "right")
    deficit = np.concatenate((-slope[:left], np.full(right - left, -np.inf), slope[right:]))
    return _strict_condition("tie_prob_unimodal", deficit[None, :], theta, (None,),
                             note=f"peak checked at theta = {peak}")


def audit_ratio(csf, theta_grid=None, q_grid=None) -> AuditReport:
    """Audit a ratio-form family's regularity conditions on a grid.

    Conditions: the eventual win probability is strictly increasing and
    strictly concave in theta, the rival-curvature combination
    2 z' + theta z'' stays positive (existence of the pure equilibrium), the
    win probability vanishes at theta -> 0+ and saturates at theta -> inf,
    the tie probability vanishes at theta -> 0+, and the tie probability is
    unimodal with its peak at theta = 1.
    """
    if getattr(csf, "kind", None) != "ratio":
        raise ValidationError("audit_ratio requires a ratio-form family")
    theta, qs, ends, zp, zpp, tie_slope, p0 = _slope_rows(csf, theta_grid, q_grid)

    conditions = [
        _strict_condition("win_prob_increasing", -zp, theta, ends),
        _strict_condition("own_payoff_concavity", zpp, theta, ends),
        _strict_condition(
            "rival_payoff_concavity", -(2.0 * zp + theta[None, :] * zpp), theta, ends
        ),
        *_tail_conditions(csf, theta, np.array(ends)[:, None]),
        _unimodality_condition(theta, p0, tie_slope, peak=1.0),
    ]

    return AuditReport(
        family=csf.name, params=dict(csf.params), kind="ratio",
        conditions=tuple(conditions),
        m=float(zpp.min()), M=float(zpp.max()),
        theta_min=float(theta[0]), theta_max=float(theta[-1]),
        theta_count=int(theta.size), q_values=qs,
        notes=(RATIO_ZERO_CONVENTION_NOTE,),
    )


def audit_diff(csf, v1, theta_grid=None, q_grid=None) -> AuditReport:
    """Audit a difference-form family's regularity conditions on a grid.

    Conditions: the eventual win probability is strictly increasing in theta,
    its curvature stays within the prize bound (|z''| <= 1/v1, the existence
    condition for a prize of v1), and the tie probability is unimodal with
    its peak at theta = 0.
    """
    if getattr(csf, "kind", None) != "diff":
        raise ValidationError("audit_diff requires a difference-form family")
    try:
        v1f = float(v1)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"v1 must be a number, got {v1!r}") from exc
    if not (math.isfinite(v1f) and v1f > 0):
        raise ValidationError(f"v1 must be a positive finite number, got {v1f}")
    theta, qs, ends, zp, zpp, tie_slope, p0 = _slope_rows(csf, theta_grid, q_grid)

    conditions = [
        _strict_condition("win_prob_increasing", -zp, theta, ends),
        _strict_condition(
            "curvature_within_prize_bound", np.abs(zpp) - 1.0 / v1f, theta, ends,
            note=f"bound |z''| <= {1.0 / v1f:.6g} from prize v1 = {v1f:.6g}",
        ),
        _unimodality_condition(theta, p0, tie_slope, peak=0.0),
    ]

    return AuditReport(
        family=csf.name, params=dict(csf.params), kind="diff",
        conditions=tuple(conditions),
        m=float(zpp.min()), M=float(zpp.max()),
        theta_min=float(theta[0]), theta_max=float(theta[-1]),
        theta_count=int(theta.size), q_values=qs,
    )


def audit_concave(csf, x_grid=None) -> AuditReport:
    """Audit a concave-impact family: impact strictly increasing and concave.

    The report's `m` and `M` bound the impact function's second derivative
    over the probed effort grid (there is no scalar reduction here); `vbar`
    is None.  The q grid is irrelevant and recorded as empty.
    """
    if getattr(csf, "kind", None) != "concave":
        raise ValidationError("audit_concave requires a concave-impact family")
    if x_grid is None:
        x = _shared_grid(True)
    else:
        x = np.asarray(x_grid, dtype=float)
        if x.ndim != 1 or x.size == 0:
            raise ValidationError("effort grid must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(x)) or np.any(x <= 0):
            raise DomainError("effort grid must be finite and > 0")
        x = np.sort(x)

    fp = csf._impact_prime(x)[None, :]
    fpp = csf._impact_double_prime(x)[None, :]
    conditions = tuple(
        _strict_condition(name, deficit, x, (None,))
        for name, deficit in (("impact_increasing", -fp), ("impact_concave", fpp))
    )
    return AuditReport(
        family=csf.name, params=dict(csf.params), kind="concave",
        conditions=conditions,
        m=float(fpp.min()), M=float(fpp.max()),
        theta_min=float(x[0]), theta_max=float(x[-1]),
        theta_count=int(x.size), q_values=(),
        notes=("m and M bound the impact function's second derivative",),
    )


def audit_family(csf, v1=None, grid_points=None) -> AuditReport:
    """Audit any family with the audit of its kind, on the default grids.

    `v1` is the larger prize, which difference-form audits need;
    `grid_points`, an integer >= 2, overrides the resolution of the default
    theta grid (effort grid for concave families).
    """
    if grid_points is not None and (
            not isinstance(grid_points, (int, np.integer)) or isinstance(grid_points, bool)
            or grid_points < 2):
        raise ValidationError(f"grid points must be an integer >= 2, got {grid_points!r}")
    make = default_diff_grid if csf.kind == "diff" else default_ratio_grid
    grid = None if grid_points in (None, DEFAULT_GRID_POINTS) else make(int(grid_points))
    if csf.kind == "ratio":
        return audit_ratio(csf, theta_grid=grid)
    if csf.kind == "diff":
        if v1 is None:
            raise ValidationError("difference-form audits need the larger prize: give --v1")
        return audit_diff(csf, v1, theta_grid=grid)
    return audit_concave(csf, x_grid=grid)


def estimate_vbar(csf, theta_grid=None, q_grid=None) -> float:
    """Largest prize keeping the curvature condition satisfied on the grid.

    Returns 1 / max |z''| over the probed (theta, q) grid.  Refining the grid
    can only raise the observed maximum, so the estimate is monotone
    nonincreasing under refinement.
    """
    if getattr(csf, "kind", None) != "diff":
        raise ValidationError("estimate_vbar requires a difference-form family")
    zpp = _slope_rows(csf, theta_grid, q_grid)[4]
    peak = float(np.abs(zpp).max())
    if peak <= 0.0:
        raise DomainError(
            "eventual-win-probability curvature vanishes on the entire grid; "
            "the prize bound is unbounded"
        )
    return 1.0 / peak
