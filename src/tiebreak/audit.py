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

Each audit evaluates the family's slopes once, as one derivative table on
the grid whose q = 0 and q = 1 rows also give the tie probability's slope,
and its outcome probabilities once on the grid and once on the tail ladders.
The default grids are built on first use and shared, read-only, by every audit.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import JsonRecord, q_value
from .errors import DomainError, ValidationError

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
    condition passed); `witness_theta` / `witness_q` locate it, tie-broken
    toward the smallest theta and then the smallest q.  Tail checks reuse the
    witness fields for the evaluation point that settled the limit.
    """

    name: str
    passed: bool
    violation: float = 0.0
    witness_theta: float | None = None
    witness_q: float | None = None
    note: str = ""


@dataclass(frozen=True)
class AuditReport:
    """Grid-evidence report on a family's regularity conditions.

    `m` and `M` bound the second derivative of the eventual win probability
    over the probed grid (for concave families they bound the impact
    function's second derivative instead; see `audit_concave`).  `vbar` is
    populated for difference-form families only and equals
    1 / max(|m|, |M|): prizes at or below that bound keep the curvature
    condition satisfied on the probed grid.
    """

    family: str
    params: dict
    kind: str
    conditions: tuple[ConditionRecord, ...]
    m: float
    M: float
    vbar: float | None
    theta_min: float
    theta_max: float
    theta_count: int
    q_values: tuple[float, ...]
    disclaimer: str = GRID_DISCLAIMER
    notes: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.m <= self.M:
            raise ValidationError(f"audit bounds out of order: m={self.m} > M={self.M}")
        if self.vbar is not None:
            denom = max(abs(self.m), abs(self.M))
            if denom <= 0:
                raise ValidationError("vbar present but both curvature bounds are zero")
            if not math.isclose(self.vbar, 1.0 / denom, rel_tol=0.0, abs_tol=1e-12):
                raise ValidationError(
                    f"vbar={self.vbar} does not match 1/max(|m|,|M|)={1.0 / denom}"
                )

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

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "params": dict(self.params),
            "kind": self.kind,
            "passed": self.passed,
            "conditions": [c.to_json_dict() for c in self.conditions],
            "m": self.m,
            "M": self.M,
            "vbar": self.vbar,
            "grid": {
                "theta_min": self.theta_min,
                "theta_max": self.theta_max,
                "theta_count": self.theta_count,
                "q_values": list(self.q_values),
            },
            "disclaimer": self.disclaimer,
            "notes": list(self.notes),
        }


@functools.cache
def _shared_grid(positive: bool) -> np.ndarray:
    """The default ratio (positive) or difference grid, built once, read-only."""
    grid = default_ratio_grid() if positive else default_diff_grid()
    grid.flags.writeable = False
    return grid


def _check_grids(theta_grid, q_grid, *, positive_theta: bool):
    if theta_grid is None:
        theta = _shared_grid(positive_theta)
    else:
        theta = np.asarray(theta_grid, dtype=float)
        if theta.ndim != 1 or theta.size < 2:
            raise ValidationError("theta grid must be a 1-d sequence with at least two points")
        if not np.all(np.isfinite(theta)):
            raise DomainError("theta grid must be finite")
        if positive_theta and np.any(theta <= 0):
            raise DomainError("theta grid must be > 0 for ratio-form families")
        theta = np.sort(theta)
    qs = DEFAULT_Q_GRID if q_grid is None else tuple(q_value(q) for q in q_grid)
    if len(qs) == 0:
        raise ValidationError("q grid must be nonempty")
    return theta, tuple(sorted(qs))


def _strict_condition(name: str, deficit: np.ndarray, theta: np.ndarray,
                      qs: tuple[float, ...], note: str = "") -> ConditionRecord:
    """Record a condition whose (q, theta) deficit matrix must stay <= STRICT_SLACK.

    On failure the witness is the largest wrong-side excess; ties on the
    exact worst value resolve to the smallest theta, then the smallest q.
    """
    worst = float(np.max(deficit))
    if worst <= STRICT_SLACK:
        return ConditionRecord(name=name, passed=True, violation=0.0, note=note)
    wt, wq = min((float(theta[it]), float(qs[iq])) for iq, it in np.argwhere(deficit == worst))
    return ConditionRecord(
        name=name, passed=False, violation=worst,
        witness_theta=wt, witness_q=wq, note=note,
    )


def _tail_conditions(csf, theta: np.ndarray, q_col: np.ndarray) -> list[ConditionRecord]:
    """The boundary limits of a ratio-form family, from one share evaluation.

    The ladders step by factors of 10 from min(theta_min, 1/TAIL_START) down
    and from max(theta_max, TAIL_START) up, within [1/TAIL_CAP, TAIL_CAP].
    A gap is the worst across the q grid; the witness is the first point
    within TAIL_TOL, else the last."""
    down, up = [min(float(theta[0]), 1.0 / TAIL_START)], [max(float(theta[-1]), TAIL_START)]
    while down[-1] / 10.0 >= 1.0 / TAIL_CAP:
        down.append(down[-1] / 10.0)
    while up[-1] * 10.0 <= TAIL_CAP:
        up.append(up[-1] * 10.0)
    n = len(down)
    with np.errstate(all="ignore"):
        win, _, tie = csf._triple(np.array(down + up))
        z = win + q_col * tie
        limits = (("vanishes_at_zero", down, np.max(np.abs(z[:, :n]), axis=0)),
                  ("saturates_at_infinity", up, np.max(np.abs(1.0 - z[:, n:]), axis=0)),
                  ("tie_prob_vanishes_at_zero", down, np.abs(tie[:n])))
    records = []
    for name, points, gaps in limits:
        settled = np.flatnonzero(~(gaps > TAIL_TOL))
        at = int(settled[0]) if settled.size else len(points) - 1
        point, gap = points[at], float(gaps[at])
        records.append(ConditionRecord(
            name=name, passed=gap <= TAIL_TOL, violation=0.0 if gap <= TAIL_TOL else gap,
            witness_theta=point, note=f"limit gap {gap:.3e} at probe point {point:.3e}"))
    return records


def _unimodality_condition(csf, theta: np.ndarray, slope: np.ndarray,
                           peak: float) -> ConditionRecord:
    """Tie probability rises strictly left of `peak` and falls right of it.

    `slope` is its derivative on the grid.  The peak point itself is exempt.
    When the tie probability is identically zero on the grid (single-winner
    families) the condition passes with a degenerate note instead of
    asserting vacuous strictness.
    """
    p0 = csf._triple(theta)[2]
    if float(np.max(np.abs(p0))) <= DEGENERATE_TIE_TOL:
        return ConditionRecord(
            name="tie_prob_unimodal", passed=True, violation=0.0,
            note="degenerate: p0 = 0 everywhere on the probed grid",
        )
    deficit = np.where(theta < peak, -slope, np.where(theta > peak, slope, -np.inf))
    return replace(_strict_condition("tie_prob_unimodal", deficit[None, :], theta, (0.0,),
                                     note=f"peak checked at theta = {peak}"), witness_q=None)


def _slope_table(csf, theta: np.ndarray, qs: tuple[float, ...]):
    """z_q' and z_q'' on the grid, one row per tie rule in `qs`, and the tie
    probability's slope z_1' - z_0', from one evaluation on `qs` plus 0 and 1."""
    rows = sorted({*qs, 0.0, 1.0})
    zp, zpp = csf._zslopes(theta, np.array(rows)[:, None])
    at = slice(None) if rows == list(qs) else [rows.index(q) for q in qs]
    return zp[at], zpp[at], zp[-1] - zp[0]


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
    theta, qs = _check_grids(theta_grid, q_grid, positive_theta=True)
    zp, zpp, tie_slope = _slope_table(csf, theta, qs)

    conditions = [
        _strict_condition("win_prob_increasing", -zp, theta, qs),
        _strict_condition("own_payoff_concavity", zpp, theta, qs),
        _strict_condition(
            "rival_payoff_concavity", -(2.0 * zp + theta[None, :] * zpp), theta, qs
        ),
        *_tail_conditions(csf, theta, np.array(qs)[:, None]),
        _unimodality_condition(csf, theta, tie_slope, peak=1.0),
    ]

    return AuditReport(
        family=csf.name, params=dict(csf.params), kind="ratio",
        conditions=tuple(conditions),
        m=float(np.min(zpp)), M=float(np.max(zpp)), vbar=None,
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
    theta, qs = _check_grids(theta_grid, q_grid, positive_theta=False)
    zp, zpp, tie_slope = _slope_table(csf, theta, qs)

    conditions = [
        _strict_condition("win_prob_increasing", -zp, theta, qs),
        _strict_condition(
            "curvature_within_prize_bound", np.abs(zpp) - 1.0 / v1f, theta, qs,
            note=f"bound |z''| <= {1.0 / v1f:.6g} from prize v1 = {v1f:.6g}",
        ),
        _unimodality_condition(csf, theta, tie_slope, peak=0.0),
    ]

    m = float(np.min(zpp))
    M = float(np.max(zpp))
    denom = max(abs(m), abs(M))
    vbar = (1.0 / denom) if denom > 0 else None
    return AuditReport(
        family=csf.name, params=dict(csf.params), kind="diff",
        conditions=tuple(conditions),
        m=m, M=M, vbar=vbar,
        theta_min=float(theta[0]), theta_max=float(theta[-1]),
        theta_count=int(theta.size), q_values=qs,
    )


def audit_concave(csf, x_grid=None) -> AuditReport:
    """Audit a concave-impact family: impact strictly increasing and concave.

    The report's `m` and `M` bound the impact function's second derivative
    over the probed effort grid (there is no scalar reduction here); `vbar`
    is absent.  The q grid is irrelevant and recorded as empty.
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
        replace(_strict_condition(name, deficit, x, (0.0,)), witness_q=None)
        for name, deficit in (("impact_increasing", -fp), ("impact_concave", fpp))
    )
    return AuditReport(
        family=csf.name, params=dict(csf.params), kind="concave",
        conditions=conditions,
        m=float(np.min(fpp)), M=float(np.max(fpp)), vbar=None,
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
    theta, qs = _check_grids(theta_grid, q_grid, positive_theta=False)
    zpp = csf._zslopes(theta, np.array(qs)[:, None])[1]
    peak = float(np.max(np.abs(zpp)))
    if peak <= 0.0:
        raise DomainError(
            "eventual-win-probability curvature vanishes on the entire grid; "
            "the prize bound is unbounded"
        )
    return 1.0 / peak
