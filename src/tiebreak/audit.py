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
"""
from __future__ import annotations

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


def _check_grids(theta_grid, q_grid, *, positive_theta: bool):
    if theta_grid is None:
        theta = default_ratio_grid() if positive_theta else default_diff_grid()
    else:
        theta = np.asarray(theta_grid, dtype=float)
    if theta.ndim != 1 or theta.size < 2:
        raise ValidationError(
            "theta grid must be a 1-d sequence with at least two points"
        )
    if not np.all(np.isfinite(theta)):
        raise DomainError("theta grid must be finite")
    if positive_theta and np.any(theta <= 0):
        raise DomainError("theta grid must be > 0 for ratio-form families")
    theta = np.sort(theta)
    qs = DEFAULT_Q_GRID if q_grid is None else tuple(q_value(q) for q in q_grid)
    if len(qs) == 0:
        raise ValidationError("q grid must be nonempty")
    return theta, tuple(sorted(qs))


def _worst_violation(deficit: np.ndarray, theta: np.ndarray, qs: tuple[float, ...]):
    """Locate the largest wrong-side excess in a (q, theta) deficit matrix.

    Returns (worst, witness_theta, witness_q); ties on the exact worst value
    resolve to the smallest theta, then the smallest q.
    """
    worst = float(np.max(deficit))
    if worst <= STRICT_SLACK:
        return worst, None, None
    hits = np.argwhere(deficit == np.max(deficit))
    best = min((float(theta[it]), float(qs[iq])) for iq, it in hits)
    return worst, best[0], best[1]


def _strict_condition(name: str, deficit: np.ndarray, theta: np.ndarray,
                      qs: tuple[float, ...], note: str = "") -> ConditionRecord:
    """Build a record for a condition whose deficit must stay <= STRICT_SLACK."""
    worst, wt, wq = _worst_violation(deficit, theta, qs)
    if worst <= STRICT_SLACK:
        return ConditionRecord(name=name, passed=True, violation=0.0, note=note)
    return ConditionRecord(
        name=name, passed=False, violation=worst,
        witness_theta=wt, witness_q=wq, note=note,
    )


def _tail_condition(name: str, evaluate, start: float, direction: str) -> ConditionRecord:
    """Check a boundary limit on a ladder of probe points, in one evaluation.

    The ladder steps from `start` by repeated *10 ("up") or /10 ("down")
    while the magnitude stays within [1/TAIL_CAP, TAIL_CAP].  `evaluate`
    maps the ladder to each point's worst absolute gap to the limit across
    the q grid.  The witness is the first point within TAIL_TOL, else the last.
    """
    points = [start]
    while True:
        nxt = points[-1] * 10.0 if direction == "up" else points[-1] / 10.0
        if nxt > TAIL_CAP or nxt < 1.0 / TAIL_CAP:
            break
        points.append(nxt)
    with np.errstate(all="ignore"):
        gaps = np.asarray(evaluate(np.array(points)), dtype=float)
    settled = np.flatnonzero(~(gaps > TAIL_TOL))
    at = int(settled[0]) if settled.size else len(points) - 1
    point, gap = points[at], float(gaps[at])
    passed = gap <= TAIL_TOL
    note = f"limit gap {gap:.3e} at probe point {point:.3e}"
    return ConditionRecord(
        name=name, passed=passed, violation=0.0 if passed else gap,
        witness_theta=point, witness_q=None, note=note,
    )


def _unimodality_condition(csf, theta: np.ndarray, peak: float) -> ConditionRecord:
    """Tie probability rises strictly left of `peak` and falls right of it.

    The peak point itself is exempt.  When the tie probability is identically
    zero on the grid (single-winner families) the condition passes with a
    degenerate note instead of asserting vacuous strictness.
    """
    p0 = csf._triple(theta)[2]
    if float(np.max(np.abs(p0))) <= DEGENERATE_TIE_TOL:
        return ConditionRecord(
            name="tie_prob_unimodal", passed=True, violation=0.0,
            note="degenerate: p0 = 0 everywhere on the probed grid",
        )
    slope = csf._zp(theta, 1.0) - csf._zp(theta, 0.0)
    deficit = np.where(theta < peak, -slope, np.where(theta > peak, slope, -np.inf))
    worst = float(np.max(deficit))
    if worst <= STRICT_SLACK:
        return ConditionRecord(name="tie_prob_unimodal", passed=True, violation=0.0,
                               note=f"peak checked at theta = {peak}")
    hits = np.argwhere(deficit == np.max(deficit)).ravel()
    wt = float(theta[int(hits.min())])
    return ConditionRecord(
        name="tie_prob_unimodal", passed=False, violation=worst,
        witness_theta=wt, witness_q=None, note=f"peak checked at theta = {peak}",
    )


def _derivative_tables(csf, theta: np.ndarray, qs: tuple[float, ...]):
    """z_q' and z_q'' on the grid, one row per tie rule."""
    q_col = np.array(qs)[:, None]
    return csf._zslopes(theta, q_col)


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
    zp, zpp = _derivative_tables(csf, theta, qs)
    q_col = np.array(qs)[:, None]

    conditions = [
        _strict_condition("win_prob_increasing", -zp, theta, qs),
        _strict_condition("own_payoff_concavity", zpp, theta, qs),
        _strict_condition(
            "rival_payoff_concavity", -(2.0 * zp + theta[None, :] * zpp), theta, qs
        ),
        _tail_condition(
            "vanishes_at_zero",
            lambda pts: np.max(np.abs(csf._z(pts, q_col)), axis=0),
            start=min(float(theta[0]), 1.0 / TAIL_START), direction="down",
        ),
        _tail_condition(
            "saturates_at_infinity",
            lambda pts: np.max(np.abs(1.0 - csf._z(pts, q_col)), axis=0),
            start=max(float(theta[-1]), TAIL_START), direction="up",
        ),
        _tail_condition(
            "tie_prob_vanishes_at_zero",
            lambda pts: np.abs(csf._triple(pts)[2]),
            start=min(float(theta[0]), 1.0 / TAIL_START), direction="down",
        ),
        _unimodality_condition(csf, theta, peak=1.0),
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
    zp, zpp = _derivative_tables(csf, theta, qs)

    conditions = [
        _strict_condition("win_prob_increasing", -zp, theta, qs),
        _strict_condition(
            "curvature_within_prize_bound", np.abs(zpp) - 1.0 / v1f, theta, qs,
            note=f"bound |z''| <= {1.0 / v1f:.6g} from prize v1 = {v1f:.6g}",
        ),
        _unimodality_condition(csf, theta, peak=0.0),
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
    x = default_ratio_grid() if x_grid is None else np.asarray(x_grid, dtype=float)
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
    points = DEFAULT_GRID_POINTS if grid_points is None else int(grid_points)
    if csf.kind == "ratio":
        return audit_ratio(csf, theta_grid=default_ratio_grid(points))
    if csf.kind == "diff":
        if v1 is None:
            raise ValidationError("difference-form audits need the larger prize: give --v1")
        return audit_diff(csf, v1, theta_grid=default_diff_grid(points))
    return audit_concave(csf, x_grid=default_ratio_grid(points))


def estimate_vbar(csf, theta_grid=None, q_grid=None) -> float:
    """Largest prize keeping the curvature condition satisfied on the grid.

    Returns 1 / max |z''| over the probed (theta, q) grid.  Refining the grid
    can only raise the observed maximum, so the estimate is monotone
    nonincreasing under refinement.
    """
    if getattr(csf, "kind", None) != "diff":
        raise ValidationError("estimate_vbar requires a difference-form family")
    theta, qs = _check_grids(theta_grid, q_grid, positive_theta=False)
    _, zpp = _derivative_tables(csf, theta, qs)
    peak = float(np.max(np.abs(zpp)))
    if peak <= 0.0:
        raise DomainError(
            "eventual-win-probability curvature vanishes on the entire grid; "
            "the prize bound is unbounded"
        )
    return 1.0 / peak
