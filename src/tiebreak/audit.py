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
value of an affine function, worst at q = 0 or 1: those two rows decide each
condition for every tie rule q in [0, 1].  An audit evaluates shares once, on
its grid and a ratio family's tail ladder, and z_q', z_q'' and p0 on the two
rows only; grids, ladders and rows are shared read-only.  `estimate_vbar` is a report's `vbar`.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .core import JsonRecord, count_value, positive_value
from .errors import DomainError, ValidationError
from .families import LANES, checked_array, float_array

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
"""The tie rules a report records; its ends, q = 0 and 1, are the rows scanned."""

_ENDS = (0.0, 1.0)
_END_ROWS = np.array(_ENDS)[:, None]
_END_ROWS.flags.writeable = False

GRID_DISCLAIMER = (
    "grid evidence, not proof: conditions were checked on the recorded finite "
    "grid only"
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
    condition passed); `witness_theta` / `witness_q` (0.0 or 1.0, None where
    q plays no part) locate it, tie-broken toward the smallest theta, then q.
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


def _grid(grid, positive: bool, name: str, fewest: int, shape: str) -> np.ndarray:
    """`_shared_grid(positive)` if `grid` is None, else `grid` sorted, checked 1-d with
    `fewest` points or more (else "`name` must be `shape`"), finite, and > 0 if `positive`."""
    if grid is None:
        return _shared_grid(positive)
    values = float_array(grid, name)
    if values.ndim != 1 or values.size < fewest:
        raise ValidationError(f"{name} must be {shape}")
    return np.sort(checked_array(values, name, positive=positive))


def _slope_rows(csf, theta_grid):
    """(theta, z_q', z_q'', z_1' - z_0', p0, tail): a reduced family's checked grid, and
    on it the slopes in the rows q = 0 and 1 and p0, from one share evaluation that a
    ratio family's `_tail_ladder` rides along in: tail is (p, p0) there, else empty."""
    ratio = csf.kind == "ratio"
    theta = _grid(theta_grid, ratio, "theta grid", 2, "a 1-d sequence with at least two points")
    points = (np.concatenate((theta, _tail_ladder(float(theta[0]), float(theta[-1]))[2]))
              if ratio else theta)
    shares, n = csf._shares(points, LANES), theta.size
    win, _, tie = csf._triple(points, LANES, shares)
    zp, zpp = csf._zslopes(theta, _END_ROWS, LANES, tuple(s[:n] for s in shares))
    return theta, zp, zpp, zp[1] - zp[0], tie[:n], (win[n:], tie[n:])


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


def _tail_conditions(theta: np.ndarray, win, tie) -> list[ConditionRecord]:
    """The boundary limits of a ratio-form family, from its `_slope_rows` tail (win, tie).

    The ladders step by factors of 10 from min(theta_min, 1/TAIL_START) down
    and from max(theta_max, TAIL_START) up, within [1/TAIL_CAP, TAIL_CAP].
    A gap is the worse of the rows q = 0 and 1; the witness is the first point
    within TAIL_TOL, else the last."""
    down, up, _ = _tail_ladder(float(theta[0]), float(theta[-1]))
    n = len(down)
    z = win + _END_ROWS * tie
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


def _report(csf, conditions, second, grid: np.ndarray, qs, notes=()) -> AuditReport:
    """A family's report: its conditions, m and M the extremes of the second
    derivative `second`, and the grid it probed."""
    return AuditReport(
        family=csf.name, params=dict(csf.params), kind=csf.kind, conditions=tuple(conditions),
        m=float(second.min()), M=float(second.max()), theta_min=float(grid[0]),
        theta_max=float(grid[-1]), theta_count=int(grid.size), q_values=qs, notes=notes)


def audit_ratio(csf, theta_grid=None) -> AuditReport:
    """Audit a ratio-form family's regularity conditions on a grid, at every tie rule.

    Conditions: the eventual win probability is strictly increasing and
    strictly concave in theta, the rival-curvature combination
    2 z' + theta z'' stays positive (existence of the pure equilibrium), the
    win probability vanishes at theta -> 0+ and saturates at theta -> inf,
    the tie probability vanishes at theta -> 0+, and the tie probability is
    unimodal with its peak at theta = 1.
    """
    if getattr(csf, "kind", None) != "ratio":
        raise ValidationError("audit_ratio requires a ratio-form family")
    theta, zp, zpp, tie_slope, p0, tail = _slope_rows(csf, theta_grid)

    conditions = [
        _strict_condition("win_prob_increasing", -zp, theta, _ENDS),
        _strict_condition("own_payoff_concavity", zpp, theta, _ENDS),
        _strict_condition(
            "rival_payoff_concavity", -(2.0 * zp + theta[None, :] * zpp), theta, _ENDS
        ),
        *_tail_conditions(theta, *tail),
        _unimodality_condition(theta, p0, tie_slope, peak=1.0),
    ]
    return _report(csf, conditions, zpp, theta, DEFAULT_Q_GRID, (csf.zero_effort_note,))


def audit_diff(csf, v1, theta_grid=None) -> AuditReport:
    """Audit a difference-form family's regularity conditions on a grid, at every tie rule.

    Conditions: the eventual win probability is strictly increasing in theta,
    its curvature stays within the prize bound (|z''| <= 1/v1, the existence
    condition for a prize of v1), and the tie probability is unimodal with
    its peak at theta = 0.
    """
    if getattr(csf, "kind", None) != "diff":
        raise ValidationError("audit_diff requires a difference-form family")
    v1f = positive_value(v1, "v1")
    theta, zp, zpp, tie_slope, p0, _ = _slope_rows(csf, theta_grid)

    conditions = [
        _strict_condition("win_prob_increasing", -zp, theta, _ENDS),
        _strict_condition(
            "curvature_within_prize_bound", np.abs(zpp) - 1.0 / v1f, theta, _ENDS,
            note=f"bound |z''| <= {1.0 / v1f:.6g} from prize v1 = {v1f:.6g}",
        ),
        _unimodality_condition(theta, p0, tie_slope, peak=0.0),
    ]
    return _report(csf, conditions, zpp, theta, DEFAULT_Q_GRID)


def audit_concave(csf, x_grid=None) -> AuditReport:
    """Audit a concave-impact family: impact strictly increasing and concave.

    The report's `m` and `M` bound the impact function's second derivative
    over the probed effort grid (there is no scalar reduction here); `vbar`
    is None.  The q grid is irrelevant and recorded as empty.
    """
    if getattr(csf, "kind", None) != "concave":
        raise ValidationError("audit_concave requires a concave-impact family")
    x = _grid(x_grid, True, "effort grid", 1, "a nonempty 1-d sequence")
    fp = csf._impact_prime(x)[None, :]
    fpp = csf._impact_double_prime(x)[None, :]
    conditions = (_strict_condition(name, deficit, x, (None,))
                  for name, deficit in (("impact_increasing", -fp), ("impact_concave", fpp)))
    return _report(csf, conditions, fpp, x, (),
                   ("m and M bound the impact function's second derivative",))


def audit_family(csf, v1=None, grid_points=None) -> AuditReport:
    """Audit any family with the audit of its kind, on the default grids.

    `v1` is the larger prize, which difference-form audits need;
    `grid_points`, an integer >= 2, overrides the resolution of the default
    theta grid (effort grid for concave families).
    """
    if grid_points is not None:
        grid_points = count_value(grid_points, "grid points")
    make = default_diff_grid if csf.kind == "diff" else default_ratio_grid
    grid = None if grid_points in (None, DEFAULT_GRID_POINTS) else make(grid_points)
    if csf.kind == "ratio":
        return audit_ratio(csf, theta_grid=grid)
    if csf.kind == "diff":
        if v1 is None:
            raise ValidationError("difference-form audits need the larger prize: give --v1")
        return audit_diff(csf, v1, theta_grid=grid)
    return audit_concave(csf, x_grid=grid)


def estimate_vbar(csf, theta_grid=None) -> float:
    """Largest prize keeping the curvature condition satisfied on the grid.

    Returns 1 / max |z''| over the probed theta grid at every tie rule, as a report's `vbar`.
    Refining the grid can only raise the observed maximum, so the estimate is
    monotone nonincreasing under refinement.
    """
    if getattr(csf, "kind", None) != "diff":
        raise ValidationError("estimate_vbar requires a difference-form family")
    theta, _, zpp, *_ = _slope_rows(csf, theta_grid)
    vbar = _report(csf, (), zpp, theta, DEFAULT_Q_GRID).vbar
    if vbar is None:
        raise DomainError(
            "eventual-win-probability curvature vanishes on the entire grid; "
            "the prize bound is unbounded"
        )
    return vbar
