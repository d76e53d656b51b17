"""Numerical audits of the regularity conditions behind the solvers.

The closed forms and root-finding steps in `equilibrium` are valid only under
shape conditions on the reduced contest functions (monotone eventual win
probability, curvature bounds, unimodal tie probability, boundary limits).
These quantify over every theta, which no finite computation can certify, so
this module scans dense grids instead and reports the worst violation found
together with a witness point.  A passing report therefore means "no
violation found on the probed grid", never a proof; every report carries the
disclaimer string and the grid it probed.  The grid's range is its kind's
(ratio-form and concave [1e-3, 1e3], difference-form [-10, 10]); a caller
sets only its count, `grid_points`.

Strict inequalities are tested with slack: a value on the wrong side of zero
by at most `STRICT_SLACK` still passes, so exact-zero points (e.g. the tie
probability's derivative at its symmetric peak) do not fail on floating-point
noise.  The peak point itself is exempt from the unimodality inequalities.

Boundary limits (eventual win probability approaching 0 and 1, tie
probability vanishing) cannot sit on a fixed grid edge for every parameter
choice, so tail checks evaluate a ladder of points stepping outward from the
ratio grid's ends by factors of 10, up to `TAIL_CAP`, and take the first that
meets the limit within `TAIL_TOL`; that point (or the last one probed, on
failure) is recorded as the witness.

z_q = p + q p0 is affine in q, so each scanned quantity (z_q', z_q'', their
combinations, |z_q''| - 1/v1, the tail gaps) is affine in q or the absolute
value of an affine function, worst at q = 0 or 1: those two rows decide each
condition for every tie rule q in [0, 1].  An audit evaluates shares once, on
its grid and a ratio family's tail ladder, and z_q', z_q'' and p0 on the two
rows only; grids (one per kind and count), the ladder and the rows are shared
read-only.  `estimate_vbar` is a default report's `vbar`.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .core import JsonRecord, count_value, positive_value
from .errors import DomainError, ValidationError
from .families import LANES

STRICT_SLACK = 1e-12
"""Wrong-side tolerance for strict grid inequalities."""

TAIL_TOL = 1e-3
"""Acceptance tolerance for boundary-limit checks."""

TAIL_CAP = 1e12
"""Largest magnitude a tail check will probe."""

DEGENERATE_TIE_TOL = 1e-14
"""Below this, the tie probability is treated as identically zero."""

RATIO_GRID_LO = 1e-3
RATIO_GRID_HI = 1e3
DIFF_GRID_LO = -10.0
DIFF_GRID_HI = 10.0
DEFAULT_GRID_POINTS = 2001

_ENDS = (0.0, 1.0)
_END_ROWS = np.array(_ENDS)[:, None]
_END_ROWS.flags.writeable = False

# Tail probes stepping by factors of 10 from every ratio grid's ends out to 1/TAIL_CAP
# and TAIL_CAP; the share evaluation reads both ladders in one array.
_STEPS = [10.0] * round(math.log10(TAIL_CAP / RATIO_GRID_HI))
_TAIL_DOWN = tuple(itertools.accumulate(_STEPS, operator.truediv, initial=RATIO_GRID_LO))
_TAIL_UP = tuple(itertools.accumulate(_STEPS, operator.mul, initial=RATIO_GRID_HI))
_TAIL_POINTS = np.array(_TAIL_DOWN + _TAIL_UP)
_TAIL_POINTS.flags.writeable = False

GRID_DISCLAIMER = (
    "grid evidence, not proof: conditions were checked on the recorded finite "
    "grid only"
)


def default_ratio_grid(points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Log-spaced theta grid covering both tails of a ratio-form contest; `points` >= 2."""
    return _kind_grid(True, count_value(points, "grid points")).copy()


def default_diff_grid(points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Linear theta grid covering both tails of a difference-form contest; `points` >= 2."""
    return _kind_grid(False, count_value(points, "grid points")).copy()


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
    disclaimer: str = GRID_DISCLAIMER
    notes: tuple[str, ...] = field(default=())

    json_keys = ("family", "params", "kind", "passed", "conditions", "m", "M", "vbar",
                 ("grid", ("theta_min", "theta_max", "theta_count")),
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


@functools.lru_cache(maxsize=4)
def _kind_grid(positive: bool, points: int) -> np.ndarray:
    """A kind's audit grid at a count the caller checked (the cache keys 2.0 as 2): log-spaced
    for ratio-form and concave families (`positive`), else linear; built once per count,
    read-only, and copied by `default_ratio_grid` and `default_diff_grid`."""
    grid = (np.geomspace(RATIO_GRID_LO, RATIO_GRID_HI, points) if positive
            else np.linspace(DIFF_GRID_LO, DIFF_GRID_HI, points))
    grid.flags.writeable = False
    return grid


def _slope_rows(csf, theta):
    """(z_q', z_q'', z_1' - z_0', p0, tail) on a reduced family's ascending grid `theta`:
    the slopes in the rows q = 0 and 1 and p0, from one share evaluation that a ratio
    family's tail ladder rides along in: tail is (p, p0) there, else empty."""
    ratio = csf.kind == "ratio"
    points = np.concatenate((theta, _TAIL_POINTS)) if ratio else theta
    shares, n = csf._shares(points, LANES), theta.size
    win, _, tie = csf._triple(points, LANES, shares)
    zp, zpp = csf._zslopes(theta, _END_ROWS, LANES, tuple(s[:n] for s in shares))
    return zp, zpp, zp[1] - zp[0], tie[:n], (win[n:], tie[n:])


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


def _tail_conditions(win, tie) -> list[ConditionRecord]:
    """The boundary limits of a ratio-form family, from its `_slope_rows` tail (win, tie)
    on `_TAIL_DOWN` and `_TAIL_UP`.  A gap is the worse of the rows q = 0 and 1; the
    witness is the first point within TAIL_TOL, else the last."""
    n = len(_TAIL_DOWN)
    z = win + _END_ROWS * tie
    limits = (("vanishes_at_zero", _TAIL_DOWN, np.abs(z[:, :n]).max(axis=0)),
              ("saturates_at_infinity", _TAIL_UP, np.abs(1.0 - z[:, n:]).max(axis=0)),
              ("tie_prob_vanishes_at_zero", _TAIL_DOWN, np.abs(tie[:n])))
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


def _report(csf, conditions, second, grid: np.ndarray, notes=()) -> AuditReport:
    """A family's report: its conditions, m and M the extremes of the second
    derivative `second`, and the grid it probed."""
    return AuditReport(
        family=csf.name, params=dict(csf.params), kind=csf.kind, conditions=tuple(conditions),
        m=float(second.min()), M=float(second.max()), theta_min=float(grid[0]),
        theta_max=float(grid[-1]), theta_count=int(grid.size), notes=notes)


def audit_ratio(csf, grid_points: int = DEFAULT_GRID_POINTS) -> AuditReport:
    """Audit a ratio-form family's regularity conditions at every tie rule, on the
    theta grid `default_ratio_grid(grid_points)`; refine it by raising `grid_points`.

    Conditions: the eventual win probability is strictly increasing and
    strictly concave in theta, the rival-curvature combination
    2 z' + theta z'' stays positive (existence of the pure equilibrium), the
    win probability vanishes at theta -> 0+ and saturates at theta -> inf,
    the tie probability vanishes at theta -> 0+, and the tie probability is
    unimodal with its peak at theta = 1.
    """
    if getattr(csf, "kind", None) != "ratio":
        raise ValidationError("audit_ratio requires a ratio-form family")
    return _audit(csf, None, count_value(grid_points, "grid points"))


def audit_diff(csf, v1, grid_points: int = DEFAULT_GRID_POINTS) -> AuditReport:
    """Audit a difference-form family's regularity conditions at every tie rule, on the
    theta grid `default_diff_grid(grid_points)`; refine it by raising `grid_points`.

    Conditions: the eventual win probability is strictly increasing in theta,
    its curvature stays within the prize bound (|z''| <= 1/v1, the existence
    condition for a prize of v1), and the tie probability is unimodal with
    its peak at theta = 0.
    """
    if getattr(csf, "kind", None) != "diff":
        raise ValidationError("audit_diff requires a difference-form family")
    v1f = positive_value(v1, "v1")
    return _audit(csf, v1f, count_value(grid_points, "grid points"))


def audit_concave(csf, grid_points: int = DEFAULT_GRID_POINTS) -> AuditReport:
    """Audit a concave-impact family: impact strictly increasing and concave, on the
    effort grid `default_ratio_grid(grid_points)`; refine it by raising `grid_points`.

    The report's `m` and `M` bound the impact function's second derivative
    over the probed effort grid (there is no scalar reduction here, and no tie
    rule plays a part); `vbar` is None.
    """
    if getattr(csf, "kind", None) != "concave":
        raise ValidationError("audit_concave requires a concave-impact family")
    return _audit(csf, None, count_value(grid_points, "grid points"))


def audit_family(csf, v1=None, grid_points=None) -> AuditReport:
    """Audit any family with the audit of its kind.

    `v1` is the larger prize, which difference-form audits need;
    `grid_points`, an integer >= 2 (None for `DEFAULT_GRID_POINTS`), is the
    count of the kind's theta grid (effort grid for concave families).
    """
    points = (DEFAULT_GRID_POINTS if grid_points is None  # a bad count is named before v1
              else count_value(grid_points, "grid points"))
    if csf.kind == "diff":
        if v1 is None:
            raise ValidationError("difference-form audits need the larger prize: give --v1")
        v1 = positive_value(v1, "v1")
    elif csf.kind not in ("ratio", "concave"):  # `audit_concave` refuses any other kind
        raise ValidationError("audit_concave requires a concave-impact family")
    return _audit(csf, v1, points)


def _audit(csf, v1, points: int) -> AuditReport:
    """The audit of `csf`'s kind on its grid of `points`, once the caller has checked
    the kind, the count and, for a difference form, the prize `v1`."""
    if csf.kind == "concave":
        x = _kind_grid(True, points)
        fp = csf._impact_prime(x)[None, :]
        fpp = csf._impact_double_prime(x)[None, :]
        conditions = (_strict_condition(name, deficit, x, (None,))
                      for name, deficit in (("impact_increasing", -fp), ("impact_concave", fpp)))
        return _report(csf, conditions, fpp, x,
                       ("m and M bound the impact function's second derivative",))
    theta = _kind_grid(csf.kind == "ratio", points)
    zp, zpp, tie_slope, p0, tail = _slope_rows(csf, theta)
    if csf.kind == "diff":
        conditions = [
            _strict_condition("win_prob_increasing", -zp, theta, _ENDS),
            _strict_condition(
                "curvature_within_prize_bound", np.abs(zpp) - 1.0 / v1, theta, _ENDS,
                note=f"bound |z''| <= {1.0 / v1:.6g} from prize v1 = {v1:.6g}",
            ),
            _unimodality_condition(theta, p0, tie_slope, peak=0.0),
        ]
        return _report(csf, conditions, zpp, theta)
    conditions = [
        _strict_condition("win_prob_increasing", -zp, theta, _ENDS),
        _strict_condition("own_payoff_concavity", zpp, theta, _ENDS),
        _strict_condition(
            "rival_payoff_concavity", -(2.0 * zp + theta[None, :] * zpp), theta, _ENDS
        ),
        *_tail_conditions(*tail),
        _unimodality_condition(theta, p0, tie_slope, peak=1.0),
    ]
    return _report(csf, conditions, zpp, theta, (csf.zero_effort_note,))


def estimate_vbar(csf) -> float:
    """Largest prize keeping the curvature condition satisfied on the default grid.

    Returns 1 / max |z''| over `default_diff_grid()` at every tie rule, the `vbar`
    of a default `audit_diff` report.  Refinement goes through that audit's
    `grid_points`: a finer grid can only raise the observed maximum, so its
    `vbar` is monotone nonincreasing under refinement.
    """
    if getattr(csf, "kind", None) != "diff":
        raise ValidationError("estimate_vbar requires a difference-form family")
    theta = _kind_grid(False, DEFAULT_GRID_POINTS)
    vbar = _report(csf, (), _slope_rows(csf, theta)[1], theta).vbar
    if vbar is None:
        raise DomainError(
            "eventual-win-probability curvature vanishes on the entire grid; "
            "the prize bound is unbounded"
        )
    return vbar
