"""Designer-side analysis: choosing the tie-breaking rule.

The designer's objective is total equilibrium effort R(q) = x1(q) + x2(q).
This module sweeps R over q, certifies curve shapes (constant, linear,
monotone decreasing, convex) within explicit bounds, finds the optimal
deterministic rule, and evaluates random tie-breaking rules by expected
total effort.  Every curve is solved in one batch over its tie rules
(`equilibrium.solve_lanes`) and read as x1 + x2 off its effort arrays:
sweeps and the optimal rule's 101-point cross-check never loop over q or
build a per-q record, while a random rule, a handful of atoms too few for
a batch to pay, takes one scalar `solve` per atom.  A contest's grid batch is solved
once: `sweep` and `optimal_q` reuse the last one with no failing lane.  The
concave optimum is read off that batch and certified by the sign of dR/dq,
from the implicit function theorem on the first-order conditions: an
endpoint where it points outward, or `optimal_q` raises `ConvergenceError`.

Shape certificates are numeric statements about the sampled curve, not
symbolic proofs: each records the worst measured violation alongside the
verdict, and the bounds are module constants shared with the test
suite.  The linearity certificate uses the three-point midpoint deviation,
which presumes equally spaced samples; `sweep` always produces them.

Tie rules are labeled from player 1's perspective (q is player 1's tie
share).  For unequal prizes the theory says the designer should give the
*stronger* player no tie share, so the optimal deterministic rule is q = 0
when player 1 has the larger prize and q = 1 when player 2 does.
"""
from __future__ import annotations

import enum
import functools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .core import ContestSpec, JsonRecord, RandomTieRule, TieRule
from .equilibrium import solve, solve_lanes, total_effort_slope
from .errors import ConvergenceError, ValidationError

CONSTANT_TOL = 1e-10
"""Max allowed range of R over the sweep for the constant certificate."""

LINEAR_TOL = 1e-10
"""Max allowed three-point midpoint deviation for the linear certificate."""

MONOTONE_SLACK = 1e-12
"""Largest allowed upward step of R for the monotone-decreasing certificate."""

CONVEX_TOL = 1e-10
"""Most negative allowed second difference of R for the convex certificate."""

STRICT_NEGATIVE_SLACK = 1e-12
"""Wrong-side slack for the strict tie-curvature precondition."""

OPTIMAL_IMPROVEMENT_GUARD = 1e-12
"""Relative improvement a cross-check must exceed to override a candidate."""

CROSS_CHECK_POINTS = 101


@dataclass(frozen=True)
class ShapeCheck(JsonRecord):
    """One certified curve property: verdict plus worst measured violation."""

    holds: bool
    violation: float


@dataclass(frozen=True)
class ShapeCertificate(JsonRecord):
    monotone_decreasing: ShapeCheck
    constant: ShapeCheck
    linear: ShapeCheck
    convex: ShapeCheck


@dataclass(frozen=True)
class EffortCurve:
    """Total-effort curve R(q) with shape certificates, stored as columns of
    one entry per tie rule (betas None for concave contests); `totals`
    R = x1 + x2, the JSON rows and the CSV derive from them."""

    q_values: tuple[float, ...]
    x1: tuple[float, ...]
    x2: tuple[float, ...]
    betas: tuple[float | None, ...]
    shape: ShapeCertificate

    def __post_init__(self) -> None:
        qs = self.q_values
        if len(qs) < 2:
            raise ValidationError("an effort curve needs at least two samples")
        if not len(self.x1) == len(self.x2) == len(self.betas) == len(qs):
            raise ValidationError("curve columns must have one entry per q value")
        if not (0.0 <= qs[0] and qs[-1] <= 1.0 and all(map(operator.lt, qs, qs[1:]))):
            if any(not 0.0 <= q <= 1.0 for q in qs):
                raise ValidationError("curve q values must lie in [0, 1]")
            raise ValidationError("curve q values must be strictly increasing")

    @property
    def totals(self) -> tuple[float, ...]:
        return tuple(map(operator.add, self.x1, self.x2))

    def to_json_dict(self) -> dict:
        """One row per tie rule: a transpose of the columns, which no key list spells."""
        rows = zip(self.q_values, self.x1, self.x2, self.totals, self.betas)
        return {"samples": [dict(zip(("q", "x1", "x2", "R", "beta"), row)) for row in rows],
                "shape": self.shape.to_json_dict()}

    def to_csv(self) -> str:
        lines = ["q,x1,x2,R"]
        for row in zip(self.q_values, self.x1, self.x2, self.totals):
            lines.append(",".join(format(v, ".17g") for v in row))
        return "\n".join(lines) + "\n"


def _certify(totals: np.ndarray) -> ShapeCertificate:
    """Shape checks of sampled totals, all extremes from one max-reduction: min(x)
    as -max(-x), -(second difference) as twice steps[:-1] / 2 - steps[1:] / 2,
    both exact outside the subnormal range; the dip is capped at the largest double."""
    n, steps = totals.size, totals[1:] - totals[:-1]
    # halved before the sum or difference, which overflows near the largest double
    mids = np.abs(totals[:-2] / 2.0 + totals[2:] / 2.0 - totals[1:-1])
    # segments of n - 1, n, n, n - 2 and n - 2 + 1 entries: the last 0.0 floors
    # the dip and, when n = 2, stands in for the empty last two segments
    parts = (steps, totals, -totals, mids, steps[:-1] / 2.0 - steps[1:] / 2.0, (0.0,))
    up_step, top, neg_low, mid_dev, half_dip = np.maximum.reduceat(
        np.concatenate(parts), (0, n - 1, 2 * n - 1, 3 * n - 1, 4 * n - 3)).tolist()
    spread, dip = top - (-neg_low), min(2.0 * max(0.0, half_dip), sys.float_info.max)
    return ShapeCertificate(
        monotone_decreasing=ShapeCheck(holds=up_step <= MONOTONE_SLACK,
                                       violation=max(0.0, up_step)),
        constant=ShapeCheck(holds=spread <= CONSTANT_TOL, violation=spread),
        linear=ShapeCheck(holds=mid_dev <= LINEAR_TOL, violation=mid_dev),
        convex=ShapeCheck(holds=dip <= CONVEX_TOL, violation=dip))


def _totals(qs, x1: np.ndarray, x2: np.ndarray, errors=None) -> np.ndarray:
    """R = x1 + x2 at the ascending tie rules `qs`, after raising the smallest failing
    q's error in `errors` with q attached; an R that overflows raises at its q."""
    if errors:
        i = min(errors)
        exc = errors[i]
        raise type(exc)(f"sweep failed at q = {float(qs[i]):.17g}: {exc}") from exc
    with np.errstate(over="ignore"):
        totals = x1 + x2
    if totals.max() == math.inf:
        i = int(np.argmax(totals))  # the first inf
        raise ConvergenceError(f"total effort R = x1 + x2 overflows double precision at q = "
                               f"{float(qs[i]):.17g} (x1 = {float(x1[i])!r}, x2 = {float(x2[i])!r})")
    return totals


_last_grid: tuple = ()  # (key, qs, lanes, totals) of the last grid batch that raised nothing


@functools.lru_cache(maxsize=8)
def _q_grid(q_count: int) -> np.ndarray:
    """`q_count` equally spaced tie rules on [0, 1], built once per count, read-only."""
    qs = np.linspace(0.0, 1.0, q_count)
    qs.flags.writeable = False
    return qs


def _grid_lanes(spec: ContestSpec, q_count: int, force: bool, audited: bool):
    """The contest at `q_count` equally spaced tie rules, as (qs, lanes, totals);
    a failing lane or total raises as `_totals` raises.

    Keeps the last batch that raised nothing, read-only, keyed by all that
    `solve_lanes` reads but the spec's q; a batch that raised is solved anew."""
    global _last_grid
    key = (spec.csf, spec.v1, spec.v2, spec.cost, q_count, force, audited)
    if (held := _last_grid) and held[0] == key:  # one read: a thread may replace it
        return held[1:]
    qs = _q_grid(q_count)
    lanes = solve_lanes(spec, qs, force=force, audited=audited)
    totals = _totals(qs, lanes.x1, lanes.x2, lanes.errors)
    for arr in (totals, lanes.x1, lanes.x2, lanes.beta, *lanes.residuals, lanes.cornered):
        if arr is not None:
            arr.flags.writeable = False
    _last_grid = (key, qs, lanes, totals)
    return qs, lanes, totals


def sweep(spec: ContestSpec, q_count: int, *, force: bool = False,
          audited: bool = False) -> EffortCurve:
    """Equilibrium efforts at `q_count` equally spaced tie rules.

    The q stored in `spec` is ignored; all points are solved in one batch.
    A failing tie rule raises its error with the smallest failing q
    attached; an error that holds at every q is raised unchanged.  Then a
    total effort that overflows raises `ConvergenceError` naming its q.
    """
    if not isinstance(q_count, (int, np.integer)) or isinstance(q_count, bool):
        raise ValidationError(f"q_count must be an integer, got {q_count!r}")
    if q_count < 2:
        raise ValidationError(f"q_count must be >= 2, got {q_count}")
    qs, lanes, totals = _grid_lanes(spec, int(q_count), force, audited)
    betas = (None,) * qs.size if lanes.beta is None else tuple(lanes.beta.tolist())
    return EffortCurve(tuple(qs.tolist()), tuple(lanes.x1.tolist()), tuple(lanes.x2.tolist()),
                       betas, _certify(totals))


class Rationale(enum.Enum):
    THEOREM = "theorem"
    INDIFFERENT = "indifferent"
    NUMERIC = "numeric"


@dataclass(frozen=True)
class OptimalQ(JsonRecord):
    """The designer's best deterministic tie rule and its total effort."""

    q_star: TieRule
    total_effort: float
    rationale: Rationale
    x1: float
    x2: float


def _concave_optimum(spec: ContestSpec, qs: np.ndarray, lanes) -> int:
    """Index of the best tie rule of a concave contest in its solved batch at `qs`.

    The candidate is the smallest of q = 0, the argmax and q = 1 within the
    improvement guard of the best.  It is returned only if it is an endpoint
    where dR/dq points outward (<= 0 at q = 0, >= 0 at q = 1); an interior
    candidate, an inward slope or a NaN one raises `ConvergenceError`.
    """
    totals = lanes.x1 + lanes.x2
    last, top = qs.size - 1, int(np.argmax(totals))
    guard = OPTIMAL_IMPROVEMENT_GUARD * (1.0 + abs(float(totals[top])))
    i = min(j for j in (0, top, last) if totals[j] >= totals[top] - guard)
    slope = total_effort_slope(spec, qs[i], lanes.x1[i], lanes.x2[i], lanes.cornered[i])
    if (i == 0 and slope <= 0.0) or (i == last and slope >= 0.0):
        return i
    raise ConvergenceError(f"optimal tie rule not certified: the best of {qs.size} grid "
                           f"points is q = {qs[i]:.17g}, where dR/dq = {slope:.17g}")


def optimal_q(spec: ContestSpec, *, force: bool = False, audited: bool = False) -> OptimalQ:
    """The deterministic tie rule maximizing total equilibrium effort.

    Every route reads a 101-point curve solved in one batch, the one
    `sweep(spec, 101)` solved if it just ran.  For ratio- and difference-form
    contests the answer is structural: give the stronger player no tie share
    (rationale "theorem"), or any q when prizes are equal (q = 0, rationale
    "indifferent"); the curve's best point wins only if it beats that
    candidate beyond a determinism guard (rationale "numeric").  Concave
    contests (rationale "numeric") take the curve's best point, which must be
    an endpoint certified by the outward sign of dR/dq; any other point
    raises `ConvergenceError`.  Failures are raised as `sweep` raises them."""
    kind = spec.csf.kind
    vals = spec.valuations
    if kind not in ("concave", "ratio", "diff"):
        raise ValidationError(f"no designer support for family kind {kind!r}")
    qs, lanes, totals = _grid_lanes(spec, CROSS_CHECK_POINTS, force, audited)
    if kind == "concave":
        i, rationale = _concave_optimum(spec, qs, lanes), Rationale.NUMERIC
    else:
        i = qs.size - 1 if vals.swapped else 0  # equal prizes are never swapped
        rationale = Rationale.INDIFFERENT if vals.v1 == vals.v2 else Rationale.THEOREM
        best = int(np.argmax(totals))
        if totals[best] > totals[i] + OPTIMAL_IMPROVEMENT_GUARD * (1.0 + abs(float(totals[i]))):
            i, rationale = best, Rationale.NUMERIC
    q_star, x1, x2 = float(qs[i]), float(lanes.x1[i]), float(lanes.x2[i])
    return OptimalQ(q_star=TieRule(q_star), total_effort=x1 + x2, rationale=rationale,
                    x1=x1, x2=x2)


def expected_effort(spec: ContestSpec, rule: RandomTieRule, *,
                    force: bool = False, audited: bool = False) -> float:
    """Expected total equilibrium effort under a random tie-breaking rule.

    The rule commits to drawing q before efforts are chosen, so the
    expectation is the weight-average of R over the rule's atoms, each
    solved by one scalar `solve`, in increasing q: a rule has too few atoms
    for a batch to pay.  If some atoms fail to solve, the error for the
    smallest failing q is raised; else a total effort that overflows raises.
    """
    if not isinstance(rule, RandomTieRule):
        rule = RandomTieRule.from_pairs(rule)
    qs = sorted(atom.q for atom, _ in rule.atoms)
    solved = [solve(spec.with_q(q), force=force, audited=audited) for q in qs]
    x1, x2 = np.array([(eq.x1, eq.x2) for eq in solved]).T
    totals = dict(zip(qs, _totals(qs, x1, x2).tolist()))
    return math.fsum(weight * totals[atom.q] for atom, weight in rule.atoms)


@dataclass(frozen=True)
class ConvexityPrecondition(JsonRecord):
    """Grid verdict on strict negativity of the tie probability's curvature.

    `holds` is True when the second derivative of the tie probability stays
    strictly below zero (beyond slack) over [0, sqrt(2 * v1)];
    `worst_value` is its largest sampled value and `worst_theta` where it
    occurs (smallest such theta on ties).  On failure `first_crossing` is
    the smallest sampled theta at which strict negativity already fails,
    locating the sign change; it is None when the condition holds.
    """

    holds: bool
    worst_value: float
    worst_theta: float
    theta_max: float
    points: int
    first_crossing: float | None = None


def convexity_precondition(csf, v1, points: int = 2001) -> ConvexityPrecondition:
    """Check the curvature condition that makes R(q) convex for small prizes.

    Scans the analytic second derivative of the tie probability over
    [0, sqrt(2 * v1)] (the reachable effort-gap range at prize v1 under
    half-quadratic cost).  A family with no ties fails: its curvature is
    identically zero, not strictly negative.
    """
    if getattr(csf, "kind", None) != "diff":
        raise ValidationError("convexity_precondition requires a difference-form family")
    try:
        v1f = float(v1)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"v1 must be a number, got {v1!r}") from exc
    if not (math.isfinite(v1f) and v1f > 0):
        raise ValidationError(f"v1 must be a positive finite number, got {v1f}")
    if not isinstance(points, (int, np.integer)) or points < 2:
        raise ValidationError("points must be an integer >= 2")

    hi = math.sqrt(2.0 * v1f)
    theta = np.linspace(0.0, hi, int(points))
    curv = np.asarray(csf.p0_double_prime(theta), dtype=float)
    worst_idx = int(np.argmax(curv))
    worst = float(curv[worst_idx])
    holds = worst < -STRICT_NEGATIVE_SLACK
    crossing = None
    if not holds:
        bad = np.flatnonzero(curv >= -STRICT_NEGATIVE_SLACK)
        crossing = float(theta[int(bad[0])])
    return ConvexityPrecondition(
        holds=holds,
        worst_value=worst,
        worst_theta=float(theta[worst_idx]),
        theta_max=hi,
        points=int(points),
        first_crossing=crossing,
    )
