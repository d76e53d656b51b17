"""Designer-side analysis: choosing the tie-breaking rule.

The designer's objective is total equilibrium effort R(q) = x1(q) + x2(q).
This module sweeps R over q, certifies curve shapes (constant, linear,
monotone decreasing, convex) within explicit bounds, finds the optimal
deterministic rule, and evaluates random tie-breaking rules by expected
total effort.  Every curve is solved in one batch over its tie rules
(`batch.solve_lanes`) and read as x1 + x2 off its effort arrays: sweeps and
the optimal rule's 101-point cross-check never loop over q or build a per-q
record, while a random rule, a handful of atoms too few for a batch to
pay, takes one scalar `solve` per atom.  The concave optimum is read off the
cross-check batch and certified by the sign of dR/dq, from the implicit
function theorem on the first-order conditions; only an optimum inside
(0, 1) is refined, by a few more batches around it.

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
import math
from dataclasses import dataclass

import numpy as np

from .core import ContestSpec, JsonRecord, RandomTieRule, TieRule
from .batch import solve_lanes
from .equilibrium import _log_impact_foc, _user_order, solve
from .errors import ContestError, ValidationError

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

REFINE_WIDTH = 1e-6
"""Bracket width at which the refinement of an interior concave optimum stops."""

CROSS_CHECK_POINTS = 101
REFINE_POINTS = 21


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
class CurveSample:
    """Equilibrium summary at one tie rule along a sweep."""

    q: float
    x1: float
    x2: float
    beta: float | None

    @property
    def R(self) -> float:
        return self.x1 + self.x2

    def to_json_dict(self) -> dict:
        return {"q": self.q, "x1": self.x1, "x2": self.x2,
                "R": self.R, "beta": self.beta}


@dataclass(frozen=True)
class EffortCurve(JsonRecord):
    """Total-effort curve R(q) with shape certificates, stored as columns of
    one entry per tie rule (betas None for concave contests); `samples`,
    `totals` R = x1 + x2, the JSON form and the CSV derive from them."""

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
        if any(not 0.0 <= q <= 1.0 for q in qs):
            raise ValidationError("curve q values must lie in [0, 1]")
        if any(b >= a for a, b in zip(qs[1:], qs)):
            raise ValidationError("curve q values must be strictly increasing")

    @property
    def samples(self) -> tuple[CurveSample, ...]:
        return tuple(map(CurveSample, self.q_values, self.x1, self.x2, self.betas))

    @property
    def totals(self) -> tuple[float, ...]:
        return tuple(a + b for a, b in zip(self.x1, self.x2))

    def to_json_dict(self) -> dict:
        return {"samples": [s.to_json_dict() for s in self.samples],
                "shape": self.shape.to_json_dict()}

    def to_csv(self) -> str:
        lines = ["q,x1,x2,R"]
        for row in zip(self.q_values, self.x1, self.x2, self.totals):
            lines.append(",".join(format(v, ".17g") for v in row))
        return "\n".join(lines) + "\n"


def _certify(totals: np.ndarray) -> ShapeCertificate:
    diffs = np.diff(totals)
    up_step = float(np.max(diffs)) if diffs.size else 0.0
    monotone = ShapeCheck(holds=up_step <= MONOTONE_SLACK,
                          violation=max(0.0, up_step))

    spread = float(np.max(totals) - np.min(totals))
    constant = ShapeCheck(holds=spread <= CONSTANT_TOL, violation=spread)

    if totals.size >= 3:
        mid_dev = float(np.max(np.abs((totals[:-2] + totals[2:]) / 2.0 - totals[1:-1])))
        second = np.diff(totals, 2)
        dip = float(max(0.0, -np.min(second)))
    else:
        mid_dev = 0.0
        dip = 0.0
    linear = ShapeCheck(holds=mid_dev <= LINEAR_TOL, violation=mid_dev)
    convex = ShapeCheck(holds=dip <= CONVEX_TOL, violation=dip)

    return ShapeCertificate(monotone_decreasing=monotone, constant=constant,
                            linear=linear, convex=convex)


def _failed_at(exc: ContestError, q: float) -> ContestError:
    return type(exc)(f"sweep failed at q = {float(q):.17g}: {exc}")


def _raise_first_failure(qs: np.ndarray, lanes) -> None:
    """Re-raise a batch's first failing lane, if any, with its q attached."""
    if lanes.errors:
        i = min(lanes.errors)
        raise _failed_at(lanes.errors[i], qs[i]) from lanes.errors[i]


def sweep(spec: ContestSpec, q_count: int, *, force: bool = False,
          audited: bool = False) -> EffortCurve:
    """Equilibrium efforts at `q_count` equally spaced tie rules.

    The q stored in `spec` is ignored; all points are solved in one batch.
    Solver failures are re-raised with the smallest offending q attached.
    """
    if not isinstance(q_count, (int, np.integer)) or isinstance(q_count, bool):
        raise ValidationError(f"q_count must be an integer, got {q_count!r}")
    if q_count < 2:
        raise ValidationError(f"q_count must be >= 2, got {q_count}")
    qs = np.linspace(0.0, 1.0, int(q_count))
    try:
        lanes = solve_lanes(spec, qs, force=force, audited=audited)
    except ContestError as exc:
        raise _failed_at(exc, qs[0]) from exc
    _raise_first_failure(qs, lanes)
    betas = (None,) * qs.size if lanes.beta is None else tuple(lanes.beta.tolist())
    return EffortCurve(tuple(qs.tolist()), tuple(lanes.x1.tolist()), tuple(lanes.x2.tolist()),
                       betas, _certify(lanes.x1 + lanes.x2))


class Rationale(enum.Enum):
    THEOREM = "theorem"
    INDIFFERENT = "indifferent"
    NUMERIC = "numeric"


@dataclass(frozen=True)
class OptimalQ:
    """The designer's best deterministic tie rule and its total effort."""

    q_star: TieRule
    total_effort: float
    rationale: Rationale
    x1: float
    x2: float

    def to_json_dict(self) -> dict:
        return {
            "q_star": self.q_star.q,
            "total_effort": self.total_effort,
            "rationale": self.rationale.value,
            "x1": self.x1,
            "x2": self.x2,
        }


def _total_effort_slope(spec: ContestSpec, q: float, x1: float, x2: float,
                        cornered: bool) -> float:
    """dR/dq of a concave contest at tie rule q, at equilibrium efforts x1, x2.

    For r < 1, the implicit function theorem on the log-impact conditions
    G(g; q1) = 0 of `equilibrium._log_impact_foc` (internal labels) gives
    dg/dq1 = -J^-1 dG/dq1 with dG/dq1 = (-1/a1, +1/a2), and
    dR/dq1 = sum_i (x_i / r) dg_i/dq1.  For r = 1, R is constant on the
    interior closed form, and a lone entrant exerts sqrt(v_i (1 - q_i)) - 1.
    """
    vals, r = spec.valuations, spec.csf.r
    q1 = 1.0 - q if vals.swapped else q
    x1, x2 = _user_order(vals, x1, x2)
    if r == 1.0:
        slope = 0.0
        if cornered and x1 > 0.0:
            slope = -0.5 * math.sqrt(vals.v1 / (1.0 - q1))
        elif cornered and x2 > 0.0:
            slope = 0.5 * math.sqrt(vals.v2 / q1)
    else:
        g1, g2 = r * math.log(x1), r * math.log(x2)
        heads = (math.log(h) if h > 0.0 else -math.inf for h in (1.0 - q1, q1))
        _, (J11, J12, J21, J22), _ = _log_impact_foc(
            g1, g2, math.log(r * vals.v1), math.log(r * vals.v2), (1.0 - r) / r, *heads)
        dG1, dG2 = -1.0 / (math.exp(g2) + (1.0 - q1)), 1.0 / (math.exp(g1) + q1)
        det = J11 * J22 - J12 * J21 or math.nan  # singular: sign unknown, so refine
        dg1, dg2 = (J12 * dG2 - J22 * dG1) / det, (J21 * dG1 - J11 * dG2) / det
        slope = (x1 * dg1 + x2 * dg2) / r
    return -slope if vals.swapped else slope


def _point(qs, lanes, i: int) -> tuple[float, float, float]:
    """Tie rule i of a solved batch and its efforts."""
    return float(qs[i]), float(lanes.x1[i]), float(lanes.x2[i])


def _concave_optimum(spec: ContestSpec, qs: np.ndarray, lanes, solve_kwargs: dict):
    """Best (q, x1, x2) of a concave contest, given its solved batch at the grid `qs`.

    The candidate is the smallest of q = 0, the argmax and q = 1 within the
    improvement guard of the best.  Unless the argmax is an endpoint whose
    dR/dq points outward, its neighbour bracket is zoomed in on, one batch of
    `REFINE_POINTS` per step, to `REFINE_WIDTH`; the best point found wins
    if it improves the candidate beyond the guard.
    """
    totals = lanes.x1 + lanes.x2
    last, top = qs.size - 1, int(np.argmax(totals))
    guard = OPTIMAL_IMPROVEMENT_GUARD * (1.0 + abs(float(totals[top])))
    pick = _point(qs, lanes, min(j for j in (0, top, last) if totals[j] >= totals[top] - guard))
    if top in (0, last):
        slope = _total_effort_slope(spec, *_point(qs, lanes, top), bool(lanes.cornered[top]))
        if (slope <= 0.0) if top == 0 else (slope >= 0.0):
            return pick
    best, grid = _point(qs, lanes, top), qs
    while grid[min(top + 1, last)] - grid[max(top - 1, 0)] > REFINE_WIDTH:
        grid = np.linspace(grid[max(top - 1, 0)], grid[min(top + 1, last)], REFINE_POINTS)
        found = solve_lanes(spec, grid, **solve_kwargs).checked(grid)
        totals = found.x1 + found.x2
        last, top = grid.size - 1, int(np.argmax(totals))
        if totals[top] > best[1] + best[2]:
            best = _point(grid, found, top)
    total = pick[1] + pick[2]
    beats = best[1] + best[2] > total + OPTIMAL_IMPROVEMENT_GUARD * (1.0 + abs(total))
    return best if beats else pick


def optimal_q(spec: ContestSpec, *, force: bool = False, audited: bool = False) -> OptimalQ:
    """The deterministic tie rule maximizing total equilibrium effort.

    Every route solves a 101-point curve in one batch.  For ratio- and
    difference-form contests the answer is structural: give the stronger
    player no tie share (rationale "theorem"), or any q when prizes are equal
    (q = 0, rationale "indifferent"); the curve's best point wins only if it
    beats that candidate beyond a determinism guard (rationale "numeric").
    Concave contests (rationale "numeric") take the curve's best point,
    certified by the sign of dR/dq at an endpoint and refined to 1e-6
    inside (0, 1); a failing tie rule raises its own error.
    """
    kind = spec.csf.kind
    vals = spec.valuations
    qs = np.linspace(0.0, 1.0, CROSS_CHECK_POINTS)
    solve_kwargs = dict(force=force, audited=audited)
    if kind == "concave":
        lanes = solve_lanes(spec, qs, **solve_kwargs).checked(qs)
        q_star, x1, x2 = _concave_optimum(spec, qs, lanes, solve_kwargs)
        rationale = Rationale.NUMERIC
    elif kind in ("ratio", "diff"):
        lanes = solve_lanes(spec, qs, **solve_kwargs)
        if vals.v1 == vals.v2:
            i, rationale = 0, Rationale.INDIFFERENT
        else:
            i, rationale = (qs.size - 1 if vals.swapped else 0), Rationale.THEOREM
        if i in lanes.errors:
            raise lanes.errors[i]
        _raise_first_failure(qs, lanes)
        totals = lanes.x1 + lanes.x2
        best = int(np.argmax(totals))
        if totals[best] > totals[i] + OPTIMAL_IMPROVEMENT_GUARD * (1.0 + abs(float(totals[i]))):
            i, rationale = best, Rationale.NUMERIC
        q_star, x1, x2 = _point(qs, lanes, i)
    else:
        raise ValidationError(f"no designer support for family kind {kind!r}")
    return OptimalQ(q_star=TieRule(q_star), total_effort=x1 + x2, rationale=rationale,
                    x1=x1, x2=x2)


def expected_effort(spec: ContestSpec, rule: RandomTieRule, *,
                    force: bool = False, audited: bool = False) -> float:
    """Expected total equilibrium effort under a random tie-breaking rule.

    The rule commits to drawing q before efforts are chosen, so the
    expectation is the weight-average of R over the rule's atoms, each
    solved by one scalar `solve`, in increasing q: a rule has too few atoms
    for a batch to pay.  If some atoms fail to solve, the error for the
    smallest failing q is raised.
    """
    if not isinstance(rule, RandomTieRule):
        rule = RandomTieRule.from_pairs(rule)
    qs = sorted(atom.q for atom, _ in rule.atoms)
    totals = {q: solve(spec.with_q(q), force=force, audited=audited).total for q in qs}
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
