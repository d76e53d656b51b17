"""Designer-side analysis: choosing the tie-breaking rule.

The designer's objective is total equilibrium effort R(q) = x1(q) + x2(q).
This module sweeps R over q, certifies curve shapes (constant, linear,
monotone decreasing, convex) within explicit bounds, finds the optimal
deterministic rule, and evaluates random tie-breaking rules by expected
total effort.  Every curve is solved in one batch over its tie rules
(`equilibrium.solve_lanes`) and read as x1 + x2 off its effort arrays, with
no per-q loop or record; a random rule, a handful of atoms too few for a
batch to pay, takes one `equilibrium.solve_route` per distinct atom.  No
result here reads a first-order residual, so none is formed.  `sweep` and
`optimal_q` reuse the last grid batch with no failing lane, held by a stdlib
`lru_cache`, not module state, keyed by the contest at q = 0, count and `force`.
`audited` is accepted and ignored, as `solve` ignores it: no result here warns.
The concave optimum is read off that batch and certified by the sign of dR/dq,
from the implicit function theorem on the first-order conditions: an
endpoint where it points outward, or `optimal_q` raises `ConvergenceError`.
`convexity_precondition` reads the family's `tie_inflection`.

Shape certificates are numeric statements about the sampled curve, not
symbolic proofs: each records the worst measured violation alongside the
verdict, which holds when the violation is within one rounding floor,
`SHAPE_FLOOR` * eps * max R, at every prize scale.  The linearity
certificate uses the three-point midpoint deviation, which presumes equally
spaced samples; `sweep` always produces them.

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

from .core import ContestSpec, JsonRecord, RandomTieRule, TieRule, count_value, positive_value
from .equilibrium import solve_lanes, solve_route, total_effort_slope
from .errors import ConvergenceError, ValidationError

SHAPE_FLOOR = 64.0
"""A shape verdict holds when its violation is at most SHAPE_FLOOR * eps * max R.  A ratio
form's R is affine in q (beta = v1/v2 does not depend on q, z_q' = p' + q p0'), an interior
linear-impact R the constant v1 v2 / (v1 + v2) - 1: a few roundings of values shared by every
q, their statistics stay within 6 eps * max R on bitscan's curves, a tenth of the floor."""

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
class EffortCurve(JsonRecord):
    """Total-effort curve R(q) with shape certificates, stored as columns of
    one entry per tie rule (betas None for concave contests); `totals`
    R = x1 + x2, the JSON `samples` rows and the CSV derive from them."""

    q_values: tuple[float, ...]
    x1: tuple[float, ...]
    x2: tuple[float, ...]
    betas: tuple[float | None, ...]
    shape: ShapeCertificate

    json_keys = ("samples", "shape")

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

    @property
    def samples(self) -> tuple[dict, ...]:
        """One row per tie rule: a transpose of the columns."""
        rows = zip(self.q_values, self.x1, self.x2, self.totals, self.betas)
        return tuple(dict(zip(("q", "x1", "x2", "R", "beta"), row)) for row in rows)

    def to_csv(self) -> str:
        lines = ["q,x1,x2,R"]
        for row in zip(self.q_values, self.x1, self.x2, self.totals):
            lines.append(",".join(format(v, ".17g") for v in row))
        return "\n".join(lines) + "\n"


def _certify(totals: np.ndarray) -> ShapeCertificate:
    """Shape checks of sampled totals R >= 0 against `SHAPE_FLOOR` * eps * max R, all
    extremes from one max-reduction: min(x) as -max(-x), -(second difference) as twice
    steps[:-1] / 2 - steps[1:] / 2, both exact outside the subnormal range; the dip is
    capped at the largest double."""
    n, steps = totals.size, totals[1:] - totals[:-1]
    # halved before the sum or difference, which overflows near the largest double
    mids = np.abs(totals[:-2] / 2.0 + totals[2:] / 2.0 - totals[1:-1])
    # segments of n - 1, n, n, n - 2 and n - 2 + 1 entries: the last 0.0 floors
    # the dip and, when n = 2, stands in for the empty last two segments
    parts = (steps, totals, -totals, mids, steps[:-1] / 2.0 - steps[1:] / 2.0, (0.0,))
    up_step, top, neg_low, mid_dev, half_dip = np.maximum.reduceat(
        np.concatenate(parts), (0, n - 1, 2 * n - 1, 3 * n - 1, 4 * n - 3)).tolist()
    spread, dip = top - (-neg_low), min(2.0 * max(0.0, half_dip), sys.float_info.max)
    floor = SHAPE_FLOOR * sys.float_info.epsilon * top
    return ShapeCertificate(
        monotone_decreasing=ShapeCheck(holds=up_step <= floor, violation=max(0.0, up_step)),
        constant=ShapeCheck(holds=spread <= floor, violation=spread),
        linear=ShapeCheck(holds=mid_dev <= floor, violation=mid_dev),
        convex=ShapeCheck(holds=dip <= floor, violation=dip))


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


@functools.lru_cache(maxsize=8)
def _q_values(q_count: int) -> tuple[np.ndarray, tuple[float, ...]]:
    """`q_count` equally spaced tie rules on [0, 1] once per count: read-only, and a tuple."""
    qs = np.linspace(0.0, 1.0, q_count)
    qs.flags.writeable = False
    return qs, tuple(qs.tolist())


@functools.lru_cache(maxsize=1)
def _grid_lanes(spec: ContestSpec, q_count: int, force: bool):
    """`spec` at `q_count` equally spaced tie rules, as (qs, lanes, totals); a
    failing lane or total raises as `_totals` raises.  Callers pass the contest
    at q = 0, which `ContestSpec` equality compares by family and prizes (the
    family fixes the cost), so the cache holds the last batch that raised
    nothing, read-only, its residuals never evaluated."""
    qs = _q_values(q_count)[0]
    lanes = solve_lanes(spec, qs, force=force)
    totals = _totals(qs, lanes.x1, lanes.x2, lanes.errors)
    for arr in filter(lambda a: a is not None, (totals, lanes.x1, lanes.x2, lanes.beta)):
        arr.flags.writeable = False
    return qs, lanes, totals


def sweep(spec: ContestSpec, q_count: int, *, force: bool = False,
          audited: bool = False) -> EffortCurve:
    """Equilibrium efforts at `q_count` equally spaced tie rules.

    The q in `spec` and `audited` change nothing; all points are solved in
    one batch.  A failing tie rule raises its error with the smallest failing
    q attached; an error that holds at every q is raised unchanged.  Then a
    total effort that overflows raises `ConvergenceError` naming its q.
    """
    qs, lanes, totals = _grid_lanes(spec.with_q(0.0), count_value(q_count, "q_count"), force)
    betas = (None,) * qs.size if lanes.beta is None else tuple(lanes.beta.tolist())
    return EffortCurve(_q_values(qs.size)[1], tuple(lanes.x1.tolist()), tuple(lanes.x2.tolist()),
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


def _concave_optimum(spec: ContestSpec, qs: np.ndarray, lanes, totals: np.ndarray) -> int:
    """Index of the best tie rule of a concave contest in its solved batch at `qs`,
    whose total efforts are `totals`.

    The candidates are q = 0, the argmax and q = 1 within the improvement guard
    of the best.  The first endpoint candidate where dR/dq points outward (<= 0
    at q = 0, >= 0 at q = 1) is returned; else `ConvergenceError` names the
    smallest candidate and its slope.
    """
    last, top = qs.size - 1, int(np.argmax(totals))
    guard = OPTIMAL_IMPROVEMENT_GUARD * (1.0 + abs(float(totals[top])))
    near = [j for j in (0, top, last) if totals[j] >= totals[top] - guard]
    slope = lambda j: total_effort_slope(spec, qs[j], lanes.x1[j], lanes.x2[j])
    for i, outward in ((0, -1.0), (last, 1.0)):
        if i in near and outward * slope(i) >= 0.0:
            return i
    i = min(near)
    raise ConvergenceError(f"optimal tie rule not certified: the best of {qs.size} grid "
                           f"points is q = {qs[i]:.17g}, where dR/dq = {slope(i):.17g}")


def optimal_q(spec: ContestSpec, *, force: bool = False, audited: bool = False) -> OptimalQ:
    """The deterministic tie rule maximizing total equilibrium effort.

    Every route reads a 101-point curve solved in one batch, the one
    `sweep(spec, 101)` solved if it just ran; `audited` changes nothing.  For
    ratio- and difference-form contests the answer is structural: give the
    stronger player no tie share (rationale "theorem"), or any q when prizes are
    equal (q = 0, rationale "indifferent"); the curve's best point wins only if
    it beats that candidate beyond a determinism guard (rationale "numeric").
    Concave contests (rationale "numeric") take an endpoint within the guard of
    the curve's best point, certified by the outward sign of dR/dq; without one
    they raise `ConvergenceError`.  Failures are raised as `sweep` raises them."""
    vals = spec.valuations
    qs, lanes, totals = _grid_lanes(spec.with_q(0.0), CROSS_CHECK_POINTS, force)
    if spec.csf.kind == "concave":
        i, rationale = _concave_optimum(spec, qs, lanes, totals), Rationale.NUMERIC
    else:
        i = int(vals.tie_share(0.0)) * (qs.size - 1)  # the stronger player's tie share is 0
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
    distinct q solved once by `solve`'s route step, in increasing q (`audited`
    changes nothing).  If some atoms fail to solve, the error for the
    smallest failing q is raised; else a total effort that overflows raises.
    """
    if not isinstance(rule, RandomTieRule):
        rule = RandomTieRule.from_pairs(rule)
    qs = sorted({atom.q for atom, _ in rule.atoms})
    efforts = [solve_route(spec.with_q(q), force)[:2] for q in qs]
    totals = {q: x1 + x2 for q, (x1, x2) in zip(qs, efforts)}  # on floats, a few atoms
    if math.inf in totals.values():
        _totals(qs, *np.array(efforts).T)  # raises at the first overflow
    return math.fsum(weight * totals[atom.q] for atom, weight in rule.atoms)


@dataclass(frozen=True)
class ConvexityPrecondition(JsonRecord):
    """Whether p0'' < 0 on the reachable gaps [0, theta_max]: theta_max < theta*, the
    family's `tie_inflection`; `first_crossing` is theta* on failure, None otherwise."""

    holds: bool
    theta_max: float
    first_crossing: float | None = None


def convexity_precondition(csf, v1) -> ConvexityPrecondition:
    """Check the curvature condition that makes R(q) convex for small prizes: p0'' < 0
    on [0, sqrt(2 * v1)], the gaps within the break-even effort of the family's
    half-quadratic cost at prize v1.  A family with no ties fails: its p0'' is 0."""
    if getattr(csf, "kind", None) != "diff":
        raise ValidationError("convexity_precondition requires a difference-form family")
    hi, inflection = csf.default_cost.break_even(positive_value(v1, "v1")), csf.tie_inflection
    holds = hi < inflection
    return ConvexityPrecondition(holds=holds, theta_max=hi,
                                 first_crossing=None if holds else inflection)
