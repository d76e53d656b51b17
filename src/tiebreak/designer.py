"""Designer-side analysis: choosing the tie-breaking rule.

The designer's objective is total equilibrium effort R(q) = x1(q) + x2(q).
This module sweeps R over q, certifies curve shapes (constant, linear,
monotone decreasing, convex) with explicit tolerances, finds the optimal
deterministic rule, and evaluates random tie-breaking rules by expected
total effort.  Every curve is solved in one batch over its tie rules
(`batch.solve_many`): sweeps, the optimal rule's 101-point cross-check
and random rules never loop over q.  Only the concave golden-section search
solves one tie rule at a time, because each step depends on the last.

Shape certificates are numeric statements about the sampled curve, not
symbolic proofs: each records the worst measured violation alongside the
verdict, and the tolerances are module constants shared with the test
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
from .batch import solve_lanes, solve_many
from .equilibrium import DEFAULT_TOLERANCES, Tolerances, solve
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

GOLDEN_SECTION_TOL = 1e-6
"""Bracket width at which the golden-section refinement stops."""

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
    """Total-effort curve R(q) with shape certificates."""

    samples: tuple[CurveSample, ...]
    shape: ShapeCertificate

    def __post_init__(self) -> None:
        qs = [s.q for s in self.samples]
        if len(qs) < 2:
            raise ValidationError("an effort curve needs at least two samples")
        if any(not 0.0 <= q <= 1.0 for q in qs):
            raise ValidationError("curve q values must lie in [0, 1]")
        if any(b >= a for a, b in zip(qs[1:], qs)):
            raise ValidationError("curve q values must be strictly increasing")

    @property
    def q_values(self) -> tuple[float, ...]:
        return tuple(s.q for s in self.samples)

    @property
    def totals(self) -> tuple[float, ...]:
        return tuple(s.R for s in self.samples)

    @property
    def betas(self) -> tuple[float | None, ...]:
        return tuple(s.beta for s in self.samples)

    def to_csv(self) -> str:
        lines = ["q,x1,x2,R"]
        for s in self.samples:
            lines.append(",".join(format(v, ".17g") for v in (s.q, s.x1, s.x2, s.R)))
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


def _swept(qs: np.ndarray, lanes: list) -> list:
    """A batch's equilibria, or its first failure re-raised with that q attached."""
    for q, lane in zip(qs, lanes):
        if isinstance(lane, ContestError):
            raise _failed_at(lane, q) from lane
    return lanes


def sweep(spec: ContestSpec, q_count: int, *, force: bool = False,
          audited: bool = False,
          tolerances: Tolerances = DEFAULT_TOLERANCES) -> EffortCurve:
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
        lanes = solve_lanes(spec, qs, force=force, audited=audited, tolerances=tolerances)
    except ContestError as exc:
        raise _failed_at(exc, qs[0]) from exc
    samples = tuple(CurveSample(q=float(q), x1=eq.x1, x2=eq.x2, beta=eq.beta)
                    for q, eq in zip(qs, _swept(qs, lanes)))
    return EffortCurve(samples=samples, shape=_certify(np.array([s.R for s in samples])))


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


def _total_at(spec: ContestSpec, q: float, force: bool, audited: bool,
              tolerances: Tolerances):
    eq = solve(spec.with_q(q), force=force, audited=audited, tolerances=tolerances)
    return eq.total, eq


def _golden_section_max(fn, lo: float, hi: float, tol: float) -> float:
    """Abscissa of a maximum of `fn` on [lo, hi] by golden-section search."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def optimal_q(spec: ContestSpec, *, force: bool = False, audited: bool = False,
              tolerances: Tolerances = DEFAULT_TOLERANCES) -> OptimalQ:
    """The deterministic tie rule maximizing total equilibrium effort.

    For ratio- and difference-form contests the answer is structural: give
    the stronger player no tie share (rationale "theorem"), or any q at all
    when prizes are equal (resolved to q = 0, rationale "indifferent").
    Concave contests are searched numerically (golden section refined to
    1e-6, plus both endpoints).  Every route is cross-checked against a
    101-point sweep, solved in one batch that also supplies the ratio and
    difference candidates (q = 0 and q = 1 are sweep points); the sweep's
    best point wins only if it improves the candidate beyond a determinism
    guard, in which case the rationale is downgraded to "numeric".
    """
    kind = spec.csf.kind
    vals = spec.valuations
    qs = np.linspace(0.0, 1.0, CROSS_CHECK_POINTS)
    if kind in ("ratio", "diff"):
        if vals.v1 == vals.v2:
            q_candidate, rationale = 0.0, Rationale.INDIFFERENT
        else:
            q_candidate = 1.0 if vals.swapped else 0.0
            rationale = Rationale.THEOREM
        lanes = solve_lanes(spec, qs, force=force, audited=audited, tolerances=tolerances)
        eq = lanes[-1 if q_candidate == 1.0 else 0]
        if isinstance(eq, ContestError):
            raise eq
    elif kind == "concave":
        rationale = Rationale.NUMERIC

        def objective(q: float) -> float:
            return _total_at(spec, q, force, audited, tolerances)[0]

        interior = _golden_section_max(objective, 0.0, 1.0, GOLDEN_SECTION_TOL)
        solved = {qc: _total_at(spec, qc, force, audited, tolerances)
                  for qc in sorted({0.0, 1.0, interior})}
        best_val = max(value for value, _ in solved.values())
        guard = OPTIMAL_IMPROVEMENT_GUARD * (1.0 + abs(best_val))
        q_candidate = min(qc for qc, (value, _) in solved.items() if value >= best_val - guard)
        eq = solved[q_candidate][1]
        lanes = solve_lanes(spec, qs, force=force, audited=audited, tolerances=tolerances)
    else:
        raise ValidationError(f"no designer support for family kind {kind!r}")

    total = eq.total
    totals = np.array([lane.total for lane in _swept(qs, lanes)])
    guard = OPTIMAL_IMPROVEMENT_GUARD * (1.0 + abs(total))
    best_idx = int(np.argmax(totals))
    if float(totals[best_idx]) > total + guard:
        eq = lanes[best_idx]
        total, q_candidate = eq.total, float(qs[best_idx])
        rationale = Rationale.NUMERIC

    return OptimalQ(q_star=TieRule(q_candidate), total_effort=total,
                    rationale=rationale, x1=eq.x1, x2=eq.x2)


def expected_effort(spec: ContestSpec, rule: RandomTieRule, *,
                    force: bool = False, audited: bool = False,
                    tolerances: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Expected total equilibrium effort under a random tie-breaking rule.

    The rule commits to drawing q before efforts are chosen, so the
    expectation is the weight-average of R over the rule's atoms, all
    solved in one batch.  If some atoms fail to solve, the error for the
    smallest failing q is raised.
    """
    if not isinstance(rule, RandomTieRule):
        rule = RandomTieRule.from_pairs(rule)
    eqs = solve_many(spec, [atom.q for atom, _ in rule.atoms], force=force,
                     audited=audited, tolerances=tolerances)
    return math.fsum(weight * eq.total for (_, weight), eq in zip(rule.atoms, eqs))


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
