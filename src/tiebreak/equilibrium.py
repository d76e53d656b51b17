"""Pure-strategy equilibrium solvers for the three contest classes.

Ratio-form contests (linear cost) admit a closed form: both efforts share the
factor beta * z_q'(beta) at beta = v1/v2.  Difference-form contests
(quadratic cost) reduce to one root for the equilibrium effort gap, found
by safeguarded Newton-bisection on the analytic z' and z''; each effort is
then prize times slope.  Concave-impact contests solve the two first-order
conditions directly: analytically when the impact is linear, and otherwise
by Newton's method with backtracking in log-impact coordinates
g_i = log(x_i^r).

`solve(spec)` is the one way in.  It checks family kind, cost and closed-form
precondition once, orients the labels (strongest prize first, player 2's tie
share 1 - q) and calls the family kind's route in `_ROUTES`, which reports in
the caller's labels.  `batch.solve_lanes` does the same for many tie rules
through `batch._LANE_ROUTES`: same route signature, closed forms and errors.
Routes call only the families' unchecked kernels.  `solve_beta` is the one
raw-input helper, the effort-gap root of a difference-form contest.

Every solver returns an `Equilibrium` carrying per-player first-order
residuals evaluated at the returned profile, corner flags, and any warnings
(notably an unchecked-assumptions note unless the caller vouches that an
audit passed).  Residual targets and iteration budgets are the module
constants below, shared by the scalar and batch routes and read at call time.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field

from .core import ContestSpec, JsonRecord, Valuations, q_value
from .errors import ConvergenceError, NoEquilibriumError, ValidationError

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min

CLOSED_FORM_RESIDUAL = 1e-10
"""Largest payoff slope at zero effort for which an inactive player is at a corner."""

BETA_RESIDUAL = 1e-12
"""Accepted effort-gap residual, relative to max(1, v1 - v2)."""

ITERATIVE_RESIDUAL = 1e-9
"""Accepted first-order residual of a Newton-solved concave equilibrium."""

MAX_ITERATIONS = 100
"""Step budget of the gap root and of the concave Newton solve."""

BRACKET_EXPANSIONS = 100
"""Doublings allowed to bracket the effort-gap root."""

UNCHECKED_ASSUMPTIONS_WARNING = (
    "regularity conditions not audited for this family instance; run the "
    "audit to confirm the solution formula applies"
)

CORNER_UNIQUENESS_WARNING = (
    "corner-adjusted solution: the profile is a mutual best response, but "
    "uniqueness at the boundary is reported, not asserted"
)


class SolveMethod(enum.Enum):
    CLOSED_FORM = "closed_form"
    ROOT_FIND = "root_find"
    FOC_SOLVE = "foc_solve"


@dataclass(frozen=True)
class Equilibrium(JsonRecord):
    """A pure-strategy equilibrium profile in the caller's player labels.

    `beta` is the effort ratio x1/x2 for ratio-form contests, the effort gap
    x1 - x2 for difference-form contests, and None for concave contests
    (which have no scalar reduction).  `residuals` are the first-order
    residuals per player at the returned profile: interior players should be
    at machine-level zeros; a cornered player reports the (nonpositive)
    payoff slope at zero effort instead.
    """

    x1: float
    x2: float
    beta: float | None
    method: SolveMethod
    residuals: tuple[float, float]
    corner_flags: tuple[bool, bool] = (False, False)
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not (self.x1 >= 0.0 and self.x2 >= 0.0):
            raise _negative_efforts(self.x1, self.x2)
        if len(self.residuals) != 2 or len(self.corner_flags) != 2:
            raise ValidationError("residuals and corner_flags must have one entry per player")

    @property
    def total(self) -> float:
        return self.x1 + self.x2


def _user_order(vals: Valuations, strong, weak):
    return (weak, strong) if vals.swapped else (strong, weak)


def _checked_kind(spec: ContestSpec) -> str:
    """The family kind of `spec`, once its cost is the one the theory assumes.

    Each family class declares that cost as `default_cost` (linear for the
    ratio and concave classes, half-quadratic for the difference class);
    other pairings have no solver and raise.
    """
    kind = spec.csf.kind
    expected = getattr(spec.csf, "default_cost", None)
    if expected is None:
        raise ValidationError(f"no solver for family kind {kind!r}")
    if spec.cost is not expected:
        raise ValidationError(
            f"{kind}-form contests are solved under {expected.value!r} cost, "
            f"got {spec.cost.value!r}"
        )
    return kind


def _opening_warnings(csf, force: bool, audited: bool) -> list[str]:
    """Closed-form precondition check and the warnings every solve starts with.

    A family whose closed form is only guaranteed under a parameter
    restriction is rejected outside it unless `force` is given, in which
    case a warning is attached instead.
    """
    warnings: list[str] = []
    if not csf.lemma_precondition_ok:
        if not force:
            raise ValidationError(
                f"family {csf.name!r} violates its closed-form precondition "
                f"({csf.lemma_precondition}); pass force=True to evaluate anyway"
            )
        warnings.append(
            f"closed-form precondition {csf.lemma_precondition} violated; "
            "result computed under protest"
        )
    if not audited:
        warnings.append(UNCHECKED_ASSUMPTIONS_WARNING)
    return warnings


def _ratio_underflows(vals: Valuations, slope):
    """Whether a ratio closed form's slope or weak effort is subnormal (too few
    bits for a rounding-level residual); works on scalars and lanes alike."""
    return (slope < _TINY) | (vals.v2 * vals.beta * slope < _TINY)


# Errors shared by the scalar and batch routes, so a lane fails as its scalar
# solve does.
def _negative_efforts(x1: float, x2: float) -> ValidationError:
    return ValidationError(f"efforts must be >= 0, got ({x1}, {x2})")


def _ratio_underflow(slope: float) -> ConvergenceError:
    return ConvergenceError(f"closed-form efforts underflow double precision (slope {slope})")


def _unbracketed(hi: float) -> ConvergenceError:
    return ConvergenceError(
        f"could not bracket the effort-gap root within "
        f"{BRACKET_EXPANSIONS} expansions (last upper bound {hi}); "
        "the slope condition for existence likely fails at these prizes"
    )


def _gap_residual(resid: float, limit: float) -> ConvergenceError:
    return ConvergenceError(f"effort-gap residual {resid:.3e} exceeds {limit:.3e}")


def _effort_underflow(g1: float, g2: float, r: float) -> ConvergenceError:
    return ConvergenceError(f"an equilibrium effort underflows double precision "
                            f"(log-impacts {g1:.6g}, {g2:.6g} at r = {r})")


def _newton_residual(x1: float, x2: float, r1: float, r2: float) -> ConvergenceError:
    return ConvergenceError(
        f"Newton solve did not reach residual {ITERATIVE_RESIDUAL:.1e} within "
        f"{MAX_ITERATIONS} iterations; last iterate ({x1}, {x2}) "
        f"with residuals ({r1:.3e}, {r2:.3e})"
    )


def _overflow_check(csf, theta, overflow) -> None:
    """The family's domain error where `overflow` holds: checked prizes can overflow."""
    if overflow if isinstance(overflow, bool) else overflow.any():
        csf._theta(theta)


def _ratio_closed_form(csf, vals: Valuations, q_user, slope):
    """Efforts, their ratio and first-order residuals in the caller's labels,
    from the slope z_q'(beta) at beta = v1/v2; one tie rule or an array of lanes."""
    beta = vals.beta
    x1, x2 = _user_order(vals, vals.v1 * beta * slope, vals.v2 * beta * slope)
    theta = x1 / x2
    _overflow_check(csf, theta, vals.v1 * beta * slope == math.inf)
    v1u, v2u = _user_order(vals, vals.v1, vals.v2)
    zp = csf._zp(theta, q_user)
    return x1, x2, theta, v1u * zp / x2 - 1.0, v2u * zp * theta / x2 - 1.0


def _solve_ratio(csf, vals, q_user, q_int, warnings) -> Equilibrium:
    """Closed-form equilibrium of a ratio-form contest with linear cost: both
    players exert prize * beta * z_q'(beta) at beta = v1/v2."""
    _overflow_check(csf, vals.beta, vals.beta == math.inf)
    slope = float(csf._zp(vals.beta, q_int))
    if _ratio_underflows(vals, slope):
        raise _ratio_underflow(slope)
    x1, x2, theta, r1, r2 = map(float, _ratio_closed_form(csf, vals, q_user, slope))
    return Equilibrium(
        x1=x1, x2=x2, beta=theta, method=SolveMethod.CLOSED_FORM,
        residuals=(r1, r2), corner_flags=(False, False), warnings=tuple(warnings),
    )


def _safeguarded_root(fdf, lo: float, hi: float, budget: int) -> tuple[float, float]:
    """Root of f on a bracket with f(lo) <= 0 < f(hi), given fdf(x) = (f, f').

    Newton steps while they land strictly inside the bracket and shrink at
    least as fast as bisection, bisection otherwise (`rtsafe`, Numerical
    Recipes 9.4).  Stops at an exact zero, after a step below 1e-12 relative
    to x (further steps only chase roundoff in f), or after `budget` steps;
    returns the last point and its f value.
    """
    x = lo
    step_old = step = hi - lo
    fx, dfx = fdf(x)
    for _ in range(budget):
        if fx == 0.0:
            break
        if fx < 0.0:
            lo = x
        else:
            hi = x
        if ((x - hi) * dfx - fx) * ((x - lo) * dfx - fx) >= 0.0 or abs(2.0 * fx) > abs(step_old * dfx):
            step_old, step = step, 0.5 * (hi - lo)
            x = lo + step
        else:
            step_old, step = step, fx / dfx
            x -= step
        fx, dfx = fdf(x)
        if abs(step) <= 1e-12 * abs(x):
            break
    return x, fx


def solve_beta(csf, v, q) -> float:
    """Equilibrium effort gap of a difference-form contest at prizes `v` and tie rule `q`:
    the stronger player's gap, >= 0 and exactly 0.0 for equal prizes.  Checks
    its inputs, then runs `_gap_root` as `solve`'s difference-form route does."""
    if getattr(csf, "kind", None) != "diff":
        raise ValidationError("solve_beta requires a difference-form family")
    vals = v if isinstance(v, Valuations) else Valuations(*v)
    q_user = q_value(q)
    return _gap_root(csf, vals.v1 - vals.v2, 1.0 - q_user if vals.swapped else q_user)


def _gap_root(csf, gap: float, q_int: float) -> float:
    """The unique root of theta = gap * z_q'(theta) for a prize gap >= 0 and
    an internal tie share.  The bracket [0, 1] is doubled until the left side
    is ahead of the right, which terminates because z' is bounded.  The root
    is found by safeguarded Newton-bisection on the analytic z' and z'' and
    accepted when its residual is within `BETA_RESIDUAL` times max(1, gap).
    """
    if gap == 0.0:
        return 0.0

    def fdf(theta: float) -> tuple[float, float]:
        zp, zpp = csf._zslopes(theta, q_int)
        return theta - gap * float(zp), 1.0 - gap * float(zpp)

    lo, hi = 0.0, 1.0
    for _ in range(BRACKET_EXPANSIONS):
        if fdf(hi)[0] > 0.0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise _unbracketed(hi)

    root, resid = _safeguarded_root(fdf, lo, hi, MAX_ITERATIONS)
    limit = BETA_RESIDUAL * max(1.0, gap)
    if not abs(resid) <= limit:
        raise _gap_residual(resid, limit)
    return max(root, 0.0)


def _diff_closed_form(csf, vals: Valuations, q_user, q_int, gap):
    """Efforts, their gap and first-order residuals in the caller's labels,
    from the equilibrium gap of the stronger player; one tie rule or an array
    of lanes.  Each effort is prize * z_q'(gap)."""
    slope = csf._zp(gap, q_int)
    x1, x2 = _user_order(vals, vals.v1 * slope, vals.v2 * slope)
    theta = x1 - x2
    v1u, v2u = _user_order(vals, vals.v1, vals.v2)
    zp = csf._zp(theta, q_user)
    return x1, x2, theta, v1u * zp - x1, v2u * zp - x2


def _solve_diff(csf, vals, q_user, q_int, warnings) -> Equilibrium:
    """Equilibrium of a difference-form contest with quadratic cost: each
    effort is prize * z_q'(gap) at the equilibrium gap from `_gap_root`, so
    the first-order conditions are exactly v_i * z_q'(gap) = x_i."""
    gap = _gap_root(csf, vals.v1 - vals.v2, q_int)
    x1, x2, theta, r1, r2 = map(float, _diff_closed_form(csf, vals, q_user, q_int, gap))
    return Equilibrium(
        x1=x1, x2=x2, beta=theta, method=SolveMethod.ROOT_FIND, residuals=(r1, r2),
        corner_flags=(False, False), warnings=tuple(warnings),
    )


def _concave_marginal(csf, prize: float, own_q: float, own: float, other: float) -> float:
    """Payoff slope in own effort for a concave-impact contest, linear cost.

    At zero own effort the slope is the one-sided limit: -1 when winning adds
    nothing (rival impact + 1 - own tie share is zero), +inf for exponents
    below one, and the finite linear-impact expression otherwise.
    """
    f_other = float(csf._impact(other))
    press = f_other + (1.0 - own_q)
    if press <= 0.0:
        return -1.0
    if own > 0.0:
        return prize * float(csf._win_d1(own, other, own_q)) - 1.0
    if csf.r < 1.0:
        return math.inf
    total = f_other + 1.0
    return prize * press / (total * total) - 1.0


def _no_axis_equilibrium(b1: float, b2: float) -> NoEquilibriumError:
    return NoEquilibriumError(f"no axis profile is a mutual best response "
                              f"(single-entrant responses {b1} and {b2})")


def _lottery_interior(v1: float, v2: float, q_int):
    """Linear-impact efforts v_i v1 v2 / (v1 + v2)^2 less each tie share, for
    one tie rule or an array of lanes; the scale comes from rho = v2 / v1 <= 1,
    so no square overflows or underflows at any pair of finite prizes."""
    rho = v2 / v1
    scale = rho / (1.0 + rho) ** 2
    return v1 * scale - q_int, v2 * scale - (1.0 - q_int)


def _lottery_corner(csf, v1: float, v2: float, q_int: float) -> tuple[float, float]:
    """Corner equilibrium of a linear-impact contest whose interior profile fails.

    Tests (b1(0), 0), then (0, b2(0)), where b_i(0) = max(0, sqrt(v_i (1 - q_i)) - 1)
    answers an inactive rival; (0, 0) is the first of these when b1(0) = 0
    and no equilibrium otherwise.  A candidate is accepted when the inactive
    player's payoff slope at zero is nonpositive.
    """
    b1 = max(0.0, math.sqrt(v1 * (1.0 - q_int)) - 1.0)
    if _concave_marginal(csf, v2, 1.0 - q_int, 0.0, b1) <= CLOSED_FORM_RESIDUAL:
        return b1, 0.0
    b2 = max(0.0, math.sqrt(v2 * q_int) - 1.0)
    if _concave_marginal(csf, v1, q_int, 0.0, b2) <= CLOSED_FORM_RESIDUAL:
        return 0.0, b2
    raise _no_axis_equilibrium(b1, b2)


def _logaddexp(a: float, b: float) -> float:
    """log(e^a + e^b) without overflow; either argument may be -inf."""
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def _log_impact_foc(g1: float, g2: float, log_rv1: float, log_rv2: float, c: float,
                    log_head1: float, log_head2: float):
    """First-order conditions of a power-impact contest in g_i = log(x_i^r).

    G_i = log(r v_i) - c g_i + log a_i - 2 log T is the log of marginal
    benefit over marginal cost, with c = (1 - r) / r, f_i = e^(g_i),
    T = f1 + f2 + 1, a1 = f2 + (1 - q1) and a2 = f1 + q1 (the log heads are
    log(1 - q1) and log(q1)).  Returns G, the exact Jacobian (row-major) and
    each G_i's summed term magnitudes, the scale of its rounding error.
    Every exponential has a nonpositive argument, so nothing overflows.
    """
    log_t = _logaddexp(_logaddexp(g1, g2), 0.0)
    log_a1 = _logaddexp(g2, log_head1)
    log_a2 = _logaddexp(g1, log_head2)
    s1 = math.exp(g1 - log_t)
    s2 = math.exp(g2 - log_t)
    residual = (log_rv1 - c * g1 + log_a1 - 2.0 * log_t,
                log_rv2 - c * g2 + log_a2 - 2.0 * log_t)
    jacobian = (-c - 2.0 * s1, math.exp(g2 - log_a1) - 2.0 * s2,
                math.exp(g1 - log_a2) - 2.0 * s1, -c - 2.0 * s2)
    scale = (abs(log_rv1) + abs(c * g1) + abs(log_a1) + 2.0 * log_t,
             abs(log_rv2) + abs(c * g2) + abs(log_a2) + 2.0 * log_t)
    return residual, jacobian, scale


def _concave_newton(csf, v1: float, v2: float, q_int: float) -> tuple[float, float]:
    """Interior equilibrium of a power-impact contest with exponent below one.

    Newton's method on `_log_impact_foc` from g_i = r log(v_i / 4), with
    backtracking on the squared residual norm, for at most `MAX_ITERATIONS`
    steps.  The caller checks the residuals in effort space.
    """
    r = csf.r
    consts = (math.log(r) + math.log(v1), math.log(r) + math.log(v2), (1.0 - r) / r,
              *(math.log(h) if h > 0.0 else -math.inf for h in (1.0 - q_int, q_int)))
    g1, g2 = r * math.log(v1 / 4.0), r * math.log(v2 / 4.0)
    (G1, G2), (J11, J12, J21, J22), (S1, S2) = _log_impact_foc(g1, g2, *consts)
    for _ in range(MAX_ITERATIONS):
        at_rounding_floor = abs(G1) <= 4.0 * _EPS * S1 and abs(G2) <= 4.0 * _EPS * S2
        det = J11 * J22 - J12 * J21
        if at_rounding_floor or det == 0.0:
            break
        d1, d2 = (G1 * J22 - G2 * J12) / det, (J11 * G2 - J21 * G1) / det
        for halvings in range(40):
            t = 0.5**halvings
            trial = _log_impact_foc(g1 - t * d1, g2 - t * d2, *consts)
            if trial[0][0] ** 2 + trial[0][1] ** 2 <= (1.0 - 1e-4 * t) * (G1 * G1 + G2 * G2):
                break
        else:
            break
        g1, g2 = g1 - t * d1, g2 - t * d2
        (G1, G2), (J11, J12, J21, J22), (S1, S2) = trial

    x1, x2 = math.exp(g1 / r), math.exp(g2 / r)
    if min(x1, x2) < _TINY:
        raise _effort_underflow(g1, g2, r)
    return x1, x2


def _solve_concave(csf, vals, q_user, q_int, warnings) -> Equilibrium:
    """Equilibrium of a concave-impact contest with linear cost.

    Linear impact admits a closed form: the classic lottery efforts shifted
    down by each player's own tie share.  When that shift drives an effort
    negative, the axis profiles are tested in closed form and the first
    mutual best response is returned (otherwise `NoEquilibriumError`).
    Concave impact with exponent below one keeps both players active; the
    Newton solution in log-impact coordinates is accepted only if both
    effort-space residuals are within `ITERATIVE_RESIDUAL` and no effort
    underflows double precision (otherwise `ConvergenceError`).
    """
    v1, v2 = vals.v1, vals.v2

    if csf.r == 1.0:
        x1i, x2i = _lottery_interior(v1, v2, q_int)
        method = SolveMethod.CLOSED_FORM
        if not (x1i >= 0.0 and x2i >= 0.0):
            x1i, x2i = _lottery_corner(csf, v1, v2, q_int)
            method = SolveMethod.FOC_SOLVE
            warnings.append(CORNER_UNIQUENESS_WARNING)
    else:
        x1i, x2i = _concave_newton(csf, v1, v2, q_int)
        method = SolveMethod.FOC_SOLVE

    r1i = _concave_marginal(csf, v1, q_int, x1i, x2i)
    r2i = _concave_marginal(csf, v2, 1.0 - q_int, x2i, x1i)
    tol = ITERATIVE_RESIDUAL
    if csf.r < 1.0 and not (abs(r1i) <= tol and abs(r2i) <= tol):
        raise _newton_residual(x1i, x2i, r1i, r2i)
    x1, x2 = _user_order(vals, x1i, x2i)
    return Equilibrium(
        x1=x1, x2=x2, beta=None, method=method, residuals=_user_order(vals, r1i, r2i),
        corner_flags=(x1 == 0.0, x2 == 0.0), warnings=tuple(warnings),
    )


_ROUTES = {"ratio": _solve_ratio, "diff": _solve_diff, "concave": _solve_concave}


def solve(spec: ContestSpec, *, force: bool = False, audited: bool = False) -> Equilibrium:
    """Equilibrium of a contest, by the route for its family class.

    Validates that the cost technology matches the one the family's theory
    is stated under (linear for ratio and concave classes, half-quadratic
    for the difference class); other pairings have no solver and raise.
    A ratio family outside its closed-form precondition raises unless
    `force` is given, in which case a warning is attached instead.
    """
    kind = _checked_kind(spec)
    warnings = _opening_warnings(spec.csf, force, audited)
    vals = spec.valuations
    q_int = 1.0 - spec.q if vals.swapped else spec.q
    return _ROUTES[kind](spec.csf, vals, spec.q, q_int, warnings)
