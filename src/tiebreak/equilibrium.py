"""Pure-strategy equilibrium solvers for the three contest classes.

Ratio-form contests (linear cost) admit a closed form: both efforts share the
factor beta * z_q'(beta) at beta = v1/v2.  Difference-form contests
(quadratic cost) reduce to one root for the equilibrium effort gap, found
by safeguarded Newton-bisection on the analytic z' and z''; each effort is
then prize times slope.  Concave-impact contests solve the two first-order
conditions directly: analytically when the impact is linear, and otherwise
by Newton's method with backtracking in log-impact coordinates
g_i = log(x_i^r).

`solve(spec)` is the one way in for one tie rule, `solve_lanes(spec, qs)`
for many.  Each runs one prologue: it checks family kind, cost, closed-form
precondition and a ratio form's prize ratio once, orients the labels
(strongest prize first, player 2's tie share 1 - q) and picks the family
kind's routes in `_ROUTES`.  Routes solve stronger-player-first: the scalar
route in float loops, cheaper for one tie rule than array code, the lane route
in the same closed forms, steps, stop rules and errors vectorized over q, one
lane per tie rule, each iterative lane retiring on its own.  One epilogue per
entry point maps the efforts to the caller's labels, evaluates the first-order
residuals there and gates iterative solves: `solve` returns an `Equilibrium`,
`solve_lanes` arrays (`Lanes`) with each failing lane's error.  Routes call
only the families' unchecked kernels.  `solve_beta` is the one raw-input
helper, the effort-gap root of a difference-form contest.

Every solver returns an `Equilibrium` carrying per-player first-order
residuals evaluated at the returned profile, corner flags, and any warnings
(notably an unchecked-assumptions note unless the caller vouches that an
audit passed).  Residual targets and iteration budgets are the module
constants below, shared by the scalar and lane routes and read at call time.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import ContestSpec, JsonRecord, Valuations, q_value
from .errors import (ContestError, ConvergenceError, DomainError, NoEquilibriumError,
                     ValidationError)
from .families import q_array

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


def _equilibrium(x1: float, x2: float, beta, residuals, cornered: bool, method: SolveMethod,
                 warnings: tuple[str, ...]) -> Equilibrium:
    """A route's output as an `Equilibrium`: a cornered profile (a
    corner-adjusted linear impact) is a FOC_SOLVE with the corner warning,
    and only concave profiles (`beta` None) flag their zero efforts."""
    return Equilibrium(
        x1=x1, x2=x2, beta=beta, method=SolveMethod.FOC_SOLVE if cornered else method,
        residuals=residuals,
        corner_flags=(x1 == 0.0, x2 == 0.0) if beta is None else (False, False),
        warnings=warnings + (CORNER_UNIQUENESS_WARNING,) if cornered else warnings,
    )


@dataclass(frozen=True)
class Lanes:
    """One contest at the tie rules `q`, one array entry per lane.

    The lane route solves stronger-player-first; `solve_lanes`'s one epilogue
    maps its efforts to the caller's labels, evaluates the residuals there and
    gates iterative lanes (`beta` None for concave contests).  `errors` maps
    each failing lane, whose entries mean nothing, to its scalar solve's error.
    """

    q: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    beta: np.ndarray | None
    residuals: tuple[np.ndarray, np.ndarray]
    cornered: np.ndarray
    method: SolveMethod
    warnings: tuple[str, ...]
    errors: dict[int, ContestError]

    def equilibrium(self, i: int) -> Equilibrium:
        """Lane i, which solved, as the `Equilibrium` its scalar solve returns."""
        return _equilibrium(
            float(self.x1[i]), float(self.x2[i]), None if self.beta is None else float(self.beta[i]),
            (float(self.residuals[0][i]), float(self.residuals[1][i])), bool(self.cornered[i]),
            self.method, self.warnings)


def _user_order(vals: Valuations, strong, weak):
    return (weak, strong) if vals.swapped else (strong, weak)


# Errors shared by the scalar and lane routes, so a lane fails as its scalar
# solve does.
def _negative_efforts(x1: float, x2: float) -> ValidationError:
    return ValidationError(f"efforts must be >= 0, got ({x1}, {x2})")


def _ratio_range_error(slope: float, underflow) -> ConvergenceError:
    side = "underflow" if underflow else "overflow"
    return ConvergenceError(f"closed-form efforts {side} double precision (slope {slope})")


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


def _no_axis_equilibrium(b1: float, b2: float) -> NoEquilibriumError:
    return NoEquilibriumError(f"no axis profile is a mutual best response "
                              f"(single-entrant responses {b1} and {b2})")


def _converged(r1, r2):
    """Both residuals within `ITERATIVE_RESIDUAL`, for one tie rule or an array of lanes."""
    return (abs(r1) <= ITERATIVE_RESIDUAL) & (abs(r2) <= ITERATIVE_RESIDUAL)


def _reordered(first_ok, first, second):
    """`first` where `first_ok` holds and `second()` elsewhere, for one tie rule
    or an array of lanes: a product is formed in a second order only where its
    first order leaves the normal range, so every other result keeps its bits."""
    if isinstance(first, float):
        return first if first_ok else second()
    return first if first_ok.all() else np.where(first_ok, first, second())


def _ratio_range(vals: Valuations, slope):
    """(underflow, overflow, strong effort, weak effort) of a ratio closed form
    at slope z_q'(beta), for one tie rule or an array of lanes: a subnormal
    slope or weak effort has too few bits for a rounding-level residual, and
    the strong effort v1 * beta * slope, formed as v1 * (beta * slope) where
    that order overflows, can overflow at finite prizes."""
    strong = vals.v1 * vals.beta * slope
    strong = _reordered(strong != math.inf, strong, lambda: vals.v1 * (vals.beta * slope))
    weak = vals.v2 * vals.beta * slope
    return (slope < _TINY) | (weak < _TINY), strong == math.inf, strong, weak


def _solve_ratio(csf, vals, q_int):
    """Closed-form equilibrium of a ratio-form contest with linear cost: both
    players exert prize * beta * z_q'(beta) at beta = v1/v2."""
    slope = float(csf._zp(vals.beta, q_int))
    underflow, overflow, strong, weak = _ratio_range(vals, slope)
    if underflow or overflow:
        raise _ratio_range_error(slope, underflow)
    return strong, weak, False, SolveMethod.CLOSED_FORM


def _ratio_lanes(csf, vals, q_int):
    slope = csf._zp(vals.beta, q_int)
    with np.errstate(over="ignore", invalid="ignore"):  # a failing lane's efforts overflow
        underflow, overflow, strong, weak = _ratio_range(vals, slope)
    errors = {int(i): _ratio_range_error(float(slope[i]), underflow[i])
              for i in np.flatnonzero(underflow | overflow)}
    return strong, weak, np.zeros(q_int.size, dtype=bool), SolveMethod.CLOSED_FORM, errors


def _ratio_residuals(csf, v1, v2, q, x1, x2):
    """Effort ratio and first-order residuals in the caller's labels, for one
    tie rule or an array of lanes.  Player 2's marginal benefit v2 * z' * theta
    is formed as v2 * (z' * theta) where v2 * z' leaves the normal range."""
    theta = x1 / x2
    zp = csf._zp(theta, q)
    head = v2 * zp
    r2 = _reordered((head >= _TINY) & (head * theta != math.inf), head * theta / x2 - 1.0,
                    lambda: v2 * (zp * theta) / x2 - 1.0)
    return theta, v1 * zp / x2 - 1.0, r2


def _safeguarded_root(fdf, lo: float, hi: float, budget: int, at_lo=None) -> tuple[float, float]:
    """Root of f on a bracket with f(lo) <= 0 < f(hi), given fdf(x) = (f, f')
    and, when the caller has it, at_lo = fdf(lo).

    Newton steps while they land strictly inside the bracket and shrink at
    least as fast as bisection, bisection otherwise (`rtsafe`, Numerical
    Recipes 9.4).  Stops at an exact zero, after a step below 1e-12 relative
    to x (further steps only chase roundoff in f), or after `budget` steps;
    returns the last point and its f value.
    """
    x = lo
    step_old = step = hi - lo
    fx, dfx = at_lo or fdf(x)
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


def _safeguarded_roots(fdf, lo, hi, budget: int):
    """`_safeguarded_root` on many brackets at once, one lane per bracket.

    `fdf(x, lanes)` returns (f, f') at the points x of the given lanes.  Each
    lane takes exactly the scalar routine's steps and stops on its own; the
    loop ends when no lane is left.  Returns the last points and f values.
    """
    x = lo.copy()
    step_old, step = hi - lo, hi - lo
    fx, dfx = fdf(x, np.arange(x.size))
    live = np.flatnonzero(fx != 0.0)
    for _ in range(budget):
        if live.size == 0:
            break
        xl, fl, dl = x[live], fx[live], dfx[live]
        lo[live] = np.where(fl < 0.0, xl, lo[live])
        hi[live] = np.where(fl < 0.0, hi[live], xl)
        lol, hil = lo[live], hi[live]
        bisect = ((((xl - hil) * dl - fl) * ((xl - lol) * dl - fl) >= 0.0)
                  | (np.abs(2.0 * fl) > np.abs(step_old[live] * dl)))
        with np.errstate(divide="ignore", invalid="ignore"):
            new_step = np.where(bisect, 0.5 * (hil - lol), fl / dl)
        new_x = np.where(bisect, lol + new_step, xl - new_step)
        step_old[live], step[live], x[live] = step[live], new_step, new_x
        fx[live], dfx[live] = fdf(new_x, live)
        stopped = (np.abs(new_step) <= 1e-12 * np.abs(new_x)) | (fx[live] == 0.0)
        live = live[~stopped]
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

    lo, hi, at_lo = 0.0, 1.0, None
    for _ in range(BRACKET_EXPANSIONS):
        if (at_hi := fdf(hi))[0] > 0.0:
            break
        lo, hi, at_lo = hi, 2.0 * hi, at_hi
    else:
        raise _unbracketed(hi)

    root, resid = _safeguarded_root(fdf, lo, hi, MAX_ITERATIONS, at_lo)
    limit = BETA_RESIDUAL * max(1.0, gap)
    if not abs(resid) <= limit:
        raise _gap_residual(resid, limit)
    return max(root, 0.0)


def _gap_roots(csf, gap: float, q_int: np.ndarray):
    """`_gap_root` for an array of internal tie shares; failing lanes hold their error."""
    n = q_int.size
    if gap == 0.0:
        return np.zeros(n), {}
    lo, hi = np.zeros(n), np.ones(n)
    unbracketed = np.arange(n)
    for _ in range(BRACKET_EXPANSIONS):
        ahead = hi[unbracketed] - gap * csf._zp(hi[unbracketed], q_int[unbracketed]) > 0.0
        unbracketed = unbracketed[~ahead]
        if unbracketed.size == 0:
            break
        lo[unbracketed], hi[unbracketed] = hi[unbracketed], 2.0 * hi[unbracketed]
    errors = {int(i): _unbracketed(float(hi[i])) for i in unbracketed}

    bracketed = np.ones(n, dtype=bool)
    bracketed[unbracketed] = False
    lanes = np.flatnonzero(bracketed)
    q_lanes = q_int[lanes]

    def fdf(theta, sub):
        zp, zpp = csf._zslopes(theta, q_lanes[sub])
        return theta - gap * zp, 1.0 - gap * zpp

    roots = np.zeros(n)
    root, resid = _safeguarded_roots(fdf, lo[lanes], hi[lanes], MAX_ITERATIONS)
    limit = BETA_RESIDUAL * max(1.0, gap)
    for j in np.flatnonzero(~(np.abs(resid) <= limit)):
        errors[int(lanes[j])] = _gap_residual(float(resid[j]), limit)
    roots[lanes] = np.maximum(root, 0.0)
    return roots, errors


def _solve_diff(csf, vals, q_int):
    """Equilibrium of a difference-form contest with quadratic cost: each
    effort is prize * z_q'(gap) at the equilibrium gap from `_gap_root`, so
    the first-order conditions are exactly v_i * z_q'(gap) = x_i."""
    slope = csf._zp(_gap_root(csf, vals.v1 - vals.v2, q_int), q_int)
    return vals.v1 * slope, vals.v2 * slope, False, SolveMethod.ROOT_FIND


def _diff_lanes(csf, vals, q_int):
    gap, errors = _gap_roots(csf, vals.v1 - vals.v2, q_int)
    slope = csf._zp(gap, q_int)
    return (vals.v1 * slope, vals.v2 * slope, np.zeros(q_int.size, dtype=bool),
            SolveMethod.ROOT_FIND, errors)


def _diff_residuals(csf, v1, v2, q, x1, x2):
    """Effort gap and first-order residuals v_i * z_q'(gap) - x_i in the
    caller's labels, for one tie rule or an array of lanes."""
    theta = x1 - x2
    zp = csf._zp(theta, q)
    return theta, v1 * zp - x1, v2 * zp - x2


def _concave_marginal(csf, prize: float, own_q: float, own: float, other: float) -> float:
    """Payoff slope in own effort for a concave-impact contest, linear cost.

    At zero own effort the slope is the one-sided limit: -1 when winning adds
    nothing (rival impact + 1 - own tie share is zero), +inf for exponents
    below one, and the finite linear-impact expression otherwise.
    """
    r = csf.r  # one NumPy call per exponent: a scalar one takes the lanes' fast paths (0.5: sqrt)
    f_other, f_own = np.power((other, own), r).tolist()
    press = f_other + (1.0 - own_q)
    if press <= 0.0:
        return -1.0
    if own > 0.0:  # `_win_d1` on Python floats
        total = f_own + f_other + 1.0
        return prize * (r * float(np.power(own, r - 1.0)) * press / total / total) - 1.0
    if r < 1.0:
        return math.inf
    total = f_other + 1.0
    return prize * press / (total * total) - 1.0


def _concave_marginals(csf, prize: float, own_q, own, other):
    """`_concave_marginal` over lanes of efforts and own tie shares."""
    f_other = csf._impact(other)
    press = f_other + (1.0 - own_q)
    out = np.full(own.shape, -1.0)
    moving = (press > 0.0) & (own > 0.0)
    if moving.any():  # `_win_d1`'s operation order, from the rival impact and press at hand
        x = own[moving]
        total = csf._impact(x) + f_other[moving] + 1.0
        out[moving] = prize * (csf._impact_prime(x) * press[moving] / total / total) - 1.0
    at_zero = (press > 0.0) & ~(own > 0.0)
    if csf.r < 1.0:
        out[at_zero] = math.inf
    else:
        total = f_other[at_zero] + 1.0
        out[at_zero] = prize * press[at_zero] / (total * total) - 1.0
    return out


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


def _lottery_corners(csf, v1: float, v2: float, q_int: np.ndarray):
    """`_lottery_corner` over lanes; a lane with no axis profile holds its error."""
    zero = np.zeros(q_int.size)
    b1 = np.maximum(0.0, np.sqrt(v1 * (1.0 - q_int)) - 1.0)
    b2 = np.maximum(0.0, np.sqrt(v2 * q_int) - 1.0)
    first = _concave_marginals(csf, v2, 1.0 - q_int, zero, b1) <= CLOSED_FORM_RESIDUAL
    second = ~first & (_concave_marginals(csf, v1, q_int, zero, b2) <= CLOSED_FORM_RESIDUAL)
    errors = {int(i): _no_axis_equilibrium(float(b1[i]), float(b2[i]))
              for i in np.flatnonzero(~first & ~second)}
    return np.where(first, b1, 0.0), np.where(second, b2, 0.0), errors


def _logaddexp(a: float, b: float) -> float:
    """log(e^a + e^b) without overflow; either argument may be -inf."""
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def _log_impact_foc(g1, g2, log_rv1, log_rv2, c, log_head1, log_head2,
                    exp=math.exp, logaddexp=_logaddexp):
    """First-order conditions of a power-impact contest in g_i = log(x_i^r).

    G_i = log(r v_i) - c g_i + log a_i - 2 log T is the log of marginal
    benefit over marginal cost, with c = (1 - r) / r, f_i = e^(g_i),
    T = f1 + f2 + 1, a1 = f2 + (1 - q1) and a2 = f1 + q1 (the log heads are
    log(1 - q1) and log(q1)).  Returns the rows G1, G2, J11, J12, J21, J22,
    S1, S2: G, its exact Jacobian (row-major) and each G_i's summed term
    magnitudes, the scale of its rounding error.  One tie rule takes the
    default `exp` and `logaddexp` on floats; lanes pass NumPy's on arrays.
    Every exponential has a nonpositive argument, so nothing overflows.
    """
    log_t = logaddexp(logaddexp(g1, g2), 0.0)
    log_a1 = logaddexp(g2, log_head1)
    log_a2 = logaddexp(g1, log_head2)
    s1 = exp(g1 - log_t)
    s2 = exp(g2 - log_t)
    return (log_rv1 - c * g1 + log_a1 - 2.0 * log_t, log_rv2 - c * g2 + log_a2 - 2.0 * log_t,
            -c - 2.0 * s1, exp(g2 - log_a1) - 2.0 * s2,
            exp(g1 - log_a2) - 2.0 * s1, -c - 2.0 * s2,
            abs(log_rv1) + abs(c * g1) + abs(log_a1) + 2.0 * log_t,
            abs(log_rv2) + abs(c * g2) + abs(log_a2) + 2.0 * log_t)


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
    G1, G2, J11, J12, J21, J22, S1, S2 = _log_impact_foc(g1, g2, *consts)
    for _ in range(MAX_ITERATIONS):
        at_rounding_floor = abs(G1) <= 4.0 * _EPS * S1 and abs(G2) <= 4.0 * _EPS * S2
        det = J11 * J22 - J12 * J21
        if at_rounding_floor or det == 0.0:
            break
        d1, d2 = (G1 * J22 - G2 * J12) / det, (J11 * G2 - J21 * G1) / det
        for halvings in range(40):
            t = 0.5**halvings
            trial = _log_impact_foc(g1 - t * d1, g2 - t * d2, *consts)
            if trial[0] ** 2 + trial[1] ** 2 <= (1.0 - 1e-4 * t) * (G1 * G1 + G2 * G2):
                break
        else:
            break
        g1, g2 = g1 - t * d1, g2 - t * d2
        G1, G2, J11, J12, J21, J22, S1, S2 = trial

    x1, x2 = math.exp(g1 / r), math.exp(g2 / r)
    if min(x1, x2) < _TINY:
        raise _effort_underflow(g1, g2, r)
    return x1, x2


def _concave_newtons(csf, v1: float, v2: float, q_int: np.ndarray):
    """`_concave_newton` for an array of internal tie shares; returns g1, g2.

    Every lane starts where the scalar routine does and takes its steps,
    backtracking and stop rules; a lane retires on its own and the loop ends
    when none is left.
    """
    r = csf.r
    with np.errstate(divide="ignore"):
        heads = np.log(np.stack((1.0 - q_int, q_int)))
    consts = (math.log(r) + math.log(v1), math.log(r) + math.log(v2), (1.0 - r) / r)
    g1 = np.full(q_int.size, r * math.log(v1 / 4.0))
    g2 = np.full(q_int.size, r * math.log(v2 / 4.0))
    foc = np.stack(_log_impact_foc(g1, g2, *consts, *heads, np.exp, np.logaddexp))
    live = np.arange(q_int.size)
    for _ in range(MAX_ITERATIONS):
        G1, G2, J11, J12, J21, J22, S1, S2 = foc[:, live]
        det = J11 * J22 - J12 * J21
        at_rounding_floor = (np.abs(G1) <= 4.0 * _EPS * S1) & (np.abs(G2) <= 4.0 * _EPS * S2)
        keep = ~at_rounding_floor & (det != 0.0)
        live, G1, G2, J11, J12, J21, J22, det = (
            a[keep] for a in (live, G1, G2, J11, J12, J21, J22, det))
        if live.size == 0:
            break
        d1, d2 = (G1 * J22 - G2 * J12) / det, (J11 * G2 - J21 * G1) / det
        norm = G1 * G1 + G2 * G2
        search = np.arange(live.size)
        for halvings in range(40):
            t = 0.5**halvings
            lanes = live[search]
            n1, n2 = g1[lanes] - t * d1[search], g2[lanes] - t * d2[search]
            trial = np.stack(_log_impact_foc(n1, n2, *consts, *heads[:, lanes], np.exp, np.logaddexp))
            done = trial[0] ** 2 + trial[1] ** 2 <= (1.0 - 1e-4 * t) * norm[search]
            g1[lanes[done]], g2[lanes[done]] = n1[done], n2[done]
            foc[:, lanes[done]] = trial[:, done]
            search = search[~done]
            if search.size == 0:
                break
        live = np.delete(live, search)
    return g1, g2


def total_effort_slope(spec: ContestSpec, q: float, x1: float, x2: float,
                       cornered: bool) -> float:
    """dR/dq of a concave contest at tie rule q, at equilibrium efforts x1, x2.

    For r < 1, the implicit function theorem on the log-impact conditions
    G(g; q1) = 0 of `_log_impact_foc` (internal labels) gives
    dg/dq1 = -J^-1 dG/dq1 with dG/dq1 = (-1/a1, +1/a2), and
    dR/dq1 = sum_i (x_i / r) dg_i/dq1.  For r = 1, R is constant on the
    interior closed form, and a lone entrant exerts sqrt(v_i (1 - q_i)) - 1.
    """
    vals, r = spec.valuations, spec.csf.r
    q1 = float(1.0 - q if vals.swapped else q)
    x1, x2 = _user_order(vals, float(x1), float(x2))
    if r == 1.0:
        slope = 0.0
        if cornered and x1 > 0.0:
            slope = -0.5 * math.sqrt(vals.v1 / (1.0 - q1))
        elif cornered and x2 > 0.0:
            slope = 0.5 * math.sqrt(vals.v2 / q1)
    else:
        g1, g2 = r * math.log(x1), r * math.log(x2)
        heads = (math.log(h) if h > 0.0 else -math.inf for h in (1.0 - q1, q1))
        _, _, J11, J12, J21, J22, _, _ = _log_impact_foc(
            g1, g2, math.log(r * vals.v1), math.log(r * vals.v2), (1.0 - r) / r, *heads)
        dG1, dG2 = -1.0 / (math.exp(g2) + (1.0 - q1)), 1.0 / (math.exp(g1) + q1)
        det = J11 * J22 - J12 * J21 or math.nan  # singular: sign unknown, so uncertified
        dg1, dg2 = (J12 * dG2 - J22 * dG1) / det, (J21 * dG1 - J11 * dG2) / det
        slope = (x1 * dg1 + x2 * dg2) / r
    return -slope if vals.swapped else slope


def _solve_concave(csf, vals, q_int):
    """Equilibrium of a concave-impact contest with linear cost.

    Linear impact admits a closed form: the classic lottery efforts shifted
    down by each player's own tie share.  When that shift drives an effort
    negative, the axis profiles are tested in closed form and the first
    mutual best response is returned (otherwise `NoEquilibriumError`).
    Concave impact with exponent below one keeps both players active; the
    Newton solution in log-impact coordinates raises `ConvergenceError` if an
    effort underflows double precision, and the epilogue accepts it only if
    both effort-space residuals are within `ITERATIVE_RESIDUAL`.
    """
    v1, v2 = vals.v1, vals.v2
    if csf.r < 1.0:
        return (*_concave_newton(csf, v1, v2, q_int), False, SolveMethod.FOC_SOLVE)
    x1, x2 = _lottery_interior(v1, v2, q_int)
    if x1 >= 0.0 and x2 >= 0.0:
        return x1, x2, False, SolveMethod.CLOSED_FORM
    return (*_lottery_corner(csf, v1, v2, q_int), True, SolveMethod.CLOSED_FORM)


def _concave_lanes(csf, vals, q_int):
    v1, v2 = vals.v1, vals.v2
    if csf.r < 1.0:
        g1, g2 = _concave_newtons(csf, v1, v2, q_int)
        x1, x2 = np.exp(g1 / csf.r), np.exp(g2 / csf.r)
        errors = {int(i): _effort_underflow(float(g1[i]), float(g2[i]), csf.r)
                  for i in np.flatnonzero(np.minimum(x1, x2) < _TINY)}
        return x1, x2, np.zeros(q_int.size, dtype=bool), SolveMethod.FOC_SOLVE, errors
    x1, x2 = _lottery_interior(v1, v2, q_int)
    cornered = ~((x1 >= 0.0) & (x2 >= 0.0))
    at = np.flatnonzero(cornered)
    x1[at], x2[at], errors = _lottery_corners(csf, v1, v2, q_int[at])
    return x1, x2, cornered, SolveMethod.CLOSED_FORM, {int(at[j]): e for j, e in errors.items()}


def _concave_residuals(csf, v1, v2, q, x1, x2):
    """No effort ratio or gap, and each player's payoff slope in own effort,
    in the caller's labels; one tie rule or an array of lanes."""
    marginal = _concave_marginal if isinstance(x1, float) else _concave_marginals
    return None, marginal(csf, v1, q, x1, x2), marginal(csf, v2, 1.0 - q, x2, x1)


# (scalar route, lane route, residuals) per family kind.  Routes solve
# stronger-player-first: they take (csf, vals, q_int) and return the stronger
# and the weaker player's efforts, the cornered flag and the method; the lane
# route returns arrays and, last, its failing lanes' errors.  The residuals
# take (csf, v1, v2, q, x1, x2) in the caller's labels, for one tie rule or
# lanes, and return (beta, r1, r2).  One epilogue per entry point (`solve`,
# `solve_lanes`) maps the labels, evaluates the residuals and gates iterative
# solves.
_ROUTES = {
    "ratio": (_solve_ratio, _ratio_lanes, _ratio_residuals),
    "diff": (_solve_diff, _diff_lanes, _diff_residuals),
    "concave": (_solve_concave, _concave_lanes, _concave_residuals),
}


def _prologue(spec: ContestSpec, q_user, force: bool, audited: bool):
    """The routes, prizes, internal tie share(s) and opening warnings of a
    solve at tie rule(s) `q_user`, once the checks that hold at every q pass
    (see `solve`); each family class declares its cost as `default_cost`."""
    csf, kind = spec.csf, spec.csf.kind
    expected = getattr(csf, "default_cost", None)
    if expected is None:
        raise ValidationError(f"no solver for family kind {kind!r}")
    if spec.cost is not expected:
        raise ValidationError(
            f"{kind}-form contests are solved under {expected.value!r} cost, "
            f"got {spec.cost.value!r}"
        )
    warnings: tuple[str, ...] = ()
    if not csf.lemma_precondition_ok:
        if not force:
            raise ValidationError(
                f"family {csf.name!r} violates its closed-form precondition "
                f"({csf.lemma_precondition}); pass force=True to evaluate anyway"
            )
        warnings += (f"closed-form precondition {csf.lemma_precondition} violated; "
                     "result computed under protest",)
    if not audited:
        warnings += (UNCHECKED_ASSUMPTIONS_WARNING,)
    vals = spec.valuations
    if kind == "ratio" and vals.beta == math.inf:
        raise DomainError(f"the ratio of prizes {(spec.v1, spec.v2)} overflows double precision")
    return _ROUTES[kind], vals, 1.0 - q_user if vals.swapped else q_user, warnings


def solve(spec: ContestSpec, *, force: bool = False, audited: bool = False) -> Equilibrium:
    """Equilibrium of a contest, by the scalar route for its family class.

    Validates that the cost technology matches the one the family's theory
    is stated under (linear for ratio and concave classes, half-quadratic
    for the difference class); other pairings have no solver and raise.
    A ratio family outside its closed-form precondition raises unless
    `force` is given, in which case a warning is attached instead.
    """
    (route, _, residuals), vals, q_int, warnings = _prologue(spec, spec.q, force, audited)
    strong, weak, cornered, method = route(spec.csf, vals, q_int)
    x1, x2 = _user_order(vals, strong, weak)
    beta, r1, r2 = residuals(spec.csf, spec.v1, spec.v2, spec.q, x1, x2)
    if method is SolveMethod.FOC_SOLVE and not _converged(r1, r2):
        raise _newton_residual(x1, x2, r1, r2)
    return _equilibrium(x1, x2, beta, (r1, r2), cornered, method, warnings)


def solve_lanes(spec: ContestSpec, qs, *, force: bool, audited: bool) -> Lanes:
    """The contest at every q in `qs`, as arrays with one lane per q.

    A lane fails with its scalar solve's error, the `Equilibrium` check on
    its efforts included.  Errors that hold at every q (malformed `qs`,
    family kind, cost, closed-form precondition, a ratio form's prize ratio)
    are raised at once.
    """
    q_user = q_array(qs)
    if q_user.ndim != 1:
        raise ValidationError(f"qs must be one-dimensional, got shape {q_user.shape}")
    (_, route, residuals), vals, q_int, warnings = _prologue(spec, q_user, force, audited)
    strong, weak, cornered, method, errors = route(spec.csf, vals, q_int)
    failed = np.zeros(q_user.size, dtype=bool)
    failed[list(errors)] = True
    # a failed lane takes efforts (1, 1), which keep its unused residuals finite
    x1, x2 = _user_order(vals, np.where(failed, 1.0, strong), np.where(failed, 1.0, weak))
    with np.errstate(over="ignore", invalid="ignore"):  # a ratio product's unused order overflows
        beta, r1, r2 = residuals(spec.csf, spec.v1, spec.v2, q_user, x1, x2)
    if method is SolveMethod.FOC_SOLVE:
        for i in np.flatnonzero(~failed & ~_converged(r1, r2)):
            errors[int(i)] = _newton_residual(float(x1[i]), float(x2[i]), float(r1[i]), float(r2[i]))
    for i in np.flatnonzero(~((x1 >= 0.0) & (x2 >= 0.0))):
        errors.setdefault(int(i), _negative_efforts(float(x1[i]), float(x2[i])))
    return Lanes(q_user, x1, x2, beta, (r1, r2), cornered, method, warnings, errors)


def solve_many(spec: ContestSpec, qs, *, force: bool = False,
               audited: bool = False) -> tuple[Equilibrium, ...]:
    """Equilibria of one contest at each tie rule in `qs` (the q in `spec` is ignored).

    Entry i matches `solve(spec.with_q(qs[i]))` to rounding: same route,
    steps, stop rules, residual checks, corner flags, warnings and errors.
    `qs` must be a one-dimensional sequence of numbers in [0, 1].  If any
    tie rule fails, the error its scalar solve raises is raised, for the
    smallest failing q.
    """
    lanes = solve_lanes(spec, qs, force=force, audited=audited)
    if lanes.errors:
        raise lanes.errors[min(sorted(lanes.errors), key=lambda i: lanes.q[i])]
    return tuple(map(lanes.equilibrium, range(lanes.q.size)))
