"""Pure-strategy equilibrium solvers for the three contest classes.

Ratio-form contests (linear cost) admit a closed form: both efforts share the
factor beta * z_q'(beta) at beta = v1/v2.  Difference-form contests
(quadratic cost) reduce to one root for the equilibrium effort gap, found
by safeguarded Newton-bisection on the analytic z' and z''; each effort is
then prize times slope.  Concave-impact contests solve the two first-order
conditions directly: analytically when the impact is linear, and otherwise
by Newton's method with backtracking in log-impact coordinates
g_i = log(x_i^r).

`solve(spec)` is the one way in for one tie rule, `solve_lanes(spec, qs)` for
many.  Each runs one prologue: it checks family kind, cost, closed-form
precondition and a ratio form's prize ratio once, orients the labels
(strongest prize first, player 2's tie share 1 - q) and picks the family
kind's route in `_ROUTES`.  Each family kind has one route, and each solver
step one body, written against the primitives `families.Ops` and run by both
entry points, which choose the instance: `solve` `FLOATS`, cheaper for one
tie rule than array code, `solve_lanes` `LANES` over q, one
lane per tie rule, each iterative lane stopping on its own and then holding
its values.  Routes solve stronger-player-first and return their acceptance
tests as gates, which only the entry points apply: `solve` raises the first
failing gate's error, `solve_lanes` gives each failing lane the error of the
first gate it fails.  Each entry point then maps the efforts to the caller's
labels, evaluates the first-order residuals there and gates iterative
solves: `solve` returns an `Equilibrium`, `solve_lanes` arrays (`Lanes`)
with each failing lane's error.  Routes call only the families' unchecked
kernels, which take the same primitives.  `solve_beta` is the one raw-input
helper, the effort-gap root of a difference-form contest.

Every solver returns an `Equilibrium` carrying per-player first-order
residuals evaluated at the returned profile, corner flags, and any warnings
(notably an unchecked-assumptions note unless the caller vouches that an
audit passed).  Residual targets and iteration budgets are the module
constants below, shared by both instances and read at call time.
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
from .families import FLOATS, LANES, Ops, q_array

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

    The route solves stronger-player-first on the lane instance; `solve_lanes`
    applies its gates, maps its efforts to the caller's labels, evaluates the
    residuals there and gates iterative lanes (`beta` None for concave
    contests).  `errors` maps each failing lane, whose entries mean nothing,
    to its scalar solve's error.
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


# Errors shared by both instances of the routes, so a lane fails as its scalar
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


# A gate is (failing, error, *args): where `failing` holds, the solve fails with
# error(*args).  Each gate is built once, for one tie rule or an array of lanes;
# `solve` raises the first failing gate's error, `solve_lanes` maps each failing
# lane to the error of the first gate it fails.
def _raise_first(*gates) -> None:
    for gate in gates:
        if gate[0]:
            raise gate[1](*gate[2:])


def _lane_errors(*gates) -> dict[int, ContestError]:
    """Each failing lane's error, an array argument read at that lane."""
    errors = {}
    for failing, error, *args in gates:
        for i in np.flatnonzero(failing).tolist():
            read = (a[i].item() if isinstance(a, np.ndarray) else a for a in args)
            errors.setdefault(i, error(*read))
    return errors


def _residual_gate(x1, x2, r1, r2):
    """Fails unless both residuals are within `ITERATIVE_RESIDUAL`."""
    converged = (abs(r1) <= ITERATIVE_RESIDUAL) & (abs(r2) <= ITERATIVE_RESIDUAL)
    return converged ^ True, _newton_residual, x1, x2, r1, r2


def _reordered(first_ok, first, second, xp: Ops):
    """`first` where `first_ok` holds and `second()` elsewhere (`xp`, see `Ops`):
    a product is formed in a second order only where its first order leaves
    the normal range, so every other result keeps its bits."""
    return xp.select(first_ok, first, second()) if xp.live(first_ok ^ True) else first


def _ratio_range(vals: Valuations, slope, xp: Ops):
    """Efforts and range gate of a ratio closed form at slope z_q'(beta): a
    subnormal slope or weak effort has too few bits for a rounding-level
    residual, and the strong effort v1 * beta * slope, formed as
    v1 * (beta * slope) where that order overflows, can overflow at finite prizes."""
    strong = vals.v1 * vals.beta * slope
    strong = _reordered(strong != math.inf, strong, lambda: vals.v1 * (vals.beta * slope), xp)
    weak = vals.v2 * vals.beta * slope
    underflow = (slope < _TINY) | (weak < _TINY)
    return strong, weak, (underflow | (strong == math.inf), _ratio_range_error, slope, underflow)


def _ratio(csf, vals, q_int, xp: Ops):
    """Closed-form equilibrium of a ratio-form contest with linear cost: both
    players exert prize * beta * z_q'(beta) at beta = v1/v2."""
    # beta is one float at every tie rule: its shares take the float kernels
    strong, weak, gate = _ratio_range(vals, csf._zp(vals.beta, q_int, FLOATS), xp)
    return strong, weak, False, SolveMethod.CLOSED_FORM, (gate,)


def _ratio_residuals(csf, v1, v2, q, x1, x2, xp: Ops):
    """Effort ratio and first-order residuals in the caller's labels.  Player
    2's marginal benefit v2 * z' * theta is formed as v2 * (z' * theta) where
    v2 * z' leaves the normal range."""
    theta = x1 / x2
    zp = csf._zp(theta, q, xp)
    head = v2 * zp
    r2 = _reordered((head >= _TINY) & (head * theta != math.inf), head * theta / x2 - 1.0,
                    lambda: v2 * (zp * theta) / x2 - 1.0, xp)
    return theta, v1 * zp / x2 - 1.0, r2


def _safeguarded_root(fdf, lo, hi, budget: int, at_lo, xp: Ops = FLOATS):
    """Root of f on a bracket with f(lo) <= 0 < f(hi), given fdf(x) = (f, f')
    and at_lo = fdf(lo), for one tie rule or lanes (`xp`, see `Ops`).

    Newton steps while they land strictly inside the bracket and shrink at
    least as fast as bisection, bisection otherwise (`rtsafe`, Numerical
    Recipes 9.4).  Stops at an exact zero, after a step below 1e-12 relative
    to x (further steps only chase roundoff in f), or after `budget` steps;
    returns the last point and its f value.
    """
    select, live = xp.select, xp.live
    x, (fx, dfx) = lo, at_lo
    step_old = step = hi - lo
    stepping = fx != 0.0
    for _ in range(budget):
        if not live(stepping):
            break
        lo, hi = select(fx < 0.0, (x, hi), (lo, x))
        bisect = ((((x - hi) * dfx - fx) * ((x - lo) * dfx - fx) >= 0.0)
                  | (abs(2.0 * fx) > abs(step_old * dfx)))
        half, newton = 0.5 * (hi - lo), fx / select(bisect, 1.0, dfx)  # f' = 0 bisects
        step_old, (step, moved) = step, select(bisect, (half, lo + half), (newton, x - newton))
        x = select(stepping, moved, x)  # a stopped lane holds
        fx, dfx = fdf(x)
        stepping = stepping & (fx != 0.0) & (abs(step) > 1e-12 * abs(x))  # a NaN step: x NaN for good
    return x, fx


def solve_beta(csf, v, q) -> float:
    """Equilibrium effort gap of a difference-form contest at prizes `v` and tie rule `q`:
    the stronger player's gap, >= 0 and exactly 0.0 for equal prizes.  Checks
    its inputs, then finds the root as `solve`'s difference-form route does."""
    if getattr(csf, "kind", None) != "diff":
        raise ValidationError("solve_beta requires a difference-form family")
    vals = v if isinstance(v, Valuations) else Valuations(*v)
    q_user, gap = q_value(q), vals.v1 - vals.v2
    root, resid, hi, bracketed = _gap_root(csf, gap, 1.0 - q_user if vals.swapped else q_user)
    _raise_first(*_gap_gates(gap, resid, hi, bracketed))
    return root


def _gap_root(csf, gap: float, q_int, xp: Ops = FLOATS):
    """The root of theta = gap * z_q'(theta) for a prize gap >= 0 and internal
    tie shares, for one tie rule or lanes (`xp`, see `Ops`).

    The upper bounds 1, 2, 4, ..., 2^`BRACKET_EXPANSIONS` are tried until the
    left side is ahead of the right, which happens because z' is bounded;
    `_safeguarded_root` then runs on the analytic z' and z'' from the last
    bound behind, whose f and f' it is handed.  Returns the root (at least
    0), its residual, the last bound tried and whether it was ahead.
    """
    def fdf(theta):
        zp, zpp = csf._zslopes(theta, q_int, xp)
        return theta - gap * zp, 1.0 - gap * zpp

    lo, hi = 0.0 * q_int, 0.0 * q_int + 1.0  # floats for one tie rule, arrays for lanes
    f_hi, df_hi = fdf(hi)
    f_lo, df_lo = fdf(lo) if xp.live(f_hi > 0.0) else (f_hi, df_hi)  # where the first is ahead
    for _ in range(BRACKET_EXPANSIONS):
        ahead = f_hi > 0.0
        if not xp.live(ahead ^ True):  # every lane is ahead
            break
        lo, hi, f_lo, df_lo = xp.select(ahead, (lo, hi, f_lo, df_lo), (hi, 2.0 * hi, f_hi, df_hi))
        f_hi, df_hi = fdf(hi)
    ahead = f_hi > 0.0
    # a lane with no bracket starts at f = 0, so it takes no step
    root, resid = _safeguarded_root(fdf, lo, hi, MAX_ITERATIONS,
                                    (xp.select(ahead, f_lo, 0.0), df_lo), xp)
    return xp.select(root >= 0.0, root, 0.0), resid, hi, ahead


def _gap_gates(gap: float, resid, hi, bracketed):
    """A `_gap_root`'s gates: bracketed, residual within `BETA_RESIDUAL` * max(1, gap)."""
    limit = BETA_RESIDUAL * max(1.0, gap)
    return ((bracketed ^ True, _unbracketed, hi),
            ((abs(resid) <= limit) ^ True, _gap_residual, resid, limit))


def _diff(csf, vals, q_int, xp: Ops):
    """Equilibrium of a difference-form contest with quadratic cost: each
    effort is prize * z_q'(gap) at the equilibrium gap from `_gap_root`, so
    the first-order conditions are exactly v_i * z_q'(gap) = x_i."""
    gap = vals.v1 - vals.v2
    theta, resid, hi, bracketed = _gap_root(csf, gap, q_int, xp)
    slope = csf._zp(theta, q_int, xp)
    return (vals.v1 * slope, vals.v2 * slope, False, SolveMethod.ROOT_FIND,
            _gap_gates(gap, resid, hi, bracketed))


def _diff_residuals(csf, v1, v2, q, x1, x2, xp: Ops):
    """Effort gap and first-order residuals v_i * z_q'(gap) - x_i in the
    caller's labels."""
    theta = x1 - x2
    zp = csf._zp(theta, q, xp)
    return theta, v1 * zp - x1, v2 * zp - x2


def _concave_marginal(csf, prize: float, own_q, own, other, xp: Ops = FLOATS):
    """Payoff slope in own effort for a concave-impact contest, linear cost,
    for one tie rule or lanes (`xp`, see `Ops`): prize * `_win_d1` - 1.

    At zero own effort the slope is the one-sided limit: -1 when winning adds
    nothing (rival impact + 1 - own tie share is zero), +inf for exponents
    below one, and the finite linear-impact expression otherwise.
    """
    select, positive, concave = xp.select, own > 0.0, csf.r < 1.0
    # x^(r - 1) is taken at 1 where own effort is 0, whose slope is the limit
    win_d1, press, total = csf._win_d1(select(positive, own, 1.0) if concave else own, other,
                                       own_q, xp)
    slope = prize * win_d1 - 1.0
    if xp.live(positive ^ True):
        slope = select(positive, slope,
                       math.inf if concave else prize * press / (total * total) - 1.0)
    return select(press > 0.0, slope, -1.0)


def _lottery(csf, v1: float, v2: float, q_int, xp: Ops = FLOATS):
    """Efforts, cornered flag and no-axis gate of a linear-impact contest,
    for one tie rule or lanes (`xp`, see `Ops`).  Interior efforts are
    v_i v1 v2 / (v1 + v2)^2 less each tie share, scaled by rho = v2 / v1 <= 1
    so no square leaves the normal range.  Where one is negative, (b1(0), 0)
    then (0, b2(0)) are tested, b_i(0) = max(0, sqrt(v_i (1 - q_i)) - 1)
    answering an inactive rival, and accepted when the inactive player's
    payoff slope at zero is nonpositive; (0, 0) is the first when b1(0) = 0."""
    rho = v2 / v1
    scale = rho / (1.0 + rho) ** 2
    x1, x2 = v1 * scale - q_int, v2 * scale - (1.0 - q_int)
    cornered = ((x1 >= 0.0) & (x2 >= 0.0)) ^ True
    if not xp.live(cornered):
        return x1, x2, cornered, (cornered, _no_axis_equilibrium)  # a gate that fails nowhere
    select, zero = xp.select, 0.0 * q_int
    b1, b2 = xp.sqrt(v1 * (1.0 - q_int)) - 1.0, xp.sqrt(v2 * q_int) - 1.0
    b1, b2 = select(b1 > 0.0, b1, 0.0), select(b2 > 0.0, b2, 0.0)
    first = _concave_marginal(csf, v2, 1.0 - q_int, zero, b1, xp) <= CLOSED_FORM_RESIDUAL
    second = xp.live(first ^ True) and (  # False where every first candidate holds
        _concave_marginal(csf, v1, q_int, zero, b2, xp) <= CLOSED_FORM_RESIDUAL)
    x1, x2 = select(cornered, select(first, (b1, zero), (zero, b2)), (x1, x2))
    return x1, x2, cornered, (cornered & ((first | second) ^ True), _no_axis_equilibrium, b1, b2)


def _log_impact_foc(g1, g2, log_rv1, log_rv2, c, log_head1, log_head2, xp: Ops = FLOATS):
    """First-order conditions of a power-impact contest in g_i = log(x_i^r).

    G_i = log(r v_i) - c g_i + log a_i - 2 log T is the log of marginal
    benefit over marginal cost, with c = (1 - r) / r, f_i = e^(g_i),
    T = f1 + f2 + 1, a1 = f2 + (1 - q1) and a2 = f1 + q1 (the log heads are
    log(1 - q1) and log(q1)).  Returns the rows G1, G2, J11, J12, J21, J22,
    S1, S2: G, its exact Jacobian (row-major) and each G_i's summed term
    magnitudes, the scale of its rounding error.  One tie rule takes math's
    `exp` and `logaddexp` on floats, lanes NumPy's on arrays (`xp`).
    Every exponential has a nonpositive argument, so nothing overflows.
    """
    exp, logaddexp = xp.exp, xp.logaddexp
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


def _concave_newton(csf, v1: float, v2: float, q_int, xp: Ops = FLOATS):
    """Log-impacts (g1, g2) of the interior equilibrium of a power-impact
    contest with exponent below one, for one tie rule or lanes (`xp`, see `Ops`).

    Newton's method on `_log_impact_foc` from g_i = r log(v_i / 4), with
    backtracking on the squared residual norm, for at most `MAX_ITERATIONS`
    steps; a lane stops at the rounding floor, at a singular Jacobian or
    when backtracking fails.  The caller checks the efforts e^(g_i / r) and
    their residuals in effort space.
    """
    select, live, r = xp.select, xp.live, csf.r
    consts = (math.log(r) + math.log(v1), math.log(r) + math.log(v2), (1.0 - r) / r,
              xp.log(1.0 - q_int), xp.log(q_int), xp)
    zero = 0.0 * q_int
    g1, g2 = zero + r * math.log(v1 / 4.0), zero + r * math.log(v2 / 4.0)
    state, moving = (g1, g2, *_log_impact_foc(g1, g2, *consts)), True
    for _ in range(MAX_ITERATIONS):
        g1, g2, G1, G2, J11, J12, J21, J22, S1, S2 = state
        det = J11 * J22 - J12 * J21
        at_rounding_floor = (abs(G1) <= 4.0 * _EPS * S1) & (abs(G2) <= 4.0 * _EPS * S2)
        moving = moving & (det != 0.0) & (at_rounding_floor ^ True)
        if not live(moving):
            break
        d1, d2 = (G1 * J22 - G2 * J12) / det, (J11 * G2 - J21 * G1) / det
        norm, searching = G1 * G1 + G2 * G2, moving
        for halvings in range(40):
            t = 0.5**halvings
            n1, n2 = g1 - t * d1, g2 - t * d2
            trial = (n1, n2, *_log_impact_foc(n1, n2, *consts))
            done = searching & (trial[2] ** 2 + trial[3] ** 2 <= (1.0 - 1e-4 * t) * norm)
            state = select(done, trial, state) if live(done ^ True) else trial
            searching = searching ^ done  # done lanes are searching ones
            if not live(searching):
                break
        moving = moving ^ searching  # backtracking failed
    return state[0], state[1]


def _newton_efforts(csf, v1: float, v2: float, q_int, xp: Ops = FLOATS):
    """Efforts e^(g_i / r) of `_concave_newton`, and their underflow gate."""
    r = csf.r
    g1, g2 = _concave_newton(csf, v1, v2, q_int, xp)
    x1, x2 = xp.exp(g1 / r), xp.exp(g2 / r)
    return x1, x2, ((x1 < _TINY) | (x2 < _TINY), _effort_underflow, g1, g2, r)


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
        _, _, J11, J12, J21, J22, _, _ = _log_impact_foc(
            g1, g2, math.log(r * vals.v1), math.log(r * vals.v2), (1.0 - r) / r,
            FLOATS.log(1.0 - q1), FLOATS.log(q1))
        dG1, dG2 = -1.0 / (math.exp(g2) + (1.0 - q1)), 1.0 / (math.exp(g1) + q1)
        det = J11 * J22 - J12 * J21 or math.nan  # singular: sign unknown, so uncertified
        dg1, dg2 = (J12 * dG2 - J22 * dG1) / det, (J21 * dG1 - J11 * dG2) / det
        slope = (x1 * dg1 + x2 * dg2) / r
    return -slope if vals.swapped else slope


def _concave(csf, vals, q_int, xp: Ops):
    """Equilibrium of a concave-impact contest with linear cost.

    Linear impact admits a closed form: the classic lottery efforts shifted
    down by each player's own tie share.  When that shift drives an effort
    negative, the axis profiles are tested in closed form and the first
    mutual best response is returned (otherwise `NoEquilibriumError`).
    Concave impact with exponent below one keeps both players active; the
    Newton solution in log-impact coordinates fails with `ConvergenceError`
    if an effort underflows double precision, and the entry points accept it
    only if both effort-space residuals are within `ITERATIVE_RESIDUAL`.
    """
    if csf.r < 1.0:
        x1, x2, gate = _newton_efforts(csf, vals.v1, vals.v2, q_int, xp)
        return x1, x2, False, SolveMethod.FOC_SOLVE, (gate,)
    x1, x2, cornered, gate = _lottery(csf, vals.v1, vals.v2, q_int, xp)
    return x1, x2, cornered, SolveMethod.CLOSED_FORM, (gate,)


def _concave_residuals(csf, v1, v2, q, x1, x2, xp: Ops):
    """No effort ratio or gap, and each player's payoff slope in own effort,
    in the caller's labels."""
    return (None, _concave_marginal(csf, v1, q, x1, x2, xp),
            _concave_marginal(csf, v2, 1.0 - q, x2, x1, xp))


# (route, residuals) per family kind, each written once against the primitives
# `xp` (see `Ops`): `solve` runs them on `FLOATS`, `solve_lanes` on `LANES`.
# Routes solve stronger-player-first: they take (csf, vals, q_int, xp) and
# return the stronger and the weaker player's efforts, the cornered flag, the
# method and the route's gates, which only the entry points apply.  The
# residuals take (csf, v1, v2, q, x1, x2, xp) in the caller's labels and return
# (beta, r1, r2).
_ROUTES = {
    "ratio": (_ratio, _ratio_residuals),
    "diff": (_diff, _diff_residuals),
    "concave": (_concave, _concave_residuals),
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
    """Equilibrium of a contest, by its family class's route on one tie rule.

    Validates that the cost technology matches the one the family's theory
    is stated under (linear for ratio and concave classes, half-quadratic
    for the difference class); other pairings have no solver and raise.
    A ratio family outside its closed-form precondition raises unless
    `force` is given, in which case a warning is attached instead.
    """
    (route, residuals), vals, q_int, warnings = _prologue(spec, spec.q, force, audited)
    strong, weak, cornered, method, gates = route(spec.csf, vals, q_int, FLOATS)
    _raise_first(*gates)
    x1, x2 = _user_order(vals, strong, weak)
    beta, r1, r2 = residuals(spec.csf, spec.v1, spec.v2, spec.q, x1, x2, FLOATS)
    if method is SolveMethod.FOC_SOLVE:
        _raise_first(_residual_gate(x1, x2, r1, r2))
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
    (route, residuals), vals, q_int, warnings = _prologue(spec, q_user, force, audited)
    failed = np.zeros(q_user.size, dtype=bool)
    # log(0), stopped iterative lanes, failing lanes' efforts and their unused orders
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        strong, weak, cornered, method, gates = route(spec.csf, vals, q_int, LANES)
        for failing, *_ in gates:
            failed |= failing
        # a failed lane takes efforts (1, 1), which keep its unused residuals finite
        x1, x2 = _user_order(vals, np.where(failed, 1.0, strong), np.where(failed, 1.0, weak))
        beta, r1, r2 = residuals(spec.csf, spec.v1, spec.v2, q_user, x1, x2, LANES)
    if method is SolveMethod.FOC_SOLVE:
        gates += (_residual_gate(x1, x2, r1, r2),)
    negative = ((x1 >= 0.0) & (x2 >= 0.0)) ^ True
    errors = _lane_errors(*gates, (negative, _negative_efforts, x1, x2))  # the route's gates first
    cornered = np.zeros(q_user.size, dtype=bool) | cornered  # routes that never corner give False
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
