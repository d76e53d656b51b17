"""Pure-strategy equilibrium solvers for the three contest classes.

Ratio-form contests (linear cost) admit a closed form: both efforts share the
factor beta * z_q'(beta) at beta = v1/v2.  Difference-form contests
(quadratic cost) reduce to one root for the equilibrium effort gap, below
2048 as z' <= k e^-theta, found by safeguarded Newton-bisection on the
analytic z' and z'', first on its log past 4 (a gap above 4e, as z' <= 1/e),
where log z' is nearly linear; each effort is then prize times slope.
Concave-impact contests solve the two first-order conditions directly:
analytically when the impact is linear, where the contest has exactly one
equilibrium (see `_lottery`), and otherwise by Newton's method with
backtracking in log efforts y_i = log x_i.

`solve(spec)` is the one way in for one tie rule, `solve_lanes(spec, qs)` for
many.  Each runs one prologue: it checks family kind, the audited
conditions and a ratio form's prize ratio once, takes the stronger player's
tie share(s) from `Valuations.tie_share` and picks the family kind's route in
`_ROUTES`.  Each family kind has one route, and each solver step one body,
written against the primitives `families.Ops` and run by both entry points,
which choose the instance: `solve` `FLOATS`, cheaper for one tie rule than
array code, `solve_lanes` `LANES` over q, one lane per tie rule, each
iterative lane stopping on its own and then holding its values.  Routes solve
stronger-player-first and return their acceptance tests as gates, which only
the entry points apply, and nothing else: `solve` raises the first failing
gate's error, `solve_lanes` gives each failing lane the error of the first gate
it fails.  Each entry point then maps the efforts to the caller's labels by
`Valuations.in_order`, forms beta by the route's operator (`solve_route`, for
one tie rule) and first-order residuals only where read: `solve` returns an
`Equilibrium`, `solve_lanes` arrays (`Lanes`) with each failing lane's error.
Routes call only the families' unchecked kernels, on the same primitives;
`solve_beta`, the one raw-input helper, is a difference-form gap root.

An `Equilibrium` carries per-player first-order residuals evaluated at the
returned profile, corner flags, and any warnings (notably
`UNCHECKED_ASSUMPTIONS_WARNING` where the family's audit fails at the larger
prize).  The effort-gap residual target and the iteration budget are the
module constants below, shared by both instances and read at call time; a
concave Newton solve is accepted at its own rounding floor, which scales with
the terms of its first-order conditions (see `_concave_newton`).
"""
from __future__ import annotations

import enum
import functools
import math
import operator
import sys
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .core import ContestSpec, JsonRecord, Valuations, pair_value, q_value
from .errors import ContestError, ConvergenceError, DomainError, ValidationError
from .families import FLOATS, LANES, Ops, q_array

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min

BETA_RESIDUAL = 1e-12
"""Accepted effort-gap residual, relative to max(1, v1 - v2)."""

MAX_ITERATIONS = 100
"""Step budget of the gap root and of the concave Newton solve."""

UNCHECKED_ASSUMPTIONS_WARNING = (
    "the audited regularity conditions fail at the larger prize; the solution "
    "formula may not give an equilibrium, so confirm it with the grid oracle")


class SolveMethod(enum.Enum):
    CLOSED_FORM = "closed_form"
    ROOT_FIND = "root_find"
    FOC_SOLVE = "foc_solve"


@dataclass(frozen=True)
class Equilibrium(JsonRecord):
    """A pure-strategy equilibrium profile in the caller's player labels.

    `beta` is the effort ratio x1/x2 for ratio-form contests, the effort gap
    x1 - x2 for difference-form contests, and None for concave contests
    (which have no scalar reduction).  `method` names the route: CLOSED_FORM
    for ratio-form and linear-impact contests, cornered ones included,
    ROOT_FIND for difference-form contests and FOC_SOLVE for concave impact
    below linear.  `residuals` are the first-order residuals per player at
    the returned profile: interior players should be at machine-level zeros;
    a cornered player reports the payoff slope at zero effort instead, at
    most 0 to rounding (see `_lottery`).
    """

    x1: float
    x2: float
    beta: float | None
    method: SolveMethod
    residuals: tuple[float, float]
    corner_flags: tuple[bool, bool] = (False, False)
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        try:
            if not (self.x1 >= 0.0 and self.x2 >= 0.0):
                raise ValidationError(f"efforts must be >= 0, got ({self.x1}, {self.x2})")
            if len(self.residuals) != 2 or len(self.corner_flags) != 2:
                raise ValidationError("residuals and corner_flags must have one entry per player")
        except TypeError:  # a field of the wrong type: a pair by its own check, else an effort
            pair_value(self.residuals, "residuals")
            pair_value(self.corner_flags, "corner_flags")
            raise ValidationError(f"x1 and x2 must be real numbers, got ({self.x1!r}, {self.x2!r})")

    @property
    def total(self) -> float:
        return self.x1 + self.x2


def _equilibrium(x1: float, x2: float, beta, residuals, method: SolveMethod,
                 warnings: tuple[str, ...]) -> Equilibrium:
    """A route's output as an `Equilibrium` labelled with the route's method (a
    cornered linear-impact profile is closed form too): only concave profiles
    (`beta` None) flag their zero efforts."""
    return Equilibrium(
        x1=x1, x2=x2, beta=beta, method=method, residuals=residuals,
        corner_flags=(x1 == 0.0, x2 == 0.0) if beta is None else (False, False),
        warnings=warnings)


@dataclass(frozen=True)
class Lanes:
    """One contest at the tie rules `q`, one array entry per lane.

    The route solves stronger-player-first on the lane instance; `solve_lanes` applies its
    gates, maps its efforts to the caller's labels and forms `beta` there (None for concave
    contests); `residual_step` forms the residuals on first read.  `errors` maps each failing
    lane, whose efforts are the stand-ins (1, 1), to its scalar solve's error.
    """

    q: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    beta: np.ndarray | None
    method: SolveMethod
    warnings: tuple[str, ...]
    errors: dict[int, ContestError]
    residual_step: Callable[[], tuple[np.ndarray, np.ndarray]] = field(repr=False)

    @functools.cached_property
    def residuals(self) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # as `solve_lanes`
            return self.residual_step()

    def equilibrium(self, i: int) -> Equilibrium:
        """Lane i, which solved, as the `Equilibrium` its scalar solve returns."""
        return _equilibrium(
            float(self.x1[i]), float(self.x2[i]), None if self.beta is None else float(self.beta[i]),
            (float(self.residuals[0][i]), float(self.residuals[1][i])), self.method, self.warnings)


# Errors shared by both instances of the routes, so a lane fails as its scalar
# solve does.
def _ratio_range_error(slope: float, underflow) -> ConvergenceError:
    side = "underflow" if underflow else "overflow"
    return ConvergenceError(f"closed-form efforts {side} double precision (slope {slope})")


def _gap_residual(resid: float, limit: float) -> ConvergenceError:
    return ConvergenceError(f"effort-gap residual {resid:.3e} exceeds {limit:.3e}")


def _effort_underflow(y1: float, y2: float, r: float) -> ConvergenceError:
    return ConvergenceError(f"an equilibrium effort underflows double precision "
                            f"(log-impacts {r * y1:.6g}, {r * y2:.6g} at r = {r})")


def _newton_residual(y1: float, y2: float, r: float) -> ConvergenceError:
    return ConvergenceError(f"Newton solve did not reach the rounding floor within "
                            f"{MAX_ITERATIONS} iterations (log-impacts {r * y1:.6g}, "
                            f"{r * y2:.6g} at r = {r})")


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


def _reordered(first_ok, first, second, xp: Ops):
    """`first` where `first_ok` holds and `second()` elsewhere (`xp`, see `Ops`):
    a product is formed in a second order only where its first order leaves
    the normal range, so every other result keeps its bits."""
    return xp.select(first_ok, first, second()) if xp.live(first_ok ^ True) else first


def _ratio_range(vals: Valuations, slope, xp: Ops):
    """Efforts and range gate of a ratio closed form at slope z_q'(beta): a
    subnormal slope or weak effort has too few bits for a rounding-level
    residual, and each effort v_i * beta * slope, formed as v_i * (beta * slope)
    where that order overflows, can overflow at finite prizes.  As v2 <= v1 and
    rounding is monotone, the weak effort overflows, in either order, only where
    the strong one does, so the strong effort's test and gate serve both.  A NaN
    slope (vesperoni-ratio's inf * 0 where r k overflows and u^k underflows)
    fails the underflow test, written so that NaN does not pass it."""
    beta = vals.beta
    strong, weak = vals.v1 * beta * slope, vals.v2 * beta * slope
    over = strong == math.inf
    if xp.live(over):
        strong = xp.select(over, vals.v1 * (beta * slope), strong)
        weak = xp.select(weak == math.inf, vals.v2 * (beta * slope), weak)
        over = strong == math.inf
    underflow = ((slope >= _TINY) & (weak >= _TINY)) ^ True
    return strong, weak, (underflow | over, _ratio_range_error, slope, underflow)


def _ratio(csf, vals, q_int, xp: Ops):
    """Closed-form equilibrium of a ratio-form contest with linear cost: both
    players exert prize * beta * z_q'(beta) at beta = v1/v2."""
    # beta is one float at every tie rule: its shares take the float kernels
    strong, weak, gate = _ratio_range(vals, csf._zp(vals.beta, q_int, FLOATS), xp)
    return strong, weak, operator.truediv, SolveMethod.CLOSED_FORM, (gate,)


def _ratio_residuals(csf, v1, v2, q, x1, x2, theta, xp: Ops):
    """First-order residuals in the caller's labels at effort ratio theta.
    Player 2's marginal benefit v2 * z' * theta is formed as v2 * (z' * theta)
    where v2 * z' leaves the normal range."""
    zp = csf._zp(theta, q, xp)
    head = v2 * zp
    r2 = _reordered((head >= _TINY) & (head * theta != math.inf), head * theta / x2 - 1.0,
                    lambda: v2 * (zp * theta) / x2 - 1.0, xp)
    return v1 * zp / x2 - 1.0, r2


def _safeguarded_root(fdf, lo, hi, x, at_x, stepping, xp: Ops = FLOATS):
    """Root of f on a bracket with f(lo) <= 0 < f(hi), from x in it, given
    fdf(x) = (f, f', z), z carried along, and at_x = fdf(x), for one tie rule
    or lanes (`xp`, see `Ops`); only where `stepping` holds does x move.

    Newton steps while they land strictly inside the bracket and shrink at
    least as fast as bisection, bisection otherwise (`rtsafe`, Numerical
    Recipes 9.4).  Stops at an exact zero, after a step below 1e-12 relative
    to x (further steps only chase roundoff in f), or after `MAX_ITERATIONS`
    steps; returns the last point and its f and z values.
    """
    select, live = xp.select, xp.live
    fx, dfx, zx = at_x
    step_old = step = hi - lo
    stepping = stepping & (fx != 0.0)
    for _ in range(MAX_ITERATIONS):
        if not live(stepping):
            break
        lo, hi = select(fx < 0.0, (x, hi), (lo, x))
        bisect = ((((x - hi) * dfx - fx) * ((x - lo) * dfx - fx) >= 0.0)
                  | (abs(2.0 * fx) > abs(step_old * dfx)))
        half, newton = 0.5 * (hi - lo), fx / select(bisect, 1.0, dfx)  # f' = 0 bisects
        step_old, (step, moved) = step, select(bisect, (half, lo + half), (newton, x - newton))
        x = select(stepping, moved, x)  # a stopped lane holds
        fx, dfx, zx = fdf(x)
        stepping = stepping & (fx != 0.0) & (abs(step) > 1e-12 * abs(x))  # a NaN step: x NaN for good
    return x, fx, zx


def solve_beta(csf, v, q) -> float:
    """Equilibrium effort gap of a difference-form contest at prizes `v` and tie rule `q`:
    the stronger player's gap, >= 0 and exactly 0.0 for equal prizes.  Checks its inputs,
    then finds the root below 2048 and gates its residual as `solve` does (see `_gap_root`)."""
    if getattr(csf, "kind", None) != "diff":
        raise ValidationError("solve_beta requires a difference-form family")
    vals = v if isinstance(v, Valuations) else Valuations(*pair_value(v, "prizes"))
    gap = vals.v1 - vals.v2
    root, _, resid = _gap_root(csf, gap, vals.tie_share(q_value(q)))
    _raise_first(_gap_gate(gap, resid))
    return root


def _gap_root(csf, gap: float, q_int, xp: Ops = FLOATS):
    """The root of theta = gap * z_q'(theta) for a prize gap >= 0 and internal
    tie shares, for one tie rule or lanes (`xp`, see `Ops`): the root (at
    least 0 unless NaN), z_q' there and its residual.

    The bounds 1, 2, 4, ..., 2048 are tried until f = theta - gap z_q' is ahead,
    each bound's f from one float's shares, mixed per lane by q: every lane behind
    has its hi there, and a lane ahead stays so, its f at its hi never changing.
    It is by 2048 for every finite gap and k: z_q' <= k e^-theta on theta >= 0
    (jia: u ub <= ub <= k e^-theta, w wb <= w <= e^-theta; vesperoni: s^k sb and
    s sb^k are at most sb <= e^-theta, and z_q' is k times their mix), so f(2048)
    >= 2048 - gap k e^-2048 > 0 as gap k < e^1420; the kernels read z_q' as 0 from
    theta = 746, where e^-theta rounds to 0, so ten doublings suffice.
    `_safeguarded_root` then runs on f from the last bound behind, lo, handed its
    f, f' and z'.  Where lo >= 4 (a gap above 4e, as z_q' <= 1/e), the root lies in
    z_q''s exponential tail near log(gap), where a Newton step on f gains about one
    unit of theta: it runs first on g = log(theta) - log(gap z_q'), nearly linear
    there, from lo's values, other lanes holding lo, where the kernels give lo's
    bits, and finishes on f from g's root and its values; a lane stops in either
    where its Newton step would leave theta in place."""
    def fdf(theta, ops=xp):
        zp, zpp = csf._zslopes(theta, q_int, ops)
        return theta - gap * zp, 1.0 - gap * zpp, zp

    lo, hi = 0.0 * q_int, 0.0 * q_int + 1.0  # floats for one tie rule, arrays for lanes
    at_hi = fdf(1.0, FLOATS)
    ahead = at_hi[0] > 0.0
    at_lo = fdf(0.0, FLOATS) if xp.live(ahead) else at_hi  # read where the first is ahead
    for bound in (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0):
        if not xp.live(ahead ^ True):  # every lane is ahead, as all are by 2048 (see above)
            break
        lo, hi, *at_lo = xp.select(ahead, (lo, hi, *at_lo), (hi, 2.0 * hi, *at_hi))
        at_hi = fdf(bound, FLOATS)
        ahead = ahead | (at_hi[0] > 0.0)
    x, at_x, stepping, tail = lo, at_lo, True, lo >= 4.0
    if xp.live(tail):
        def stays(theta, f, df):  # where a Newton step on f leaves theta in place
            return theta - f / xp.select(df > 0.0, df, math.nan) == theta
        # g (0 where it stays), g' = 1/theta - z''/z' and f's values; where gap z'
        # underflows to 0, g is +inf and g' finite, so that step bisects
        def in_logs(theta, f, df, zp):
            g = xp.log(theta) - xp.log(gap * zp)
            dg = 1.0 / theta + (df - 1.0) / (gap * zp + (zp == 0.0))
            return xp.select(stays(theta, g, dg), 0.0, g), dg, (f, df, zp)
        x, _, at_x = _safeguarded_root(lambda theta: in_logs(theta, *fdf(theta)), lo, hi, lo,
                                       in_logs(lo, *at_lo), tail, xp)
        stepping = (tail & stays(x, *at_x[:2])) ^ True  # where f's stays, f is final
    root, resid, slope = _safeguarded_root(fdf, lo, hi, x, at_x, stepping, xp)
    return root, slope, resid


def _gap_gate(gap: float, resid):
    """A `_gap_root`'s gate: its residual within `BETA_RESIDUAL` * max(1, gap)."""
    limit = BETA_RESIDUAL * max(1.0, gap)
    return (abs(resid) <= limit) ^ True, _gap_residual, resid, limit


def _diff(csf, vals, q_int, xp: Ops):
    """Equilibrium of a difference-form contest with quadratic cost: each effort
    is prize * z_q'(gap) at the equilibrium gap, as `_gap_root` last evaluated
    it, so the first-order conditions are exactly v_i * z_q'(gap) = x_i."""
    gap = vals.v1 - vals.v2
    _, slope, resid = _gap_root(csf, gap, q_int, xp)
    return (vals.v1 * slope, vals.v2 * slope, operator.sub, SolveMethod.ROOT_FIND,
            (_gap_gate(gap, resid),))


def _diff_residuals(csf, v1, v2, q, x1, x2, theta, xp: Ops):
    """First-order residuals v_i * z_q'(theta) - x_i in the caller's labels at
    effort gap theta."""
    zp = csf._zp(theta, q, xp)
    return v1 * zp - x1, v2 * zp - x2


def _lottery(v1: float, v2: float, q_int, xp: Ops = FLOATS):
    """Efforts and cornered flag of the one equilibrium of a linear-impact
    contest, for one tie rule or lanes (`xp`, see `Ops`).  Interior efforts
    are v_i v1 v2 / (v1 + v2)^2 less each tie share, scaled by rho = v2 / v1
    <= 1 so no square leaves the normal range.  Where one is negative, it is
    (b1, 0) where b1 > 0 and the interior x2 <= 0, else (0, max(0, b2)), with
    b_i = sqrt(v_i (1 - q_i)) - 1 answering an inactive rival.

    Proof, by shares (Szidarovszky and Okuguchi, GEB 18, 1997; Cornes and
    Hartley, Econ. Theory 26, 2005).  With y_i = x_i + q_i, q1 + q2 = 1 and
    Y = y1 + y2 >= 1, player i's payoff v_i y_i / Y - x_i has slope
    v_i y_j / Y^2 - 1, nonincreasing in x_i: it is concave (v_i - x_i,
    answered by 0, where y_j = 0), so the equilibria are the profiles where
    each active player's slope is 0 and each inactive one's <= 0.  At an
    aggregate Y that reads y_i = max(q_i, Y - Y^2 / v_i), a share s_i(Y) =
    max(q_i / Y, 1 - Y / v_i), and the equilibria are the Y with
    s1 + s2 = 1.  Each s_i is nonincreasing, strictly so where q_i > 0 (true
    of some i); the sum is at least q1 + q2 = 1 at Y = 1 and tends to 0, so
    exactly one Y solves it: there is exactly one equilibrium.  Each player
    there is active on its first-order condition or inactive, so it is the
    interior profile, (b1, 0) or (0, max(0, b2)).  Which one is a sign: at
    (b1, 0) with b1 > 0, player 1's condition v1 q2 / Y^2 = 1 gives
    Y = b1 + 1 = sqrt(v1 q2), and player 2 is idle iff its would-be active
    share is at most its head, Y - Y^2 / v2 <= q2, that is
    sqrt(v1 q2) <= q2 (v1 + v2) / v2, v1 v2^2 <= (v1 + v2)^2 q2, the interior
    x2 <= 0.  At b1 <= 0 the first axis profile is (0, 0), which holds iff
    b2 <= 0, so (0, max(0, b2)) is the equilibrium wherever (b1, 0) is not."""
    rho = v2 / v1
    scale = rho / (1.0 + rho) ** 2
    x1, x2 = v1 * scale - q_int, v2 * scale - (1.0 - q_int)
    cornered = ((x1 >= 0.0) & (x2 >= 0.0)) ^ True
    if not xp.live(cornered):
        return x1, x2, cornered
    select, zero = xp.select, 0.0 * q_int
    b1, b2 = xp.sqrt(v1 * (1.0 - q_int)) - 1.0, xp.sqrt(v2 * q_int) - 1.0
    first, b2 = (b1 > 0.0) & (x2 <= 0.0), select(b2 > 0.0, b2, 0.0)
    x1, x2 = select(cornered, select(first, (b1, zero), (zero, b2)), (x1, x2))
    return x1, x2, cornered


def _log_impact_foc(y1, y2, log_rv1, log_rv2, r, log_head1, log_head2, xp: Ops = FLOATS):
    """First-order conditions of a power-impact contest in log efforts y_i = log x_i.

    G_i = log(r v_i) - c y_i + log a_i - 2 log T is the log of marginal benefit
    over marginal cost, with c = 1 - r, f_i = e^(r y_i) = x_i^r, T = f1 + f2 + 1,
    a1 = f2 + (1 - q1) and a2 = f1 + q1 (the log heads are log(1 - q1) and
    log(q1)).  Returns the rows G1, G2, J11, J12, J21, J22, S1, S2: G, its exact
    Jacobian in y (row-major) and each G_i's summed term magnitudes, the scale of
    its rounding error.  One tie rule takes math's `exp` and `logaddexp` on
    floats, lanes NumPy's on arrays (`xp`).  Every exponential has a nonpositive
    argument and every Jacobian entry is at most 2 in magnitude, so nothing overflows.
    """
    exp, logaddexp, c, two_r = xp.exp, xp.logaddexp, 1.0 - r, 2.0 * r
    g1, g2 = r * y1, r * y2  # the log-impacts log f_i
    log_t = logaddexp(logaddexp(g1, g2), 0.0)
    log_a1 = logaddexp(g2, log_head1)
    log_a2 = logaddexp(g1, log_head2)
    two_log_t, c_y1, c_y2 = 2.0 * log_t, c * y1, c * y2
    two_rs1, two_rs2 = two_r * exp(g1 - log_t), two_r * exp(g2 - log_t)
    return (log_rv1 - c_y1 + log_a1 - two_log_t, log_rv2 - c_y2 + log_a2 - two_log_t,
            -c - two_rs1, r * exp(g2 - log_a1) - two_rs2,
            r * exp(g1 - log_a2) - two_rs1, -c - two_rs2,
            abs(log_rv1) + abs(c_y1) + abs(log_a1) + two_log_t,
            abs(log_rv2) + abs(c_y2) + abs(log_a2) + two_log_t)


def _log_impact_consts(r: float, v1: float, v2: float, q_int, xp: Ops):
    """The arguments of `_log_impact_foc` after (y1, y2), at tie share(s) q_int."""
    return (math.log(r) + math.log(v1), math.log(r) + math.log(v2), r,
            xp.log(1.0 - q_int), xp.log(q_int), xp)


def _concave_newton(csf, v1: float, v2: float, q_int, xp: Ops = FLOATS):
    """Log efforts (y1, y2) of the interior equilibrium of a power-impact
    contest with exponent below one, for one tie rule or lanes (`xp`, see `Ops`),
    and whether the returned state is at the rounding floor.

    Newton's method on `_log_impact_foc` from y_i = log v_i - log 4, with
    backtracking on the squared residual norm, for at most `MAX_ITERATIONS`
    steps; a lane stops at the rounding floor, |G_i| <= 4 eps S_i in both rows,
    or when backtracking fails, off it.  The caller gates on the floor flag.
    As y = g / r is linear in the log-impacts g_i = r y_i, the iterates are
    those of Newton in g in exact arithmetic (Newton is affine invariant), but
    r never divides here, so every double r in (0, 1) is solved alike.

    Every step exists.  With s_i = f_i / T, J12 = r f2 (a2 - a1) / (a1 T) and J21 =
    r f1 (a1 - a2) / (a2 T) have opposite signs, so det J = (1 - r + 2r s1)(1 - r + 2r s2)
    - J12 J21 = (1 - r)^2 + 2r (1 - r)(s1 + s2) + r^2 f1 f2 / (a1 a2) adds nonnegative
    terms, (1 - r)^2 >= 2^-106 > 1.2e-32 at every double r < 1; J12 J21 rounds positive
    only where a1 ~ a2 puts both at rounding level, far below J11 J22 >= (1 - r)^2.  As
    every entry is at most 2 in magnitude, det J neither overflows nor is 0 at any r.  So
    -J has a positive diagonal and determinant on R^2, G is one-to-one (Gale and Nikaido,
    Math. Ann. 159, 1965), and as no equilibrium has a zero effort (its marginal impact is
    infinite at a positive rival head, and at (0, 0) one head, 1 - q1 or q1, is >= 1/2),
    the root is the contest's one equilibrium.
    """
    select, live = xp.select, xp.live
    consts, zero = _log_impact_consts(csf.r, v1, v2, q_int, xp), 0.0 * q_int
    y1, y2 = zero + (math.log(v1) - math.log(4.0)), zero + (math.log(v2) - math.log(4.0))
    state, moving = (y1, y2, *_log_impact_foc(y1, y2, *consts)), True
    for steps in range(MAX_ITERATIONS + 1):  # the last pass only reads the last step's floor
        y1, y2, G1, G2, J11, J12, J21, J22, S1, S2 = state
        floor = (abs(G1) <= 4.0 * _EPS * S1) & (abs(G2) <= 4.0 * _EPS * S2)
        moving = moving & (floor ^ True)
        if steps == MAX_ITERATIONS or not live(moving):
            break
        det = J11 * J22 - J12 * J21
        d1, d2 = (G1 * J22 - G2 * J12) / det, (J11 * G2 - J21 * G1) / det
        norm, searching = G1 * G1 + G2 * G2, moving
        for halvings in range(40):
            t = 0.5**halvings
            n1, n2 = y1 - t * d1, y2 - t * d2
            trial = (n1, n2, *_log_impact_foc(n1, n2, *consts))
            done = searching & (trial[2] ** 2 + trial[3] ** 2 <= (1.0 - 1e-4 * t) * norm)
            state = select(done, trial, state) if live(done ^ True) else trial
            searching = searching ^ done  # done lanes are searching ones
            if not live(searching):
                break
        moving = moving ^ searching  # backtracking failed
    return y1, y2, floor


def total_effort_slope(spec: ContestSpec, q: float, x1: float, x2: float) -> float:
    """dR/dq of a concave contest at tie rule q, at equilibrium efforts x1, x2.

    For r < 1, the implicit function theorem on the first-order conditions
    G(y; q1) = 0 of `_log_impact_foc` (internal labels, y_i = log x_i) gives
    dy/dq1 = -J^-1 dG/dq1 with dG/dq1 = (-1/a1, +1/a2), det J > 0 at every y
    (see `_concave_newton`, whose step rule forms J^-1 here too), and
    dR/dq1 = sum_i x_i dy_i/dq1.  For r = 1, R is constant on the
    interior closed form, a lone entrant exerts sqrt(v_i (1 - q_i)) - 1, and
    `_lottery` at q tells which profile the equilibrium is.
    """
    vals, r = spec.valuations, spec.csf.r
    q1 = float(vals.tie_share(q))
    x1, x2 = vals.in_order(float(x1), float(x2))
    if r == 1.0:
        slope, cornered = 0.0, _lottery(vals.v1, vals.v2, q1)[2]
        if cornered and x1 > 0.0:
            slope = -0.5 * math.sqrt(vals.v1 / (1.0 - q1))
        elif cornered and x2 > 0.0:
            slope = 0.5 * math.sqrt(vals.v2 / q1)
    else:
        y1, y2 = math.log(x1), math.log(x2)
        _, _, J11, J12, J21, J22, _, _ = _log_impact_foc(
            y1, y2, *_log_impact_consts(r, vals.v1, vals.v2, q1, FLOATS))
        dG1, dG2 = -1.0 / (math.exp(r * y2) + (1.0 - q1)), 1.0 / (math.exp(r * y1) + q1)
        det = J11 * J22 - J12 * J21
        slope = x1 * ((J12 * dG2 - J22 * dG1) / det) + x2 * ((J21 * dG1 - J11 * dG2) / det)
    return slope * (vals.tie_share(1.0) - vals.tie_share(0.0))  # times dq1/dq = +1 or -1


def _concave(csf, vals, q_int, xp: Ops):
    """Equilibrium of a concave-impact contest with linear cost.

    Linear impact admits a closed form: the classic lottery efforts shifted
    down by each player's own tie share.  When that shift drives an effort
    negative, the one equilibrium is an axis profile, which the closed
    form's own signs pick (see `_lottery`).  Concave impact with exponent
    below one keeps both players active; the Newton solution in log efforts
    fails with `ConvergenceError` if an effort underflows double precision,
    and otherwise if Newton stopped off the rounding floor of its first-order
    conditions (see `_concave_newton`): as the contest has one equilibrium,
    the floor is its whole acceptance test.  Both gates quote the log-impacts
    r y_i, stronger player first.
    """
    if csf.r < 1.0:
        y1, y2, floor = _concave_newton(csf, vals.v1, vals.v2, q_int, xp)
        x1, x2 = xp.exp(y1), xp.exp(y2)
        return x1, x2, None, SolveMethod.FOC_SOLVE, (
            ((x1 < _TINY) | (x2 < _TINY), _effort_underflow, y1, y2, csf.r),
            (floor ^ True, _newton_residual, y1, y2, csf.r))
    x1, x2, _ = _lottery(vals.v1, vals.v2, q_int, xp)
    return x1, x2, None, SolveMethod.CLOSED_FORM, ()


def _concave_residuals(csf, v1, v2, q, x1, x2, beta, xp: Ops):
    """Each player's payoff slope in own effort, prize * `_win_d1` less 1 (`beta` is None),
    in the caller's labels: -1 where the rival's head is 0, as `_win_d1` reads 0 there
    at linear impact, and below it no head is 0, as y in each effort e^(y_i) is never NaN
    (Newton takes only trials whose residual norm falls) and the underflow gate fails x < `_TINY`."""
    return (v1 * csf._win_d1(x1, x2, q, xp) - 1.0,
            v2 * csf._win_d1(x2, x1, 1.0 - q, xp) - 1.0)


# (route, residuals) per family kind, each written once against the primitives
# `xp` (see `Ops`): `solve` runs them on `FLOATS`, `solve_lanes` on `LANES`.
# Routes solve stronger-player-first: they take (csf, vals, q_int, xp) and
# return the stronger and the weaker player's efforts, the operator that forms
# beta from the caller's (x1, x2) (None for concave contests), the method and
# the route's gates, which only the entry points apply.  The residuals take
# (csf, v1, v2, q, x1, x2, beta, xp) in the caller's labels and return (r1, r2).
_ROUTES = {
    "ratio": (_ratio, _ratio_residuals),
    "diff": (_diff, _diff_residuals),
    "concave": (_concave, _concave_residuals),
}


def _prologue(spec: ContestSpec, q_user, force: bool):
    """The routes, prizes, internal tie share(s) and opening warnings of a
    solve at tie rule(s) `q_user`, once the checks that hold at every q pass
    (see `solve`); each route solves under its family's `default_cost`."""
    csf, kind = spec.csf, spec.csf.kind
    if kind not in _ROUTES:
        raise ValidationError(f"no solver for family kind {kind!r}")
    vals, warnings = spec.valuations, ()
    if csf.assumption_excess(vals.v1) > 0.0:  # where the family's audit fails
        if not (force or csf.lemma_precondition_ok):
            raise ValidationError(f"family {csf.name!r} violates its closed-form precondition "
                                  f"({csf.lemma_precondition}); pass force=True (--force on "
                                  "the command line) to evaluate anyway")
        warnings = (UNCHECKED_ASSUMPTIONS_WARNING,)
    if kind == "ratio" and vals.beta == math.inf:
        raise DomainError(f"the ratio of prizes {(spec.v1, spec.v2)} overflows double precision")
    return _ROUTES[kind], vals, vals.tie_share(q_user), warnings


def solve_route(spec: ContestSpec, force: bool = False):
    """`solve`'s route step, raising as it does: x1, x2, beta, method, warnings, residuals."""
    (route, residuals), vals, q_int, warnings = _prologue(spec, spec.q, force)
    strong, weak, index, method, gates = route(spec.csf, vals, q_int, FLOATS)
    _raise_first(*gates)
    x1, x2 = vals.in_order(strong, weak)
    return x1, x2, index and index(x1, x2), method, warnings, residuals


def solve(spec: ContestSpec, *, force: bool = False, audited: bool = False) -> Equilibrium:
    """Equilibrium of a contest, by its family class's route on one tie rule,
    under the family's cost (linear for ratio and concave classes,
    half-quadratic for the difference class).

    Where the family's audit fails at the larger prize, a ratio family raises
    unless `force` is given, and a returned solve carries
    `UNCHECKED_ASSUMPTIONS_WARNING`.  `audited` is accepted and ignored.
    """
    x1, x2, beta, method, warnings, residuals = solve_route(spec, force)
    r1_r2 = residuals(spec.csf, spec.v1, spec.v2, spec.q, x1, x2, beta, FLOATS)
    return _equilibrium(x1, x2, beta, r1_r2, method, warnings)


def solve_lanes(spec: ContestSpec, qs, *, force: bool = False) -> Lanes:
    """The contest at every q in `qs`, as arrays with one lane per q, residuals formed when read.

    A lane fails with its scalar solve's error, that of the first route gate
    it fails.  Errors that hold at every q (malformed `qs`, family kind,
    closed-form precondition, a ratio form's prize ratio) are raised at once.

    No lane needs `Equilibrium`'s check on its efforts, as every lane that
    passes its route's gates has efforts >= 0, none NaN: a difference lane's
    are prize * z' with z' >= 0, and a NaN or infinite z' makes the gap
    residual NaN or +-inf, which fails the gap gate; a ratio lane's NaN slope fails the range
    gate; a concave lane below linear impact takes e^y >= 0 with y never NaN
    (see `_concave_residuals`), and `_lottery` clips a linear-impact lane's.
    """
    q_user = q_array(qs)
    if q_user.ndim != 1:
        raise ValidationError(f"qs must be one-dimensional, got shape {q_user.shape}")
    (route, residuals), vals, q_int, warnings = _prologue(spec, q_user, force)
    failed = np.zeros(q_user.size, dtype=bool)
    # log(0), stopped iterative lanes, failing lanes' efforts and their unused orders
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        strong, weak, index, method, gates = route(spec.csf, vals, q_int, LANES)
        for failing, *_ in gates:
            failed |= failing
        # a failed lane takes efforts (1, 1), which keep its unused residuals finite
        x1, x2 = vals.in_order(np.where(failed, 1.0, strong), np.where(failed, 1.0, weak))
        beta = index and index(x1, x2)
    errors = _lane_errors(*gates) if LANES.live(failed) else {}
    return Lanes(q_user, x1, x2, beta, method, warnings, errors, functools.partial(
        residuals, spec.csf, spec.v1, spec.v2, q_user, x1, x2, beta, LANES))


def solve_many(spec: ContestSpec, qs, *, force: bool = False) -> tuple[Equilibrium, ...]:
    """Equilibria of one contest at each tie rule in `qs` (the q in `spec` is ignored).

    Entry i matches `solve(spec.with_q(qs[i]))` to rounding: same route,
    steps, stop rules, gates, corner flags, warnings and errors.
    `qs` must be a one-dimensional sequence of numbers in [0, 1].  If any
    tie rule fails, the error its scalar solve raises is raised, for the
    smallest failing q.
    """
    lanes = solve_lanes(spec, qs, force=force)
    if lanes.errors:
        raise lanes.errors[min(sorted(lanes.errors), key=lambda i: lanes.q[i])]
    return tuple(map(lanes.equilibrium, range(lanes.q.size)))
