"""Equilibria of one contest at many tie rules, solved as one batch.

`solve_many(spec, qs)` returns what `solve(spec.with_q(q))` returns for each
q, to rounding: same route, steps, stop rules, residual checks, corner
flags, warnings and errors.  Each route runs vectorized over q: family
methods take an array of tie shares, one per lane, and the closed forms are
the functions the scalar routes call.  Every q is a lane: an iterative lane
retires on its own stop rule and the loop ends when no lane is left.

`solve_lanes` returns arrays (`Lanes`), which the designer reads; only
`solve_many` turns lanes into `Equilibrium` objects.

Only the iteration loops exist twice.  A single q stays on the scalar loops
of `equilibrium`, which are cheaper for one lane than array code.  Both
read the solver limits of `equilibrium` at call time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import equilibrium
from .core import ContestSpec
from .equilibrium import (
    _EPS,
    _TINY,
    CORNER_UNIQUENESS_WARNING,
    Equilibrium,
    SolveMethod,
    _checked_kind,
    _diff_closed_form,
    _effort_underflow,
    _gap_residual,
    _negative_efforts,
    _newton_residual,
    _no_axis_equilibrium,
    _opening_warnings,
    _ratio_closed_form,
    _ratio_underflow,
    _ratio_underflows,
    _unbracketed,
    _user_order,
)
from .errors import ContestError, ValidationError
from .families import q_array


def _tie_rules(qs) -> np.ndarray:
    arr = q_array(qs)
    if arr.ndim != 1:
        raise ValidationError(f"qs must be one-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Lanes:
    """One contest at many tie rules, one array entry per lane.

    Fields are those of `Equilibrium` in the caller's labels (`beta` None
    for concave contests); `errors` maps each failing lane, whose entries
    mean nothing, to its scalar solve's error.  A `cornered` lane (a
    corner-adjusted linear impact) is a FOC_SOLVE with the corner warning.
    """

    x1: np.ndarray
    x2: np.ndarray
    beta: np.ndarray | None
    residuals: tuple[np.ndarray, np.ndarray]
    cornered: np.ndarray
    method: SolveMethod
    warnings: tuple[str, ...]
    errors: dict[int, ContestError]

    def checked(self, qs) -> Lanes:
        """These lanes if none failed; else raise the error of the smallest failing q."""
        if self.errors:
            raise self.errors[min(sorted(self.errors), key=lambda i: qs[i])]
        return self

    def equilibrium(self, i: int) -> Equilibrium:
        """Lane i, which solved, as the `Equilibrium` its scalar solve returns."""
        x1, x2 = float(self.x1[i]), float(self.x2[i])
        corner = bool(self.cornered[i])
        return Equilibrium(
            x1, x2, None if self.beta is None else float(self.beta[i]),
            SolveMethod.FOC_SOLVE if corner else self.method,
            (float(self.residuals[0][i]), float(self.residuals[1][i])),
            (x1 == 0.0, x2 == 0.0) if self.beta is None else (False, False),
            self.warnings + (CORNER_UNIQUENESS_WARNING,) if corner else self.warnings)


def _ratio_lanes(csf, vals, q_user, q_int, warnings):
    slope = csf.z_prime(vals.beta, q_int)
    underflow = _ratio_underflows(vals, slope)
    errors = {int(i): _ratio_underflow(float(slope[i])) for i in np.flatnonzero(underflow)}
    # a failed lane takes slope 1, which keeps its unused profile in the family's domain
    x1, x2, beta, r1, r2 = _ratio_closed_form(csf, vals, q_user, np.where(underflow, 1.0, slope))
    return Lanes(x1, x2, beta, (r1, r2), np.zeros(q_int.size, dtype=bool),
                 SolveMethod.CLOSED_FORM, warnings, errors)


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


def _gap_roots(csf, gap: float, q_int: np.ndarray):
    """`solve_beta` for an array of internal tie shares; failing lanes hold their error."""
    n = q_int.size
    if gap == 0.0:
        return np.zeros(n), {}
    lo, hi = np.zeros(n), np.ones(n)
    unbracketed = np.arange(n)
    for _ in range(equilibrium.BRACKET_EXPANSIONS):
        ahead = hi[unbracketed] - gap * csf.z_prime(hi[unbracketed], q_int[unbracketed]) > 0.0
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
        zp, zpp = csf.z_slopes(theta, q_lanes[sub])
        return theta - gap * zp, 1.0 - gap * zpp

    roots = np.zeros(n)
    root, resid = _safeguarded_roots(fdf, lo[lanes], hi[lanes], equilibrium.MAX_ITERATIONS)
    limit = equilibrium.BETA_RESIDUAL * max(1.0, gap)
    for j in np.flatnonzero(~(np.abs(resid) <= limit)):
        errors[int(lanes[j])] = _gap_residual(float(resid[j]), limit)
    roots[lanes] = np.maximum(root, 0.0)
    return roots, errors


def _diff_lanes(csf, vals, q_user, q_int, warnings):
    gap, errors = _gap_roots(csf, vals.v1 - vals.v2, q_int)  # a failed lane's gap is finite
    x1, x2, beta, r1, r2 = _diff_closed_form(csf, vals, q_user, q_int, gap)
    return Lanes(x1, x2, beta, (r1, r2), np.zeros(q_int.size, dtype=bool),
                 SolveMethod.ROOT_FIND, warnings, errors)


def _concave_marginals(csf, prize: float, own_q, own, other):
    """`_concave_marginal` over lanes of efforts and own tie shares."""
    f_other = np.asarray(csf.impact(other), dtype=float)
    press = f_other + (1.0 - own_q)
    out = np.full(own.shape, -1.0)
    moving = (press > 0.0) & (own > 0.0)
    if moving.any():
        out[moving] = prize * csf.win_prob_d1(own[moving], other[moving], own_q[moving]) - 1.0
    at_zero = (press > 0.0) & ~(own > 0.0)
    if csf.r < 1.0:
        out[at_zero] = math.inf
    else:
        total = f_other[at_zero] + 1.0
        out[at_zero] = prize * press[at_zero] / (total * total) - 1.0
    return out


def _lottery_corners(csf, v1: float, v2: float, q_int: np.ndarray):
    """`_lottery_corner` over lanes; a lane with no axis profile holds its error."""
    zero = np.zeros(q_int.size)
    b1 = np.maximum(0.0, np.sqrt(v1 * (1.0 - q_int)) - 1.0)
    b2 = np.maximum(0.0, np.sqrt(v2 * q_int) - 1.0)
    tol = equilibrium.CLOSED_FORM_RESIDUAL
    first = _concave_marginals(csf, v2, 1.0 - q_int, zero, b1) <= tol
    second = ~first & (_concave_marginals(csf, v1, q_int, zero, b2) <= tol)
    errors = {int(i): _no_axis_equilibrium(float(b1[i]), float(b2[i]))
              for i in np.flatnonzero(~first & ~second)}
    return np.where(first, b1, 0.0), np.where(second, b2, 0.0), errors


def _log_impact_focs(g1, g2, log_rv1, log_rv2, c, log_head1, log_head2):
    """`_log_impact_foc` over lanes, as rows G1, G2, J11, J12, J21, J22, S1, S2."""
    log_t = np.logaddexp(np.logaddexp(g1, g2), 0.0)
    log_a1 = np.logaddexp(g2, log_head1)
    log_a2 = np.logaddexp(g1, log_head2)
    s1 = np.exp(g1 - log_t)
    s2 = np.exp(g2 - log_t)
    return np.stack((
        log_rv1 - c * g1 + log_a1 - 2.0 * log_t, log_rv2 - c * g2 + log_a2 - 2.0 * log_t,
        -c - 2.0 * s1, np.exp(g2 - log_a1) - 2.0 * s2,
        np.exp(g1 - log_a2) - 2.0 * s1, -c - 2.0 * s2,
        abs(log_rv1) + np.abs(c * g1) + np.abs(log_a1) + 2.0 * log_t,
        abs(log_rv2) + np.abs(c * g2) + np.abs(log_a2) + 2.0 * log_t,
    ))


def _concave_newtons(csf, v1: float, v2: float, q_int: np.ndarray):
    """`_concave_newton` for an array of internal tie shares; returns g1, g2.

    Every lane starts where the scalar routine does and takes its steps,
    backtracking and stop rules; a lane retires on its own and the loop ends
    when none is left.
    """
    r = csf.r
    with np.errstate(divide="ignore"):
        heads = (np.log(1.0 - q_int), np.log(q_int))
    consts = (math.log(r) + math.log(v1), math.log(r) + math.log(v2), (1.0 - r) / r)
    g1 = np.full(q_int.size, r * math.log(v1 / 4.0))
    g2 = np.full(q_int.size, r * math.log(v2 / 4.0))
    foc = _log_impact_focs(g1, g2, *consts, *heads)
    live = np.arange(q_int.size)
    for _ in range(equilibrium.MAX_ITERATIONS):
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
            trial = _log_impact_focs(n1, n2, *consts, heads[0][lanes], heads[1][lanes])
            done = trial[0] ** 2 + trial[1] ** 2 <= (1.0 - 1e-4 * t) * norm[search]
            g1[lanes[done]], g2[lanes[done]] = n1[done], n2[done]
            foc[:, lanes[done]] = trial[:, done]
            search = search[~done]
            if search.size == 0:
                break
        live = np.delete(live, search)
    return g1, g2


def _concave_lanes(csf, vals, q_user, q_int, warnings):
    v1, v2 = vals.v1, vals.v2
    n = q_int.size
    errors: dict[int, ContestError] = {}
    cornered = np.zeros(n, dtype=bool)
    if csf.r == 1.0:
        scale = v1 * v2 / (v1 + v2) ** 2
        x1i, x2i = v1 * scale - q_int, v2 * scale - (1.0 - q_int)
        cornered = ~((x1i >= 0.0) & (x2i >= 0.0))
        at = np.flatnonzero(cornered)
        x1i[at], x2i[at], corner_errors = _lottery_corners(csf, v1, v2, q_int[at])
        errors = {int(at[j]): exc for j, exc in corner_errors.items()}
        method = SolveMethod.CLOSED_FORM
    else:
        g1, g2 = _concave_newtons(csf, v1, v2, q_int)
        x1i, x2i = np.exp(g1 / csf.r), np.exp(g2 / csf.r)
        for i in np.flatnonzero(np.minimum(x1i, x2i) < _TINY):
            errors[int(i)] = _effort_underflow(float(g1[i]), float(g2[i]), csf.r)
        method = SolveMethod.FOC_SOLVE

    failed = np.zeros(n, dtype=bool)
    failed[list(errors)] = True
    # a failed lane takes efforts (1, 1), which keep its unused residuals finite
    x1i, x2i = np.where(failed, 1.0, x1i), np.where(failed, 1.0, x2i)
    r1i = _concave_marginals(csf, v1, q_int, x1i, x2i)
    r2i = _concave_marginals(csf, v2, 1.0 - q_int, x2i, x1i)
    if csf.r < 1.0:
        tol = equilibrium.ITERATIVE_RESIDUAL
        for i in np.flatnonzero(~failed & ~((np.abs(r1i) <= tol) & (np.abs(r2i) <= tol))):
            errors[int(i)] = _newton_residual(
                float(x1i[i]), float(x2i[i]), float(r1i[i]), float(r2i[i]))
    return Lanes(*_user_order(vals, x1i, x2i), None, _user_order(vals, r1i, r2i), cornered,
                 method, warnings, errors)


_LANE_ROUTES = {"ratio": _ratio_lanes, "diff": _diff_lanes, "concave": _concave_lanes}


def solve_lanes(spec: ContestSpec, qs, *, force: bool, audited: bool) -> Lanes:
    """The contest at every q in `qs`, as arrays with one lane per q.

    A lane fails with its scalar solve's error, the `Equilibrium` check on
    its efforts included.  Errors that hold at every q (family kind, cost,
    closed-form precondition, malformed `qs`) are raised at once.
    """
    kind = _checked_kind(spec)
    q_user = _tie_rules(qs)
    warnings = tuple(_opening_warnings(spec.csf, force, audited))
    vals = spec.valuations
    q_int = 1.0 - q_user if vals.swapped else q_user
    lanes = _LANE_ROUTES[kind](spec.csf, vals, q_user, q_int, warnings)
    for i in np.flatnonzero(~((lanes.x1 >= 0.0) & (lanes.x2 >= 0.0))):
        lanes.errors.setdefault(int(i), _negative_efforts(float(lanes.x1[i]),
                                                          float(lanes.x2[i])))
    return lanes


def solve_many(spec: ContestSpec, qs, *, force: bool = False,
               audited: bool = False) -> tuple[Equilibrium, ...]:
    """Equilibria of one contest at each tie rule in `qs` (the q in `spec` is ignored).

    Entry i matches `solve(spec.with_q(qs[i]))` to rounding (see the module
    docstring).  `qs` must be a one-dimensional sequence of numbers in
    [0, 1].  If any tie rule fails, the error its scalar solve raises is
    raised, for the smallest failing q.
    """
    q = _tie_rules(qs)
    lanes = solve_lanes(spec, q, force=force, audited=audited).checked(q)
    return tuple(lanes.equilibrium(i) for i in range(q.size))
