"""Contest success function families with ties.

Ratio-form and difference-form families reduce the outcome distribution to
one-dimensional functions of theta (the effort ratio x1/x2, respectively the
effort difference x1 - x2):

    p(theta)    probability that player 1 wins outright,
    p0(theta)   tie probability, symmetric under relabeling:
                p0(theta) = p0(1/theta) (ratio) or p0(-theta) (difference),
    z_q(theta)  = p(theta) + q * p0(theta), player 1's eventual win probability
                under the tie rule q.

Built-in families (registry keys):

    vesperoni-ratio   p = theta^(r k) / (1 + theta^r)^k              r > 0, k >= 1
    jia-ratio         p = theta^r / (theta^r + k)                    r > 0, k >= 1
    vesperoni-diff    p = e^(k theta) / (1 + e^theta)^k              k >= 1
    jia-diff          p = e^theta / (k + e^theta)                    k >= 1
    blavatskyy-power  p_i = x_i^r / (x1^r + x2^r + 1)                0 < r <= 1

First and second derivatives of z_q are analytic: root finding needs
smooth, noise-free evaluations, so finite differences appear only in the test
suite as an oracle; `z_slopes` returns (z_q', z_q'') from one share evaluation;
a difference family states its supremum over theta and q as `curvature_peak`,
and where p0 stops being concave as `tie_inflection`.  Because z_q is affine in
q, the tie probability's slopes are z_1' - z_0' and z_1'' - z_0''.

Every method that takes a tie rule q accepts one tie share (a number or a
`TieRule`) or an array of them, broadcast against the contest states, so one
call evaluates many tie rules.  Public methods return a builtin float for
scalar inputs: they check their arguments, then call private kernels
(`_shares`, `_triple`, `_zp`, `_zslopes`; `_impact`; and `_win_d1`, each
concave payoff slope's one call) that take checked input and the primitives,
nothing more.  The solvers check once on entry and call only kernels.  Each
kernel is written once against the primitives `xp` (`Ops`): the scalar solvers
pass `FLOATS`, whose Python floats get the bits of a one-element array from one
NumPy call per group of powers or exponentials, and the lane solvers and the
public methods pass `LANES`.

One share core serves both reduced forms.  A ratio family is its difference
family read at phi = r log theta (Hirshleifer, Public Choice 63, 1989), so
z_q' = (r / theta) z_d'(phi) and z_q'' = (r / theta^2)(r z_d'' - z_d'), the
latter formed term by term with u + ub = 1, as that difference cancels.  The
cores `_jia_shares` and `_vesperoni_shares` read a = e^(-|phi|) <= 1 and its
side: e^(-|theta|), or theta^-r (theta >= 1) and theta^r, so nothing overflows
and each complement comes from a, never as 1 minus a share: slopes keep full
relative precision where a share approaches one.

All family objects are immutable after construction; every method is pure.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import ContestSpec, CostKind, finite_value, q_value
from .errors import DomainError, ValidationError


def _check_param(name: str, value, low: float, low_inclusive: bool, high: float | None,
                 family: str) -> float:
    out = finite_value(value, f"{family}: parameter {name!r}")
    ok_low = out >= low if low_inclusive else out > low
    if not ok_low or (high is not None and out > high):
        bound = f">= {low}" if low_inclusive else f"> {low}"
        if high is not None:
            bound += f" and <= {high}"
        raise ValidationError(f"{family}: parameter {name!r} must be {bound}, got {out}")
    return out


def float_array(x, name: str) -> np.ndarray:
    """`x` as a float array: the one conversion of an array, naming it if an entry is no number."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be numbers, got {x!r}") from exc


def checked_array(x, name: str, *, positive: bool = False, nonnegative: bool = False):
    """`x` as a float array (`float_array`), checked finite, and > 0 or >= 0
    where asked: the one check of an array of contest states or a grid."""
    arr = float_array(x, name)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    if positive and np.any(arr <= 0.0):
        raise DomainError(f"{name} must be > 0")
    if nonnegative and np.any(arr < 0.0):
        raise DomainError(f"{name} must be >= 0")
    return arr


def q_array(qs) -> np.ndarray:
    """Float array of tie shares, each finite and in [0, 1]."""
    arr = float_array(qs, "tie shares")
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValidationError("every q must be finite and lie in [0, 1]")
    return arr


def _tie_share(q):
    """`q_value` of one tie rule, or `q_array` of a list, tuple or array of them."""
    return q_array(q) if isinstance(q, (np.ndarray, list, tuple)) else q_value(q)


def _ret(value):
    """A 0-d result as a builtin float; any other result as it is."""
    return float(value) if np.ndim(value) == 0 else value


def _logaddexp(a: float, b: float) -> float:
    """log(e^a + e^b) without overflow; either argument may be -inf."""
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


# The primitives each family kernel and solver step is written against once,
# passed as the array API standard passes a namespace.  `FLOATS` runs one tie
# rule on Python floats; `LANES` runs arrays (solver lanes, one per tie rule,
# checked public input) with the IEEE operations of `FLOATS` in the same
# order, so a one-entry array gets a float's bits; a stopped solver lane
# holds its values through `select(c, a, b)`, which is a where c holds and b
# elsewhere, entry by entry for tuples.  `live(c)` is whether c holds anywhere,
# as a bool (a count beats NumPy's `any`); `power(xs, p)` raises each of xs to
# p, floats in one NumPy call; `exp` is math's for floats, `np_exp` NumPy's for
# both; and `log(0.0)` is -inf.
Ops = namedtuple("Ops", "select live sqrt exp log logaddexp power np_exp")
FLOATS = Ops(lambda c, a, b: a if c else b, bool, math.sqrt, math.exp,
             lambda h: math.log(h) if h > 0.0 else -math.inf, _logaddexp,
             lambda xs, p: np.power(xs, p).tolist(),  # a NumPy scalar's tolist is slow
             lambda x: float(np.exp(x)))
LANES = Ops(np.where, lambda c: bool(np.count_nonzero(c)), np.sqrt, np.exp, np.log, np.logaddexp,
            lambda xs, p: [np.power(x, p) for x in xs],  # one call each: no stacking copy
            np.exp)


# sup |p''| of the logistic p = 1 / (1 + e^-theta), where p'' = p (1 - p)(1 - 2p)
# peaks at p = (3 -+ sqrt(3)) / 6, that is at theta = -+log(2 + sqrt(3)).
_LOGISTIC_CURVATURE = math.sqrt(3.0) / 18.0
_LOGISTIC_PEAK = math.log(2.0 + math.sqrt(3.0))


def _jia_shares(a, below, k: float, xp: Ops, complements: bool = True):
    """Jia's u = e^phi / (k + e^phi) and w = u(-phi) as (u, 1 - u, w, 1 - w), or
    as (u, w), at the point a = e^(-|phi|), `below` where phi < 0: 1 - u =
    k / (k + e^phi) and 1 - w = k e^phi / (1 + k e^phi).  A side is selected entry
    by entry, only where lanes hold both: gap roots, above only, select none."""
    if complements:
        ka = k * a
        near_den, far_den = 1.0 + ka, k + a
        near, far = (1.0 / near_den, ka / near_den), (a / far_den, k / far_den)
    else:  # inline: temporaries held to the return slow large grids by about a third
        near, far = (1.0 / (1.0 + k * a),), (a / (k + a),)
    if not xp.live(below):
        return near + far
    if not xp.live(below ^ True):  # every entry below, as a float below is
        return far + near
    return tuple(xp.select(below, f, n) for f, n in zip(far + near, near + far))


def _vesperoni_shares(a, below, k: float, xp: Ops, complements: bool = True):
    """Vesperoni's (s^k, sb, sb^k, s), or (s^k, sb^k), at the point of `_jia_shares`, whose
    shares at k = 1, s and sb = 1 - s, it writes out; floats take both powers in one call."""
    den, one = 1.0 + a, 1.0
    if xp.live(below):
        one, a = xp.select(below, a, 1.0), xp.select(below, 1.0, a)
    s, sb = one / den, a / den
    pk, pm = xp.power((s, sb), k)
    return (pk, sb, pm, s) if complements else (pk, pm)


class _Family:
    """Registry facts every family class declares about itself.

    `name` is the registry key, `kind` the contest class (ratio, diff or
    concave), `constraints` the parameter domain as shown in the CLI help,
    `default_cost` the one cost technology every contest of the family is
    solved, audited and verified under (the one its theory is stated under),
    and `lemma_precondition` the parameter restriction its closed form
    needs ("none" when there is none; it holds iff `lemma_excess` <= 0).
    The parameters are the dataclass fields, whose names the dataclass
    lists in declaration order as `__match_args__`.
    """

    name: ClassVar[str]
    kind: ClassVar[str]
    constraints: ClassVar[str]
    default_cost: ClassVar[CostKind]
    lemma_precondition: ClassVar[str] = "none"
    lemma_excess: ClassVar[float] = 0.0

    @property
    def params(self) -> dict:
        return {name: getattr(self, name) for name in self.__match_args__}

    @property
    def lemma_precondition_ok(self) -> bool:
        return self.lemma_excess <= 0.0

    def assumption_excess(self, v1: float) -> float:
        """How far the family misses the conditions that its audit and the solvers'
        precondition gate decide at larger prize v1: they hold iff it is <= 0."""
        return self.lemma_excess

    def _efforts(self, x1, x2, own_positive: bool = False):
        """Every family's one check of an effort pair: finite, >= 0, then x1 > 0 if asked."""
        x1a, x2a = checked_array(x1, "x1", nonnegative=True), checked_array(x2, "x2", nonnegative=True)
        if own_positive and np.any(x1a <= 0.0):
            raise DomainError("x1 must be > 0")
        return x1a, x2a


class _ReducedCsf(_Family):
    """Shared behavior of families that reduce to a scalar contest state theta.

    Subclasses define the check `_theta`, the share core `_core` and the kernels
    `_shares` (the core's at theta's point, p and p(mirror) first and third, or
    alone without complements), `_zp` and `_zslopes`; `_triple` is (p(theta),
    p(mirror), p0(theta)), mirror = 1/theta (ratio) or -theta (difference).  Each
    kernel takes checked theta (and tie shares `qv`) and the primitives `xp`."""

    def __init_subclass__(cls):
        # every family class holds its own `z_prime`, so wrapping one class's
        # method (as perfbench's tracer does) leaves the other families alone
        cls.z_prime = _ReducedCsf.z_prime

    def _triple(self, th, xp: Ops):
        p, pm = self._shares(th, xp, False)
        return p, pm, 1.0 - p - pm

    def p(self, theta):
        return _ret(self._triple(self._theta(theta), LANES)[0])

    def p0(self, theta):
        return _ret(self._triple(self._theta(theta), LANES)[2])

    def z(self, theta, q) -> float:
        """Eventual win probability of player 1: p(theta) + q * p0(theta)."""
        qv = _tie_share(q)
        win, _, tie = self._triple(self._theta(theta), LANES)
        return _ret(win + qv * tie)

    def z_prime(self, theta, q):
        """d z_q / d theta."""
        qv = _tie_share(q)
        return _ret(self._zp(self._theta(theta), qv, LANES))

    def z_slopes(self, theta, q):
        """(z_q', z_q'') from one share evaluation."""
        qv = _tie_share(q)
        zp, zpp = self._zslopes(self._theta(theta), qv, LANES)
        return _ret(zp), _ret(zpp)


@dataclass(frozen=True)
class RatioCsf(_ReducedCsf):
    """Base class of families driven by the effort ratio theta = x1 / x2, with
    parameters r > 0 and k >= 1 and the zero-effort convention `zero_effort_note`,
    which audits and the grid oracle report.  Each is its difference family at
    phi = r log theta: it states that family's `_core`, `_rate`, theta z_q' over
    its share products' sum, and `_bends`, each product's factor in theta^2 z_q''
    over `_rate`, and forms no factor r / theta or 1 / theta^2, which overflow."""

    r: float
    k: float

    kind: ClassVar[str] = "ratio"
    default_cost: ClassVar[CostKind] = CostKind.LINEAR
    _rate = property(lambda self: self.r)
    zero_effort_note: ClassVar[str] = (
        "zero-effort convention: the all-zero profile (0, 0) is scored at "
        "theta = 1; a lone positive effort wins outright")

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", _check_param("r", self.r, 0.0, False, None, self.name))
        object.__setattr__(self, "k", _check_param("k", self.k, 1.0, True, None, self.name))

    @property
    def lemma_excess(self) -> float:
        """`_rate` - 1: the closed form and both payoff concavities hold iff it is <= 0."""
        return self._rate - 1.0

    def _theta(self, theta):
        return checked_array(theta, "theta", positive=True)

    def outcome(self, x1, x2):
        # theta = x1 / x2 lands on the kernels' exact limits: inf for a lone
        # positive x1 (or an overflowing ratio) gives (1, 0, 0), 0 gives (0, 1, 0)
        x1a, x2a = self._efforts(x1, x2)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            theta = np.where(x1a == x2a, 1.0, x1a / x2a)
        return tuple(map(_ret, self._triple(theta, LANES)))

    def _shares(self, th, xp: Ops, complements: bool = True):
        """The core's shares at a = theta^-r where theta >= 1 and theta^r below, each entry
        powered once by its side's scalar exponent, as `np.power` rounds an array one apart."""
        below = th < 1.0
        if not xp.live(below):
            a = xp.power((th,), -self.r)[0]
        elif xp.live(below ^ True):
            a = np.power(th, self.r, out=None, where=below)  # the rest is set next
            np.power(th, -self.r, where=~below, out=a)
        else:
            a = xp.power((th,), self.r)[0]
        return self._core(a, below, self.k, xp, complements)

    def _zp(self, th, qv, xp: Ops):
        p, pb, pm, mb = self._shares(th, xp)
        return self._rate * (((1.0 - qv) * p * pb + qv * pm * mb) / th)

    def _zslopes(self, th, qv, xp: Ops):
        zp, zpp = self._sums(self._shares(th, xp), qv)
        return self._rate * (zp / th), self._rate * (zpp / th / th)

    def _sums(self, shares, qv):
        """theta z_q' and theta^2 z_q'' over `_rate`; the kernels divide before they scale."""
        p, pb, pm, mb = shares
        lead, trail = (1.0 - qv) * p * pb, qv * pm * mb
        bend_lead, bend_trail = self._bends(*shares)
        return lead + trail, lead * bend_lead + trail * bend_trail


@dataclass(frozen=True)
class DiffCsf(_ReducedCsf):
    """Base class of families driven by the effort difference theta = x1 - x2, with
    parameter k >= 1.  Each states two facts of its parameters in `math` only.  `curvature_peak`
    is (S, thetas): S = sup |z_q''| over every theta and tie rule q, and the ascending thetas
    where the row q = 0 reaches it; the row q = 1 mirrors it, z_1''(theta) = -z_0''(-theta)
    as z_1 = 1 - p(-theta), and z_q'' is affine in q, so no row passes S.  `tie_inflection`
    is the theta* >= 0 with p0'' < 0 exactly for |theta| < theta*, 0.0 at k = 1 (p0 = 0)."""

    k: float

    kind: ClassVar[str] = "diff"
    default_cost: ClassVar[CostKind] = CostKind.QUADRATIC_HALF

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _check_param("k", self.k, 1.0, True, None, self.name))

    def _theta(self, theta):
        return checked_array(theta, "theta")

    def _shares(self, th, xp: Ops, complements: bool = True):
        return self._core(xp.np_exp(-abs(th)), th < 0.0, self.k, xp, complements)

    def assumption_excess(self, v1: float) -> float:
        return self.curvature_peak[0] - 1.0 / v1  # the bound |z_q''| <= 1 / v1

    def outcome(self, x1, x2):
        x1a, x2a = self._efforts(x1, x2)
        return tuple(map(_ret, self._triple(x1a - x2a, LANES)))


@dataclass(frozen=True)
class VesperoniRatio(RatioCsf):
    """Ratio-form family p = theta^(r k) / (1 + theta^r)^k, vesperoni-diff at
    phi = r log theta.  With u = theta^r / (1 + theta^r) and ub = 1 - u, p = u^k:

        z_q'  = (k r / theta)   * ((1-q) u^k ub + q u ub^k),
        z_q'' = (k r / theta^2) * ((1-q) u^k ub ((r k - 1) ub - (1 + r) u)
                                   + q u ub^k ((r - 1) ub - (1 + k r) u)).

    k = 1 collapses to a tie-free power contest.  The closed-form equilibrium
    requires r * k <= 1 (see `lemma_precondition`).
    """

    name: ClassVar[str] = "vesperoni-ratio"
    constraints: ClassVar[str] = "r > 0, k >= 1 (closed form needs r*k <= 1)"
    lemma_precondition: ClassVar[str] = "r * k <= 1"
    _core, _rate = staticmethod(_vesperoni_shares), property(lambda self: self.k * self.r)

    def _bends(self, pk, ub, pm, u):
        r, k = self.r, self.k
        return (r * k - 1.0) * ub - (1.0 + r) * u, (r - 1.0) * ub - (1.0 + k * r) * u


@dataclass(frozen=True)
class JiaRatio(RatioCsf):
    """Ratio-form family p = u = theta^r / (theta^r + k), jia-diff at phi = r log theta.
    With w = 1 / (1 + k theta^r), ub = 1 - u and wb = 1 - w:

        z_q'  = (r / theta)   * ((1-q) u ub + q w wb),
        z_q'' = -(r / theta^2) * ((1-q) u ub (2 r u + 1 - r)
                                  + q w wb (2 r wb + 1 - r)).

    k = 1 collapses to the classic lottery contest (p0 = 0).  The closed-form
    equilibrium requires r <= 1.
    """

    name: ClassVar[str] = "jia-ratio"
    constraints: ClassVar[str] = "r > 0, k >= 1 (closed form needs r <= 1)"
    lemma_precondition: ClassVar[str] = "r <= 1"
    _core = staticmethod(_jia_shares)

    def _bends(self, u, ub, w, wb):
        return -(2.0 * self.r * u + (1.0 - self.r)), -(2.0 * self.r * wb + (1.0 - self.r))


@dataclass(frozen=True)
class VesperoniDiff(DiffCsf):
    """Difference-form family p = e^(k theta) / (1 + e^theta)^k.

    With s = logistic(theta) and sb = logistic(-theta):

        p = s^k,   p(-theta) = sb^k,   p0 = 1 - s^k - sb^k,
        z_q'  = k * ((1-q) s^k sb + q s sb^k),
        z_q'' = k * ((1-q) s^k sb (k sb - s) + q s sb^k (sb - k s)).

    k = 1 collapses to the tie-free logit contest.
    """

    name: ClassVar[str] = "vesperoni-diff"
    constraints: ClassVar[str] = "k >= 1"
    _core = staticmethod(_vesperoni_shares)

    def _zp(self, th, qv, xp: Ops):
        pk, sb, pm, s = self._shares(th, xp)
        return self.k * ((1.0 - qv) * pk * sb + qv * s * pm)

    def _zslopes(self, th, qv, xp: Ops):
        pk, sb, pm, s = self._shares(th, xp)
        k = self.k
        lead, trail = (1.0 - qv) * pk * sb, qv * s * pm
        return k * (lead + trail), k * (lead * (k * sb - s) + trail * (sb - k * s))

    @property
    def curvature_peak(self) -> tuple[float, tuple[float, ...]]:
        """With t = sb, z_0'' = k (1 - t)^k t ((k + 1) t - 1), whose extremes sit at
        the roots t = (3 +- sqrt(9 - 4 (k + 2) / (k + 1))) / (2 (k + 2)) of
        (k + 1)(k + 2) t^2 - 3 (k + 1) t + 1, at theta = log((1 - t) / t); S is at the
        larger root, whose lobe a scan of 10^6 k in (1, e^707] never found the smaller.
        (k + 2) / (k + 1) is divided before its exact factor 4, and (1 - t)^k taken as
        exp(k log1p(-t)), so S is finite for every k.  At k = 1 the lobes tie."""
        k = self.k
        if k == 1.0:
            return _LOGISTIC_CURVATURE, (-_LOGISTIC_PEAK, _LOGISTIC_PEAK)
        t = (3.0 + math.sqrt(9.0 - 4.0 * ((k + 2.0) / (k + 1.0)))) / 2.0 / (k + 2.0)
        top = k * t * math.exp(k * math.log1p(-t)) * ((k + 1.0) * t - 1.0)
        return top, (math.log1p(-t) - math.log(t),)

    @property
    def tie_inflection(self) -> float:
        """With rho = e^-|theta| and m = k - 1, s = 1 / (1 + rho) and sb = rho s, so
        p0'' = k s sb (sb^m (sb - k s) - s^m (k sb - s)) has the sign of
        F = (1 - rho)(1 - rho^m) - m (rho + rho^m) = 1 + rho^k - k (rho + rho^m), whose
        slope k (rho^m - 1 - m rho^(m - 1)) < 0 on (0, 1): F falls from 1 to 2 - 2k,
        with no closed-form root for real k.  At theta = log(2k) / min(1, m), k rho =
        1/2 >= k rho^m (k >= 2) or k rho^m = 1/2 and rho <= rho^m (k < 2), so F > 0.
        Bisection on the sign of F, 1 - rho and 1 - rho^m from expm1, halves that bracket
        until its midpoint is an endpoint; the upper one is within two ulps of the root."""
        m = self.k - 1.0  # k = 1 leaves the bracket [0, 0]
        lo, hi = 0.0, (math.log(self.k) + math.log(2.0)) / min(1.0, m) if m else 0.0
        while lo < (mid := lo + (hi - lo) / 2.0) < hi:
            below = math.expm1(-mid) * math.expm1(-m * mid) < m * (math.exp(-mid) + math.exp(-m * mid))
            lo, hi = (mid, hi) if below else (lo, mid)
        return hi


@dataclass(frozen=True)
class JiaDiff(DiffCsf):
    """Difference-form family p = e^theta / (k + e^theta).

    With u = e^theta / (k + e^theta) and w = u(-theta) = 1 / (k e^theta + 1),
    and the complements ub = 1 - u and wb = 1 - w taken from the same
    exponential:

        p = u,   p(-theta) = w,   p0 = 1 - u - w,
        z_q'  = (1-q) u ub + q w wb,
        z_q'' = (1-q) u ub (1 - 2u) + q w wb (2w - 1).

    k = 1 collapses to the logit contest (p0 = 0, z'' the logistic bump).
    """

    name: ClassVar[str] = "jia-diff"
    constraints: ClassVar[str] = "k >= 1"
    _core = staticmethod(_jia_shares)

    def _zp(self, th, qv, xp: Ops):
        u, ub, w, wb = self._shares(th, xp)
        return (1.0 - qv) * u * ub + qv * w * wb

    def _zslopes(self, th, qv, xp: Ops):
        u, ub, w, wb = self._shares(th, xp)
        lead, trail = (1.0 - qv) * u * ub, qv * w * wb
        return lead + trail, lead * (1.0 - 2.0 * u) + trail * (2.0 * w - 1.0)

    @property
    def curvature_peak(self) -> tuple[float, tuple[float, ...]]:
        """p is the logistic shifted by log k, so S is the logistic's for every k."""
        shift = math.log(self.k)
        return _LOGISTIC_CURVATURE, (shift - _LOGISTIC_PEAK, shift + _LOGISTIC_PEAK)

    @property
    def tie_inflection(self) -> float:
        """p0 = (k^2 - 1) / D, D = k^2 + 1 + 2k c, c = cosh theta, so p0'' = 2k (k^2 - 1)
        (2k c^2 - (k^2 + 1) c - 4k) / D^3, whose one root c > 1 is (k + 1/k + hypot(k +
        1/k, sqrt(32))) / 4, in quarters, hypot((k + 1/k) / 4, sqrt(2)), to stay finite."""
        quarter = (self.k + 1.0 / self.k) / 4.0
        return math.acosh(quarter + math.hypot(quarter, math.sqrt(2.0))) if self.k > 1.0 else 0.0


@dataclass(frozen=True)
class BlavatskyyPower(_Family):
    """Concave-impact family p_i = x_i^r / (x1^r + x2^r + 1), 0 < r <= 1.

    The residual 1 / (x1^r + x2^r + 1) is the tie probability.  Folding the
    tie rule into impacts, player i eventually wins with probability
    g_i / (g1 + g2) where g1 = x1^r + q and g2 = x2^r + (1 - q), so the tie
    rule acts as a head start on the same scale as the "+1" in the
    denominator.  No scalar reduction exists here.
    """

    r: float

    name: ClassVar[str] = "blavatskyy-power"
    kind: ClassVar[str] = "concave"
    constraints: ClassVar[str] = "0 < r <= 1"
    default_cost: ClassVar[CostKind] = CostKind.LINEAR
    # impact x^r is strictly increasing and concave by construction
    lemma_precondition: ClassVar[str] = "0 < r <= 1 (enforced at construction)"

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", _check_param("r", self.r, 0.0, False, 1.0, self.name))

    def _impact(self, x):
        return np.power(x, self.r)

    def _win_d1(self, x1, x2, qv, xp: Ops):
        """d/dx1 of player 1's eventual win probability, r x1^(r-1) h / T / T with the
        rival's head h = x2^r + 1 - q and T = x1^r + x2^r + 1, at x1 > 0 (x1 >= 0 for
        linear impact, where h = 0 gives exactly 0).  A power takes one NumPy call per
        exponent for floats; linear impact takes none, as x^1 = x and x^0 = 1 exactly."""
        r = self.r
        if r == 1.0:
            f1, f2, own_slope = x1, x2, 1.0
        else:
            (f1, f2), own_slope = xp.power((x1, x2), r), xp.power((x1,), r - 1.0)[0]
        head, total = f2 + (1.0 - qv), f1 + f2 + 1.0
        return r * own_slope * head / total / total

    def _terms(self, x1, x2):
        """(x1^r, x2^r, 1, their sum) at checked efforts, each halved where the sum overflows:
        the larger impact is then at least half the largest double, so halving is exact."""
        f1, f2 = map(self._impact, self._efforts(x1, x2))
        with np.errstate(over="ignore"):
            total = f1 + f2 + 1.0
        if not LANES.live(over := total == math.inf):
            return f1, f2, 1.0, total
        half = np.where(over, 0.5, 1.0)
        f1, f2 = f1 * half, f2 * half
        return f1, f2, half, f1 + f2 + half

    def outcome(self, x1, x2):
        f1, f2, one, total = self._terms(x1, x2)
        return (_ret(f1 / total), _ret(f2 / total), _ret(one / total))

    def win_prob(self, x1, x2, q):
        """Eventual win probability of player 1: (x1^r + q) / (x1^r + x2^r + 1)."""
        qv = _tie_share(q)
        f1, _, one, total = self._terms(x1, x2)
        return _ret((f1 + qv * one) / total)

    def win_prob_d1(self, x1, x2, q):
        """d/dx1 of the eventual win probability of player 1, quietly +inf where it overflows."""
        qv = _tie_share(q)
        efforts = self._efforts(x1, x2, own_positive=True)
        with np.errstate(over="ignore"):
            return _ret(self._win_d1(*efforts, qv, LANES))


FAMILIES: dict[str, type] = {
    VesperoniRatio.name: VesperoniRatio,
    JiaRatio.name: JiaRatio,
    VesperoniDiff.name: VesperoniDiff,
    JiaDiff.name: JiaDiff,
    BlavatskyyPower.name: BlavatskyyPower,
}


def family_names() -> tuple[str, ...]:
    return tuple(sorted(FAMILIES))


def describe_families() -> str:
    """One line per registered family: key, parameters, constraints."""
    lines = []
    for name in family_names():
        cls = FAMILIES[name]
        params = ", ".join(cls.__match_args__)
        lines.append(f"  {name:<17} params: {params:<5} constraints: {cls.constraints}")
    return "\n".join(lines)


def make_family(name: str, **params):
    """Instantiate a registered family by key, validating its parameters."""
    if not isinstance(name, str) or name not in FAMILIES:
        raise ValidationError(
            f"unknown family {name!r}; known families: {', '.join(family_names())}"
        )
    allowed = FAMILIES[name].__match_args__
    given = {k: v for k, v in params.items() if v is not None}
    for key in given:
        if key not in allowed:
            raise ValidationError(f"family {name!r} takes no parameter {key!r}")
    for key in allowed:
        if key not in given:
            raise ValidationError(f"family {name!r} requires parameter {key!r}")
    return FAMILIES[name](**given)


def make_contest(family: str, *, v1, v2, q, **params) -> ContestSpec:
    """Build a ContestSpec from plain values; its cost is the family's `default_cost`."""
    return ContestSpec(make_family(family, **params), v1, v2, q)
