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

First and second derivatives of z_q are analytic: root finding and audits need
smooth, noise-free evaluations, so finite differences appear only in the test
suite as an oracle; `z_slopes` returns (z_q', z_q'') from one share evaluation,
and z_q'' is written only there.  Because z_q is affine in q, the tie-probability
derivatives follow exactly: p0' = z_1' - z_0' and likewise for p0''.

Every method that takes a tie rule q accepts one tie share (a number or a
`TieRule`) or an array of them, broadcast against the contest states, so one
call evaluates many tie rules.  Public methods return a builtin float for
scalar inputs: they check their arguments, then call one private kernel
(`_triple`, `_zp`, `_zslopes`; `_impact`, `_impact_prime`, `_win_d1`) that
assumes checked input.  The solvers and audits check once on entry and call
only kernels.  Each kernel is written once against the primitives `xp`
(`Ops`): the scalar solvers pass `FLOATS`, whose Python floats get the bits of
a one-element array from one NumPy call per group of powers or exponentials,
and the lane solvers, the audits and the public methods pass `LANES`.

Evaluations are numerically stabilized.  Difference-form families touch
exponentials only through e^(-|theta|) and logistic ratios, so theta up to
+/-500 stays finite; ratio-form families work through u = theta^r/(1+theta^r)
and its complement for the same reason.  A share's complement is never formed
as 1 minus the share: it comes from the same exponential or power, so slopes
keep full relative precision where a share approaches one.

All family objects are immutable after construction; every method is pure.
"""
from __future__ import annotations

import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import ContestSpec, CostKind, q_value
from .errors import DomainError, ValidationError


def _check_param(name: str, value, low: float, low_inclusive: bool, high: float | None,
                 family: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{family}: parameter {name!r} must be a number, got {value!r}") from exc
    if not np.isfinite(out):
        raise ValidationError(f"{family}: parameter {name!r} must be finite")
    ok_low = out >= low if low_inclusive else out > low
    if not ok_low or (high is not None and out > high):
        bound = f">= {low}" if low_inclusive else f"> {low}"
        if high is not None:
            bound += f" and <= {high}"
        raise ValidationError(f"{family}: parameter {name!r} must be {bound}, got {out}")
    return out


def _as_array(x, name: str, *, positive: bool = False, nonnegative: bool = False):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    if positive and np.any(arr <= 0.0):
        raise DomainError(f"{name} must be > 0")
    if nonnegative and np.any(arr < 0.0):
        raise DomainError(f"{name} must be >= 0")
    return arr


def q_array(qs) -> np.ndarray:
    """Float array of tie shares, each finite and in [0, 1]."""
    try:
        arr = np.asarray(qs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"tie shares must be numbers, got {qs!r}") from exc
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


def _quiet_power_shares(shares, th, r: float):
    """shares(t) at t = theta^r, without NumPy's overflow, nan or 1/0 warnings."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return shares(np.power(th, r))


def _quiet_over(c, d):
    """c / d for c > 0, without NumPy's 1/0 warning where d is 0."""
    with np.errstate(divide="ignore"):
        return c / d


def _float_power_shares(shares, th: float, r: float):
    """shares(t) at t = theta^r: on Python floats while t is finite and nonzero,
    |r log theta| < 709.78; otherwise by `_quiet_power_shares`, as Python floats."""
    if abs(r * math.log(th)) < 709.78:
        return shares(float(np.power(th, r)))
    return tuple(map(float, _quiet_power_shares(shares, th, r)))


# The primitives each family kernel and solver step is written against once,
# passed as the array API standard passes a namespace.  `FLOATS` runs one tie
# rule on Python floats; `LANES` runs arrays (solver lanes, one per tie rule,
# audit grids, checked public input) with the IEEE operations of `FLOATS` in
# the same order, so a one-entry array gets a float's bits; a stopped solver
# lane holds its values through `select(c, a, b)`, which is a where c holds and
# b elsewhere, entry by entry for tuples.  `live(c)` is whether c holds anywhere;
# `power(xs, p)` raises each of xs to p, floats in one NumPy call; `exp` is
# math's for floats, `np_exp` NumPy's for both; `log(0.0)` is -inf; `over(c, d)`
# is c / d for c > 0, inf where d = 0; `fmin(1.0, u)` is 1 where u is nan; and
# `power_shares(shares, th, r)` is shares(th^r).  These three never warn.
Ops = namedtuple("Ops", "select live sqrt exp log logaddexp power np_exp over fmin power_shares")
FLOATS = Ops(lambda c, a, b: a if c else b, bool, math.sqrt, math.exp,
             lambda h: math.log(h) if h > 0.0 else -math.inf, _logaddexp,
             lambda xs, p: np.power(xs, p).tolist(),  # a NumPy scalar's tolist is slow
             lambda x: float(np.exp(x)), lambda c, d: c / d if d else math.inf, min,
             _float_power_shares)
LANES = Ops(np.where, operator.methodcaller("any"), np.sqrt, np.exp, np.log, np.logaddexp,
            lambda xs, p: [np.power(x, p) for x in xs],  # one call each: no stacking copy
            np.exp, _quiet_over, np.fmin, _quiet_power_shares)


def _logistic_shares(theta, k: float, xp: Ops, complements: bool = True):
    """u = e^theta / (k + e^theta) and w = u(-theta) as (u, 1 - u, w, 1 - w), or as (u, w).

    All come from one a = e^(-|theta|) <= 1, so nothing overflows, and each
    complement (1 - u = k / (k + e^theta), 1 - w = k e^theta / (1 + k e^theta))
    is formed without subtraction, keeping full relative precision where a
    share approaches one.  Where no theta is negative, as in gap roots, no
    sign is selected.
    """
    a = xp.np_exp(-abs(theta))
    if complements:
        ka = k * a
        near_den, far_den = 1.0 + ka, k + a
        near, far = (1.0 / near_den, ka / near_den), (a / far_den, k / far_den)
    else:  # inline: temporaries held to the return slow large grids by about a third
        near, far = (1.0 / (1.0 + k * a),), (a / (k + a),)
    below = theta < 0.0
    if not xp.live(below):
        return near + far
    return tuple(xp.select(below, far + near, near + far))


class _Family:
    """Registry facts every family class declares about itself.

    `name` is the registry key, `kind` the contest class (ratio, diff or
    concave), `constraints` the parameter domain as shown in the CLI help,
    `default_cost` the cost technology the class's theory is stated under,
    and `lemma_precondition` the parameter restriction its closed form
    needs ("none" when there is none; `lemma_precondition_ok` tests it).
    The parameters are the dataclass fields, whose names the dataclass
    lists in declaration order as `__match_args__`.
    """

    name: ClassVar[str]
    kind: ClassVar[str]
    constraints: ClassVar[str]
    default_cost: ClassVar[CostKind]
    lemma_precondition: ClassVar[str] = "none"

    @property
    def params(self) -> dict:
        return {name: getattr(self, name) for name in self.__match_args__}

    @property
    def lemma_precondition_ok(self) -> bool:
        return True


class _ReducedCsf(_Family):
    """Shared behavior of families that reduce to a scalar contest state theta.

    Subclasses define the check `_theta` and the kernels `_shares`, `_zp`,
    `_zslopes` and `_triple` -> consistent (p(theta), p(mirror), p0(theta)),
    with mirror = 1/theta (ratio) or -theta (difference).  Each kernel takes
    the primitives `xp`; all but `_shares` also take its output at theta."""

    def __init_subclass__(cls):
        # every family class holds its own `z_prime`, so wrapping one class's
        # method (as perfbench's tracer does) leaves the other families alone
        cls.z_prime = _ReducedCsf.z_prime

    def p(self, theta):
        return _ret(self._triple(self._theta(theta), LANES)[0])

    def p0(self, theta):
        return _ret(self._triple(self._theta(theta), LANES)[2])

    def _slopes_and_tie(self, th, qv, xp: Ops):
        """`_zslopes(th, qv, xp)` and p0(theta), from one share evaluation."""
        shares = self._shares(th, xp)
        return (*self._zslopes(th, qv, xp, shares), self._triple(th, xp, shares)[2])

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

    def z_double_prime(self, theta, q):
        """d^2 z_q / d theta^2; `z_slopes` evaluates it alongside z_q'."""
        return self.z_slopes(theta, q)[1]

    def p0_prime(self, theta):
        """d p0 / d theta, exact via affinity of z_q in q, from one share evaluation."""
        th = self._theta(theta)
        shares = self._shares(th, LANES)
        return _ret(self._zp(th, 1.0, LANES, shares) - self._zp(th, 0.0, LANES, shares))

    def p0_double_prime(self, theta):
        """d^2 p0 / d theta^2, exact via affinity of z_q in q, from one share evaluation."""
        th = self._theta(theta)
        shares = self._shares(th, LANES)
        return _ret(self._zslopes(th, 1.0, LANES, shares)[1]
                    - self._zslopes(th, 0.0, LANES, shares)[1])


class RatioCsf(_ReducedCsf):
    """Base class of families driven by the effort ratio theta = x1 / x2.

    Convention at zero efforts: a lone positive effort wins outright; the
    all-zero profile (0, 0) is scored at theta = 1, i.e. as a symmetric
    contest.
    """

    kind: ClassVar[str] = "ratio"
    default_cost: ClassVar[CostKind] = CostKind.LINEAR

    def _theta(self, theta):
        return _as_array(theta, "theta", positive=True)

    def outcome(self, x1, x2):
        # theta = x1 / x2 lands on the kernels' exact limits: inf for a lone
        # positive x1 (or an overflowing ratio) gives (1, 0, 0), 0 gives (0, 1, 0)
        x1a = _as_array(x1, "x1", nonnegative=True)
        x2a = _as_array(x2, "x2", nonnegative=True)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            theta = np.where(x1a == x2a, 1.0, x1a / x2a)
        return tuple(map(_ret, self._triple(theta, LANES)))


class DiffCsf(_ReducedCsf):
    """Base class of families driven by the effort difference theta = x1 - x2."""

    kind: ClassVar[str] = "diff"
    default_cost: ClassVar[CostKind] = CostKind.QUADRATIC_HALF

    def _theta(self, theta):
        return _as_array(theta, "theta")

    def outcome(self, x1, x2):
        x1a = _as_array(x1, "x1", nonnegative=True)
        x2a = _as_array(x2, "x2", nonnegative=True)
        return tuple(map(_ret, self._triple(x1a - x2a, LANES)))


@dataclass(frozen=True)
class VesperoniRatio(RatioCsf):
    """Ratio-form family p = theta^(r k) / (1 + theta^r)^k.

    With u = theta^r / (1 + theta^r) and ub = 1 - u:

        p = u^k,   p(1/theta) = ub^k,   p0 = 1 - u^k - ub^k,
        z_q'  = (k r / theta)   * ((1-q) u^k ub + q u ub^k),
        z_q'' = (k r / theta^2) * ((1-q) u^k ub ((r k - 1) ub - (1 + r) u)
                                   + q u ub^k ((r - 1) ub - (1 + k r) u)).

    k = 1 collapses to a tie-free power contest.  The closed-form equilibrium
    requires r * k <= 1 (see `lemma_precondition`).
    """

    r: float
    k: float

    name: ClassVar[str] = "vesperoni-ratio"
    constraints: ClassVar[str] = "r > 0, k >= 1 (closed form needs r*k <= 1)"
    lemma_precondition: ClassVar[str] = "r * k <= 1"

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", _check_param("r", self.r, 0.0, False, None, self.name))
        object.__setattr__(self, "k", _check_param("k", self.k, 1.0, True, None, self.name))

    @property
    def lemma_precondition_ok(self) -> bool:
        return self.r * self.k <= 1.0

    def _shares(self, th, xp: Ops):
        """(u, ub, u^k, ub^k); u is 1 where theta^r overflowed (inf / inf)."""
        def shares(t):
            u, ub = xp.fmin(1.0, t / (1.0 + t)), 1.0 / (1.0 + t)
            return (u, ub, *xp.power((u, ub), self.k))
        return xp.power_shares(shares, th, self.r)

    def _triple(self, th, xp: Ops, shares=None):
        _, _, pk, pm = shares or self._shares(th, xp)
        return pk, pm, 1.0 - pk - pm

    def _zp(self, th, qv, xp: Ops, shares=None):
        u, ub, pk, pm = shares or self._shares(th, xp)
        return (self.k * self.r / th) * ((1.0 - qv) * pk * ub + qv * u * pm)

    def _zslopes(self, th, qv, xp: Ops, shares=None):
        u, ub, pk, pm = shares or self._shares(th, xp)
        k, r = self.k, self.r
        lead, trail = (1.0 - qv) * pk * ub, qv * u * pm
        zpp = xp.over(k * r, th * th) * (lead * ((r * k - 1.0) * ub - (1.0 + r) * u)
                                         + trail * ((r - 1.0) * ub - (1.0 + k * r) * u))
        return (k * r / th) * (lead + trail), zpp


@dataclass(frozen=True)
class JiaRatio(RatioCsf):
    """Ratio-form family p = theta^r / (theta^r + k).

    With u = theta^r / (theta^r + k) and w = 1 / (1 + k theta^r), and the
    complements ub = 1 - u and wb = 1 - w taken from the same power:

        p = u,   p(1/theta) = w,   p0 = 1 - u - w,
        z_q'  = (r / theta)   * ((1-q) u ub + q w wb),
        z_q'' = -(r / theta^2) * ((1-q) u ub (2 r u + 1 - r)
                                  + q w wb (2 r wb + 1 - r)).

    k = 1 collapses to the classic lottery contest (p0 = 0).  The closed-form
    equilibrium requires r <= 1.
    """

    r: float
    k: float

    name: ClassVar[str] = "jia-ratio"
    constraints: ClassVar[str] = "r > 0, k >= 1 (closed form needs r <= 1)"
    lemma_precondition: ClassVar[str] = "r <= 1"

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", _check_param("r", self.r, 0.0, False, None, self.name))
        object.__setattr__(self, "k", _check_param("k", self.k, 1.0, True, None, self.name))

    @property
    def lemma_precondition_ok(self) -> bool:
        return self.r <= 1.0

    def _shares(self, th, xp: Ops):
        """(u, ub, w, wb); u is 1 where theta^r overflowed (inf / inf)."""
        k = self.k
        return xp.power_shares(lambda t: (xp.fmin(1.0, t / (t + k)), k / (t + k),
                                          1.0 / (1.0 + k * t), 1.0 / (1.0 + 1.0 / (k * t))),
                               th, self.r)

    def _triple(self, th, xp: Ops, shares=None):
        k = self.k
        u, w = shares[::2] if shares else xp.power_shares(
            lambda t: (xp.fmin(1.0, t / (t + k)), 1.0 / (1.0 + k * t)), th, self.r)
        return u, w, 1.0 - u - w

    def _zp(self, th, qv, xp: Ops, shares=None):
        u, ub, w, wb = shares or self._shares(th, xp)
        return (self.r / th) * ((1.0 - qv) * u * ub + qv * w * wb)

    def _zslopes(self, th, qv, xp: Ops, shares=None):
        u, ub, w, wb = shares or self._shares(th, xp)
        r = self.r
        lead, trail = (1.0 - qv) * u * ub, qv * w * wb
        zpp = -xp.over(r, th * th) * (lead * (2.0 * r * u + (1.0 - r))
                                      + trail * (2.0 * r * wb + (1.0 - r)))
        return (r / th) * (lead + trail), zpp


@dataclass(frozen=True)
class VesperoniDiff(DiffCsf):
    """Difference-form family p = e^(k theta) / (1 + e^theta)^k.

    With s = logistic(theta) and sb = logistic(-theta):

        p = s^k,   p(-theta) = sb^k,   p0 = 1 - s^k - sb^k,
        z_q'  = k * ((1-q) s^k sb + q s sb^k),
        z_q'' = k * ((1-q) s^k sb (k sb - s) + q s sb^k (sb - k s)).

    k = 1 collapses to the tie-free logit contest.
    """

    k: float

    name: ClassVar[str] = "vesperoni-diff"
    constraints: ClassVar[str] = "k >= 1"

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _check_param("k", self.k, 1.0, True, None, self.name))

    def _shares(self, th, xp: Ops):
        """(s, sb, s^k, sb^k); floats take both powers from one NumPy call."""
        s, sb = _logistic_shares(th, 1.0, xp, complements=False)
        return (s, sb, *xp.power((s, sb), self.k))

    def _triple(self, th, xp: Ops, shares=None):
        _, _, pk, pm = shares or self._shares(th, xp)
        return pk, pm, 1.0 - pk - pm

    def _zp(self, th, qv, xp: Ops, shares=None):
        s, sb, pk, pm = shares or self._shares(th, xp)
        return self.k * ((1.0 - qv) * pk * sb + qv * s * pm)

    def _zslopes(self, th, qv, xp: Ops, shares=None):
        s, sb, pk, pm = shares or self._shares(th, xp)
        k = self.k
        lead, trail = (1.0 - qv) * pk * sb, qv * s * pm
        return k * (lead + trail), k * (lead * (k * sb - s) + trail * (sb - k * s))


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

    k: float

    name: ClassVar[str] = "jia-diff"
    constraints: ClassVar[str] = "k >= 1"

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _check_param("k", self.k, 1.0, True, None, self.name))

    def _shares(self, th, xp: Ops):
        return _logistic_shares(th, self.k, xp)

    def _triple(self, th, xp: Ops, shares=None):
        u, w = shares[::2] if shares else _logistic_shares(th, self.k, xp, complements=False)
        return u, w, 1.0 - u - w

    def _zp(self, th, qv, xp: Ops, shares=None):
        u, ub, w, wb = shares or self._shares(th, xp)
        return (1.0 - qv) * u * ub + qv * w * wb

    def _zslopes(self, th, qv, xp: Ops, shares=None):
        u, ub, w, wb = shares or self._shares(th, xp)
        lead, trail = (1.0 - qv) * u * ub, qv * w * wb
        return lead + trail, lead * (1.0 - 2.0 * u) + trail * (2.0 * w - 1.0)


@dataclass(frozen=True)
class BlavatskyyPower(_Family):
    """Concave-impact family p_i = x_i^r / (x1^r + x2^r + 1), 0 < r <= 1.

    The residual 1 / (x1^r + x2^r + 1) is the tie probability.  Folding the
    tie rule into impacts, player i eventually wins with probability
    g_i / (g1 + g2) where g1 = x1^r + q and g2 = x2^r + (1 - q), so the tie
    rule acts as a head start on the same scale as the "+1" in the
    denominator.  No scalar reduction exists here; derivative accessors are
    partial derivatives in own effort.
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

    def _impact_prime(self, x):
        return self.r * np.power(x, self.r - 1.0)

    def _impact_double_prime(self, x):
        return self.r * (self.r - 1.0) * np.power(x, self.r - 2.0)

    def _win_d1(self, x1, x2, qv, xp: Ops):
        """d/dx1 of player 1's eventual win probability at x1 > 0, with the rival's
        head x2^r + 1 - q and the total impact x1^r + x2^r + 1 it is formed from.
        A power takes one NumPy call per exponent for floats; linear impact takes
        none, as x^1 = x and x^0 = 1 exactly."""
        r = self.r
        if r == 1.0:
            f1, f2, own_slope = x1, x2, 1.0
        else:
            (f1, f2), own_slope = xp.power((x1, x2), r), xp.power((x1,), r - 1.0)[0]
        head, total = f2 + (1.0 - qv), f1 + f2 + 1.0
        return r * own_slope * head / total / total, head, total

    def _efforts(self, x1, x2, own_positive: bool = False):
        """Both efforts checked finite and >= 0, then own effort > 0 if asked."""
        x1a, x2a = _as_array(x1, "x", nonnegative=True), _as_array(x2, "x", nonnegative=True)
        if own_positive and np.any(x1a <= 0.0):
            raise DomainError("x must be > 0")
        return x1a, x2a

    def impact(self, x):
        return self._impact(_as_array(x, "x", nonnegative=True))

    def impact_prime(self, x):
        return self._impact_prime(_as_array(x, "x", positive=True))

    def impact_double_prime(self, x):
        return self._impact_double_prime(_as_array(x, "x", positive=True))

    def outcome(self, x1, x2):
        f1, f2 = map(self._impact, self._efforts(x1, x2))
        total = f1 + f2 + 1.0
        return (_ret(f1 / total), _ret(f2 / total), _ret(1.0 / total))

    def win_prob(self, x1, x2, q):
        """Eventual win probability of player 1: (x1^r + q) / (x1^r + x2^r + 1)."""
        qv = _tie_share(q)
        f1, f2 = map(self._impact, self._efforts(x1, x2))
        return _ret((f1 + qv) / (f1 + f2 + 1.0))

    def win_prob_d1(self, x1, x2, q):
        """d/dx1 of the eventual win probability of player 1."""
        qv = _tie_share(q)
        return _ret(self._win_d1(*self._efforts(x1, x2, own_positive=True), qv, LANES)[0])

    def _curvature_parts(self, x1a, x2a):
        f2 = self._impact(x2a)
        total = self._impact(x1a) + f2 + 1.0
        return f2, total, self._impact_prime(x1a), self._impact_double_prime(x1a)

    def win_prob_d11(self, x1, x2, q):
        """Second own-effort derivative of player 1's eventual win probability."""
        qv = _tie_share(q)
        f2, total, fp, fpp = self._curvature_parts(*self._efforts(x1, x2, own_positive=True))
        return _ret((f2 + (1.0 - qv)) / total * (fpp * total - 2.0 * fp * fp) / total / total)

    def tie_prob_d1(self, x1, x2):
        """d/dx1 of the tie probability."""
        _, total, fp, _ = self._curvature_parts(*self._efforts(x1, x2, own_positive=True))
        return _ret(-fp / total / total)

    def tie_prob_d11(self, x1, x2):
        """Second own-effort derivative of the tie probability."""
        _, total, fp, fpp = self._curvature_parts(*self._efforts(x1, x2, own_positive=True))
        return _ret((2.0 * fp * fp - fpp * total) / total / total / total)


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
    if name not in FAMILIES:
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


def make_contest(family: str, *, v1, v2, q, cost=None, **params) -> ContestSpec:
    """Build a ContestSpec from plain values, filling the family's default cost."""
    csf = make_family(family, **params)
    kind = CostKind.coerce(cost) if cost is not None else csf.default_cost
    return ContestSpec(csf=csf, v1=v1, v2=v2, q=q, cost=kind)
