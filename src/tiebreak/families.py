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
call evaluates many tie rules.  Scalar inputs return a builtin float.

Evaluations are numerically stabilized.  Difference-form families touch
exponentials only through e^(-|theta|) and logistic ratios, so theta up to
+/-500 stays finite; ratio-form families work through u = theta^r/(1+theta^r)
and its complement for the same reason.  A share's complement is never formed
as 1 minus the share: it comes from the same exponential or power, so slopes
keep full relative precision where a share approaches one.

All family objects are immutable after construction; every method is pure.
"""
from __future__ import annotations

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
    return float(value) if value.ndim == 0 else value


def _logistic_pair(theta, k: float):
    """u = e^theta / (k + e^theta) and w = u(-theta), from one e^(-|theta|) <= 1."""
    t = np.asarray(theta, dtype=float)
    a = np.exp(-np.abs(t))
    with np.errstate(over="ignore"):
        near = 1.0 / (1.0 + k * a)
        far = a / (k + a)
    up = t >= 0
    return np.where(up, near, far), np.where(up, far, near)


def _logistic_shares(theta, k: float):
    """`_logistic_pair` with complements: (u, 1 - u, w, 1 - w).

    All four come from the one exponential, and each complement
    (1 - u = k / (k + e^theta), 1 - w = k e^theta / (1 + k e^theta)) is
    formed without subtraction, keeping full relative precision where a
    share approaches one.
    """
    t = np.asarray(theta, dtype=float)
    a = np.exp(-np.abs(t))
    with np.errstate(over="ignore"):
        ka = k * a
        near_den, far_den = 1.0 + ka, k + a
        near, near_comp = 1.0 / near_den, ka / near_den
        far, far_comp = a / far_den, k / far_den
    up = t >= 0
    return (np.where(up, near, far), np.where(up, near_comp, far_comp),
            np.where(up, far, near), np.where(up, far_comp, near_comp))


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
    """Shared behavior of families that reduce to a scalar contest state theta."""

    # subclasses: _triple(theta) -> mutually consistent (p(theta), p(mirror), p0(theta))
    # with mirror = 1/theta (ratio) or -theta (difference), z_prime and z_slopes.

    def _theta(self, theta):
        raise NotImplementedError

    def p(self, theta):
        th = self._theta(theta)
        return _ret(self._triple(th)[0])

    def p0(self, theta):
        th = self._theta(theta)
        return _ret(self._triple(th)[2])

    def z(self, theta, q) -> float:
        """Eventual win probability of player 1: p(theta) + q * p0(theta)."""
        qv = _tie_share(q)
        th = self._theta(theta)
        win, _, tie = self._triple(th)
        return _ret(win + qv * tie)

    def z_double_prime(self, theta, q):
        """d^2 z_q / d theta^2; `z_slopes` evaluates it alongside z_q'."""
        return self.z_slopes(theta, q)[1]

    def p0_prime(self, theta):
        """d p0 / d theta, exact via affinity of z_q in q."""
        return self.z_prime(theta, 1.0) - self.z_prime(theta, 0.0)

    def p0_double_prime(self, theta):
        """d^2 p0 / d theta^2, exact via affinity of z_q in q."""
        return self.z_double_prime(theta, 1.0) - self.z_double_prime(theta, 0.0)


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
        x1a = _as_array(x1, "x1", nonnegative=True)
        x2a = _as_array(x2, "x2", nonnegative=True)
        x1a, x2a = np.broadcast_arrays(x1a, x2a)
        interior = (x1a > 0) & (x2a > 0)
        theta = np.where(interior, x1a, 1.0) / np.where(interior, x2a, 1.0)
        win1, win2, tie = self._triple(theta)
        only1 = (x1a > 0) & (x2a == 0)
        only2 = (x1a == 0) & (x2a > 0)
        win1 = np.where(only1, 1.0, np.where(only2, 0.0, win1))
        win2 = np.where(only1, 0.0, np.where(only2, 1.0, win2))
        tie = np.where(only1 | only2, 0.0, tie)
        return (_ret(win1), _ret(win2), _ret(tie))


class DiffCsf(_ReducedCsf):
    """Base class of families driven by the effort difference theta = x1 - x2."""

    kind: ClassVar[str] = "diff"
    default_cost: ClassVar[CostKind] = CostKind.QUADRATIC_HALF

    def _theta(self, theta):
        return _as_array(theta, "theta")

    def outcome(self, x1, x2):
        x1a = _as_array(x1, "x1", nonnegative=True)
        x2a = _as_array(x2, "x2", nonnegative=True)
        win1, win2, tie = self._triple(x1a - x2a)
        return (_ret(win1), _ret(win2), _ret(tie))


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

    def _shares(self, th):
        t = np.power(th, self.r)
        return t / (1.0 + t), 1.0 / (1.0 + t)

    def _triple(self, th):
        u, ub = self._shares(th)
        pk = u**self.k
        pm = ub**self.k
        return pk, pm, 1.0 - pk - pm

    def z_prime(self, theta, q):
        qv = _tie_share(q)
        th = self._theta(theta)
        u, ub = self._shares(th)
        k, r = self.k, self.r
        val = (k * r / th) * ((1.0 - qv) * u**k * ub + qv * u * ub**k)
        return _ret(val)

    def z_slopes(self, theta, q):
        qv = _tie_share(q)
        th = self._theta(theta)
        u, ub = self._shares(th)
        k, r = self.k, self.r
        lead, trail = (1.0 - qv) * u**k * ub, qv * u * ub**k
        zpp = (k * r / th**2) * (lead * ((r * k - 1.0) * ub - (1.0 + r) * u)
                                 + trail * ((r - 1.0) * ub - (1.0 + k * r) * u))
        return _ret((k * r / th) * (lead + trail)), _ret(zpp)


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

    def _shares(self, th):
        t = np.power(th, self.r)
        u_den = t + self.k
        with np.errstate(over="ignore", divide="ignore"):
            kt = self.k * t
            return t / u_den, self.k / u_den, 1.0 / (1.0 + kt), 1.0 / (1.0 + 1.0 / kt)

    def _triple(self, th):
        t = np.power(th, self.r)
        u, w = t / (t + self.k), 1.0 / (1.0 + self.k * t)
        return u, w, 1.0 - u - w

    def z_prime(self, theta, q):
        qv = _tie_share(q)
        th = self._theta(theta)
        u, ub, w, wb = self._shares(th)
        r = self.r
        val = (r / th) * ((1.0 - qv) * u * ub + qv * w * wb)
        return _ret(val)

    def z_slopes(self, theta, q):
        qv = _tie_share(q)
        th = self._theta(theta)
        u, ub, w, wb = self._shares(th)
        r = self.r
        lead, trail = (1.0 - qv) * u * ub, qv * w * wb
        zpp = -(r / th**2) * (lead * (2.0 * r * u + (1.0 - r))
                              + trail * (2.0 * r * wb + (1.0 - r)))
        return _ret((r / th) * (lead + trail)), _ret(zpp)


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

    def _shares(self, th):
        return _logistic_pair(th, 1.0)

    def _triple(self, th):
        s, sb = self._shares(th)
        pk = s**self.k
        pm = sb**self.k
        return pk, pm, 1.0 - pk - pm

    def z_prime(self, theta, q):
        qv = _tie_share(q)
        th = self._theta(theta)
        s, sb = self._shares(th)
        k = self.k
        return _ret(k * ((1.0 - qv) * s**k * sb + qv * s * sb**k))

    def z_slopes(self, theta, q):
        qv = _tie_share(q)
        th = self._theta(theta)
        s, sb = self._shares(th)
        k = self.k
        lead, trail = (1.0 - qv) * s**k * sb, qv * s * sb**k
        return _ret(k * (lead + trail)), _ret(k * (lead * (k * sb - s) + trail * (sb - k * s)))


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

    def _shares(self, th):
        return _logistic_shares(th, self.k)

    def _triple(self, th):
        u, w = _logistic_pair(th, self.k)
        return u, w, 1.0 - u - w

    def z_prime(self, theta, q):
        qv = _tie_share(q)
        th = self._theta(theta)
        u, ub, w, wb = self._shares(th)
        return _ret((1.0 - qv) * u * ub + qv * w * wb)

    def z_slopes(self, theta, q):
        qv = _tie_share(q)
        th = self._theta(theta)
        u, ub, w, wb = self._shares(th)
        lead, trail = (1.0 - qv) * u * ub, qv * w * wb
        return _ret(lead + trail), _ret(lead * (1.0 - 2.0 * u) + trail * (2.0 * w - 1.0))


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

    def impact(self, x):
        return np.power(_as_array(x, "x", nonnegative=True), self.r)

    def impact_prime(self, x):
        xa = _as_array(x, "x", positive=True)
        return self.r * np.power(xa, self.r - 1.0)

    def impact_double_prime(self, x):
        xa = _as_array(x, "x", positive=True)
        return self.r * (self.r - 1.0) * np.power(xa, self.r - 2.0)

    def outcome(self, x1, x2):
        f1 = self.impact(x1)
        f2 = self.impact(x2)
        total = f1 + f2 + 1.0
        return (_ret(f1 / total), _ret(f2 / total), _ret(1.0 / total))

    def win_prob(self, x1, x2, q):
        """Eventual win probability of player 1: (x1^r + q) / (x1^r + x2^r + 1)."""
        qv = _tie_share(q)
        f1 = self.impact(x1)
        f2 = self.impact(x2)
        return _ret((f1 + qv) / (f1 + f2 + 1.0))

    def win_prob_d1(self, x1, x2, q):
        """d/dx1 of the eventual win probability of player 1."""
        qv = _tie_share(q)
        f1 = self.impact(x1)
        f2 = self.impact(x2)
        total = f1 + f2 + 1.0
        return _ret(self.impact_prime(x1) * (f2 + (1.0 - qv)) / total**2)

    def win_prob_d11(self, x1, x2, q):
        """Second own-effort derivative of player 1's eventual win probability."""
        qv = _tie_share(q)
        f1 = self.impact(x1)
        f2 = self.impact(x2)
        total = f1 + f2 + 1.0
        fp = self.impact_prime(x1)
        fpp = self.impact_double_prime(x1)
        return _ret((f2 + (1.0 - qv)) * (fpp * total - 2.0 * fp * fp) / total**3)

    def tie_prob_d1(self, x1, x2):
        """d/dx1 of the tie probability."""
        f1 = self.impact(x1)
        f2 = self.impact(x2)
        total = f1 + f2 + 1.0
        return _ret(-self.impact_prime(x1) / total**2)

    def tie_prob_d11(self, x1, x2):
        """Second own-effort derivative of the tie probability."""
        f1 = self.impact(x1)
        f2 = self.impact(x2)
        total = f1 + f2 + 1.0
        fp = self.impact_prime(x1)
        fpp = self.impact_double_prime(x1)
        return _ret((2.0 * fp * fp - fpp * total) / total**3)


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
