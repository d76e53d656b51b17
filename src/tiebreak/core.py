"""Game primitives: valuations, tie-breaking rules, profiles, payoffs.

A two-player contest with ties has three outcomes -- player 1 wins, player 2
wins, or the contest ties -- with probabilities (p1, p2, p0) determined by
the effort pair through a contest success function.  The designer breaks a
tie in favor of player 1 with probability q, so player i's payoff is

    Pi_i = V_i * (p_i + q_i * p0) - c(x_i),   q_1 = q,  q_2 = 1 - q,

and "eventual win probability" means p_i + q_i * p0.

Every type here is an immutable value and every operation a pure function;
concurrent callers need no synchronization.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Any

from .errors import ValidationError

# Outcome probabilities must sum to one within this; catches family bugs.
PROB_SUM_TOL = 1e-12

# A discrete tie rule's weights must sum to one within this.
WEIGHT_SUM_TOL = 1e-12

# |E[Q] - 1/2| at or below this counts as an unbiased random rule.
UNBIASED_TOL = 1e-12


def _as_float(value: Any, field: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{field} must be a real number, got {value!r}") from exc
    if not math.isfinite(out):
        raise ValidationError(f"{field} must be finite, got {out!r}")
    return out


class JsonRecord:
    """Dataclass mixin serializing the fields in declaration order.

    Enums become their value, tuples become lists, and nested records (any
    value with its own `to_json_dict`) become their dicts.
    """

    def to_json_dict(self) -> dict:
        return {f.name: _json_value(getattr(self, f.name)) for f in dataclasses.fields(self)}


def _json_value(value):
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return value


class CostKind(Enum):
    """Effort cost technology: c(x) = x, or c(x) = x**2 / 2."""

    LINEAR = "linear"
    QUADRATIC_HALF = "quadratic_half"

    def cost(self, x):
        """Cost of effort x; accepts scalars or arrays."""
        if self is CostKind.LINEAR:
            return x
        return 0.5 * x * x

    @classmethod
    def coerce(cls, value: "CostKind | str") -> "CostKind":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError as exc:
            names = ", ".join(repr(k.value) for k in cls)
            raise ValidationError(f"cost must be one of {names}, got {value!r}") from exc


@dataclass(frozen=True)
class Valuations:
    """Prize values of the two players, normalized so v1 >= v2 > 0.

    Inputs arriving in the other order are accepted and silently swapped;
    `swapped` records that the constructor reversed the labels so callers
    can report results under the original ones.
    """

    v1: float
    v2: float
    swapped: bool = False

    def __post_init__(self) -> None:
        v1 = _as_float(self.v1, "v1")
        v2 = _as_float(self.v2, "v2")
        if v1 <= 0 or v2 <= 0:
            raise ValidationError(f"valuations must be positive, got ({v1}, {v2})")
        swapped = v2 > v1
        if swapped:
            v1, v2 = v2, v1
        object.__setattr__(self, "v1", v1)
        object.__setattr__(self, "v2", v2)
        object.__setattr__(self, "swapped", bool(self.swapped) or swapped)

    @property
    def beta(self) -> float:
        """Valuation ratio v1 / v2 >= 1."""
        return self.v1 / self.v2


@dataclass(frozen=True)
class TieRule:
    """Deterministic tie-breaking rule: a tie goes to player 1 with probability q."""

    q: float

    def __post_init__(self) -> None:
        q = _as_float(self.q, "q")
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"q must lie in [0, 1], got {q}")
        object.__setattr__(self, "q", q)

    @classmethod
    def coerce(cls, value: "TieRule | float") -> "TieRule":
        return value if isinstance(value, cls) else cls(value)


def q_value(q: TieRule | float) -> float:
    """Validated float value of a tie rule given as TieRule or bare number."""
    return TieRule.coerce(q).q


@dataclass(frozen=True)
class RandomTieRule:
    """Random tie-breaking rule: a finite lottery over deterministic rules.

    Atoms are (rule, weight) pairs with positive weights summing to one.
    """

    atoms: tuple[tuple[TieRule, float], ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValidationError("a random tie rule needs at least one atom")
        cleaned = []
        for i, (rule, weight) in enumerate(self.atoms):
            rule = TieRule.coerce(rule)
            weight = _as_float(weight, f"atoms[{i}] weight")
            if weight <= 0:
                raise ValidationError(f"atom weights must be positive, got {weight}")
            cleaned.append((rule, weight))
        total = math.fsum(w for _, w in cleaned)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"atom weights must sum to 1, got {total!r}")
        object.__setattr__(self, "atoms", tuple(cleaned))

    @classmethod
    def from_pairs(cls, pairs) -> "RandomTieRule":
        return cls(tuple((TieRule.coerce(q), w) for q, w in pairs))

    @property
    def mean_q(self) -> float:
        return math.fsum(rule.q * w for rule, w in self.atoms)

    @property
    def is_unbiased(self) -> bool:
        """True when the rule favors neither player on average."""
        return abs(self.mean_q - 0.5) <= UNBIASED_TOL


@dataclass(frozen=True)
class EffortProfile:
    """A pair of nonnegative efforts."""

    x1: float
    x2: float

    def __post_init__(self) -> None:
        x1 = _as_float(self.x1, "x1")
        x2 = _as_float(self.x2, "x2")
        if x1 < 0 or x2 < 0:
            raise ValidationError(f"efforts must be nonnegative, got ({x1}, {x2})")
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)

    @property
    def gap(self) -> float:
        """Effort difference x1 - x2."""
        return self.x1 - self.x2

    @property
    def ratio(self) -> float:
        """Effort ratio x1 / x2; undefined when x2 = 0."""
        if self.x2 == 0:
            raise ValidationError("effort ratio undefined at x2 = 0")
        return self.x1 / self.x2

    def as_tuple(self) -> tuple[float, float]:
        return (self.x1, self.x2)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities (win 1, win 2, tie); validated to be a distribution."""

    p1: float
    p2: float
    p0: float

    def __post_init__(self) -> None:
        p1 = _as_float(self.p1, "p1")
        p2 = _as_float(self.p2, "p2")
        p0 = _as_float(self.p0, "p0")
        for name, p in (("p1", p1), ("p2", p2), ("p0", p0)):
            if p < -PROB_SUM_TOL or p > 1.0 + PROB_SUM_TOL:
                raise ValidationError(f"{name} out of [0, 1]: {p!r}")
        if abs((p1 + p2 + p0) - 1.0) > PROB_SUM_TOL:
            raise ValidationError(
                f"outcome probabilities must sum to 1, got {p1 + p2 + p0!r}"
            )
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)
        object.__setattr__(self, "p0", p0)


@dataclass(frozen=True)
class ContestSpec:
    """Full description of one contest: family, prizes, tie rule, cost.

    Values are stored exactly as given by the caller; player labels are never
    rewritten here.  Solvers that need the stronger player first normalize
    internally and translate their answers back (see `Valuations.swapped`).
    """

    csf: Any
    v1: float
    v2: float
    q: float
    cost: CostKind

    def __post_init__(self) -> None:
        v1 = _as_float(self.v1, "v1")
        v2 = _as_float(self.v2, "v2")
        if v1 <= 0 or v2 <= 0:
            raise ValidationError(f"valuations must be positive, got ({v1}, {v2})")
        q = q_value(self.q)
        cost = CostKind.coerce(self.cost)
        for attr in ("name", "kind", "outcome", "params"):
            if not hasattr(self.csf, attr):
                raise ValidationError(
                    f"csf must be a contest success family (missing {attr!r})"
                )
        object.__setattr__(self, "v1", v1)
        object.__setattr__(self, "v2", v2)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "cost", cost)

    @property
    def valuations(self) -> Valuations:
        return Valuations(self.v1, self.v2)

    @property
    def tie(self) -> TieRule:
        return TieRule(self.q)

    @property
    def family(self) -> str:
        return self.csf.name

    def with_q(self, q: TieRule | float) -> "ContestSpec":
        return dataclasses.replace(self, q=q_value(q))

    def to_json_dict(self) -> dict:
        return {
            "family": self.csf.name,
            "params": dict(self.csf.params),
            "v1": self.v1,
            "v2": self.v2,
            "q": self.q,
            "cost": self.cost.value,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ContestSpec":
        from .families import make_contest  # deferred: families imports this module

        if not isinstance(doc, dict):
            raise ValidationError("spec document must be a JSON object")
        known = {"family", "params", "v1", "v2", "q", "cost"}
        extra = set(doc) - known
        if extra:
            raise ValidationError(f"unknown spec field(s): {sorted(extra)}")
        for field in ("family", "v1", "v2", "q"):
            if field not in doc:
                raise ValidationError(f"spec document is missing field {field!r}")
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise ValidationError("params must be a JSON object")
        return make_contest(
            doc["family"],
            v1=doc["v1"],
            v2=doc["v2"],
            q=doc["q"],
            cost=doc.get("cost"),
            **params,
        )

    @classmethod
    def from_json(cls, text: str) -> "ContestSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_json_dict(doc)


def _as_profile(profile) -> EffortProfile:
    if isinstance(profile, EffortProfile):
        return profile
    x1, x2 = profile
    return EffortProfile(x1, x2)


def outcome_distribution(spec: ContestSpec, profile) -> OutcomeDistribution:
    """Outcome probabilities at a profile, validated as a distribution."""
    prof = _as_profile(profile)
    p1, p2, p0 = spec.csf.outcome(prof.x1, prof.x2)
    return OutcomeDistribution(float(p1), float(p2), float(p0))


def payoff(spec: ContestSpec, profile, player: int) -> float:
    """Expected payoff V_i * (p_i + q_i * p0) - c(x_i) of player 1 or 2."""
    if player not in (1, 2):
        raise ValidationError(f"player must be 1 or 2, got {player!r}")
    prof = _as_profile(profile)
    dist = outcome_distribution(spec, prof)
    if player == 1:
        win = dist.p1 + spec.q * dist.p0
        return spec.v1 * win - float(spec.cost.cost(prof.x1))
    win = dist.p2 + (1.0 - spec.q) * dist.p0
    return spec.v2 * win - float(spec.cost.cost(prof.x2))


def eventual_win_prob(spec: ContestSpec, profile) -> tuple[float, float]:
    """Probabilities that each player ends up with the prize; sums to one."""
    dist = outcome_distribution(spec, _as_profile(profile))
    win1 = dist.p1 + spec.q * dist.p0
    win2 = dist.p2 + (1.0 - spec.q) * dist.p0
    return (win1, win2)
