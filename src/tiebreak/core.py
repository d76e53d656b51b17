"""Game primitives: valuations, tie-breaking rules, profiles, payoffs.

A two-player contest with ties has three outcomes -- player 1 wins, player 2
wins, or the contest ties -- with probabilities (p1, p2, p0) determined by
the effort pair through a contest success function.  The designer breaks a
tie in favor of player 1 with probability q, so player i's payoff is

    Pi_i = V_i * (p_i + q_i * p0) - c(x_i),   q_1 = q,  q_2 = 1 - q,

and "eventual win probability" means p_i + q_i * p0.  Each game fact is
stated here once, for the other modules to call: the payoff in `payoffs`,
a cost's break-even effort in `CostKind.break_even`, and the label swap in
the `Valuations` label maps `tie_share` and `in_order`.

A contest is its family, prizes and tie rule; its cost technology is the
family's `default_cost`, never a setting of its own.  Each input is checked
once, where it enters: a `ContestSpec` checks its prizes by building the
`Valuations` it holds, which every solver, designer and oracle path reads,
its tie share by `q_value`, as `TieRule` does, and a spec document's cost
against its family's when the document is read.
Each kind of input value has one check here, which the other modules call:
`finite_value` a finite real, `positive_value` a positive magnitude, `count_value`
a sample count (at most `MAX_COUNT`: counts size arrays), `player_value` a player
label, `pair_value` a pair (prizes, a tie-rule atom), and `profile_value` an effort
profile, which `payoff` and `oracle.verify` alike take as an `EffortProfile`,
anything with `x1` and `x2` (an `Equilibrium`) or a pair.

Every type here is an immutable value and every operation a pure function;
concurrent callers need no synchronization.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

import numpy as np

from .errors import ValidationError

# Outcome probabilities must sum to one within this; catches family bugs.
PROB_SUM_TOL = 1e-12

# A discrete tie rule's weights must sum to one within this.
WEIGHT_SUM_TOL = 1e-12

# |E[Q] - 1/2| at or below this counts as an unbiased random rule.
UNBIASED_TOL = 1e-12

# Largest sample count: counts size arrays, so a larger one is refused before any is allocated.
MAX_COUNT = 10**6


def finite_value(value: Any, name: str) -> float:
    """The real number named `name` as a float, checked finite."""
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a real number, got {value!r}") from exc
    if not math.isfinite(out):
        raise ValidationError(f"{name} must be finite, got {out!r}")
    return out


def positive_value(value, name: str) -> float:
    """The magnitude named `name` as a float, checked positive and finite."""
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a number, got {value!r}") from exc
    if not (math.isfinite(out) and out > 0):
        raise ValidationError(f"{name} must be a positive finite number, got {out}")
    return out


def count_value(value, name: str, low: int = 2) -> int:
    """A count of samples named `name` as an int, checked integral (a bool is
    not a count), >= `low` and <= `MAX_COUNT`."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValidationError(f"{name} must be >= {low}, got {value}")
    if value > MAX_COUNT:
        raise ValidationError(f"{name} must be <= {MAX_COUNT}, got {value}")
    return int(value)


def pair_value(value, name: str) -> tuple:
    """The pair named `name` as a 2-tuple of its entries, unchecked."""
    try:
        first, second = value
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a pair, got {value!r}") from exc
    return first, second


def player_value(value) -> int:
    """A player label as the int 1 or 2 (a bool is not a player)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value not in (1, 2):
        raise ValidationError(f"player must be 1 or 2, got {value!r}")
    return int(value)


class JsonRecord:
    """Dataclass mixin serializing a record as one JSON object.

    `json_keys` lists the keys in output order, by default the fields in
    declaration order.  An entry names a field or a property; a
    `(key, names)` pair nests those names under `key`; a field left out is
    not emitted.  Enums become their value, tie rules their q, tuples lists,
    dicts copies, and nested records (any value with its own `to_json_dict`)
    their dicts.
    """

    json_keys: tuple = ()

    def to_json_dict(self) -> dict:
        return _json_object(self, self.json_keys or [f.name for f in dataclasses.fields(self)])


def _json_object(record, keys) -> dict:
    """The values `keys` name on `record`, as `JsonRecord` describes."""
    out = {}
    for key in keys:
        if isinstance(key, str):
            out[key] = _json_value(getattr(record, key))
        else:
            out[key[0]] = _json_object(record, key[1])
    return out


def _json_value(value):
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, TieRule):
        return value.q
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return dict(value)
    return value


class CostKind(Enum):
    """Effort cost technology: c(x) = x, or c(x) = x**2 / 2."""

    LINEAR = "linear"
    QUADRATIC_HALF = "quadratic_half"

    def cost(self, x):
        """Cost of effort x; accepts scalars or arrays; past about 1.9e154 x^2 / 2 is a quiet inf."""
        with np.errstate(over="ignore"):
            return x if self is CostKind.LINEAR else 0.5 * x * x

    def break_even(self, prize: float) -> float:
        """The effort costing `prize`, above which staying out does better; where 2 prize
        overflows, sqrt(2 prize) is formed as 2 sqrt(prize / 2), the same number."""
        if self is CostKind.LINEAR:
            return prize
        return math.sqrt(2.0 * prize) if 2.0 * prize < math.inf else 2.0 * math.sqrt(prize / 2.0)


@dataclass(frozen=True)
class Valuations:
    """Prize values of the two players, normalized so v1 >= v2 > 0.

    Inputs arriving in the other order are accepted and silently swapped; the
    constructor alone sets `swapped` to record it, and the label maps
    `tie_share` and `in_order` apply it, in either direction.
    """

    v1: float
    v2: float
    swapped: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        v1 = finite_value(self.v1, "v1")
        v2 = finite_value(self.v2, "v2")
        if v1 <= 0 or v2 <= 0:
            raise ValidationError(f"valuations must be positive, got ({v1}, {v2})")
        swapped = v2 > v1
        if swapped:
            v1, v2 = v2, v1
        self.__dict__.update(v1=v1, v2=v2, swapped=swapped)  # frozen: set past __setattr__

    @property
    def beta(self) -> float:
        """Valuation ratio v1 / v2 >= 1."""
        return self.v1 / self.v2

    def tie_share(self, q):
        """The stronger player's tie share(s) at player 1's `q`, a float or an array."""
        return 1.0 - q if self.swapped else q

    def in_order(self, a, b):
        """The pair (a, b), swapped when the labels were."""
        return (b, a) if self.swapped else (a, b)


@dataclass(frozen=True)
class TieRule:
    """Deterministic tie-breaking rule: a tie goes to player 1 with probability q."""

    q: float

    def __post_init__(self) -> None:
        # a number, never a rule: TieRule(TieRule(q)) is refused as a non-number
        object.__setattr__(self, "q", q_value(finite_value(self.q, "q")))

    @classmethod
    def coerce(cls, value: "TieRule | float") -> "TieRule":
        return value if isinstance(value, cls) else cls(value)


def q_value(q: TieRule | float) -> float:
    """Validated float value of a tie rule given as TieRule or bare number."""
    if isinstance(q, TieRule):
        return q.q
    out = finite_value(q, "q")
    if not 0.0 <= out <= 1.0:
        raise ValidationError(f"q must lie in [0, 1], got {out}")
    return out


@dataclass(frozen=True)
class RandomTieRule:
    """Random tie-breaking rule: a finite lottery over deterministic rules.

    Atoms are (rule, weight) pairs with positive weights summing to one.
    """

    atoms: tuple[tuple[TieRule, float], ...]

    def __post_init__(self) -> None:
        try:
            atoms = tuple(self.atoms)
        except TypeError as exc:
            raise ValidationError(f"atoms must be a sequence of pairs, got {self.atoms!r}") from exc
        if not atoms:
            raise ValidationError("a random tie rule needs at least one atom")
        cleaned = []
        for i, atom in enumerate(atoms):
            rule, weight = pair_value(atom, f"atoms[{i}]")
            rule = TieRule.coerce(rule)
            weight = finite_value(weight, f"atoms[{i}] weight")
            if weight <= 0:
                raise ValidationError(f"atom weights must be positive, got {weight}")
            cleaned.append((rule, weight))
        total = math.fsum(w for _, w in cleaned)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"atom weights must sum to 1, got {total!r}")
        object.__setattr__(self, "atoms", tuple(cleaned))

    @classmethod
    def from_pairs(cls, pairs) -> "RandomTieRule":
        return cls(pairs)

    @property
    def mean_q(self) -> float:
        return math.fsum(rule.q * w for rule, w in self.atoms)

    @property
    def is_unbiased(self) -> bool:
        """True when the rule favors neither player on average."""
        return abs(self.mean_q - 0.5) <= UNBIASED_TOL


@dataclass(frozen=True)
class EffortProfile(JsonRecord):
    """A pair of nonnegative efforts."""

    x1: float
    x2: float

    def __post_init__(self) -> None:
        x1 = finite_value(self.x1, "x1")
        x2 = finite_value(self.x2, "x2")
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
        for name in ("p1", "p2", "p0"):
            p = finite_value(getattr(self, name), name)
            if p < -PROB_SUM_TOL or p > 1.0 + PROB_SUM_TOL:
                raise ValidationError(f"{name} out of [0, 1]: {p!r}")
            object.__setattr__(self, name, p)
        total = self.p1 + self.p2 + self.p0
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"outcome probabilities must sum to 1, got {total!r}")


@dataclass(frozen=True)
class ContestSpec(JsonRecord):
    """Full description of one contest: family, prizes, tie rule.

    The cost technology is the family's: `cost` reads its `default_cost`,
    and the JSON document writes it, so a spec file states it; a file that
    states another is refused where it is read (`from_json_dict`).
    Values are stored exactly as given by the caller; player labels are never
    rewritten here.  Solvers that need the stronger player first read
    `valuations`, the checked prizes in that order, built once here and
    carried by `with_q`, and translate their answers back with its label
    maps (see `Valuations`).
    """

    csf: Any
    v1: float
    v2: float
    q: float
    valuations: Valuations = field(init=False, repr=False, compare=False)

    json_keys = ("family", "params", "v1", "v2", "q", "cost")

    def __post_init__(self) -> None:
        vals = Valuations(self.v1, self.v2)
        q = q_value(self.q)
        for attr in ("name", "kind", "outcome", "params", "default_cost"):
            if not hasattr(self.csf, attr):
                raise ValidationError(
                    f"csf must be a contest success family (missing {attr!r})"
                )
        v1, v2 = vals.in_order(vals.v1, vals.v2)  # checked, in the caller's labels
        self.__dict__.update(v1=v1, v2=v2, q=q, valuations=vals)

    @property
    def tie(self) -> TieRule:
        return TieRule(self.q)

    @property
    def family(self) -> str:
        return self.csf.name

    @property
    def params(self) -> dict:
        return self.csf.params

    @property
    def cost(self) -> CostKind:
        return self.csf.default_cost

    def with_q(self, q: TieRule | float) -> "ContestSpec":
        spec = object.__new__(type(self))
        spec.__dict__.update(self.__dict__, q=q_value(q))  # the rest was checked when built
        return spec

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ContestSpec":
        """The contest of a spec document; its `"cost"`, if given and not null,
        must be the family's."""
        from .families import make_family  # deferred: families imports this module

        if not isinstance(doc, dict):
            raise ValidationError("spec document must be a JSON object")
        extra = set(doc) - set(cls.json_keys)
        if extra:
            raise ValidationError(f"unknown spec field(s): {sorted(extra)}")
        for field in ("family", "v1", "v2", "q"):
            if field not in doc:
                raise ValidationError(f"spec document is missing field {field!r}")
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise ValidationError("params must be a JSON object")
        csf = make_family(doc["family"], **params)
        cost = doc.get("cost")
        if cost is not None and cost != csf.default_cost.value:
            raise ValidationError(f"{csf.kind}-form contests are solved under "
                                  f"{csf.default_cost.value!r} cost, got {cost!r}")
        return cls(csf, doc["v1"], doc["v2"], doc["q"])

    @classmethod
    def from_json(cls, text: str) -> "ContestSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_json_dict(doc)


def profile_value(profile) -> EffortProfile:
    """An `EffortProfile`, anything with `x1` and `x2`, or a pair, as a checked `EffortProfile`."""
    if isinstance(profile, EffortProfile):
        return profile
    if hasattr(profile, "x1") and hasattr(profile, "x2"):
        return EffortProfile(profile.x1, profile.x2)
    return EffortProfile(*pair_value(profile, "profile"))


def outcome_distribution(spec: ContestSpec, profile) -> OutcomeDistribution:
    """Outcome probabilities at a profile (`profile_value`), validated as a distribution."""
    prof = profile_value(profile)
    p1, p2, p0 = spec.csf.outcome(prof.x1, prof.x2)
    return OutcomeDistribution(float(p1), float(p2), float(p0))


def payoffs(spec: ContestSpec, x1, x2, outcome=None):
    """Both players' payoffs V_i * (p_i + q_i * p0) - c(x_i) at efforts x1, x2,
    scalars or broadcast arrays, from the outcome (p1, p2, p0) there if given."""
    win1, win2, tie = spec.csf.outcome(x1, x2) if outcome is None else outcome
    return (spec.v1 * (win1 + spec.q * tie) - spec.cost.cost(x1),
            spec.v2 * (win2 + (1.0 - spec.q) * tie) - spec.cost.cost(x2))


def payoff(spec: ContestSpec, profile, player: int) -> float:
    """Expected payoff of player 1 or 2 (`payoffs`) at its validated outcome distribution."""
    index = player_value(player) - 1
    prof = profile_value(profile)
    dist = outcome_distribution(spec, prof)
    return payoffs(spec, prof.x1, prof.x2, (dist.p1, dist.p2, dist.p0))[index]


def eventual_win_prob(spec: ContestSpec, profile) -> tuple[float, float]:
    """Probabilities that each player ends up with the prize; sums to one."""
    dist = outcome_distribution(spec, profile)
    return (dist.p1 + spec.q * dist.p0, dist.p2 + (1.0 - spec.q) * dist.p0)
