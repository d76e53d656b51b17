"""Seeded input generator shared by every workload.

The generator sees only the seed; the program under test sees only what it
draws.  Each draw is marginally uniform over the documented solvable range
of its family:

- vesperoni-ratio: k in [1, 10], r in (0, 1/k]  (so r*k <= 1);
- jia-ratio:       k in [1, 10], r in (0, 1];
- vesperoni-diff, jia-diff: k in [1, 10];
- blavatskyy-power: r = 1 half the time, uniform in (0, 1) otherwise;
- strong prize log-uniform in [0.1, 10], prize ratio log-uniform in [1, 10],
  labels in random order; q uniform in [0, 1].

Run-to-run steadiness comes from how the draws are spread, not from what
is drawn.  Families come in shuffled blocks of five and the concave family
alternates between its two branches, so every prefix of the stream holds
the same family mix.  The parameters that set an operation's cost (r or k,
the prize ratio, the strong prize) come from a randomly shifted Halton
sequence per family: each draw is still uniform, but a short run covers the
range as evenly as a long one, so the share of slow and failing contests
does not swing from seed to seed.  Nothing is dropped or re-drawn.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

FAMILIES = ("vesperoni-ratio", "jia-ratio", "vesperoni-diff", "jia-diff",
            "blavatskyy-power")
KIND = {"vesperoni-ratio": "ratio", "jia-ratio": "ratio",
        "vesperoni-diff": "diff", "jia-diff": "diff",
        "blavatskyy-power": "concave"}

STRONG_PRIZE = (0.1, 10.0)
PRIZE_RATIO = (1.0, 10.0)
K_RANGE = (1.0, 10.0)

# Extreme-scale ranges for the hard-inputs workload.
EXTREME_STRONG_PRIZE = (1e-3, 1e12)
EXTREME_PRIZE_RATIO = (1.0, 1e3)
EXTREME_K = (1.0, 1e9)
EXTREME_EDGE = (1e-6, 1e-2)


@dataclass(frozen=True)
class Contest:
    """One drawn contest as plain numbers, in the program's spec vocabulary."""

    family: str
    params: dict
    v1: float
    v2: float
    q: float
    name: str = ""

    @property
    def kind(self) -> str:
        return KIND[self.family]

    def to_json_dict(self) -> dict:
        doc = {"family": self.family, "params": dict(self.params),
               "v1": self.v1, "v2": self.v2, "q": self.q}
        if self.name:
            doc["name"] = self.name
        return doc


def _radical_inverse(i: int, base: int) -> float:
    out, scale = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        out += digit * scale
        scale /= base
    return out


@dataclass
class _ShiftedHalton:
    """Randomly shifted Halton points in [0, 1)^3: uniform, low-discrepancy."""

    shift: tuple[float, float, float]
    index: int = 0
    BASES = (2, 3, 5)

    def next(self) -> tuple[float, ...]:
        self.index += 1
        return tuple((_radical_inverse(self.index, b) + s) % 1.0
                     for b, s in zip(self.BASES, self.shift))


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _uniform(u: float, lo: float, hi: float) -> float:
    return lo + u * (hi - lo)


@dataclass
class Generator:
    """Deterministic stream of contests and auxiliary choices for one seed."""

    seed: int
    rng: random.Random = field(init=False)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)
        self._blocks: dict[str, list] = {}
        self._halton = {f: _ShiftedHalton(tuple(self.rng.random() for _ in range(3)))
                        for f in FAMILIES + ("concave-power",)
                        + tuple("extreme-" + f for f in FAMILIES)}
        self._concave_linear_next = self.rng.random() < 0.5
        self._extreme_near_zero = {f: self.rng.random() < 0.5 for f in FAMILIES}

    def choice_cycle(self, tag: str, items) -> object:
        """Next item from shuffled blocks of `items`: uniform, evenly mixed."""
        block = self._blocks.get(tag)
        if not block:
            block = self._blocks[tag] = list(items)
            self.rng.shuffle(block)
        return block.pop()

    def family(self) -> str:
        return self.choice_cycle("family", FAMILIES)

    def _prizes(self, u_ratio: float, u_strong: float, strong_range, ratio_range):
        strong = _log_uniform(u_strong, *strong_range)
        weak = strong / _log_uniform(u_ratio, *ratio_range)
        return (strong, weak) if self.rng.random() < 0.5 else (weak, strong)

    def contest(self) -> Contest:
        """One draw over the documented solvable range of a uniform family."""
        fam = self.family()
        if fam == "blavatskyy-power":
            linear = self._concave_linear_next
            self._concave_linear_next = not linear
            u_param, u_ratio, u_strong = self._halton[
                fam if linear else "concave-power"].next()
            params = {"r": 1.0 if linear else 1.0 - u_param}
        else:
            u_param, u_ratio, u_strong = self._halton[fam].next()
            if fam == "vesperoni-ratio":
                k = _uniform(self.rng.random(), *K_RANGE)
                r = (1.0 - u_param) / k
                if r * k > 1.0:
                    r = math.nextafter(r, 0.0)
                params = {"r": r, "k": k}
            elif fam == "jia-ratio":
                params = {"r": 1.0 - u_param, "k": _uniform(self.rng.random(), *K_RANGE)}
            else:
                params = {"k": _uniform(u_param, *K_RANGE)}
        v1, v2 = self._prizes(u_ratio, u_strong, STRONG_PRIZE, PRIZE_RATIO)
        return Contest(fam, params, v1, v2, self.rng.random())

    def extreme_contest(self) -> Contest:
        """A draw at extreme scale, still inside each family's domain.

        Prizes span 1e-6 to 1e12, k reaches 1e9, and r sits within 1e-2 of
        0 or of 1, each family alternating between the two edges.
        """
        fam = self.family()
        u_param, u_ratio, u_strong = self._halton["extreme-" + fam].next()
        near_zero = self._extreme_near_zero[fam]
        self._extreme_near_zero[fam] = not near_zero
        edge = _log_uniform(u_param, *EXTREME_EDGE)
        r = edge if near_zero else 1.0 - edge
        k = _log_uniform(self.rng.random(), *EXTREME_K)
        if fam == "vesperoni-ratio":
            r_scaled = r / k
            if r_scaled * k > 1.0:
                r_scaled = math.nextafter(r_scaled, 0.0)
            params = {"r": r_scaled, "k": k}
        elif fam == "jia-ratio":
            params = {"r": r, "k": k}
        elif fam == "blavatskyy-power":
            params = {"r": r}
        else:
            params = {"k": k}
        v1, v2 = self._prizes(u_ratio, u_strong, EXTREME_STRONG_PRIZE,
                              EXTREME_PRIZE_RATIO)
        return Contest(fam, params, v1, v2, self.rng.random())

    def tie_rule(self) -> tuple[tuple[float, float], ...]:
        """A random tie rule: 1, 2 or 4 atoms, uniform q, equal exact weights."""
        atoms = self.rng.choice((1, 2, 4))
        return tuple((self.rng.random(), 1.0 / atoms) for _ in range(atoms))
