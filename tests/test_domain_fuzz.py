"""Every input inside the documented domain ends one of two ways.

The domain is every finite positive prize, any k >= 1, r > 0 for a ratio family
and 0 < r <= 1 for blavatskyy-power, and any q in [0, 1].  Seeded draws reach
its edges, which `tools/bitscan.py` (prizes 1e-3 to 1e300, k <= 1e9, tie rules
on the 2^-53 lattice) never does:

- prizes log-uniform on 1e-323..1e308, plus the least subnormal, the least
  normal and the largest double;
- k log-uniform up to 1e308, and exponents r log-uniform from the least
  subnormal to 1, plus r = 1 - 2^-53 and r = 1; a ratio family also draws r
  above 1, log-uniform to 1e3 and to 1e308;
- tie rules 0, 1, U(0, 1), 10^U(-300, 0) and 1 - 10^U(-16, 0), each with the
  prizes in either label order.

Each draw goes through `solve(force=True)`, an 11-lane `solve_lanes`,
`sweep(11)`, `optimal_q` and `expected_effort`.  Every call must return finite
efforts and residuals (a lane's, where it solved) or raise a `ContestError`, and
no warning may escape but `UNCHECKED_ASSUMPTIONS_WARNING`.  A blavatskyy-power
r < 1 solve or lane, which Newton's rounding floor alone accepts, must also have
effort-space residuals within `helpers.concave_residual_bound`, a multiple of
eps scaled by the log of its inputs.  The 2,000 draws take
about 3 s on one core of a 2-vCPU host.  At these seeds the draws reach the
three edge defects this scan was written for: a bare "math domain error" from a
concave Newton start at a subnormal prize, and a ratio weak effort that
overflowed in one order of its product, on both ratio families.
"""
from __future__ import annotations

import math
import random
import sys
import warnings

import numpy as np
import pytest

from tiebreak import (ContestError, RandomTieRule, expected_effort, make_contest, optimal_q, solve,
                      sweep)
from tiebreak.equilibrium import UNCHECKED_ASSUMPTIONS_WARNING, solve_lanes

from helpers import concave_residual_bound

DRAWS_PER_FAMILY = 400
FAMILY_PARAMS = {
    "jia-ratio": ("r", "k"),
    "vesperoni-ratio": ("r", "k"),
    "jia-diff": ("k",),
    "vesperoni-diff": ("k",),
    "blavatskyy-power": ("r",),
}
LANE_QS = np.linspace(0.0, 1.0, 11)


def _prize(rng: random.Random) -> float:
    u = rng.random()
    if u < 0.15:
        return (5e-324, sys.float_info.min, sys.float_info.max)[int(u / 0.05)]
    return 10.0 ** rng.uniform(-323.0, 308.0)


def _tie_rule(rng: random.Random) -> float:
    return rng.choice((lambda: 0.0, lambda: 1.0, rng.random,
                       lambda: 10.0 ** rng.uniform(-300.0, 0.0),
                       lambda: 1.0 - 10.0 ** rng.uniform(-16.0, 0.0)))()


def _param(name: str, rng: random.Random, ratio: bool) -> float:
    if name == "k":
        return 1.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(0.0, 308.0)
    u = rng.random()
    if u < 0.3:
        return (5e-324, 1.0 - 2.0 ** -53, 1.0)[int(u / 0.1)]
    if ratio and u < 0.55:  # a ratio family's r > 1, mostly below 1e3
        return 10.0 ** rng.uniform(0.0, 3.0 if u < 0.45 else 308.0)
    return 10.0 ** rng.uniform(-323.0, 0.0)


def _draws(family: str, seed: int):
    rng = random.Random(seed)
    for i in range(DRAWS_PER_FAMILY):
        prizes, q = (_prize(rng), _prize(rng)), _tie_rule(rng)
        params = {name: _param(name, rng, "ratio" in family) for name in FAMILY_PARAMS[family]}
        yield make_contest(family, v1=prizes[i % 2], v2=prizes[1 - i % 2], q=q, **params)


def _solved(out) -> list[int]:
    return [i for i in range(out.q.size) if i not in out.errors]


def _finite_values(name: str, out) -> list[float]:
    """The efforts, residuals and totals a call returned."""
    if name == "solve":
        return [out.x1, out.x2, *out.residuals]
    if name == "lanes":
        return [a[i] for a in (out.x1, out.x2, *out.residuals) for i in _solved(out)]
    if name == "sweep":
        return [*out.x1, *out.x2]
    if name == "optimal_q":
        return [out.x1, out.x2, out.total_effort]
    return [out]


@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
def test_every_call_ends_in_finite_values_or_a_typed_error(family):
    faults = []
    for spec in _draws(family, seed=sorted(FAMILY_PARAMS).index(family) + 13):
        rule = RandomTieRule([(spec.q, 0.5), (1.0 - spec.q, 0.5)])
        calls = {"solve": lambda: solve(spec, force=True),
                 "lanes": lambda: solve_lanes(spec, LANE_QS, force=True),
                 "sweep": lambda: sweep(spec, 11, force=True),
                 "optimal_q": lambda: optimal_q(spec, force=True),
                 "expected_effort": lambda: expected_effort(spec, rule, force=True)}
        newton = spec.csf.kind == "concave" and spec.csf.r < 1.0
        for name, call in calls.items():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    out = call()
                except ContestError:
                    out = None
                except Exception as error:  # a bare exception is the fault this scan looks for
                    faults.append((name, spec, repr(error)))
                    continue
            leaked = [str(w.message) for w in caught
                      if str(w.message) != UNCHECKED_ASSUMPTIONS_WARNING]
            if leaked:
                faults.append((name, spec, leaked))
            if out is not None and not all(map(math.isfinite, _finite_values(name, out))):
                faults.append((name, spec, "non-finite result"))
            if out is not None and newton and name in ("solve", "lanes"):
                residuals = (out.residuals if name == "solve" else
                             [res[i] for res in out.residuals for i in _solved(out)])
                if max(map(abs, residuals), default=0.0) > concave_residual_bound(spec):
                    faults.append((name, spec, "residuals above the bound", residuals))
    assert not faults, faults[:5]
