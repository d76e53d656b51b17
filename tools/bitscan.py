"""Bit-level record of what the solvers return on seeded random contests.

Each draw is a contest from one of the five families, at design scale
(prizes 0.1 to 10, k 1 to 10) or at extreme scale (prizes 1e-3 to 1e12 or
to 1e300, k up to 1e9, r near 0, near 1 or 1), in a random label order.
For each draw the scan writes four lines: `solve`, a 101-lane
`solve_lanes`, `optimal_q` and `expected_effort` at a random tie rule.  A
line holds the `float.hex` of every number the result carries, or the
error's type and text, and then the text of each warning the call emitted,
so two trees compute the same bits and warn alike exactly when their
outputs are identical:

    PYTHONPATH=src python tools/bitscan.py --draws 20000 > before.txt
    (change the code)
    PYTHONPATH=src python tools/bitscan.py --draws 20000 > after.txt
    diff before.txt after.txt

The lanes line carries a digest of the lanes; the `# index ...` line above
it names the contest, so a mismatching draw can be rerun through
`solve_lanes` directly.  NumPy picks its float kernels by CPU; run both trees under the same
`NPY_DISABLE_CPU_FEATURES` setting.
"""
from __future__ import annotations

import argparse
import hashlib
import math
import random
import sys
import warnings

import numpy as np

from tiebreak import (ContestError, RandomTieRule, expected_effort, make_contest,
                      optimal_q, solve)
from tiebreak.equilibrium import solve_lanes

FAMILIES = ("vesperoni-ratio", "jia-ratio", "vesperoni-diff", "jia-diff", "blavatskyy-power")
LANE_QS = np.linspace(0.0, 1.0, 101)
SEED = 2026


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw(index: int):
    """(family, params, v1, v2, q, rule pairs) of draw `index`.

    Families cycle in a fixed order and scales alternate, so every stretch
    of ten draws holds each family at both scales; everything else comes
    from a generator seeded by (`SEED`, index), so a draw does not depend
    on the ones before it.
    """
    rng = random.Random(f"{SEED}:{index}")
    family, extreme = FAMILIES[index % 5], index // 5 % 2 == 1
    if extreme:
        top = rng.choice((1e12, 1e300))
        strong, ratio = _log_uniform(rng, 1e-3, top), _log_uniform(rng, 1.0, 1e3)
        edge = _log_uniform(rng, 1e-6, 1e-2)
        r, k = rng.choice((edge, 1.0 - edge)), _log_uniform(rng, 1.0, 1e9)
    else:
        strong, ratio = _log_uniform(rng, 0.1, 10.0), _log_uniform(rng, 1.0, 10.0)
        r, k = 1.0 - rng.random(), rng.uniform(1.0, 10.0)
    if family == "vesperoni-ratio":
        r_k = r / k  # the precondition r * k <= 1
        params = {"r": r_k if r_k * k <= 1.0 else math.nextafter(r_k, 0.0), "k": k}
    elif family == "jia-ratio":
        params = {"r": r, "k": k}
    elif family == "blavatskyy-power":
        params = {"r": 1.0 if rng.random() < 0.5 else r}
    else:
        params = {"k": k}
    v1, v2 = strong, strong / ratio
    if rng.random() < 0.5:
        v1, v2 = v2, v1
    atoms = rng.choice((1, 2, 4))
    pairs = tuple((rng.random(), 1.0 / atoms) for _ in range(atoms))
    return family, params, v1, v2, rng.random(), pairs


def _hex(*values) -> str:
    return " ".join("None" if v is None else float(v).hex() for v in values)


def _error(exc: ContestError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _lanes_text(lanes) -> str:
    rows = []
    for i in range(lanes.q.size):
        if i in lanes.errors:
            rows.append(_error(lanes.errors[i]))
        else:
            beta = None if lanes.beta is None else lanes.beta[i]
            rows.append(_hex(lanes.x1[i], lanes.x2[i], beta,
                             lanes.residuals[0][i], lanes.residuals[1][i]))
    return "\n  ".join(rows)


def _result(call) -> str:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            text = call()
        except ContestError as exc:
            text = _error(exc)
    return "".join([text, *(f" | {w.category.__name__}: {w.message}" for w in caught)])


def scan(draws: int):
    """Yield the output lines of draws 0, ..., draws - 1."""
    for index in range(draws):
        family, params, v1, v2, q, pairs = draw(index)
        yield f"# {index} {family} {params!r} v=({v1!r}, {v2!r}) q={q!r} rule={pairs!r}"
        spec = make_contest(family, v1=v1, v2=v2, q=q, **params)

        def solved():
            eq = solve(spec)
            return _hex(eq.x1, eq.x2, eq.beta, *eq.residuals)

        def lanes():
            text = _lanes_text(solve_lanes(spec, LANE_QS, force=False, audited=False))
            return hashlib.sha256(text.encode()).hexdigest()[:32]

        def optimum():
            best = optimal_q(spec)
            values = _hex(best.q_star.q, best.total_effort, best.x1, best.x2)
            return f"{values} {best.rationale.value}"

        yield f"solve {_result(solved)}"
        yield f"lanes {_result(lanes)}"
        yield f"optimal_q {_result(optimum)}"
        yield "expected_effort " + _result(
            lambda: _hex(expected_effort(spec, RandomTieRule.from_pairs(pairs))))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--draws", type=int, default=1000, help="number of draws")
    args = parser.parse_args(argv)
    for line in scan(args.draws):
        sys.stdout.write(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
