"""Every solve returned without `UNCHECKED_ASSUMPTIONS_WARNING` passes the grid oracle.

The solvers' "two endings" are checked here against the independent route:
`verify` evaluates only outcomes and payoffs, on a 101-step
`GridSpec.for_contest` grid, and fails a claim that some grid effort beats.
The contests are drawn without `force`, so a ratio family past its
closed-form precondition ends in a typed error and is not verified:

- `tests/test_domain_fuzz.py`'s generators, which reach the documented
  domain's edges (prizes from the least subnormal to the largest double, k to
  1e308, r to its limits, tie rules at 0, 1 and near either), at seeds of their
  own;
- `tools/bitscan.py`'s first draws, at design and extreme scale.

Every family is drawn in both label orders, one test case per family.  A
solve returned with the warning may be refuted: such solves are counted by
verdict, not asserted, and each case prints its counts (`pytest -rP`), so a
change that certifies or refuses them shows the counts fall.
"""
from __future__ import annotations

import importlib.util
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

from tiebreak import ContestError, GridSpec, make_contest, solve, verify
from tiebreak.equilibrium import UNCHECKED_ASSUMPTIONS_WARNING

from test_domain_fuzz import FAMILY_PARAMS, _draws

BITSCAN = Path(__file__).resolve().parents[1] / "tools" / "bitscan.py"
BITSCAN_DRAWS = 500
FUZZ_SEED = 41  # the domain fuzz's own seeds are 13 to 17
STEPS = 101


@cache
def _bitscan_draws(count: int) -> tuple:
    spec = importlib.util.spec_from_file_location("bitscan", BITSCAN)
    bitscan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bitscan)
    return tuple(bitscan.draw(index)[:5] for index in range(count))


def _contests(family: str):
    yield from _draws(family, seed=FUZZ_SEED + sorted(FAMILY_PARAMS).index(family))
    for name, params, v1, v2, q in _bitscan_draws(BITSCAN_DRAWS):
        if name == family:
            yield make_contest(family, v1=v1, v2=v2, q=q, **params)


@pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
def test_every_solve_returned_without_the_warning_passes_verify(family):
    refuted, draws, verdicts = [], 0, Counter()
    for spec in _contests(family):
        draws += 1
        try:
            eq = solve(spec)
        except ContestError:
            continue
        report = verify(spec, eq, GridSpec.for_contest(spec, STEPS))
        warned = UNCHECKED_ASSUMPTIONS_WARNING in eq.warnings
        verdicts[warned, report.passed] += 1
        if not (warned or report.passed):
            refuted.append((spec, (eq.x1, eq.x2), report.payoff_losses))
    print(f"{family}, {draws} draws: {verdicts[False, True]} unwarned solves pass; warned "
          f"solves {verdicts[True, True]} pass and {verdicts[True, False]} fail")
    assert draws >= 400
    assert not refuted, refuted[:5]
