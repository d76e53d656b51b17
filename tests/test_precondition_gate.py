"""The solvers' precondition gate agrees with the family audit.

`solve` and `solve_lanes` read the fact that decides a family's audit at the
larger prize (`assumption_excess`).  Where the audit fails, a ratio family
outside its closed-form precondition raises unless `force` is given, and
every solve that returns carries `UNCHECKED_ASSUMPTIONS_WARNING`; where it
passes, no solve carries it.  The scan runs the seeded draws of
`tools/bitscan.py`, which hold no ratio family outside its precondition, so
seeded ratio draws past it are added here.
"""
from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest

from tiebreak import (ContestError, RandomTieRule, ValidationError, expected_effort,
                      make_contest, make_family, optimal_q, solve, sweep)
from tiebreak.audit import audit_family
from tiebreak.equilibrium import UNCHECKED_ASSUMPTIONS_WARNING, solve_lanes

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bitscan.py"
SCAN_DRAWS = 2000
LANE_QS = (0.0, 0.5, 1.0)


def _bitscan():
    spec = importlib.util.spec_from_file_location("bitscan", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _failing_ratio_contests(count: int):
    """Seeded design-scale ratio contests outside the closed-form precondition:
    vesperoni-ratio with r k > 1 and jia-ratio with r > 1."""
    rng = random.Random(47)
    for i in range(count):
        k, past = rng.uniform(1.0, 10.0), 1.0 + rng.uniform(1e-6, 3.0)
        family, r = ("jia-ratio", past) if i % 2 else ("vesperoni-ratio", past / k)
        v1, v2 = rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0)
        yield make_contest(family, v1=v1, v2=v2, q=rng.random(), r=r, k=k)


def test_the_warning_appears_exactly_where_the_audit_fails():
    bitscan = _bitscan()
    seen = {(solved, passed): 0 for solved in ("solve", "lanes") for passed in (True, False)}
    for index in range(SCAN_DRAWS):
        family, params, v1, v2, q, _ = bitscan.draw(index)
        spec = make_contest(family, v1=v1, v2=v2, q=q, **params)
        passed = audit_family(spec.csf, spec.valuations.v1).passed
        expected = () if passed else (UNCHECKED_ASSUMPTIONS_WARNING,)
        for solved, call in (("solve", lambda: solve(spec)),
                             ("lanes", lambda: solve_lanes(spec, LANE_QS))):
            try:
                warnings = call().warnings
            except ContestError as exc:
                assert "closed-form precondition" not in str(exc), (index, exc)
                continue
            assert warnings == expected, (index, solved)
            seen[solved, passed] += 1
    # both verdicts are exercised by both entry points
    assert min(seen.values()) >= 100, seen


@pytest.mark.parametrize("spec", list(_failing_ratio_contests(40)),
                         ids=lambda spec: f"{spec.family}-r{spec.csf.r:.4g}-k{spec.csf.k:.4g}")
def test_a_failed_ratio_condition_raises_unless_forced(spec):
    assert spec.csf.lemma_excess > 0.0
    assert not audit_family(spec.csf).passed
    for call in (solve, lambda s: solve_lanes(s, LANE_QS)):
        with pytest.raises(ValidationError, match="--force"):
            call(spec)
    try:
        eq = solve(spec, force=True)
    except ContestError:
        pass
    else:
        assert eq.warnings == (UNCHECKED_ASSUMPTIONS_WARNING,)
    lanes = solve_lanes(spec, LANE_QS, force=True)
    assert lanes.warnings == (UNCHECKED_ASSUMPTIONS_WARNING,)
    for i in set(range(len(LANE_QS))) - set(lanes.errors):
        assert lanes.equilibrium(i).warnings == (UNCHECKED_ASSUMPTIONS_WARNING,)


# The designer's entry points and `solve` still accept `audited` and ignore it
# only because the benchmark's `perfbench/ops.py` passes it; nothing else may.
@pytest.mark.parametrize("contest,force", [
    (dict(family="jia-ratio", r=0.5, k=2.0, v1=3.0, v2=1.2), False),
    (dict(family="jia-ratio", r=2.0, k=2.0, v1=3.0, v2=1.2), True),
    (dict(family="jia-diff", k=2.0, v1=3.0, v2=1.2), False),
    (dict(family="vesperoni-diff", k=6.388505594693889, v1=7.375058005576213,
          v2=3.7494174585456066), False),
    (dict(family="blavatskyy-power", r=0.5, v1=4.0, v2=2.0), False),
], ids=["ratio", "forced-ratio", "diff", "diff-past-its-curvature-bound", "concave"])
def test_audited_changes_nothing(contest, force):
    spec = make_contest(q=0.25, **contest)
    rule = RandomTieRule.from_pairs([(0.0, 0.5), (1.0, 0.5)])
    calls = (lambda **kw: solve(spec, **kw), lambda **kw: sweep(spec, 11, **kw),
             lambda **kw: optimal_q(spec, **kw), lambda **kw: expected_effort(spec, rule, **kw))
    for call in calls:
        assert call(force=force, audited=True) == call(force=force, audited=False)
    passed = audit_family(spec.csf, spec.valuations.v1).passed
    assert solve(spec, force=force, audited=True).warnings == (
        () if passed else (UNCHECKED_ASSUMPTIONS_WARNING,))


@pytest.mark.parametrize("k", [4.5e307, 1.7976931348623157e308])
def test_the_gate_reads_a_finite_fact_at_the_largest_k(k):
    """vesperoni-diff's curvature peak divides (k + 2) / (k + 1) before its
    factor 4, whose product would overflow past k = 4.4e307, so the audit
    and the gate stay finite there and a plain solve keeps its ending."""
    spec = make_contest("vesperoni-diff", v1=3.0, v2=1.0, q=0.3, k=k)
    top, _ = spec.csf.curvature_peak
    assert top == make_family("vesperoni-diff", k=1e300).curvature_peak[0]
    assert audit_family(spec.csf, spec.valuations.v1).passed
    assert solve(spec).warnings == ()
