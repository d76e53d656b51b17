"""Deterministic cost counts of the solvers, pinned per kind.

`tools/costscan.py` counts bytecodes (`sys.settrace` opcode events in the
package's own frames, those whose code lies under `src/tiebreak`) for
`make_contest`, scalar `solve` and a seeded design-study sample, NumPy
calls for a 101-lane `solve_lanes` on the hard corpus, and NumPy calls and
the array elements they compute for the grid oracle's `grid_nash` on one
contest per family kind.  The per-kind totals
are pinned in `tests/data/cost_counts.json` under the interpreter's Python
and NumPy versions and NumPy's AVX-512 dispatch; an interpreter with no
record skips the gate.  Any change in a total, up or down, fails until the
totals are re-recorded:

    PYTHONPATH=src python tools/costscan.py --record
"""
from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tiebreak import ContestError, make_contest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "costscan.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("costscan", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


costscan = _load_tool()


@pytest.fixture(scope="module")
def rows():
    return list(costscan.scan())


def test_cost_counts_equal_the_record(rows):
    key = costscan.record_key()
    records = json.loads(costscan.RECORD.read_text(encoding="utf-8"))
    if key not in records:
        pytest.skip(f"no cost counts recorded for {key!r}")
    got, want = costscan.totals(rows), records[key]
    moved = {k: (want.get(k), got.get(k)) for k in {*got, *want} if got.get(k) != want.get(k)}
    assert not moved, (
        f"cost counts moved (recorded, now): {dict(sorted(moved.items()))}; state the change "
        "and re-record with `PYTHONPATH=src python tools/costscan.py --record`")


def _bits(result):
    """What a result carries, exactly: reprs of floats round-trip their bits."""
    if isinstance(result, ContestError):
        return f"{type(result).__name__}: {result}"
    if hasattr(result, "errors"):  # lanes
        arrays = (result.q, result.x1, result.x2, result.beta, *result.residuals)
        return ([None if a is None else np.asarray(a).tobytes() for a in arrays],
                result.method, result.warnings, {i: _bits(e) for i, e in result.errors.items()})
    return repr(result)


def test_counted_runs_compute_the_plain_runs_bits(rows):
    assert {row.op for row in rows} == set(costscan.UNITS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for row in rows:
            assert _bits(row.result) == _bits(row.plain()), (row.op, row.label)


def test_bytecodes_count_only_the_package_frames():
    """NumPy's Python code (`ndarray.any` runs `numpy._core._methods._any`) and
    this file's own frames go uncounted; a package call counts its frames."""
    assert costscan.bytecodes(lambda: np.ones(3).any())[0] == 0
    count, spec = costscan.bytecodes(
        lambda: make_contest("jia-diff", v1=3.0, v2=1.2, q=0.5, k=2.0))
    assert count > 0 and spec.csf.kind == "diff"


def test_lane_counts_follow_the_arrays_to_the_result(rows):
    """Arithmetic keeps the counting subclass, so a lane count covers the
    whole loop, not only the calls on the tie rules themselves."""
    lanes = next(row.result for row in rows if row.op == "lanes" and row.kind == "diff")
    assert type(lanes.x1) is costscan.CountedArray


def test_element_counts_take_a_masked_call_where_its_mask_holds():
    """A call computes its outputs' elements, and a `where=` call only those
    its mask sets: two masked powers that split a block count it once."""
    counted = costscan.CountedArray
    counted.calls = counted.elements = 0
    plain = np.array([[0.5, 2.0], [3.0, 0.25]])
    th = plain.view(counted)
    below = th < 1.0  # 4 elements
    a = np.power(th, 0.5, out=None, where=below)  # 2
    np.power(th, -0.5, where=~below, out=a)  # 4 for the inversion, 2 for the power
    assert (counted.calls, counted.elements) == (4, 12)
    assert a.tobytes() == np.where(plain < 1.0, plain ** 0.5, plain ** -0.5).tobytes()


def test_costscan_prints_in_a_fresh_process_what_it_counts_here(rows):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True, check=True, env=env)
    assert out.stdout.decode() == costscan.text(rows)
