"""Tests of `tools/bitscan.py`, the bit-identity scan of the solvers, and
the pin of its first draws: one digest per family and line kind, recorded
in `tests/data/bitscan.json` under the interpreter's Python and NumPy
versions and NumPy's AVX-512 dispatch.  An interpreter with no record skips
the pin.  Any moved line fails it until the digests are re-recorded:

    PYTHONPATH=src python tools/bitscan.py --record
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bitscan.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bitscan", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bitscan_writes_the_same_lines_twice():
    bitscan = _load_tool()
    first, second = (list(bitscan.scan(draws=20)) for _ in range(2))
    assert first == second
    headers = [line for line in first if line.startswith("# ")]
    assert len(headers) == 20 and len(first) == 8 * 20
    assert {line.split()[2] for line in headers} == set(bitscan.FAMILIES)
    for prefix in ("audit ", "solve ", "verify ", "lanes ", "optimal_q ", "shape ",
                   "expected_effort "):
        assert sum(line.startswith(prefix) for line in first) == 20


def test_bitscan_draws_both_scales_and_label_orders():
    bitscan = _load_tool()
    draws = [bitscan.draw(i) for i in range(200)]
    strong = [max(v1, v2) for _, _, v1, v2, _, _ in draws]
    assert max(strong) > 10.0 >= min(strong)  # extreme draws pass the design range
    assert {v1 > v2 for _, _, v1, v2, _, _ in draws} == {True, False}


def test_bitscan_digests_equal_the_record():
    bitscan = _load_tool()
    key = bitscan.record_key()
    records = json.loads(bitscan.RECORD.read_text(encoding="utf-8"))
    if key not in records:
        pytest.skip(f"no bitscan digests recorded for {key!r}")
    got, want = bitscan.digests(), records[key]
    moved = sorted(k for k in {*got, *want} if got.get(k) != want.get(k))
    assert not moved, (
        f"bitscan lines moved for {moved}; diff the scans of both trees, state the moves and "
        "re-record with `PYTHONPATH=src python tools/bitscan.py --record`")
