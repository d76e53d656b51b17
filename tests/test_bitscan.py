"""Smoke test of `tools/bitscan.py`, the bit-identity scan of the solvers."""
from __future__ import annotations

import importlib.util
from pathlib import Path

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
    assert len(headers) == 20 and len(first) == 5 * 20
    assert {line.split()[2] for line in headers} == set(bitscan.FAMILIES)
    for prefix in ("solve ", "lanes ", "optimal_q ", "expected_effort "):
        assert sum(line.startswith(prefix) for line in first) == 20


def test_bitscan_draws_both_scales_and_label_orders():
    bitscan = _load_tool()
    draws = [bitscan.draw(i) for i in range(200)]
    strong = [max(v1, v2) for _, _, v1, v2, _, _ in draws]
    assert max(strong) > 10.0 >= min(strong)  # extreme draws pass the design range
    assert {v1 > v2 for _, _, v1, v2, _, _ in draws} == {True, False}
