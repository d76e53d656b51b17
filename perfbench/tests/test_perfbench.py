"""Tests of the benchmark itself (not of tiebreak).

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import calibrate  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from inputs import FAMILIES, Contest, Generator  # noqa: E402


@pytest.mark.parametrize("name", sorted(worker.WORKLOADS))
def test_same_seed_same_inputs(name):
    make = worker.WORKLOADS[name].make_inputs
    assert make(Generator(7))[:300] == make(Generator(7))[:300]
    assert make(Generator(7))[:300] != make(Generator(8))[:300]


def test_draws_stay_in_documented_domain():
    gen = Generator(3)
    for i in range(500):
        c = gen.contest()
        strong, weak = max(c.v1, c.v2), min(c.v1, c.v2)
        assert 0.1 <= strong <= 10.0 and 1.0 <= strong / weak <= 10.0 * (1 + 1e-12)
        assert 0.0 <= c.q <= 1.0
        p = c.params
        if c.family == "vesperoni-ratio":
            assert 0.0 < p["r"] and p["r"] * p["k"] <= 1.0 and 1.0 <= p["k"] <= 10.0
        elif c.family == "jia-ratio":
            assert 0.0 < p["r"] <= 1.0 and 1.0 <= p["k"] <= 10.0
        elif c.kind == "diff":
            assert 1.0 <= p["k"] <= 10.0
        else:
            assert 0.0 < p["r"] <= 1.0
        ops.make_spec(c)


def test_families_come_in_uniform_blocks():
    gen = Generator(5)
    draws = [gen.contest() for _ in range(50)]
    for start in range(0, 50, 5):
        assert sorted(c.family for c in draws[start:start + 5]) == sorted(FAMILIES)
    concave = [c.params["r"] == 1.0 for c in draws if c.kind == "concave"]
    assert sum(concave) == len(concave) // 2


def test_extreme_draws_reach_the_named_scales():
    gen = Generator(9)
    draws = [gen.extreme_contest() for _ in range(400)]
    prizes = [v for c in draws for v in (c.v1, c.v2)]
    assert min(prizes) < 1e-3 and max(prizes) > 1e10
    assert max(c.params.get("k", 1.0) for c in draws) > 1e7
    rs = [c.params["r"] for c in draws if c.family in ("jia-ratio", "blavatskyy-power")]
    assert min(rs) < 1e-2 and max(rs) > 0.99
    for c in draws:
        ops.make_spec(c)


HARD_CAP = worker.WORKLOADS["hard-inputs"].cap_s


@pytest.mark.parametrize("entry", json.loads((BENCH_DIR / "corpus.json").read_text()),
                         ids=lambda e: e["name"])
def test_classifier_labels_corpus_entries_as_recorded(entry):
    c = Contest(entry["family"], entry["params"], entry["v1"], entry["v2"], entry["q"],
                entry["name"])
    recorded = entry["recorded"]
    expected = "capped" if recorded["seconds"] > 2 * HARD_CAP else recorded["outcome"]
    outcome, _, _ = ops.run_capped(lambda: ops.solve_op(c), HARD_CAP)
    assert outcome == expected


def test_cap_stops_concave_spin():
    spin = Contest("blavatskyy-power", {"r": 0.9}, 4.0, 0.5, 0.0)
    cap = 0.5
    t0 = time.perf_counter()
    outcome, seconds, _ = ops.run_capped(lambda: ops.solve_op(spin), cap)
    assert outcome == "capped"
    assert cap <= seconds < cap + 0.25
    assert time.perf_counter() - t0 < cap + 0.25


def test_cap_timer_is_cleared_after_an_operation():
    ops.run_capped(lambda: None, 0.05)
    time.sleep(0.1)  # a timer left armed would raise OpCapped here


def test_wrong_output_is_check_failed():
    def wrong():
        raise ops.CheckFailed("bad")

    assert ops.run_capped(wrong, 1.0)[0] == "check_failed"


@pytest.mark.parametrize("cmd, code, stdout, outcome", [
    ("solve", 0, b'{"equilibrium": {}}', "ok"),
    ("solve", 0, b"not json", "check_failed"),
    ("solve", 2, b"", "convergence_error"),
    ("solve", 1, b"", "validation_error"),
    ("audit", 1, b'{"passed": false}', "ok"),
    ("audit", 0, b'{"passed": false}', "check_failed"),
    ("audit", 1, b'{"passed": true}', "check_failed"),
    ("verify", 0, b'{"verification": {"passed": true}}', "ok"),
    ("verify", 3, b'{"equilibrium": {"warnings": []}, "verification": {"passed": false}}',
     "check_failed"),
    ("verify", 3, b'{"equilibrium": {"warnings": ["%s"]}, "verification": {"passed": false}}'
     % ops.UNCHECKED_ASSUMPTIONS_WARNING.encode(), "verify_rejected"),
    ("verify", 0, b'{"verification": {"passed": false}}', "check_failed"),
    ("sweep", 7, b"", "other_error"),
])
def test_cli_outcome_follows_documented_exit_codes(cmd, code, stdout, outcome):
    assert ops.check_cli(cmd, code, stdout) == outcome


def test_cli_processes_match_in_process_bytes_and_exit_codes():
    assert worker._cli_probe() == {cmd: "ok" for cmd in ops.CLI_COMMANDS}


def test_relative_residual_scales_difference_form_by_prize():
    spec = ops.make_spec(Contest("jia-diff", {"k": 2.0}, 2.0, 1.0, 0.5))

    class Eq:
        residuals = (2e-6, -1e-6)
        corner_flags = (False, False)

    assert ops.rel_residual(spec, Eq) == pytest.approx(1e-6)


def test_tail_uses_highest_percentile_with_ten_beyond():
    lat = list(range(1, 101))
    assert run.tail(lat) == (90, 90.0, 10)
    assert run.tail(lat[:40]) == (30, 75.0, 10)
    assert run.tail(lat[:12]) == (6.5, 50.0, 6)


def test_loop_starts_over_when_inputs_run_out():
    seen = []
    workload = worker.Workload("toy", 1.0, 1, 1.0, None,
                               lambda item, cap: seen.append(item) or ("ok", 0.0, ""), None)
    records = worker.timed_loop(["a", "b"], workload, 5, calibrate.Calibration())
    assert [r[0] for r in records] == [0, 1, 2, 3, 4]
    assert seen == ["a", "b", "a", "b", "a"]


def test_every_run_holds_the_same_whole_rounds():
    workload = worker.WORKLOADS["design-study"]
    assert workload.ops_for(45) == 12 * workload.round_size
    assert workload.ops_for(0.1) == workload.round_size


def test_loop_stops_at_a_round_boundary_past_the_wall_limit():
    workload = worker.Workload("toy", 1.0, 3, 1.0, None,
                               lambda item, cap: (time.sleep(0.02), ("ok", 0.02, ""))[1], None)
    records = worker.timed_loop(["a"], workload, 30, calibrate.Calibration(), wall_limit=0.01)
    assert len(records) == 3


def test_calibration_scales_by_the_nearest_reference_timings():
    cal = calibrate.Calibration()
    cal.samples = [(0.0, 0.010), (1.0, 0.020), (2.0, 0.020), (10.0, 0.005), (11.0, 0.005)]
    assert cal.factor_at(1.2) == pytest.approx(calibrate.REFERENCE_S / 0.020)
    assert cal.factor_at(10.5) == pytest.approx(calibrate.REFERENCE_S / 0.005)


def test_tracer_records_layers_and_uninstalls():
    import tiebreak
    from tiebreak import designer, equilibrium

    originals = (equilibrium.solve, designer.solve, tiebreak.sweep)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        tracer.start_op(0)
        ops.design_op(Contest("jia-diff", {"k": 2.0}, 2.0, 1.0, 0.5), ((0.5, 1.0),))
    finally:
        uninstall()
    assert (equilibrium.solve, designer.solve, tiebreak.sweep) == originals
    values, sources = tracing.layer_metrics(tracer.spans)
    for name in ("designer.sweep101_ms.diff", "equilibrium.solve_us.root_find_diff",
                 "families.scalar_call_us.z_prime", "audit.diff_ms", "core.with_q_us"):
        assert values[name] > 0 and sources[name] == "workload"
    assert values["equilibrium.outcomes.diff.ok"] > 200
    assert 1.0 < values["designer.sweep_per_solve.diff"] < 2.0
    assert values["equilibrium.max_rel_residual.root_find_diff"] <= ops.RESIDUAL_TOL


def test_only_wrong_outputs_count_as_failed():
    tally = Counter({"ok": 90, "capped": 4, "convergence_error": 5, "check_failed": 1})
    line = run.result_line(tally, 100, {}, {})
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 100, 1)
    line = run.result_line(Counter({"ok": 95, "capped": 5}), 100, {"solve": "ok"}, {})
    assert (line["correct"], line["failed"]) == (True, 0)
    assert run.result_line(Counter({"ok": 1}), 1, {"verify": "check_failed"}, {})[
        "correct"] is False


def test_benchmark_json_names_match_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in bench["per_layer"]}
    extras = {"cli.python_start_s", "cli.import_s", "cli.import_numpy_s",
              "cli.import_scipy_optimize_s", "trace.overhead_share", "trace.spans"}
    extras |= {f"oracle.{m}.n{n}" for m in ("peak_traced_mb", "bytes_computed")
               for n in tracing.GRID_SIZES}
    assert per_layer == set(tracing.METRICS) | extras
    mapped = [m for g in json.loads((BENCH_DIR / "layer_map.json").read_text())["groups"]
              for m in g["metrics"]]
    assert sorted(mapped) == sorted(per_layer)
    assert {w["name"] for w in bench["workloads"]} == set(worker.WORKLOADS)
    e2e = {m["name"] for m in bench["end_to_end"]}
    metrics, _ = run.end_to_end(
        {"ops": [{"outcome": "ok", "seconds": 1.0, "raw_s": 1.0}], "peak_rss_mb": 1.0}, 1.0, 1.0)
    assert set(metrics) == e2e


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hard-inputs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
