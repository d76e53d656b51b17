"""Benchmark entry point for tiebreak.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from `src/`.
Workloads, metrics and bounds are declared in BENCHMARK.json; the map from
each per-layer metric to the end-to-end metric and workload it should move
is in perfbench/layer_map.json.

The run measures set-up SETUP_SAMPLES times (fresh interpreter, `import
tiebreak`, input generation; one sample is the process that then runs the
loop) and reports the median as `setup_s`.  The loop itself runs in
that worker process (worker.py): as many whole rounds of its input mix
as fill --seconds on the reference host, the same number in every run;
each operation's output is checked and its outcome kind tallied.  Times
are scaled to a reference host speed measured throughout the run
(calibrate.py); the raw wall-time figures are in the detail record.

With --trace 0 the last line holds the end-to-end metrics, with --trace 1
the per-layer metrics.  The line before it is a JSON detail record:
environment, reference-task timings, outcome tally, fail_share, the tail
percentile used, raw figures, and every failing input.  Files go to .perfbench_out/.

`failed` counts the operations that returned a wrong output (outcome
`check_failed`), and `correct` is false when there is one, or when a
traced run's CLI check found one.  An error the program raises, or an
operation stopped at the cap, is not a wrong output: it lowers
`pass_share`, is tallied by kind in the detail record's `outcomes` and
`fail_share`, and its input is listed under `failing_inputs`.  The
exit code is 0 when a result was printed, and 2 when the benchmark cannot
run (for example, no `src/`).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
SETUP_SAMPLES_BEFORE = 2
"""Set-up-only samples taken before the loop; the rest come after it, so
the median spans the run rather than one moment of a drifting host."""
RUN_LIMIT_S = 170.0
"""Wall limit for the whole run; the worker is killed past it."""

TAIL_MIN_BEYOND = 10


THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
"""BLAS and OpenMP pools pinned to one thread in every process started."""


def child_env() -> dict:
    """Environment for every process the benchmark starts: `src` first on
    PYTHONPATH, thread pools pinned."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = "src" + (os.pathsep + path if path else "")
    env.update(THREAD_PINS)
    return env


class BenchError(Exception):
    """The benchmark could not produce a result."""


def tail(latencies):
    """(value, percentile, samples beyond) at the highest percentile that has
    TAIL_MIN_BEYOND samples beyond it: the (TAIL_MIN_BEYOND + 1)-th largest
    value.  When that would fall below the median, the median and the
    count beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 2 * TAIL_MIN_BEYOND:
        return statistics.median(ordered), 50.0, n // 2
    return ordered[n - TAIL_MIN_BEYOND - 1], 100.0 * (n - TAIL_MIN_BEYOND) / n, TAIL_MIN_BEYOND


def end_to_end(result: dict, setup_s: float, raw_setup_s: float) -> tuple[dict, dict]:
    """End-to-end metric values in host-scaled seconds (calibrate.py), and
    the detail that goes with them, raw wall-time figures included."""
    ops = result["ops"]
    passed = sum(op["outcome"] == "ok" for op in ops)
    detail = {"fail_share": 1.0 - passed / len(ops), "raw": {"setup_s": raw_setup_s}}
    metrics = {"setup_s": setup_s, "pass_share": passed / len(ops),
               "peak_rss_mb": result["peak_rss_mb"]}
    for key, out in (("seconds", metrics), ("raw_s", detail["raw"])):
        latencies = [op[key] for op in ops]
        value, pct, beyond = tail(latencies)
        out.update({"ops_per_s": passed / sum(latencies),
                    "op_p50_s": statistics.median(latencies), "op_tail_s": value})
    detail["op_tail"] = {"percentile": pct, "samples": len(ops), "beyond": beyond}
    return metrics, detail


def result_line(tally: Counter, attempted: int, cli_checks: dict, metrics: dict) -> dict:
    """The last stdout line: wrong outputs are the failures (see above)."""
    wrong = tally["check_failed"]
    cli_wrong = list(cli_checks.values()).count("check_failed")
    return {"correct": wrong + cli_wrong == 0, "attempted": attempted,
            "failed": wrong, "metrics": metrics}


def spawn_worker(args, env, out_dir: Path, setup_only: bool, deadline: float):
    """Start worker.py; returns (setup seconds, stdout lines after "ready")."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True) as proc:
        try:
            first = proc.stdout.readline()
            setup = time.perf_counter() - t0
            if first.strip() != "ready":
                proc.kill()
                proc.wait()
                raise BenchError("worker failed during set-up")
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("worker passed the run time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return setup, out.splitlines()


def main(argv=None) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    parser = argparse.ArgumentParser(description="tiebreak benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (root / "src" / "tiebreak" / "__init__.py").is_file():
        print("error: no src/tiebreak here; run from the root of a checkout",
              file=sys.stderr)
        return 2

    from calibrate import Calibration

    env = child_env()
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    calibration = Calibration()
    setups, moments = [], []

    def setup_sample(setup_only: bool):
        calibration.sample()
        setup, lines = spawn_worker(args, env, out_dir, setup_only, deadline)
        setups.append(setup)
        moments.append(calibration.samples[-1][0])
        return lines

    try:
        for _ in range(SETUP_SAMPLES_BEFORE):
            setup_sample(True)
        lines = setup_sample(False)
        while len(setups) < SETUP_SAMPLES:
            setup_sample(True)
        calibration.sample()
        result = json.loads(lines[-1])
    except (BenchError, IndexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = result["ops"]
    if not ops:
        print("error: no operation ran", file=sys.stderr)
        return 1
    tally = Counter(op["outcome"] for op in ops)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cap_s": result["cap_s"],
        "setup_samples_raw_s": setups,
        "reference_task_s": result["reference_task_s"],
        "outcomes": dict(tally),
        "failing_inputs": [op for op in ops if op["outcome"] != "ok"],
        "environment": result["environment"],
    }
    if args.trace:
        specs = bench["per_layer"]
        values = result["layer"]
        detail["layer_sources"] = result["layer_sources"]
        detail["spans_file"] = result["spans_file"]
        detail["cli_checks"] = result["cli_checks"]
        absent = [m["name"] for m in specs if values.get(m["name"]) is None]
        detail["absent"] = absent
    else:
        specs = bench["end_to_end"]
        scaled = [s * calibration.factor_at(t) for s, t in zip(setups, moments)]
        values, extra = end_to_end(result, statistics.median(scaled), statistics.median(setups))
        detail.update(extra)
    metrics = {m["name"]: {"value": values.get(m["name"]) or 0.0, "unit": m["unit"]}
               for m in specs}
    line = result_line(tally, len(ops), detail.get("cli_checks", {}), metrics)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    records = [[op["i"], op["outcome"], op["seconds"]] for op in ops]
    (out_dir / f"{tag}.json").write_text(
        json.dumps({"detail": detail, "result": line, "op_records": records}, indent=1),
        encoding="utf-8")
    print(json.dumps(detail))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
