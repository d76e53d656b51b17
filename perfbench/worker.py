"""The process that sets up one workload and runs its timed loop.

Started by run.py with the checkout's `src` on PYTHONPATH.  It imports
tiebreak, generates the inputs from the seed, prints "ready" (run.py times
set-up up to that line), runs the loop, and prints one JSON line with a
record per operation, in raw and host-scaled seconds (calibrate.py).  With
--setup-only it exits after "ready".

The loop runs the whole rounds of the input mix that fill --seconds on
the reference host (Workload.ops_for), so every run of a workload does
the same work.  With --trace 1 it runs untraced for half of them, then
replays the same operations with spans recorded (tracing.py); the ratio of the two is
the tracing overhead.  Probes then fill in layers the workload never
reached, so every per-layer metric has a value, and run each CLI
subcommand as a process and in process to check exit codes and bytes.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import tiebreak
from tiebreak import cli

import ops
from calibrate import Calibration
from inputs import Contest, Generator
from run import THREAD_PINS, child_env

HERE = Path(__file__).resolve().parent
PREGENERATED = 3000
"""Inputs generated at set-up; a run that uses them all starts over."""

# Extreme draws per hard-inputs round, after the corpus: each family once
# at each r edge.
EXTREME_PER_ROUND = 10

WALL_LIMIT_FACTOR = 2.0
"""A run still going at this multiple of --seconds stops after its round."""


@dataclass
class Workload:
    name: str
    cap_s: float
    """Per-operation wall-clock cap."""
    round_size: int
    """Operations in one round of the input mix; a run holds whole rounds."""
    round_s: float
    """Wall seconds one round takes on the reference host (2-vCPU Xeon,
    reference task calibrated there)."""
    make_inputs: Callable[[Generator], list]
    run_op: Callable[[object, float], tuple]
    """(input, cap in seconds) -> (outcome, seconds, detail)."""
    describe: Callable[[object], dict]

    def ops_for(self, seconds: float) -> int:
        """Operations in a run of `seconds`: the whole rounds that fill it on
        the reference host.  Every run of a workload thus does the same
        work, and its latency percentiles fall at the same ranks, however
        fast the host is at the moment."""
        return self.round_size * max(1, round(seconds / self.round_s))


def load_corpus() -> list[Contest]:
    with open(HERE / "corpus.json", encoding="utf-8") as fh:
        entries = json.load(fh)
    return [Contest(e["family"], e["params"], e["v1"], e["v2"], e["q"], e["name"])
            for e in entries]


def _design_inputs(gen):
    return [(gen.contest(), gen.tie_rule()) for _ in range(PREGENERATED)]


def _hard_inputs(gen):
    corpus = load_corpus()
    items = []
    while len(items) < PREGENERATED:
        items.extend(corpus)
        items.extend(gen.extreme_contest() for _ in range(EXTREME_PER_ROUND))
    return items


# Rounds: design-study ten draws (two family blocks: one concave draw of
# each branch); hard-inputs the corpus with its extreme draws.  Caps sit
# about twice above the slowest healthy operation seen on a 2-core Xeon
# host, so only operations that spin reach them; hard-inputs solves take
# milliseconds when healthy.  Round times were measured on that host.
WORKLOADS = {
    "design-study": Workload(
        "design-study", 4.0, 10, 3.75, _design_inputs,
        lambda item, cap: ops.run_capped(lambda: ops.design_op(*item), cap),
        lambda item: item[0].to_json_dict() | {"rule": list(item[1])}),
    "hard-inputs": Workload(
        "hard-inputs", 0.5, len(load_corpus()) + EXTREME_PER_ROUND, 2.5, _hard_inputs,
        lambda item, cap: ops.run_capped(lambda: ops.solve_op(item), cap),
        lambda item: item.to_json_dict()),
}


def timed_loop(items, workload: Workload, n_ops: int, calibration: Calibration,
               before=None, wall_limit=float("inf")):
    """Closed loop, one caller: next operation only after the previous one.

    Runs `n_ops` operations, or stops early at the first round boundary
    past `wall_limit` seconds, so a slow program still ends in time.  The
    host-speed reference task runs between operations (calibrate.py).
    Returns records (index, outcome, raw seconds, detail, midpoint).
    """
    records = []
    t0 = time.perf_counter()
    for i in range(n_ops):
        if i % workload.round_size == 0 and time.perf_counter() - t0 >= wall_limit:
            break
        item = items[i % len(items)]
        calibration.maybe_sample()
        if before:
            before(i)
        start = time.perf_counter()
        outcome, secs, detail = workload.run_op(item, workload.cap_s)
        records.append((i, outcome, secs, detail, start + secs / 2.0))
    calibration.sample()
    return records


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _source_hash() -> str:
    """Digest of the program's sources, for checkouts that are not git repos."""
    digest = hashlib.sha256()
    for path in sorted(Path(tiebreak.__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    def cmd_out(argv):
        try:
            return subprocess.run(argv, capture_output=True, text=True, timeout=10,
                                  check=True).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            return None

    llc = cmd_out(["getconf", "LEVEL3_CACHE_SIZE"])
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "tiebreak": tiebreak.__version__,
        "git_hash": cmd_out(["git", "rev-parse", "HEAD"]),
        "src_sha256": _source_hash(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "llc_bytes": int(llc) if llc and llc.isdigit() else None,
        "thread_pins": THREAD_PINS,
        "platform": platform.platform(),
    }


# ------------------------------------------------------------ traced run


def _cli_in_process(argv):
    """Run `cli.run(argv)` in process; returns (exit code, stdout bytes)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue().encode()


def traced_run(workload: Workload, items, seconds: float, calibration: Calibration,
               out_dir: Path, tag: str):
    import tracing

    first = timed_loop(items, workload, workload.ops_for(seconds / 2.0), calibration,
                       wall_limit=WALL_LIMIT_FACTOR * seconds / 2.0)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        second = timed_loop(items, workload, len(first), calibration,
                            before=tracer.start_op)
        spans_workload = len(tracer.spans)
        cli_checks = _run_probes(tracer, tracing.layer_metrics(tracer.spans)[0])
    finally:
        uninstall()
    values, sources = tracing.layer_metrics(tracer.spans)

    paired = [(a[2], b[2]) for a, b in zip(first, second) if a[1] == b[1] == "ok"]
    untraced = sum(a for a, _ in paired)
    values["trace.overhead_share"] = (sum(b for _, b in paired) / untraced - 1.0
                                      if untraced else None)
    values["trace.spans"] = spans_workload
    sources["trace.overhead_share"] = f"{len(paired)} operations in both passes"
    sources["trace.spans"] = "workload"
    imports = _import_probe()
    values.update(imports)
    sources.update({k: "probe" for k in imports})
    memory = _oracle_memory_probe()
    values.update(memory)
    sources.update({k: "probe" for k in memory})
    for n in tracing.GRID_SIZES:
        values[f"oracle.bytes_computed.n{n}"] = 2 * n * n * 8 / 1e6
        sources[f"oracle.bytes_computed.n{n}"] = "computed: two n x n float64 payoff matrices"

    spans_path = out_dir / f"{tag}-spans.csv"
    tracing.write_spans(tracer.spans, spans_path)
    return first + second, values, sources, {"spans_file": str(spans_path),
                                              "cli_checks": cli_checks}


PROBE_CONTESTS = {
    "ratio": Contest("jia-ratio", {"r": 1.0, "k": 2.0}, 2.0, 1.0, 0.5),
    "diff": Contest("jia-diff", {"k": 2.0}, 2.0, 1.0, 0.5),
    "concave_linear": Contest("blavatskyy-power", {"r": 1.0}, 4.0, 2.0, 0.5),
    "concave": Contest("blavatskyy-power", {"r": 0.5}, 4.0, 2.0, 0.5),
    "error": next(c for c in load_corpus() if c.name == "jia-diff-v1e6-1"),
}


def _cli_probe() -> dict:
    """Each subcommand once as a `python -m tiebreak` process and once as
    in-process `cli.run`: the process must exit as the README documents and
    print exactly the bytes `cli.run` writes.  Returns outcome per command."""
    checks = {}
    for cmd in ops.CLI_COMMANDS:
        argv = ops.cli_argv(cmd, PROBE_CONTESTS["diff"], ((0.25, 0.5), (0.75, 0.5)))
        res = ops.run_cli(sys.executable, argv, child_env(), CLI_CAP_S)
        _, out = _cli_in_process(argv)
        checks[cmd] = res.outcome if out == res.stdout else "check_failed"
    return checks


def _probe_section(section, specs):
    if section == "audit":
        for key in ("ratio", "diff", "concave"):
            ops.quick_audit(specs[key])
    elif section == "equilibrium":
        for key in ("ratio", "diff", "concave_linear", "concave"):
            tiebreak.solve(specs[key])
        try:
            tiebreak.solve(specs["error"])
        except tiebreak.ContestError:
            pass
    elif section == "designer":
        for key in ("ratio", "diff", "concave"):
            tiebreak.sweep(specs[key], 101)
            tiebreak.optimal_q(specs[key])
            tiebreak.expected_effort(specs[key], ((0.25, 0.5), (0.75, 0.5)))
    elif section == "families":
        axis = np.linspace(0.0, 4.0, 2001)
        for key in ("ratio", "diff", "concave"):
            specs[key].csf.outcome(axis[:128, None], axis[None, :])
        for _ in range(50):
            specs["ratio"].csf.z_prime(2.0, 0.5)
            specs["concave"].csf.win_prob_d1(1.0, 0.5, 0.5)
    elif section == "core":
        for i in range(50):
            specs["ratio"].with_q(i / 50.0)
            tiebreak.payoff(specs["ratio"], (0.4, 0.2), 1)
    elif section == "oracle":
        eq = tiebreak.solve(specs["ratio"])
        for n in (2001, 4001):
            tiebreak.verify(specs["ratio"], eq,
                            tiebreak.GridSpec.for_contest(specs["ratio"], steps=n))


PROBE_SECTIONS = ("audit", "equilibrium", "designer", "families", "core", "oracle")

CLI_CAP_S = 10.0


def _run_probes(tracer, values) -> dict:
    """Record probe spans for each layer that still lacks a metric value;
    the CLI, which no workload runs, always.  Returns the CLI checks."""
    specs = {k: ops.make_spec(c) for k, c in PROBE_CONTESTS.items()}
    for section in PROBE_SECTIONS:
        if any(v is None for m, v in values.items() if m.startswith(section + ".")):
            tracer.start_op("probe:" + section)
            _probe_section(section, specs)
    tracer.start_op("probe:cli")
    return _cli_probe()


_IMPORT_TIEBREAK = ("import time; t = time.perf_counter(); import tiebreak; "
                    "print(time.perf_counter() - t)")
_IMPORT_NUMPY_SCIPY = ("import time; t = time.perf_counter(); import numpy; "
                       "u = time.perf_counter(); import scipy.optimize; "
                       "print(u - t, time.perf_counter() - u)")
IMPORT_REPEATS = 3


def _import_probe() -> dict:
    """Fresh-process start and import times, medians of IMPORT_REPEATS."""
    env = child_env()
    start, tb, npy, sci = [], [], [], []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        start.append(time.perf_counter() - t0)
        out = subprocess.run([sys.executable, "-c", _IMPORT_TIEBREAK], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout.split()
        tb.append(float(out[0]))
        out = subprocess.run([sys.executable, "-c", _IMPORT_NUMPY_SCIPY], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout.split()
        npy.append(float(out[0]))
        sci.append(float(out[1]))
    return {"cli.python_start_s": statistics.median(start),
            "cli.import_s": statistics.median(tb),
            "cli.import_numpy_s": statistics.median(npy),
            "cli.import_scipy_optimize_s": statistics.median(sci)}


def _oracle_memory_probe() -> dict:
    """tracemalloc peak of one verify per grid size on a fixed contest."""
    spec = ops.make_spec(PROBE_CONTESTS["ratio"])
    eq = tiebreak.solve(spec)
    out = {}
    for n in (2001, 4001):
        tracemalloc.start()
        try:
            tiebreak.verify(spec, eq, tiebreak.GridSpec.for_contest(spec, steps=n))
            out[f"oracle.peak_traced_mb.n{n}"] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
    return out


# ------------------------------------------------------------ main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    items = workload.make_inputs(Generator(args.seed))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    calibration = Calibration()

    def scaled(outcome, seconds, moment):
        # A capped operation took the benchmark's cap, whatever the host speed.
        return seconds if outcome == "capped" else seconds * calibration.factor_at(moment)

    extra, layer, sources = {}, None, None
    if args.trace:
        records, layer, sources, extra = traced_run(
            workload, items, args.seconds, calibration, args.out_dir, tag)
    else:
        records = timed_loop(items, workload, workload.ops_for(args.seconds), calibration,
                             wall_limit=WALL_LIMIT_FACTOR * args.seconds)
    result = {
        "workload": workload.name,
        "cap_s": workload.cap_s,
        "peak_rss_mb": peak_rss_mb(),
        "reference_task_s": [d for _, d in calibration.samples],
        "ops": [{"i": i, "outcome": o, "raw_s": s, "seconds": scaled(o, s, mid),
                 "detail": d,
                 **({"input": workload.describe(items[i % len(items)])} if o != "ok" else {})}
                for i, o, s, d, mid in records],
        "layer": layer,
        "layer_sources": sources,
        "environment": environment(),
        **extra,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
