"""Spans around calls into each module of `tiebreak`, and the per-layer
metrics derived from them.

The program is not edited: `install` rebinds selected public functions and
methods of each module to wrappers that record a span (name, start, end,
parent span, operation id, outcome, a few attributes).  Every module that
imported a function by name gets the wrapper too, so a call from
`designer` into `equilibrium.solve` is seen.  Spans stay in memory until
`write_spans` is called at the end of a run.

`layer_metrics` turns spans into the per-layer metrics named in
BENCHMARK.json.  Metrics come from the workload's own spans when it
produced any; otherwise from the probe spans (operation ids starting with
"probe:"), which a traced run records for exactly the layers its workload
did not reach.  `sources` says which, per metric.
"""
from __future__ import annotations

import functools
import statistics
import time

import numpy as np

import tiebreak
from tiebreak import audit, cli, core, designer, equilibrium, families, oracle

from ops import CLI_COMMANDS, SOLVE_OUTCOMES, classify, rel_residual

MODULES = (tiebreak, audit, cli, core, designer, equilibrium, families, oracle)

KINDS = ("ratio", "diff", "concave")
ROUTES = ("closed_form_ratio", "root_find_diff", "concave_linear", "concave_iter")
GRID_SIZES = (2001, 4001)


def route_of(spec) -> str:
    kind = spec.csf.kind
    if kind == "ratio":
        return "closed_form_ratio"
    if kind == "diff":
        return "root_find_diff"
    return "concave_linear" if spec.csf.r == 1.0 else "concave_iter"


class Tracer:
    """In-memory span recorder.  A span is
    [name, start, end, parent index, op id, outcome, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    def start_op(self, op_id) -> None:
        self.op = op_id
        self._stack.clear()

    def wrap(self, name: str, fn, pre=None, post=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                   tracer.op, "ok", pre(*args, **kwargs) if pre else None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = time.perf_counter()
                rec[5] = classify(exc)
                raise
            finally:
                if tracer._stack:
                    tracer._stack.pop()
            rec[2] = time.perf_counter()
            if post:
                post(rec[6], args, result)
            return result

        return traced


def _solve_pre(spec, *args, **kwargs):
    return {"kind": spec.csf.kind, "route": route_of(spec)}


def _solve_post(attrs, args, eq):
    attrs["res"] = rel_residual(args[0], eq)


def _kind_pre(spec, *args, **kwargs):
    return {"kind": spec.csf.kind}


def _sweep_pre(spec, q_count, *args, **kwargs):
    return {"kind": spec.csf.kind, "points": q_count}


def _oracle_pre(spec, *args, **kwargs):
    grid = kwargs.get("grid") or next(a for a in args if hasattr(a, "steps"))
    return {"kind": spec.csf.kind, "n": grid.steps}


def _z_prime_pre(self, theta, *args, **kwargs):
    return {"scalar": np.ndim(theta) == 0}


def _win_prob_d1_pre(self, x1, x2, *args, **kwargs):
    return {"scalar": np.ndim(x1) == 0 and np.ndim(x2) == 0}


def _outcome_pre(self, x1, x2):
    return {"kind": self.kind, "cells": int(np.broadcast(np.asarray(x1), np.asarray(x2)).size)}


# (module, function name, pre, post): module-level functions to trace.
_FUNCTIONS = (
    (cli, "run", lambda argv: {"cmd": argv[0] if argv else ""}, None),
    (audit, "audit_ratio", None, None),
    (audit, "audit_diff", None, None),
    (audit, "audit_concave", None, None),
    (equilibrium, "solve", _solve_pre, _solve_post),
    (designer, "sweep", _sweep_pre, None),
    (designer, "optimal_q", _kind_pre, None),
    (designer, "expected_effort", _kind_pre, None),
    (core, "payoff", None, None),
    (oracle, "verify", _oracle_pre, None),
    (oracle, "grid_nash", _oracle_pre, None),
    (oracle, "grid_best_response", _oracle_pre, None),
)

# (class, method name, pre): methods to trace, on the class defining them.
_METHODS = (
    [(cls, "z_prime", _z_prime_pre) for cls in (families.VesperoniRatio, families.JiaRatio,
                                               families.VesperoniDiff, families.JiaDiff)]
    + [(families.BlavatskyyPower, "win_prob_d1", _win_prob_d1_pre),
       (families.RatioCsf, "outcome", _outcome_pre),
       (families.DiffCsf, "outcome", _outcome_pre),
       (families.BlavatskyyPower, "outcome", _outcome_pre),
       (core.ContestSpec, "with_q", None)]
)


def _span_name(module, fname: str) -> str:
    return module.__name__.rsplit(".", 1)[-1] + "." + fname


def install(tracer: Tracer):
    """Route calls through `tracer`; returns a function that undoes it."""
    undo = []
    for module, fname, pre, post in _FUNCTIONS:
        orig = getattr(module, fname)
        wrapped = tracer.wrap(_span_name(module, fname), orig, pre, post)
        for mod in MODULES:
            if getattr(mod, fname, None) is orig:
                setattr(mod, fname, wrapped)
                undo.append((mod, fname, orig))
    for cls, mname, pre in _METHODS:
        orig = cls.__dict__[mname]
        layer = "core" if cls is core.ContestSpec else "families"
        setattr(cls, mname, tracer.wrap(f"{layer}.{mname}", orig, pre))
        undo.append((cls, mname, orig))

    def uninstall():
        for owner, name, orig in reversed(undo):
            setattr(owner, name, orig)

    return uninstall


def write_spans(spans, path) -> None:
    """One CSV row per span: index, name, start, end, parent, op, outcome, attrs."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_s,end_s,parent,op,outcome,attrs\n")
        for i, (name, t0, t1, parent, op, outcome, attrs) in enumerate(spans):
            attr_text = ";".join(f"{k}={v}" for k, v in (attrs or {}).items())
            fh.write(f"{i},{name},{t0:.9f},{t1:.9f},{parent},{op},{outcome},{attr_text}\n")


# ------------------------------------------------------------ metrics


def _is_probe(span) -> bool:
    return isinstance(span[4], str) and span[4].startswith("probe:")


def _durations(spans, name, outcome="ok", **attrs):
    out = []
    for s in spans:
        if s[0] != name or (outcome and s[5] != outcome):
            continue
        a = s[6] or {}
        if all(a.get(k) == v for k, v in attrs.items()):
            out.append(s[2] - s[1])
    return out


def _median(values):
    return statistics.median(values) if values else None


def _sweep_per_solve(spans, kind):
    ratios = [(s[2] - s[1]) / s[6]["solve_s"] for s in spans
              if s[0] == "designer.sweep" and s[5] == "ok" and s[6]["kind"] == kind
              and s[6]["points"] == 101 and s[6].get("solve_s")]
    return _median(ratios)


def _metric_table():
    """name -> function(spans) giving the value, or None when no samples."""
    t = {}
    for cmd in CLI_COMMANDS:
        t[f"cli.run_ms.{cmd}"] = lambda sp, c=cmd: _ms(_durations(sp, "cli.run", cmd=c))
    for kind in KINDS:
        t[f"audit.{kind}_ms"] = lambda sp, k=kind: _ms(_durations(sp, f"audit.audit_{k}"))
    for route in ROUTES:
        t[f"equilibrium.solve_us.{route}"] = (
            lambda sp, r=route: _us(_durations(sp, "equilibrium.solve", route=r)))
        t[f"equilibrium.max_rel_residual.{route}"] = (
            lambda sp, r=route: max((s[6]["res"] for s in sp if s[0] == "equilibrium.solve"
                                     and s[5] == "ok" and s[6]["route"] == r), default=None))
    for kind in KINDS:
        for outcome in SOLVE_OUTCOMES:
            t[f"equilibrium.outcomes.{kind}.{outcome}"] = (
                lambda sp, k=kind, o=outcome: sum(
                    1 for s in sp if s[0] == "equilibrium.solve" and s[5] == o
                    and s[6]["kind"] == k))
    t["equilibrium.time_to_error_s.p50"] = lambda sp: _median(_error_times(sp))
    t["equilibrium.time_to_error_s.max"] = lambda sp: max(_error_times(sp), default=None)
    for kind in KINDS:
        t[f"designer.sweep101_ms.{kind}"] = (
            lambda sp, k=kind: _ms(_durations(sp, "designer.sweep", kind=k, points=101)))
        t[f"designer.optimal_q_ms.{kind}"] = (
            lambda sp, k=kind: _ms(_durations(sp, "designer.optimal_q", kind=k)))
        t[f"designer.expected_effort_ms.{kind}"] = (
            lambda sp, k=kind: _ms(_durations(sp, "designer.expected_effort", kind=k)))
        t[f"designer.sweep_per_solve.{kind}"] = lambda sp, k=kind: _sweep_per_solve(sp, k)
    t["families.scalar_call_us.z_prime"] = (
        lambda sp: _us(_durations(sp, "families.z_prime", scalar=True)))
    t["families.scalar_call_us.win_prob_d1"] = (
        lambda sp: _us(_durations(sp, "families.win_prob_d1", scalar=True)))
    for kind in KINDS:
        t[f"families.vector_ns_per_cell.{kind}"] = lambda sp, k=kind: _ns_per_cell(sp, k)
    t["core.with_q_us"] = lambda sp: _us(_durations(sp, "core.with_q"))
    t["core.payoff_us"] = lambda sp: _us(_durations(sp, "core.payoff"))
    for n in GRID_SIZES:
        t[f"oracle.verify_s.n{n}"] = lambda sp, n=n: _median(_durations(sp, "oracle.verify", n=n))
        t[f"oracle.grid_nash_s.n{n}"] = (
            lambda sp, n=n: _median(_durations(sp, "oracle.grid_nash", n=n)))
    t["oracle.best_response_ms.n4001"] = (
        lambda sp: _ms(_durations(sp, "oracle.grid_best_response", n=4001)))
    t["oracle.cells_per_s"] = _cells_per_s
    return t


def _ms(values):
    m = _median(values)
    return None if m is None else m * 1e3


def _us(values):
    m = _median(values)
    return None if m is None else m * 1e6


def _error_times(spans):
    errors = ("convergence_error", "no_equilibrium", "validation_error")
    return [s[2] - s[1] for s in spans if s[0] == "equilibrium.solve" and s[5] in errors]


def _ns_per_cell(spans, kind):
    per_cell = [(s[2] - s[1]) / s[6]["cells"] * 1e9 for s in spans
                if s[0] == "families.outcome" and s[5] == "ok" and s[6]["kind"] == kind
                and s[6]["cells"] >= 128 * 1000]
    return _median(per_cell)


def _cells_per_s(spans):
    done = [(s[6]["n"] ** 2, s[2] - s[1]) for s in spans
            if s[0] == "oracle.grid_nash" and s[5] == "ok"]
    if not done:
        return None
    return sum(c for c, _ in done) / sum(d for _, d in done)


METRICS = _metric_table()

# Metrics that count events: zero is a reading, not a missing sample.
COUNTS = {name for name in METRICS if name.startswith("equilibrium.outcomes.")}


def layer_metrics(spans):
    """Per-layer values from spans, with the source of each value.

    A sweep's "solve_s" attribute (total time of its child solves) is filled
    in here, so `designer.sweep_per_solve` is sweep time over solver time.
    """
    solve_s: dict[int, float] = {}
    for s in spans:
        if s[0] == "equilibrium.solve" and s[3] >= 0:
            solve_s[s[3]] = solve_s.get(s[3], 0.0) + (s[2] - s[1])
    for parent, seconds in solve_s.items():
        if spans[parent][6] is not None:
            spans[parent][6]["solve_s"] = seconds
    own = [s for s in spans if not _is_probe(s)]
    probe = [s for s in spans if _is_probe(s)]
    values, sources = {}, {}
    for name, fn in METRICS.items():
        if name in COUNTS:
            values[name], sources[name] = fn(own), "workload"
            continue
        value = fn(own)
        source = "workload"
        if value is None:
            value, source = fn(probe), "probe"
        values[name], sources[name] = value, source if value is not None else "absent"
    return values, sources
