"""Deterministic cost counts of the solvers: the counting twin of `bitscan.py`.

Wall clock on a shared host cannot resolve a change of a few percent, but
the work a call does can be counted exactly, the same on every run.  This
scan counts three things:

- **Bytecodes**, as `sys.settrace` opcode events in the package's frames
  only, those whose code lies under `src/tiebreak`, for `make_contest` and a
  scalar `solve` on each contest of the hard corpus
  (`perfbench/corpus.json`), and for a seeded sample of design-study
  operations (audit, `solve`, `sweep`, `optimal_q`, `expected_effort`) drawn
  as `bitscan.py` draws its design-scale contests.  The standard library's
  and NumPy's Python code, and code that `dataclasses` and `namedtuple`
  generate, go uncounted: counting them would rank NumPy entry points by the
  Python opcodes they run, not by their speed (`c.any()` runs NumPy's Python
  code and is slower than `bool(np.count_nonzero(c))`).
- **NumPy calls**, for a 101-lane `solve_lanes` on each corpus contest: its
  tie rules are viewed as an ndarray subclass whose `__array_ufunc__` and
  `__array_function__` (NEP 13, NEP 18) count each call the program makes
  on an array that descends from them, then defer to the base class.
- **NumPy calls and the array elements they compute**, for the grid oracle's
  `grid_nash` at `ORACLE_STEPS` steps on one contest per family kind: each
  array `families.float_array` returns (the efforts of every payoff block)
  is viewed as that subclass, and a call's elements are its outputs' sizes,
  or where its `where=` mask holds.  The grid axis itself, and the costs
  formed from it before they meet the outcome, go uncounted.

Each operation is run once before it is counted, and the designer's grid
memo is emptied before each design operation, so caches are in a fixed
state.  Counts depend on the Python and NumPy versions, not on the host:

    PYTHONPATH=src python tools/costscan.py > before.txt
    (change the code)
    PYTHONPATH=src python tools/costscan.py > after.txt
    diff before.txt after.txt

`--record` instead writes the per-kind totals that
`tests/test_cost_counts.py` pins to `tests/data/cost_counts.json`, under
this interpreter's key.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import importlib.util
import json
import os
import sys
import warnings
from collections import namedtuple
from pathlib import Path

import numpy as np

import tiebreak
from tiebreak import (FAMILIES, ContestError, RandomTieRule, expected_effort, make_contest,
                      optimal_q, solve, sweep)
from tiebreak import designer, equilibrium, families
from tiebreak.audit import audit_family
from tiebreak.oracle import GridSpec, grid_nash

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = os.path.join(os.path.dirname(tiebreak.__file__), "")  # the package's files, by prefix
CORPUS = ROOT / "perfbench" / "corpus.json"
RECORD = ROOT / "tests" / "data" / "cost_counts.json"
LANE_QS = np.linspace(0.0, 1.0, 101)
DESIGN_DRAWS = 100
ORACLE_STEPS = 201
ORACLE_CONTESTS = (("vesperoni-ratio", dict(r=0.5, k=2.0)), ("jia-diff", dict(k=2.0)),
                   ("blavatskyy-power", dict(r=0.5)))  # one per family kind, at prizes (2, 1)


def _load_bitscan():
    spec = importlib.util.spec_from_file_location("bitscan", Path(__file__).with_name("bitscan.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bitscan = _load_bitscan()
record_key = bitscan.record_key  # counts move where bits do: some iteration counts follow them


@contextlib.contextmanager
def _quiet():
    """No garbage collection (its finalizers would run uncounted code at
    random points) and no warnings shown (a shown warning runs Python code)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            yield
    finally:
        if enabled:
            gc.enable()


def _attempt(call):
    try:
        return call()
    except ContestError as exc:
        return exc


def bytecodes(call):
    """(opcode events in the package's frames, result) of `call()`; a
    `ContestError` is its result."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if event == "call":
            if not frame.f_code.co_filename.startswith(PACKAGE):
                return None  # no events from this frame; the frames it calls are checked
            frame.f_trace_opcodes, frame.f_trace_lines = True, False
        elif event == "opcode":
            count += 1
        return tracer

    previous = sys.gettrace()
    with _quiet():
        sys.settrace(tracer)
        try:
            result = _attempt(call)
        finally:
            sys.settrace(previous)
    return count, result


def _base(x):
    return x.view(np.ndarray) if isinstance(x, CountedArray) else x


class CountedArray(np.ndarray):
    """An ndarray that counts each NumPy call made on it or on arrays computed
    from it, and the elements those calls compute: their array outputs' sizes,
    or where a `where=` mask holds.  Calls nested inside a counted call are not
    counted again."""

    calls = elements = 0
    _depth = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        kwargs = {key: tuple(map(_base, v)) if key == "out" else _base(v)
                  for key, v in kwargs.items()}
        if "where" in kwargs:
            kwargs.setdefault("out", None)  # the caller's out=None, which NumPy drops
        result = self._counted(getattr(ufunc, method), tuple(map(_base, inputs)), kwargs)
        return _counted_view(result)

    def __array_function__(self, func, types, args, kwargs):
        result = self._counted(lambda *a, **k: super(CountedArray, self).__array_function__(
            func, types, a, k), args, kwargs)
        return _counted_view(result)

    @classmethod
    def _counted(cls, call, args, kwargs):
        outer = cls._depth == 0
        cls.calls += outer
        cls._depth += 1
        try:
            result = call(*args, **kwargs)
        finally:
            cls._depth -= 1
        if outer:
            outputs = result if isinstance(result, tuple) else (result,)
            where = kwargs.get("where", True)
            cls.elements += sum(int(np.count_nonzero(np.broadcast_to(where, out.shape)))
                                for out in outputs if isinstance(out, (np.ndarray, np.generic)))
        return result


def _counted_view(result):
    if isinstance(result, (tuple, list)):
        return type(result)(map(_counted_view, result))
    if type(result) is np.ndarray:
        return result.view(CountedArray)
    return result


def numpy_work(module, name, call):
    """(NumPy calls, elements they compute, result) of `call()`, with each
    array `module.name` returns viewed as a `CountedArray`, which its
    `np.asarray` would return as a base array."""
    plain = getattr(module, name)
    CountedArray.calls = CountedArray.elements = 0
    setattr(module, name, lambda *args: plain(*args).view(CountedArray))
    try:
        with _quiet():
            result = _attempt(call)
    finally:
        setattr(module, name, plain)
    return CountedArray.calls, CountedArray.elements, result


# a `solve_lanes`'s checked tie rules, and the oracle's checked efforts
numpy_calls = functools.partial(numpy_work, equilibrium, "q_array")
oracle_work = functools.partial(numpy_work, families, "float_array")


def corpus():
    """(name, family, make_contest keywords) of each hard-corpus contest."""
    entries = json.loads(CORPUS.read_text(encoding="utf-8"))
    return [(e["name"], e["family"], dict(family=e["family"], v1=e["v1"], v2=e["v2"],
                                          q=e["q"], **e["params"])) for e in entries]


def design_sample():
    """(index, family, make_contest keywords, rule pairs) of the first
    `DESIGN_DRAWS` design-scale draws of `bitscan.py`, which alternates five
    design-scale draws with five extreme-scale ones."""
    return [(i, family, dict(family=family, v1=v1, v2=v2, q=q, **params), pairs)
            for i in range(2 * DESIGN_DRAWS) if i // 5 % 2 == 0
            for family, params, v1, v2, q, pairs in [bitscan.draw(i)]]


def design_op(spec, pairs):
    """One design-study operation: audit, then solve, sweep, optimal_q and
    expected_effort; an error ends it."""
    designer._grid_lanes.cache_clear()
    audit_family(spec.csf, v1=max(spec.v1, spec.v2))
    solve(spec)
    sweep(spec, 101)
    optimal_q(spec)
    return expected_effort(spec, RandomTieRule.from_pairs(pairs))


Row = namedtuple("Row", "op kind label unit count result plain")
Row.__doc__ = """One count of an operation: `count` in `unit`, one of `UNITS[op]`,
`result` what the counted call returned or raised, and `plain()` the same
call uncounted."""

UNITS = {"make_contest": ("bytecodes",), "solve": ("bytecodes",), "lanes": ("numpy_calls",),
         "design": ("bytecodes",), "oracle": ("numpy_calls", "elements")}


def _rows(op, family, label, count, call):
    """A `Row` per unit of `op`: `call` counted by `count`, which returns the
    counts in `UNITS` order (and maybe more) and the result, after one run
    that fills caches."""
    count(call)
    *counts, result = count(call)
    plain = functools.partial(_attempt, call)
    return [Row(op, FAMILIES[family].kind, label, unit, n, result, plain)
            for unit, n in zip(UNITS[op], counts)]


def scan():
    """Yield the `Row`s of each operation: on each corpus contest
    `make_contest`, `solve` and the lanes, then each draw of the design
    sample, then each oracle contest's `grid_nash`."""
    for name, family, kw in corpus():
        build = functools.partial(make_contest, **kw)
        spec = build()
        yield from _rows("make_contest", family, name, bytecodes, build)
        yield from _rows("solve", family, name, bytecodes, functools.partial(solve, spec))
        yield from _rows("lanes", family, name, numpy_calls, functools.partial(
            equilibrium.solve_lanes, spec, LANE_QS, force=False))
    for index, family, kw, pairs in design_sample():
        yield from _rows("design", family, f"{index}-{family}", bytecodes,
                         functools.partial(design_op, make_contest(**kw), pairs))
    for family, params in ORACLE_CONTESTS:
        spec = make_contest(family, v1=2.0, v2=1.0, q=0.5, **params)
        yield from _rows("oracle", family, f"{family}-{ORACLE_STEPS}", oracle_work, functools.partial(
            grid_nash, spec, GridSpec.for_contest(spec, ORACLE_STEPS)))


def totals(rows) -> dict[str, int]:
    """Per-kind totals, keyed `operation.unit.kind`, in sorted key order."""
    out: dict[str, int] = {}
    for row in rows:
        key = f"{row.op}.{row.unit}.{row.kind}"
        out[key] = out.get(key, 0) + row.count
    return dict(sorted(out.items()))


def text(rows) -> str:
    """The scan's output: the record key, then one line per count."""
    return "".join([f"# {record_key()}\n", *(
        f"{row.op} {row.kind} {row.label} {row.count} {row.unit}\n" for row in rows)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true",
                        help=f"write the per-kind totals to {RECORD.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    rows = list(scan())
    if args.record:
        records = json.loads(RECORD.read_text(encoding="utf-8")) if RECORD.exists() else {}
        records[record_key()] = totals(rows)
        RECORD.write_text(json.dumps(dict(sorted(records.items())), indent=2) + "\n",
                          encoding="utf-8")
        return 0
    sys.stdout.write(text(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
