"""Recorded `tiebreak` command outputs, replayed in process.

`tests/data/cli_golden.json` holds the exit code, stdout and stderr that
`cli.run` produced for each invocation in `CASES`: every subcommand on one
contest per family (plus a linear-impact and a swapped-label contest), the
help texts, and the error paths.  The replay compares exit codes and every
non-numeric token of stdout and stderr exactly, so JSON key order, messages
and help text are pinned.  Decimal numbers are compared to 1e-12 relative
(1e-14 absolute for rounding-level values such as first-order residuals),
so a one-ulp libm difference on another machine does not fail the test.
Help text is formatted for an 80-column terminal.

`tests/data/cli_golden_digests.json` pins the bytes as well: a digest of
each invocation's exit code, stdout and stderr, under the interpreter's
Python and NumPy versions and NumPy's AVX-512 dispatch (the key of
`tools/bitscan.py`, whose exp, log and power round some last bits apart).
Where a digest is recorded for the running key, the replay also compares
the bytes' digest with it.  Regenerate both for an intended output change,
with AVX-512 dispatch on and then off:

    PYTHONPATH=src python tests/test_cli_golden.py
    NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" \
        PYTHONPATH=src python tests/test_cli_golden.py

The recorder writes the running key's digests, and writes an invocation's
current output into the record wherever its digest moved; where it held,
the record stays as it is, though it may hold the bytes of the other
dispatch setting.  So re-recording an unchanged tree under either setting
leaves both files byte-identical, and any moved byte changes them.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import re
from pathlib import Path

import pytest

from tiebreak import cli

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
DIGESTS = GOLDEN.with_name("cli_golden_digests.json")
COLUMNS = "80"


def _record_key() -> str:
    """`tools/bitscan.py`'s key: Python and NumPy versions and AVX-512 dispatch."""
    spec = importlib.util.spec_from_file_location(
        "bitscan", Path(__file__).resolve().parents[1] / "tools" / "bitscan.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.record_key()

# One contest per family, the linear-impact case and a swapped-label contest.
CONTESTS = {
    "vesperoni-ratio": ["--family", "vesperoni-ratio", "--r", "0.5", "--k", "2",
                        "--v1", "2", "--v2", "1", "--q", "0.5"],
    "jia-ratio": ["--family", "jia-ratio", "--r", "1", "--k", "2",
                  "--v1", "2", "--v2", "1", "--q", "0.5"],
    "vesperoni-diff": ["--family", "vesperoni-diff", "--k", "2",
                       "--v1", "0.8", "--v2", "0.5", "--q", "0.3"],
    "jia-diff": ["--family", "jia-diff", "--k", "2",
                 "--v1", "1.5", "--v2", "0.5", "--q", "0.25"],
    "blavatskyy-power": ["--family", "blavatskyy-power", "--r", "0.5",
                         "--v1", "4", "--v2", "2", "--q", "0.5"],
    "blavatskyy-linear": ["--family", "blavatskyy-power", "--r", "1",
                          "--v1", "4", "--v2", "2", "--q", "0.5"],
    "swapped": ["--family", "jia-ratio", "--r", "1", "--k", "2",
                "--v1", "1", "--v2", "2", "--q", "0.25"],
}

CURVATURE_FAILING = ["--family", "vesperoni-diff", "--k", "6.388505594693889",
                     "--v1", "7.375058005576213", "--v2", "3.7494174585456066",
                     "--q", "0.06293828720167405"]

SUBCOMMAND_TAILS = {
    "solve": [],
    "sweep": ["--points", "21"],
    "optimize": [],
    "expected": ["--rule", "0:0.5,1:0.5"],
    "audit": [],
    "verify": ["--steps", "201"],
}

SPEC_DOC = {"family": "jia-diff", "params": {"k": 2.0}, "v1": 1.5, "v2": 0.5,
            "q": 0.25, "cost": "quadratic_half"}

CASES = (
    [[cmd, *args, *tail] for args in CONTESTS.values()
     for cmd, tail in SUBCOMMAND_TAILS.items()]
    + [
        ["sweep", *CONTESTS["jia-diff"], "--points", "11", "--format", "csv"],
        ["sweep", *CONTESTS["swapped"], "--points", "5", "--format", "csv"],
        ["audit", "--family", "jia-diff", "--k", "1", "--v1", "20"],
        ["solve", "--spec", "{spec}"],
        ["audit", "--spec", "{spec}"],
        ["solve", "--family", "blavatskyy-power", "--r", "1",
         "--v1", "9", "--v2", "1", "--q", "0.9"],
        ["solve", "--family", "jia-ratio", "--r", "2", "--k", "2",
         "--v1", "2", "--v2", "1", "--q", "0.5", "--force"],
        ["sweep", "--family", "vesperoni-ratio", "--r", "1", "--k", "2",
         "--v1", "2", "--v2", "1", "--points", "5", "--force"],
        ["--help"],
        *([cmd, "--help"] for cmd in SUBCOMMAND_TAILS),
        # error paths
        [],
        ["frobnicate"],
        ["solve"],
        ["solve", "--family", "nope", "--v1", "1", "--v2", "1", "--q", "0"],
        ["solve", "--family", "jia-ratio", "--r", "1", "--v1", "2", "--v2", "1", "--q", "0"],
        ["solve", "--family", "jia-diff", "--k", "2", "--r", "1",
         "--v1", "2", "--v2", "1", "--q", "0"],
        ["solve", "--family", "jia-ratio", "--r", "2", "--k", "2",
         "--v1", "2", "--v2", "1", "--q", "0.5"],
        ["optimize", "--family", "vesperoni-ratio", "--r", "1", "--k", "2",
         "--v1", "2", "--v2", "1"],
        ["solve", *CONTESTS["jia-diff"], "--cost", "linear"],
        ["solve", *CONTESTS["jia-ratio"], "--cost", "cubic"],
        ["audit", "--family", "jia-diff", "--k", "2"],
        ["solve", "--family", "blavatskyy-power", "--r", "0.999999",
         "--v1", "4", "--v2", "2", "--q", "0"],
        ["sweep", "--family", "blavatskyy-power", "--r", "0.9386",
         "--v1", "0.1024", "--v2", "0.01184", "--points", "21"],
        ["solve", "--family", "jia-ratio", "--r", "1", "--k", "2", "--v1", "2", "--v2", "1"],
        ["expected", *CONTESTS["jia-ratio"], "--rule", "0:0.5,1:0.4"],
        ["expected", *CONTESTS["jia-ratio"], "--rule", "0.5"],
        ["sweep", *CONTESTS["jia-ratio"], "--points", "1"],
        ["verify", *CONTESTS["jia-ratio"], "--steps", "201", "--eps", "-1"],
        ["solve", *CONTESTS["jia-ratio"], "--format", "csv"],
        # a difference contest past its curvature bound: the solve returns a
        # stationary point with the condition warning, which the oracle refutes
        ["solve", *CURVATURE_FAILING],
        ["verify", *CURVATURE_FAILING],
    ]
)

# A decimal number: digits with a point or an exponent, not part of a word
# such as "x1".  Integers stay in the text and are compared exactly.
_FLOAT = re.compile(r"(?<![\w.])(-?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+))(?![\w.])")


def invoke(argv, spec_path: str) -> dict:
    """Run one invocation in process; returns its exit code, stdout and stderr."""
    argv = [arg.replace("{spec}", spec_path) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _assert_same_text(got: str, want: str, stream: str) -> None:
    got_parts, want_parts = _FLOAT.split(got), _FLOAT.split(want)
    assert len(got_parts) == len(want_parts), f"{stream} differs:\n{got}"
    for i, (g, w) in enumerate(zip(got_parts, want_parts)):
        if i % 2 == 0:
            assert g == w, f"{stream} text differs: {g!r} != {w!r}"
        else:
            assert math.isclose(float(g), float(w), rel_tol=1e-12, abs_tol=1e-14), (
                f"{stream} number differs: {g} != {w}")


def _assert_same_output(got: dict, record: dict) -> None:
    assert got["code"] == record["code"]
    _assert_same_text(got["stderr"], record["stderr"], "stderr")
    _assert_same_text(got["stdout"], record["stdout"], "stdout")


def _run_id(i: int, argv) -> str:
    return f"{i:02d}-{'-'.join(argv[:1] + argv[2:3])}"


def _digest(output: dict) -> str:
    """The digest of an invocation's exit code, stdout and stderr bytes."""
    text = json.dumps([output["code"], output["stdout"], output["stderr"]])
    return hashlib.sha256(text.encode()).hexdigest()[:32]


RECORDS = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else []
RECORDED_DIGESTS = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
KEY = _record_key()


@pytest.mark.parametrize("run, record", [(_run_id(i, rec["argv"]), rec)
                                         for i, rec in enumerate(RECORDS)],
                         ids=[_run_id(i, rec["argv"]) for i, rec in enumerate(RECORDS)])
def test_cli_output_matches_recording(run, record, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    spec_path = tmp_path / "contest.json"
    spec_path.write_text(json.dumps(SPEC_DOC), encoding="utf-8")
    got = invoke(record["argv"], str(spec_path))
    _assert_same_output(got, record)
    want = RECORDED_DIGESTS.get(KEY, {}).get(run)
    assert want is None or _digest(got) == want, (
        f"the bytes of {run} moved under {KEY!r}; state the change and re-record with "
        "AVX-512 dispatch on and off (see the module docstring)")


def test_recording_covers_every_case():
    assert [rec["argv"] for rec in RECORDS] == CASES
    runs = [_run_id(i, argv) for i, argv in enumerate(CASES)]
    for key, digests in RECORDED_DIGESTS.items():
        assert sorted(digests) == sorted(runs), key


def main() -> None:
    os.environ["COLUMNS"] = COLUMNS
    GOLDEN.parent.mkdir(exist_ok=True)
    spec_path = GOLDEN.parent / "cli_golden_spec.json"
    spec_path.write_text(json.dumps(SPEC_DOC), encoding="utf-8")
    recorded = {tuple(rec["argv"]): rec for rec in RECORDS}
    held = RECORDED_DIGESTS.get(KEY, {})
    records, digests = [], {}
    try:
        for i, argv in enumerate(CASES):
            got = {"argv": argv, **invoke(argv, str(spec_path))}
            run = _run_id(i, argv)
            digests[run] = _digest(got)
            keep = tuple(argv) in recorded and held.get(run) == digests[run]
            records.append(recorded[tuple(argv)] if keep else got)
    finally:
        spec_path.unlink()
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    DIGESTS.write_text(json.dumps({**RECORDED_DIGESTS, KEY: digests}, indent=1, sort_keys=True)
                       + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
