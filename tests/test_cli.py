"""Command-line interface: exit codes, document shapes, spec round trips."""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from tiebreak import ConvergenceError, NoEquilibriumError
from tiebreak.core import MAX_COUNT
from tiebreak.equilibrium import UNCHECKED_ASSUMPTIONS_WARNING
from tiebreak.cli import (
    EXIT_INVALID,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    run,
)
from test_cli_golden import CASES, COLUMNS, SPEC_DOC, invoke

SHARP = ["--family", "jia-ratio", "--r", "1", "--k", "2",
         "--v1", "2", "--v2", "1", "--q", "0.5"]


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestSolveCommand:
    def test_inline_solve_document(self, capsys):
        code, doc = run_json(capsys, ["solve", *SHARP])
        assert code == EXIT_OK
        assert doc["equilibrium"]["x1"] == pytest.approx(0.41, abs=1e-10)
        assert doc["equilibrium"]["x2"] == pytest.approx(0.205, abs=1e-10)
        assert doc["spec"]["family"] == "jia-ratio"
        assert doc["audit"]["passed"] is True

    def test_spec_file_source(self, capsys, tmp_path):
        path = tmp_path / "contest.json"
        run(["solve", *SHARP, "--emit-spec", str(path)])
        capsys.readouterr()
        code, doc = run_json(capsys, ["solve", "--spec", str(path)])
        assert code == EXIT_OK
        assert doc["equilibrium"]["x1"] == pytest.approx(0.41, abs=1e-10)

    def test_emit_spec_round_trip_is_byte_identical(self, capsys, tmp_path):
        path = tmp_path / "contest.json"
        run(["solve", *SHARP, "--emit-spec", str(path)])
        first = capsys.readouterr().out
        run(["solve", "--spec", str(path)])
        second = capsys.readouterr().out
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        out = tmp_path / "solution.json"
        code = run(["solve", *SHARP, "--output", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        doc = json.loads(out.read_text())
        assert doc["equilibrium"]["x1"] == pytest.approx(0.41, abs=1e-10)

    def test_both_sources_rejected(self, capsys, tmp_path):
        path = tmp_path / "contest.json"
        path.write_text("{}")
        assert run(["solve", *SHARP, "--spec", str(path)]) == EXIT_INVALID
        assert "exactly one" in capsys.readouterr().err

    def test_no_source_rejected(self, capsys):
        assert run(["solve"]) == EXIT_INVALID
        assert capsys.readouterr().err

    def test_unknown_family_rejected(self, capsys):
        argv = ["solve", "--family", "nope", "--v1", "1", "--v2", "1", "--q", "0"]
        assert run(argv) == EXIT_INVALID
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize("family", [["jia-diff"], {"a": 1}], ids=["list", "dict"])
    def test_a_family_name_that_is_no_string_is_unknown(self, capsys, tmp_path, family):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"family": family, "params": {"k": 2}, "v1": 2.0, "v2": 1.0,
                                    "q": 0.5}), encoding="utf-8")
        assert run(["solve", "--spec", str(path)]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: unknown family {family!r}; known families: ")
        assert captured.err.count("\n") == 1

    def test_unreadable_spec_file_rejected(self, capsys, tmp_path):
        path = str(tmp_path / "missing.json")
        assert run(["solve", "--spec", path]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith(f"error: cannot read spec file {path!r}: ")

    @pytest.mark.parametrize("argv, flag, what", [
        (["solve", *SHARP], "--output", "output file"),
        (["sweep", *SHARP, "--format", "csv"], "--output", "output file"),
        (["solve", *SHARP], "--emit-spec", "spec file"),
        (["audit", *SHARP], "--emit-spec", "spec file"),
    ], ids=["solve-json-output", "sweep-csv-output", "solve-emit-spec", "audit-inline-emit-spec"])
    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_unwritable_path_ends_in_one_error_line(self, capsys, tmp_path, argv, flag, what,
                                                    target):
        path = str(tmp_path if target == "directory" else tmp_path / "missing" / "out")
        assert run([*argv, flag, path]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {what} {path!r}: ")
        assert captured.err.count("\n") == 1

    def test_inline_spec_needs_both_prizes(self, capsys):
        argv = ["solve", "--family", "jia-ratio", "--r", "1", "--k", "2", "--v1", "2", "--q", "0.5"]
        assert run(argv) == EXIT_INVALID
        assert capsys.readouterr().err == "error: inline specs require --v1 and --v2\n"

    def test_malformed_spec_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["solve", "--spec", str(path)]) == EXIT_INVALID
        assert capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "audit"])
    def test_a_spec_file_with_another_cost_is_refused(self, capsys, tmp_path, command):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(SPEC_DOC, cost="linear")), encoding="utf-8")
        assert run([command, "--spec", str(path)]) == EXIT_INVALID
        assert capsys.readouterr() == ("", "error: diff-form contests are solved under "
                                           "'quadratic_half' cost, got 'linear'\n")

    def test_precondition_violation_needs_force(self, capsys):
        argv = ["solve", "--family", "vesperoni-ratio", "--r", "0.6", "--k", "2",
                "--v1", "2", "--v2", "1", "--q", "0.5"]
        assert run(argv) == EXIT_INVALID
        capsys.readouterr()
        code, doc = run_json(capsys, [*argv, "--force"])
        assert code == EXIT_OK
        assert doc["equilibrium"]["warnings"] == [UNCHECKED_ASSUMPTIONS_WARNING]

    def test_convergence_failure_exit_code(self, capsys, monkeypatch):
        """A `ConvergenceError`, and its subclass `NoEquilibriumError`, exit
        with the convergence code, nothing on stdout and the message on stderr."""
        import tiebreak.cli as cli

        for error in (ConvergenceError("iteration stalled"),
                      NoEquilibriumError("no equilibrium stalled")):
            def explode(*args, **kwargs):
                raise error

            monkeypatch.setattr(cli, "solve", explode)
            assert run(["solve", *SHARP]) == EXIT_NO_CONVERGENCE
            assert capsys.readouterr() == ("", f"error: {error}\n")

    def test_linear_impact_solve_at_a_huge_prize(self, capsys):
        code, doc = run_json(capsys, ["solve", "--family", "blavatskyy-power", "--r", "1",
                                      "--v1", "1e200", "--v2", "1", "--q", "0"])
        assert code == EXIT_OK
        assert (doc["equilibrium"]["x1"], doc["equilibrium"]["x2"]) == (1e100, 0.0)


class TestSweepCommand:
    def test_csv_output(self, capsys):
        code = run(["sweep", *SHARP[:-2], "--q", "0", "--points", "11",
                    "--format", "csv"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "q,x1,x2,R"
        assert len(lines) == 12
        first = [float(part) for part in lines[1].split(",")]
        assert first[3] == pytest.approx(0.75, abs=1e-10)

    def test_json_output_carries_shape(self, capsys):
        code, doc = run_json(capsys, ["sweep", *SHARP, "--points", "5"])
        assert code == EXIT_OK
        assert len(doc["curve"]["samples"]) == 5
        assert doc["curve"]["shape"]["linear"]["holds"] is True

    def test_csv_format_restricted_to_sweep(self, capsys):
        assert run(["solve", *SHARP, "--format", "csv"]) == EXIT_INVALID


class TestOptimizeCommand:
    def test_theorem_route(self, capsys):
        code, doc = run_json(capsys, ["optimize", *SHARP])
        assert code == EXIT_OK
        assert doc["optimal"]["q_star"] == 0.0
        assert doc["optimal"]["rationale"] == "theorem"
        assert doc["optimal"]["total_effort"] == pytest.approx(0.75, abs=1e-10)

    def test_uncertified_concave_optimum_exits_with_convergence_code(self, capsys,
                                                                     monkeypatch):
        import tiebreak.designer as designer

        monkeypatch.setattr(designer, "total_effort_slope", lambda *args: float("nan"))
        argv = ["optimize", "--family", "blavatskyy-power", "--r", "0.5",
                "--v1", "2", "--v2", "1", "--q", "0.5"]
        assert run(argv) == EXIT_NO_CONVERGENCE
        assert "q = 0, where dR/dq = nan" in capsys.readouterr().err


class TestExpectedCommand:
    def test_coin_rule(self, capsys):
        code, doc = run_json(
            capsys, ["expected", *SHARP, "--rule", "0:0.5,1:0.5"]
        )
        assert code == EXIT_OK
        assert doc["expected_total_effort"] == pytest.approx(0.615, abs=1e-10)
        assert doc["mean_q"] == pytest.approx(0.5)
        assert doc["unbiased"] is True

    def test_rule_weights_must_sum_to_one(self, capsys):
        assert run(["expected", *SHARP, "--rule", "0:0.5"]) == EXIT_INVALID

    def test_rule_syntax_errors_rejected(self, capsys):
        assert run(["expected", *SHARP, "--rule", "a:b"]) == EXIT_INVALID

    def test_empty_rule_atom_rejected(self, capsys):
        assert run(["expected", *SHARP, "--rule", "0:0.5,,1:0.5"]) == EXIT_INVALID
        assert capsys.readouterr().err == "error: empty atom at position 1 in --rule\n"


class TestAuditCommand:
    def test_passing_audit(self, capsys):
        code, doc = run_json(capsys, ["audit", "--family", "jia-ratio",
                                      "--r", "1", "--k", "2"])
        assert code == EXIT_OK
        assert doc["passed"] is True
        assert doc["family"] == "jia-ratio"

    def test_failing_audit_exits_one(self, capsys):
        code = run(["audit", "--family", "jia-diff", "--k", "1", "--v1", "20"])
        out = capsys.readouterr().out
        assert code == EXIT_INVALID
        assert json.loads(out)["passed"] is False

    def test_diff_audit_requires_prize(self, capsys):
        assert run(["audit", "--family", "jia-diff", "--k", "2"]) == EXIT_INVALID

    def test_audit_needs_a_source(self, capsys):
        assert run(["audit"]) == EXIT_INVALID
        assert capsys.readouterr().err == (
            "error: missing spec source: give --spec FILE or --family ...\n")

    @pytest.mark.parametrize("source", ["inline", "spec"])
    def test_emit_spec_from_either_source(self, capsys, tmp_path, source):
        path, copy = tmp_path / "contest.json", tmp_path / "copy.json"
        run(["solve", *SHARP, "--emit-spec", str(path)])
        capsys.readouterr()
        argv = SHARP if source == "inline" else ["--spec", str(path)]
        assert run(["audit", *argv, "--emit-spec", str(copy)]) == EXIT_OK
        assert copy.read_text() == path.read_text()

    @pytest.mark.parametrize("argv, name", [
        (["sweep", *SHARP, "--points"], "q_count"),
        (["verify", *SHARP, "--steps"], "steps"),
    ])
    def test_a_count_above_the_ceiling_is_refused_before_any_allocation(self, capsys, argv,
                                                                        name):
        start = time.perf_counter()
        code = run([*argv, "100000000000"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_INVALID, "")
        assert captured.err == f"error: {name} must be <= {MAX_COUNT}, got 100000000000\n"
        assert elapsed < 1.0


class TestVerifyCommand:
    def test_verified_solution(self, capsys):
        code, doc = run_json(capsys, ["verify", *SHARP, "--steps", "401"])
        assert code == EXIT_OK
        assert doc["verification"]["passed"] is True

    def test_grid_ceiling_is_the_given_x_max(self, capsys):
        code, doc = run_json(capsys, ["verify", *SHARP, "--steps", "401", "--x-max", "1.5"])
        assert code == EXIT_OK
        assert doc["verification"]["grid"]["x_max"] == 1.5

    def test_failed_verification_exit_code(self, capsys, monkeypatch):
        import tiebreak.cli as cli
        from tiebreak import Equilibrium, SolveMethod

        bogus = Equilibrium(
            x1=0.9, x2=0.9, beta=1.0, method=SolveMethod.CLOSED_FORM,
            residuals=(0.0, 0.0),
        )
        monkeypatch.setattr(cli, "solve", lambda *a, **k: bogus)
        code = run(["verify", *SHARP, "--steps", "401"])
        assert code == EXIT_VERIFY_FAILED
        doc = json.loads(capsys.readouterr().out)
        assert doc["verification"]["passed"] is False

    def test_solution_above_the_grid_ceiling_fails_its_report(self, capsys):
        """`solve` returns efforts above this grid's ceiling (`tools/bitscan.py`
        draw 19388); the report refutes them, where a range check once raised."""
        code, doc = run_json(capsys, [
            "verify", "--family", "jia-diff", "--k", "7399.610211971736",
            "--v1", "432037.5564741736", "--v2", "438543.8394421204",
            "--q", "0.8824038936733141", "--steps", "101"])
        assert code == EXIT_VERIFY_FAILED
        report = doc["verification"]
        assert report["passed"] is False
        assert report["profile"]["x2"] > report["grid"]["x_max"]

    def test_grid_ceiling_at_the_top_of_the_double_range_is_finite(self, capsys):
        """sqrt(2 v1) overflowed above v1 = 8.99e307, and the command exited 1 naming
        an x_max of inf that was never given."""
        code, doc = run_json(capsys, ["verify", "--family", "jia-diff", "--k", "2",
                                      "--v1", "1e308", "--v2", "1", "--q", "0.5", "--steps", "101"])
        assert code in (EXIT_OK, EXIT_VERIFY_FAILED)
        grid = doc["verification"]["grid"]
        assert grid["x_max"] == pytest.approx(math.sqrt(2.0) * 1e154 * 100 / 99, rel=1e-15)

    @pytest.mark.parametrize("contest", [
        ["--family", "blavatskyy-power", "--r", "1", "--v2", "1"],
        ["--family", "jia-ratio", "--r", "0.5", "--k", "2", "--v2", "1e307"],
        ["--family", "vesperoni-ratio", "--r", "0.5", "--k", "1.5", "--v2", "1e307"],
    ], ids=["blavatskyy-power", "jia-ratio", "vesperoni-ratio"])
    def test_the_largest_prize_verifies(self, capsys, contest):
        """Under linear cost the break-even effort at prize 1.7976931348623157e308 is
        the prize, so a step above it overflows: the grid runs to the largest
        double, where the command exited 1 with no finite grid ceiling."""
        code, doc = run_json(capsys, ["verify", *contest, "--v1", "1.7976931348623157e308",
                                      "--q", "0.3", "--steps", "101"])
        report = doc["verification"]
        assert code == EXIT_OK and report["passed"] is True
        assert report["grid"]["x_max"] == sys.float_info.max

    def test_grid_beyond_the_scan_budget_is_refused_before_the_scan(self, capsys,
                                                                   monkeypatch):
        """`GridSpec` takes 10^6 steps, but `grid_nash` refuses a grid whose
        n x n scan would run for hours, before any block of it is evaluated."""
        import tiebreak.oracle as oracle

        payoffs = oracle.payoffs

        def columns_only(spec, x1, x2, outcome=None):
            assert np.ndim(x1) < 2, "grid_nash started its scan"
            return payoffs(spec, x1, x2, outcome)

        monkeypatch.setattr(oracle, "payoffs", columns_only)
        start = time.perf_counter()
        code = run(["verify", *SHARP, "--steps", "1000000"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_INVALID, "")
        assert captured.err == ("error: grid_nash scans steps^2 payoff cells: 1000000 steps "
                                f"exceed the ceiling of {math.isqrt(oracle.MAX_SCAN_CELLS)}\n")
        assert elapsed < 1.0


class TestTopLevel:
    def test_help_lists_families(self, capsys):
        assert run(["--help"]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("jia-ratio", "vesperoni-diff", "blavatskyy-power"):
            assert name in out

    def test_missing_command_rejected(self, capsys):
        assert run([]) == EXIT_INVALID

    def test_unknown_command_rejected(self, capsys):
        assert run(["frobnicate"]) == EXIT_INVALID


SRC = Path(__file__).resolve().parents[1] / "src"


def run_module(*argv) -> subprocess.CompletedProcess:
    """`python -m tiebreak argv` in a child process that imports this tree."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "tiebreak", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)


class TestEntryPoints:
    def test_module_prints_the_bytes_of_run(self, capsys):
        assert run(["solve", *SHARP]) == EXIT_OK
        child = run_module("solve", *SHARP)
        assert (child.returncode, child.stdout, child.stderr) == (
            EXIT_OK, capsys.readouterr().out, "")

    @pytest.mark.parametrize("argv,code", [
        (["solve", "--family", "nope", "--v1", "1", "--v2", "1", "--q", "0"], EXIT_INVALID),
        (["solve", "--family", "blavatskyy-power", "--r", "0.99999104",
          "--v1", "0.834", "--v2", "0.1036", "--q", "0.0122"], EXIT_NO_CONVERGENCE),
    ], ids=["invalid", "no-convergence"])
    def test_module_exits_with_the_code_of_run(self, argv, code):
        child = run_module(*argv)
        assert (child.returncode, child.stdout) == (code, "")
        assert child.stderr.startswith("error: ") and child.stderr.count("\n") == 1

    def test_main_exits_with_the_code_of_run(self, capsys, monkeypatch):
        import tiebreak.cli as cli

        monkeypatch.setattr(sys, "argv", ["tiebreak", "solve", *SHARP[:-2]])
        with pytest.raises(SystemExit) as info:
            cli.main()
        assert info.value.code == EXIT_INVALID
        assert capsys.readouterr().err == "error: this subcommand requires --q\n"


# Totals of 1e308 at every q: the curve's certificates sit next to the overflow.
OVERFLOW_SWEEP = ["sweep", "--family", "jia-ratio", "--r", "2", "--k", "1",
                  "--v1", "1e308", "--v2", "1e308", "--points", "5", "--force"]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_every_json_output_is_strict_json(tmp_path, monkeypatch):
    """Each recorded invocation and the overflow sweep print strict JSON (no NaN or
    Infinity) unless they print help text or CSV."""
    monkeypatch.setenv("COLUMNS", COLUMNS)
    spec_path = tmp_path / "contest.json"
    spec_path.write_text(json.dumps(SPEC_DOC), encoding="utf-8")
    docs = {}
    for argv in [*CASES, OVERFLOW_SWEEP]:
        out = invoke(argv, str(spec_path))["stdout"]
        if out and not out.startswith(("usage: ", "q,x1,x2,R\n")):
            docs[" ".join(argv)] = json.loads(out, parse_constant=_reject_constant)
    shape = docs[" ".join(OVERFLOW_SWEEP)]["curve"]["shape"]
    assert shape["linear"] == {"holds": True, "violation": 0.0}
