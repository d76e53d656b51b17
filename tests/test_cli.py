"""Command-line interface: exit codes, document shapes, spec round trips."""
from __future__ import annotations

import json

import pytest

from tiebreak import ConvergenceError
from tiebreak.cli import (
    EXIT_INVALID,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    run,
)

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

    def test_malformed_spec_file_rejected(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(["solve", "--spec", str(path)]) == EXIT_INVALID
        assert capsys.readouterr().err

    def test_precondition_violation_needs_force(self, capsys):
        argv = ["solve", "--family", "vesperoni-ratio", "--r", "0.6", "--k", "2",
                "--v1", "2", "--v2", "1", "--q", "0.5"]
        assert run(argv) == EXIT_INVALID
        capsys.readouterr()
        code, doc = run_json(capsys, [*argv, "--force"])
        assert code == EXIT_OK
        assert any("protest" in w for w in doc["equilibrium"]["warnings"])

    def test_convergence_failure_exit_code(self, capsys, monkeypatch):
        import tiebreak.cli as cli

        def explode(*args, **kwargs):
            raise ConvergenceError("iteration stalled")

        monkeypatch.setattr(cli, "solve", explode)
        assert run(["solve", *SHARP]) == EXIT_NO_CONVERGENCE
        assert "stalled" in capsys.readouterr().err

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

        monkeypatch.setattr(designer, "_total_effort_slope", lambda *args: float("nan"))
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

    @pytest.mark.parametrize("family", [
        ["--family", "jia-ratio", "--r", "1", "--k", "2"],
        ["--family", "jia-diff", "--k", "2", "--v1", "1"],
        ["--family", "blavatskyy-power", "--r", "0.5"],
    ])
    @pytest.mark.parametrize("points", ["-5", "0", "1"])
    def test_grid_points_below_two_rejected(self, capsys, family, points):
        assert run(["audit", *family, "--grid-points", points]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: grid points must be an integer >= 2, got {int(points)}\n")

    @pytest.mark.parametrize("family,kind", [
        (["--family", "jia-ratio", "--r", "1", "--k", "2"], "ratio"),
        (["--family", "jia-diff", "--k", "2", "--v1", "1"], "diff"),
        (["--family", "blavatskyy-power", "--r", "0.5"], "concave"),
    ])
    def test_grid_points_set_every_kind_of_grid(self, capsys, family, kind):
        code, doc = run_json(capsys, ["audit", *family, "--grid-points", "3"])
        assert code == EXIT_OK
        assert doc["kind"] == kind
        assert doc["grid"]["theta_count"] == 3
        code, doc = run_json(capsys, ["audit", *family])
        assert doc["grid"]["theta_count"] == 2001


class TestVerifyCommand:
    def test_verified_solution(self, capsys):
        code, doc = run_json(capsys, ["verify", *SHARP, "--steps", "401"])
        assert code == EXIT_OK
        assert doc["verification"]["passed"] is True

    def test_infinite_slack_rejected(self, capsys):
        assert run(["verify", *SHARP, "--steps", "201", "--eps", "inf"]) == EXIT_INVALID
        assert capsys.readouterr().err == "error: eps must be finite, got inf\n"

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
