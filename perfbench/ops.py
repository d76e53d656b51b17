"""Operations, correctness checks, the per-operation cap, outcome kinds.

Every operation runs under a wall-clock cap enforced in process by a timer
signal: the handler raises `OpCapped` between bytecodes, so a solver loop
that spins is stopped without spawning a process per input.  (Long NumPy
calls finish before the handler runs; none of the package's single calls
is long enough to matter.)  CLI operations are capped by killing their
process instead.

An operation ends in exactly one outcome kind:

    ok                 output produced and its check passed
    check_failed       output produced but wrong (residual, bytes, or the
                       oracle refuting an audited equilibrium)
    verify_rejected    `tiebreak verify` exit 3 for an equilibrium whose
                       family audit failed: the documented outcome, but
                       not an equilibrium, so a failure
    capped             still running at the cap
    convergence_error  ConvergenceError (not NoEquilibriumError)
    no_equilibrium     NoEquilibriumError
    validation_error   ValidationError (the draw is inside the domain, so
                       this is a failure too)
    other_error        any other exception

Only `ok` counts as passed.  A wrong output (`check_failed`) additionally
makes the run's `correct` flag false.
"""
from __future__ import annotations

import json
import math
import signal
import subprocess
import time
from dataclasses import dataclass

import tiebreak
from tiebreak import audit as audit_mod
from tiebreak.equilibrium import UNCHECKED_ASSUMPTIONS_WARNING
from tiebreak.errors import ConvergenceError, NoEquilibriumError, ValidationError

from inputs import Contest

RESIDUAL_TOL = 1e-8
"""Largest first-order residual, relative to scale, that a solve may leave."""

GUARD = 1e-9
"""Relative slack for comparisons between designer results."""

SOLVE_OUTCOMES = ("ok", "convergence_error", "no_equilibrium",
                  "validation_error", "capped")


class OpCapped(BaseException):
    """Raised by the cap timer; a BaseException so no handler in the program
    under test can swallow it."""


class CheckFailed(Exception):
    """An operation returned output that fails its correctness check."""


def _on_alarm(signum, frame):
    raise OpCapped()


def classify(exc: BaseException) -> str:
    """Outcome kind of an exception raised by an operation."""
    if isinstance(exc, OpCapped):
        return "capped"
    if isinstance(exc, CheckFailed):
        return "check_failed"
    if isinstance(exc, NoEquilibriumError):
        return "no_equilibrium"
    if isinstance(exc, ConvergenceError):
        return "convergence_error"
    if isinstance(exc, ValidationError):
        return "validation_error"
    return "other_error"


def run_capped(fn, cap_s: float):
    """Run `fn()` under a wall cap; return (outcome, seconds, detail).

    A capped operation's seconds are the cap plus the few microseconds the
    timer signal takes to land.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    detail = ""
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, cap_s)
            fn()
            outcome = "ok"
        except Exception as exc:  # every failure of the op is tallied by kind
            outcome, detail = classify(exc), f"{type(exc).__name__}: {exc}"[:300]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    except OpCapped:
        outcome = "capped"
    finally:
        signal.signal(signal.SIGALRM, previous)
    return outcome, time.perf_counter() - t0, detail


def make_spec(c: Contest):
    return tiebreak.make_contest(c.family, v1=c.v1, v2=c.v2, q=c.q, **c.params)


def rel_residual(spec, eq) -> float:
    """Worst first-order residual relative to scale.

    Ratio and concave residuals are already relative (marginal benefit over
    marginal cost, minus one); difference-form residuals are divided by the
    player's prize.  A cornered player only needs a nonpositive slope.
    """
    worst = 0.0
    for player, (res, corner) in enumerate(zip(eq.residuals, eq.corner_flags)):
        if spec.csf.kind == "diff":
            res = res / (spec.v1 if player == 0 else spec.v2)
        worst = max(worst, max(res, 0.0) if corner else abs(res))
    return worst


def check_solution(spec, eq) -> None:
    if not (math.isfinite(eq.x1) and math.isfinite(eq.x2)):
        raise CheckFailed(f"non-finite efforts ({eq.x1}, {eq.x2})")
    res = rel_residual(spec, eq)
    if not res <= RESIDUAL_TOL:
        raise CheckFailed(f"relative residual {res:.3e} exceeds {RESIDUAL_TOL:.0e}")


def quick_audit(spec):
    """Default-grid audit for the contest's family, as the CLI runs it."""
    kind = spec.csf.kind
    if kind == "ratio":
        return audit_mod.audit_ratio(spec.csf)
    if kind == "diff":
        return audit_mod.audit_diff(spec.csf, spec.valuations.v1)
    return audit_mod.audit_concave(spec.csf)


def solve_op(c: Contest) -> None:
    """hard-inputs: one solve, checked by its residual."""
    spec = make_spec(c)
    check_solution(spec, tiebreak.solve(spec))


def design_op(c: Contest, rule) -> None:
    """design-study: audit, solve, sweep, optimal_q, expected_effort."""
    spec = make_spec(c)
    audited = quick_audit(spec).passed
    check_solution(spec, tiebreak.solve(spec, audited=audited))
    curve = tiebreak.sweep(spec, 101, audited=audited)
    totals = curve.totals
    if len(totals) != 101 or not all(math.isfinite(t) and t >= 0.0 for t in totals):
        raise CheckFailed("sweep returned a malformed curve")
    best = tiebreak.optimal_q(spec, audited=audited)
    top = max(totals)
    if best.total_effort < top - GUARD * (1.0 + top):
        raise CheckFailed(f"optimal_q total {best.total_effort!r} below sweep max {top!r}")
    value = tiebreak.expected_effort(spec, rule, audited=audited)
    if not (0.0 <= value <= best.total_effort + GUARD * (1.0 + best.total_effort)):
        raise CheckFailed(f"expected effort {value!r} outside [0, optimum]")


# ---------------------------------------------------------------- CLI ops

CLI_COMMANDS = ("solve", "sweep", "optimize", "expected", "audit", "verify")

# Exit codes documented in the README.
EXIT_OK, EXIT_INVALID, EXIT_NO_CONVERGENCE, EXIT_VERIFY_FAILED = 0, 1, 2, 3


def cli_argv(cmd: str, c: Contest, rule) -> list[str]:
    argv = [cmd, "--family", c.family]
    for key, value in c.params.items():
        argv += [f"--{key}", repr(value)]
    argv += ["--v1", repr(c.v1), "--v2", repr(c.v2), "--q", repr(c.q)]
    if cmd == "sweep":
        argv += ["--points", "101"]
    elif cmd == "expected":
        argv += ["--rule", ",".join(f"{q!r}:{w!r}" for q, w in rule)]
    return argv


def check_cli(cmd: str, code: int, stdout: bytes) -> str:
    """Outcome kind of one CLI run from its exit code and stdout."""
    if code == EXIT_NO_CONVERGENCE:
        return "convergence_error"
    if code not in (EXIT_OK, EXIT_INVALID, EXIT_VERIFY_FAILED):
        return "other_error"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "validation_error" if code == EXIT_INVALID else "check_failed"
    if cmd == "audit":
        expected = EXIT_OK if doc.get("passed") else EXIT_INVALID
        return "ok" if code == expected else "check_failed"
    if code == EXIT_INVALID:
        return "validation_error"
    if cmd == "verify":
        passed = doc.get("verification", {}).get("passed")
        if code == EXIT_VERIFY_FAILED and passed is False:
            unaudited = UNCHECKED_ASSUMPTIONS_WARNING in doc["equilibrium"]["warnings"]
            return "verify_rejected" if unaudited else "check_failed"
        if code != EXIT_OK or not passed:
            return "check_failed"
    elif code != EXIT_OK:
        return "check_failed"
    return "ok"


@dataclass
class CliResult:
    outcome: str
    seconds: float
    stdout: bytes
    detail: str


def run_cli(python: str, argv: list[str], env: dict, cap_s: float) -> CliResult:
    """One fresh `python -m tiebreak` process, killed at the cap."""
    t0 = time.perf_counter()
    with subprocess.Popen([python, "-m", "tiebreak", *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env) as proc:
        try:
            out, err = proc.communicate(timeout=cap_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return CliResult("capped", time.perf_counter() - t0, b"", "killed at the cap")
    elapsed = time.perf_counter() - t0
    outcome = check_cli(argv[0], proc.returncode, out)
    detail = "" if outcome == "ok" else f"exit {proc.returncode}: {err.decode()[-300:]}"
    return CliResult(outcome, elapsed, out, detail)
