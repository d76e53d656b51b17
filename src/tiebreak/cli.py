"""Command-line front end.

Subcommands: solve, sweep, optimize, expected, audit, verify.  Each run
takes exactly one contest description, either inline flags (--family with
its parameters, prizes, tie rule) or a JSON file via --spec, and emits one
JSON document (CSV for sweeps on request) to stdout or --output.

Exit codes: 0 success; 1 domain or validation problem, including audit
reports with failing conditions; 2 convergence failure inside a solver;
3 verification failure (the brute-force oracle rejected a solution).

All numeric output is serialized so that parsing it back reproduces the
exact binary floats, keeping regression comparisons bit-stable: CSV uses 17
significant digits and JSON uses Python's shortest round-trip repr.  Nothing
here is stochastic, so there is no seed flag; identical invocations produce
identical bytes.  A spec written with --emit-spec and re-read through --spec
yields byte-identical output for the same subcommand.
"""
from __future__ import annotations

import argparse
import json
import sys

from .audit import audit_family
from .core import ContestSpec, RandomTieRule
from .designer import expected_effort, optimal_q, sweep
from .equilibrium import solve
from .errors import ContestError, ConvergenceError, ValidationError
from .families import describe_families, make_contest, make_family
from .oracle import GridSpec, verify

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NO_CONVERGENCE = 2
EXIT_VERIFY_FAILED = 3

_INLINE_FLAGS = ("family", "r", "k", "v1", "v2", "q", "cost")


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as validation errors.

    argparse exits with status 2 on bad usage, which would collide with the
    convergence exit code; raising instead routes the message through the
    single error path (exit 1).
    """

    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="tiebreak",
        description="Equilibria and tie-breaking-rule design for two-player "
                    "contests with ties.",
        epilog="families:\n" + describe_families(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_spec_flags(p: _Parser, with_q: bool = True) -> None:
        p.add_argument("--spec", help="path to a contest spec JSON file")
        p.add_argument("--family", help="family key (see main help for the list)")
        p.add_argument("--r", type=float, help="family parameter r")
        p.add_argument("--k", type=float, help="family parameter k")
        p.add_argument("--v1", type=float, help="player 1 prize")
        p.add_argument("--v2", type=float, help="player 2 prize")
        if with_q:
            p.add_argument("--q", type=float, help="player 1 tie share in [0, 1]")
        p.add_argument("--cost", choices=["linear", "quadratic_half"],
                       help="cost technology (defaults to the family's)")
        p.add_argument("--emit-spec", metavar="PATH",
                       help="also write the canonical spec JSON to PATH")

    def add_output_flags(p: _Parser, formats=("json",)) -> None:
        p.add_argument("--output", "-o", metavar="PATH",
                       help="write the document here instead of stdout")
        p.add_argument("--format", choices=list(formats), default="json",
                       help="output format (default json)")

    p_solve = sub.add_parser("solve", help="solve one contest for its equilibrium")
    add_spec_flags(p_solve)
    add_output_flags(p_solve)

    p_sweep = sub.add_parser("sweep", help="total-effort curve R(q) over [0, 1]")
    add_spec_flags(p_sweep)
    add_output_flags(p_sweep, formats=("json", "csv"))
    p_sweep.add_argument("--points", type=int, default=11,
                         help="number of equally spaced q samples (default 11)")

    p_opt = sub.add_parser("optimize", help="find the tie rule maximizing total effort")
    add_spec_flags(p_opt)
    add_output_flags(p_opt)

    p_exp = sub.add_parser("expected",
                           help="expected total effort under a random tie rule")
    add_spec_flags(p_exp)
    add_output_flags(p_exp)
    p_exp.add_argument("--rule", required=True, metavar="Q:W,Q:W,...",
                       help="random rule atoms, e.g. 0:0.5,1:0.5")

    p_audit = sub.add_parser("audit", help="audit the family's regularity conditions")
    add_spec_flags(p_audit)
    add_output_flags(p_audit)
    p_audit.add_argument("--grid-points", type=int, default=None,
                         help="theta grid resolution override")

    p_verify = sub.add_parser("verify",
                              help="solve, then check against the brute-force grid")
    add_spec_flags(p_verify)
    add_output_flags(p_verify)
    p_verify.add_argument("--steps", type=int, default=2001,
                          help="effort grid resolution (default 2001)")
    p_verify.add_argument("--x-max", type=float, default=None,
                          help="effort grid ceiling (default: dominance bound)")
    p_verify.add_argument("--eps", type=float, default=None,
                          help="best-response slack for the grid Nash scan")
    for p in (p_solve, p_sweep, p_opt, p_exp, p_verify):
        p.add_argument("--force", action="store_true",
                       help="evaluate closed forms outside their guaranteed parameter region")
    return parser


def _inline_given(args) -> bool:
    return any(getattr(args, name, None) is not None for name in _INLINE_FLAGS)


def _spec_from_args(args, *, need_q: bool) -> ContestSpec:
    """Build the contest from exactly one source: --spec file or inline flags."""
    if args.spec is not None:
        if _inline_given(args):
            raise ValidationError(
                "give exactly one spec source: --spec file or inline flags, not both"
            )
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValidationError(f"cannot read spec file {args.spec!r}: {exc}") from exc
        return ContestSpec.from_json(text)

    if args.family is None:
        raise ValidationError("missing spec source: give --spec FILE or --family ...")
    if args.v1 is None or args.v2 is None:
        raise ValidationError("inline specs require --v1 and --v2")
    q = getattr(args, "q", None)
    if q is None:
        if need_q:
            raise ValidationError("this subcommand requires --q")
        q = 0.0
    return make_contest(args.family, v1=args.v1, v2=args.v2, q=q,
                        cost=args.cost, r=args.r, k=args.k)


def _maybe_emit_spec(args, spec: ContestSpec) -> None:
    if getattr(args, "emit_spec", None):
        with open(args.emit_spec, "w", encoding="utf-8") as fh:
            fh.write(spec.to_json())


def _audit_summary(report) -> dict:
    return {
        "checked": True,
        "passed": report.passed,
        "failed_conditions": [c.name for c in report.failures],
    }


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, doc: dict) -> None:
    _emit(args, json.dumps(doc, indent=2) + "\n")


def _parse_rule(text: str) -> RandomTieRule:
    pairs = []
    for i, chunk in enumerate(text.split(",")):
        part = chunk.strip()
        if not part:
            raise ValidationError(f"empty atom at position {i} in --rule")
        if ":" not in part:
            raise ValidationError(
                f"atom {part!r} in --rule must look like Q:WEIGHT"
            )
        q_text, w_text = part.split(":", 1)
        try:
            pairs.append((float(q_text), float(w_text)))
        except ValueError as exc:
            raise ValidationError(f"non-numeric atom {part!r} in --rule") from exc
    return RandomTieRule.from_pairs(pairs)


def _cmd_solve(args) -> int:
    spec = _spec_from_args(args, need_q=True)
    _maybe_emit_spec(args, spec)
    report = audit_family(spec.csf, spec.valuations.v1)
    eq = solve(spec, force=args.force, audited=report.passed)
    _emit_json(args, {
        "spec": spec.to_json_dict(),
        "equilibrium": eq.to_json_dict(),
        "audit": _audit_summary(report),
    })
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = _spec_from_args(args, need_q=False)
    _maybe_emit_spec(args, spec)
    report = audit_family(spec.csf, spec.valuations.v1)
    curve = sweep(spec, args.points, force=args.force, audited=report.passed)
    if args.format == "csv":
        _emit(args, curve.to_csv())
    else:
        _emit_json(args, {
            "spec": spec.to_json_dict(),
            "curve": curve.to_json_dict(),
            "audit": _audit_summary(report),
        })
    return EXIT_OK


def _cmd_optimize(args) -> int:
    spec = _spec_from_args(args, need_q=False)
    _maybe_emit_spec(args, spec)
    report = audit_family(spec.csf, spec.valuations.v1)
    best = optimal_q(spec, force=args.force, audited=report.passed)
    _emit_json(args, {
        "spec": spec.to_json_dict(),
        "optimal": best.to_json_dict(),
        "audit": _audit_summary(report),
    })
    return EXIT_OK


def _cmd_expected(args) -> int:
    spec = _spec_from_args(args, need_q=False)
    _maybe_emit_spec(args, spec)
    rule = _parse_rule(args.rule)
    report = audit_family(spec.csf, spec.valuations.v1)
    value = expected_effort(spec, rule, force=args.force, audited=report.passed)
    _emit_json(args, {
        "spec": spec.to_json_dict(),
        "rule": [{"q": atom.q, "weight": w} for atom, w in rule.atoms],
        "mean_q": rule.mean_q,
        "unbiased": rule.is_unbiased,
        "expected_total_effort": value,
        "audit": _audit_summary(report),
    })
    return EXIT_OK


def _cmd_audit(args) -> int:
    if args.spec is not None:
        spec = _spec_from_args(args, need_q=False)
        csf, v1 = spec.csf, spec.valuations.v1
    else:
        if args.family is None:
            raise ValidationError("missing spec source: give --spec FILE or --family ...")
        csf = make_family(args.family, r=args.r, k=args.k)
        v1 = None
        if args.v1 is not None or args.v2 is not None:
            vs = [v for v in (args.v1, args.v2) if v is not None]
            v1 = max(vs)
        if getattr(args, "emit_spec", None):
            spec = _spec_from_args(args, need_q=False)
            _maybe_emit_spec(args, spec)
    report = audit_family(csf, v1, args.grid_points)
    _emit_json(args, report.to_json_dict())
    return EXIT_OK if report.passed else EXIT_INVALID


def _cmd_verify(args) -> int:
    spec = _spec_from_args(args, need_q=True)
    _maybe_emit_spec(args, spec)
    report = audit_family(spec.csf, spec.valuations.v1)
    eq = solve(spec, force=args.force, audited=report.passed)
    if args.x_max is not None:
        grid = GridSpec(x_max=args.x_max, steps=args.steps, eps=args.eps)
    else:
        grid = GridSpec.for_contest(spec, steps=args.steps, eps=args.eps)
    result = verify(spec, eq, grid)
    _emit_json(args, {
        "spec": spec.to_json_dict(),
        "equilibrium": eq.to_json_dict(),
        "verification": result.to_json_dict(),
    })
    return EXIT_OK if result.passed else EXIT_VERIFY_FAILED


_COMMANDS = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "optimize": _cmd_optimize,
    "expected": _cmd_expected,
    "audit": _cmd_audit,
    "verify": _cmd_verify,
}


def run(argv) -> int:
    """Parse argv, execute one subcommand, and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help and --version exit through here
        code = exc.code
        return int(code) if code is not None else 0
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID

    try:
        return _COMMANDS[args.command](args)
    except ConvergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NO_CONVERGENCE
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except ContestError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
