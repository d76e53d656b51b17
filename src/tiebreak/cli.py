"""Command-line front end.

Subcommands: solve, sweep, optimize, expected, audit, verify.  Each run
takes exactly one contest description, either inline flags (--family with
its parameters, prizes, tie rule) or a JSON file via --spec, and emits one
JSON document (CSV for sweeps on request) to stdout or --output.

Every subcommand but audit runs one contest frame: `_preamble` builds the
contest from its one source, writes --emit-spec before anything is solved,
audits the family for the document and forms the solver keywords (--force);
`_emit_contest` writes the document, the spec first, then the subcommand's
own entries, then the audit summary (verify's document has none).  Once
argparse accepts the flags, errors in the contest come before errors in the
subcommand's own values (--rule, --points, the verify grid).

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


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as validation errors.

    argparse exits with status 2 on bad usage, which would collide with the
    convergence exit code; raising instead routes the message through the
    single error path (exit 1).
    """

    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> _Parser:
    """The parser; each subcommand's namespace carries its `handler` and the
    `inline` flags that describe a contest without --spec."""
    parser = _Parser(
        prog="tiebreak",
        description="Equilibria and tie-breaking-rule design for two-player "
                    "contests with ties.",
        epilog="families:\n" + describe_families(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name: str, handler, about: str, formats=("json",)) -> _Parser:
        p = sub.add_parser(name, help=about)
        p.add_argument("--spec", help="path to a contest spec JSON file")
        inline = (
            p.add_argument("--family", help="family key (see main help for the list)"),
            p.add_argument("--r", type=float, help="family parameter r"),
            p.add_argument("--k", type=float, help="family parameter k"),
            p.add_argument("--v1", type=float, help="player 1 prize"),
            p.add_argument("--v2", type=float, help="player 2 prize"),
            p.add_argument("--q", type=float, help="player 1 tie share in [0, 1]"),
        )
        p.add_argument("--emit-spec", metavar="PATH",
                       help="also write the canonical spec JSON to PATH")
        p.add_argument("--output", "-o", metavar="PATH",
                       help="write the document here instead of stdout")
        p.add_argument("--format", choices=list(formats), default="json",
                       help="output format (default json)")
        p.set_defaults(handler=handler, inline=tuple(action.dest for action in inline))
        return p

    p_solve = command("solve", _cmd_solve, "solve one contest for its equilibrium")
    p_sweep = command("sweep", _cmd_sweep, "total-effort curve R(q) over [0, 1]",
                      formats=("json", "csv"))
    p_sweep.add_argument("--points", type=int, default=11,
                         help="number of equally spaced q samples (default 11)")
    p_opt = command("optimize", _cmd_optimize, "find the tie rule maximizing total effort")
    p_exp = command("expected", _cmd_expected,
                    "expected total effort under a random tie rule")
    p_exp.add_argument("--rule", required=True, metavar="Q:W,Q:W,...",
                       help="random rule atoms, e.g. 0:0.5,1:0.5")
    command("audit", _cmd_audit, "audit the family's regularity conditions")
    p_verify = command("verify", _cmd_verify,
                       "solve, then check against the brute-force grid")
    p_verify.add_argument("--steps", type=int, default=2001,
                          help="effort grid resolution (default 2001)")
    p_verify.add_argument("--x-max", type=float, default=None,
                          help="effort grid ceiling (default: dominance bound)")
    for p in (p_solve, p_sweep, p_opt, p_exp, p_verify):
        p.add_argument("--force", action="store_true",
                       help="evaluate closed forms outside their guaranteed parameter region")
    return parser


def _spec_file(args) -> ContestSpec | None:
    """The contest of the --spec file, or None when inline flags give it;
    raises unless exactly one source is given."""
    if args.spec is None:
        if args.family is None:
            raise ValidationError("missing spec source: give --spec FILE or --family ...")
        return None
    if any(getattr(args, name) is not None for name in args.inline):
        raise ValidationError(
            "give exactly one spec source: --spec file or inline flags, not both"
        )
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read spec file {args.spec!r}: {exc}") from exc
    return ContestSpec.from_json(text)


def _spec_from_args(args, *, need_q: bool) -> ContestSpec:
    """Build the contest from exactly one source: --spec file or inline flags."""
    spec = _spec_file(args)
    if spec is not None:
        return spec
    if args.v1 is None or args.v2 is None:
        raise ValidationError("inline specs require --v1 and --v2")
    if args.q is None and need_q:
        raise ValidationError("this subcommand requires --q")
    return make_contest(args.family, v1=args.v1, v2=args.v2, q=0.0 if args.q is None else args.q,
                        r=args.r, k=args.k)


def _write(path: str, text: str, what: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {what} {path!r}: {exc}") from exc


def _maybe_emit_spec(args, spec: ContestSpec) -> None:
    if args.emit_spec:
        _write(args.emit_spec, spec.to_json(), "spec file")


def _preamble(args, *, need_q: bool):
    """The contest, written to --emit-spec if asked, its family's audit, and the
    keywords that every solver call of the subcommand takes."""
    spec = _spec_from_args(args, need_q=need_q)
    _maybe_emit_spec(args, spec)
    report = audit_family(spec.csf, spec.valuations.v1)
    return spec, report, {"force": args.force}


def _emit(args, text: str) -> None:
    if args.output:
        _write(args.output, text, "output file")
    else:
        sys.stdout.write(text)


def _emit_json(args, doc: dict) -> None:
    _emit(args, json.dumps(doc, indent=2) + "\n")


def _emit_contest(args, spec: ContestSpec, report, **entries) -> None:
    """Write a contest document: the spec, the subcommand's `entries` in order,
    then the audit's summary unless `report` is None."""
    doc = {"spec": spec.to_json_dict(), **entries}
    if report is not None:
        doc["audit"] = {"checked": True, "passed": report.passed,
                        "failed_conditions": [c.name for c in report.failures]}
    _emit_json(args, doc)


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
    spec, report, solver = _preamble(args, need_q=True)
    _emit_contest(args, spec, report, equilibrium=solve(spec, **solver).to_json_dict())
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec, report, solver = _preamble(args, need_q=False)
    curve = sweep(spec, args.points, **solver)
    if args.format == "csv":
        _emit(args, curve.to_csv())
    else:
        _emit_contest(args, spec, report, curve=curve.to_json_dict())
    return EXIT_OK


def _cmd_optimize(args) -> int:
    spec, report, solver = _preamble(args, need_q=False)
    _emit_contest(args, spec, report, optimal=optimal_q(spec, **solver).to_json_dict())
    return EXIT_OK


def _cmd_expected(args) -> int:
    spec, report, solver = _preamble(args, need_q=False)
    rule = _parse_rule(args.rule)
    _emit_contest(args, spec, report, rule=[{"q": atom.q, "weight": w} for atom, w in rule.atoms],
                  mean_q=rule.mean_q, unbiased=rule.is_unbiased,
                  expected_total_effort=expected_effort(spec, rule, **solver))
    return EXIT_OK


def _cmd_audit(args) -> int:
    spec = _spec_file(args)
    if spec is None:
        csf = make_family(args.family, r=args.r, k=args.k)
        v1 = max((v for v in (args.v1, args.v2) if v is not None), default=None)
        if args.emit_spec:
            _maybe_emit_spec(args, _spec_from_args(args, need_q=False))
    else:
        _maybe_emit_spec(args, spec)
        csf, v1 = spec.csf, spec.valuations.v1
    report = audit_family(csf, v1)
    _emit_json(args, report.to_json_dict())
    return EXIT_OK if report.passed else EXIT_INVALID


def _cmd_verify(args) -> int:
    spec, _, solver = _preamble(args, need_q=True)
    eq = solve(spec, **solver)
    grid = (GridSpec.for_contest(spec, steps=args.steps) if args.x_max is None
            else GridSpec(x_max=args.x_max, steps=args.steps))
    result = verify(spec, eq, grid)
    _emit_contest(args, spec, None, equilibrium=eq.to_json_dict(),
                  verification=result.to_json_dict())
    return EXIT_OK if result.passed else EXIT_VERIFY_FAILED


def run(argv) -> int:
    """Parse argv, execute one subcommand, and return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits through here (there is no --version)
        code = exc.code
        return int(code) if code is not None else 0
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID

    try:
        return args.handler(args)
    except ContestError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NO_CONVERGENCE if isinstance(exc, ConvergenceError) else EXIT_INVALID


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
