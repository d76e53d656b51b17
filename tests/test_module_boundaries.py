"""Modules of the package use each other only through public names.

An underscore name is private to the module that defines it: a sibling
that imports it (`from .x import _y`) or reads it off the module (`x._y`)
couples to internals that may change without notice.  Names read off other
objects, such as a family's kernels `csf._zp`, are not module reads.

Result records also share one serializer: only `core.JsonRecord` writes a
`to_json_dict`.  And the solver routes stay label-free: only the `solve` and
`solve_lanes` epilogues map results back to the caller's player labels.  Each
family kind has one route, run by both entry points on one tie rule or on
lanes, and each solver step the routes reach is one body, with no lane twin
and no dispatch on the type of its arguments; nor do the family kernels the
routes call, and a reduced family's kernels take checked input and the
primitives, no precomputed shares.
Each kind of input value has one check: a scalar in `core` (a finite real,
a positive magnitude, a sample count) and an array in `families.checked_array`;
no other function tests finiteness or integer types by hand.  And each game
fact is stated once, in `core`: only `core` reads the label swap
(`Valuations.swapped`) or calls a cost technology's `cost`, and the grid
oracle depends on `core` (and `errors`) alone.  The CLI forms the solver
keywords once: only its contest preamble reads `args.force`.  And every public
accessor of a family class has a reader outside the tests, or is one of the
paper's named quantities.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tiebreak"
MODULES = sorted(PACKAGE.glob("*.py"))
SIBLINGS = {path.stem for path in MODULES}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _sibling(module: str | None, level: int) -> str | None:
    """The sibling named by an import's module and level, if it names one."""
    if level == 1:
        return module
    if module and module.startswith("tiebreak."):
        return module.split(".", 1)[1]
    return None


def crossings(source: str) -> list[str]:
    """Each private name of a sibling module that `source` imports or reads."""
    tree = ast.parse(source)
    found, aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            sibling = _sibling(node.module, node.level)
            if sibling is not None:
                found += [f"from {'.' * node.level}{node.module} import {a.name}"
                          for a in node.names if _private(a.name)]
            elif (node.level, node.module) in ((1, None), (0, "tiebreak")):
                aliases |= {a.asname or a.name for a in node.names if a.name in SIBLINGS}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names
                        if a.asname and _sibling(a.name, 0) in SIBLINGS}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_only_public_names_of_its_siblings(path):
    assert crossings(path.read_text(encoding="utf-8")) == []


def test_guard_sees_private_imports_and_reads():
    source = "\n".join([
        "from . import equilibrium, core as c",
        "from .equilibrium import _ROUTES, solve",
        "from tiebreak.designer import _grid_lanes",
        "import tiebreak.families as fam",
        "equilibrium._TINY, equilibrium.MAX_ITERATIONS, c._json_value, fam.__name__",
        "spec.csf._zp, fam._ret",
    ])
    assert crossings(source) == [
        "from .equilibrium import _ROUTES",
        "from tiebreak.designer import _grid_lanes",
        "equilibrium._TINY",
        "c._json_value",
        "fam._ret",
    ]


def owners(module: str, source: str, matches) -> list[str]:
    """Each function of `source`, as `module.Class.function` (`module` for
    module-level code), that holds a node for which `matches(node)` holds."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            if matches(child):
                found.add(owner)
            visit(child, owner)

    visit(ast.parse(source), module)
    return sorted(found)


# Tests of a value's kind that only the one check of each kind may make.
VALUE_TESTS = {"isfinite", "isnan", "isinf"}
ARRAY_CHECK = "families.checked_array"


def _value_test(node) -> bool:
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        base, attr = node.value.id, node.attr
        return (base in ("math", "np", "numpy") and attr in VALUE_TESTS
                or base in ("np", "numpy") and attr == "integer")
    return isinstance(node, ast.Name) and node.id in VALUE_TESTS


def hand_checks(module: str, source: str) -> list[str]:
    """Each function of `source` (see `owners`) that calls `isfinite`, `isnan`
    or `isinf` of `math` or NumPy, or names `np.integer`."""
    return owners(module, source, _value_test)


def test_each_kind_of_input_value_has_one_check():
    found = [name for path in MODULES if path.stem != "core"
             for name in hand_checks(path.stem, path.read_text(encoding="utf-8"))]
    assert found == [ARRAY_CHECK]


def test_guard_sees_hand_written_value_checks():
    source = "\n".join([
        "import math",
        "from math import isnan",
        "import numpy as np",
        "LIMIT = np.isinf(1.0)",
        "def checked(x):",
        "    return math.isfinite(x) and not isnan(x)",
        "class Grid:",
        "    def __post_init__(self):",
        "        return isinstance(self.steps, (int, np.integer))",
        "    def axis(self):",
        "        return np.linspace(0.0, math.inf, self.steps)",
        "def count(n):",
        "    return np.isfinite(np.asarray(n)).all()",
    ])
    assert hand_checks("grid", source) == [
        "grid", "grid.Grid.__post_init__", "grid.checked", "grid.count"]


SERIALIZERS = {"JsonRecord"}


def serializers(source: str) -> list[str]:
    """Each class in `source` that defines its own `to_json_dict`."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)
            and any(isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name == "to_json_dict" for item in node.body)]


def test_only_json_record_writes_json():
    found = [name for path in MODULES for name in serializers(path.read_text(encoding="utf-8"))]
    assert sorted(found) == sorted(SERIALIZERS)


def test_guard_sees_hand_written_serializers():
    source = "\n".join([
        "class Report(JsonRecord):",
        "    json_keys = ('passed',)",
        "class Sample:",
        "    def to_json_dict(self):",
        "        return {}",
        "def to_json_dict(record):",
        "    return {}",
    ])
    assert serializers(source) == ["Sample"]


# Game facts that `core` alone states: the label swap, which only its
# `Valuations` label maps apply, and the payoff, whose cost only `payoffs` takes.
def swap_reads(module: str, source: str) -> list[str]:
    """Each function of `source` (see `owners`) that reads `.swapped`."""
    return owners(module, source,
                  lambda node: isinstance(node, ast.Attribute) and node.attr == "swapped")


def cost_calls(module: str, source: str) -> list[str]:
    """Each function of `source` (see `owners`) that calls a `cost` method."""
    return owners(module, source, lambda node: isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute) and node.func.attr == "cost")


@pytest.mark.parametrize("guard", (swap_reads, cost_calls), ids=lambda guard: guard.__name__)
def test_only_core_reads_the_label_swap_or_calls_a_cost(guard):
    found = [name for path in MODULES if path.stem != "core"
             for name in guard(path.stem, path.read_text(encoding="utf-8"))]
    assert found == []


def test_guard_sees_label_swap_reads_and_cost_calls():
    source = "\n".join([
        "def _order(vals, a, b):",
        "    return (b, a) if vals.swapped else (a, b)",
        "class Solver:",
        "    def run(self, spec, x):",
        "        return spec.valuations.in_order(x, spec.cost.cost(x))",
        "    def payoff(self, spec, x):",
        "        return spec.v1 - spec.cost.cost(x) + spec.cost.break_even(1.0)",
        "FLIPPED = VALS.swapped",
    ])
    assert swap_reads("mod", source) == ["mod", "mod._order"]
    assert cost_calls("mod", source) == ["mod.Solver.payoff", "mod.Solver.run"]


def sibling_imports(source: str) -> set[str]:
    """Each sibling module that `source` imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            sibling = _sibling(node.module, node.level)
            if sibling is not None:
                found.add(sibling)
            elif (node.level, node.module) in ((1, None), (0, "tiebreak")):
                found |= {a.name for a in node.names if a.name in SIBLINGS}
        elif isinstance(node, ast.Import):
            found |= {_sibling(a.name, 0) for a in node.names} & SIBLINGS
    return found


# The grid oracle calls only outcomes and payoffs, so it reads no solver,
# designer, audit or family code of the package.
ORACLE_SIBLINGS = {"core", "errors"}


def test_oracle_depends_on_core_alone():
    source = (PACKAGE / "oracle.py").read_text(encoding="utf-8")
    assert sorted(sibling_imports(source) - ORACLE_SIBLINGS) == []


def test_guard_sees_sibling_imports():
    source = "\n".join([
        "import numpy as np",
        "import tiebreak.designer as des",
        "from . import audit, helper",
        "from .core import payoffs",
        "from tiebreak import cli",
        "from tiebreak.errors import DomainError",
        "def late():",
        "    from .families import make_family",
    ])
    assert sibling_imports(source) == {"audit", "cli", "core", "designer", "errors", "families"}


# Sample grids that the package builds: the designer's equally spaced tie rules
# and the oracle's effort axis.  Every precondition and audit is a fact of the
# family's parameters, so nothing else samples a kernel on a grid.
GRID_BUILDERS = {"linspace", "geomspace", "logspace", "arange"}
GRID_OWNERS = ["designer._q_values", "oracle.GridSpec.axis"]


def _grid_build(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Attribute) and func.attr in GRID_BUILDERS
            or isinstance(func, ast.Name) and func.id in GRID_BUILDERS)


def grid_builds(module: str, source: str) -> list[str]:
    """Each function of `source` (see `owners`) that calls `np.linspace`,
    `geomspace`, `logspace` or `arange`, read off a module or imported bare."""
    return owners(module, source, _grid_build)


def test_only_the_tie_rules_and_the_effort_axis_build_sample_grids():
    found = [name for path in MODULES
             for name in grid_builds(path.stem, path.read_text(encoding="utf-8"))]
    assert sorted(found) == GRID_OWNERS


def test_guard_sees_grid_builds():
    source = "\n".join([
        "import numpy as np",
        "from numpy import geomspace",
        "AXIS = np.arange(3)",
        "def scan(csf, v1):",
        "    return csf.p0(np.linspace(0.0, v1, 2001))",
        "class Audit:",
        "    def tail(self):",
        "        return geomspace(1.0, 1e9, 9), np.logspace(0, 3, 4)",
        "def spaced(n):",
        "    return np.asarray(range(n)), np.linspace",
    ])
    assert grid_builds("mod", source) == ["mod", "mod.Audit.tail", "mod.scan"]


# Label reads that only the `solve` and `solve_lanes` epilogues may make.
LABEL_READS = ("swapped", "tie_share", "in_order")


def routes_table(tree: ast.Module) -> ast.expr:
    """The value assigned to `_ROUTES` in a parsed module."""
    return next(node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_ROUTES" for t in node.targets))


def route_functions(source: str) -> dict[str, ast.FunctionDef]:
    """Each module function of `source` that `_ROUTES` names, directly or
    through the module functions those name, by name."""
    tree = ast.parse(source)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    table = routes_table(tree)
    todo = [node.id for node in ast.walk(table) if isinstance(node, ast.Name)]
    reached = {}
    while todo:
        name = todo.pop()
        if name in reached or name not in functions:
            continue
        reached[name] = functions[name]
        todo += [node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)]
    return reached


def route_label_reads(source: str) -> list[str]:
    """Each label read in a function of `_ROUTES` or a module function it names.

    Routes solve stronger-player-first; reading `.swapped` or calling a label
    map of `Valuations` there would map labels outside the one prologue and
    epilogue per entry point.
    """
    found = []
    for name, function in route_functions(source).items():
        for node in ast.walk(function):
            if isinstance(node, ast.Attribute) and node.attr in LABEL_READS:
                found.append(f"{name}: .{node.attr}")
            elif isinstance(node, ast.Name) and node.id in LABEL_READS:
                found.append(f"{name}: {node.id}")
    return sorted(found)


def test_routes_stay_label_free():
    source = (PACKAGE / "equilibrium.py").read_text(encoding="utf-8")
    assert route_label_reads(source) == []


# One body per solver step, run by each route on floats and on lanes; a lane
# twin beside a body would be a second copy of its rules.
SHARED_BODIES = ("_safeguarded_root", "_gap_root", "_concave_newton", "_lottery")
LANE_TWINS = ("_safeguarded_roots", "_gap_roots", "_concave_newtons", "_concave_marginals",
              "_lottery_corners")


def test_each_solver_step_is_one_body_that_the_route_guard_covers():
    source = (PACKAGE / "equilibrium.py").read_text(encoding="utf-8")
    defined = {node.name for node in ast.walk(ast.parse(source))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined.isdisjoint(LANE_TWINS)
    assert set(SHARED_BODIES) <= set(route_functions(source))


def test_guard_sees_label_reads_in_routes_and_their_helpers():
    source = "\n".join([
        "def _share(vals, q):",
        "    return vals.tie_share(q)",
        "def _helper(vals):",
        "    return vals.swapped",
        "def _route(csf, vals, q, xp):",
        "    return _helper(vals), _share(vals, q), vals.in_order(1.0, 2.0)",
        "def _residuals(csf, v1, v2, q, x1, x2, xp):",
        "    return None, 0.0, 0.0",
        "def solve(spec):",
        "    return spec.valuations.in_order(1.0, 2.0), spec.valuations.tie_share(0.5)",
        "_ROUTES = {'kind': (_route, _residuals)}",
    ])
    assert route_label_reads(source) == [
        "_helper: .swapped", "_route: .in_order", "_share: .tie_share"]


# The kernels of a reduced family take checked input and the primitives, nothing
# more: each evaluates its own shares, so no caller hands it a precomputed one
# (`_shares` may leave the complements out, as `_triple` needs none).  Each
# reduced form reads its share core once, at its point of theta, and the ratio
# families own no kernel: each is its difference family read at phi = r log theta.
KERNEL_PARAMETERS = {"_shares": "self, th, xp, complements", "_triple": "self, th, xp",
                     "_zp": "self, th, qv, xp", "_zslopes": "self, th, qv, xp"}
KERNEL_OWNERS = {"_ReducedCsf": ("_triple",), "RatioCsf": ("_shares", "_zp", "_zslopes"),
                 "DiffCsf": ("_shares",), "VesperoniDiff": ("_zp", "_zslopes"),
                 "JiaDiff": ("_zp", "_zslopes")}


def kernel_parameters(source: str) -> dict[str, str]:
    """Each method of a class in `source` that `KERNEL_PARAMETERS` names, as
    `Class.kernel` -> its parameter names (`*` and `**` marking variadic ones)."""
    found = {}
    for cls in (node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)):
        for item in cls.body:
            if isinstance(item, ast.FunctionDef) and item.name in KERNEL_PARAMETERS:
                args = item.args
                names = [a.arg for a in (*args.posonlyargs, *args.args)]
                names += [f"*{args.vararg.arg}"] if args.vararg else []
                names += [a.arg for a in args.kwonlyargs]
                names += [f"**{args.kwarg.arg}"] if args.kwarg else []
                found[f"{cls.name}.{item.name}"] = ", ".join(names)
    return found


def test_reduced_family_kernels_take_checked_input_and_the_primitives():
    source = (PACKAGE / "families.py").read_text(encoding="utf-8")
    assert kernel_parameters(source) == {f"{cls}.{name}": KERNEL_PARAMETERS[name]
                                         for cls, names in KERNEL_OWNERS.items() for name in names}


def test_guard_sees_kernel_parameters():
    source = "\n".join([
        "class Family:",
        "    def _zp(self, th, qv, xp: Ops, shares=None):",
        "        return (shares or self._shares(th, xp))[0] * qv",
        "    def _shares(self, th, xp):",
        "        return (th,)",
        "    def _triple(self, th, *args, xp, **kw):",
        "        return th, th, th",
        "    def z_prime(self, theta, q, shares=None):",
        "        return self._zp(theta, q, None, shares)",
        "def _zslopes(th, qv, xp, shares=None):",
        "    return th, th",
    ])
    assert kernel_parameters(source) == {
        "Family._zp": "self, th, qv, xp, shares",
        "Family._shares": "self, th, xp",
        "Family._triple": "self, th, *args, xp, **kw",
    }


# One route per family kind, run by `solve` on floats and by `solve_lanes` on
# lanes through the primitives it is passed; a scalar route beside a lane route
# would be a second copy of its rules and gates.
ROUTE_TWINS = ("_solve_ratio", "_ratio_lanes", "_solve_diff", "_diff_lanes", "_checked_gap",
               "_solve_concave", "_concave_lanes")


def _attributes(function: ast.FunctionDef, owner: str) -> list[str]:
    """Each attribute that `function` reads off the name `owner`."""
    return [node.attr for node in ast.walk(function) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == owner]


def kernel_functions(routes: dict[str, ast.FunctionDef],
                     families_source: str) -> dict[str, ast.FunctionDef]:
    """Each function of `families_source` that the `routes` reach, keyed
    `families.Class.method` or `families.function`: the methods of any class
    that the routes call on `csf`, the methods those call on `self`, the
    module functions that a class attribute they read on `self` names (as
    `_core = staticmethod(_shares)` does), and the module functions any of
    them name."""
    tree = ast.parse(families_source)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    methods: dict[str, list] = {}
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        for item in (item for item in cls.body if isinstance(item, ast.FunctionDef)):
            methods.setdefault(item.name, []).append((f"families.{cls.name}.{item.name}", item))
        for item in (item for item in cls.body if isinstance(item, ast.Assign)):
            for target in item.targets:
                pairs = (zip(target.elts, item.value.elts) if isinstance(target, ast.Tuple)
                         else [(target, item.value)])
                for name, value in pairs:
                    methods.setdefault(name.id, []).extend(
                        (f"families.{node.id}", functions[node.id]) for node in ast.walk(value)
                        if isinstance(node, ast.Name) and node.id in functions)
    todo = [(key, function) for route in routes.values()
            for name in _attributes(route, "csf") for key, function in methods.get(name, [])]
    reached = {}
    while todo:
        key, function = todo.pop()
        if key in reached:
            continue
        reached[key] = function
        todo += [pair for name in _attributes(function, "self") for pair in methods.get(name, [])]
        todo += [(f"families.{node.id}", functions[node.id]) for node in ast.walk(function)
                 if isinstance(node, ast.Name) and node.id in functions]
    return reached


def route_type_dispatches(source: str, families_source: str) -> list[str]:
    """Each function that `_ROUTES` reaches in `source`, or through the family
    kernels it calls in `families_source`, and that calls `isinstance`."""
    routes = route_functions(source)
    reached = {**routes, **kernel_functions(routes, families_source)}
    return sorted(name for name, function in reached.items()
                  if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                         and node.func.id == "isinstance" for node in ast.walk(function)))


def test_each_family_kind_has_one_route_that_takes_its_primitives():
    source = (PACKAGE / "equilibrium.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    for pair in routes_table(tree).values:
        assert isinstance(pair, ast.Tuple) and len(pair.elts) == 2, ast.unparse(pair)
        assert pair.elts[1].id.endswith("_residuals"), ast.unparse(pair)
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined.isdisjoint(ROUTE_TWINS)
    families_source = (PACKAGE / "families.py").read_text(encoding="utf-8")
    assert route_type_dispatches(source, families_source) == []
    # the guard follows the routes into every kind's kernels and share cores
    assert {"families.RatioCsf._zp", "families.DiffCsf._shares", "families._jia_shares",
            "families._vesperoni_shares", "families.BlavatskyyPower._win_d1"} <= set(
                kernel_functions(route_functions(source), families_source))


def test_guard_sees_type_dispatch_in_routes_and_their_helpers():
    source = "\n".join([
        "def _helper(x):",
        "    return x if isinstance(x, float) else x.sum()",
        "def _route(csf, vals, q, xp):",
        "    return _helper(q)",
        "def _residuals(csf, v1, v2, q, x1, x2, xp):",
        "    return None, 0.0, 0.0",
        "def solve(spec):",
        "    return isinstance(spec, float)",
        "_ROUTES = {'kind': (_route, _residuals)}",
    ])
    assert route_type_dispatches(source, "") == ["_helper"]


def test_guard_follows_the_routes_into_the_family_kernels():
    source = "\n".join([
        "def _route(csf, vals, q, xp):",
        "    return csf._zp(vals.beta, q, xp), csf.r",
        "def _residuals(csf, v1, v2, q, x1, x2, xp):",
        "    return None, 0.0, 0.0",
        "_ROUTES = {'kind': (_route, _residuals)}",
    ])
    families_source = "\n".join([
        "def _helper(th):",
        "    return th if isinstance(th, float) else th.sum()",
        "def _parse(theta):",
        "    return [theta] if isinstance(theta, float) else theta",
        "def _core(th):",
        "    return th if isinstance(th, int) else th.sum()",
        "class Family:",
        "    _read, _unread = staticmethod(_core), staticmethod(_parse)",
        "    def _zp(self, th, q, xp):",
        "        return self._shares(th, xp)[0] * q",
        "    def _shares(self, th, xp):",
        "        return (_helper(th), self._read(th))",
        "    def z_prime(self, theta, q):",
        "        return self._zp(_parse(theta), q, None)",
        "class Other:",
        "    def _zp(self, th, q, xp):",
        "        return th if isinstance(q, float) else q",
    ])
    assert route_type_dispatches(source, families_source) == [
        "families.Other._zp", "families._core", "families._helper"]


# The one function of `cli.py` that forms the keywords every solver call takes.
SOLVER_KEYWORDS = "cli._preamble"


def force_reads(module: str, source: str) -> list[str]:
    """Each function of `source` (see `owners`) that reads `args.force`."""
    return owners(module, source, lambda node: isinstance(node, ast.Attribute)
                  and node.attr == "force" and isinstance(node.value, ast.Name)
                  and node.value.id == "args")


def test_cli_forms_the_solver_keywords_once():
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert force_reads("cli", source) == [SOLVER_KEYWORDS]


def test_guard_sees_force_reads():
    source = "\n".join([
        "FORCE = args.force",
        "def _cmd_solve(args):",
        "    return solve(spec, force=args.force)",
        "def _cmd_audit(args):",
        "    return args.forced, getattr(args, 'force'), spec.force",
        "class Frame:",
        "    def keywords(self, args):",
        "        return {'force': args.force}",
    ])
    assert force_reads("cli", source) == ["cli", "cli.Frame.keywords", "cli._cmd_solve"]


# The paper's named quantities, p, p0, z_q and its slopes, which the API keeps
# whether or not the system reads them; every other public method or property of
# a family class must be read outside the tests, as an attribute or by its name
# in a string (as perfbench's tracer names `z_prime`), or it is code kept for
# its tests alone.
SYSTEM = ("src", "perfbench", "tools", "demos")
NAMED_QUANTITIES = {"p", "p0", "z", "z_slopes", "win_prob"}


def accessors(source: str) -> set[str]:
    """Each public method or property that a class of `source` defines."""
    return {item.name for cls in ast.walk(ast.parse(source)) if isinstance(cls, ast.ClassDef)
            for item in cls.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}


def names_read(source: str) -> set[str]:
    """Each attribute that `source` reads and each string it holds."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_every_family_accessor_has_a_reader_or_is_a_named_quantity():
    defined = accessors((PACKAGE / "families.py").read_text(encoding="utf-8"))
    assert NAMED_QUANTITIES <= defined
    read = set().union(*(names_read(path.read_text(encoding="utf-8"))
                         for folder in SYSTEM for path in (ROOT / folder).rglob("*.py")
                         if "tests" not in path.relative_to(ROOT).parts))
    assert sorted(defined - read - NAMED_QUANTITIES) == []


def test_guard_sees_unread_accessors():
    family = "\n".join([
        "class Family:",
        "    def read(self, x):",
        "        return self._kernel(x)",
        "    def named(self):",
        "        return 0.0",
        "    def stored(self):",
        "        return 0.0",
        "    @property",
        "    def unread(self):",
        "        return 0.0",
        "    def _kernel(self, x):",
        "        return x",
        "def helper():",
        "    return 0.0",
    ])
    reader = "\n".join([
        "csf.read(1.0), helper()",
        "monkeypatch.setattr(type(csf), 'named', None)",
        "csf.stored = None",
    ])
    assert accessors(family) == {"read", "named", "stored", "unread"}
    assert sorted(accessors(family) - names_read(reader)) == ["stored", "unread"]
