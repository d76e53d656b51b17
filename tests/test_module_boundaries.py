"""Modules of the package use each other only through public names.

An underscore name is private to the module that defines it: a sibling
that imports it (`from .x import _y`) or reads it off the module (`x._y`)
couples to internals that may change without notice.  Names read off other
objects, such as a family's kernels `csf._zp`, are not module reads.

Result records also share one serializer: only `core.JsonRecord` writes a
`to_json_dict`, apart from `EffortCurve`, whose JSON rows transpose its columns.
And the solver routes stay label-free: only the `solve` and `solve_lanes`
epilogues map results back to the caller's player labels.  Each family kind
has one route, run by both entry points on one tie rule or on lanes, and each
solver step the routes reach is one body, with no lane twin and no dispatch
on the type of its arguments; nor do the family kernels the routes call.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tiebreak"
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
        "from tiebreak.designer import _last_grid",
        "import tiebreak.families as fam",
        "equilibrium._TINY, equilibrium.MAX_ITERATIONS, c._as_float, fam.__name__",
        "spec.csf._zp, fam._ret",
    ])
    assert crossings(source) == [
        "from .equilibrium import _ROUTES",
        "from tiebreak.designer import _last_grid",
        "equilibrium._TINY",
        "c._as_float",
        "fam._ret",
    ]


SERIALIZERS = {"JsonRecord", "EffortCurve"}


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


# Label reads that only the `solve` and `solve_lanes` epilogues may make.
LABEL_READS = ("swapped", "_user_order")


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

    Routes solve stronger-player-first; reading `.swapped` or calling
    `_user_order` there would map labels outside the one epilogue per entry point.
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
SHARED_BODIES = ("_safeguarded_root", "_gap_root", "_concave_newton", "_concave_marginal",
                 "_lottery")
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
        "def _user_order(vals, a, b):",
        "    return (b, a) if vals.swapped else (a, b)",
        "def _helper(vals):",
        "    return vals.swapped",
        "def _route(csf, vals, q, xp):",
        "    return _helper(vals), _user_order(vals, 1.0, 2.0)",
        "def _residuals(csf, v1, v2, q, x1, x2, xp):",
        "    return None, 0.0, 0.0",
        "def solve(spec):",
        "    return spec.valuations.swapped",
        "_ROUTES = {'kind': (_route, _residuals)}",
    ])
    assert route_label_reads(source) == [
        "_helper: .swapped", "_route: _user_order", "_user_order: .swapped"]


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
    that the routes call on `csf`, the methods those call on `self`, and the
    module functions any of them name."""
    tree = ast.parse(families_source)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    methods: dict[str, list] = {}
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        for item in (item for item in cls.body if isinstance(item, ast.FunctionDef)):
            methods.setdefault(item.name, []).append((f"families.{cls.name}.{item.name}", item))
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
    # the guard follows the routes into every kind's kernels
    assert {"families.JiaRatio._zp", "families.VesperoniDiff._shares", "families._logistic_shares",
            "families.BlavatskyyPower._win_d1"} <= set(kernel_functions(route_functions(source),
                                                                         families_source))


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
        "class Family:",
        "    def _zp(self, th, q, xp):",
        "        return self._shares(th, xp)[0] * q",
        "    def _shares(self, th, xp):",
        "        return (_helper(th),)",
        "    def z_prime(self, theta, q):",
        "        return self._zp(_parse(theta), q, None)",
        "class Other:",
        "    def _zp(self, th, q, xp):",
        "        return th if isinstance(q, float) else q",
    ])
    assert route_type_dispatches(source, families_source) == [
        "families.Other._zp", "families._helper"]
