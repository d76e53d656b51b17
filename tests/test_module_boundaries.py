"""Modules of the package use each other only through public names.

An underscore name is private to the module that defines it: a sibling
that imports it (`from .x import _y`) or reads it off the module (`x._y`)
couples to internals that may change without notice.  Names read off other
objects, such as a family's kernels `csf._zp`, are not module reads.

Result records also share one serializer: only `core.JsonRecord` writes a
`to_json_dict`, apart from `EffortCurve`, whose JSON rows transpose its columns.
And the solver routes stay label-free: only the `solve` and `solve_lanes`
epilogues map results back to the caller's player labels.  Each solver step
the routes reach is one body for one tie rule and for lanes, with no lane twin.
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


def route_functions(source: str) -> dict[str, ast.FunctionDef]:
    """Each module function of `source` that `_ROUTES` names, directly or
    through the module functions those name, by name."""
    tree = ast.parse(source)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "_ROUTES" for t in node.targets))
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


# One body per solver step, run by the scalar routes on floats and by the lane
# routes on lanes; a lane twin beside a body would be a second copy of its rules.
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
        "def _route(csf, vals, q):",
        "    return _helper(vals)",
        "def _lanes(csf, vals, q):",
        "    return _user_order(vals, 1.0, 2.0)",
        "def _residuals(csf, v1, v2, q, x1, x2):",
        "    return None, 0.0, 0.0",
        "def solve(spec):",
        "    return spec.valuations.swapped",
        "_ROUTES = {'kind': (_route, _lanes, _residuals)}",
    ])
    assert route_label_reads(source) == [
        "_helper: .swapped", "_lanes: _user_order", "_user_order: .swapped"]
