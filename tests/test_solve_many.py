"""Batch solves across tie rules: every lane matches the scalar solve."""
from __future__ import annotations

import math

import numpy as np
import pytest

import tiebreak.designer as designer_mod
import tiebreak.equilibrium as equilibrium_mod
from tiebreak import (
    BlavatskyyPower,
    ContestError,
    ConvergenceError,
    Equilibrium,
    JiaRatio,
    RandomTieRule,
    ValidationError,
    expected_effort,
    make_contest,
    optimal_q,
    solve,
    solve_beta,
    solve_many,
    sweep,
)
from tiebreak.batch import _concave_newtons, _gap_roots, solve_lanes
from tiebreak.equilibrium import _concave_newton

LANE_QS = np.concatenate([np.linspace(0.0, 1.0, 21), [0.0122, 0.377, 0.5 + 1e-9, 0.9871]])


def _draw_contests(seed: int = 20240613):
    """Seeded contests over all five families, both label orders, plus edge cases."""
    rng = np.random.default_rng(seed)
    contests = []
    for _ in range(4):
        for family in ("vesperoni-ratio", "jia-ratio", "vesperoni-diff", "jia-diff",
                       "blavatskyy-power"):
            k = float(rng.uniform(1.0, 10.0))
            if family == "vesperoni-ratio":
                params = dict(r=float(rng.uniform(0.05, 1.0)) / k, k=k)
            elif family == "jia-ratio":
                params = dict(r=float(rng.uniform(0.05, 1.0)), k=k)
            elif family == "blavatskyy-power":
                params = dict(r=float(rng.choice([rng.uniform(0.05, 0.93), 1.0,
                                                  rng.uniform(0.93, 0.99)])))
            else:
                params = dict(k=k)
            strong = float(10.0 ** rng.uniform(-1.0, 1.0))
            weak = strong / float(10.0 ** rng.uniform(0.0, 1.0))
            for v1, v2 in ((strong, weak), (weak, strong)):
                contests.append(make_contest(family, v1=v1, v2=v2, q=0.0, **params))
    edge = [
        ("blavatskyy-power", dict(r=1.0), 5.0, 0.8),            # axis corners
        ("blavatskyy-power", dict(r=1.0), 0.8, 5.0),
        ("blavatskyy-power", dict(r=1.0), 1e12, 1e-6),          # corner at huge prizes
        ("blavatskyy-power", dict(r=1.0), 0.5, 0.5),            # (0, 0) corner
        ("blavatskyy-power", dict(r=0.9386), 0.1024, 0.01184),  # underflow at q = 1
        ("blavatskyy-power", dict(r=0.97), 0.01184, 0.1024),
        ("blavatskyy-power", dict(r=0.9999), 4.0, 2.0),         # some lanes underflow
        ("blavatskyy-power", dict(r=0.9999), 2.0, 4.0),
        ("blavatskyy-power", dict(r=0.999), 0.5, 0.2),          # every lane underflows
        ("blavatskyy-power", dict(r=0.99999104), 0.834, 0.1036),  # Newton backtracks
        ("blavatskyy-power", dict(r=0.5), 2.0, 2.0),
        ("vesperoni-ratio", dict(r=0.001, k=1000.0), 3.0, 1.0),  # ratio underflow
        ("jia-diff", dict(k=2.0), 1e6, 1.0),                    # gap-scaled residual
        ("vesperoni-diff", dict(k=3.0), 1.5, 1.5),              # zero gap
        ("jia-ratio", dict(r=1.0, k=2.0), 1.0, 1.0),
    ]
    contests += [make_contest(f, v1=v1, v2=v2, q=0.0, **p) for f, p, v1, v2 in edge]
    return contests


CONTESTS = _draw_contests()


def _scalar(spec, q):
    try:
        return solve(spec.with_q(float(q)))
    except ContestError as exc:
        return exc


def _close(a: float, b: float, scale: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * scale


@pytest.mark.parametrize("spec", CONTESTS,
                         ids=lambda s: f"{s.csf.name}-{s.csf.params}-{s.v1:.4g}-{s.v2:.4g}")
def test_every_lane_matches_the_scalar_solve(spec):
    lanes = solve_lanes(spec, LANE_QS, force=False, audited=False)
    assert lanes.x1.size == lanes.x2.size == LANE_QS.size
    # Only the concave Newton loop (r < 1) differs between a lane and a scalar
    # solve; every other route evaluates the same expressions.
    iterative = spec.csf.kind == "concave" and spec.csf.r < 1.0
    effort_rel = 1e-12 if iterative else 4.0 * np.finfo(float).eps
    for i, q in enumerate(LANE_QS):
        # solve_many's conversion: a failing lane's error, or its Equilibrium
        lane = lanes.errors[i] if i in lanes.errors else lanes.equilibrium(i)
        ref = _scalar(spec, q)
        assert type(lane) is type(ref), (q, lane, ref)
        if isinstance(ref, ContestError):
            assert str(lane) == str(ref)
            continue
        for a, b in ((lane.x1, ref.x1), (lane.x2, ref.x2)):
            assert _close(a, b, max(abs(a), abs(b)), effort_rel), (q, lane, ref)
        prizes = (spec.v1, spec.v2) if spec.csf.kind == "diff" else (1.0, 1.0)
        for a, b, scale in zip(lane.residuals, ref.residuals, prizes):
            assert _close(a, b, scale), (q, lane.residuals, ref.residuals)
        if ref.beta is None:
            assert lane.beta is None
        else:
            assert _close(lane.beta, ref.beta, max(abs(ref.beta), 1.0))
        assert lane.method is ref.method
        assert lane.corner_flags == ref.corner_flags
        assert lane.warnings == ref.warnings


def test_lane_underflow_quotes_the_scalar_message():
    # hard-inputs seed 2004: the slope is subnormal, so its digits show any
    # difference in how a lane forms it
    spec = make_contest("vesperoni-ratio", v1=0.03658989052566806, v2=0.0001429976828254914,
                        q=0.8684404448098633, r=1.4343910967027183e-07, k=1032.6729889142523)
    with pytest.raises(ConvergenceError, match="underflow") as scalar:
        solve(spec)
    with pytest.raises(ConvergenceError) as lane:
        solve_many(spec, [spec.q])
    assert str(lane.value) == str(scalar.value)


def test_grid_reaches_corner_and_underflow_lanes():
    corners = underflows = 0
    for spec in CONTESTS:
        for q in (0.0, 0.5, 1.0):
            ref = _scalar(spec, q)
            if isinstance(ref, ConvergenceError) and "underflows" in str(ref):
                underflows += 1
            elif not isinstance(ref, ContestError) and any(ref.corner_flags):
                corners += 1
    assert corners >= 3
    assert underflows >= 3


def test_solve_many_returns_equilibria_in_order():
    spec = make_contest("jia-diff", v1=0.7, v2=4.0, q=0.0, k=2.5)
    qs = [0.9, 0.1, 0.5]
    many = solve_many(spec, qs, audited=True)
    assert isinstance(many, tuple)
    for q, eq in zip(qs, many):
        ref = solve(spec.with_q(q), audited=True)
        assert eq.x1 == pytest.approx(ref.x1, rel=1e-12)
        assert eq.x2 == pytest.approx(ref.x2, rel=1e-12)
        assert eq.warnings == ()
    assert solve_many(spec, []) == ()


def test_raises_the_error_of_the_smallest_failing_q():
    spec = make_contest("blavatskyy-power", v1=2.0, v2=4.0, q=0.0, r=0.9999)
    qs = [1.0, 0.3, 0.6, 0.2, 0.5]
    failing = [q for q in qs if isinstance(_scalar(spec, q), ContestError)]
    assert sorted(failing) == [0.5, 0.6, 1.0]
    ref = _scalar(spec, 0.5)
    assert str(ref) != str(_scalar(spec, 0.6))
    with pytest.raises(type(ref)) as info:
        solve_many(spec, qs)
    assert str(info.value) == str(ref)
    with pytest.raises(type(ref)) as info:
        sweep(spec.with_q(0.3), 11)
    assert str(info.value) == f"sweep failed at q = 0: {_scalar(spec, 0.0)}"


def test_whole_contest_errors_raise_at_once():
    bad = make_contest("vesperoni-ratio", v1=2.0, v2=1.0, q=0.0, r=0.6, k=2)
    with pytest.raises(ValidationError, match="closed-form precondition"):
        solve_many(bad, [0.0, 0.5])
    forced = solve_many(bad, [0.0, 0.5], force=True)
    assert forced[1].warnings == solve(bad.with_q(0.5), force=True).warnings
    wrong_cost = make_contest("jia-diff", v1=2.0, v2=1.0, q=0.0, k=2, cost="linear")
    with pytest.raises(ValidationError, match="quadratic_half"):
        solve_many(wrong_cost, [0.5])


def test_nan_slope_lane_fails_as_its_scalar_solve(monkeypatch):
    # The batch checks efforts on its arrays, as `Equilibrium` does for a solve.
    spec = make_contest("jia-ratio", v1=2.0, v2=1.0, q=0.0, r=0.5, k=2.0)
    z_prime = JiaRatio.z_prime

    def nan_at_half(self, theta, q):
        slope = z_prime(self, np.where(np.isnan(theta), 1.0, theta), q)
        out = np.where(np.equal(q, 0.5), math.nan, slope)
        return float(out) if out.ndim == 0 else out

    monkeypatch.setattr(JiaRatio, "z_prime", nan_at_half)
    with pytest.raises(ValidationError, match="efforts must be >= 0") as scalar:
        solve(spec.with_q(0.5))
    with pytest.raises(ValidationError) as lane:
        solve_many(spec, [0.0, 0.5, 1.0])
    assert str(lane.value) == str(scalar.value)
    assert set(solve_lanes(spec, [0.0, 0.5, 1.0], force=False, audited=False).errors) == {1}


@pytest.mark.parametrize("qs", [[0.5, math.nan], [math.inf], [-0.1], [0.2, 1.5],
                                [[0.1, 0.2]], 0.5, ["a"], [None]])
def test_rejects_tie_rules_outside_the_unit_interval(qs):
    spec = make_contest("jia-ratio", v1=2.0, v2=1.0, q=0.0, r=0.5, k=2)
    with pytest.raises(ValidationError):
        solve_many(spec, qs)


class TestDesignerStaysBatched:
    """The designer's curves come from one batch solve, never a per-q loop."""

    @pytest.fixture
    def scalar_calls(self, monkeypatch):
        """Tie rules of every scalar solve: each scalar route orients its labels."""
        calls = []
        oriented = equilibrium_mod._oriented

        def counting_oriented(v, q):
            calls.append(q)
            return oriented(v, q)

        monkeypatch.setattr(equilibrium_mod, "_oriented", counting_oriented)
        return calls

    @pytest.fixture
    def batches(self, monkeypatch):
        """Tie-rule arrays of every batch the designer solves."""
        calls = []

        def counting(spec, qs, **kwargs):
            calls.append(np.asarray(qs))
            return solve_lanes(spec, qs, **kwargs)

        monkeypatch.setattr(designer_mod, "solve_lanes", counting)
        return calls

    @pytest.mark.parametrize("family,params", [
        ("jia-ratio", dict(r=0.8, k=3.0)), ("vesperoni-ratio", dict(r=0.3, k=2.0)),
        ("jia-diff", dict(k=2.5)), ("vesperoni-diff", dict(k=2.0)),
    ])
    def test_ratio_and_diff_make_no_scalar_solves(self, scalar_calls, family, params):
        spec = make_contest(family, v1=1.3, v2=2.0, q=0.0, **params)
        sweep(spec, 101)
        best = optimal_q(spec)
        assert best.q_star.q == 1.0
        expected_effort(spec, RandomTieRule.from_pairs([(0.0, 0.5), (1.0, 0.5)]))
        assert scalar_calls == []

    @pytest.mark.parametrize("family,params", [
        ("jia-ratio", dict(r=0.8, k=3.0)), ("jia-diff", dict(k=2.5)),
        ("blavatskyy-power", dict(r=0.5)), ("blavatskyy-power", dict(r=1.0)),
    ])
    def test_designer_builds_no_per_q_equilibrium(self, monkeypatch, family, params):
        built = []
        post_init = Equilibrium.__post_init__

        def counting(eq):
            built.append(eq)
            post_init(eq)

        monkeypatch.setattr(Equilibrium, "__post_init__", counting)
        spec = make_contest(family, v1=1.3, v2=2.0, q=0.0, **params)
        sweep(spec, 101)
        optimal_q(spec)
        expected_effort(spec, RandomTieRule.from_pairs(
            [(0.1, 0.25), (0.4, 0.25), (0.7, 0.25), (1.0, 0.25)]))
        assert built == []
        solve(spec)
        assert len(built) == 1

    @pytest.mark.parametrize("r", [0.5, 1.0])
    @pytest.mark.parametrize("v1,v2,q_star", [(3.0, 1.2, 0.0), (1.2, 3.0, 1.0)])
    def test_concave_endpoint_optimum_takes_one_batch_and_no_scalar_solve(
            self, scalar_calls, batches, r, v1, v2, q_star):
        spec = make_contest("blavatskyy-power", v1=v1, v2=v2, q=0.0, r=r)
        sweep(spec, 101)
        expected_effort(spec, RandomTieRule.from_pairs([(0.2, 0.5), (0.9, 0.5)]))
        batches.clear()
        best = optimal_q(spec)
        assert best.q_star.q == q_star
        assert scalar_calls == []
        assert len(batches) == 1
        assert batches[0].size == designer_mod.CROSS_CHECK_POINTS


# Contests whose scalar Newton solve backtracks (strongest prize first).
BACKTRACKING = [
    (0.9833324759936135, 232745.81141297886, 0.05535680240311368, 0.9196765925393214),
    (0.9896114831056816, 19.062685162682342, 0.2817825593403378, 1.0 - 0.6075267521384374),
    (0.99999104, 0.834, 0.1036, 0.0122),
]


@pytest.mark.parametrize("budget", [1, 2, 3, 5, 8])
def test_truncated_newton_lanes_take_the_scalar_steps(budget, monkeypatch):
    monkeypatch.setattr(equilibrium_mod, "MAX_ITERATIONS", budget)
    for r, v1, v2, q in BACKTRACKING:
        csf = BlavatskyyPower(r)
        qs = np.array([q, 0.0, 0.5, 1.0])
        g1, g2 = _concave_newtons(csf, v1, v2, qs)
        for lane, q_lane in enumerate(qs):
            try:
                x1, x2 = _concave_newton(csf, v1, v2, float(q_lane))
            except ConvergenceError as exc:
                assert f"(log-impacts {g1[lane]:.6g}, {g2[lane]:.6g} " in str(exc)
                continue
            assert math.exp(g1[lane] / r) == pytest.approx(x1, rel=1e-12, abs=0.0)
            assert math.exp(g2[lane] / r) == pytest.approx(x2, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("budget", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("family,params,prizes", [
    ("jia-diff", dict(k=2.5), (4.0, 0.7)),
    ("vesperoni-diff", dict(k=4.0), (30.0, 1.0)),
    ("jia-diff", dict(k=1.0), (1e6, 1.0)),
])
def test_truncated_gap_roots_take_the_scalar_steps(budget, family, params, prizes, monkeypatch):
    monkeypatch.setattr(equilibrium_mod, "MAX_ITERATIONS", budget)
    csf = make_contest(family, v1=prizes[0], v2=prizes[1], q=0.0, **params).csf
    qs = np.linspace(0.0, 1.0, 6)
    roots, errors = _gap_roots(csf, prizes[0] - prizes[1], qs)
    for lane, q in enumerate(qs):
        try:
            ref = solve_beta(csf, prizes, float(q))
        except ConvergenceError as exc:
            assert str(errors[lane]) == str(exc)
            continue
        assert lane not in errors
        assert roots[lane] == pytest.approx(ref, rel=1e-12, abs=0.0)
