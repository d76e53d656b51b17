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
from tiebreak.equilibrium import _concave_newton, _gap_root, solve_lanes
from tiebreak.families import FLOATS, LANES

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
        # Python's pow and NumPy's array power can round u**k apart here, which
        # shows in the q = 0 residuals unless the float kernels take NumPy's
        ("vesperoni-ratio", dict(r=0.10972543855593699, k=8.57704671360143),
         4.193346828096193, 0.23999701580654786),
        ("jia-diff", dict(k=2.0), 1e6, 1.0),                    # gap-scaled residual
        ("vesperoni-diff", dict(k=3.0), 1.5, 1.5),              # zero gap
        ("jia-ratio", dict(r=1.0, k=2.0), 1.0, 1.0),
        ("jia-ratio", dict(r=1.0, k=2.0), 1e200, 1.0),           # slope underflows where
        ("jia-ratio", dict(r=1.0, k=2.0), 1.0, 1e200),           # v1 * beta overflows
        ("jia-ratio", dict(r=1.0, k=2.0), 1e160, 1.0),
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
    lanes = solve_lanes(spec, LANE_QS, force=False)
    assert lanes.x1.size == lanes.x2.size == LANE_QS.size
    # Only the concave Newton loop (r < 1) differs between a lane and a scalar
    # solve; every other route evaluates the same expressions, bit for bit.
    iterative = spec.csf.kind == "concave" and spec.csf.r < 1.0
    for i, q in enumerate(LANE_QS):
        # solve_many's conversion: a failing lane's error, or its Equilibrium
        lane = lanes.errors[i] if i in lanes.errors else lanes.equilibrium(i)
        ref = _scalar(spec, q)
        assert type(lane) is type(ref), (q, lane, ref)
        if isinstance(ref, ContestError):
            assert str(lane) == str(ref)
            continue
        if not iterative:
            assert (lane.x1, lane.x2, lane.residuals, lane.beta) == (
                ref.x1, ref.x2, ref.residuals, ref.beta), (q, lane, ref)
        else:
            for a, b in ((lane.x1, ref.x1), (lane.x2, ref.x2)):
                assert _close(a, b, max(abs(a), abs(b))), (q, lane, ref)
            for a, b in zip(lane.residuals, ref.residuals):
                assert _close(a, b, 1.0), (q, lane.residuals, ref.residuals)
            assert lane.beta is ref.beta is None
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
    many = solve_many(spec, qs)
    assert isinstance(many, tuple)
    for q, eq in zip(qs, many):
        ref = solve(spec.with_q(q))
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


def test_nan_slope_lane_fails_as_its_scalar_solve(monkeypatch):
    # A NaN slope fails the closed form's range gate, on a lane as on a solve.
    # The solvers evaluate the family's kernel `_zp`, not the checked `z_prime`.
    spec = make_contest("jia-ratio", v1=2.0, v2=1.0, q=0.0, r=0.5, k=2.0)
    zp = JiaRatio._zp

    def nan_at_half(self, th, qv, xp):
        return np.where(np.equal(qv, 0.5), math.nan, zp(self, th, qv, xp))

    monkeypatch.setattr(JiaRatio, "_zp", nan_at_half)
    with pytest.raises(ConvergenceError,
                       match=r"^closed-form efforts underflow double precision \(slope nan\)$"
                       ) as scalar:
        solve(spec.with_q(0.5))
    with pytest.raises(ConvergenceError) as lane:
        solve_many(spec, [0.0, 0.5, 1.0])
    assert str(lane.value) == str(scalar.value)
    assert set(solve_lanes(spec, [0.0, 0.5, 1.0], force=False).errors) == {1}


def test_vesperoni_ratio_past_an_overflowing_r_k_fails_the_range_gate():
    """Forced past r k = inf, vesperoni-ratio's slope is (k r / theta) times an
    underflowed u^k, inf * 0 = NaN: the range gate fails it, on `solve` and on
    every lane, where the efforts used to reach `Equilibrium`'s check as NaN."""
    spec = make_contest("vesperoni-ratio", v1=2.2250738585072014e-308, v2=3.259868685551024e-266,
                        q=0.4114613292760084, r=1.0658877141287083e179, k=9.63946636496963e143)
    text = "closed-form efforts underflow double precision (slope nan)"
    with pytest.raises(ConvergenceError) as scalar:
        solve(spec, force=True)
    assert str(scalar.value) == text
    lanes = solve_lanes(spec, [0.0, spec.q, 1.0], force=True)
    assert {i: str(error) for i, error in lanes.errors.items()} == {0: text, 1: text, 2: text}
    assert all(isinstance(error, ConvergenceError) for error in lanes.errors.values())


@pytest.mark.parametrize("qs", [[0.5, math.nan], [math.inf], [-0.1], [0.2, 1.5],
                                [[0.1, 0.2]], 0.5, ["a"], [None]])
def test_rejects_tie_rules_outside_the_unit_interval(qs):
    spec = make_contest("jia-ratio", v1=2.0, v2=1.0, q=0.0, r=0.5, k=2)
    with pytest.raises(ValidationError):
        solve_many(spec, qs)


FIVE_FAMILIES = [
    ("jia-ratio", dict(r=0.8, k=3.0)), ("vesperoni-ratio", dict(r=0.3, k=2.0)),
    ("jia-diff", dict(k=2.5)), ("vesperoni-diff", dict(k=2.0)),
    ("blavatskyy-power", dict(r=0.5)), ("blavatskyy-power", dict(r=1.0)),
]
RULES = [
    [(0.3, 1.0)],
    [(0.25, 0.5), (0.75, 0.5)],
    [(0.9, 0.2), (0.1, 0.3), (0.5, 0.5)],
    [(1.0, 0.1), (0.0, 0.2), (0.6, 0.3), (0.35, 0.4)],
    [(0.8, 0.2), (0.0, 0.2), (0.45, 0.2), (1.0, 0.2), (0.2, 0.2)],
]


# One ratio, one difference and both concave branches.
KINDS = [FIVE_FAMILIES[0], FIVE_FAMILIES[2], FIVE_FAMILIES[4], FIVE_FAMILIES[5]]


class TestDesignerStaysBatched:
    """The designer's curves come from one batch solve, never a per-q loop.

    A random rule is the one exception: it takes one scalar route step per atom,
    and no `Equilibrium`.
    """

    @pytest.fixture
    def scalar_calls(self, monkeypatch):
        """Internal tie shares of every scalar solve, counted at its route's float runs."""
        calls = []
        for kind, (route, residuals) in equilibrium_mod._ROUTES.items():
            def counting(csf, vals, q_int, xp, route=route):
                if xp is FLOATS:
                    calls.append(q_int)
                return route(csf, vals, q_int, xp)

            monkeypatch.setitem(equilibrium_mod._ROUTES, kind, (counting, residuals))
        return calls

    @pytest.fixture
    def designer_solves(self, monkeypatch):
        """Tie rules of every scalar route step (`solve_route`) the designer makes."""
        calls, route = [], designer_mod.solve_route

        def counting(spec, force):
            calls.append(spec.q)
            return route(spec, force)

        monkeypatch.setattr(designer_mod, "solve_route", counting)
        return calls

    @pytest.mark.parametrize("family,params", FIVE_FAMILIES[:4])
    def test_ratio_and_diff_make_no_scalar_solves(self, scalar_calls, family, params):
        spec = make_contest(family, v1=1.3, v2=2.0, q=0.0, **params)
        sweep(spec, 101)
        best = optimal_q(spec)
        assert best.q_star.q == 1.0
        assert scalar_calls == []

    @pytest.mark.parametrize("family,params", KINDS)
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
        expected_effort(spec, RandomTieRule.from_pairs(RULES[-1]))  # its atoms take route steps
        assert built == []

    @pytest.mark.parametrize("family,params", KINDS)
    @pytest.mark.parametrize("v1,v2,q_star", [(3.0, 1.2, 0.0), (1.2, 3.0, 1.0)])
    def test_cold_endpoint_optimum_takes_one_batch_and_no_scalar_solve(
            self, scalar_calls, batches, family, params, v1, v2, q_star):
        spec = make_contest(family, v1=v1, v2=v2, q=0.0, **params)
        best = optimal_q(spec)
        assert best.q_star.q == q_star
        assert scalar_calls == []
        assert len(batches) == 1
        assert batches[0].size == designer_mod.CROSS_CHECK_POINTS

    @pytest.mark.parametrize("family,params", KINDS)
    @pytest.mark.parametrize("v1,v2,q_star", [(3.0, 1.2, 0.0), (1.2, 3.0, 1.0)])
    def test_endpoint_optimum_after_sweep_takes_no_batch_and_no_scalar_solve(
            self, scalar_calls, batches, family, params, v1, v2, q_star):
        # the optimum reads the 101-point batch the sweep just solved
        spec = make_contest(family, v1=v1, v2=v2, q=0.0, **params)
        sweep(spec, 101)
        assert len(batches) == 1
        batches.clear()
        best = optimal_q(spec)
        assert best.q_star.q == q_star
        assert scalar_calls == []
        assert batches == []

    @pytest.mark.parametrize("family,params", FIVE_FAMILIES)
    @pytest.mark.parametrize("pairs", RULES, ids=len)
    def test_rule_takes_one_scalar_solve_per_atom_in_increasing_q(
            self, batches, designer_solves, family, params, pairs):
        spec = make_contest(family, v1=1.3, v2=2.0, q=0.0, **params)
        expected_effort(spec, RandomTieRule.from_pairs(pairs))
        assert designer_solves == sorted(q for q, _ in pairs)
        assert batches == []


# Design-study draws (r, v1, v2, rule) whose concave batch of lanes differs
# from the sum of scalar solves by 1 ulp.
CONCAVE_LANE_ULP = [
    (0.7437515852324442, 0.172059549439248, 0.02697767611923317,
     [(0.5711027718664878, 0.5), (0.21396437176278482, 0.5)]),
    (0.6187515852324442, 7.1079649432013445, 8.235287803309882,
     [(0.5267498579274686, 0.25), (0.9826656486883563, 0.25), (0.9656418779050355, 0.25),
      (0.700694208903192, 0.25)]),
    (0.8687515852324443, 1.0486587044079279, 1.5692017410328811,
     [(0.6958275498115098, 0.25), (0.49396091371681516, 0.25), (0.42916995345262654, 0.25),
      (0.5628837188096592, 0.25)]),
    (0.08750158523244422, 0.09481587988985464, 0.3729741915928849,
     [(0.8226938674257945, 0.5), (0.2103006910924714, 0.5)]),
    (0.6118489426771864, 9.368744925552177, 6.990683780619831,
     [(0.09442077368926127, 0.5), (0.01839540309506793, 0.5)]),
]
RULE_CONTESTS = [
    (family, params, v1, v2, pairs) for family, params in FIVE_FAMILIES
    for v1, v2 in ((3.0, 1.2), (1.2, 3.0)) for pairs in RULES
] + [("blavatskyy-power", dict(r=r), v1, v2, pairs) for r, v1, v2, pairs in CONCAVE_LANE_ULP]


@pytest.mark.parametrize("family,params,v1,v2,pairs", RULE_CONTESTS)
def test_rule_equals_the_sum_of_scalar_solves(family, params, v1, v2, pairs):
    spec = make_contest(family, v1=v1, v2=v2, q=0.0, **params)
    want = math.fsum(w * solve(spec.with_q(q)).total for q, w in pairs)
    assert expected_effort(spec, RandomTieRule.from_pairs(pairs)) == want


@pytest.mark.parametrize("pairs", [
    [(1.0, 0.3), (0.5, 0.4), (0.0, 0.3)],    # q = 0 and q = 1 fail with different texts
    [(0.5, 0.4), (1.0, 0.6)],
])
def test_rule_raises_the_smallest_failing_atoms_error(pairs):
    spec = make_contest("blavatskyy-power", v1=0.01184, v2=0.1024, q=0.0, r=0.97)
    qs = sorted(q for q, _ in pairs)
    lanes = solve_lanes(spec, qs, force=False)
    failing = min(lanes.errors)
    with pytest.raises(ConvergenceError) as scalar:
        solve(spec.with_q(qs[failing]))
    with pytest.raises(ConvergenceError) as err:
        expected_effort(spec, RandomTieRule.from_pairs(pairs))
    assert str(err.value) == str(scalar.value) == str(lanes.errors[failing])


# Contests whose scalar Newton solve backtracks (strongest prize first).
BACKTRACKING = [
    (0.9833324759936135, 232745.81141297886, 0.05535680240311368, 0.9196765925393214),
    (0.9896114831056816, 19.062685162682342, 0.2817825593403378, 1.0 - 0.6075267521384374),
    (0.99999104, 0.834, 0.1036, 0.0122),
]


@pytest.mark.parametrize("budget", [1, 2, 3, 5, 8])
def test_truncated_newton_lanes_take_the_scalar_steps(budget, monkeypatch):
    """The lane instance of the Newton body ends each lane where its float
    instance ends, to the rounding of math's and NumPy's log and exp: the log
    efforts y, the log-impacts r y the underflow and floor errors quote, the
    floor flag of the returned state, and the efforts e^y."""
    monkeypatch.setattr(equilibrium_mod, "MAX_ITERATIONS", budget)
    for r, v1, v2, q in BACKTRACKING:
        csf = BlavatskyyPower(r)
        qs = np.array([q, 0.0, 0.5, 1.0])
        with np.errstate(all="ignore"):
            y1, y2, floor = _concave_newton(csf, v1, v2, qs, LANES)
        for lane, q_lane in enumerate(qs):
            s1, s2, at_floor = _concave_newton(csf, v1, v2, float(q_lane))
            assert f"{r * y1[lane]:.6g}, {r * y2[lane]:.6g}" == f"{r * s1:.6g}, {r * s2:.6g}"
            assert floor[lane] == at_floor
            assert math.exp(y1[lane]) == pytest.approx(math.exp(s1), rel=1e-12, abs=0.0)
            assert math.exp(y2[lane]) == pytest.approx(math.exp(s2), rel=1e-12, abs=0.0)


def test_gap_root_lanes_on_both_sides_of_the_log_form():
    """At k = 1e3 and prizes (1e3, 1), 73 of 101 lanes bracket their root past
    4, so they run the log form first, and the others take the gap equation
    alone: every lane returns its float instance's root, slope there and
    residual bit for bit, and `solve_lanes` the `Equilibrium` of `solve`."""
    spec = make_contest("jia-diff", v1=1e3, v2=1.0, q=0.0, k=1e3)
    qs = np.linspace(0.0, 1.0, 101)
    with np.errstate(all="ignore"):
        lanes = _gap_root(spec.csf, 999.0, qs, LANES)
    # lo >= 4 where the bounds 1, 2 and 4 are all behind (some lanes have three roots)
    behind = [bound - 999.0 * spec.csf.z_prime(bound, qs) <= 0.0 for bound in (1.0, 2.0, 4.0)]
    assert np.count_nonzero(np.logical_and.reduce(behind)) == 73
    solved = solve_lanes(spec, qs, force=False)
    assert solved.errors == {}
    for lane, q in enumerate(qs):
        root, slope, resid = _gap_root(spec.csf, 999.0, float(q))
        assert [float(a[lane]).hex() for a in lanes] == [root.hex(), slope.hex(), resid.hex()]
        assert solved.equilibrium(lane) == solve(spec.with_q(float(q)))


@pytest.mark.parametrize("budget", [1, 2, 3, 4, 5, 8])
@pytest.mark.parametrize("family,params,prizes", [
    ("jia-diff", dict(k=2.5), (4.0, 0.7)),
    ("vesperoni-diff", dict(k=4.0), (30.0, 1.0)),
    ("jia-diff", dict(k=1.0), (1e6, 1.0)),
    ("jia-diff", dict(k=1e3), (1e3, 1.0)),
    ("jia-diff", dict(k=2.0), (1e308, 1.0)),
    ("jia-diff", dict(k=1e30), (1e300, 1.0)),
])
def test_truncated_gap_roots_take_the_scalar_steps(budget, family, params, prizes, monkeypatch):
    """The lane instance of the gap-root body returns each lane's float
    instance bits: root, slope there and residual; and `solve_lanes` fails
    each lane with `solve_beta`'s error or finds its root.  The last four contests bracket roots past 4 (at k = 1e3 only
    the lanes q <= 0.6), whose log form takes 3 to 5 steps and whose finish
    on the gap equation then takes none: budgets 1 to 4 stop a lane inside
    the log form, whose finish then takes 1 or 2 steps, and 1 and 2 stop it
    inside that finish too.  At k = 1e30 the kernels' z' underflows to 0
    past theta = 745, where the log form is +inf with a finite slope, so its
    steps there bisect, and the finish bisects too."""
    monkeypatch.setattr(equilibrium_mod, "MAX_ITERATIONS", budget)
    spec = make_contest(family, v1=prizes[0], v2=prizes[1], q=0.0, **params)
    csf, qs = spec.csf, np.linspace(0.0, 1.0, 6)
    with np.errstate(all="ignore"):
        lanes = _gap_root(csf, prizes[0] - prizes[1], qs, LANES)
    errors = solve_lanes(spec, qs, force=False).errors
    for lane, q in enumerate(qs):
        root, slope, resid = _gap_root(csf, prizes[0] - prizes[1], float(q))
        assert [float(a[lane]).hex() for a in lanes] == [root.hex(), slope.hex(), resid.hex()]
        try:
            ref = solve_beta(csf, prizes, float(q))
        except ConvergenceError as exc:
            assert str(errors[lane]) == str(exc)
            continue
        assert lane not in errors
        assert lanes[0][lane] == ref
