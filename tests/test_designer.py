"""Designer tools: sweeps, shape certificates, optimal tie rules, random rules."""
from __future__ import annotations

import dataclasses
import json
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tiebreak.designer as designer_mod
from tiebreak import (
    ContestError,
    ConvergenceError,
    RandomTieRule,
    Rationale,
    ValidationError,
    convexity_precondition,
    expected_effort,
    make_contest,
    make_family,
    optimal_q,
    solve,
    sweep,
)
from tiebreak.designer import OPTIMAL_IMPROVEMENT_GUARD
from tiebreak.equilibrium import (CORNER_UNIQUENESS_WARNING, Lanes, SolveMethod, solve_lanes,
                                  total_effort_slope)


def _slope_at(spec, q, eq):
    """`total_effort_slope` at the equilibrium `eq` of `spec` at tie rule q."""
    return total_effort_slope(spec, q, eq.x1, eq.x2, CORNER_UNIQUENESS_WARNING in eq.warnings)

SHARP_RATIO = make_contest(family="jia-ratio", v1=2.0, v2=1.0, q=0.0, r=1.0, k=2)
SOFT_RATIO = make_contest(family="vesperoni-ratio", v1=2.0, v2=1.0, q=0.0, r=0.5, k=2)
DIFF_SMALL = make_contest(family="vesperoni-diff", v1=0.5, v2=0.4, q=0.0, k=2)
COIN = RandomTieRule.from_pairs([(0.0, 0.5), (1.0, 0.5)])


class TestSweep:
    def test_linear_decreasing_ratio_curve(self):
        curve = sweep(SHARP_RATIO, 11)
        assert len(curve.q_values) == len(curve.totals) == 11
        for q, total in zip(curve.q_values, curve.totals):
            assert total == pytest.approx(0.75 - 0.27 * q, abs=1e-10)
        assert curve.shape.monotone_decreasing.holds
        assert curve.shape.linear.holds
        assert not curve.shape.constant.holds

    def test_q_values_span_the_unit_interval(self):
        curve = sweep(SOFT_RATIO, 5)
        np.testing.assert_allclose(curve.q_values, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.all(np.diff(curve.q_values) > 0)

    def test_columns_expose_components_and_total(self):
        curve = sweep(SHARP_RATIO, 3)
        assert curve.totals[0] == pytest.approx(curve.x1[0] + curve.x2[0], abs=1e-15)
        assert curve.betas[0] == pytest.approx(2.0, abs=1e-12)

    def test_symmetric_prizes_certified_constant(self):
        spec = make_contest(family="jia-ratio", v1=1.0, v2=1.0, q=0.0, r=1.0, k=2)
        curve = sweep(spec, 21)
        assert curve.shape.constant.holds
        assert curve.shape.monotone_decreasing.holds

    def test_diff_family_drop_between_extremes(self):
        spec = make_contest(family="jia-diff", v1=1.2, v2=1.0, q=0.0, k=2)
        curve = sweep(spec, 21, audited=True)
        totals = curve.totals
        assert totals[0] - totals[-1] > 1e-6
        assert curve.shape.monotone_decreasing.holds

    def test_linear_certificate_of_totals_near_the_largest_double(self):
        # two totals of 1e308 sum past the largest double: the midpoint halves them first
        spec = make_contest(family="jia-ratio", v1=1e308, v2=1e308, q=0.0, r=2.0, k=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            curve = sweep(spec, 5, force=True)
        assert curve.totals == (1e308,) * 5
        assert curve.shape.constant.holds and curve.shape.linear.holds
        assert curve.shape.linear.violation == 0.0

    def test_requires_at_least_two_points(self):
        with pytest.raises(ValidationError):
            sweep(SHARP_RATIO, 1)

    def test_solver_errors_carry_the_failing_q(self):
        # an error that holds at every q is raised as `solve` raises it
        bad = make_contest(
            family="vesperoni-ratio", v1=2.0, v2=1.0, q=0.0, r=0.6, k=2
        )
        with pytest.raises(ValidationError) as scalar:
            solve(bad)
        with pytest.raises(ValidationError) as info:
            sweep(bad, 5)
        assert str(info.value) == str(scalar.value)
        # a failing tie rule is named, the smallest failing one
        spec = make_contest(family="blavatskyy-power", v1=0.1024, v2=0.01184, q=0.5, r=0.9386)
        with pytest.raises(ConvergenceError) as lane:
            solve(spec.with_q(1.0))
        with pytest.raises(ConvergenceError) as info:
            sweep(spec, 5)
        assert str(info.value) == f"sweep failed at q = 1: {lane.value}"

    def test_csv_round_trip(self):
        curve = sweep(SHARP_RATIO, 3)
        lines = curve.to_csv().strip().splitlines()
        assert lines[0] == "q,x1,x2,R"
        assert len(lines) == 4
        q, x1, x2, total = (float(part) for part in lines[1].split(","))
        assert (q, x1, x2) == (0.0, 0.5, 0.25)
        assert total == pytest.approx(0.75, abs=1e-15)
        # Seventeen significant digits reproduce the floats exactly.
        row = curve.to_csv().splitlines()[2]
        assert float(row.split(",")[1]) == curve.x1[1]

    def test_convexity_certificate_on_diff_sweep(self):
        curve = sweep(DIFF_SMALL, 21, audited=True)
        assert curve.shape.convex.holds


class TestRatioLinearityProperty:
    def test_midpoint_of_extremes_matches_center(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            name = "jia-ratio" if rng.random() < 0.5 else "vesperoni-ratio"
            if name == "jia-ratio":
                params = dict(r=float(rng.uniform(0.2, 1.0)), k=float(rng.uniform(1.0, 4.0)))
            else:
                k = float(rng.uniform(1.0, 4.0))
                params = dict(r=float(rng.uniform(0.2, 1.0 / k)), k=k)
            v2 = float(10.0 ** rng.uniform(-0.5, 0.5))
            v1 = v2 * float(1.0 + rng.uniform(0.0, 2.0))
            spec = make_contest(family=name, v1=v1, v2=v2, q=0.0, **params)
            ends = [solve(spec.with_q(q)).total for q in (0.0, 1.0)]
            mid = solve(spec.with_q(0.5)).total
            assert mid == pytest.approx(0.5 * (ends[0] + ends[1]), abs=1e-10)


class TestOptimalQ:
    def test_distinct_prizes_pick_zero_by_theorem(self):
        best = optimal_q(SHARP_RATIO)
        assert best.q_star.q == 0.0
        assert best.rationale is Rationale.THEOREM
        assert best.total_effort == pytest.approx(0.75, abs=1e-10)
        assert best.x1 == pytest.approx(0.5, abs=1e-10)

    def test_swapped_prizes_pick_one(self):
        spec = make_contest(family="jia-ratio", v1=1.0, v2=2.0, q=0.0, r=1.0, k=2)
        best = optimal_q(spec)
        assert best.q_star.q == 1.0
        assert best.rationale is Rationale.THEOREM
        assert best.total_effort == pytest.approx(0.75, abs=1e-10)

    def test_equal_prizes_indifferent(self):
        spec = make_contest(family="jia-diff", v1=1.0, v2=1.0, q=0.0, k=2)
        best = optimal_q(spec)
        assert best.rationale is Rationale.INDIFFERENT
        assert best.q_star.q == 0.0

    def test_diff_family_favors_the_trailing_player(self):
        spec = make_contest(family="jia-diff", v1=1.2, v2=1.0, q=0.0, k=2)
        best = optimal_q(spec, audited=True)
        assert best.q_star.q == 0.0
        assert best.rationale is Rationale.THEOREM

    # a stubbed curve whose point at q = 0.37 beats the structural endpoint
    # by twice the guard overrides it; by half the guard it does not
    @pytest.mark.parametrize("spec", [
        SOFT_RATIO, DIFF_SMALL,
        make_contest(family="jia-ratio", v1=1.0, v2=2.0, q=0.0, r=1.0, k=2),
    ], ids=["ratio", "diff", "ratio-swapped"])
    @pytest.mark.parametrize("margin,rationale", [(2.0, Rationale.NUMERIC),
                                                  (0.5, Rationale.THEOREM)])
    def test_interior_point_beyond_the_guard_overrides_the_endpoint(
            self, monkeypatch, spec, margin, rationale):
        def bumped(spec, qs, **kwargs):
            lanes = solve_lanes(spec, qs, **kwargs)
            end = lanes.x1 + lanes.x2
            end = float(end[-1] if spec.valuations.swapped else end[0])
            x1 = lanes.x1.copy()
            x1[37] = end - lanes.x2[37] + margin * OPTIMAL_IMPROVEMENT_GUARD * (1.0 + end)
            return dataclasses.replace(lanes, x1=x1)

        monkeypatch.setattr(designer_mod, "solve_lanes", bumped)
        best = optimal_q(spec)
        assert best.rationale is rationale
        structural = 1.0 if spec.valuations.swapped else 0.0
        assert best.q_star.q == (0.37 if rationale is Rationale.NUMERIC else structural)

    def test_concave_search_matches_known_boundary_solution(self):
        spec = make_contest(family="blavatskyy-power", v1=4.0, v2=4.0, q=0.0, r=0.5)
        best = optimal_q(spec)
        assert best.rationale is Rationale.NUMERIC
        assert best.q_star.q == 0.0
        assert best.total_effort == pytest.approx(5.0 / 9.0, abs=1e-6)

    def test_reported_effort_matches_a_fresh_solve(self):
        best = optimal_q(SOFT_RATIO)
        again = solve(SOFT_RATIO.with_q(best.q_star.q))
        assert best.total_effort == pytest.approx(again.total, abs=1e-12)

    def test_json_dict_shape(self):
        doc = optimal_q(SHARP_RATIO).to_json_dict()
        assert set(doc) == {"q_star", "total_effort", "rationale", "x1", "x2"}
        assert doc["rationale"] == "theorem"


PARENT_OPTIMA = json.loads(
    (Path(__file__).parent / "data" / "optimal_q_parent.json").read_text())["contests"]


def _total(spec, q: float) -> float:
    return solve(spec.with_q(q)).total


def _difference_slope(spec, q: float, h: float = 1e-5) -> float:
    """dR/dq by central differences, one-sided second order at an endpoint."""
    if q - h < 0.0:
        return (-3.0 * _total(spec, q) + 4.0 * _total(spec, q + h) - _total(spec, q + 2 * h)) / (2 * h)
    if q + h > 1.0:
        return (3.0 * _total(spec, q) - 4.0 * _total(spec, q - h) + _total(spec, q - 2 * h)) / (2 * h)
    return (_total(spec, q + h) - _total(spec, q - h)) / (2 * h)


class TestConcaveOptimum:
    @pytest.mark.parametrize("r", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("q", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("v1,v2", [(3.0, 1.2), (1.2, 3.0)])
    def test_implicit_slope_matches_differences(self, r, q, v1, v2):
        spec = make_contest(family="blavatskyy-power", v1=v1, v2=v2, q=q, r=r)
        slope = _slope_at(spec, q, solve(spec))
        assert slope == pytest.approx(_difference_slope(spec, q), rel=1e-6, abs=0.0)

    # Linear impact, one tie rule per regime of the strong player (prize 3 or 12):
    # interior closed form, strong player alone (b1, 0), weak player alone (0, b2).
    @pytest.mark.parametrize("strong,weak,q,active", [
        (12.0, 9.0, 0.4, (True, True)),
        (3.0, 1.2, 0.3, (True, False)),
        (3.0, 1.2, 0.95, (False, True)),
    ])
    @pytest.mark.parametrize("swapped", [False, True])
    def test_linear_impact_slope_per_regime(self, strong, weak, q, active, swapped):
        v1, v2 = (weak, strong) if swapped else (strong, weak)
        q_user = 1.0 - q if swapped else q
        spec = make_contest(family="blavatskyy-power", v1=v1, v2=v2, q=q_user, r=1.0)
        eq = solve(spec)
        efforts = (eq.x2, eq.x1) if swapped else (eq.x1, eq.x2)
        assert tuple(x > 0.0 for x in efforts) == active
        slope = _slope_at(spec, q_user, eq)
        expected = _difference_slope(spec, q_user)
        assert slope == pytest.approx(expected, rel=1e-6, abs=1e-9)
        if all(active):
            assert slope == 0.0

    @pytest.mark.parametrize("row", PARENT_OPTIMA,
                             ids=lambda row: f"r{row['r']:.6g}-v{row['v1']:.4g}-{row['v2']:.4g}")
    def test_matches_the_golden_section_results(self, row):
        spec = make_contest(family="blavatskyy-power", v1=row["v1"], v2=row["v2"], q=0.5,
                            r=row["r"])
        if row["error"] is not None:
            with pytest.raises(ContestError) as info:
                optimal_q(spec)
            assert type(info.value).__name__ == row["error"]
            return
        best = optimal_q(spec)
        assert abs(best.q_star.q - row["q_star"]) <= 1e-6
        parent = row["total_effort"]
        assert best.total_effort >= parent - 1e-12 * (1.0 + parent)

    @staticmethod
    def _stubbed_optimum(monkeypatch, totals, slope):
        """`_concave_optimum` on a stubbed 101-point curve R(q) with slope dR/dq."""
        qs = np.linspace(0.0, 1.0, designer_mod.CROSS_CHECK_POINTS)
        zeros = np.zeros(qs.size)
        lanes = Lanes(qs, totals(qs), zeros, None, (zeros, zeros), zeros.astype(bool),
                      SolveMethod.FOC_SOLVE, (), {})
        monkeypatch.setattr(designer_mod, "total_effort_slope",
                            lambda spec, q, x1, x2, cornered: slope(q))
        return qs, lambda: designer_mod._concave_optimum(None, qs, lanes)

    # a peak between grid points lands on the nearest one: inside (0, 1), or
    # at an endpoint whose slope points back inward
    @pytest.mark.parametrize("peak,at", [(0.43217, 43), (0.996, 100), (0.0021, 0)],
                             ids=["interior", "inward-at-1", "inward-at-0"])
    def test_uncertified_candidate_raises_naming_q_and_slope(self, monkeypatch, peak, at):
        qs, optimum = self._stubbed_optimum(monkeypatch, lambda q: 1.0 - (q - peak) ** 2,
                                            lambda q: -2.0 * (q - peak))
        q, slope = float(qs[at]), -2.0 * (float(qs[at]) - peak)
        with pytest.raises(ConvergenceError,
                           match=re.escape(f"q = {q:.17g}, where dR/dq = {slope:.17g}")):
            optimum()

    def test_nan_slope_at_an_endpoint_raises(self, monkeypatch):
        _, optimum = self._stubbed_optimum(monkeypatch, lambda q: 1.0 - q, lambda q: math.nan)
        with pytest.raises(ConvergenceError, match=r"q = 0, where dR/dq = nan$"):
            optimum()

    @pytest.mark.parametrize("totals,slope,q_star", [
        (lambda q: 1.0 - q, -1.0, 0.0),
        (lambda q: q, 1.0, 1.0),
        (lambda q: np.full(q.size, 2.0), 0.0, 0.0),
    ], ids=["falling", "rising", "flat"])
    def test_outward_or_flat_endpoint_slope_returns_the_candidate(
            self, monkeypatch, totals, slope, q_star):
        qs, optimum = self._stubbed_optimum(monkeypatch, totals, lambda q: slope)
        assert qs[optimum()] == q_star

    # linear impact with the interior closed form at every q: R is flat up to
    # rounding, so the grid argmax sits inside (0, 1) but the candidate is q = 0
    @pytest.mark.parametrize("v1,v2,total", [
        (10.0, 8.0, 3.444444444444444),
        (8.0, 10.0, 3.444444444444444),
        (19.18639171345799, 19.18639171345799, 8.593195856728995),
    ])
    def test_flat_linear_impact_curve_is_certified_in_one_batch(self, batches, v1, v2, total):
        spec = make_contest(family="blavatskyy-power", v1=v1, v2=v2, q=0.5, r=1.0)
        best = optimal_q(spec)
        assert len(batches) == 1
        assert (best.q_star.q, best.total_effort) == (0.0, total)

    def test_failing_tie_rule_raises_its_own_error(self):
        spec = make_contest(family="blavatskyy-power", v1=0.1024, v2=0.01184, q=0.5, r=0.9386)
        with pytest.raises(ConvergenceError,
                           match=r"^sweep failed at q = 1: an equilibrium effort underflows"):
            optimal_q(spec)


MEMO_CONTESTS = [
    ("vesperoni-ratio", dict(r=0.5, k=2.0)), ("jia-ratio", dict(r=0.5, k=2.0)),
    ("vesperoni-diff", dict(k=2.0)), ("jia-diff", dict(k=2.0)),
    ("blavatskyy-power", dict(r=0.5)), ("blavatskyy-power", dict(r=1.0)),
]
MEMO_BASE = dict(family="jia-ratio", v1=3.0, v2=1.2, q=0.0, r=0.5, k=2.0)


def _bits(result) -> str:
    """A result's JSON form as text, which tells -0.0 from 0.0."""
    return json.dumps(result.to_json_dict(), sort_keys=True)


class TestGridMemo:
    """`sweep` and `optimal_q` share the last error-free grid batch of a contest."""

    @pytest.mark.parametrize("family,params", MEMO_CONTESTS)
    @pytest.mark.parametrize("v1,v2", [(3.0, 1.2), (1.2, 3.0)])
    def test_warm_results_equal_cold_ones_bit_for_bit(self, batches, family, params, v1, v2):
        spec = make_contest(family, v1=v1, v2=v2, q=0.0, **params)
        cold_best = _bits(optimal_q(spec))
        designer_mod._last_grid = ()
        cold_curve = _bits(sweep(spec, 101))
        held = designer_mod._last_grid
        assert _bits(optimal_q(spec)) == cold_best
        assert _bits(sweep(spec, 101)) == cold_curve
        assert designer_mod._last_grid is held
        assert [qs.size for qs in batches] == [101, 101]  # the two cold calls

    def test_a_spec_differing_only_in_q_hits(self, batches):
        spec = make_contest(**MEMO_BASE)
        cold = _bits(optimal_q(spec.with_q(0.7)))
        sweep(spec, 101)
        batches.clear()
        assert _bits(optimal_q(spec.with_q(0.7))) == cold
        assert batches == []

    @pytest.mark.parametrize("contest,kwargs,q_count", [
        (dict(MEMO_BASE, v1=math.nextafter(3.0, math.inf)), {}, 101),
        (dict(MEMO_BASE, v2=math.nextafter(1.2, 0.0)), {}, 101),
        (dict(MEMO_BASE, v1=1.2, v2=3.0), {}, 101),
        (MEMO_BASE, dict(force=True), 101),
        (MEMO_BASE, dict(audited=True), 101),
        (dict(MEMO_BASE, family="vesperoni-ratio"), {}, 101),
        (MEMO_BASE, {}, 51),
    ], ids=["v1-ulp", "v2-ulp", "swapped", "force", "audited", "family", "q_count"])
    def test_any_other_change_misses_and_gives_its_own_cold_answer(
            self, batches, contest, kwargs, q_count):
        base, spec = make_contest(**MEMO_BASE), make_contest(**contest)
        # each call runs after a batch of the base contest; optimal_q reads
        # 101 points, so its q_count case is primed with the other count
        calls = [(101, lambda: sweep(spec, q_count, **kwargs)),
                 (q_count, lambda: optimal_q(spec, **kwargs))]
        for prime, call in calls:
            designer_mod._last_grid = ()
            cold = _bits(call())
            sweep(base, prime)
            batches.clear()
            assert _bits(call()) == cold
            assert len(batches) == 1

    @pytest.mark.parametrize("family,params", MEMO_CONTESTS[3:5])
    def test_held_arrays_are_read_only(self, family, params):
        sweep(make_contest(family, v1=3.0, v2=1.2, q=0.0, **params), 101)
        _, qs, lanes, totals = designer_mod._last_grid
        arrays = [qs, totals, lanes.x1, lanes.x2, lanes.beta, *lanes.residuals, lanes.cornered]
        for arr in filter(lambda a: a is not None, arrays):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[1]

    def test_every_batch_of_a_count_shares_one_read_only_grid(self, batches):
        sweep(make_contest(**MEMO_BASE), 101)
        optimal_q(make_contest(**dict(MEMO_BASE, v1=5.0)))
        sweep(make_contest(**dict(MEMO_BASE, family="vesperoni-ratio")), 11)
        assert batches[0] is batches[1] and batches[2] is not batches[0]
        for qs, n in ((batches[0], 101), (batches[2], 11)):
            assert np.array_equal(qs, np.linspace(0.0, 1.0, n))
            with pytest.raises(ValueError, match="read-only"):
                qs[0] = 0.5

    def test_failing_contest_is_never_stored(self):
        sweep(make_contest(**MEMO_BASE), 101)
        held = designer_mod._last_grid
        spec = make_contest(family="blavatskyy-power", v1=0.1024, v2=0.01184, q=0.5, r=0.9386)
        with pytest.raises(ConvergenceError) as lane:
            solve(spec.with_q(1.0))
        raised = []
        for call, text in [(lambda: sweep(spec, 101), f"sweep failed at q = 1: {lane.value}"),
                           (lambda: optimal_q(spec), f"sweep failed at q = 1: {lane.value}")] * 2:
            with pytest.raises(ConvergenceError) as info:
                call()
            assert str(info.value) == text
            raised.append(info.value)
        assert len({id(exc) for exc in raised}) == len(raised)
        assert designer_mod._last_grid is held


def _certificate_by_separate_reductions(totals):
    """The shape certificate as separate `np.diff`, max and min calls form it."""
    diffs = np.diff(totals)
    up_step = float(np.max(diffs))
    spread = float(np.max(totals) - np.min(totals))
    if totals.size >= 3:
        mid_dev = float(np.max(np.abs((totals[:-2] + totals[2:]) / 2.0 - totals[1:-1])))
        dip = float(max(0.0, -np.min(np.diff(diffs))))
    else:
        mid_dev = dip = 0.0
    check = designer_mod.ShapeCheck
    return designer_mod.ShapeCertificate(
        monotone_decreasing=check(up_step <= designer_mod.MONOTONE_SLACK, max(0.0, up_step)),
        constant=check(spread <= designer_mod.CONSTANT_TOL, spread),
        linear=check(mid_dev <= designer_mod.LINEAR_TOL, mid_dev),
        convex=check(dip <= designer_mod.CONVEX_TOL, dip))


def test_certificate_equals_the_separate_reductions_bit_for_bit():
    rng = np.random.default_rng(2108)
    curves = [np.zeros(2), np.array([1.0, 0.5]), np.array([0.5, 1.0]), np.zeros(3),
              np.array([0.0, -0.0, 0.0]),
              np.full(101, 0.3), np.linspace(2.0, 1.0, 101), np.linspace(0.0, 1e307, 101)]
    for _ in range(400):
        n = int(rng.integers(2, 130))
        scale = 10.0 ** rng.uniform(-300.0, 300.0)
        curves += [rng.random(n) * scale, np.sort(rng.random(n))[::-1] * scale,
                   3.0 + rng.random(n) * 1e-12, (np.linspace(-1.0, 1.0, n) ** 2) * scale]
    for totals in curves:
        want = _certificate_by_separate_reductions(totals)
        assert _bits(designer_mod._certify(totals)) == _bits(want), totals


@pytest.mark.filterwarnings("error")
def test_certificate_dip_of_opposite_huge_steps_stays_finite():
    """Neighbouring steps of opposite sign whose difference passes the largest
    double: the convexity dip is capped there, not an overflow to inf."""
    convex = designer_mod._certify(np.array([0.0, 1.7e308, 0.0])).convex
    assert convex.holds is False
    assert convex.violation == sys.float_info.max


class TestExpectedEffort:
    def test_point_mass_equals_plain_solve(self):
        rule = RandomTieRule.from_pairs([(0.3, 1.0)])
        value = expected_effort(SHARP_RATIO, rule)
        assert value == pytest.approx(solve(SHARP_RATIO.with_q(0.3)).total, abs=1e-14)

    def test_coin_matches_center_for_linear_response(self):
        assert expected_effort(SHARP_RATIO, COIN) == pytest.approx(
            solve(SHARP_RATIO.with_q(0.5)).total, abs=1e-10
        )

    def test_unbiased_rules_agree_for_ratio_families(self):
        rules = [
            COIN,
            RandomTieRule.from_pairs([(0.5, 1.0)]),
            RandomTieRule.from_pairs([(0.25, 0.5), (0.75, 0.5)]),
            RandomTieRule.from_pairs([(0.1, 0.5), (0.9, 0.5)]),
            RandomTieRule.from_pairs([(0.0, 0.25), (0.5, 0.5), (1.0, 0.25)]),
        ]
        values = [expected_effort(SOFT_RATIO, rule) for rule in rules]
        for value in values[1:]:
            assert value == pytest.approx(values[0], abs=1e-10)

    def test_plain_pairs_are_coerced(self):
        direct = expected_effort(SHARP_RATIO, [(0.0, 0.5), (1.0, 0.5)])
        assert direct == pytest.approx(expected_effort(SHARP_RATIO, COIN), abs=1e-15)

    def test_invalid_rule_rejected(self):
        with pytest.raises(ValidationError):
            expected_effort(SHARP_RATIO, [(0.0, 0.9)])

    def test_coin_beats_half_under_convexity(self):
        coin_value = expected_effort(DIFF_SMALL, COIN, audited=True)
        half_value = solve(DIFF_SMALL.with_q(0.5)).total
        assert coin_value >= half_value - 1e-12


class TestConvexityPrecondition:
    def test_small_prize_certifies_convexity(self):
        check = convexity_precondition(make_family("vesperoni-diff", k=2), v1=0.5)
        assert check.holds
        assert check.worst_value < 0.0
        assert check.first_crossing is None

    def test_large_prize_fails_with_crossing_location(self):
        check = convexity_precondition(make_family("vesperoni-diff", k=2), v1=50.0)
        assert not check.holds
        assert check.worst_value > 0.0
        # The tie-mass curvature turns nonnegative near 1.317 gap units.
        assert check.first_crossing == pytest.approx(1.3170, abs=1.5e-2)

    def test_tieless_family_cannot_satisfy_it(self):
        check = convexity_precondition(make_family("jia-diff", k=1), v1=0.5)
        assert not check.holds

    def test_transfer_to_sweep_and_coin(self):
        check = convexity_precondition(DIFF_SMALL.csf, v1=DIFF_SMALL.v1)
        assert check.holds
        curve = sweep(DIFF_SMALL, 21, audited=True)
        assert curve.shape.convex.holds

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            convexity_precondition(make_family("jia-ratio", r=1.0, k=2), v1=1.0)
        with pytest.raises(ValidationError):
            convexity_precondition(make_family("jia-diff", k=2), v1=0.0)

    def test_json_dict_shape(self):
        doc = convexity_precondition(make_family("jia-diff", k=2), v1=0.5).to_json_dict()
        for key in ("holds", "worst_value", "worst_theta", "first_crossing"):
            assert key in doc


class TestConjectureExploration:
    def test_concave_sweep_emits_certificates_without_asserting_shape(self):
        """Concave families have no proven response shape; the sweep records
        the certificate and this test only checks that it is well formed."""
        spec = make_contest(family="blavatskyy-power", v1=4.0, v2=4.0, q=0.0, r=0.7)
        curve = sweep(spec, 9)
        assert isinstance(curve.shape.convex.holds, bool)
        assert isinstance(curve.shape.monotone_decreasing.holds, bool)

    def test_small_prize_corner_curve_breaks_linearity(self):
        """With corners active the response is visibly nonlinear: the coin
        and the committed half rule part ways."""
        spec = make_contest(family="blavatskyy-power", v1=2.4, v2=2.4, q=0.0, r=1.0)
        coin_value = expected_effort(spec, COIN)
        half_value = solve(spec.with_q(0.5)).total
        assert abs(coin_value - half_value) > 1e-7
