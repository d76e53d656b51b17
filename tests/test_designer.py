"""Designer tools: sweeps, shape certificates, optimal tie rules, random rules."""
from __future__ import annotations

import dataclasses
import importlib.util
import json
import math
import re
import sys
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

import tiebreak.designer as designer_mod
import tiebreak.equilibrium as equilibrium_mod
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
    solve_many,
    sweep,
)
from tiebreak.designer import OPTIMAL_IMPROVEMENT_GUARD
from tiebreak.equilibrium import Lanes, SolveMethod, _lottery, solve_lanes, total_effort_slope
from tiebreak.families import LANES

from helpers import LOTTERY_CONTEST


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

    @pytest.mark.parametrize("columns, text", [
        (lambda c: dict(q_values=c.q_values[:1]), "an effort curve needs at least two samples"),
        (lambda c: dict(x1=c.x1[:-1]), "curve columns must have one entry per q value"),
        (lambda c: dict(q_values=(-0.5, *c.q_values[1:])), "curve q values must lie in [0, 1]"),
        (lambda c: dict(q_values=c.q_values[::-1]), "curve q values must be strictly increasing"),
    ], ids=["one-sample", "short-column", "q-outside", "q-decreasing"])
    def test_curve_rejects_malformed_columns(self, columns, text):
        curve = sweep(SHARP_RATIO, 5)
        with pytest.raises(ValidationError) as caught:
            dataclasses.replace(curve, **columns(curve))
        assert str(caught.value) == text

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
        curve = sweep(spec, 21)
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
        curve = sweep(DIFF_SMALL, 21)
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

    def test_rejects_unknown_family_kind(self):
        with pytest.raises(ValidationError,
                           match="^no solver for family kind 'lottery'$"):
            optimal_q(LOTTERY_CONTEST)

    def test_equal_prizes_indifferent(self):
        spec = make_contest(family="jia-diff", v1=1.0, v2=1.0, q=0.0, k=2)
        best = optimal_q(spec)
        assert best.rationale is Rationale.INDIFFERENT
        assert best.q_star.q == 0.0

    def test_diff_family_favors_the_trailing_player(self):
        spec = make_contest(family="jia-diff", v1=1.2, v2=1.0, q=0.0, k=2)
        best = optimal_q(spec)
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
        eq = solve(spec)
        slope = total_effort_slope(spec, q, eq.x1, eq.x2)
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
        slope = total_effort_slope(spec, q_user, eq.x1, eq.x2)
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
        lanes = Lanes(qs, totals(qs), zeros, None, SolveMethod.FOC_SOLVE, (), {},
                      lambda: (zeros, zeros))
        monkeypatch.setattr(designer_mod, "total_effort_slope", lambda spec, q, x1, x2: slope(q))
        return qs, lambda: designer_mod._concave_optimum(None, qs, lanes, lanes.x1 + lanes.x2)

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

    # an interior argmax within the guard of both endpoints: the outward
    # endpoint wins, q = 0 before q = 1, an inward q = 0 leaves it to q = 1,
    # and inward slopes at both raise naming q = 0
    @pytest.mark.parametrize("slope,q_star", [
        (lambda q: -1.0, 0.0), (lambda q: 1.0, 1.0), (lambda q: 1.0 - 2.0 * q, None),
    ], ids=["falling", "rising", "inward-at-both"])
    def test_an_outward_endpoint_within_the_guard_beats_an_interior_argmax(
            self, monkeypatch, slope, q_star):
        bump = lambda q: 2.0 + 1e-13 * np.sin(np.pi * q)  # below the guard of 3e-12
        qs, optimum = self._stubbed_optimum(monkeypatch, bump, slope)
        if q_star is None:
            with pytest.raises(ConvergenceError, match=r"q = 0, where dR/dq = 1$"):
                optimum()
        else:
            assert qs[optimum()] == q_star

    # bitscan draw 5369: near r = 1 the 101-point curve peaks next to an
    # endpoint by 2.8e-7 of R = 1.27e7, 2e-14 relative, inside the guard of
    # the endpoint, whose outward slope certifies it
    @pytest.mark.parametrize("swapped", [False, True])
    def test_a_rounding_level_interior_peak_leaves_the_endpoint_certified(self, swapped):
        prizes = (13198565.790779846, 347397707.9985027)
        v1, v2 = prizes[::-1] if swapped else prizes
        spec = make_contest(family="blavatskyy-power", v1=v1, v2=v2, q=0.5,
                            r=0.9999988862706624)
        lanes = solve_lanes(spec, np.linspace(0.0, 1.0, designer_mod.CROSS_CHECK_POINTS))
        assert int(np.argmax(lanes.x1 + lanes.x2)) == (1 if swapped else 99)
        best = optimal_q(spec)
        assert (best.q_star.q, best.rationale) == (0.0 if swapped else 1.0, Rationale.NUMERIC)
        assert best.total_effort == pytest.approx(12715498.879519532, rel=1e-12)

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


def _held(spec, q_count=101, force=False):
    """The grid batch the designer's cache holds for `spec`: the same object
    on every call while it is held, a new one after it is replaced."""
    return designer_mod._grid_lanes(spec.with_q(0.0), q_count, force)


class TestGridMemo:
    """`sweep` and `optimal_q` share the last error-free grid batch of a contest."""

    @pytest.mark.parametrize("family,params", MEMO_CONTESTS)
    @pytest.mark.parametrize("v1,v2", [(3.0, 1.2), (1.2, 3.0)])
    def test_warm_results_equal_cold_ones_bit_for_bit(self, batches, family, params, v1, v2):
        spec = make_contest(family, v1=v1, v2=v2, q=0.0, **params)
        cold_best = _bits(optimal_q(spec))
        designer_mod._grid_lanes.cache_clear()
        cold_curve = _bits(sweep(spec, 101))
        held = _held(spec)
        assert _bits(optimal_q(spec)) == cold_best
        assert _bits(sweep(spec, 101)) == cold_curve
        assert _held(spec) is held
        assert [qs.size for qs in batches] == [101, 101]  # the two cold calls

    @pytest.mark.parametrize("q,kwargs", [(0.7, {}), (0.0, dict(force=False))],
                             ids=["q", "default-force"])
    def test_a_change_the_batch_does_not_read_hits(self, batches, q, kwargs):
        """An optimal_q after a sweep(spec, 101) solves nothing new."""
        spec = make_contest(**MEMO_BASE)
        cold = _bits(optimal_q(spec.with_q(q), **kwargs))
        sweep(spec, 101)
        batches.clear()
        assert _bits(optimal_q(spec.with_q(q), **kwargs)) == cold
        assert batches == []

    @pytest.mark.parametrize("contest,kwargs,q_count", [
        (dict(MEMO_BASE, v1=math.nextafter(3.0, math.inf)), {}, 101),
        (dict(MEMO_BASE, v2=math.nextafter(1.2, 0.0)), {}, 101),
        (dict(MEMO_BASE, v1=1.2, v2=3.0), {}, 101),
        (MEMO_BASE, dict(force=True), 101),
        (dict(MEMO_BASE, family="vesperoni-ratio"), {}, 101),
        (MEMO_BASE, {}, 51),
    ], ids=["v1-ulp", "v2-ulp", "swapped", "force", "family", "q_count"])
    def test_any_other_change_misses_and_gives_its_own_cold_answer(
            self, batches, contest, kwargs, q_count):
        base, spec = make_contest(**MEMO_BASE), make_contest(**contest)
        # each call runs after a batch of the base contest; optimal_q reads
        # 101 points, so its q_count case is primed with the other count
        calls = [(101, lambda: sweep(spec, q_count, **kwargs)),
                 (q_count, lambda: optimal_q(spec, **kwargs))]
        for prime, call in calls:
            designer_mod._grid_lanes.cache_clear()
            cold = _bits(call())
            sweep(base, prime)
            batches.clear()
            assert _bits(call()) == cold
            assert len(batches) == 1

    @pytest.mark.parametrize("family,params", MEMO_CONTESTS[3:5])
    def test_held_arrays_are_read_only(self, family, params):
        spec = make_contest(family, v1=3.0, v2=1.2, q=0.0, **params)
        sweep(spec, 101)
        qs, lanes, totals = _held(spec)
        assert designer_mod._grid_lanes.cache_info()[:2] == (1, 1)  # the sweep's batch
        assert "residuals" not in vars(lanes)  # never evaluated: no designer result reads them
        arrays = [qs, totals, lanes.x1, lanes.x2, lanes.beta]
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
        base = make_contest(**MEMO_BASE)
        sweep(base, 101)
        held = _held(base)
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
        assert _held(base) is held


# A contest whose efforts underflow at most of its grid's tie rules: the first of
# `tests/test_boundary.py`'s UNDERFLOWING, whose lanes at q <= 0.84 fail.
UNDERFLOWING_AT_SOME_Q = make_contest("blavatskyy-power", v1=860.481530024333,
                                      v2=11.648007893840989, q=0.3, r=0.9999844130652963)


def _unread(*args):
    raise AssertionError("a first-order residual was formed")


class TestResidualsAreFormedWhereRead:
    """The designer reads efforts and beta alone, so it forms no residual; a batch's
    residuals are formed when they are first read, from its own efforts."""

    @pytest.mark.parametrize("family,params", MEMO_CONTESTS)
    @pytest.mark.parametrize("v1,v2", [(3.0, 1.2), (1.2, 3.0)])
    def test_designer_answers_do_not_read_residuals(self, monkeypatch, family, params, v1, v2):
        spec = make_contest(family, v1=v1, v2=v2, q=0.0, **params)
        rule = RandomTieRule.from_pairs([(0.1, 0.25), (0.6, 0.5), (0.95, 0.25)])
        calls = (lambda: _bits(sweep(spec, 101)), lambda: _bits(optimal_q(spec)),
                 lambda: expected_effort(spec, rule).hex())
        want = [call() for call in calls]
        designer_mod._grid_lanes.cache_clear()
        for kind, (route, _) in equilibrium_mod._ROUTES.items():  # every residual function raises
            monkeypatch.setitem(equilibrium_mod._ROUTES, kind, (route, _unread))
        with pytest.raises(AssertionError, match="residual was formed"):
            solve(spec)
        assert [call() for call in calls] == want

    @pytest.mark.parametrize("spec", [
        *(make_contest(family, v1=v1, v2=v2, q=0.0, **params) for family, params in MEMO_CONTESTS
          for v1, v2 in ((3.0, 1.2), (1.2, 3.0))),
        UNDERFLOWING_AT_SOME_Q])
    def test_residuals_read_after_the_fact_are_solve_many_s(self, spec):
        qs = np.linspace(0.0, 1.0, 101)
        lanes = solve_lanes(spec, qs)
        assert "residuals" not in vars(lanes)
        for call in (lambda: sweep(spec, 101), lambda: optimal_q(spec)):  # the batch used first
            try:
                call()
            except ContestError:
                pass
        solved = [i for i in range(qs.size) if i not in lanes.errors]
        r1, r2 = lanes.residuals
        assert [tuple(map(float.hex, eq.residuals)) for eq in solve_many(spec, qs[solved])] == [
            (float(r1[i]).hex(), float(r2[i]).hex()) for i in solved]
        # a failing lane's residuals are read at its stand-in efforts (1, 1), where they are finite
        failed = sorted(lanes.errors)
        assert (spec is UNDERFLOWING_AT_SOME_Q) == bool(failed) and len(solved) > 0
        assert np.all(lanes.x1[failed] == 1.0) and np.all(lanes.x2[failed] == 1.0)
        assert np.all(np.isfinite(r1[failed])) and np.all(np.isfinite(r2[failed]))


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
    floor = designer_mod.SHAPE_FLOOR * sys.float_info.epsilon * float(np.max(totals))
    check = designer_mod.ShapeCheck
    return designer_mod.ShapeCertificate(
        monotone_decreasing=check(up_step <= floor, max(0.0, up_step)),
        constant=check(spread <= floor, spread),
        linear=check(mid_dev <= floor, mid_dev),
        convex=check(dip <= floor, dip))


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


def test_certificate_verdicts_do_not_depend_on_the_scale():
    """Scaling a curve by a power of two scales every statistic and the floor exactly."""
    rng = np.random.default_rng(51)
    seen = set()
    for _ in range(200):
        n, slope = int(rng.integers(3, 30)), rng.choice((-0.5, 0.0, 0.5))
        noise = rng.random(n) * 10.0 ** rng.uniform(-16.0, -12.0)  # up to 5e3 eps
        base = 1.0 + slope * np.linspace(0.0, 1.0, n) + noise
        want = [c.holds for c in vars(designer_mod._certify(base)).values()]
        seen.update(enumerate(want))
        for power in (-900, -400, 400, 900):
            scaled = designer_mod._certify(base * 2.0 ** (power // 2) * 2.0 ** (power - power // 2))
            assert [c.holds for c in vars(scaled).values()] == want, (power, base)
    assert len(seen) == 8  # each check both holds and fails


@pytest.mark.filterwarnings("error")
def test_certificate_dip_of_opposite_huge_steps_stays_finite():
    """Neighbouring steps of opposite sign whose difference passes the largest
    double: the convexity dip is capped there, not an overflow to inf."""
    convex = designer_mod._certify(np.array([0.0, 1.7e308, 0.0])).convex
    assert convex.holds is False
    assert convex.violation == sys.float_info.max


BITSCAN = Path(__file__).resolve().parents[1] / "tools" / "bitscan.py"
THEOREM_DRAWS = 4000
THEOREM_SHAPES = {"ratio": ("linear", "convex"),
                  "linear impact": ("monotone_decreasing", "constant", "linear", "convex")}


class TestShapeFloor:
    """One rounding floor, `SHAPE_FLOOR` * eps * max R, decides every shape verdict."""

    @pytest.mark.parametrize("family,params,v,shapes", [
        ("jia-ratio", {"r": 0.5, "k": 2}, (3e6, 1.2e6), ("linear", "convex")),
        ("jia-ratio", {"r": 0.5, "k": 2}, (3e12, 1.2e12), ("linear", "convex")),
        ("blavatskyy-power", {"r": 1.0}, (3e6, 1.2e6), ("constant",)),
    ], ids=["jia-ratio-3e6", "jia-ratio-3e12", "linear-impact-3e6"])
    def test_large_prize_curves_certify_their_exact_shapes(self, family, params, v, shapes):
        """A ratio R is affine in q and an interior linear-impact R constant; at these
        prizes their rounding exceeds an absolute bound of 1e-10."""
        curve = sweep(make_contest(family, v1=v[0], v2=v[1], q=0.0, **params), 101)
        for name in shapes:
            assert getattr(curve.shape, name).holds, name

    @pytest.mark.parametrize("family,params", [("jia-diff", {"k": 2}),
                                               ("blavatskyy-power", {"r": 0.5})])
    def test_small_prize_curves_are_not_linear_to_rounding(self, family, params):
        """Midpoint deviations of 6.7e-18 and 2.6e-12 lie below an absolute bound of
        1e-10, but 322 and 5e11 times eps * max R, past four floors."""
        curve = sweep(make_contest(family, v1=3e-4, v2=1.2e-4, q=0.0, **params), 101)
        linear, floor = curve.shape.linear, designer_mod.SHAPE_FLOOR * sys.float_info.epsilon
        assert not linear.holds
        assert linear.violation > 4.0 * floor * max(curve.totals)

    def test_curves_a_theorem_shapes_sit_an_order_below_the_floor(self):
        """The reference for the floor: a ratio-form R is affine in q (beta = v1/v2
        does not depend on q, and z_q' = p' + q p0'), and an interior linear-impact
        R is v1 v2 / (v1 + v2) - 1 at every q.  On every such curve of the seeded
        draws of `tools/bitscan.py`, each shape the theorem fixes certifies, and its
        statistic sits at most a tenth of the floor.  The largest seen is a jia-ratio
        convexity dip of 4.71 eps * max R with NumPy's AVX-512 kernels, 5.03 without."""
        tool = importlib.util.spec_from_file_location("bitscan", BITSCAN)
        bitscan = importlib.util.module_from_spec(tool)
        tool.loader.exec_module(bitscan)
        worst = {(kind, name): 0.0 for kind, names in THEOREM_SHAPES.items() for name in names}
        curves = {kind: 0 for kind in THEOREM_SHAPES}
        for index in range(THEOREM_DRAWS):
            family, params, v1, v2, q, _ = bitscan.draw(index)
            spec = make_contest(family, v1=v1, v2=v2, q=q, **params)
            kind = spec.csf.kind
            if kind == "concave" and spec.csf.r == 1.0:
                kind = "linear impact"
            if kind not in THEOREM_SHAPES:
                continue
            try:
                qs, _, totals = designer_mod._grid_lanes(spec.with_q(0.0), 101, False)
            except ContestError:
                continue
            vals = spec.valuations  # only an interior linear-impact R is constant
            if kind == "linear impact" and _lottery(
                    vals.v1, vals.v2, vals.tie_share(qs), LANES)[2].any():
                continue
            curves[kind] += 1
            unit = sys.float_info.epsilon * float(totals.max())
            certificate = designer_mod._certify(totals)
            for name in THEOREM_SHAPES[kind]:
                check = getattr(certificate, name)
                assert check.holds, (index, name, check.violation / unit)
                worst[kind, name] = max(worst[kind, name], check.violation / unit)
        assert min(curves.values()) >= 100, curves
        print(f"largest statistic a theorem fixes: {max(worst.values()):.3g} eps * max R")
        assert max(worst.values()) <= designer_mod.SHAPE_FLOOR / 10.0, worst


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

    def test_a_repeated_atom_is_solved_once(self, monkeypatch):
        pairs = [(0.7, 0.25), (0.3, 0.25), (0.7, 0.5)]
        solved, route = [], designer_mod.solve_route

        def counting(spec, force):
            solved.append(spec.q)
            return route(spec, force)

        monkeypatch.setattr(designer_mod, "solve_route", counting)
        value = expected_effort(SOFT_RATIO, pairs)
        assert solved == [0.3, 0.7]
        assert value == math.fsum(w * solve(SOFT_RATIO.with_q(q)).total for q, w in pairs)

    def test_coin_beats_half_under_convexity(self):
        coin_value = expected_effort(DIFF_SMALL, COIN)
        half_value = solve(DIFF_SMALL.with_q(0.5)).total
        assert coin_value >= half_value - 1e-12


class TestConvexityPrecondition:
    def test_small_prize_certifies_convexity(self):
        check = convexity_precondition(make_family("vesperoni-diff", k=2), v1=0.5)
        assert check.holds
        assert check.first_crossing is None

    def test_large_prize_fails_with_crossing_location(self):
        check = convexity_precondition(make_family("vesperoni-diff", k=2), v1=50.0)
        assert not check.holds
        # The tie-mass curvature turns nonnegative at log(2 + sqrt(3)) gap units.
        assert check.first_crossing == make_family("vesperoni-diff", k=2).tie_inflection
        assert check.first_crossing == pytest.approx(1.3170, abs=1e-4)

    @pytest.mark.parametrize("family", ("jia-diff", "vesperoni-diff"))
    def test_tieless_family_cannot_satisfy_it(self, family):
        check = convexity_precondition(make_family(family, k=1), v1=0.5)
        assert (check.holds, check.first_crossing) == (False, 0.0)

    def test_verdict_is_the_inflection_against_the_break_even_gap(self):
        for family, k, v1 in (("jia-diff", 2.0, 0.99), ("jia-diff", 2.0, 1.0),
                              ("vesperoni-diff", 7.5, 0.5), ("vesperoni-diff", 7.5, 80.0)):
            csf = make_family(family, k=k)
            check = convexity_precondition(csf, v1)
            assert check.theta_max == math.sqrt(2.0 * v1)
            assert check.holds == (check.theta_max < csf.tie_inflection)
            assert check.first_crossing == (None if check.holds else csf.tie_inflection)

    def test_small_tie_curvature_is_not_a_crossing(self):
        """p0'' < 0 on all of [0, theta_max] at this contest, but only by about
        1e-48 near 0; a sampled scan with a 1e-12 slack reported a crossing at 0."""
        csf = make_family("vesperoni-diff", k=172.349)
        check = convexity_precondition(csf, v1=7.19344)
        assert (check.holds, check.first_crossing) == (True, None)
        k = Decimal("172.349")
        with localcontext() as ctx:
            ctx.prec = 80

            def tie_curvature(theta):
                s = 1 / (1 + (-theta).exp())
                sb = 1 - s
                return k * s * sb * (sb ** (k - 1) * (sb - k * s) - s ** (k - 1) * (k * sb - s))

            thetas = [Decimal(check.theta_max) * i / 400 for i in range(401)]
            assert max(tie_curvature(theta) for theta in thetas) < 0
            # and the exact sign change sits at the family's inflection
            inflection = Decimal(csf.tie_inflection)
            assert tie_curvature(inflection * (1 - Decimal("1e-12"))) < 0
            assert tie_curvature(inflection * (1 + Decimal("1e-12"))) > 0

    def test_transfer_to_sweep_and_coin(self):
        check = convexity_precondition(DIFF_SMALL.csf, v1=DIFF_SMALL.v1)
        assert check.holds
        curve = sweep(DIFF_SMALL, 21)
        assert curve.shape.convex.holds

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            convexity_precondition(make_family("jia-ratio", r=1.0, k=2), v1=1.0)
        with pytest.raises(ValidationError):
            convexity_precondition(make_family("jia-diff", k=2), v1=0.0)

    def test_takes_no_point_count(self):
        with pytest.raises(TypeError):
            convexity_precondition(make_family("jia-diff", k=2), 0.5, 2001)

    def test_json_dict_shape(self):
        doc = convexity_precondition(make_family("jia-diff", k=2), v1=0.5).to_json_dict()
        assert list(doc) == ["holds", "theta_max", "first_crossing"]


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
