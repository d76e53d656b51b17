"""Designer tools: sweeps, shape certificates, optimal tie rules, random rules."""
from __future__ import annotations

import json
import math
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
from tiebreak.batch import Lanes
from tiebreak.equilibrium import CORNER_UNIQUENESS_WARNING, SolveMethod


def _slope_at(spec, q, eq):
    """`_total_effort_slope` at the equilibrium `eq` of `spec` at tie rule q."""
    return designer_mod._total_effort_slope(spec, q, eq.x1, eq.x2,
                                            CORNER_UNIQUENESS_WARNING in eq.warnings)

SHARP_RATIO = make_contest(family="jia-ratio", v1=2.0, v2=1.0, q=0.0, r=1.0, k=2)
SOFT_RATIO = make_contest(family="vesperoni-ratio", v1=2.0, v2=1.0, q=0.0, r=0.5, k=2)
DIFF_SMALL = make_contest(family="vesperoni-diff", v1=0.5, v2=0.4, q=0.0, k=2)
COIN = RandomTieRule.from_pairs([(0.0, 0.5), (1.0, 0.5)])


class TestSweep:
    def test_linear_decreasing_ratio_curve(self):
        curve = sweep(SHARP_RATIO, 11)
        assert len(curve.samples) == 11
        for sample in curve.samples:
            assert sample.R == pytest.approx(0.75 - 0.27 * sample.q, abs=1e-10)
        assert curve.shape.monotone_decreasing.holds
        assert curve.shape.linear.holds
        assert not curve.shape.constant.holds

    def test_q_values_span_the_unit_interval(self):
        curve = sweep(SOFT_RATIO, 5)
        np.testing.assert_allclose(curve.q_values, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.all(np.diff(curve.q_values) > 0)

    def test_samples_expose_components_and_total(self):
        curve = sweep(SHARP_RATIO, 3)
        first = curve.samples[0]
        assert first.R == pytest.approx(first.x1 + first.x2, abs=1e-15)
        assert first.beta == pytest.approx(2.0, abs=1e-12)

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

    def test_requires_at_least_two_points(self):
        with pytest.raises(ValidationError):
            sweep(SHARP_RATIO, 1)

    def test_solver_errors_carry_the_failing_q(self):
        bad = make_contest(
            family="vesperoni-ratio", v1=2.0, v2=1.0, q=0.0, r=0.6, k=2
        )
        with pytest.raises(ValidationError, match="sweep failed at q = 0"):
            sweep(bad, 5)

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
        assert float(row.split(",")[1]) == curve.samples[1].x1

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

    @pytest.mark.parametrize("peak", [0.43217, 0.996, 0.0021])
    def test_refinement_zooms_onto_an_interior_maximum(self, monkeypatch, peak):
        batches = []

        def curve(qs):
            zeros = np.zeros(len(qs))
            return Lanes(1.0 - (np.asarray(qs) - peak) ** 2, zeros, None, (zeros, zeros),
                         zeros.astype(bool), SolveMethod.FOC_SOLVE, (), {})

        def zoom(spec, qs, **kwargs):
            batches.append(qs)
            return curve(qs)

        monkeypatch.setattr(designer_mod, "solve_lanes", zoom)
        monkeypatch.setattr(designer_mod, "_total_effort_slope",
                            lambda spec, q, x1, x2, cornered: -2.0 * (q - peak))
        qs = np.linspace(0.0, 1.0, designer_mod.CROSS_CHECK_POINTS)
        q_star, x1, x2 = designer_mod._concave_optimum(None, qs, curve(qs), {})
        assert abs(q_star - peak) <= designer_mod.REFINE_WIDTH
        assert x1 + x2 == 1.0 - (q_star - peak) ** 2
        # each batch narrows the bracket tenfold: 0.02 down to 1e-6 takes five
        assert len(batches) <= 5

    def test_failing_tie_rule_raises_its_own_error(self):
        spec = make_contest(family="blavatskyy-power", v1=0.1024, v2=0.01184, q=0.5, r=0.9386)
        with pytest.raises(ConvergenceError, match=r"^an equilibrium effort underflows"):
            optimal_q(spec)


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
