"""Brute-force grid oracle: best responses, grid equilibria, verification."""
from __future__ import annotations

import math

import numpy as np
import pytest

from tiebreak import (
    DomainError,
    EffortProfile,
    GridSpec,
    ValidationError,
    grid_best_response,
    grid_nash,
    make_contest,
    payoff,
    solve,
    verify,
)

TULLOCK = make_contest(family="jia-ratio", v1=1.0, v2=1.0, q=0.5, r=1.0, k=1)
SHARP_RATIO = make_contest(family="jia-ratio", v1=2.0, v2=1.0, q=0.5, r=1.0, k=2)


class TestGridSpec:
    def test_step_and_axis(self):
        grid = GridSpec(x_max=1.0, steps=5)
        assert grid.h == pytest.approx(0.25)
        np.testing.assert_allclose(grid.axis(), [0.0, 0.25, 0.5, 0.75, 1.0])
        assert grid.resolved_eps == 0.0

    def test_explicit_eps_kept(self):
        assert GridSpec(x_max=1.0, steps=5, eps=0.01).resolved_eps == 0.01

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(x_max=0.0, steps=5),
            dict(x_max=1.0, steps=1),
            dict(x_max=1.0, steps=5, eps=-1e-3),
            dict(x_max=math.nan, steps=5),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises((ValidationError, DomainError)):
            GridSpec(**kwargs)

    @pytest.mark.parametrize("eps", [math.inf, -math.inf, math.nan, "abc", [0.1]])
    def test_eps_must_be_a_finite_number(self, eps):
        with pytest.raises(ValidationError, match="eps must be"):
            GridSpec(x_max=1.0, steps=5, eps=eps)

    def test_for_contest_covers_linear_cost_deviations(self):
        grid = GridSpec.for_contest(SHARP_RATIO, steps=2001)
        # No deviation above the prize can ever pay under linear cost.
        assert grid.x_max >= 2.0 + grid.h - 1e-12

    def test_for_contest_covers_quadratic_cost_deviations(self):
        spec = make_contest(family="jia-diff", v1=2.0, v2=1.0, q=0.5, k=2)
        grid = GridSpec.for_contest(spec, steps=1001)
        assert grid.x_max >= math.sqrt(4.0) + grid.h - 1e-12

    def test_for_contest_needs_three_steps(self):
        with pytest.raises(ValidationError):
            GridSpec.for_contest(TULLOCK, steps=2)


class TestGridBestResponse:
    def test_tullock_best_response_at_quarter(self):
        grid = GridSpec(x_max=1.0, steps=2001)
        x, pay = grid_best_response(TULLOCK, 0.25, grid)
        assert x == pytest.approx(0.25, abs=grid.h)
        assert pay == pytest.approx(0.25, abs=1e-2)

    def test_matches_independent_payoff_recomputation(self):
        grid = GridSpec(x_max=1.0, steps=201)
        x, pay = grid_best_response(SHARP_RATIO, 0.3, grid, player=2)
        axis = grid.axis()
        pays = [payoff(SHARP_RATIO, (0.3, float(b)), 2) for b in axis]
        best = int(np.argmax(pays))
        assert x == float(axis[best])
        assert pay == pytest.approx(pays[best], abs=1e-14)

    def test_worthless_prize_stays_at_zero(self):
        spec = make_contest(family="jia-ratio", v1=1e-9, v2=1e-9, q=0.5, r=1.0, k=1)
        x, _ = grid_best_response(spec, 0.5, GridSpec(x_max=1.0, steps=101))
        assert x == 0.0

    def test_opponent_outside_grid_rejected(self):
        grid = GridSpec(x_max=1.0, steps=11)
        with pytest.raises(DomainError):
            grid_best_response(TULLOCK, 1.5, grid)
        with pytest.raises(DomainError):
            grid_best_response(TULLOCK, -0.1, grid)

    def test_player_index_validated(self):
        with pytest.raises(ValidationError):
            grid_best_response(TULLOCK, 0.5, GridSpec(x_max=1.0, steps=11), player=3)


class TestGridNash:
    def test_tullock_has_exactly_one_grid_equilibrium(self):
        # 0.25 sits exactly on this axis, so exact argmax search finds it.
        points = grid_nash(TULLOCK, GridSpec(x_max=1.0, steps=2001))
        assert points == [EffortProfile(0.25, 0.25)]

    def test_sharp_ratio_equilibrium_found_exactly(self):
        points = grid_nash(SHARP_RATIO, GridSpec(x_max=2.0, steps=2001))
        assert len(points) == 1
        assert points[0].x1 == pytest.approx(0.41, abs=1e-12)
        assert points[0].x2 == pytest.approx(0.205, abs=1e-12)

    def test_slack_beyond_every_payoff_gap_accepts_every_profile(self):
        # payoffs lie in [-1, 1] on this grid, so a slack of 2 admits every cell
        points = grid_nash(TULLOCK, GridSpec(x_max=1.0, steps=5, eps=2.0))
        assert len(points) == 25

    def test_profiles_sorted_lexicographically(self):
        points = grid_nash(TULLOCK, GridSpec(x_max=1.0, steps=41, eps=0.05))
        keys = [(p.x1, p.x2) for p in points]
        assert keys == sorted(keys)


class TestVerify:
    def test_closed_form_survives_brute_force(self):
        grid = GridSpec(x_max=2.0, steps=2001)
        report = verify(SHARP_RATIO, solve(SHARP_RATIO), grid)
        assert report.passed
        assert max(report.payoff_losses) <= 1e-6
        assert report.nash_distance <= grid.h

    def test_all_zero_profile_rejected_for_tullock(self):
        report = verify(TULLOCK, (0.0, 0.0), GridSpec(x_max=1.0, steps=501))
        assert not report.passed
        # Deviating to any positive effort wins outright; the loss is large.
        assert max(report.payoff_losses) > 0.4

    def test_accepts_plain_pairs_and_equilibria(self):
        grid = GridSpec(x_max=1.0, steps=501)
        report = verify(TULLOCK, (0.25, 0.25), grid)
        assert report.passed
        with pytest.raises(ValidationError):
            verify(TULLOCK, "not a profile", grid)

    def test_coarse_resolution_flagged(self):
        report = verify(TULLOCK, (0.25, 0.25), GridSpec(x_max=1.0, steps=5))
        assert report.resolution_too_coarse

    def test_ratio_zero_convention_note_present(self):
        report = verify(TULLOCK, (0.25, 0.25), GridSpec(x_max=1.0, steps=101))
        assert any("zero" in note for note in report.notes)

    def test_bands_shrink_linearly_with_step(self):
        """The acceptance band is slope-bound times step, so halving the step
        should halve the band (within slack) while the loss stays zero."""
        eq = solve(TULLOCK)
        bands = []
        for steps in (251, 501, 1001):
            report = verify(TULLOCK, eq, GridSpec(x_max=1.0, steps=steps))
            assert report.passed
            assert max(report.payoff_losses) <= 1e-9
            bands.append(max(report.bands))
        assert bands[1] <= 0.6 * bands[0]
        assert bands[2] <= 0.6 * bands[1]

    def test_loss_is_exact_payoff_difference(self):
        grid = GridSpec(x_max=1.0, steps=301)
        eq = (0.2, 0.2)
        report = verify(TULLOCK, eq, grid)
        axis = grid.axis()
        eq_pay = payoff(TULLOCK, eq, 1)
        best = max(payoff(TULLOCK, (float(x), 0.2), 1) for x in axis)
        assert report.payoff_losses[0] == pytest.approx(
            max(0.0, best - eq_pay), abs=1e-15
        )

    def test_json_dict_shape(self):
        report = verify(TULLOCK, (0.25, 0.25), GridSpec(x_max=1.0, steps=101))
        doc = report.to_json_dict()
        for key in ("profile", "payoff_losses", "bands", "passed", "nash_distance"):
            assert key in doc
