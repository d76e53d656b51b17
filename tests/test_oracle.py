"""Brute-force grid oracle: best responses, grid equilibria, verification."""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
import sys
import tracemalloc

import numpy as np
import pytest

from tiebreak import (
    FAMILIES,
    ContestError,
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
from tiebreak import oracle
from tiebreak.audit import audit_family
from tiebreak.cli import EXIT_INVALID, run
from tiebreak.core import MAX_COUNT, payoffs
from tiebreak.families import RatioCsf

TULLOCK = make_contest(family="jia-ratio", v1=1.0, v2=1.0, q=0.5, r=1.0, k=1)
SHARP_RATIO = make_contest(family="jia-ratio", v1=2.0, v2=1.0, q=0.5, r=1.0, k=2)
# `solve`'s answer for this contest lies above the ceiling of its standard grid
# (`tools/bitscan.py` draw 19388).
ABOVE_CEILING = make_contest(family="jia-diff", k=7399.610211971736, v1=432037.5564741736,
                             v2=438543.8394421204, q=0.8824038936733141)
ABOVE_CEILING_CLAIM = (986.7959775287866, 1001.6566621272046)


class TestGridSpec:
    def test_step_and_axis(self):
        grid = GridSpec(x_max=1.0, steps=5)
        assert grid.h == pytest.approx(0.25)
        np.testing.assert_allclose(grid.axis(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_no_slack_has_one_spelling(self, capsys):
        """The grid oracle is exact: no layer takes a best-response slack."""
        for eps in (None, 0.0, 1e-3):
            with pytest.raises(TypeError):
                GridSpec(x_max=1.0, steps=5, eps=eps)
            with pytest.raises(TypeError):
                GridSpec.for_contest(TULLOCK, 11, eps=eps)
        assert run(["verify", "--family", "jia-ratio", "--r", "1", "--k", "1", "--v1", "1",
                    "--v2", "1", "--q", "0.5", "--steps", "11", "--eps", "0"]) == EXIT_INVALID
        assert "unrecognized arguments: --eps 0" in capsys.readouterr().err
        report = verify(TULLOCK, (0.25, 0.25), GridSpec(x_max=1.0, steps=11))
        assert list(report.to_json_dict()["grid"]) == ["x_max", "steps", "h"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(x_max=0.0, steps=5),
            dict(x_max=1.0, steps=1),
            dict(x_max=math.nan, steps=5),
            dict(x_max=math.inf, steps=5),
            dict(x_max=-1.0, steps=5),
            dict(x_max=1.0, steps=0),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises((ValidationError, DomainError)):
            GridSpec(**kwargs)

    def test_for_contest_covers_linear_cost_deviations(self):
        grid = GridSpec.for_contest(SHARP_RATIO, steps=2001)
        # No deviation above the prize can ever pay under linear cost.
        assert grid.x_max >= 2.0 + grid.h - 1e-12

    def test_for_contest_covers_quadratic_cost_deviations(self):
        spec = make_contest(family="jia-diff", v1=2.0, v2=1.0, q=0.5, k=2)
        grid = GridSpec.for_contest(spec, steps=1001)
        assert grid.x_max >= math.sqrt(4.0) + grid.h - 1e-12

    def test_for_contest_divides_first_only_where_the_product_overflows(self):
        # bound * (steps - 1) overflows at a linear-cost prize of 1.7e308, though
        # the ceiling itself is finite; every other grid keeps its bits
        top = make_contest(family="jia-ratio", v1=1.7e308, v2=1.0, q=0.5, r=0.5, k=2)
        assert GridSpec.for_contest(top, steps=101).x_max == 1.7e308 / 99 * 100
        assert GridSpec.for_contest(SHARP_RATIO, steps=2001).x_max == 2.0 * 2000 / 1999

    def test_for_contest_takes_the_largest_double_where_both_orders_overflow(self):
        spec = make_contest(family="jia-ratio", v1=sys.float_info.max, v2=1.0, q=0.5, r=0.5, k=2)
        assert GridSpec.for_contest(spec, steps=101).x_max == sys.float_info.max

    @pytest.mark.parametrize("family, params, rival", [
        ("blavatskyy-power", dict(r=1.0), 1.0), ("blavatskyy-power", dict(r=0.5), 1.0),
        ("blavatskyy-power", dict(r=1.0), 1e308), ("blavatskyy-power", dict(r=0.5), 1e308),
        ("jia-ratio", dict(r=0.5, k=2.0), 1e307), ("vesperoni-ratio", dict(r=0.5, k=1.5), 1e307),
    ])
    def test_solves_at_the_largest_prize_verify(self, family, params, rival):
        """Under linear cost the break-even effort is the prize itself, so the grid
        runs to the largest double; no payoff on it overflows or leaks a warning."""
        for v1, v2 in ((sys.float_info.max, rival), (rival, sys.float_info.max)):
            spec = make_contest(family=family, v1=v1, v2=v2, q=0.3, **params)
            report = verify(spec, solve(spec), GridSpec.for_contest(spec, steps=101))
            assert report.passed and report.payoff_losses == (0.0, 0.0), (v1, v2)

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
        # `verify` reports on this claim; a lone best response still refuses it
        with pytest.raises(DomainError, match="outside the grid range"):
            grid_best_response(ABOVE_CEILING, ABOVE_CEILING_CLAIM[1],
                               GridSpec.for_contest(ABOVE_CEILING, steps=101))

    def test_player_index_validated(self):
        with pytest.raises(ValidationError):
            grid_best_response(TULLOCK, 0.5, GridSpec(x_max=1.0, steps=11), player=3)

    def test_takes_every_step_count_that_grid_spec_takes(self):
        x, _ = grid_best_response(TULLOCK, 0.25, GridSpec(x_max=1.0, steps=MAX_COUNT))
        assert x == pytest.approx(0.25, abs=1e-6)


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

    def test_profiles_sorted_lexicographically(self):
        """In exact arithmetic the Tullock contest has four equilibria on this
        grid, (0.2, 0.2), (0.2, 0.3), (0.3, 0.2) and (0.3, 0.3), each at an exact
        payoff tie; which ties the float payoffs keep is rounding, so each
        returned profile must be one of the four."""
        tenths = [Fraction(i, 10) for i in range(11)]

        def win(x, y):  # v = 1, p = x / (x + y), (0, 0) scored at theta = 1
            return x / (x + y) - x if x + y else Fraction(1, 2)

        exact = {(x, y) for x in tenths for y in tenths
                 if win(x, y) == max(win(t, y) for t in tenths)
                 and win(y, x) == max(win(t, x) for t in tenths)}
        assert exact == {(Fraction(a, 10), Fraction(b, 10)) for a in (2, 3) for b in (2, 3)}
        points = grid_nash(TULLOCK, GridSpec(x_max=1.0, steps=11))
        keys = [(p.x1, p.x2) for p in points]
        assert keys and keys == sorted(keys)
        assert {(Fraction(round(10 * a), 10), Fraction(round(10 * b), 10)) for a, b in keys} <= exact

    def test_grid_beyond_the_cell_budget_is_refused_before_its_scan(self, monkeypatch):
        """The scan takes time quadratic in the steps, so a grid of more than
        `MAX_SCAN_CELLS` cells raises, naming its steps and the ceiling, before
        any block of payoffs is evaluated.  The ceiling admits the 4001-step grid."""
        ceiling = math.isqrt(oracle.MAX_SCAN_CELLS)
        assert ceiling >= 4001

        def columns_only(spec, x1, x2, outcome=None):
            assert np.ndim(x1) < 2, "grid_nash started its scan"
            return payoffs(spec, x1, x2, outcome)

        monkeypatch.setattr(oracle, "payoffs", columns_only)
        for steps in (ceiling + 1, MAX_COUNT):
            with pytest.raises(ValidationError,
                               match=f" {steps} steps exceed the ceiling of {ceiling}$"):
                grid_nash(TULLOCK, GridSpec(x_max=1.0, steps=steps))


def _full_payoff_matrices(spec, grid):
    """Both n x n payoff matrices, player-1 efforts on rows, from `outcome` and `cost`."""
    axis = grid.axis()
    win1, win2, tie = spec.csf.outcome(axis[:, None], axis[None, :])
    q = spec.tie.q
    cost = spec.cost.cost(axis)
    pay1 = spec.v1 * (win1 + q * tie) - cost[:, None]
    pay2 = spec.v2 * (win2 + (1.0 - q) * tie) - cost[None, :]
    return pay1, pay2


def _reference_grid_nash(spec, grid):
    """Grid equilibria from the full matrices: every cell's exact best-response test at once."""
    axis = grid.axis()
    pay1, pay2 = _full_payoff_matrices(spec, grid)
    best1 = pay1 >= np.max(pay1, axis=0, keepdims=True)
    best2 = pay2 >= np.max(pay2, axis=1, keepdims=True)
    return [EffortProfile(float(axis[i]), float(axis[j])) for i, j in np.argwhere(best1 & best2)]


def _reference_contests(seed: int = 1407):
    """Seeded contests over all five families plus concave r = 1, both label orders."""
    rng = np.random.default_rng(seed)
    k = float(rng.uniform(1.0, 4.0))
    families = [
        ("vesperoni-ratio", dict(r=float(rng.uniform(0.1, 1.0)) / k, k=k)),
        ("jia-ratio", dict(r=float(rng.uniform(0.1, 1.0)), k=k)),
        ("vesperoni-diff", dict(k=k)),
        ("jia-diff", dict(k=k)),
        ("blavatskyy-power", dict(r=float(rng.uniform(0.1, 0.9)))),
        ("blavatskyy-power", dict(r=1.0)),
    ]
    contests = []
    for family, params in families:
        strong = float(rng.uniform(1.0, 3.0))
        weak = strong / float(rng.uniform(1.0, 3.0))
        q = float(rng.uniform(0.0, 1.0))
        for v1, v2 in ((strong, weak), (weak, strong)):
            contests.append(make_contest(family, v1=v1, v2=v2, q=q, **params))
    return contests


@pytest.mark.parametrize("spec", _reference_contests(),
                         ids=lambda s: f"{s.csf.name}-r{s.csf.params.get('r')}-v1_{s.v1:.3g}")
@pytest.mark.parametrize("steps, block_rows", [(57, 7), (150, 16), (401, None)])
def test_grid_nash_matches_the_full_matrix_reference(monkeypatch, spec, steps, block_rows):
    """Each case spans several row blocks and ends on a ragged one: 7 and 16
    rows by a shrunk cell budget, and the real budget's rows at 401 steps."""
    if block_rows is not None:
        monkeypatch.setattr(oracle, "_BLOCK_CELLS", block_rows * steps)
    rows = oracle._BLOCK_CELLS // steps
    assert 1 < rows < steps and steps % rows != 0
    grid = GridSpec.for_contest(spec, steps=steps)
    assert grid_nash(spec, grid) == _reference_grid_nash(spec, grid)


def test_grid_nash_drops_player_two_best_cells_that_fail_player_one(monkeypatch):
    """Most of player 2's best cells are not best for player 1, so the kept
    candidates outnumber the output."""
    monkeypatch.setattr(oracle, "_BLOCK_CELLS", 5 * 41)
    grid = GridSpec(x_max=1.0, steps=41)
    points = grid_nash(SHARP_RATIO, grid)
    pay1, pay2 = _full_payoff_matrices(SHARP_RATIO, grid)
    best2 = pay2 >= np.max(pay2, axis=1, keepdims=True)
    assert 0 < len(points) < int(best2.sum()) // 2
    assert points == _reference_grid_nash(SHARP_RATIO, grid)


@pytest.mark.parametrize("spec, steps", [
    *((spec, steps) for steps in (57, 150) for spec in _reference_contests()),
    (_reference_contests()[2], 35),  # no grid equilibrium
    (TULLOCK, 24),  # four grid equilibria
], ids=lambda case: f"{case.csf.name}-v1_{case.v1:.3g}" if hasattr(case, "csf") else str(case))
def test_verify_reports_the_first_nearest_grid_equilibrium(spec, steps):
    """`nearest_nash` is the first of the reference equilibria, in their
    lexicographic order, at the least Chebyshev distance from the claim, and
    `nash_distance` is that distance; both are None when the grid has none.
    The claims are seeded draws on the grid square and the midpoints of pairs
    of equilibria, where distances tie."""
    grid = GridSpec.for_contest(spec, steps=steps)
    reference = _reference_grid_nash(spec, grid)
    rng = np.random.default_rng(steps)
    claims = [tuple(rng.uniform(0.0, grid.x_max, 2).tolist()) for _ in range(4)]
    claims += [((a.x1 + b.x1) / 2, (a.x2 + b.x2) / 2)
               for a, b in itertools.combinations(reference, 2)]
    ties = 0
    for claim in claims:
        report = verify(spec, claim, grid)
        if not reference:
            assert report.nearest_nash is None and report.nash_distance is None
            continue
        dists = [max(abs(p.x1 - claim[0]), abs(p.x2 - claim[1])) for p in reference]
        first = dists.index(min(dists))
        ties += dists.count(dists[first]) > 1
        assert (report.nearest_nash, report.nash_distance) == (reference[first], dists[first])
    assert ties > 0 if len(reference) > 1 else ties == 0


@pytest.mark.parametrize("block_rows", [1, 3])
@pytest.mark.parametrize("spec, grid", [
    (TULLOCK, GridSpec(1.0, 11)),
    (TULLOCK, GridSpec(1.0, 41)),
    (TULLOCK, GridSpec(1.0, 81)),
    (TULLOCK, GridSpec.for_contest(TULLOCK, 24)),
    (TULLOCK, GridSpec.for_contest(TULLOCK, 57)),
    (SHARP_RATIO, GridSpec.for_contest(SHARP_RATIO, 11)),
], ids=lambda case: f"{case.csf.name}-k{case.csf.params['k']:g}" if hasattr(case, "csf")
   else f"x{case.x_max:.4g}-n{case.steps}")
def test_grid_nash_keeps_exact_payoff_ties_across_row_blocks(monkeypatch, spec, grid, block_rows):
    """On these grids some best responses tie exactly: a row of player 2's
    payoffs or a column of player 1's has more than one maximum, and the
    11- and 24-step TULLOCK grids have 3 and 4 equilibria.  With one row per
    block every tied column spans blocks; with three, some do.  Every tied
    cell must survive the blocked scan, so the output is the reference's."""
    pay1, pay2 = _full_payoff_matrices(spec, grid)
    ties1 = (pay1 == np.max(pay1, axis=0, keepdims=True)).sum(axis=0) > 1
    ties2 = (pay2 == np.max(pay2, axis=1, keepdims=True)).sum(axis=1) > 1
    assert ties1.any() or ties2.any()
    monkeypatch.setattr(oracle, "_BLOCK_CELLS", block_rows * grid.steps)
    assert oracle._BLOCK_CELLS // grid.steps == block_rows
    assert grid_nash(spec, grid) == _reference_grid_nash(spec, grid)


def test_verify_peak_memory_stays_flat_in_the_grid_size():
    """`grid_nash` holds no n x n matrix: the traced peak of `verify` stays
    under 30 MB and grows by under 25% from 1001 to 2001 steps."""
    eq = solve(SHARP_RATIO)
    peaks = []
    for steps in (1001, 2001):
        grid = GridSpec.for_contest(SHARP_RATIO, steps=steps)
        tracemalloc.start()
        try:
            verify(SHARP_RATIO, eq, grid)
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            tracemalloc.stop()
    assert max(peaks) < 30.0, peaks
    assert max(peaks) <= 1.25 * min(peaks), peaks


class TestVerify:
    def test_closed_form_survives_brute_force(self):
        grid = GridSpec(x_max=2.0, steps=2001)
        report = verify(SHARP_RATIO, solve(SHARP_RATIO), grid)
        assert report.passed
        assert max(report.payoff_losses) <= 1e-6
        assert report.nash_distance <= grid.h

    def test_quadratic_costs_past_the_double_range_are_quiet(self):
        """At a prize near the largest double the grid reaches about 1.9e154, where the
        quadratic cost x^2 / 2 overflows to inf: the cost has its sign, the verdict
        stands and no NumPy overflow warning leaks (the suite makes one an error)."""
        spec = make_contest(family="jia-diff", v1=1.7e308, v2=1e300, q=0.3, k=2)
        grid = GridSpec.for_contest(spec, 21)
        assert grid.x_max > 1.9e154
        assert verify(spec, solve(spec, force=True), grid).passed

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

    def test_no_exact_grid_equilibrium_is_noted(self):
        spec = make_contest(family="jia-ratio", v1=2.0, v2=0.5, q=0.3, r=1.0, k=2)
        report = verify(spec, solve(spec), GridSpec.for_contest(spec, steps=11))
        assert report.nearest_nash is None and report.nash_distance is None
        assert "no exact grid equilibrium exists at this resolution" in report.notes

    def test_band_is_the_rounding_floor_at_every_step(self):
        """No grid point beats a true best response, so the band forgives
        rounding alone, whatever the pitch, and the loss stays exactly 0."""
        eq = solve(TULLOCK)
        for steps in (251, 501, 1001):
            report = verify(TULLOCK, eq, GridSpec(x_max=1.0, steps=steps))
            assert report.passed
            assert report.payoff_losses == (0.0, 0.0)
            assert report.bands == (oracle.BAND_FLOOR_REL, oracle.BAND_FLOOR_REL)

    @pytest.mark.parametrize("contest, profile, steps", [
        (dict(family="vesperoni-diff", k=6.022162110116971, v1=4.5930743098969975,
              v2=0.6250700980082916, q=0.018592499748740332),
         (0.6632399038831392, 0.09026011855064908), 2001),
        (dict(family="vesperoni-diff", k=2818154.73110268, v1=225610.73794694318,
              v2=19369.695882945667, q=0.3162147603572901), (0.0, 0.0), 101),
    ], ids=["bitscan-6332", "bitscan-377"])
    def test_a_grid_point_that_beats_the_claim_refutes_it(self, contest, profile, steps):
        """Profiles that `solve` returned for two `tools/bitscan.py` draws: a grid
        point beats each by more than 1e-3 of the player's prize, which a band
        of 2 * slope * h forgave."""
        spec = make_contest(**contest)
        report = verify(spec, profile, GridSpec.for_contest(spec, steps=steps))
        assert not report.passed
        assert max(loss / prize for loss, prize
                   in zip(report.payoff_losses, (spec.v1, spec.v2))) > 1e-3

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

    def test_one_payoff_column_per_player(self, monkeypatch):
        """Each player's best deviation and loss come from one payoff column;
        the other scans are `grid_nash`'s two-dimensional blocks."""
        shapes = []

        def counted(spec, x1, x2, outcome=None):
            shapes.append(np.broadcast(np.asarray(x1), np.asarray(x2)).shape)
            return payoffs(spec, x1, x2, outcome)

        monkeypatch.setattr(oracle, "payoffs", counted)
        verify(SHARP_RATIO, solve(SHARP_RATIO), GridSpec(x_max=2.0, steps=201))
        assert [shape for shape in shapes if len(shape) != 2] == [(201,), (201,)]

    def test_claim_above_the_grid_ceiling_gets_a_failing_report(self):
        """Both efforts cost more than either prize, so staying out beats them."""
        grid = GridSpec.for_contest(ABOVE_CEILING, steps=101)
        assert max(ABOVE_CEILING_CLAIM) > grid.x_max
        report = verify(ABOVE_CEILING, ABOVE_CEILING_CLAIM, grid)
        assert not report.passed
        assert report.best_responses == (0.0, 0.0)
        assert min(report.payoff_losses) > 6e4

    @pytest.mark.parametrize("spec, notes", [
        (TULLOCK, (RatioCsf.zero_effort_note,)),
        (make_contest(family="jia-diff", v1=1.5, v2=0.5, q=0.25, k=2), ()),
        (make_contest(family="blavatskyy-power", v1=4.0, v2=2.0, q=0.5, r=1.0), ()),
    ])
    def test_the_family_states_its_zero_effort_note(self, spec, notes):
        report = verify(spec, solve(spec), GridSpec.for_contest(spec, steps=201))
        assert report.notes == notes

    def test_json_dict_shape(self):
        report = verify(TULLOCK, (0.25, 0.25), GridSpec(x_max=1.0, steps=101))
        doc = report.to_json_dict()
        for key in ("profile", "payoff_losses", "bands", "passed", "nash_distance"):
            assert key in doc


def _design_contests(family, count, seed=4118):
    """Seeded design-scale contests of one family: prizes 0.1 to 10 at a ratio
    up to 10 in either label order, k in [1, 10], r in [0.05, 0.95] (a
    Vesperoni ratio family's r is divided by k; half the concave ones take
    linear impact r = 1), and a uniform tie rule."""
    rng = np.random.default_rng([seed, list(FAMILIES).index(family)])
    for _ in range(count):
        strong = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        weak = strong / math.exp(rng.uniform(0.0, math.log(10.0)))
        k, r = float(rng.uniform(1.0, 10.0)), float(rng.uniform(0.05, 0.95))
        params = {"vesperoni-ratio": dict(r=r / k, k=k), "jia-ratio": dict(r=r, k=k),
                  "blavatskyy-power": dict(r=r if rng.random() < 0.5 else 1.0)}
        v1, v2 = (strong, weak) if rng.random() < 0.5 else (weak, strong)
        yield make_contest(family, v1=v1, v2=v2, q=float(rng.random()),
                           **params.get(family, dict(k=k)))


def _grid_gain(spec, claim, player, axis):
    """`player`'s best payoff on `axis` less their claimed payoff, against the
    rival's claimed effort, from `outcome` and `cost` alone."""
    prize, tie_share = (spec.v1, spec.q) if player == 1 else (spec.v2, 1.0 - spec.q)

    def pay(own):
        x1, x2 = (own, claim[1]) if player == 1 else (claim[0], own)
        outcome = spec.csf.outcome(x1, x2)
        return prize * (outcome[player - 1] + tie_share * outcome[2]) - spec.cost.cost(own)

    return float(np.max(pay(axis)) - pay(claim[player - 1]))


@pytest.mark.parametrize("family", FAMILIES)
def test_verify_passes_audited_solutions_and_refutes_beaten_claims(family):
    """On seeded design-scale contests, every solution of a contest that passes
    its audit passes `verify`.  A claim with one effort moved off it fails
    whenever a grid point, recomputed here, beats the claim by more than the
    rounding floor; the report's loss is that gain."""
    passed = beaten = 0
    for spec in _design_contests(family, 100):
        if not audit_family(spec.csf, spec.valuations.v1).passed:
            continue
        try:
            eq = solve(spec)
        except ContestError:
            continue
        grid = GridSpec.for_contest(spec, steps=101)
        assert verify(spec, eq, grid).passed, spec
        passed += 1
        for claim in ((0.5 * eq.x1, eq.x2), (eq.x1, 0.5 * eq.x2 + grid.h)):
            report = verify(spec, claim, grid)
            for player, prize in ((1, spec.v1), (2, spec.v2)):
                gain = _grid_gain(spec, claim, player, grid.axis())
                floor = oracle.BAND_FLOOR_REL * max(prize, abs(payoff(spec, claim, player)), 1.0)
                assert report.bands[player - 1] == floor
                assert report.payoff_losses[player - 1] == pytest.approx(
                    max(gain, 0.0), rel=1e-9, abs=floor)
                if gain > 2.0 * floor:
                    assert not report.passed, (spec, claim, player)
                    beaten += 1
    assert passed >= 10 and beaten >= passed
