"""Numerical regularity audits: pass/fail semantics, witnesses, curvature bounds."""
from __future__ import annotations

import math

import numpy as np
import pytest

from tiebreak import (
    DomainError,
    ValidationError,
    audit_concave,
    audit_diff,
    audit_ratio,
    estimate_vbar,
    make_family,
)
from tiebreak.audit import (
    DEGENERATE_TIE_TOL,
    GRID_DISCLAIMER,
    RATIO_ZERO_CONVENTION_NOTE,
    TAIL_CAP,
    TAIL_START,
    TAIL_TOL,
    default_diff_grid,
    default_ratio_grid,
)

from helpers import DIFF_CASES, RATIO_CASES, build

# Independent finite-difference estimate of the curvature bound for the
# two-parameter logistic-difference family with doubled transition sharpness,
# frozen from a separate script that never imported the package's derivative
# code (central differences of the win probability at step 1e-4 over a
# 4001-point grid on [-12, 12], all tie shares in {0, 0.25, 0.5, 0.75, 1}).
FROZEN_FD_CURVATURE_BOUND_JIA_DIFF_K2 = 10.392301876527592

RATIO_CONDITIONS = {
    "win_prob_increasing",
    "own_payoff_concavity",
    "rival_payoff_concavity",
    "vanishes_at_zero",
    "saturates_at_infinity",
    "tie_prob_vanishes_at_zero",
    "tie_prob_unimodal",
}
DIFF_CONDITIONS = {
    "win_prob_increasing",
    "curvature_within_prize_bound",
    "tie_prob_unimodal",
}


SLOW_SATURATION_CASE = ("vesperoni-ratio", dict(r=0.25, k=3))
FAST_RATIO_CASES = [case for case in RATIO_CASES if case != SLOW_SATURATION_CASE]


class TestRatioAudit:
    @pytest.mark.parametrize("case", FAST_RATIO_CASES, ids=str)
    def test_all_reference_points_pass(self, case):
        report = audit_ratio(build(case))
        assert report.passed, report.failures

    def test_slow_saturation_cannot_be_certified(self):
        """A family approaching its limits slower than the probe cap fails
        the tail conditions honestly, with the witness at the cap."""
        report = audit_ratio(build(SLOW_SATURATION_CASE))
        assert not report.passed
        cond = report.condition("saturates_at_infinity")
        assert not cond.passed
        assert cond.witness_theta == pytest.approx(1e12)
        assert cond.violation == pytest.approx(3e-3, rel=0.1)

    def test_condition_roster(self):
        report = audit_ratio(make_family("jia-ratio", r=1.0, k=2))
        assert {c.name for c in report.conditions} == RATIO_CONDITIONS

    def test_report_carries_grid_and_disclaimer(self):
        report = audit_ratio(make_family("vesperoni-ratio", r=0.5, k=2))
        assert report.disclaimer == GRID_DISCLAIMER
        assert report.theta_min == pytest.approx(1e-3)
        assert report.theta_max == pytest.approx(1e3)
        assert report.theta_count == 2001
        assert report.q_values == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert RATIO_ZERO_CONVENTION_NOTE in report.notes

    def test_curvature_range_ordered_and_no_bound_for_ratio(self):
        report = audit_ratio(make_family("jia-ratio", r=1.0, k=2))
        assert report.m <= report.M
        assert report.vbar is None

    def test_tail_probe_extends_below_grid(self):
        """Saturation checks walk beyond the grid edge and record the probe."""
        report = audit_ratio(make_family("vesperoni-ratio", r=0.5, k=2))
        cond = report.condition("vanishes_at_zero")
        assert cond.passed
        assert cond.witness_theta is not None and cond.witness_theta < 1e-3

    def test_degenerate_tie_mass_noted_not_failed(self):
        """With no tie mass at all, the vacuous unimodality check passes with
        an explicit degeneracy note and the limit checks pass trivially."""
        report = audit_ratio(make_family("jia-ratio", r=1.0, k=1))
        assert report.passed
        assert "degenerate" in report.condition("tie_prob_unimodal").note
        assert report.condition("tie_prob_vanishes_at_zero").passed

    def test_rejects_wrong_family_kind(self):
        with pytest.raises(ValidationError):
            audit_ratio(make_family("jia-diff", k=2))

    def test_json_dict_round_trips_key_fields(self):
        report = audit_ratio(make_family("jia-ratio", r=1.0, k=2))
        doc = report.to_json_dict()
        assert doc["family"] == "jia-ratio"
        assert doc["passed"] is True
        assert len(doc["conditions"]) == len(RATIO_CONDITIONS)
        assert doc["grid"]["theta_count"] == 2001


def _stepped_tail(evaluate, start: float, direction: str):
    """Reference tail check: one scalar probe at a time, stepping out by 10x."""
    point = start
    gap = float(evaluate(point))
    while gap > TAIL_TOL:
        nxt = point * 10.0 if direction == "up" else point / 10.0
        if direction == "up" and nxt > TAIL_CAP:
            break
        if direction == "down" and nxt < 1.0 / TAIL_CAP:
            break
        point = nxt
        gap = float(evaluate(point))
    passed = gap <= TAIL_TOL
    return point, passed, 0.0 if passed else gap


def _seeded_ratio_families(seed: int = 8, count: int = 40):
    rng = np.random.default_rng(seed)
    for i in range(count):
        name = ("vesperoni-ratio", "jia-ratio")[i % 2]
        r = float(10.0 ** rng.uniform(-3.0, 0.3))
        k = float(10.0 ** rng.uniform(0.0, 3.0))
        yield make_family(name, r=r, k=k)


class TestTailLadder:
    """The vector ladder settles each tail where the scalar stepping loop does."""

    def test_matches_the_scalar_stepping_loop(self):
        qs = (0.0, 0.25, 0.5, 0.75, 1.0)
        failures = 0
        for csf in _seeded_ratio_families():
            report = audit_ratio(csf)
            low, high = min(1e-3, 1.0 / TAIL_START), max(1e3, TAIL_START)
            references = {
                "vanishes_at_zero": _stepped_tail(
                    lambda pt: max(abs(csf.z(pt, q)) for q in qs), low, "down"),
                "saturates_at_infinity": _stepped_tail(
                    lambda pt: max(abs(1.0 - csf.z(pt, q)) for q in qs), high, "up"),
                "tie_prob_vanishes_at_zero": _stepped_tail(
                    lambda pt: abs(csf.p0(pt)), low, "down"),
            }
            for name, (point, passed, violation) in references.items():
                record = report.condition(name)
                assert record.witness_theta == point, (csf, name)
                assert record.passed is passed, (csf, name)
                # Gaps are differences of probabilities of order one, where vector
                # and scalar pow may round apart by an ulp of one.
                assert abs(record.violation - violation) <= 4.0 * math.ulp(1.0), (csf, name)
                failures += not passed
        assert failures >= 5


class TestDiffAudit:
    @pytest.mark.parametrize("case", DIFF_CASES, ids=str)
    def test_small_prize_passes(self, case):
        report = audit_diff(build(case), v1=0.5)
        assert report.passed, report.failures

    def test_condition_roster(self):
        report = audit_diff(make_family("jia-diff", k=2), v1=1.0)
        assert {c.name for c in report.conditions} == DIFF_CONDITIONS

    def test_curvature_bound_binds_for_large_prizes(self):
        csf = make_family("jia-diff", k=1)
        assert audit_diff(csf, v1=5.0).passed
        report = audit_diff(csf, v1=20.0)
        assert not report.passed
        cond = report.condition("curvature_within_prize_bound")
        assert not cond.passed
        assert cond.violation > 0.0
        # Curvature of the logistic peaks near 1.32 effort-gap units from even.
        assert cond.witness_theta == pytest.approx(-1.3169, abs=2e-2)

    def test_curvature_range_and_reported_bound(self):
        report = audit_diff(make_family("jia-diff", k=2), v1=1.0)
        assert report.m <= report.M
        assert report.vbar == pytest.approx(1.0 / max(abs(report.m), abs(report.M)))

    def test_violation_grows_with_refinement(self):
        """A failing audit cannot be rescued by probing a finer grid."""
        csf = make_family("jia-diff", k=1)
        coarse = audit_diff(csf, v1=20.0, theta_grid=default_diff_grid(501))
        fine = audit_diff(csf, v1=20.0, theta_grid=default_diff_grid(4001))
        worst_coarse = coarse.condition("curvature_within_prize_bound").violation
        worst_fine = fine.condition("curvature_within_prize_bound").violation
        assert not coarse.passed and not fine.passed
        assert worst_fine >= worst_coarse - 1e-15

    def test_prize_must_be_positive(self):
        with pytest.raises(ValidationError):
            audit_diff(make_family("jia-diff", k=2), v1=0.0)

    def test_rejects_wrong_family_kind(self):
        with pytest.raises(ValidationError):
            audit_diff(make_family("jia-ratio", r=1.0, k=2), v1=1.0)


class TestCurvatureBoundEstimate:
    def test_matches_analytic_value_for_logistic(self):
        """The tieless logistic curvature extremum is 1/(6*sqrt(3)) exactly."""
        value = estimate_vbar(make_family("jia-diff", k=1))
        assert value == pytest.approx(6.0 * math.sqrt(3.0), rel=1e-4)

    def test_matches_frozen_independent_estimate(self):
        value = estimate_vbar(make_family("jia-diff", k=2))
        assert value == pytest.approx(FROZEN_FD_CURVATURE_BOUND_JIA_DIFF_K2, rel=1e-5)

    def test_equivalent_families_agree_at_k1(self):
        a = estimate_vbar(make_family("jia-diff", k=1))
        b = estimate_vbar(make_family("vesperoni-diff", k=1))
        assert a == pytest.approx(b, rel=1e-12)

    def test_refinement_only_tightens_the_bound(self):
        csf = make_family("vesperoni-diff", k=2)
        coarse = estimate_vbar(csf, theta_grid=default_diff_grid(501))
        fine = estimate_vbar(csf, theta_grid=default_diff_grid(8001))
        assert fine <= coarse + 1e-15

    def test_rejects_wrong_family_kind(self):
        with pytest.raises(ValidationError):
            estimate_vbar(make_family("jia-ratio", r=1.0, k=2))


class TestConcaveAudit:
    @pytest.mark.parametrize("r", [0.3, 0.7, 1.0])
    def test_admissible_exponents_pass(self, r):
        report = audit_concave(make_family("blavatskyy-power", r=r))
        assert report.passed, report.failures
        assert {c.name for c in report.conditions} == {
            "impact_increasing",
            "impact_concave",
        }

    def test_rejects_wrong_family_kind(self):
        with pytest.raises(ValidationError):
            audit_concave(make_family("jia-diff", k=2))


class TestGridHelpers:
    def test_default_grids_have_documented_shape(self):
        ratio = default_ratio_grid()
        diff = default_diff_grid()
        assert len(ratio) == 2001 and len(diff) == 2001
        assert ratio[0] == pytest.approx(1e-3) and ratio[-1] == pytest.approx(1e3)
        assert diff[0] == -10.0 and diff[-1] == 10.0
        assert np.all(np.diff(ratio) > 0)

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            audit_ratio(make_family("jia-ratio", r=1.0, k=2), theta_grid=np.array([1.0]))
        with pytest.raises(DomainError):
            audit_ratio(
                make_family("jia-ratio", r=1.0, k=2),
                theta_grid=np.array([-1.0, 1.0, 2.0]),
            )

    def test_degenerate_tolerance_is_tiny(self):
        assert DEGENERATE_TIE_TOL <= 1e-12
