"""Numerical regularity audits: pass/fail semantics, witnesses, curvature bounds."""
from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from tiebreak import (
    ContestError,
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
    TAIL_CAP,
    TAIL_TOL,
    audit_family,
    default_diff_grid,
    default_ratio_grid,
)
import tiebreak.audit as audit_mod
from tiebreak.core import count_value
from tiebreak.families import LANES, RatioCsf

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
        assert RatioCsf.zero_effort_note in report.notes

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
        assert doc["grid"] == {"theta_min": 1e-3, "theta_max": 1e3, "theta_count": 2001}


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
            low, high = 1e-3, 1e3  # the grid's ends
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
        assert report.vbar == 1.0 / max(abs(report.m), abs(report.M))

    def test_violation_grows_with_refinement(self):
        """A failing audit cannot be rescued by probing a finer grid."""
        csf = make_family("jia-diff", k=1)
        coarse = audit_diff(csf, v1=20.0, grid_points=501)
        fine = audit_diff(csf, v1=20.0, grid_points=4001)
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
        coarse = audit_diff(csf, 1.0, grid_points=501).vbar
        fine = audit_diff(csf, 1.0, grid_points=8001).vbar
        assert fine <= coarse + 1e-15

    def test_rejects_wrong_family_kind(self):
        with pytest.raises(ValidationError):
            estimate_vbar(make_family("jia-ratio", r=1.0, k=2))

    def test_flat_curvature_on_the_grid_has_no_bound(self):
        # at k = 1e9 the win probability is a step at theta = 0 whose curvature
        # underflows to zero at every grid point: the report has no vbar, and
        # the estimate raises
        csf = make_family("vesperoni-diff", k=1e9)
        report = audit_diff(csf, 1.0)
        assert report.m == report.M == 0.0 and report.vbar is None
        with pytest.raises(DomainError, match="^eventual-win-probability curvature vanishes on "
                                              "the entire grid; the prize bound is unbounded$"):
            estimate_vbar(csf)


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


class TestReportRecord:
    def test_rejects_bounds_out_of_order(self):
        report = audit_ratio(make_family("jia-ratio", r=1.0, k=2))
        with pytest.raises(ValidationError, match=r"^audit bounds out of order: m=1\.0 > M=0\.0$"):
            dataclasses.replace(report, m=1.0, M=0.0)

    def test_unknown_condition_name_raises_key_error(self):
        report = audit_ratio(make_family("jia-ratio", r=1.0, k=2))
        with pytest.raises(KeyError, match="no_such_condition"):
            report.condition("no_such_condition")


class TestGridHelpers:
    def test_default_grids_have_documented_shape(self):
        ratio = default_ratio_grid()
        diff = default_diff_grid()
        assert len(ratio) == 2001 and len(diff) == 2001
        assert ratio[0] == pytest.approx(1e-3) and ratio[-1] == pytest.approx(1e3)
        assert diff[0] == -10.0 and diff[-1] == 10.0
        assert np.all(np.diff(ratio) > 0)

    @pytest.mark.parametrize("audit, args, make", [
        (audit_ratio, ("jia-ratio", {"r": 0.8, "k": 3.0}), default_ratio_grid),
        (audit_diff, ("jia-diff", {"k": 2.0}, 1.0), default_diff_grid),
        (audit_concave, ("blavatskyy-power", {"r": 0.5}), default_ratio_grid),
    ], ids=["ratio", "diff", "concave"])
    def test_an_audit_probes_its_kinds_grid_at_a_count(self, audit, args, make):
        csf = make_family(args[0], **args[1])
        for points in (2, 3, 501):
            report = audit(csf, *args[2:], grid_points=points)
            grid = make(points)
            assert (report.theta_min, report.theta_max, report.theta_count) == (
                grid[0], grid[-1], points)
            shared = audit_mod._kind_grid(make is default_ratio_grid, points)
            assert shared is audit_mod._kind_grid(make is default_ratio_grid, points)
            assert not shared.flags.writeable and np.array_equal(shared, grid)

    def test_public_default_grids_are_fresh_and_writable(self):
        csf = make_family("jia-ratio", r=0.8, k=3)
        before = audit_ratio(csf).to_json_dict()
        for make in (default_ratio_grid, default_diff_grid):
            grid = make()
            assert grid.flags.writeable
            grid[:] = 7.0
            assert make() is not grid and make()[0] != 7.0
        assert audit_ratio(csf).to_json_dict() == before

    def test_degenerate_tolerance_is_tiny(self):
        assert DEGENERATE_TIE_TOL <= 1e-12


# Recorded reports; the cases cover all five families, failing audits with
# witnesses, other resolutions, overflowing shares and rejected inputs.
# NumPy's AVX-512 kernels for float64 exp, log and power round some last
# bits differently from its other kernels, so each case holds the result
# under AVX-512 dispatch ("report" or "error") and, where it differs, the
# result without it ("without_avx512"); a host is compared exactly with its
# own target's.
AUDIT_RECORDS = Path(__file__).parent / "data" / "audit_parent.json"
PARENT_AUDITS = json.loads(AUDIT_RECORDS.read_text())["cases"]


def _dispatch_target() -> str:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # NumPy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    # NPY_DISABLE_CPU_FEATURES clears the flags of the targets it disables
    return "avx512" if __cpu_features__.get("AVX512_SKX") else "without_avx512"


def _recorded_result(case) -> dict:
    csf = make_family(case["family"], **case["params"])
    args = (csf, case["v1"]) if "v1" in case else (csf,)
    try:
        return {"report": getattr(audit_mod, case["audit"])(*args, **case["kwargs"]).to_json_dict()}
    except (ContestError, ValueError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _avx512_result(case) -> dict:
    return {key: case[key] for key in ("report", "error") if key in case}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", PARENT_AUDITS,
                         ids=lambda c: f"{c['audit']}-{c['family']}-{sorted(c['kwargs'])}")
def test_report_equals_the_recorded_report(case):
    want = _avx512_result(case)
    if _dispatch_target() == "without_avx512":
        want = case.get("without_avx512", want)
    # compared as JSON text, so an inf or nan in a report compares equal to itself
    assert json.dumps(_recorded_result(case), sort_keys=True) == json.dumps(want, sort_keys=True)


def main() -> None:
    """Re-record every case for this host's dispatch target.  Run it on a host
    with AVX-512 first as it is, then with that dispatch off:

        PYTHONPATH=src python tests/test_audit.py
        NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" \\
            PYTHONPATH=src python tests/test_audit.py
    """
    doc = json.loads(AUDIT_RECORDS.read_text())
    target = _dispatch_target()
    for case in doc["cases"]:
        got = _recorded_result(case)
        if target == "avx512":
            case.pop("report", None)
            case.pop("error", None)
            case.update(got)
        elif got != _avx512_result(case):
            case["without_avx512"] = got
        else:
            case.pop("without_avx512", None)
        if "without_avx512" in case:  # keys in a fixed order: inputs, result, result without
            case["without_avx512"] = case.pop("without_avx512")
    AUDIT_RECORDS.write_text(json.dumps(doc, indent=1))


# z_q is affine in q, so the audits form z_q' and z_q'' on the rows q = 0 and
# 1 only, from one share evaluation that a ratio family's tail ladder rides
# along in.  The reference below scans five rows q = 0, 0.25, ..., 1
# instead, `_zslopes` on each, p0 from `_triple` and the ladder's win and tie
# probabilities from an evaluation of their own; for k > 1 the reports must
# not move by a bit.
EVERY_ROW = (0.0, 0.25, 0.5, 0.75, 1.0)


def _every_row_slope_rows(csf, theta):
    zp, zpp = csf._zslopes(theta, np.array(EVERY_ROW)[:, None], LANES)
    tail = None
    if csf.kind == "ratio":
        win, _, tie = csf._triple(audit_mod._TAIL_POINTS, LANES)
        tail = win, tie
    return zp, zpp, zp[-1] - zp[0], csf._triple(theta, LANES)[2], tail


def _reference_audits(seed: int = 21, count: int = 160):
    """Seeded (audit, args, kwargs) for k > 1 families of all four reduced kinds."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        name = ("vesperoni-ratio", "jia-ratio", "vesperoni-diff", "jia-diff")[i % 4]
        k = float(10.0 ** rng.uniform(math.log10(1.5), 3.0))
        kwargs = {"grid_points": int(rng.integers(3, 400))} if i % 3 == 2 else {}
        if name.endswith("ratio"):
            csf = make_family(name, r=float(10.0 ** rng.uniform(-1.5, 0.6)), k=k)
            yield audit_ratio, (csf,), kwargs
        else:
            csf = make_family(name, k=k)
            yield audit_diff, (csf, float(10.0 ** rng.uniform(-1.0, 1.5))), kwargs
            yield estimate_vbar, (csf,), {}


def test_estimate_vbar_is_the_report_bound_bit_for_bit():
    pairs = 0
    for audit, args, _ in _reference_audits():
        if audit is audit_diff:
            csf, v1 = args
            assert estimate_vbar(csf) == audit_diff(csf, v1).vbar, args
            pairs += 1
    assert pairs >= 50


@pytest.mark.parametrize("audit, family, params", [
    (audit_ratio, "vesperoni-ratio", {"r": 0.3, "k": 2.0}),
    (audit_ratio, "jia-ratio", {"r": 0.8, "k": 3.0}),
    (audit_diff, "vesperoni-diff", {"k": 2.5}),
    (audit_diff, "jia-diff", {"k": 2.0}),
    (estimate_vbar, "jia-diff", {"k": 2.0}),
])
def test_an_audit_evaluates_the_family_once(monkeypatch, audit, family, params):
    """One share evaluation covers the grid, its two q rows and a ratio family's
    tail ladder: `_shares` runs once, and so does the one power or exponential
    every evaluation of a family's shares goes through."""
    csf = make_family(family, **params)
    calls = {"_shares": 0, "power_shares": 0, "np_exp": 0}

    def counted(name, call):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return call(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(type(csf), "_shares", counted("_shares", type(csf)._shares))
    monkeypatch.setattr(audit_mod, "LANES", LANES._replace(
        power_shares=counted("power_shares", LANES.power_shares),
        np_exp=counted("np_exp", LANES.np_exp)))
    audit(csf, *(() if audit is not audit_diff else (1.0,)))
    primitive = "power_shares" if csf.kind == "ratio" else "np_exp"
    assert calls == {"_shares": 1, "power_shares": 0, "np_exp": 0, primitive: 1}


@pytest.mark.parametrize("family, params, v1", [
    ("jia-ratio", {"r": 0.8, "k": 3.0}, None),
    ("jia-diff", {"k": 2.0}, 1.0),
    ("blavatskyy-power", {"r": 0.5}, None),
], ids=["ratio", "diff", "concave"])
def test_audit_family_checks_a_custom_count_once(monkeypatch, family, params, v1):
    """`audit_family` checks a custom count itself, before the prize, and the
    audit body it runs does not check it again."""
    calls = []

    def counted(value, name, low=2):
        calls.append((value, name))
        return count_value(value, name, low)

    monkeypatch.setattr(audit_mod, "count_value", counted)
    report = audit_family(make_family(family, **params), v1, grid_points=501)
    assert calls == [(501, "grid points")] and report.theta_count == 501


def test_audits_equal_the_every_row_table_for_k_above_one(monkeypatch):
    cases = list(_reference_audits())
    got = [audit(*args, **kwargs) for audit, args, kwargs in cases]
    monkeypatch.setattr(audit_mod, "_slope_rows", _every_row_slope_rows)
    monkeypatch.setattr(audit_mod, "_ENDS", EVERY_ROW)
    monkeypatch.setattr(audit_mod, "_END_ROWS", np.array(EVERY_ROW)[:, None])
    want = [audit(*args, **kwargs) for audit, args, kwargs in cases]
    witnesses = 0
    for (audit, args, kwargs), g, w in zip(cases, got, want):
        if audit is estimate_vbar:
            assert g == w, (args, kwargs)
            continue
        assert g.to_json_dict() == w.to_json_dict(), (args, kwargs)
        witnesses += sum(c.witness_q is not None for c in g.conditions)
    # failing audits whose witnesses sit on the row q = 0 or 1
    assert witnesses >= 40


@pytest.mark.parametrize("family, params, audit_args, condition", [
    ("jia-diff", {"k": 1.0}, (20.0,), "curvature_within_prize_bound"),
    ("vesperoni-diff", {"k": 1.0}, (20.0,), "curvature_within_prize_bound"),
    ("vesperoni-ratio", {"r": 2.0, "k": 1.0}, (), "own_payoff_concavity"),
])
def test_q_free_families_take_the_smallest_grid_q_as_witness(family, params, audit_args,
                                                             condition):
    # at k = 1 z_q does not depend on q: both rows are the same function, so
    # the worst value ties across q and resolves to the smaller, q = 0
    csf = make_family(family, **params)
    audit = audit_ratio if family.endswith("ratio") else audit_diff
    record = audit(csf, *audit_args).condition(condition)
    assert not record.passed
    assert record.witness_q == 0.0


EVERY_Q = np.linspace(0.0, 1.0, 41)[:, None]


def _fine_q_deficits(csf, theta, v1):
    """Each strict slope condition's deficit on every row of EVERY_Q, from the kernels."""
    zp, zpp = csf._zslopes(theta, EVERY_Q, LANES)
    if v1 is None:
        return {"win_prob_increasing": -zp, "own_payoff_concavity": zpp,
                "rival_payoff_concavity": -(2.0 * zp + theta * zpp)}
    return {"win_prob_increasing": -zp, "curvature_within_prize_bound": np.abs(zpp) - 1.0 / v1}


@pytest.mark.parametrize("family, params, v1", [
    ("vesperoni-ratio", {"r": 0.5, "k": 2.0}, None),
    ("vesperoni-ratio", {"r": 0.25, "k": 3.0}, None),
    ("vesperoni-ratio", {"r": 2.0, "k": 3.0}, None),
    ("vesperoni-ratio", {"r": 1.5, "k": 40.0}, None),
    ("jia-ratio", {"r": 0.5, "k": 2.0}, None),
    ("jia-ratio", {"r": 0.8, "k": 3.0}, None),
    ("jia-ratio", {"r": 2.0, "k": 5.0}, None),
    ("vesperoni-diff", {"k": 2.0}, 0.5),
    ("vesperoni-diff", {"k": 2.5}, 10.0),
    ("vesperoni-diff", {"k": 30.0}, 2.0),
    ("jia-diff", {"k": 2.0}, 0.5),
    ("jia-diff", {"k": 2.0}, 20.0),
    ("jia-diff", {"k": 5.0}, 3.0),
], ids=str)
def test_an_audit_speaks_for_every_tie_rule(family, params, v1):
    """z_q is affine in q, so the rows q = 0 and 1 decide each condition for
    every tie rule in [0, 1]: on a fine q grid a passed condition holds at
    every row, and a failed one is worst by its recorded violation, witnessed
    on the row q = 0 or 1.  Tail gaps at the settling probe behave alike."""
    csf = make_family(family, **params)
    report = audit_ratio(csf) if v1 is None else audit_diff(csf, v1)
    theta = default_ratio_grid() if v1 is None else default_diff_grid()
    for name, deficit in _fine_q_deficits(csf, theta, v1).items():
        record, worst = report.condition(name), float(deficit.max())
        if record.passed:
            assert worst <= audit_mod.STRICT_SLACK, name
        else:
            assert record.witness_q in (0.0, 1.0), record
            assert worst == pytest.approx(record.violation, rel=1e-9, abs=1e-15), name
    if v1 is None:
        for name, gap in (("vanishes_at_zero", np.abs),
                          ("saturates_at_infinity", lambda z: np.abs(1.0 - z))):
            record = report.condition(name)
            win, _, tie = csf._triple(np.array([record.witness_theta]), LANES)
            worst = float(gap(win + EVERY_Q * tie).max())
            assert (worst <= TAIL_TOL) is record.passed, name
            assert record.passed or worst == pytest.approx(record.violation, rel=1e-9), name


@pytest.mark.parametrize("audit, args, keyword", [
    (audit_ratio, (), "q_grid"), (audit_diff, (1.0,), "q_grid"), (estimate_vbar, (), "q_grid"),
    (audit_ratio, (), "theta_grid"), (audit_diff, (1.0,), "theta_grid"),
    (estimate_vbar, (), "theta_grid"), (audit_concave, (), "x_grid"),
], ids=lambda value: getattr(value, "__name__", str(value)))
def test_audits_take_no_custom_grid(audit, args, keyword):
    # every audit certifies every tie rule on its kind's whole window: no
    # keyword narrows it to a sub-range of q or theta, or of effort
    csf = {audit_ratio: make_family("jia-ratio", r=1.0, k=2.0),
           audit_concave: make_family("blavatskyy-power", r=0.5)}.get(
        audit, make_family("jia-diff", k=2.0))
    with pytest.raises(TypeError, match=keyword):
        audit(csf, *args, **{keyword: (0.5, 1.0)})


@pytest.mark.parametrize("family, params", [
    ("vesperoni-ratio", {"r": 0.3, "k": 2.0}), ("vesperoni-ratio", {"r": 2.0, "k": 1.0}),
    ("jia-ratio", {"r": 0.8, "k": 3.0}), ("jia-ratio", {"r": 88.95, "k": 2.72e6}),
    ("vesperoni-diff", {"k": 1.0}), ("vesperoni-diff", {"k": 7.5}),
    ("jia-diff", {"k": 1.0}), ("jia-diff", {"k": 1e6}),
])
def test_slope_rows_equal_the_kernels_bit_for_bit(family, params):
    """The one share evaluation of `_slope_rows`, on the grid with a ratio
    family's constant tail ladder appended, gives each kernel's bits on the
    grid and the ladder alone, overflowing grids included."""
    csf = make_family(family, **params)
    ratio = family.endswith("ratio")
    grids = [default_ratio_grid(), np.geomspace(1e-300, 1e300, 301)] if ratio else [
        default_diff_grid(), np.linspace(-700.0, 700.0, 301), np.linspace(0.0, 40.0, 101)]
    with np.errstate(all="ignore"):
        for theta in grids:
            zp, zpp, tie_slope, p0, tail = audit_mod._slope_rows(csf, theta)
            want = [csf._zslopes(theta, q, LANES) for q in (0.0, 1.0)]
            assert np.array_equal(zp, [slopes[0] for slopes in want], equal_nan=True)
            assert np.array_equal(zpp, [slopes[1] for slopes in want], equal_nan=True)
            assert np.array_equal(tie_slope, want[1][0] - want[0][0], equal_nan=True)
            assert np.array_equal(p0, csf._triple(theta, LANES)[2], equal_nan=True)
            if not ratio:
                assert [share.size for share in tail] == [0, 0]
                continue
            win, _, tie = csf._triple(audit_mod._TAIL_POINTS, LANES)
            assert np.array_equal(tail[0], win, equal_nan=True)
            assert np.array_equal(tail[1], tie, equal_nan=True)


def test_unimodality_split_equals_the_sign_selection():
    """The deficit is -slope left of the peak and slope right of it, the peak
    itself exempt; on an ascending grid it is cut at the peak's position."""
    rng = np.random.default_rng(2110)
    grids = [default_diff_grid(), default_ratio_grid(), np.linspace(-3.0, 3.0, 7),
             np.linspace(0.5, 4.0, 9), np.array([-2.0, 0.0, 0.0, 1.0])]
    failures = 0
    for theta in grids:
        for peak in (0.0, 1.0, -5.0, 5.0):
            for _ in range(20):
                slope = rng.normal(size=theta.size) * rng.choice([1e-14, 1e-3, 1.0])
                p0 = np.abs(rng.normal(size=theta.size))
                deficit = np.where(theta < peak, -slope, np.where(theta > peak, slope, -np.inf))
                want = audit_mod._strict_condition("tie_prob_unimodal", deficit[None, :], theta,
                                                   (None,), note=f"peak checked at theta = {peak}")
                got = audit_mod._unimodality_condition(theta, p0, slope, peak)
                assert got == want, (theta, peak)
                failures += not got.passed
    assert failures >= 100


if __name__ == "__main__":
    main()
