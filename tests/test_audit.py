"""Regularity audits: each condition a fact of the family's parameters, checked
against a dense grid scan of the family kernels."""
from __future__ import annotations

import collections
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from tiebreak import (
    ContestError,
    ValidationError,
    audit_concave,
    audit_diff,
    audit_ratio,
    estimate_vbar,
    make_family,
)
from tiebreak.audit import audit_family
import tiebreak.audit as audit_mod
from tiebreak.families import FAMILIES, LANES, RatioCsf

from helpers import CONCAVE_CASES, DIFF_CASES, RATIO_CASES, build

# Independent finite-difference estimate of the curvature bound for the
# two-parameter logistic-difference family with doubled transition sharpness,
# frozen from a separate script that never imported the package's derivative
# code (central differences of the win probability at step 1e-4 over a
# 4001-point grid on [-12, 12], all tie shares in {0, 0.25, 0.5, 0.75, 1}).
FROZEN_FD_CURVATURE_BOUND_JIA_DIFF_K2 = 10.392301876527592

# sup |p''| of the logistic and the theta where it is reached
LOGISTIC_CURVATURE = math.sqrt(3.0) / 18.0
LOGISTIC_PEAK = math.log(2.0 + math.sqrt(3.0))

RATIO_CONDITIONS = [
    "win_prob_increasing",
    "own_payoff_concavity",
    "rival_payoff_concavity",
    "vanishes_at_zero",
    "saturates_at_infinity",
    "tie_prob_vanishes_at_zero",
    "tie_prob_unimodal",
]
DIFF_CONDITIONS = [
    "win_prob_increasing",
    "curvature_within_prize_bound",
    "tie_prob_unimodal",
]


class TestRatioAudit:
    @pytest.mark.parametrize("case", RATIO_CASES, ids=str)
    def test_all_reference_points_pass(self, case):
        report = audit_ratio(build(case))
        assert report.passed, report.failures

    @pytest.mark.parametrize("family, params", [
        ("jia-ratio", {"r": 0.034, "k": 7.16}),
        ("vesperoni-ratio", {"r": 0.25, "k": 3.0}),
    ])
    def test_slow_limits_pass_as_facts(self, family, params):
        # both approach their limits too slowly for any finite probe of theta
        # to settle them (z_q at theta = 1e-12 is still about 0.05 at r = 0.034),
        # yet every limit holds for r > 0
        report = audit_ratio(make_family(family, **params))
        assert report.passed, report.failures
        for name in ("vanishes_at_zero", "saturates_at_infinity", "tie_prob_vanishes_at_zero"):
            record = report.condition(name)
            assert (record.violation, record.witness_theta) == (0.0, None)
            assert record.note.endswith("for every r > 0")

    def test_condition_roster(self):
        report = audit_ratio(make_family("jia-ratio", r=1.0, k=2))
        assert [c.name for c in report.conditions] == RATIO_CONDITIONS

    def test_report_carries_the_zero_effort_note_and_no_prize_bound(self):
        report = audit_ratio(make_family("vesperoni-ratio", r=0.5, k=2))
        assert report.notes == (RatioCsf.zero_effort_note,)
        assert report.M is None and report.vbar is None

    @pytest.mark.parametrize("family, params, excess, fact", [
        ("jia-ratio", {"r": 2.0, "k": 2.0}, 1.0, "r <= 1"),
        ("jia-ratio", {"r": 1.25, "k": 9.0}, 0.25, "r <= 1"),
        ("vesperoni-ratio", {"r": 1.0, "k": 2.0}, 1.0, "r * k <= 1"),
        ("vesperoni-ratio", {"r": 0.5, "k": 2.5}, 0.25, "r * k <= 1"),
    ])
    def test_concavity_fails_by_the_lemma_excess(self, family, params, excess, fact):
        csf = make_family(family, **params)
        report = audit_ratio(csf)
        assert [c.name for c in report.failures] == ["own_payoff_concavity",
                                                     "rival_payoff_concavity"]
        assert csf.lemma_excess == excess and not csf.lemma_precondition_ok
        for record in report.failures:
            assert record.violation == excess
            assert (record.witness_theta, record.witness_q) == (None, None)
            assert record.note == f"holds iff {fact}"

    @pytest.mark.parametrize("family, params", [
        ("jia-ratio", {"r": 1.0, "k": 1e9}), ("vesperoni-ratio", {"r": 0.5, "k": 2.0}),
        ("vesperoni-ratio", {"r": 1e-3, "k": 1e3})])
    def test_the_precondition_at_its_boundary_passes(self, family, params):
        csf = make_family(family, **params)
        assert csf.lemma_excess <= 0.0 and audit_ratio(csf).passed

    def test_degenerate_tie_mass_noted_not_failed(self):
        """With no tie mass at all, the unimodality condition passes with an
        explicit degeneracy note and the limit checks pass."""
        report = audit_ratio(make_family("jia-ratio", r=1.0, k=1))
        assert report.passed
        assert report.condition("tie_prob_unimodal").note == "degenerate: p0 = 0 at k = 1"
        assert report.condition("tie_prob_vanishes_at_zero").passed

    def test_rejects_wrong_family_kind(self):
        with pytest.raises(ValidationError):
            audit_ratio(make_family("jia-diff", k=2))

    def test_json_dict_round_trips_key_fields(self):
        report = audit_ratio(make_family("jia-ratio", r=1.0, k=2))
        doc = report.to_json_dict()
        assert list(doc) == ["family", "params", "kind", "passed", "conditions", "M", "vbar",
                             "notes"]
        assert doc["family"] == "jia-ratio"
        assert doc["passed"] is True
        assert len(doc["conditions"]) == len(RATIO_CONDITIONS)
        assert (doc["M"], doc["vbar"]) == (None, None)


class TestDiffAudit:
    @pytest.mark.parametrize("case", DIFF_CASES, ids=str)
    def test_small_prize_passes(self, case):
        report = audit_diff(build(case), v1=0.5)
        assert report.passed, report.failures

    def test_condition_roster(self):
        report = audit_diff(make_family("jia-diff", k=2), v1=1.0)
        assert [c.name for c in report.conditions] == DIFF_CONDITIONS

    def test_curvature_bound_binds_for_large_prizes(self):
        csf = make_family("jia-diff", k=1)
        assert audit_diff(csf, v1=5.0).passed
        report = audit_diff(csf, v1=20.0)
        assert not report.passed
        cond = report.condition("curvature_within_prize_bound")
        assert not cond.passed
        assert cond.violation == LOGISTIC_CURVATURE - 1.0 / 20.0
        # Curvature of the logistic peaks near 1.32 effort-gap units from even.
        assert cond.witness_theta == pytest.approx(-1.3170, abs=1e-4)
        assert cond.witness_q == 0.0

    @pytest.mark.parametrize("family, k, v1", [
        ("jia-diff", 813711069.9344822, 4329.1928028878965),
        ("vesperoni-diff", 202129329.7048707, 2826.433932696214),
    ])
    def test_steep_families_fail_the_bound_their_peak_sets(self, family, k, v1):
        # the curvature peaks near theta = +-log k, outside any fixed window
        # of theta, and the prize is thousands of times 1 / sup |z_q''|
        csf = make_family(family, k=k)
        report = audit_diff(csf, v1)
        top, peaks = csf.curvature_peak
        assert [c.name for c in report.failures] == ["curvature_within_prize_bound"]
        cond = report.failures[0]
        assert cond.violation == top - 1.0 / v1 > 0.09
        # the row q = 1 mirrors the row q = 0, so its peak -max(peaks) is the smallest
        assert (cond.witness_theta, cond.witness_q) == (-peaks[-1], 1.0)
        assert cond.witness_theta < -math.log(k) + 2.0
        assert report.M == top and report.vbar == 1.0 / top

    @pytest.mark.parametrize("family", ["jia-diff", "vesperoni-diff"])
    @pytest.mark.parametrize("k", [1.0, 1.5, 7.0, 1e9])
    def test_the_bound_passes_up_to_vbar_and_fails_above(self, family, k):
        csf = make_family(family, k=k)
        vbar = estimate_vbar(csf)
        assert audit_diff(csf, vbar).vbar == vbar
        assert audit_diff(csf, vbar * (1.0 - 1e-12)).passed
        assert not audit_diff(csf, vbar * (1.0 + 1e-12)).passed

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
        assert value == pytest.approx(6.0 * math.sqrt(3.0), rel=1e-15)

    def test_matches_frozen_independent_estimate(self):
        value = estimate_vbar(make_family("jia-diff", k=2))
        assert value == pytest.approx(FROZEN_FD_CURVATURE_BOUND_JIA_DIFF_K2, rel=1e-5)

    def test_equivalent_families_agree_at_k1(self):
        a, b = (make_family(name, k=1).curvature_peak for name in ("jia-diff", "vesperoni-diff"))
        assert a == b == (LOGISTIC_CURVATURE, (-LOGISTIC_PEAK, LOGISTIC_PEAK))

    def test_a_step_like_family_keeps_its_bound(self):
        # at k = 1e9 the win probability rises in a step about log k from even,
        # where z_q'' tends to the Gumbel limit's sup e^-x x (x - 1) at
        # x = (3 + sqrt(5)) / 2: the bound is about 3.236
        value = estimate_vbar(make_family("vesperoni-diff", k=1e9))
        x = (3.0 + math.sqrt(5.0)) / 2.0
        assert value == pytest.approx(1.0 / (math.exp(-x) * x * (x - 1.0)), rel=1e-8)
        assert value == pytest.approx(3.236, abs=1e-3)

    def test_is_the_report_bound_bit_for_bit(self):
        for name in ("jia-diff", "vesperoni-diff"):
            for k in (1.0, 1.0001, 2.0, 3.0, 40.0, 1e6, 1e300):
                csf = make_family(name, k=k)
                assert estimate_vbar(csf) == audit_diff(csf, 1.0).vbar == 1.0 / audit_diff(
                    csf, 2.0).M, (name, k)

    def test_rejects_wrong_family_kind(self):
        with pytest.raises(ValidationError):
            estimate_vbar(make_family("jia-ratio", r=1.0, k=2))


class TestConcaveAudit:
    @pytest.mark.parametrize("r", [0.3, 0.7, 1.0])
    def test_admissible_exponents_pass(self, r):
        report = audit_concave(make_family("blavatskyy-power", r=r))
        assert report.passed, report.failures
        assert [c.name for c in report.conditions] == ["impact_increasing", "impact_concave"]
        assert (report.M, report.vbar, report.notes) == (None, None, ())

    def test_rejects_wrong_family_kind(self):
        with pytest.raises(ValidationError):
            audit_concave(make_family("jia-diff", k=2))


def test_unknown_condition_name_raises_key_error():
    report = audit_ratio(make_family("jia-ratio", r=1.0, k=2))
    with pytest.raises(KeyError, match="no_such_condition"):
        report.condition("no_such_condition")


# Recorded reports; the cases cover all five families, failing audits with
# witnesses, steep and degenerate families and rejected inputs.  An audit
# calls no NumPy kernel, so one result serves every dispatch target.
AUDIT_RECORDS = Path(__file__).parent / "data" / "audit_parent.json"
PARENT_AUDITS = json.loads(AUDIT_RECORDS.read_text())["cases"]


def _recorded_result(case) -> dict:
    csf = make_family(case["family"], **case["params"])
    args = (csf, case["v1"]) if "v1" in case else (csf,)
    try:
        return {"report": getattr(audit_mod, case["audit"])(*args).to_json_dict()}
    except (ContestError, ValueError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


@pytest.mark.parametrize("case", PARENT_AUDITS,
                         ids=lambda c: f"{c['audit']}-{c['family']}-{c.get('v1', '')}")
def test_report_equals_the_recorded_report(case):
    want = {key: case[key] for key in ("report", "error") if key in case}
    # compared as JSON text, so an inf or nan in a report compares equal to itself
    assert json.dumps(_recorded_result(case), sort_keys=True) == json.dumps(want, sort_keys=True)


def main() -> None:
    """Re-record every case:

        PYTHONPATH=src python tests/test_audit.py
    """
    doc = json.loads(AUDIT_RECORDS.read_text())
    for case in doc["cases"]:
        case.pop("report", None)
        case.pop("error", None)
        case.update(_recorded_result(case))
    AUDIT_RECORDS.write_text(json.dumps(doc, indent=1))


KERNELS = ("_shares", "_triple", "_zp", "_zslopes", "_impact", "_win_d1")


@pytest.mark.parametrize("audit, case, args", [
    *((audit_ratio, case, ()) for case in RATIO_CASES[:2]),
    *((audit_diff, case, (40.0,)) for case in DIFF_CASES[:2]),
    (estimate_vbar, DIFF_CASES[1], ()),
    *((audit_concave, case, ()) for case in CONCAVE_CASES),
], ids=str)
def test_an_audit_evaluates_no_kernel_and_no_numpy_call(monkeypatch, audit, case, args):
    """The facts are arithmetic on the parameters: no family kernel runs, no
    NumPy function is called and no array is built, and `audit` imports no NumPy."""
    assert "numpy" not in {getattr(value, "__name__", "").partition(".")[0]
                           for value in vars(audit_mod).values()}
    def refuse(*_, **__):
        raise AssertionError("an audit evaluated a kernel")

    for cls in FAMILIES.values():
        for name in KERNELS:
            if hasattr(cls, name):
                monkeypatch.setattr(cls, name, refuse)
    csf, numpy_calls = build(case), []

    def profile(frame, event, arg):
        if event == "c_call" and (isinstance(arg, np.ufunc)
                                  or (getattr(arg, "__module__", None) or "").startswith("numpy")):
            numpy_calls.append(arg)
        elif event == "call" and "numpy" in Path(frame.f_code.co_filename).parts:
            numpy_calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        audit(csf, *args)
    finally:
        sys.setprofile(None)
    assert numpy_calls == []


@pytest.mark.parametrize("family, params, v1", [
    ("jia-diff", {"k": 1.0}, 20.0),
    ("vesperoni-diff", {"k": 1.0}, 20.0),
    ("jia-diff", {"k": 3.0}, 20.0),
    ("vesperoni-diff", {"k": 3.0}, 20.0),
])
def test_the_curvature_witness_is_the_smallest_peak(family, params, v1):
    # at k = 1, z_q does not depend on q and both rows peak at -log(2 + sqrt(3)):
    # the witness resolves to the smaller q, 0; for k > 1 the rows' peaks split
    csf = make_family(family, **params)
    _, peaks = csf.curvature_peak
    record = audit_diff(csf, v1).condition("curvature_within_prize_bound")
    assert not record.passed
    want = min([(t, 0.0) for t in peaks] + [(-t, 1.0) for t in peaks])
    assert (record.witness_theta, record.witness_q) == want
    if params["k"] == 1.0:
        assert want == (-LOGISTIC_PEAK, 0.0)


@pytest.mark.parametrize("audit, args, keyword", [
    (audit_ratio, (), "q_grid"), (audit_diff, (1.0,), "q_grid"), (estimate_vbar, (), "q_grid"),
    (audit_ratio, (), "theta_grid"), (audit_diff, (1.0,), "theta_grid"),
    (estimate_vbar, (), "theta_grid"), (audit_concave, (), "x_grid"),
    (audit_ratio, (), "grid_points"), (audit_diff, (1.0,), "grid_points"),
    (audit_concave, (), "grid_points"), (audit_family, (1.0,), "grid_points"),
], ids=lambda value: getattr(value, "__name__", str(value)))
def test_audits_take_no_grid(audit, args, keyword):
    # every audit decides its conditions for every theta, tie rule and effort:
    # no keyword narrows it to a sub-range or a grid
    csf = {audit_ratio: make_family("jia-ratio", r=1.0, k=2.0),
           audit_concave: make_family("blavatskyy-power", r=0.5)}.get(
        audit, make_family("jia-diff", k=2.0))
    with pytest.raises(TypeError, match=keyword):
        audit(csf, *args, **{keyword: 3})


# The reference: the grid scan the audits ran before they were exact, on grids
# far denser and wider than theirs.  A grid can refute a sign condition, or a
# curvature bound, but never a limit, so the tail limits are left to their
# proofs.  Every tie rule is scanned on the rows EVERY_Q, a strict inequality
# may miss by STRICT_SLACK, and a p0 within DEGENERATE_TIE of 0 everywhere is
# taken as no tie mass.
EVERY_Q = np.linspace(0.0, 1.0, 11)[:, None]
STRICT_SLACK = 1e-12
DEGENERATE_TIE = 1e-14
GRID_POINTS = 20001
ZOOM_POINTS = 2001


def _within_slack(wrong) -> bool:
    """Whether a wrong-side margin stays within STRICT_SLACK wherever it is finite: at
    extreme k a kernel's k r / theta or k^2 overflows, and such a point decides nothing."""
    return bool(np.all((wrong <= STRICT_SLACK) | ~np.isfinite(wrong)))


def _grid_verdicts(csf, v1=None) -> dict:
    """Whether each sign condition holds on the reference grid of `csf`'s kind."""
    if csf.kind == "concave":  # the impact x^r's slope and curvature, finite on this grid
        x, r = np.geomspace(1e-150, 1e150, GRID_POINTS), csf.r
        return {"impact_increasing": _within_slack(-r * x ** (r - 1.0)),
                "impact_concave": _within_slack(r * (r - 1.0) * x ** (r - 2.0))}
    if csf.kind == "ratio":
        theta, peak = np.geomspace(1e-150, 1e150, GRID_POINTS), 1.0
    else:
        reach = math.log(csf.k) + 40.0
        theta, peak = np.linspace(-reach, reach, GRID_POINTS), 0.0
    zp, zpp = csf._zslopes(theta, EVERY_Q, LANES)
    tie, tie_slope = csf._triple(theta, LANES)[2], zp[-1] - zp[0]
    verdicts = {"win_prob_increasing": _within_slack(-zp)}
    if np.all(np.abs(tie) <= DEGENERATE_TIE):
        verdicts["tie_prob_unimodal"] = True
    else:
        verdicts["tie_prob_unimodal"] = _within_slack(
            np.where(theta < peak, -tie_slope, np.where(theta > peak, tie_slope, 0.0)))
    if csf.kind == "ratio":
        verdicts["own_payoff_concavity"] = _within_slack(zpp)
        verdicts["rival_payoff_concavity"] = _within_slack(-(2.0 * zp + theta * zpp))
    else:  # z_q = p + q p0 is affine in q by definition
        ends = _diff_curvature_rows(csf, theta)
        zpp = (1.0 - EVERY_Q) * ends[0] + EVERY_Q * ends[1]
        verdicts["curvature_within_prize_bound"] = _within_slack(np.abs(zpp) - 1.0 / v1)
    return verdicts


def _diff_curvature_rows(csf, theta):
    """z_q'' on the rows q = 0 and 1.  vesperoni-diff's kernel takes s^k from s,
    which rounds to 1 once theta passes about 37 and so loses about k ulps:
    above k = 1e3 its rows come from s^k = exp(k log s) instead, the row q = 1
    being the mirror -z_0''(-theta)."""
    if csf.name != "vesperoni-diff" or csf.k <= 1e3:
        return csf._zslopes(theta, EVERY_Q[[0, -1]], LANES)[1]
    k = csf.k

    def row0(log_s, log_sb):
        return np.exp(math.log(k) + k * log_s + log_sb) * (k * np.exp(log_sb) - np.exp(log_s))

    log_s, log_sb = -np.logaddexp(0.0, -theta), -np.logaddexp(0.0, theta)
    return np.stack([row0(log_s, log_sb), -row0(log_sb, log_s)])


def _grid_curvature_sup(csf):
    """max |z_q''| on a grid of `csf`'s window refined around each row's highest
    and lowest point, and the refined pitch."""
    reach = math.log(csf.k) + 20.0
    theta = np.linspace(-reach, reach, 2 * GRID_POINTS)
    h = theta[1] - theta[0]
    rows, best = _diff_curvature_rows(csf, theta), 0.0
    for row in (0, 1):
        for at in (np.argmax(rows[row]), np.argmin(rows[row])):
            fine = np.linspace(theta[at] - h, theta[at] + h, ZOOM_POINTS)
            best = max(best, float(np.max(np.abs(_diff_curvature_rows(csf, fine)[row]))))
    return best, 2.0 * h / (ZOOM_POINTS - 1)


def _reference_families(seed: int = 46):
    """Seeded (family, v1) draws: k up to 1e300 and 1, r near 0 and near 1, r k near 1,
    and prizes near each difference family's bound."""
    rng = np.random.default_rng(seed)
    ks = [1.0, 1.0 + 1e-9, 1.0001, *10.0 ** rng.uniform(0.0, 300.0, 6)]
    for k in ks + [float(10.0 ** rng.uniform(0.0, 3.0)) for _ in range(5)]:
        for name in ("jia-diff", "vesperoni-diff"):
            csf = make_family(name, k=k)
            vbar = 1.0 / csf.curvature_peak[0]
            for v1 in (vbar * (1.0 - 1e-6), vbar * (1.0 + 1e-6), float(10.0 ** rng.uniform(-1, 3))):
                yield csf, v1
        r = float(10.0 ** rng.uniform(-3.0, 0.5))
        near_one = 1.0 + float(rng.choice([-1.0, 1.0])) * float(10.0 ** rng.uniform(-12, -2))
        for r_value in (r, 10.0 ** rng.uniform(-12, -6), near_one):
            yield make_family("jia-ratio", r=float(r_value), k=k), None
            yield make_family("vesperoni-ratio", r=float(r_value), k=k), None
        yield make_family("vesperoni-ratio", r=near_one / k, k=k), None
    for r in (1e-9, 0.05, 0.5, 0.999, 1.0):
        yield make_family("blavatskyy-power", r=r), None


REFERENCE_DRAWS = list(_reference_families())


@functools.lru_cache(maxsize=None)
def _draw_verdicts(index: int) -> dict:
    csf, v1 = REFERENCE_DRAWS[index]
    with np.errstate(all="ignore"):
        return _grid_verdicts(csf, v1)


@pytest.mark.parametrize("index", range(len(REFERENCE_DRAWS)),
                         ids=[f"{csf.name}-{'-'.join(f'{v:.6g}' for v in csf.params.values())}"
                              f"-v1-{v1 or 0.0:.6g}" for csf, v1 in REFERENCE_DRAWS])
def test_every_fact_is_at_least_as_strict_as_a_dense_grid(index):
    """Where the dense grid finds a condition violated, the fact fails it too."""
    csf, v1 = REFERENCE_DRAWS[index]
    report = audit_family(csf, v1)
    for name, holds in _draw_verdicts(index).items():
        assert holds or not report.condition(name).passed, name


def test_the_dense_grid_refutes_concavity_and_curvature_bounds():
    # the reference draws are not all passes: the grid itself finds
    # violations of each condition that a family's parameters can fail
    refuted = collections.Counter(name for index in range(len(REFERENCE_DRAWS))
                                  for name, holds in _draw_verdicts(index).items() if not holds)
    assert set(refuted) == {"own_payoff_concavity", "rival_payoff_concavity",
                            "curvature_within_prize_bound"}, refuted
    assert min(refuted.values()) >= 5, refuted


@pytest.mark.parametrize("family", ["jia-diff", "vesperoni-diff"])
@pytest.mark.parametrize("k", [1.0, 1.0 + 1e-9, 1.0001, 1.5, 3.0, 1e3, 8.1e8, 1e300,
                               *10.0 ** np.random.default_rng(4601).uniform(0.0, 300.0, 8)],
                         ids=lambda k: f"{k:.6g}")
def test_the_curvature_sup_tops_a_dense_grid_within_its_pitch(family, k):
    """S is at least the refined grid's maximum, and above it by no more than
    the pitch's reach: |z_q''| is flat to second order at its peak, and its
    fourth derivative stays far below 8 for every k."""
    csf = make_family(family, k=float(k))
    top = csf.curvature_peak[0]
    with np.errstate(all="ignore"):
        grid_max, pitch = _grid_curvature_sup(csf)
    assert grid_max <= top * (1.0 + 4.0 * sys.float_info.epsilon)
    assert top - grid_max <= top * pitch * pitch


def test_the_curvature_peak_is_reached_where_stated():
    """|z_0''| at each stated theta is S, to the rounding of the kernels."""
    for name in ("jia-diff", "vesperoni-diff"):
        for k in (1.0, 1.0001, 2.0, 3.0, 10.0, 1e3):
            csf = make_family(name, k=k)
            top, peaks = csf.curvature_peak
            rows = _diff_curvature_rows(csf, np.array(peaks))
            assert np.allclose(np.abs(rows[0]), top, rtol=1e-12, atol=0.0), (name, k)
            assert np.allclose(np.abs(_diff_curvature_rows(csf, -np.array(peaks))[1]), top,
                               rtol=1e-12, atol=0.0), (name, k)


if __name__ == "__main__":
    main()
