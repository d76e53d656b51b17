"""Hard inputs: extreme scales and near-degenerate exponents inside the domain.

Every contest here must end one of two ways, fast: an equilibrium whose
first-order residuals are at machine level relative to the problem's scale,
or a typed `ContestError`.  The inputs are the regression corpus of contests
that once spun for tens of seconds, divided by zero, or failed an absolute
tolerance.
"""
from __future__ import annotations

import math
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import tiebreak
from tiebreak import ContestError, ConvergenceError, make_contest, make_family, solve, solve_many
from tiebreak.equilibrium import _gap_root
from tiebreak.families import FLOATS, LANES

WALL_BOUND_S = 1.0
RESIDUAL_BOUND = 1e-12
EXTREME_RESIDUAL_BOUND = 1e-8
# Draws per family; difference-form solves cost ~0.6 ms each at these
# scales, so they take fewer draws to keep the sweep under a second.
EXTREME_DRAWS = {"vesperoni-ratio": 1000, "jia-ratio": 1000, "vesperoni-diff": 500,
                 "jia-diff": 500, "blavatskyy-power": 1000}

HARD_CORPUS = [
    ("concave-r-near-1", "blavatskyy-power", {"r": 0.999999}, 4.0, 2.0, 0.0),
    ("concave-r0.9-v4-0.5", "blavatskyy-power", {"r": 0.9}, 4.0, 0.5, 0.0),
    ("concave-r0.9117-v0.258-2.29", "blavatskyy-power", {"r": 0.9117}, 0.258, 2.29, 0.0),
    ("concave-r0.5-tiny-prizes", "blavatskyy-power", {"r": 0.5}, 1e-6, 1e-6, 0.5),
    ("concave-linear-huge-prizes", "blavatskyy-power", {"r": 1.0}, 1e12, 1e-6, 0.5),
    ("jia-diff-v1e6-1", "jia-diff", {"k": 2.0}, 1e6, 1.0, 0.0),
    ("jia-diff-k1e3", "jia-diff", {"k": 1000.0}, 2.0, 1.0, 0.5),
    ("vesperoni-diff-k1e9", "vesperoni-diff", {"k": 1e9}, 2.0, 1.0, 0.5),
    ("jia-ratio-k1e9", "jia-ratio", {"r": 1.0, "k": 1e9}, 2.0, 1.0, 0.5),
    ("vesperoni-ratio-k1e3", "vesperoni-ratio", {"r": 0.001, "k": 1000.0}, 2.0, 1.0, 0.0),
    ("jia-ratio-prizes-1e-6-1e12", "jia-ratio", {"r": 0.5, "k": 2.0}, 1e-6, 1e12, 0.5),
    ("vesperoni-diff-prize-1e12", "vesperoni-diff", {"k": 2.0}, 1e12, 1.0, 0.5),
    ("jia-diff-prizes-1e-6", "jia-diff", {"k": 2.0}, 2e-6, 1e-6, 0.5),
    # vesperoni-ratio with k above ~1020: u**k, z' and the closed-form efforts
    # are subnormal, so their residuals reach 1e-5 to 1.0 unless refused.
    ("vesperoni-ratio-subnormal-residual-1", "vesperoni-ratio",
     {"r": 3.342689745554877e-08, "k": 1048.18744972969},
     35.08001445767375, 0.049976387919152786, 0.26831663288889884),
    ("vesperoni-ratio-subnormal-strong-v2", "vesperoni-ratio",
     {"r": 0.0009416895497798755, "k": 1055.719409569256},
     0.0502394040522645, 10.248284985218264, 0.9303551693289323),
    ("vesperoni-ratio-subnormal-huge-prizes", "vesperoni-ratio",
     {"r": 0.0009467849687645521, "k": 1056.1764731503654},
     27553662.804962438, 8784118321.821434, 0.11179520219685335),
    ("vesperoni-ratio-subnormal-efforts", "vesperoni-ratio",
     {"r": 1.4343910967027183e-07, "k": 1032.6729889142523},
     0.03658989052566806, 0.0001429976828254914, 0.8684404448098633),
]


def relative_residual(spec, eq) -> float:
    """Worst first-order residual relative to scale.

    Ratio and concave residuals are already relative (marginal benefit over
    marginal cost, minus one); difference-form residuals are in effort units
    and are divided by the player's prize.  A cornered player only needs a
    nonpositive slope.
    """
    worst = 0.0
    for prize, res, corner in zip((spec.v1, spec.v2), eq.residuals, eq.corner_flags):
        if spec.csf.kind == "diff":
            res = res / prize
        worst = max(worst, max(res, 0.0) if corner else abs(res))
    return worst


@pytest.mark.parametrize("entry", HARD_CORPUS, ids=lambda entry: entry[0])
def test_solves_at_machine_residual_or_raises_typed_error_fast(entry):
    _, family, params, v1, v2, q = entry
    spec = make_contest(family, v1=v1, v2=v2, q=q, **params)
    started = time.perf_counter()
    try:
        eq = solve(spec)
    except ContestError:
        pass
    else:
        assert relative_residual(spec, eq) <= RESIDUAL_BOUND
    assert time.perf_counter() - started < WALL_BOUND_S


@pytest.mark.parametrize("entry", HARD_CORPUS, ids=lambda entry: entry[0])
def test_batch_lane_solves_at_machine_residual_or_holds_typed_error(entry):
    _, family, params, v1, v2, q = entry
    spec = make_contest(family, v1=v1, v2=v2, q=q, **params)
    try:
        (eq,) = solve_many(spec, [q])
    except ContestError:
        return
    assert relative_residual(spec, eq) <= RESIDUAL_BOUND


# jia-diff k = 2, q = 0.5 at prizes (v1, 1), whose first-order residuals grow
# with the gap, to 2.7e-8 at 1e308.
GROWING_RESIDUALS = {f"jia-diff-v{v1:g}": ("jia-diff", {"k": 2.0}, v1, 1.0, 0.5)
                     for v1 in (1e12, 1e100, 1e300, 1e308)}
# Gap roots past the bracket bound 4, by contest name: kernel evaluations of
# the scalar solve, and its (x1, x2) as hex.  NumPy's AVX-512 exp rounds a
# last bit apart from its other kernels, so two contests hold a second
# (x1, x2), that of the solve without AVX-512 dispatch.
LARGE_GAP_ROOTS = {
    "vesperoni-diff-prize-1e12": (10, {("0x1.86f5c72dcb5efp+4", "0x1.addd7a0b286aap-36")}),
    "jia-diff-v1e6-1": (9, {("0x1.80b3861545765p+3", "0x1.9363759c0c15ap-17"),
                            ("0x1.80b3861545766p+3", "0x1.9363759c0c15bp-17")}),
    "jia-diff-v1e+12": (10, {("0x1.8a63fd74919bap+4", "0x1.b1a314c0306c8p-36")}),
    "jia-diff-v1e+100": (13, {("0x1.c2216a13f28dcp+7", "0x1.89d1bf6527ea3p-325")}),
    "jia-diff-v1e+300": (14, {("0x1.563c29d4d9d85p+9", "0x1.ca627be5ecc6dp-988"),
                              ("0x1.563c29d4d9d86p+9", "0x1.ca627be5ecc6ep-988")}),
    "jia-diff-v1e+308": (14, {("0x1.5f6e9dbaa3841p+9", "0x1.3be22f2097947p-1014")}),
}


def test_gap_root_evaluates_no_theta_twice(monkeypatch):
    """Past the bound 4 the root finder runs on the log of the gap equation,
    handed the bracket's f, f' and z' at lo, then finishes on the equation
    itself from the log form's root and its values; in either phase a Newton
    step that would leave theta in place ends the lane without a kernel
    call.  So every kernel evaluation is at its own theta: 10 for the
    prize-1e12 solve, and 9, 10, 13, 14 and 14 for the others, where the
    gap equation alone took 18, 15, 14, 19, 28 and 33 and found the same
    efforts.  The efforts read z' at the root from the last evaluation; only
    the residuals evaluate `_zp`, once."""
    thetas, zp_thetas = [], []

    def counting(seen, method):
        return lambda self, th, qv, xp: seen.append(th) or method(self, th, qv, xp)

    for csf_class in (tiebreak.VesperoniDiff, tiebreak.JiaDiff):
        monkeypatch.setattr(csf_class, "_zslopes", counting(thetas, csf_class._zslopes))
        monkeypatch.setattr(csf_class, "_zp", counting(zp_thetas, csf_class._zp))
    contests = {name: contest for name, *contest in HARD_CORPUS} | GROWING_RESIDUALS
    for name, (evaluations, efforts) in LARGE_GAP_ROOTS.items():
        family, params, v1, v2, q = contests[name]
        thetas.clear()
        zp_thetas.clear()
        eq = solve(make_contest(family, v1=v1, v2=v2, q=q, **params))
        assert len(thetas) == evaluations, name
        assert len(set(thetas)) == evaluations, name
        assert zp_thetas == [eq.beta], name
        assert (eq.x1.hex(), eq.x2.hex()) in efforts, name


# The grid of `test_gap_roots_are_ahead_by_2048_in_ten_doublings`: k, tie rules and gaps.
BOUND_KS = (1.0, 2.0, 1e9, 1e30, 1e300, sys.float_info.max)
BOUND_QS = (0.0, 0.3, 0.5, 1.0)
BOUND_GAPS = (1e-300, 1e-12, 1.0, 3.0, 1e3, 1e12, 1e100, 1e300, sys.float_info.max)


def _slopes_at(csf, theta: float):
    """z_q' at theta and `BOUND_QS` from both kernels, on lanes and on floats."""
    qs, at = np.array(BOUND_QS), np.full(len(BOUND_QS), theta)
    floats = [z for q in BOUND_QS for z in (csf._zp(theta, q, FLOATS),
                                            csf._zslopes(theta, q, FLOATS)[0])]
    return np.concatenate([csf._zp(at, qs, LANES), csf._zslopes(at, qs, LANES)[0], floats])


@pytest.mark.parametrize("family", ["jia-diff", "vesperoni-diff"])
def test_gap_roots_are_ahead_by_2048_in_ten_doublings(family, monkeypatch):
    """The gap root's bracket tries the bounds 1, 2, ..., 2048, and no more,
    because z_q' <= k e^-theta on theta >= 0 (see `_gap_root`).  Both
    difference cores read z_q' as exactly 0 at theta = 746, 1024 and 2048, on
    floats and on lanes, for k up to the largest double, so the gap equation
    is ahead at 2048 at the largest double gap.  And no root, on the hard
    corpus or on the grid of k, tie rules and gaps from 1e-300 to the largest
    double, evaluates z_q' past 1024: no contest takes more than ten
    doublings, and the largest gaps take all ten."""
    for k in BOUND_KS:
        csf = make_family(family, k=k)
        for theta in (746.0, 1024.0, 2048.0):
            assert not np.any(_slopes_at(csf, theta)), (k, theta)
        assert np.all(2048.0 - sys.float_info.max * _slopes_at(csf, 2048.0) > 0.0), k

    seen, cls = [], type(make_family(family, k=1.0))
    kernel = cls._zslopes
    monkeypatch.setattr(cls, "_zslopes",
                        lambda self, th, qv, xp: seen.append(np.max(th)) or kernel(self, th, qv, xp))
    contests = [(make_family(family, k=k), gap) for k in BOUND_KS for gap in BOUND_GAPS]
    contests += [(spec.csf, spec.valuations.v1 - spec.valuations.v2)
                 for name, fam, params, v1, v2, q in HARD_CORPUS if fam == family
                 for spec in [make_contest(fam, v1=v1, v2=v2, q=q, **params)]]
    with np.errstate(all="ignore"):
        for csf, gap in contests:
            _gap_root(csf, gap, np.array(BOUND_QS), LANES)
            for q in BOUND_QS:
                _gap_root(csf, gap, q)
    assert max(seen) == 1024.0


@pytest.mark.filterwarnings("error")
def test_interior_linear_impact_lanes_at_huge_prizes_stay_silent():
    """At prizes (1e300, 1e300) every linear-impact lane is interior, with both
    efforts positive, and (v1 + v2)^2 would overflow there: the lanes solve as
    the scalar solves do, and nothing warns."""
    spec = make_contest("blavatskyy-power", v1=1e300, v2=1e300, q=0.5, r=1.0)
    qs = [0.0, 0.25, 0.5, 1.0]
    lanes = tiebreak.equilibrium.solve_lanes(spec, qs, force=False)
    assert lanes.errors == {} and np.all(lanes.x1 > 0.0) and np.all(lanes.x2 > 0.0)
    for i, q in enumerate(qs):
        eq = solve(spec.with_q(q))
        assert (float(lanes.x1[i]), float(lanes.x2[i])) == (eq.x1, eq.x2)


# Forced ratio contests (closed-form precondition violated) at whose prize
# ratio theta^r overflows to inf: the share u = t / (1 + t) must take its
# limit 1, not inf / inf = nan, so the slope is 0 and the closed form's
# underflow error is raised, not "efforts must be >= 0, got (nan, nan)".  No
# route may warn on the way: any NumPy RuntimeWarning fails the test.
FORCED_OVERFLOW = [
    ("jia-ratio", {"r": 88.95, "k": 2.72e6}),
    ("vesperoni-ratio", {"r": 88.95, "k": 2.0}),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("family,params", FORCED_OVERFLOW)
def test_forced_ratio_overflow_ends_in_the_underflow_error(family, params):
    spec = make_contest(family, v1=0.15, v2=1.94e-5, q=0.724, **params)
    message = "closed-form efforts underflow double precision (slope 0.0)"
    for route in (lambda: solve(spec, force=True),
                  lambda: solve_many(spec, [spec.q], force=True),
                  lambda: solve_many(spec, [0.0, spec.q, 1.0], force=True)):
        with pytest.raises(ConvergenceError) as err:
            route()
        assert str(err.value) == message
    beta = spec.valuations.beta
    assert (spec.csf.p(beta), spec.csf.p0(beta), spec.csf.z_prime(beta, spec.q)) == (1.0, 0.0, 0.0)


def extreme_draws(family: str, seed: int, count: int):
    """Contests at the edges of the documented domain, seeded per family.

    Strong prize log-uniform in [1e-3, 1e12] and prize ratio in [1, 1e3]
    (labels in random order), k log-uniform in [1, 1e9], r within 1e-2 of
    either edge of its range (alternating), q uniform; vesperoni-ratio's r
    is divided by k so that r * k <= 1 keeps its closed form.
    """
    rng = random.Random(f"{family}-{seed}")
    for i in range(count):
        edge = 10.0 ** rng.uniform(-6.0, -2.0)
        r = edge if i % 2 else 1.0 - edge
        k = 10.0 ** rng.uniform(0.0, 9.0)
        params = {"vesperoni-ratio": {"r": r / k, "k": k},
                  "jia-ratio": {"r": r, "k": k},
                  "blavatskyy-power": {"r": r}}.get(family, {"k": k})
        strong = 10.0 ** rng.uniform(-3.0, 12.0)
        weak = strong / 10.0 ** rng.uniform(0.0, 3.0)
        v1, v2 = (strong, weak) if rng.random() < 0.5 else (weak, strong)
        yield make_contest(family, v1=v1, v2=v2, q=rng.random(), **params)


@pytest.mark.parametrize("family", sorted(EXTREME_DRAWS))
def test_extreme_draws_never_return_a_wrong_answer(family):
    solved = 0
    count = EXTREME_DRAWS[family]
    for spec in extreme_draws(family, seed=2026, count=count):
        try:
            eq = solve(spec)
        except ContestError:
            continue
        assert math.isfinite(eq.total), spec
        assert relative_residual(spec, eq) <= EXTREME_RESIDUAL_BOUND, spec
        solved += 1
    assert solved >= count // 4


def test_import_leaves_scipy_unloaded():
    package_root = str(Path(tiebreak.__file__).resolve().parent.parent)
    probe = f"import sys; sys.path.insert(0, {package_root!r}); import tiebreak; " \
            "print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "False"
