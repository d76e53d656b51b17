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

import pytest

import tiebreak
from tiebreak import ContestError, ConvergenceError, make_contest, solve, solve_many

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


def test_gap_root_evaluates_no_theta_twice(monkeypatch):
    """The bracket hands its last f and f' at lo to the root finder: the
    prize-1e12 solve makes 18 kernel evaluations, each at its own theta, and
    keeps the efforts it had when lo was evaluated twice (19 evaluations)."""
    kernel, thetas = tiebreak.VesperoniDiff._zslopes, []

    def counted(self, th, qv, xp, shares=None):
        thetas.append(th)
        return kernel(self, th, qv, xp, shares)

    monkeypatch.setattr(tiebreak.VesperoniDiff, "_zslopes", counted)
    _, family, params, v1, v2, q = next(
        entry for entry in HARD_CORPUS if entry[0] == "vesperoni-diff-prize-1e12")
    eq = solve(make_contest(family, v1=v1, v2=v2, q=q, **params))
    assert len(thetas) == 18
    assert len(set(thetas)) == 18
    assert (eq.x1.hex(), eq.x2.hex()) == ("0x1.86f5c72dcb5efp+4", "0x1.addd7a0b286aap-36")


def test_unbracketed_gap_root_fails_alike_in_solve_and_lanes(monkeypatch):
    """A gap root beyond the last doubling (about 12 at prizes (1e6, 1), past 8
    after three expansions) raises in the scalar solve and fails its lane with
    the same text, which names the last bound tried."""
    monkeypatch.setattr(tiebreak.equilibrium, "BRACKET_EXPANSIONS", 3)
    qs = [0.0, 0.5, 1.0]
    spec = make_contest("jia-diff", v1=1e6, v2=1.0, q=0.0, k=2.0)
    lanes = tiebreak.equilibrium.solve_lanes(spec, qs, force=False, audited=False)
    assert sorted(lanes.errors) == [0, 1, 2]
    for i, q in enumerate(qs):
        with pytest.raises(ConvergenceError, match="could not bracket") as scalar:
            solve(spec.with_q(q))
        assert str(lanes.errors[i]) == str(scalar.value)
        assert "(last upper bound 8.0)" in str(scalar.value)


def test_gap_root_bracket_tries_its_last_bound(monkeypatch):
    """Four expansions try the bounds 1, 2, 4, 8 and 16: the gap root near
    12.02 at prizes (1e6, 1) lies below the last one, so the scalar solve and
    its lane both find it."""
    monkeypatch.setattr(tiebreak.equilibrium, "BRACKET_EXPANSIONS", 4)
    spec = make_contest("jia-diff", v1=1e6, v2=1.0, q=0.0, k=2.0)
    lanes = tiebreak.equilibrium.solve_lanes(spec, [0.0], force=False, audited=False)
    eq = solve(spec)
    assert lanes.errors == {}
    assert eq.beta == pytest.approx(12.02, abs=0.01)
    assert float(lanes.beta[0]) == eq.beta


@pytest.mark.filterwarnings("error")
def test_interior_linear_impact_lanes_at_huge_prizes_stay_silent():
    """At prizes (1e300, 1e300) every linear-impact lane is interior, and the
    corner test's payoff slopes would overflow there: the lanes solve as the
    scalar solves do, and nothing warns."""
    spec = make_contest("blavatskyy-power", v1=1e300, v2=1e300, q=0.5, r=1.0)
    qs = [0.0, 0.25, 0.5, 1.0]
    lanes = tiebreak.equilibrium.solve_lanes(spec, qs, force=False, audited=False)
    assert lanes.errors == {} and not lanes.cornered.any()
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
