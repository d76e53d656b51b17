"""Hard inputs: extreme scales and near-degenerate exponents inside the domain.

Every contest here must end one of two ways, fast: an equilibrium whose
first-order residuals are at machine level relative to the problem's scale,
or a typed `ContestError`.  The inputs are the regression corpus of contests
that once spun for tens of seconds, divided by zero, or failed an absolute
tolerance.
"""
from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import pytest

import tiebreak
from tiebreak import ContestError, make_contest, solve

WALL_BOUND_S = 1.0
RESIDUAL_BOUND = 1e-12

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


def test_import_leaves_scipy_unloaded():
    package_root = str(Path(tiebreak.__file__).resolve().parent.parent)
    probe = f"import sys; sys.path.insert(0, {package_root!r}); import tiebreak; " \
            "print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "False"
