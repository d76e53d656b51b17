"""Shared fixtures and numerical helpers for the test suite.

Finite-difference checks in the suite compare analytic derivatives against
central differences of one order lower (second derivatives are differenced
from the analytic first derivative, not from the value), which keeps the
truncation error quadratic in the step without compounding roundoff.
"""
from __future__ import annotations

import math
import sys

import numpy as np

from tiebreak import ContestSpec, CostKind, make_family, solve

FD_STEP = 1e-5
FD_REL_TOL = 1e-6

# Parameter points satisfying each family's closed-form precondition.
RATIO_CASES = [
    ("vesperoni-ratio", dict(r=0.5, k=2)),
    ("vesperoni-ratio", dict(r=0.25, k=3)),
    ("vesperoni-ratio", dict(r=1.0, k=1)),
    ("jia-ratio", dict(r=1.0, k=2)),
    ("jia-ratio", dict(r=0.5, k=2)),
    ("jia-ratio", dict(r=1.0, k=1)),
]

DIFF_CASES = [
    ("vesperoni-diff", dict(k=1)),
    ("vesperoni-diff", dict(k=2)),
    ("vesperoni-diff", dict(k=3)),
    ("jia-diff", dict(k=1)),
    ("jia-diff", dict(k=2)),
    ("jia-diff", dict(k=5)),
]

CONCAVE_CASES = [
    ("blavatskyy-power", dict(r=0.3)),
    ("blavatskyy-power", dict(r=0.5)),
    ("blavatskyy-power", dict(r=1.0)),
]

Q_POINTS = (0.0, 0.3, 1.0)


def case_id(case: tuple[str, dict]) -> str:
    name, params = case
    return name + "-" + "-".join(f"{key}{value:g}" for key, value in params.items())


def build(case: tuple[str, dict]):
    name, params = case
    return make_family(name, **params)


def central_diff(fn, x, h: float = FD_STEP):
    """Symmetric difference quotient of `fn` at `x` (vectorized)."""
    x = np.asarray(x, dtype=float)
    return (np.asarray(fn(x + h)) - np.asarray(fn(x - h))) / (2.0 * h)


def rel_err(approx, reference):
    """Elementwise |approx - reference| / (1 + |reference|)."""
    approx = np.asarray(approx, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return np.abs(approx - reference) / (1.0 + np.abs(reference))


def max_rel_err(approx, reference) -> float:
    return float(np.max(rel_err(approx, reference)))


def concave_residual_bound(spec: ContestSpec) -> float:
    """Bound on the effort-space first-order residuals of a blavatskyy-power
    r < 1 solve that Newton accepted at its rounding floor: 32 eps times the
    log scale 1 + |log r| + |log v1| + |log v2| of its inputs, which bounds the
    terms of the log-effort conditions that the floor is relative to.  Measured
    worst: 12.1 times eps times that scale on bitscan's 20,000 draws (101 lanes
    each), 7.5 on edge-domain draws."""
    scale = 1.0 + abs(math.log(spec.csf.r)) + abs(math.log(spec.v1)) + abs(math.log(spec.v2))
    return 32.0 * sys.float_info.epsilon * scale


def solve_at(csf, v, q, **kw):
    """`solve` of family `csf` at prizes v and tie share q, under the family's own cost."""
    return solve(ContestSpec(csf, *v, q), **kw)


class Lottery:
    """A contest success family of a kind no solver or designer knows: a fair
    coin, never a tie, under linear cost."""

    name, kind, params, default_cost = "lottery", "lottery", {}, CostKind.LINEAR

    def outcome(self, x1, x2):
        return (0.5, 0.5, 0.0)


LOTTERY_CONTEST = ContestSpec(Lottery(), 2.0, 1.0, 0.5)
