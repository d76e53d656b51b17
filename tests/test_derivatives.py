"""Analytic derivatives cross-checked against central finite differences.

First derivatives are differenced from the value maps; second derivatives
are differenced from the analytic first derivatives.  The tie mass's slopes
p0' = z_1' - z_0' and p0'' = z_1'' - z_0'' (z_q is affine in q) get the same
treatment, as do the concave family's own-effort partials, whose second
derivatives and tie partials are written here from the impact x^r.  Everything
must agree to FD_REL_TOL relative error (relative to 1 + |analytic|), which
leaves two orders of headroom over the truncation error of the symmetric
quotient at FD_STEP.
"""
from __future__ import annotations

import numpy as np
import pytest

from helpers import (
    CONCAVE_CASES,
    DIFF_CASES,
    FD_REL_TOL,
    FD_STEP,
    Q_POINTS,
    RATIO_CASES,
    build,
    case_id,
    central_diff,
    max_rel_err,
)

RATIO_GRID = np.geomspace(0.05, 20.0, 200)
DIFF_GRID = np.linspace(-10.0, 10.0, 200)
EFFORT_GRID = np.geomspace(0.05, 20.0, 60)
RIVAL_EFFORTS = (0.0, 0.4, 3.0)


def grid_for(csf):
    return RATIO_GRID if csf.kind == "ratio" else DIFF_GRID


@pytest.mark.parametrize("case", RATIO_CASES + DIFF_CASES, ids=case_id)
@pytest.mark.parametrize("q", Q_POINTS)
class TestReducedDerivatives:
    def test_first_derivative_of_win_prob_plus_tie_share(self, case, q):
        csf = build(case)
        theta = grid_for(csf)
        analytic = csf.z_prime(theta, q)
        fd = central_diff(lambda t: csf.z(t, q), theta, FD_STEP)
        assert max_rel_err(fd, analytic) <= FD_REL_TOL

    def test_second_derivative_from_analytic_first(self, case, q):
        csf = build(case)
        theta = grid_for(csf)
        analytic = csf.z_slopes(theta, q)[1]
        fd = central_diff(lambda t: csf.z_prime(t, q), theta, FD_STEP)
        assert max_rel_err(fd, analytic) <= FD_REL_TOL


@pytest.mark.parametrize("case", RATIO_CASES + DIFF_CASES, ids=case_id)
class TestTieMassDerivatives:
    def test_first_derivative_of_tie_mass(self, case):
        csf = build(case)
        theta = grid_for(csf)
        analytic = csf.z_prime(theta, 1.0) - csf.z_prime(theta, 0.0)
        fd = central_diff(csf.p0, theta, FD_STEP)
        assert max_rel_err(fd, analytic) <= FD_REL_TOL

    def test_second_derivative_of_tie_mass(self, case):
        csf = build(case)
        theta = grid_for(csf)
        analytic = csf.z_slopes(theta, 1.0)[1] - csf.z_slopes(theta, 0.0)[1]
        fd = central_diff(lambda t: csf.z_prime(t, 1.0) - csf.z_prime(t, 0.0), theta, FD_STEP)
        assert max_rel_err(fd, analytic) <= FD_REL_TOL

    def test_tie_derivatives_are_z_prime_differences(self, case):
        """The tie mass is z_1 - z_0 and z_q is affine in q, so the tie-mass
        slopes are the q=1 slopes minus the q=0 slopes."""
        csf = build(case)
        theta = grid_for(csf)
        np.testing.assert_allclose(csf.p0(theta), csf.z(theta, 1.0) - csf.z(theta, 0.0),
                                   atol=1e-15)
        for slope in (csf.z_prime, lambda t, q: csf.z_slopes(t, q)[1]):
            ends = slope(theta, 0.0), slope(theta, 1.0)
            np.testing.assert_allclose(slope(theta, 0.3), 0.7 * ends[0] + 0.3 * ends[1],
                                       rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("case", CONCAVE_CASES, ids=case_id)
@pytest.mark.parametrize("q", Q_POINTS)
class TestConcaveDerivatives:
    """Own-effort partials of the eventual win probability and the tie mass.

    With f = x^r, f' = r x^(r-1), f'' = r (r-1) x^(r-2), the rival's head
    h = x2^r + 1 - q and T = f + x2^r + 1: win' = f' h / T^2,
    win'' = h (f'' T - 2 f'^2) / T^3, p1' = f' (x2^r + 1) / T^2 and tie' = -f' / T^2.
    """

    def test_win_prob_first_partial(self, case, q):
        csf = build(case)
        for other in RIVAL_EFFORTS:
            analytic = np.array([csf.win_prob_d1(x, other, q) for x in EFFORT_GRID])
            fd = central_diff(
                lambda x: np.array([csf.win_prob(xi, other, q) for xi in np.atleast_1d(x)]),
                EFFORT_GRID,
                FD_STEP,
            )
            assert max_rel_err(fd, analytic) <= FD_REL_TOL

    def test_win_prob_second_partial(self, case, q):
        csf = build(case)
        r, x = csf.r, EFFORT_GRID
        f, f1, f2 = x ** r, r * x ** (r - 1.0), r * (r - 1.0) * x ** (r - 2.0)
        for other in RIVAL_EFFORTS:
            head, total = other ** r + 1.0 - q, f + other ** r + 1.0
            analytic = head * (f2 * total - 2.0 * f1 * f1) / total ** 3
            fd = central_diff(
                lambda x: np.array([csf.win_prob_d1(xi, other, q) for xi in np.atleast_1d(x)]),
                EFFORT_GRID,
                FD_STEP,
            )
            assert max_rel_err(fd, analytic) <= FD_REL_TOL

    def test_tie_prob_partials(self, case, q):
        del q
        csf = build(case)
        r, x = csf.r, EFFORT_GRID
        f1 = r * x ** (r - 1.0)
        for other in RIVAL_EFFORTS:
            total = x ** r + other ** r + 1.0
            for share, analytic in ((0, f1 * (other ** r + 1.0) / total ** 2),
                                    (2, -f1 / total ** 2)):
                fd = central_diff(
                    lambda x: np.array([csf.outcome(xi, other)[share] for xi in np.atleast_1d(x)]),
                    EFFORT_GRID,
                    FD_STEP,
                )
                assert max_rel_err(fd, analytic) <= FD_REL_TOL
