"""Validation happens once, at the public boundary.

Public family methods check their arguments and raise fixed error texts;
the solvers, the designer and the audits check their inputs on entry and
then evaluate only the families' private kernels.  The grid oracle calls
neither derivatives nor kernels, only `outcome` and `payoff`.
"""
from __future__ import annotations

import math
import re

import pytest

from tiebreak import (
    FAMILIES,
    DomainError,
    GridSpec,
    RandomTieRule,
    ValidationError,
    expected_effort,
    grid_nash,
    make_contest,
    make_family,
    optimal_q,
    solve,
    solve_beta,
    solve_many,
    sweep,
    verify,
)
from tiebreak.audit import audit_family

from helpers import case_id

FAMILY_PARAMS = {
    "vesperoni-ratio": dict(r=0.5, k=2.0),
    "jia-ratio": dict(r=0.5, k=2.0),
    "vesperoni-diff": dict(k=2.0),
    "jia-diff": dict(k=2.0),
    "blavatskyy-power": dict(r=0.5),
}

REDUCED = ("vesperoni-ratio", "jia-ratio", "vesperoni-diff", "jia-diff")
RATIO = ("vesperoni-ratio", "jia-ratio")

THETA_METHODS = ("p", "p0", "z", "z_prime", "z_slopes", "z_double_prime",
                 "p0_prime", "p0_double_prime")
Q_METHODS = ("z", "z_prime", "z_slopes", "z_double_prime")
PAIR_METHODS = ("outcome", "win_prob", "win_prob_d1", "win_prob_d11",
                "tie_prob_d1", "tie_prob_d11")
PAIR_Q_METHODS = ("win_prob", "win_prob_d1", "win_prob_d11")
OWN_POSITIVE = ("win_prob_d1", "win_prob_d11", "tie_prob_d1", "tie_prob_d11")

Q_SCALAR = (ValidationError, "q must lie in [0, 1], got 1.5")
Q_NAN = (ValidationError, "q must be finite, got nan")
Q_ARRAY = (ValidationError, "every q must be finite and lie in [0, 1]")


def _reduced_call(method: str, theta, q=0.5):
    return (theta, q) if method in Q_METHODS else (theta,)


def _pair_call(method: str, x1, x2, q=0.5):
    return (x1, x2, q) if method in PAIR_Q_METHODS else (x1, x2)


def _error_cases():
    cases = []
    for name in REDUCED:
        for method in THETA_METHODS:
            for theta in (math.nan, math.inf, [1.0, -math.inf]):
                cases.append((name, method, _reduced_call(method, theta),
                              (DomainError, "theta must be finite")))
            if name in RATIO:
                for theta in (0.0, -1.0, [1.0, 0.0]):
                    cases.append((name, method, _reduced_call(method, theta),
                                  (DomainError, "theta must be > 0")))
        for method in Q_METHODS:
            cases.append((name, method, (1.0, 1.5), Q_SCALAR))
            cases.append((name, method, (1.0, math.nan), Q_NAN))
            cases.append((name, method, (1.0, [0.5, 1.5]), Q_ARRAY))
            cases.append((name, method, (1.0, [0.5, math.nan]), Q_ARRAY))
            # the tie share is checked before the contest state
            cases.append((name, method, (math.nan, 1.5), Q_SCALAR))
        for x1, x2, text in ((math.nan, 1.0, "x1 must be finite"),
                             (1.0, math.inf, "x2 must be finite"),
                             (-1.0, 1.0, "x1 must be >= 0"),
                             (1.0, -1.0, "x2 must be >= 0"),
                             ([1.0, -2.0], 1.0, "x1 must be >= 0")):
            cases.append((name, "outcome", (x1, x2), (DomainError, text)))

    name = "blavatskyy-power"
    for method in ("impact", "impact_prime", "impact_double_prime"):
        cases.append((name, method, (math.nan,), (DomainError, "x must be finite")))
        cases.append((name, method, ([1.0, math.inf],), (DomainError, "x must be finite")))
    cases.append((name, "impact", (-1.0,), (DomainError, "x must be >= 0")))
    for method in ("impact_prime", "impact_double_prime"):
        for x in (0.0, -1.0, [1.0, 0.0]):
            cases.append((name, method, (x,), (DomainError, "x must be > 0")))
    for method in PAIR_METHODS:
        for x1, x2 in ((math.nan, 1.0), (1.0, math.inf)):
            cases.append((name, method, _pair_call(method, x1, x2),
                          (DomainError, "x must be finite")))
        for x1, x2 in ((-1.0, 1.0), (1.0, -1.0), ([1.0, -1.0], 1.0)):
            cases.append((name, method, _pair_call(method, x1, x2),
                          (DomainError, "x must be >= 0")))
    for method in OWN_POSITIVE:
        cases.append((name, method, _pair_call(method, 0.0, 1.0),
                      (DomainError, "x must be > 0")))
        # both efforts are checked for sign before own effort for positivity
        cases.append((name, method, _pair_call(method, 0.0, -1.0),
                      (DomainError, "x must be >= 0")))
    for method in PAIR_Q_METHODS:
        cases.append((name, method, (1.0, 1.0, 1.5), Q_SCALAR))
        cases.append((name, method, (1.0, 1.0, math.nan), Q_NAN))
        cases.append((name, method, (1.0, 1.0, [0.5, 1.5]), Q_ARRAY))
        cases.append((name, method, (-1.0, 1.0, 1.5), Q_SCALAR))
    return cases


ERROR_CASES = _error_cases()


@pytest.mark.parametrize(
    "name, method, args, expected", ERROR_CASES,
    ids=[f"{n}-{m}-{i}" for i, (n, m, _, _) in enumerate(ERROR_CASES)])
def test_public_methods_raise_their_exact_error_texts(name, method, args, expected):
    csf = make_family(name, **FAMILY_PARAMS[name])
    exc_type, text = expected
    with pytest.raises(exc_type, match=f"^{re.escape(text)}$"):
        getattr(csf, method)(*args)


def test_error_cases_cover_every_public_family_method():
    covered = {(name, method) for name, method, _, _ in ERROR_CASES}
    for name in REDUCED:
        for method in THETA_METHODS + ("outcome",):
            assert (name, method) in covered
    for method in PAIR_METHODS + ("impact", "impact_prime", "impact_double_prime"):
        assert ("blavatskyy-power", method) in covered


# ------------------------------------------------------------ builtin floats

FLOAT_ROUTES = [
    ("ratio", "jia-ratio", dict(r=0.5, k=2.0), 3.0, 1.0, 0.3),
    ("diff", "jia-diff", dict(k=2.0), 3.0, 1.0, 0.3),
    ("concave r<1", "blavatskyy-power", dict(r=0.5), 3.0, 1.0, 0.3),
    ("r=1 interior", "blavatskyy-power", dict(r=1.0), 30.0, 10.0, 0.3),
    ("r=1 corner", "blavatskyy-power", dict(r=1.0), 10.0, 1.0, 1.0),
]


def _assert_builtin_fields(eq, corner_expected):
    for value in (eq.x1, eq.x2, *eq.residuals):
        assert type(value) is float, (eq, value)
    assert eq.beta is None or type(eq.beta) is float, eq
    assert all(type(flag) is bool for flag in eq.corner_flags), eq
    assert any(eq.corner_flags) == corner_expected, eq


@pytest.mark.parametrize("route, name, params, strong, weak, q", FLOAT_ROUTES,
                         ids=[r[0] for r in FLOAT_ROUTES])
@pytest.mark.parametrize("swapped", [False, True], ids=["strong-first", "weak-first"])
def test_every_route_returns_builtin_floats(route, name, params, strong, weak, q, swapped):
    v1, v2 = (weak, strong) if swapped else (strong, weak)
    q = 1.0 - q if swapped else q
    spec = make_contest(name, v1=v1, v2=v2, q=q, **params)
    corner = route == "r=1 corner"
    _assert_builtin_fields(solve(spec), corner)
    (lane,) = solve_many(spec, [q])
    _assert_builtin_fields(lane, corner)
    if route == "diff":
        assert type(solve_beta(spec.csf, (v1, v2), q)) is float


# ------------------------------------------------------------ the boundary

PUBLIC_EVALUATIONS = ("p", "p0", "z", "z_prime", "z_slopes", "z_double_prime",
                      "p0_prime", "p0_double_prime", "impact", "impact_prime",
                      "impact_double_prime", "win_prob", "win_prob_d1", "win_prob_d11",
                      "tie_prob_d1", "tie_prob_d11")

DERIVATIVES = ("z_prime", "z_slopes", "z_double_prime", "p0_prime", "p0_double_prime",
               "impact_prime", "impact_double_prime", "win_prob_d1", "win_prob_d11",
               "tie_prob_d1", "tie_prob_d11")

DERIVATIVE_KERNELS = ("_zp", "_zslopes", "_impact_prime", "_impact_double_prime", "_win_d1")

BOUNDARY_CONTESTS = list(FAMILY_PARAMS.items()) + [("blavatskyy-power", dict(r=1.0))]


def _forbid(monkeypatch, names):
    """Make each named method raise on every family class that has it."""
    def refuse(*args, **kwargs):
        raise AssertionError("called past the boundary")

    for name in names:
        owners = [cls for cls in FAMILIES.values() if hasattr(cls, name)]
        assert owners, name
        for cls in owners:
            monkeypatch.setattr(cls, name, refuse)


@pytest.mark.parametrize("name, params", BOUNDARY_CONTESTS,
                         ids=map(case_id, BOUNDARY_CONTESTS))
def test_solvers_designer_and_audits_call_no_public_family_method(monkeypatch, name, params):
    spec = make_contest(name, v1=3.0, v2=1.5, q=0.4, **params)
    rule = RandomTieRule.from_pairs([(0.2, 0.5), (0.9, 0.5)])
    _forbid(monkeypatch, PUBLIC_EVALUATIONS)
    assert solve(spec).total > 0.0
    assert len(solve_many(spec, [0.0, 0.4, 1.0])) == 3
    assert len(sweep(spec, 101).totals) == 101
    assert optimal_q(spec).total_effort > 0.0
    assert expected_effort(spec, rule) > 0.0
    assert audit_family(spec.csf, v1=spec.v1).passed


@pytest.mark.parametrize("name, params", BOUNDARY_CONTESTS,
                         ids=map(case_id, BOUNDARY_CONTESTS))
def test_oracle_calls_neither_derivatives_nor_kernels(monkeypatch, name, params):
    spec = make_contest(name, v1=3.0, v2=1.5, q=0.4, **params)
    eq = solve(spec)
    grid = GridSpec.for_contest(spec, steps=201, eps=1e-3)
    before = (verify(spec, eq, grid).to_json_dict(), grid_nash(spec, grid))
    _forbid(monkeypatch, DERIVATIVES + DERIVATIVE_KERNELS)
    after = (verify(spec, eq, grid).to_json_dict(), grid_nash(spec, grid))
    assert after == before


# Prizes are checked on entry, but the ratio closed form derives theta from
# them: a prize ratio or a forced effort that overflows keeps the family's
# domain error rather than reaching the kernels.
RATIO_OVERFLOWS = [
    (dict(v1=1e200, v2=1e-200, r=0.5), False, "theta must be finite"),
    (dict(v1=1e-200, v2=1e200, r=0.5), False, "theta must be finite"),
    (dict(v1=1e308, v2=1e308 / 1.001, r=1000.0), True, "theta must be finite"),
    (dict(v1=1e308, v2=1e306, r=30.0), True, "theta must be finite"),
    (dict(v1=1e306, v2=1e308, r=30.0), True, "theta must be > 0"),
]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("prizes, force, text", RATIO_OVERFLOWS)
def test_ratio_overflow_raises_the_family_domain_error(prizes, force, text):
    spec = make_contest("jia-ratio", q=0.3, k=1.0, **prizes)
    with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
        solve(spec, force=force)
    with pytest.raises(DomainError, match=f"^{re.escape(text)}$"):
        solve_many(spec, [0.0, 0.3], force=force)
