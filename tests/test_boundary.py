"""Validation happens once, at the public boundary.

Public family methods check their arguments and raise fixed error texts;
the solvers, the designer and the audits check their inputs on entry and
then evaluate only the families' private kernels.  The grid oracle calls
neither derivatives nor kernels, only `outcome` and `payoff`.
"""
from __future__ import annotations

import math
import re
import sys
import warnings

import numpy as np
import pytest

from tiebreak import (
    FAMILIES,
    ContestError,
    ConvergenceError,
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
from tiebreak.equilibrium import solve_lanes
from tiebreak.families import FLOATS, LANES, BlavatskyyPower

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

THETA_METHODS = ("p", "p0", "z", "z_prime", "z_slopes")
Q_METHODS = ("z", "z_prime", "z_slopes")
PAIR_METHODS = ("outcome", "win_prob", "win_prob_d1")
PAIR_Q_METHODS = ("win_prob", "win_prob_d1")
OWN_POSITIVE = ("win_prob_d1",)

Q_SCALAR = (ValidationError, "q must lie in [0, 1], got 1.5")
Q_NAN = (ValidationError, "q must be finite, got nan")
Q_ARRAY = (ValidationError, "every q must be finite and lie in [0, 1]")
# an argument that is no number is named in the text, a lone value or an entry
NO_NUMBERS = ("a", [1.0, "x"])
Q_NO_NUMBERS = (("a", (ValidationError, "q must be a real number, got 'a'")),
                (None, (ValidationError, "q must be a real number, got None")),
                (["a"], (ValidationError, "tie shares must be numbers, got ['a']")))


def _no_number(name: str, value):
    return (ValidationError, f"{name} must be numbers, got {value!r}")


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
            for theta in NO_NUMBERS:
                cases.append((name, method, _reduced_call(method, theta),
                              _no_number("theta", theta)))
        for method in Q_METHODS:
            cases.append((name, method, (1.0, 1.5), Q_SCALAR))
            cases.append((name, method, (1.0, math.nan), Q_NAN))
            cases.append((name, method, (1.0, [0.5, 1.5]), Q_ARRAY))
            cases.append((name, method, (1.0, [0.5, math.nan]), Q_ARRAY))
            # the tie share is checked before the contest state
            cases.append((name, method, (math.nan, 1.5), Q_SCALAR))
            for q, expected in Q_NO_NUMBERS:
                cases.append((name, method, (1.0, q), expected))
        for x1, x2, text in ((math.nan, 1.0, "x1 must be finite"),
                             (1.0, math.inf, "x2 must be finite"),
                             (-1.0, 1.0, "x1 must be >= 0"),
                             (1.0, -1.0, "x2 must be >= 0"),
                             ([1.0, -2.0], 1.0, "x1 must be >= 0")):
            cases.append((name, "outcome", (x1, x2), (DomainError, text)))
        cases.append((name, "outcome", ("a", 1.0), _no_number("x1", "a")))
        cases.append((name, "outcome", (1.0, [1.0, "x"]), _no_number("x2", [1.0, "x"])))

    name = "blavatskyy-power"
    for method in PAIR_METHODS:
        cases.append((name, method, _pair_call(method, "a", 1.0), _no_number("x1", "a")))
        cases.append((name, method, _pair_call(method, 1.0, [1.0, "x"]),
                      _no_number("x2", [1.0, "x"])))
        for x1, x2, text in ((math.nan, 1.0, "x1"), (1.0, math.inf, "x2")):
            cases.append((name, method, _pair_call(method, x1, x2),
                          (DomainError, f"{text} must be finite")))
        for x1, x2, text in ((-1.0, 1.0, "x1"), (1.0, -1.0, "x2"), ([1.0, -1.0], 1.0, "x1")):
            cases.append((name, method, _pair_call(method, x1, x2),
                          (DomainError, f"{text} must be >= 0")))
    for method in OWN_POSITIVE:
        cases.append((name, method, _pair_call(method, 0.0, 1.0),
                      (DomainError, "x1 must be > 0")))
        # both efforts are checked for sign before own effort for positivity
        cases.append((name, method, _pair_call(method, 0.0, -1.0),
                      (DomainError, "x2 must be >= 0")))
    for method in PAIR_Q_METHODS:
        cases.append((name, method, (1.0, 1.0, 1.5), Q_SCALAR))
        cases.append((name, method, (1.0, 1.0, math.nan), Q_NAN))
        cases.append((name, method, (1.0, 1.0, [0.5, 1.5]), Q_ARRAY))
        cases.append((name, method, (-1.0, 1.0, 1.5), Q_SCALAR))
        cases.append((name, method, ("a", 1.0, 1.5), Q_SCALAR))
        for q, expected in Q_NO_NUMBERS:
            cases.append((name, method, (1.0, 1.0, q), expected))
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
    for method in PAIR_METHODS:
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


KERNEL_EFFORTS = (0.0, 1e-300, 1e-150, 1e-20, 0.3, 1.0, 7.0, 1e20, 1e150, 1e300)


def _assert_lane_bits(scalars, lanes):
    """Each scalar result is a builtin float with the bits of its one-element lane."""
    for scalar, lane in zip(scalars, lanes, strict=True):
        assert type(scalar) is float
        assert scalar.hex() == float(lane[0]).hex()


# r = 0.5: NumPy takes x^0.5 with a scalar exponent as a square root, whose
# last bit can differ from pow's, so the scalar route must keep that dispatch.
# Below linear impact the payoff slope sees own effort > 0 only (see
# `test_concave_marginal_sees_positive_own_effort_below_linear_impact`).
@pytest.mark.parametrize("r", [0.01, 0.3, 0.5, 0.9, 0.999])
@pytest.mark.parametrize("prize", [1.7, 1e6])
def test_concave_float_marginal_keeps_the_lane_bits(r, prize):
    """The payoff slope prize * `_win_d1` - 1 has a lane's bits on floats."""
    csf = make_family("blavatskyy-power", r=r)
    for own in KERNEL_EFFORTS[1:]:
        for other in KERNEL_EFFORTS:
            for own_q in (0.0, 0.4, 1.0):
                scalar = prize * csf._win_d1(own, other, own_q, FLOATS) - 1.0
                lane = prize * csf._win_d1(np.array([own]), np.array([other]),
                                           np.array([own_q]), LANES) - 1.0
                _assert_lane_bits((scalar,), (lane,))


@pytest.mark.parametrize("r", [0.01, 0.5, 0.999, 1.0])
@pytest.mark.parametrize("prize", [1.7, 1e6])
def test_concave_marginal_is_prize_times_the_public_derivative_less_one(r, prize):
    """The solvers' payoff slope at positive own effort is the family's one
    marginal expression: prize * win_prob_d1 - 1, bit for bit."""
    csf = make_family("blavatskyy-power", r=r)
    for own in KERNEL_EFFORTS[1:]:
        for other in KERNEL_EFFORTS:
            for own_q in (0.0, 0.4, 1.0):
                want = prize * csf.win_prob_d1(own, other, own_q) - 1.0
                got = prize * csf._win_d1(own, other, own_q, FLOATS) - 1.0
                assert type(got) is float and got.hex() == want.hex(), (own, other, own_q)


@pytest.mark.parametrize("other", [1e300, np.array([1e300])])
def test_linear_marginal_at_zero_effort_against_a_huge_rival_is_quiet(other):
    """The slope at zero own effort is head / total / total, whose quotients
    stay in range where total * total would overflow."""
    csf = make_family("blavatskyy-power", r=1.0)
    own = 0.0 * other
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = csf._win_d1(own, other, 0.5 + own,
                          LANES if isinstance(other, np.ndarray) else FLOATS)
    assert np.all(got > 0.0) and np.all(2.0 * got - 1.0 == -1.0)


@pytest.mark.parametrize("v1, v2, q, residuals", [
    (0.8, 0.5, 0.0, (-0.19999999999999996, -1.0)),
    (0.5, 0.8, 1.0, (-1.0, -0.19999999999999996))])
def test_linear_corner_at_a_zero_head_has_payoff_slope_minus_one(v1, v2, q, residuals):
    """The weaker player wins every tie, and the stronger player's best reply
    to no effort is none: the weaker player's rival head is 0 in its residual,
    where winning adds nothing and its payoff slope is exactly -1, on floats and
    on a lane."""
    spec = make_contest("blavatskyy-power", v1=v1, v2=v2, q=q, r=1.0)
    eq, lanes = solve(spec), solve_lanes(spec, [q])
    assert (eq.x1, eq.x2) == (0.0, 0.0) and (lanes.x1[0], lanes.x2[0]) == (0.0, 0.0)
    assert eq.residuals == residuals
    assert tuple(float(r[0]) for r in lanes.residuals) == residuals
    assert not lanes.errors


def _concave_draws(count: int):
    """Seeded concave contests, alternating design scale (prizes 0.1 to 10, r in
    (0, 1]) and extreme scale (prizes 1e-3 to 1e300, up to 1e3 apart, r within
    1e-2 of 0 or of 1), every other pair at r = 1, in either label order."""
    rng = np.random.default_rng(5006)
    for i in range(count):
        if i % 2:
            strong, ratio = 10.0 ** rng.uniform(-3.0, 300.0), 10.0 ** rng.uniform(0.0, 3.0)
            edge = 10.0 ** rng.uniform(-6.0, -2.0)
            r = edge if rng.random() < 0.5 else 1.0 - edge
        else:
            strong, ratio = 10.0 ** rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(0.0, 1.0)
            r = 1.0 - rng.random()
        v1, v2 = (strong, strong / ratio) if rng.random() < 0.5 else (strong / ratio, strong)
        yield make_contest("blavatskyy-power", v1=v1, v2=v2, q=rng.random(),
                           r=1.0 if i % 4 >= 2 else r)


# Contests whose efforts underflow at some tie rules (the first) or at all of them.
UNDERFLOWING = [make_contest("blavatskyy-power", v1=v1, v2=v2, q=0.3, r=r) for r, v1, v2 in (
    (0.9999844130652963, 860.481530024333, 11.648007893840989),
    (0.9999516685593625, 0.5187675258988292, 0.03759187140132979),
    (0.9989753013993117, 0.3071752938210344, 0.13492424671599415))]


def test_concave_marginal_sees_positive_own_effort_below_linear_impact(monkeypatch):
    """Zero own effort and a zero rival head reach the win slope only from the
    linear-impact corners, where `_win_d1` reads 0 at a zero head: an exponent
    below one passes its efforts through the underflow gate first, and a
    failed lane's effort arrives as 1.  So every call at r < 1, through every
    entry point, has own effort > 0 and a rival head > 0."""
    win_d1, calls = BlavatskyyPower._win_d1, []

    def recorded(csf, own, other, own_q, xp):
        head = np.power(other, csf.r) + (1.0 - np.asarray(own_q))
        calls.append((csf.r, np.min(own), np.min(head)))
        return win_d1(csf, own, other, own_q, xp)

    monkeypatch.setattr(BlavatskyyPower, "_win_d1", recorded)
    rule, underflows = RandomTieRule.from_pairs([(0.1, 0.25), (0.6, 0.5), (0.95, 0.25)]), 0
    for spec in (*_concave_draws(48), *UNDERFLOWING):
        lanes = solve_lanes(spec, np.linspace(0.0, 1.0, 101))
        lanes.residuals  # evaluated where read, failing lanes' stand-ins included
        underflows += sum("underflows" in str(error) for error in lanes.errors.values())
        # the designer forms no residual, so its tie rules are read here through the
        # entry points that do: `sweep`'s lanes and a `solve` per atom of the rule
        reads = [lambda: solve_lanes(spec, np.linspace(0.0, 1.0, 21)).residuals,
                 *(lambda q=atom.q: solve(spec.with_q(q)) for atom, _ in rule.atoms)]
        for call in (lambda: solve(spec), *reads, lambda: sweep(spec, 21),
                     lambda: optimal_q(spec), lambda: expected_effort(spec, rule)):
            try:
                call()
            except ContestError:
                pass
    below = [(own, head) for r, own, head in calls if r < 1.0]
    assert underflows > 0 and len(below) > 300
    assert min(own for own, _ in below) > 0.0 and min(head for _, head in below) > 0.0
    assert any(own == 0.0 for r, own, _ in calls if r == 1.0)  # the corners' zero effort
    assert any(head == 0.0 for r, _, head in calls if r == 1.0)  # and their zero heads


# ------------------------------------------------------------ the boundary

PUBLIC_EVALUATIONS = ("p", "p0", "z", "z_prime", "z_slopes", "win_prob", "win_prob_d1")

DERIVATIVES = ("z_prime", "z_slopes", "win_prob_d1")

DERIVATIVE_KERNELS = ("_zp", "_zslopes", "_win_d1")

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
    grid = GridSpec.for_contest(spec, steps=201)
    before = (verify(spec, eq, grid).to_json_dict(), grid_nash(spec, grid))
    _forbid(monkeypatch, DERIVATIVES + DERIVATIVE_KERNELS)
    after = (verify(spec, eq, grid).to_json_dict(), grid_nash(spec, grid))
    assert after == before


# Prizes are checked on entry, but the ratio closed form derives its efforts
# from them: a prize ratio beyond double precision is a domain error of the
# contest, and a strong effort v1 * beta * slope that overflows in both
# orders of its product fails its tie rule as an effort that underflows
# does.  Neither emits a NumPy warning.
RATIO_OVERFLOWS = [
    (dict(v1=1e200, v2=1e-200, r=0.5), False, DomainError,
     "the ratio of prizes (1e+200, 1e-200) overflows double precision"),
    (dict(v1=1e-200, v2=1e200, r=0.5), False, DomainError,
     "the ratio of prizes (1e-200, 1e+200) overflows double precision"),
    (dict(v1=1e308, v2=1e308 / 1.001, r=1000.0), True, ConvergenceError,
     "closed-form efforts overflow double precision (slope 196.46086657315118)"),
]


@pytest.mark.parametrize("prizes, force, error, text", RATIO_OVERFLOWS)
def test_ratio_overflow_raises_a_typed_error(prizes, force, error, text):
    spec = make_contest("jia-ratio", q=0.3, k=1.0, **prizes)
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        solve(spec, force=force)
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        solve_many(spec, [0.3, 0.5], force=force)  # the error of its smallest q, 0.3


# Finite efforts whose closed form overflows or underflows in one order of a
# product: v1 * beta passes the largest double, so the strong effort is formed
# as v1 * (beta * slope); or v2 * z' leaves the normal range (the last two), so
# player 2's marginal benefit is formed as v2 * (z' * theta).  Scalar and lane
# solves agree to the bit, with residuals at rounding level.
RATIO_REORDERED = [
    ("jia-ratio", dict(r=30.0, k=1.0), (1e306, 1e308), (3e247, 3e249)),
    ("jia-ratio", dict(r=30.0, k=1.0), (1e308, 1e306), (3e249, 3e247)),
    ("vesperoni-ratio", dict(r=0.5, k=2.0), (1e200, 1.0), (5e99, 5e-101)),
    ("jia-ratio", dict(r=0.5, k=2.0), (1e160, 1.0), (6.25e79, 6.25e-81)),
    ("jia-ratio", dict(r=0.5, k=2.0), (1e100, 1e-100), (0.625, 6.25e-201)),
    ("jia-ratio", dict(r=0.5, k=2.0), (1e100, 1e300), (0.625, 6.25e199)),
]


@pytest.mark.parametrize("name, params, prizes, efforts", RATIO_REORDERED,
                         ids=[f"{n}-{p[0]:g}-{p[1]:g}" for n, _, p, _ in RATIO_REORDERED])
def test_ratio_products_that_overflow_only_in_one_order_solve(name, params, prizes, efforts):
    spec = make_contest(name, v1=prizes[0], v2=prizes[1], q=0.5, **params)
    eq = solve(spec, force=True)
    assert (eq.x1, eq.x2) == pytest.approx(efforts, rel=1e-14)
    assert max(map(abs, eq.residuals)) <= 4.0 * sys.float_info.epsilon
    qs = [0.0, 0.3, 0.5]
    lanes = solve_lanes(spec, qs, force=True)
    assert not lanes.errors
    for i, q in enumerate(qs):
        assert lanes.equilibrium(i) == solve(spec.with_q(q), force=True)


# A larger prize within rounding of the largest double: v2 * beta rounds past it,
# so the weak effort v2 * beta * slope overflowed where its other order,
# v2 * (beta * slope), is finite (a bare ZeroDivisionError on `solve` and an inf
# lane at the first contest, an infinite x1 returned at the second).  Each
# family and entry point now ends in finite efforts at rounding-level residuals,
# the lane that of `solve`, or in a typed error on both.
RATIO_WEAK_OVERFLOWS = [
    (dict(r=4.506823366702063e-61, k=1.0), (1.7976931348623157e308, 4.347397171339499e188), 1.0),
    (dict(r=1.4091461243407474e-46, k=3.229814146782303e25),
     (1.2558225404922047e133, 1.7976931348623157e308), 0.9986396432541841),
]


@pytest.mark.parametrize("name", ["jia-ratio", "vesperoni-ratio"])
@pytest.mark.parametrize("params, prizes, q", RATIO_WEAK_OVERFLOWS)
def test_ratio_weak_efforts_past_the_largest_double_end_finite_or_typed(name, params, prizes, q):
    spec = make_contest(name, v1=prizes[0], v2=prizes[1], q=q, **params)
    lanes = solve_lanes(spec, [q], force=True)
    try:
        eq = solve(spec, force=True)
    except ContestError as error:
        assert str(lanes.errors[0]) == str(error)
        return
    assert not lanes.errors and lanes.equilibrium(0) == eq
    assert all(map(math.isfinite, (eq.x1, eq.x2, eq.beta)))
    assert max(map(abs, eq.residuals)) <= 4.0 * sys.float_info.epsilon


# Finite efforts whose total R = x1 + x2 passes the largest double: the
# designer's totals raise `ConvergenceError` naming the smallest such q
# (forced jia-ratio r = 8; R overflows only near the tie rule that favours
# the stronger player), while `Equilibrium.total` stays IEEE.
TOTAL_OVERFLOWS = [
    (dict(v1=1e308, v2=1e308 / 1.5, r=8.0, k=5.0), "0", "0"),
    (dict(v1=1e308 / 1.5, v2=1e308, r=8.0, k=5.0), "0.98999999999999999", "1"),
]


@pytest.mark.parametrize("prizes, q_101, q_11", TOTAL_OVERFLOWS)
def test_designer_totals_that_overflow_raise_naming_q(prizes, q_101, q_11):
    spec = make_contest("jia-ratio", q=0.5, **prizes)
    text = "total effort R = x1 + x2 overflows double precision at q = "
    for call, q in [(lambda: sweep(spec, 101, force=True), q_101),
                    (lambda: optimal_q(spec, force=True), q_101),
                    (lambda: sweep(spec, 11, force=True), q_11)]:
        with pytest.raises(ConvergenceError, match=f"^{re.escape(text + q)} \\(x1 = "):
            call()
    assert math.isfinite(solve(spec.with_q(0.5), force=True).total)


@pytest.mark.parametrize("rule", [((0.5, 0.5), (0.9, 0.5)), ((0.9, 0.5), (0.5, 0.5))])
def test_expected_effort_of_an_overflowing_total_raises_naming_q(rule):
    spec = make_contest("jia-ratio", v1=1.1e308, v2=1e308, q=0.5, r=8.0, k=2.0)
    eq = solve(spec.with_q(0.5), force=True)
    assert math.isfinite(eq.x1) and math.isfinite(eq.x2) and eq.total == math.inf
    with pytest.raises(ConvergenceError, match=re.escape(
            "total effort R = x1 + x2 overflows double precision at q = 0.5 "
            f"(x1 = {eq.x1!r}, x2 = {eq.x2!r})")):
        expected_effort(spec, rule, force=True)


def test_ratio_lanes_fail_only_where_the_strong_effort_overflows():
    # slope z_q'(1.1) falls from 1.816 at q = 0 to 1.115 at q = 1, so
    # v1 * beta * slope passes the largest double between q = 0.4 and 0.5
    spec = make_contest("jia-ratio", v1=1.1e308, v2=1e308, q=0.0, r=8.0, k=2.0)
    qs = [i / 10 for i in range(11)]
    lanes = solve_lanes(spec, qs, force=True)
    assert sorted(lanes.errors) == [0, 1, 2, 3, 4]
    for i, q in enumerate(qs):
        if i in lanes.errors:
            with pytest.raises(ConvergenceError, match="^closed-form efforts overflow") as info:
                solve(spec.with_q(q), force=True)
            assert str(lanes.errors[i]) == str(info.value)
        else:
            assert lanes.equilibrium(i) == solve(spec.with_q(q), force=True)
            assert math.isfinite(lanes.x1[i]) and math.isfinite(lanes.x2[i])
