"""Value objects: validation, normalization, serialization round trips."""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from types import SimpleNamespace

import numpy as np
import pytest

from tiebreak import (
    ContestSpec,
    CostKind,
    EffortProfile,
    GridSpec,
    OutcomeDistribution,
    RandomTieRule,
    TieRule,
    ValidationError,
    Valuations,
    audit_diff,
    audit_ratio,
    convexity_precondition,
    eventual_win_prob,
    grid_best_response,
    make_contest,
    make_family,
    outcome_distribution,
    payoff,
    sweep,
)
from tiebreak.audit import audit_family
from tiebreak.core import MAX_COUNT, JsonRecord, payoffs, q_value


@dataclass(frozen=True)
class Plain(JsonRecord):
    b: float
    a: tuple
    cost: CostKind
    rule: TieRule
    table: dict


@dataclass(frozen=True)
class Keyed(JsonRecord):
    lo: float
    hi: float
    trace: tuple = ()

    json_keys = ("width", ("bounds", ("lo", "hi")))

    @property
    def width(self) -> float:
        return self.hi - self.lo


class TestJsonRecord:
    def test_default_keys_are_the_fields_in_declaration_order(self):
        doc = Plain(2.0, (1.0, EffortProfile(0.5, 0.25)), CostKind.LINEAR, TieRule(0.75),
                    {"k": 2.0}).to_json_dict()
        assert list(doc) == ["b", "a", "cost", "rule", "table"]
        assert doc == {"b": 2.0, "a": [1.0, {"x1": 0.5, "x2": 0.25}], "cost": "linear",
                       "rule": 0.75, "table": {"k": 2.0}}

    def test_key_list_orders_properties_and_nested_groups(self):
        doc = Keyed(1.0, 3.0).to_json_dict()
        assert doc == {"width": 2.0, "bounds": {"lo": 1.0, "hi": 3.0}}
        assert list(doc) == ["width", "bounds"]

    def test_a_field_left_out_of_the_key_list_is_not_emitted(self):
        assert "trace" not in Keyed(1.0, 3.0, trace=("step",)).to_json_dict()

    def test_dicts_are_copied(self):
        record = Plain(0.0, (), CostKind.LINEAR, TieRule(0.0), {"k": 2.0})
        record.to_json_dict()["table"]["k"] = 9.0
        assert record.table == {"k": 2.0}
        spec = make_contest(family="jia-ratio", v1=2.0, v2=1.0, q=0.5, r=1.0, k=2)
        spec.to_json_dict()["params"]["k"] = 9.0
        assert spec.csf.params["k"] == 2 and spec.params["k"] == 2
        report = audit_ratio(spec.csf)
        report.to_json_dict()["params"]["k"] = 9.0
        assert report.params["k"] == 2


class TestCostKind:
    def test_linear_cost_is_identity(self):
        assert CostKind.LINEAR.cost(0.7) == 0.7
        assert CostKind.LINEAR.cost(0.0) == 0.0

    def test_quadratic_cost_is_half_square(self):
        assert CostKind.QUADRATIC_HALF.cost(3.0) == 4.5
        assert CostKind.QUADRATIC_HALF.cost(0.2) == pytest.approx(0.02)

    def test_cost_accepts_arrays(self):
        x = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(CostKind.QUADRATIC_HALF.cost(x), [0.0, 0.5, 2.0])

    @pytest.mark.parametrize("kind", list(CostKind))
    @pytest.mark.parametrize("prize", [0.5, 2.0, 1e9, 8.99e307, 1e308, sys.float_info.max])
    def test_break_even_effort_costs_the_prize(self, kind, prize):
        # the top prizes overflow 2 * prize: sqrt(2 prize) is still finite
        effort = kind.break_even(prize)
        assert kind.cost(effort) == pytest.approx(prize, rel=1e-15)
        with localcontext() as ctx:
            ctx.prec = 60
            exact = float((2 * Decimal(prize)).sqrt())  # the double nearest sqrt(2 prize)
        assert effort == (prize if kind is CostKind.LINEAR else exact)


class TestValuations:
    def test_orders_strongest_first(self):
        vals = Valuations(1.0, 2.0)
        assert (vals.v1, vals.v2, vals.swapped) == (2.0, 1.0, True)

    def test_keeps_order_when_already_sorted(self):
        vals = Valuations(2.0, 1.0)
        assert (vals.v1, vals.v2, vals.swapped) == (2.0, 1.0, False)

    def test_equal_prizes_not_marked_swapped(self):
        assert Valuations(1.5, 1.5).swapped is False

    def test_beta_is_prize_ratio(self):
        assert Valuations(3.0, 1.5).beta == 2.0

    def test_label_maps_act_only_when_swapped(self):
        kept, swapped = Valuations(2.0, 1.0), Valuations(1.0, 2.0)
        assert (kept.tie_share(0.25), kept.in_order("a", "b")) == (0.25, ("a", "b"))
        assert (swapped.tie_share(0.25), swapped.in_order("a", "b")) == (0.75, ("b", "a"))
        qs = np.array([0.0, 0.3, 1.0])
        assert swapped.tie_share(qs).tolist() == (1.0 - qs).tolist()
        assert kept.tie_share(qs) is qs

    def test_only_the_constructor_decides_the_swap(self):
        """A third entry cannot set `swapped`: the order of the prizes decides it."""
        for call in (lambda: Valuations(2.0, 1.0, True), lambda: Valuations(2.0, 1.0, swapped=True)):
            with pytest.raises(TypeError):
                call()
        assert Valuations(2.0, 1.0) == Valuations(2.0, 1.0) != Valuations(1.0, 2.0)
        assert Valuations(1.0, 2.0) == Valuations(1.0, 2.0)
        assert repr(Valuations(1.0, 2.0)) == "Valuations(v1=2.0, v2=1.0, swapped=True)"

    @pytest.mark.parametrize("pair", [(0.0, 1.0), (1.0, -2.0), (math.nan, 1.0)])
    def test_rejects_nonpositive_or_nan(self, pair):
        with pytest.raises(ValidationError):
            Valuations(*pair)


class TestTieRule:
    def test_accepts_unit_interval(self):
        assert TieRule(0.0).q == 0.0
        assert TieRule(1.0).q == 1.0

    @pytest.mark.parametrize("q", [-0.1, 1.1, math.nan])
    def test_rejects_outside_unit_interval(self, q):
        with pytest.raises(ValidationError):
            TieRule(q)

    def test_coerce_accepts_rule_and_number(self):
        assert TieRule.coerce(TieRule(0.25)).q == 0.25
        assert TieRule.coerce(0.25).q == 0.25


class TestRandomTieRule:
    def test_from_pairs_and_mean(self):
        rule = RandomTieRule.from_pairs([(0.0, 0.5), (1.0, 0.5)])
        assert rule.mean_q == pytest.approx(0.5)
        assert rule.is_unbiased

    def test_point_mass(self):
        rule = RandomTieRule.from_pairs([(0.3, 1.0)])
        assert rule.mean_q == pytest.approx(0.3)
        assert not rule.is_unbiased

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            RandomTieRule.from_pairs([(0.0, 0.4), (1.0, 0.4)])

    def test_weights_must_be_positive(self):
        with pytest.raises(ValidationError):
            RandomTieRule.from_pairs([(0.0, -0.5), (1.0, 1.5)])

    def test_atom_rules_are_validated(self):
        with pytest.raises(ValidationError):
            RandomTieRule.from_pairs([(1.5, 1.0)])


class TestEffortProfile:
    def test_accessors(self):
        prof = EffortProfile(0.4, 0.1)
        assert prof.as_tuple() == (0.4, 0.1)
        assert prof.gap == pytest.approx(0.3)
        assert prof.ratio == pytest.approx(4.0)

    def test_rejects_negative_effort(self):
        with pytest.raises(ValidationError):
            EffortProfile(-0.1, 0.5)

    def test_ratio_undefined_at_zero_denominator(self):
        with pytest.raises(ValidationError):
            _ = EffortProfile(0.4, 0.0).ratio


class TestOutcomeDistribution:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            OutcomeDistribution(0.5, 0.4, 0.2)

    def test_probabilities_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            OutcomeDistribution(1.1, -0.1, 0.0)

    def test_valid_triple(self):
        dist = OutcomeDistribution(0.5, 0.3, 0.2)
        assert (dist.p1, dist.p2, dist.p0) == (0.5, 0.3, 0.2)


# One point of each family's parameters.
FAMILY_POINTS = {
    "vesperoni-ratio": dict(r=0.5, k=2),
    "jia-ratio": dict(r=1.0, k=2),
    "vesperoni-diff": dict(k=2),
    "jia-diff": dict(k=2),
    "blavatskyy-power": dict(r=0.5),
}


class TestContestSpec:
    def make(self, **overrides):
        kwargs = dict(family="jia-ratio", v1=2.0, v2=1.0, q=0.5, r=1.0, k=2)
        kwargs.update(overrides)
        return make_contest(**kwargs)

    def test_stores_caller_values_verbatim(self):
        spec = self.make(v1=2, v2=1)
        assert spec.v1 == 2 and spec.v2 == 1
        assert spec.q == 0.5

    def test_default_cost_by_family_class(self):
        assert self.make().cost is CostKind.LINEAR
        diff = make_contest(family="jia-diff", v1=1.0, v2=1.0, q=0.5, k=2)
        assert diff.cost is CostKind.QUADRATIC_HALF
        concave = make_contest(family="blavatskyy-power", v1=1.0, v2=1.0, q=0.5, r=1.0)
        assert concave.cost is CostKind.LINEAR

    @pytest.mark.parametrize("family, params", FAMILY_POINTS.items(), ids=FAMILY_POINTS)
    def test_the_cost_is_the_family_s_and_survives_a_round_trip(self, family, params):
        spec = make_contest(family, v1=1.0, v2=3.0, q=0.25, **params)
        assert spec.cost is spec.csf.default_cost
        clone = ContestSpec.from_json(spec.to_json())
        assert clone == spec and clone.to_json() == spec.to_json()
        doc = spec.to_json_dict()
        assert doc["cost"] == spec.cost.value
        for cost in (None, spec.cost.value):  # null or the family's own
            assert ContestSpec.from_json_dict(dict(doc, cost=cost)) == spec
        del doc["cost"]
        assert ContestSpec.from_json_dict(doc) == spec

    @pytest.mark.parametrize("cost", ["other", "cubic", 1, 0.5])
    @pytest.mark.parametrize("family, params", FAMILY_POINTS.items(), ids=FAMILY_POINTS)
    def test_a_document_with_another_cost_is_refused_at_read(self, family, params, cost):
        spec = make_contest(family, v1=2.0, v2=1.0, q=0.5, **params)
        own = spec.cost.value
        if cost == "other":
            cost = "linear" if spec.cost is CostKind.QUADRATIC_HALF else "quadratic_half"
        text = json.dumps(dict(spec.to_json_dict(), cost=cost))
        with pytest.raises(ValidationError) as caught:
            ContestSpec.from_json(text)
        assert str(caught.value) == (f"{spec.csf.kind}-form contests are solved under "
                                     f"{own!r} cost, got {cost!r}")

    def test_with_q_replaces_only_q(self):
        spec = self.make()
        other = spec.with_q(0.25)
        assert other.q == 0.25
        assert other.csf is spec.csf
        assert (other.v1, other.v2, other.cost) == (spec.v1, spec.v2, spec.cost)

    def test_with_q_checks_q_and_equals_a_spec_built_anew(self):
        spec = self.make(v1=2, v2=1)
        for q in (0.25, TieRule(0.25), np.float64(0.25), 1):
            other = spec.with_q(q)
            fresh = self.make(v1=2, v2=1, q=q)
            assert type(other) is ContestSpec and type(other.q) is float
            assert other == fresh and hash(other) == hash(fresh)
            assert other.to_json() == fresh.to_json()
        for bad in (1.5, -0.1, math.nan, math.inf, "half", None):
            with pytest.raises(ValidationError):
                spec.with_q(bad)
        assert spec.q == 0.5
        with pytest.raises(AttributeError):
            spec.with_q(0.25).q = 0.5

    def test_json_round_trip_preserves_fields(self):
        spec = self.make()
        clone = ContestSpec.from_json(spec.to_json())
        assert clone.to_json() == spec.to_json()
        assert clone.family == "jia-ratio"
        assert clone.csf.k == 2

    def test_json_dict_shape(self):
        doc = self.make().to_json_dict()
        assert set(doc) == {"family", "params", "v1", "v2", "q", "cost"}
        assert doc["params"] == {"r": 1.0, "k": 2}

    def test_from_json_rejects_unknown_field(self):
        doc = self.make().to_json_dict()
        doc["extra"] = 1
        with pytest.raises(ValidationError):
            ContestSpec.from_json_dict(doc)

    def test_from_json_rejects_missing_field(self):
        doc = self.make().to_json_dict()
        del doc["v1"]
        with pytest.raises(ValidationError):
            ContestSpec.from_json_dict(doc)

    def test_from_json_rejects_malformed_text(self):
        with pytest.raises(ValidationError):
            ContestSpec.from_json("{not json")

    def test_to_json_is_indented_with_trailing_newline(self):
        text = self.make().to_json()
        assert text.endswith("\n")
        assert json.loads(text)["family"] == "jia-ratio"

    def test_valuations_and_tie_accessors(self):
        spec = make_contest(family="jia-ratio", v1=1.0, v2=3.0, q=0.25, r=1.0, k=2)
        assert spec.valuations.swapped is True
        assert spec.tie.q == 0.25

    def test_valuations_are_built_once_and_carried_by_with_q(self):
        spec = make_contest(family="jia-ratio", v1=1.0, v2=3.0, q=0.25, r=1.0, k=2)
        vals = spec.valuations
        assert (vals.v1, vals.v2, vals.swapped) == (3.0, 1.0, True)
        assert spec.valuations is vals and spec.with_q(0.75).valuations is vals
        assert spec.with_q(0.25) == spec and "valuations" not in repr(spec)


DIFF_FAMILY = make_family("jia-diff", k=2)
DIFF_SPEC = make_contest(family="jia-diff", v1=2.0, v2=1.0, q=0.5, k=2)


def _contest(**kwargs):
    return make_contest(**{"family": "jia-diff", "v1": 2.0, "v2": 1.0, "q": 0.5, "k": 2,
                           **kwargs})


# Each input checked once where it enters the package, with the text its check raises.
INPUT_CHECKS = {
    "make_contest-v1-text": (lambda: _contest(v1="a"), "v1 must be a real number, got 'a'"),
    "make_contest-v2-inf": (lambda: _contest(v2=math.inf), "v2 must be finite, got inf"),
    "make_contest-v1-negative": (lambda: _contest(v1=-1),
                                 "valuations must be positive, got (-1.0, 1.0)"),
    "make_contest-v2-zero": (lambda: _contest(v2=0.0),
                             "valuations must be positive, got (2.0, 0.0)"),
    "audit_diff-text": (lambda: audit_diff(DIFF_FAMILY, "a"), "v1 must be a number, got 'a'"),
    "audit_diff-inf": (lambda: audit_diff(DIFF_FAMILY, math.inf),
                       "v1 must be a positive finite number, got inf"),
    "audit_diff-zero": (lambda: audit_diff(DIFF_FAMILY, 0),
                        "v1 must be a positive finite number, got 0.0"),
    "convexity-none": (lambda: convexity_precondition(DIFF_FAMILY, None),
                       "v1 must be a number, got None"),
    "convexity-nan": (lambda: convexity_precondition(DIFF_FAMILY, math.nan),
                      "v1 must be a positive finite number, got nan"),
    "convexity-negative": (lambda: convexity_precondition(DIFF_FAMILY, -2),
                           "v1 must be a positive finite number, got -2.0"),
    "sweep-bool": (lambda: sweep(DIFF_SPEC, True), "q_count must be an integer, got True"),
    "sweep-float": (lambda: sweep(DIFF_SPEC, 101.0), "q_count must be an integer, got 101.0"),
    "sweep-one": (lambda: sweep(DIFF_SPEC, 1), "q_count must be >= 2, got 1"),
    "GridSpec-bool": (lambda: GridSpec(1.0, True), "steps must be an integer, got True"),
    "GridSpec-float": (lambda: GridSpec(1.0, 5.0), "steps must be an integer, got 5.0"),
    "GridSpec-one": (lambda: GridSpec(1.0, np.int64(1)), "steps must be >= 2, got 1"),
    "TieRule": (lambda: TieRule(1.5), "q must lie in [0, 1], got 1.5"),
    "TieRule-nan": (lambda: TieRule(math.nan), "q must be finite, got nan"),
    "TieRule-of-a-rule": (lambda: TieRule(TieRule(0.5)),
                          "q must be a real number, got TieRule(q=0.5)"),
    "q_value": (lambda: q_value(-0.25), "q must lie in [0, 1], got -0.25"),
    "q_value-text": (lambda: q_value("x"), "q must be a real number, got 'x'"),
    "ContestSpec": (lambda: _contest(q=2), "q must lie in [0, 1], got 2.0"),
    "with_q": (lambda: DIFF_SPEC.with_q(1.5), "q must lie in [0, 1], got 1.5"),
    "RandomTieRule-empty": (lambda: RandomTieRule(()), "a random tie rule needs at least one atom"),
    "ContestSpec-csf": (lambda: ContestSpec(object(), 2.0, 1.0, 0.5),
                        "csf must be a contest success family (missing 'name')"),
    "from_json-list": (lambda: ContestSpec.from_json("[1, 2]"),
                       "spec document must be a JSON object"),
    "from_json-params": (lambda: ContestSpec.from_json(
        '{"family": "jia-ratio", "v1": 2, "v2": 1, "q": 0.5, "params": [1]}'),
        "params must be a JSON object"),
}


@pytest.mark.parametrize("call, text", INPUT_CHECKS.values(), ids=INPUT_CHECKS)
def test_each_checked_input_raises_its_text(call, text):
    with pytest.raises(ValidationError) as caught:
        call()
    assert type(caught.value) is ValidationError and str(caught.value) == text


RATIO_FAMILY = make_family("jia-ratio", r=1.0, k=2)
RATIO_SPEC = make_contest(family="jia-ratio", v1=2.0, v2=1.0, q=0.5, r=1.0, k=2)
GRID = GridSpec(2.0, 5)

# Each bare value outside `ContestSpec` is checked by the one helper of its
# kind: a finite real by `core.finite_value`, a positive magnitude by
# `core.positive_value`, a sample count by
# `core.count_value` and an array by `families.checked_array`; each case pins the
# exception type and text.
VALUE_CHECKS = {
    "family-param-text": (lambda: make_family("jia-ratio", r="x", k=2), ValidationError,
                          "jia-ratio: parameter 'r' must be a real number, got 'x'"),
    "family-param-inf": (lambda: make_family("jia-ratio", r=math.inf, k=2), ValidationError,
                         "jia-ratio: parameter 'r' must be finite, got inf"),
    "family-param-bound": (lambda: make_family("blavatskyy-power", r=1.5), ValidationError,
                           "blavatskyy-power: parameter 'r' must be > 0.0 and <= 1.0, got 1.5"),
    "x_max-text": (lambda: GridSpec("a", 5), ValidationError, "x_max must be a number, got 'a'"),
    "x_max-zero": (lambda: GridSpec(0, 5), ValidationError,
                   "x_max must be a positive finite number, got 0.0"),
    "x_max-nan": (lambda: GridSpec(math.nan, 5), ValidationError,
                  "x_max must be a positive finite number, got nan"),
    "x_max-inf": (lambda: GridSpec(math.inf, 5), ValidationError,
                  "x_max must be a positive finite number, got inf"),
    "x_max-minus-inf": (lambda: GridSpec(-math.inf, 5), ValidationError,
                        "x_max must be a positive finite number, got -inf"),
    "x_max-negative": (lambda: GridSpec(-1, 5), ValidationError,
                       "x_max must be a positive finite number, got -1.0"),
    "steps-text": (lambda: GridSpec(1.0, "a"), ValidationError, "steps must be an integer, got 'a'"),
    "steps-zero": (lambda: GridSpec(1.0, 0), ValidationError, "steps must be >= 2, got 0"),
    "for_contest-two": (lambda: GridSpec.for_contest(RATIO_SPEC, 2), ValidationError,
                        "steps must be >= 3, got 2"),
    "for_contest-float": (lambda: GridSpec.for_contest(RATIO_SPEC, 2.5), ValidationError,
                          "steps must be an integer, got 2.5"),
    "for_contest-bool": (lambda: GridSpec.for_contest(RATIO_SPEC, True), ValidationError,
                         "steps must be an integer, got True"),
    # a value that is no family gets the error of the kind-specific audits
    "audit_family-no-family": (lambda: audit_family(object()), ValidationError,
                               "audit_concave requires a concave-impact family"),
    "opponent-text": (lambda: grid_best_response(RATIO_SPEC, "abc", GRID), ValidationError,
                      "opponent effort must be a real number, got 'abc'"),
    "opponent-none": (lambda: grid_best_response(RATIO_SPEC, None, GRID), ValidationError,
                      "opponent effort must be a real number, got None"),
    "opponent-nan": (lambda: grid_best_response(RATIO_SPEC, math.nan, GRID), ValidationError,
                     "opponent effort must be finite, got nan"),
    # an entry that is no number, in a public family call
    "outcome-text": (lambda: RATIO_FAMILY.outcome("a", 1.0), ValidationError,
                     "x1 must be numbers, got 'a'"),
    "z_prime-text": (lambda: RATIO_FAMILY.z_prime([1.0, "x"], 0.5), ValidationError,
                     "theta must be numbers, got [1.0, 'x']"),
    # a count that sizes arrays, refused above the ceiling before any is allocated
    "sweep-huge": (lambda: sweep(RATIO_SPEC, MAX_COUNT + 1), ValidationError,
                   f"q_count must be <= {MAX_COUNT}, got {MAX_COUNT + 1}"),
    "steps-huge": (lambda: GridSpec(1.0, np.int64(10**11)), ValidationError,
                   f"steps must be <= {MAX_COUNT}, got 100000000000"),
    "for_contest-huge": (lambda: GridSpec.for_contest(RATIO_SPEC, 10**11), ValidationError,
                         f"steps must be <= {MAX_COUNT}, got 100000000000"),
    # a family must state the cost its contests are solved under
    "ContestSpec-no-cost": (lambda: ContestSpec(SimpleNamespace(
        name="lottery", kind="lottery", outcome=None, params={}), 2.0, 1.0, 0.5),
        ValidationError, "csf must be a contest success family (missing 'default_cost')"),
}


@pytest.mark.parametrize("call, kind, text", VALUE_CHECKS.values(), ids=VALUE_CHECKS)
def test_each_kind_of_value_raises_its_type_and_text(call, kind, text):
    with pytest.raises(kind) as caught:
        call()
    assert type(caught.value) is kind and str(caught.value) == text


class TestPayoffs:
    def test_outcome_probabilities_sum_to_one(self):
        spec = make_contest(family="jia-ratio", v1=2.0, v2=1.0, q=0.5, r=1.0, k=2)
        dist = outcome_distribution(spec, (0.4, 0.1))
        assert dist.p1 + dist.p2 + dist.p0 == pytest.approx(1.0, abs=1e-12)

    def test_payoff_matches_manual_composition(self):
        spec = make_contest(family="jia-ratio", v1=2.0, v2=1.0, q=0.25, r=1.0, k=2)
        prof = EffortProfile(0.4, 0.1)
        dist = outcome_distribution(spec, prof)
        want1 = 2.0 * (dist.p1 + 0.25 * dist.p0) - 0.4
        want2 = 1.0 * (dist.p2 + 0.75 * dist.p0) - 0.1
        assert payoff(spec, prof, 1) == pytest.approx(want1, abs=1e-14)
        assert payoff(spec, prof, 2) == pytest.approx(want2, abs=1e-14)

    def test_quadratic_cost_enters_payoff(self):
        spec = make_contest(family="jia-diff", v1=2.0, v2=1.0, q=0.5, k=2)
        prof = EffortProfile(0.4, 0.1)
        dist = outcome_distribution(spec, prof)
        want = 2.0 * (dist.p1 + 0.5 * dist.p0) - 0.5 * 0.4**2
        assert payoff(spec, prof, 1) == pytest.approx(want, abs=1e-14)

    def test_eventual_win_probs_sum_to_one(self):
        spec = make_contest(family="vesperoni-diff", v1=1.0, v2=1.0, q=0.3, k=2)
        w1, w2 = eventual_win_prob(spec, (0.2, 0.5))
        assert w1 + w2 == pytest.approx(1.0, abs=1e-12)
        assert w2 > w1

    def test_player_index_validated(self):
        spec = make_contest(family="jia-ratio", v1=2.0, v2=1.0, q=0.5, r=1.0, k=2)
        with pytest.raises(ValidationError):
            payoff(spec, (0.1, 0.1), 3)

    @pytest.mark.parametrize("family, params", [("jia-ratio", {"r": 1.0, "k": 2}),
                                                ("vesperoni-diff", {"k": 2}),
                                                ("blavatskyy-power", {"r": 0.5})])
    def test_payoffs_broadcast_and_give_payoffs_bits(self, family, params):
        spec = make_contest(family=family, v1=1.0, v2=3.0, q=0.3, **params)
        x1, x2 = np.array([[0.0], [0.2], [0.7]]), np.array([0.0, 0.4, 1.1, 2.5])
        pay1, pay2 = payoffs(spec, x1, x2)
        assert pay1.shape == pay2.shape == (3, 4)
        for i, a in enumerate(x1[:, 0].tolist()):
            for j, b in enumerate(x2.tolist()):
                assert (pay1[i, j], pay2[i, j]) == (payoff(spec, (a, b), 1),
                                                    payoff(spec, (a, b), 2))
