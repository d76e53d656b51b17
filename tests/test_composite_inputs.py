"""Composite inputs: each is read by one check in `core`.

A pair (prizes, a tie-rule atom) is read by `core.pair_value`, an effort
profile by `core.profile_value`, a player label by `core.player_value`, and
the atoms of a random tie rule by its constructor.  A malformed value raises
`ValidationError` naming the input, never a bare `TypeError` or
`ValueError`, and never a result read from the wrong entries.  `payoff` and
`verify` take the same profiles, an `Equilibrium` included, with the same
bits as the pair of its efforts.
"""
from __future__ import annotations

import random
import re

import numpy as np
import pytest

from tiebreak import (GridSpec, RandomTieRule, ValidationError, eventual_win_prob,
                      expected_effort, family_names, grid_best_response, make_contest,
                      make_family, optimal_q, outcome_distribution, payoff, solve, solve_beta,
                      solve_many, sweep, verify)

from helpers import LOTTERY_CONTEST

SPEC = make_contest("jia-ratio", v1=2.0, v2=1.0, q=0.5, r=1.0, k=2)
DIFF = make_family("jia-diff", k=2)
GRID = GridSpec(x_max=2.0, steps=11)

# Not a pair: one entry too many, one too few, no sequence at all.
NOT_PAIRS = [(1, 2, 3), (0.5,), 5, None]

PROFILE_READERS = {
    "payoff": lambda profile: payoff(SPEC, profile, 1),
    "outcome_distribution": lambda profile: outcome_distribution(SPEC, profile),
    "eventual_win_prob": lambda profile: eventual_win_prob(SPEC, profile),
    "verify": lambda profile: verify(SPEC, profile, GRID),
}


def _raises(call, text):
    with pytest.raises(ValidationError, match=f"^{re.escape(text)}$") as caught:
        call()
    assert type(caught.value) is ValidationError


@pytest.mark.parametrize("bad", NOT_PAIRS, ids=repr)
@pytest.mark.parametrize("reader", PROFILE_READERS.values(), ids=PROFILE_READERS)
def test_a_profile_that_is_no_pair_is_refused_naming_it(reader, bad):
    _raises(lambda: reader(bad), f"profile must be a pair, got {bad!r}")


@pytest.mark.parametrize("bad", NOT_PAIRS, ids=repr)
def test_prizes_that_are_no_pair_are_refused_naming_them(bad):
    _raises(lambda: solve_beta(DIFF, bad, 0.3), f"prizes must be a pair, got {bad!r}")


def test_a_third_prize_entry_is_no_label_swap():
    # once read as Valuations(3, 1.2, swapped=1), the triple solved the other player's
    # gap; now `pair_value` refuses it, and `Valuations` takes no `swapped` argument,
    # so a third entry cannot reach the label swap at all
    _raises(lambda: solve_beta(DIFF, (3, 1.2, 1), 0.3), "prizes must be a pair, got (3, 1.2, 1)")
    assert solve_beta(DIFF, (3, 1.2), 0.3) == pytest.approx(0.4098, abs=1e-4)


RULE_READERS = {
    "RandomTieRule": RandomTieRule,
    "from_pairs": RandomTieRule.from_pairs,
    "expected_effort": lambda rule: expected_effort(SPEC, rule),
}


@pytest.mark.parametrize("bad", NOT_PAIRS, ids=repr)
@pytest.mark.parametrize("reader", RULE_READERS.values(), ids=RULE_READERS)
def test_a_tie_rule_atom_that_is_no_pair_is_refused_naming_it(reader, bad):
    _raises(lambda: reader([(0.5, 0.5), bad]), f"atoms[1] must be a pair, got {bad!r}")


@pytest.mark.parametrize("reader", RULE_READERS.values(), ids=RULE_READERS)
def test_atoms_that_are_no_sequence_of_pairs_are_refused_naming_them(reader):
    for bad in (5, None):
        _raises(lambda: reader(bad), f"atoms must be a sequence of pairs, got {bad!r}")
    for bad in ((1, 2, 3), (0.5,)):  # a sequence whose entries are no pairs
        _raises(lambda: reader(bad), f"atoms[0] must be a pair, got {bad[0]!r}")


def test_atoms_may_come_from_any_iterable_of_pairs():
    listed = RandomTieRule([(0.0, 0.5), (1.0, 0.5)])
    assert RandomTieRule.from_pairs(iter([(0.0, 0.5), (1.0, 0.5)])) == listed
    assert listed.atoms == RandomTieRule.from_pairs(np.array([[0.0, 0.5], [1.0, 0.5]])).atoms


PLAYER_READERS = {
    "payoff": lambda player: payoff(SPEC, (0.4, 0.1), player),
    "grid_best_response": lambda player: grid_best_response(SPEC, 0.5, GRID, player),
}


@pytest.mark.parametrize("bad", [0, 3, True, 1.0, "1"], ids=repr)
@pytest.mark.parametrize("reader", PLAYER_READERS.values(), ids=PLAYER_READERS)
def test_a_player_other_than_1_or_2_is_refused_naming_it(reader, bad):
    _raises(lambda: reader(bad), f"player must be 1 or 2, got {bad!r}")


@pytest.mark.parametrize("reader", PLAYER_READERS.values(), ids=PLAYER_READERS)
def test_integer_players_of_any_integer_type_are_read_alike(reader):
    assert reader(np.int64(2)) == reader(2) != reader(1)


def _seeded_specs(count=10, seed=38):
    """Design-scale contests of every family, drawn from a seeded generator."""
    rng = random.Random(seed)
    for i in range(count):
        v1, v2, q = rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0), rng.random()
        r, k = rng.uniform(0.2, 0.99), rng.uniform(1.0, 4.0)
        family = family_names()[i % 5]
        params = {"vesperoni-ratio": {"r": r / k, "k": k}, "jia-ratio": {"r": r, "k": k},
                  "blavatskyy-power": {"r": r}}.get(family, {"k": k})
        yield make_contest(family, v1=v1, v2=v2, q=q, **params)


@pytest.mark.parametrize("spec", _seeded_specs(), ids=lambda spec: spec.family)
def test_payoff_and_verify_read_an_equilibrium_as_its_pair_bit_for_bit(spec):
    eq = solve(spec)
    pair = (eq.x1, eq.x2)
    for player in (1, 2):
        assert payoff(spec, eq, player).hex() == payoff(spec, pair, player).hex()
    grid = GridSpec.for_contest(spec, steps=51)
    assert verify(spec, eq, grid).to_json_dict() == verify(spec, pair, grid).to_json_dict()


@pytest.mark.parametrize("call", [
    solve, lambda spec: solve_many(spec, [0.25, 0.5]), lambda spec: sweep(spec, 11),
    optimal_q, lambda spec: expected_effort(spec, [(0.0, 0.5), (1.0, 0.5)]),
], ids=["solve", "solve_many", "sweep", "optimal_q", "expected_effort"])
def test_a_kind_with_no_route_is_refused(call):
    _raises(lambda: call(LOTTERY_CONTEST), "no solver for family kind 'lottery'")
