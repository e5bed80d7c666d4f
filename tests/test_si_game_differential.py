"""Differential tests: the bipartite adversary game against the reference
in bruteforce.py, which keeps its own divergence rule and ranks padded
keys.  Every game must play and realize identically."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import brute_si_adversary_game
from edlab.adversary import si_adversary_game
from edlab.core import Outcome
from test_golden_si_game import OPPONENTS


def outcome(game, opponent, n):
    """Every field of the report, or the type and message of a refusal."""
    try:
        rep = game(opponent, n)
    except (RuntimeError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return (rep.instance, rep.j, rep.rounds_played, rep.transcript,
            rep.opponent_finished)


def assert_same_game(opponent, n):
    got = outcome(si_adversary_game, opponent, n)
    assert got == outcome(brute_si_adversary_game, opponent, n)
    return got


def random_pairs(seed: int, stop: int, b_only: bool):
    """An opponent that asks `stop` seeded random pairs, over the whole
    index space or over B alone, and then gives up."""
    def factory(n):
        rng = random.Random(seed)
        lo = n if b_only else 0
        for _ in range(stop):
            x = rng.randrange(lo, 2 * n)
            y = rng.randrange(lo, 2 * n - 1)
            yield x, y + (y >= x)
        return Outcome.GAVE_UP, None
    return factory


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([8, 64, 512]), seed=st.integers(0, 2 ** 32 - 1),
       frac=st.floats(0.0, 1.2), b_only=st.booleans())
def test_si_game_matches_reference(n, seed, frac, b_only):
    budget = n * ((n.bit_length() - 1) // 3) // 2  # n*l/2 rounds
    stop = int(frac * budget)  # past 1.0 the budget cuts the opponent off
    got = assert_same_game(random_pairs(seed, stop, b_only), n)
    assert got[2] == min(stop, budget)


@pytest.mark.parametrize("n", [8, 64, 512])
@pytest.mark.parametrize("opp", sorted(OPPONENTS))
def test_si_game_matches_reference_named_opponents(n, opp):
    assert_same_game(OPPONENTS[opp], n)


def test_si_game_rejects_bad_sizes_like_reference():
    for n in (1, 2, 27, 100):
        got = assert_same_game(OPPONENTS["trivial"], n)
        assert got[0] == "ValueError"
