"""Differential tests at scale: the packers and realize against the
quadratic references in bruteforce.py on single large games, where
grouping the elements by path does the most work.  One game per duel
opponent at n = 1024 and one separation-shaped game at n = 4096."""

import math
import random

import pytest

from edlab.adversary import few_deep_index, pack_separation, play_game
from edlab.algorithms import oblivious_gen
from edlab.harness import (DUEL_ALGOS, duel_opponent,
                           random_multicluster_profile, reconstruction_budget)
from edlab.profiles import ClusterProfile, lower_bound_median
from test_packing_differential import assert_same_packing


def separation_L(state, n: int) -> int:
    """separation_row's chain length: n / 2^(2^(i-1)) for the few-deep
    index i."""
    return n // 2 ** (2 ** (few_deep_index(state, n) - 1))


@pytest.mark.parametrize("mode,opp", enumerate(DUEL_ALGOS))
def test_packers_match_reference_n1024(mode, opp):
    """Three round counts: criterion 5's, which packing is promised to
    survive; cmd_duel's, which reconstruction is promised to survive;
    and separation_row's n log log n / 8, past both promises."""
    n = 1024
    prof = ClusterProfile(random_multicluster_profile(random.Random(mode),
                                                      n, mode))
    separation = int(n * math.log2(math.log2(n)) / 8)
    for rounds in (min(separation, int(lower_bound_median(prof))),
                   reconstruction_budget(prof), separation):
        state = play_game(duel_opponent(opp, prof), n, rounds)
        L = separation_L(state, n)
        bigs, singles = assert_same_packing(state, prof, L)
        assert len(bigs) * L + len(singles) == n


def test_pack_separation_matches_reference_n4096():
    n = 4096
    state = play_game(oblivious_gen, n, int(n * math.log2(math.log2(n)) / 8))
    assert len(set(state.positions)) > 1
    L = separation_L(state, n)
    bigs, singles = pack_separation(state, L)
    assert bigs
    prof = ClusterProfile([L] * len(bigs) + [1] * len(singles))
    assert assert_same_packing(state, prof, L) == (bigs, singles)
