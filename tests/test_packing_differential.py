"""Differential tests: the adversary's incremental chain packer, cursor
reconstruction and stripped-anchor realization against the quadratic
references in bruteforce.py, on random games."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import (brute_pack_isomorphic, brute_pack_separation,
                        brute_realize, brute_reconstruct)
from edlab.adversary import (AdversaryState, pack_isomorphic,
                             pack_separation, play_game, realize,
                             reconstruct)
from edlab.harness import DUEL_ALGOS, duel_opponent
from edlab.profiles import ClusterProfile


def outcome(fn, *args):
    """The return value, or the type and message of a refusal."""
    try:
        return fn(*args)
    except (RuntimeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def assert_same_packing(state, prof, L):
    """Every packer and realize agree with the reference on one state."""
    iso = outcome(pack_isomorphic, state, prof)
    assert iso == outcome(brute_pack_isomorphic, state, prof)
    rec = outcome(reconstruct, state, prof)
    assert rec == outcome(brute_reconstruct, state, prof)
    sep = pack_separation(state, L)
    assert sep == brute_pack_separation(state, L)
    assignments = [sep[0] + sep[1]]
    if isinstance(iso[0], list):
        assignments.append(iso)
    if isinstance(rec[0], list):
        assignments.append(rec[0])
    for clusters in assignments:
        assert (realize(state, clusters).values
                == brute_realize(state, clusters).values)
    return sep


@st.composite
def games(draw):
    """(state, profile, L): a game of a duel opponent against the tree
    adversary for a random number of rounds, a random profile of its n
    (possibly one cluster or all singletons) and a chain length up to
    n + 2."""
    n = draw(st.integers(min_value=2, max_value=64))
    cuts = draw(st.sets(st.integers(min_value=1, max_value=n - 1)))
    bounds = [0] + sorted(cuts) + [n]
    prof = ClusterProfile([b - a for a, b in zip(bounds, bounds[1:])])
    opp = draw(st.sampled_from(DUEL_ALGOS))
    rounds = draw(st.integers(min_value=0, max_value=4 * n))
    L = draw(st.integers(min_value=1, max_value=n + 2))
    return play_game(duel_opponent(opp, prof), n, rounds), prof, L


@settings(max_examples=300, deadline=None)
@given(games())
def test_packers_match_reference(game):
    state, prof, L = game
    n = len(state.positions)
    bigs, singles = assert_same_packing(state, prof, L)
    if L > n:
        assert bigs == []
    if L >= 2:  # pack_separation is pack_isomorphic on its own profile
        sep_prof = ClusterProfile([L] * len(bigs) + [1] * len(singles))
        assert pack_isomorphic(state, sep_prof) == bigs + singles


@pytest.mark.parametrize("n,sizes", [(1, [1]), (2, [2]), (2, [1, 1])])
@pytest.mark.parametrize("opp", DUEL_ALGOS)
def test_packers_match_reference_tiny(n, sizes, opp):
    prof = ClusterProfile(sizes)
    states = [AdversaryState([""] * n, 0, [])]
    if n >= 2 or opp in ("block", "median"):  # the others need n >= 2
        states.append(play_game(duel_opponent(opp, prof), n, 8))
    for state in states:
        for L in range(1, n + 3):
            bigs, singles = assert_same_packing(state, prof, L)
            assert len(bigs) * L + len(singles) == n


def test_packers_match_reference_edge_profiles():
    # one cluster (reconstruct refuses it), all singletons, and L > n
    n = 48
    state = play_game(duel_opponent("median", ClusterProfile([n])), n, 60)
    for sizes in ([n], [1] * n, [n - 1, 1]):
        bigs, singles = assert_same_packing(state, ClusterProfile(sizes),
                                            n + 1)
        assert bigs == [] and len(singles) == n
    assert outcome(reconstruct, state, ClusterProfile([n]))[0] == "ValueError"


def test_pack_separation_rejects_nonpositive_L():
    with pytest.raises(ValueError):
        pack_separation(AdversaryState(["", "0"], 0, []), 0)
