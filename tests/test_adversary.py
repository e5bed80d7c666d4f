"""Tree adversary: answer rules, games, packing, realization, SI game."""

import math
import random

import pytest

from edlab.adversary import (AdversaryState, TreeAdversary, few_deep_index,
                             pack_isomorphic, pack_separation, play_game,
                             realize, reconstruct, si_adversary_game)
from edlab.algorithms import doubling_gen, oblivious_gen, order_baseline
from edlab.core import (Answer, CountingOracle, Outcome, replay_transcript,
                        verify_graph)
from edlab.harness import order_game
from edlab.profiles import ClusterProfile
from edlab.setint import si_clairvoyant, si_family, verify_bipartite
from edlab.sortsel import merge_sort_gen


def merge_checker(n):
    """Plain full-sort distinctness checker used as a game opponent."""
    res = yield from merge_sort_gen(list(range(n)))
    if res[0] == "dup":
        return Outcome.DUPLICATE, (res[1], res[2])
    return Outcome.DISTINCT, None


def fresh_state(n):
    return AdversaryState([""] * n, 0, [])


# --- answer rules -----------------------------------------------------------

def test_answer_both_at_root():
    adv = TreeAdversary(2)
    assert adv.answer(0, 1) is Answer.LT
    assert adv.positions == ["0", "1"]


def test_answer_prefix_case_moves_shallower_element():
    adv = TreeAdversary(2)
    adv.positions[1] = "0"
    assert adv.answer(0, 1) is Answer.GT  # x hops to "1", right of y
    assert adv.positions == ["1", "0"]


def test_answer_diverged_paths_do_not_move():
    adv = TreeAdversary(2)
    adv.positions[0] = "00"
    adv.positions[1] = "01"
    assert adv.answer(0, 1) is Answer.LT
    assert adv.positions == ["00", "01"]


def test_answer_never_eq_and_depth_budget():
    rng = random.Random(11)
    adv = TreeAdversary(12)
    for _ in range(300):
        x = rng.randrange(12)
        y = (x + 1 + rng.randrange(11)) % 12
        before = sum(len(p) for p in adv.positions)
        ans = adv.answer(x, y)
        after = sum(len(p) for p in adv.positions)
        assert ans in (Answer.LT, Answer.GT)
        assert 0 <= after - before <= 2


# --- games -------------------------------------------------------------------

def test_play_game_zero_rounds():
    state = play_game(merge_checker, 8, 0)
    assert state.positions == [""] * 8
    assert state.transcript == []
    assert state.halted is None


def test_play_game_merge_checker_256():
    rounds = 256 * int(math.log2(math.log2(256))) // 8  # 96
    assert rounds == 96
    state = play_game(merge_checker, 256, rounds)
    assert all(ans is not Answer.EQ for _, _, ans in state.transcript)
    assert len(state.transcript) == 96
    assert sum(len(p) for p in state.positions) <= 2 * rounds
    assert state.halted is None


def test_play_game_records_early_distinct_claim():
    # a 2-element checker finishes inside a generous budget; the claim
    # is recorded as the opponent's final (wrong) answer
    state = play_game(merge_checker, 2, 100)
    assert state.halted is not None
    assert state.halted[0] is Outcome.DISTINCT


def test_few_deep_index_fresh_state():
    n = 256
    lln = math.log2(math.log2(n))
    assert few_deep_index(fresh_state(n), n) == int(lln / 2)


def test_few_deep_index_after_game():
    state = play_game(merge_checker, 256, 96)
    assert few_deep_index(state, 256) in (1, 2, 3)


# --- packing and realization ---------------------------------------------------

def chain_ok(state, cluster):
    paths = sorted((state.positions[i] for i in cluster), key=len)
    return all(b.startswith(a) for a, b in zip(paths, paths[1:]))


def test_pack_trivial_fresh_state():
    prof = ClusterProfile([3, 2, 1])
    clusters = pack_isomorphic(fresh_state(6), prof)
    assert sorted(len(c) for c in clusters) == [1, 2, 3]
    assert [len(clusters[cid]) for cid in range(3)] == [3, 2, 1]
    assert sorted(i for c in clusters for i in c) == list(range(6))


def test_pack_pair_profile_after_short_games():
    prof = ClusterProfile([2] + [1] * 16)
    for opponent in (merge_checker, doubling_gen,
                     lambda n: oblivious_gen(n)):
        state = play_game(opponent, 18, 8)
        clusters = pack_isomorphic(state, prof)
        assert [len(c) for c in clusters] == list(prof.sizes)
        assert all(chain_ok(state, c) for c in clusters)
        inst = realize(state, clusters)
        assert verify_graph(inst, prof)
        assert replay_transcript(inst, state.transcript)


def test_pack_separation_shape():
    state = play_game(doubling_gen, 32, 20)
    bigs, singles = pack_separation(state, 4)
    assert all(len(c) == 4 for c in bigs)
    assert all(len(c) == 1 for c in singles)
    covered = sorted(i for c in bigs + singles for i in c)
    assert covered == list(range(32))
    assert all(chain_ok(state, c) for c in bigs)


def test_reconstruct_fresh_state():
    prof = ClusterProfile([4, 2, 2])
    clusters, fallback = reconstruct(fresh_state(8), prof)
    assert fallback  # no occupied non-root node exists yet
    assert [len(c) for c in clusters] == [4, 2, 2]
    inst = realize(fresh_state(8), clusters)
    assert verify_graph(inst, prof)


def test_reconstruct_after_short_game():
    prof = ClusterProfile([4, 2, 2])
    state = play_game(merge_checker, 8, 1)  # n/8 = 1 round allowed
    clusters, _ = reconstruct(state, prof)
    inst = realize(state, clusters)
    assert verify_graph(inst, prof)
    assert replay_transcript(inst, state.transcript)


@pytest.mark.parametrize("build", [pack_isomorphic, reconstruct])
def test_a_profile_of_the_wrong_size_is_refused(build):
    with pytest.raises(ValueError,
                       match="^profile does not cover all elements$"):
        build(fresh_state(8), ClusterProfile([4, 2, 1]))


def test_reconstruct_needs_two_clusters():
    with pytest.raises(ValueError):
        reconstruct(fresh_state(4), ClusterProfile([4]))


def test_realize_assignment_order():
    assert realize(fresh_state(2), [[0], [1]]).values == (0, 1)
    assert realize(fresh_state(2), [[1], [0]]).values == (1, 0)


def test_realize_rejects_bad_assignments():
    state = fresh_state(2)
    state.positions = ["0", "1"]
    with pytest.raises(ValueError):
        realize(state, [[0, 1]])  # diverged pair is not a chain
    with pytest.raises(ValueError):
        realize(fresh_state(2), [[0]])  # element 1 uncovered
    with pytest.raises(ValueError, match=r"^cluster 1 is empty$"):
        realize(fresh_state(2), [[0], [], [1]])
    with pytest.raises(ValueError, match=r"^cluster 0 is empty$"):
        realize(fresh_state(0), [[]])


def test_game_pack_realize_consistency_multiprofile():
    # packing is only promised while rounds stay inside the profile's
    # median budget, so the game is cut off there
    from edlab.profiles import lower_bound_median
    rng = random.Random(3)
    for _ in range(6):
        n = rng.randrange(12, 40)
        sizes = []
        left = n
        while left:
            s = min(left, rng.randrange(1, 5))
            sizes.append(s)
            left -= s
        prof = ClusterProfile(sizes)
        rounds = min(rng.randrange(0, n // 4 + 1), int(lower_bound_median(prof)))
        state = play_game(doubling_gen, n, rounds)
        clusters = pack_isomorphic(state, prof)
        inst = realize(state, clusters)
        assert verify_graph(inst, prof)
        assert replay_transcript(inst, state.transcript)


# --- known-rank construction ----------------------------------------------------

def test_order_game_structure():
    n = 64
    inst, k, state = order_game(n)
    assert verify_graph(inst, ClusterProfile([2] + [1] * (n - 2)))
    assert replay_transcript(inst, state.transcript)
    assert inst.values[n - 2] == inst.values[n - 1]  # pair hides at the top
    ordered = sorted(inst.values)
    assert ordered[k - 1] == ordered[k] == inst.values[n - 1]
    rep = order_baseline(CountingOracle(instance=inst), k)
    assert rep.outcome is Outcome.DUPLICATE


def test_order_game_is_deterministic():
    a = order_game(32)
    b = order_game(32)
    assert a[0] == b[0] and a[1] == b[1]


@pytest.mark.parametrize("n", [0, 1])
def test_order_game_refuses_fewer_than_two_elements(n):
    with pytest.raises(ValueError, match=r"^need n >= 2$"):
        order_game(n)


# --- bipartite game ---------------------------------------------------------------

def trivial_opponent(n):
    return
    yield  # generator body is intentionally unreachable


def si_doubling_opponent(n):
    from edlab.setint import si_doubling_gen
    return si_doubling_gen(n, n)


def test_si_game_trivial_opponent():
    rep = si_adversary_game(trivial_opponent, 8)
    assert rep.rounds_played == 0
    assert 1 <= rep.j <= 2
    assert verify_bipartite(rep.instance, si_family(8, rep.j))


def test_si_game_merge_opponent_survives():
    n = 64

    def joint_sort(m):
        # one flat sort of A and B together; only cross ties matter
        return merge_sort_gen(list(range(2 * m)), cross_at=m)

    rep = si_adversary_game(joint_sort, n)
    assert rep.rounds_played == n * 2 // 2  # l = 2 at n = 64
    assert not rep.opponent_finished
    for x, y, ans in rep.transcript:
        if ans is Answer.EQ:
            assert x < n and y < n  # only true A-side ties answer EQ
    assert verify_bipartite(rep.instance, si_family(n, rep.j))
    assert replay_transcript(rep.instance.combined(), rep.transcript)


def test_si_game_realization_is_solvable():
    n = 64
    rep = si_adversary_game(si_doubling_opponent, n)
    run = si_clairvoyant(rep.instance.oracle(), n, n, rep.j, n)
    assert run.outcome is Outcome.DUPLICATE
    assert run.comparisons <= 6.0 * n
