"""The certificate of an element-distinctness game: `harness.certify`
realizes the adversary's clusters, replays the transcript on the result
and checks its profile; and on a certified instance the opponent's own
run pays for every round it survived."""

import random

import pytest

from edlab import harness
from edlab.adversary import AdversaryState, play_game, reconstruct
from edlab.core import Answer
from edlab.harness import (DUEL_ALGOS, certify, derive_seed, duel_opponent,
                           random_multicluster_profile, reconstruction_budget,
                           run_algorithm)
from edlab.profiles import ClusterProfile

# one round from the root: 0 went left, 1 right, 2 was never asked
ONE_ROUND = ["0", "1", ""]


def test_certify_realizes_and_replays_a_played_game():
    state = AdversaryState(list(ONE_ROUND), 1, [(0, 1, Answer.LT)])
    inst, consistent = certify(state, [[0], [1, 2]], ClusterProfile([2, 1]))
    assert consistent
    assert inst.values[0] < inst.values[1] == inst.values[2]


def test_certify_refuses_a_tampered_answer():
    state = AdversaryState(list(ONE_ROUND), 1, [(0, 1, Answer.GT)])
    _, consistent = certify(state, [[0], [1, 2]], ClusterProfile([2, 1]))
    assert consistent is False


def test_certify_refuses_a_tampered_answer_in_a_real_game():
    prof = ClusterProfile([8, 8, 4, 4, 2, 2] + [1] * 36)
    state = play_game(duel_opponent("oblivious", prof), 64, 40)
    clusters, _ = reconstruct(state, prof)
    assert certify(state, clusters, prof)[1] is True
    x, y, ans = state.transcript[-1]
    state.transcript[-1] = (x, y, Answer.GT if ans is Answer.LT else Answer.LT)
    assert certify(state, clusters, prof)[1] is False


@pytest.mark.parametrize("sizes", [[1, 1, 1], [3], [2, 2]])
def test_certify_refuses_a_profile_other_than_the_clusters(sizes):
    state = AdversaryState(list(ONE_ROUND), 1, [(0, 1, Answer.LT)])
    _, consistent = certify(state, [[0], [1, 2]], ClusterProfile(sizes))
    assert consistent is False


def test_certify_passes_on_the_refusal_of_clusters_that_are_not_chains():
    # 0 and 1 diverged in the one round: no value can hold both
    state = AdversaryState(list(ONE_ROUND), 1, [(0, 1, Answer.LT)])
    with pytest.raises(ValueError, match="cluster is not a chain in the tree"):
        certify(state, [[0, 1], [2]], ClusterProfile([2, 1]))


def test_every_certified_duel_costs_its_opponent_more_than_its_rounds():
    # Every duel opponent on 12 draws per n, at 1x, 4x and 16x the budget
    # inside which reconstruction is guaranteed.  A reconstructed game
    # must certify, and an opponent still running at the cap, rerun on
    # its own realized instance with the duel's parameters, asks every
    # request of the transcript and at least one more.
    realized = survived = 0
    for n in (64, 256, 1024, 4096):
        for draw in range(12):
            rng = random.Random(derive_seed(0, n, draw))
            prof = ClusterProfile(
                random_multicluster_profile(rng, n, draw % 4))
            guaranteed = reconstruction_budget(prof)
            for algo in DUEL_ALGOS:
                for scale in (1, 4, 16):
                    state = play_game(duel_opponent(algo, prof), n,
                                      scale * guaranteed)
                    try:
                        clusters, _ = reconstruct(state, prof)
                    except (RuntimeError, ValueError):
                        assert scale > 1, "failed inside the guarantee"
                        continue
                    inst, consistent = certify(state, clusters, prof)
                    assert consistent, (algo, n, draw, scale)
                    realized += 1
                    if state.halted is None and state.rounds_played > 0:
                        survived += 1
                        _, rep = run_algorithm(algo, inst, prof)
                        assert rep.comparisons >= state.rounds_played + 1, (
                            algo, n, draw, scale)
    # 17 of the 576 games fail reconstruction past the guarantee
    assert (realized, survived) == (559, 403)


@pytest.mark.parametrize("n", [1024, 4096])
def test_separation_game_costs_oblivious_more_than_its_rounds(n, monkeypatch):
    certified = []

    def recording(state, clusters, profile):
        inst, consistent = certify(state, clusters, profile)
        certified.append((state, inst, profile, consistent))
        return inst, consistent

    monkeypatch.setattr(harness, "certify", recording)
    row, bad, _ = harness.separation_row(n)
    assert bad is None and row[-1] is True
    [(state, inst, prof, consistent)] = certified
    assert consistent and state.halted is None
    _, rep = run_algorithm("oblivious", inst, prof)
    assert rep.comparisons >= state.rounds_played + 1


def test_order_game_raises_when_its_instance_fails_the_certificate(
        monkeypatch):
    monkeypatch.setattr(harness, "replay_transcript", lambda *args: False)
    with pytest.raises(RuntimeError,
                       match="realized instance inconsistent with the game"):
        harness.order_game(32)
