"""Selection, median recursion and SI clairvoyant evaluated from values,
against the generators they stand in for.

On a realized instance `sortsel.select`, `algorithms.median_recursion`
and `setint.si_clairvoyant` compute their result from the values and
charge the oracle the requests the generator would have made.  Result,
witness, stats and `oracle.count` must equal what driving the generator
(or its reference in bruteforce.py) gives.  In adversary mode they drive
the generator, so the transcript is the generator's.  On a realized
instance an index out of range or an index twice is refused before
anything is charged.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bruteforce import (brute_median_recursion_gen, brute_select_gen,
                        recorded_run, recording_oracle)
from edlab.algorithms import (PreprocessedPlan, block_sorting_gen,
                              clairvoyant, median_recursion,
                              median_recursion_gen, run_preprocessed)
from edlab.core import CountingOracle, Instance
from edlab.profiles import ClusterProfile
from edlab.setint import realize_si_family, si_clairvoyant, si_clairvoyant_gen
from edlab.sortsel import drive, select, select_gen


@st.composite
def values(draw, max_n=60):
    """All-distinct values, or values from a small range so ties form."""
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        return draw(st.permutations(range(n)))
    hi = draw(st.integers(0, max(1, n // 4)))
    return draw(st.lists(st.integers(0, hi), min_size=n, max_size=n))


@st.composite
def index_lists(draw, n):
    """range(n), or a shuffled list of some of the indices 0..n-1."""
    if draw(st.booleans()):
        return range(n)
    order = draw(st.permutations(range(n)))
    return order[:draw(st.integers(1, n))]


def _select_both(vals, items, k):
    """(index, count) from driving select_gen, then from select."""
    out = []
    for run in (lambda o: drive(select_gen(items, k), o),
                lambda o: select(o, items, k)):
        oracle = CountingOracle(Instance(tuple(vals)))
        out.append((run(oracle), oracle.count))
    return out


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("n", range(1, 8))
def test_select_matches_generator_at_every_rank_of_small_n(n, tied):
    vals = [v // 2 for v in range(n)] if tied else list(range(n))
    vals = vals[1::2] + vals[::2]
    for items in (range(n), list(range(n))[::-1], list(range(n))[1::2]):
        for k in range(1, len(items) + 1):
            gen, fast = _select_both(vals, items, k)
            assert fast == gen, (items, k)


@settings(max_examples=300, deadline=None)
@given(vals=values(max_n=200), data=st.data())
def test_select_matches_generator(vals, data):
    items = data.draw(index_lists(len(vals)))
    k = data.draw(st.integers(1, len(items)))
    gen, fast = _select_both(vals, items, k)
    assert fast == gen
    assert fast[0] == drive(brute_select_gen(items, k),
                            CountingOracle(Instance(tuple(vals))))


@pytest.mark.parametrize("k", [0, 4])
def test_select_refuses_a_rank_out_of_range_like_the_generator(k):
    oracle = CountingOracle(Instance((2, 0, 1)))
    with pytest.raises(ValueError, match=f"^rank {k} out of range for 3 items$"):
        select(oracle, [0, 1, 2], k)
    with pytest.raises(ValueError, match=f"^rank {k} out of range for 3 items$"):
        drive(select_gen([0, 1, 2], k), oracle)
    assert oracle.count == 0


@settings(max_examples=300, deadline=None)
@given(vals=values(), data=st.data())
@example(vals=[0], data=None)
@example(vals=[5, 5], data=None)
@example(vals=[1, 1, 0, 1], data=None)
def test_median_recursion_matches_reference(vals, data):
    n = len(vals)
    if data is None:  # explicit examples: every L, both index orders
        cases = [(L, items) for L in range(1, n + 3)
                 for items in (range(n), list(range(n))[::-1])]
    else:
        cases = [(data.draw(st.integers(1, n + 2)),
                  data.draw(index_lists(n)))]
    for L, items in cases:
        ref_stats = {}
        want, requests = recorded_run(
            brute_median_recursion_gen(items, L, ref_stats), vals)
        rep = median_recursion(CountingOracle(Instance(tuple(vals))), items, L)
        assert ((rep.outcome, rep.witness), rep.comparisons, rep.stats) == (
            want, len(requests), ref_stats)


@pytest.mark.parametrize("L", [0, -1])
def test_median_recursion_refuses_bad_L_before_reading_items(L):
    oracle = CountingOracle(Instance((0, 1)))
    with pytest.raises(ValueError, match="^L must be >= 1$"):
        median_recursion(oracle, [0, 5, 5], L)


@pytest.mark.parametrize("run, message", [
    (lambda o: median_recursion(o, [0, 1, -1], 2),
     "index out of range: -1 with n=4"),
    (lambda o: median_recursion(o, [3, 1, 3, 0], 5),
     "comparison of an index with itself: 3"),
    (lambda o: select(o, [0, 0, 1], 1),
     "comparison of an index with itself: 0"),
    (lambda o: select(o, [2, 4], 2), "index out of range: 4 with n=4"),
    (lambda o: select(o, [-1, 0, 1, 2], 1),
     "index out of range: -1 with n=4")],
    ids=["median-negative", "median-repeat", "select-repeat",
         "select-past-end", "select-neg"])
def test_value_evaluators_refuse_bad_indices_before_charging(run, message):
    # -1 would read the last value where the oracle refuses it; the
    # median case with L = 5 has no call large enough to select in
    oracle = CountingOracle(Instance((3, 3, 1, 2)))
    with pytest.raises(ValueError, match=f"^{message}$"):
        run(oracle)
    assert oracle.count == 0


def test_si_clairvoyant_refuses_a_b_side_past_the_instance():
    inst = realize_si_family(8, 1, seed=3)
    oracle = inst.oracle()
    with pytest.raises(ValueError, match="^index out of range: 16 with n=16$"):
        si_clairvoyant(oracle, inst.na, inst.nb + 1, 1, inst.na)
    assert oracle.count == 0


# clairvoyant takes its median path (L = 4) on the first and its block
# path on the second
MEDIAN_VALUES = (7, 3, 9, 1, 4, 3, 8, 0, 3, 6, 5, 3, 2, 10, 11, 12)
BLOCK_VALUES = (0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2)


@pytest.mark.parametrize("run, gen", [
    (lambda o: select(o, range(16), 8), lambda: select_gen(range(16), 8)),
    (lambda o: select(o, [5, 1, 9, 12, 0, 3], 2),
     lambda: select_gen([5, 1, 9, 12, 0, 3], 2)),
    (lambda o: median_recursion(o, [9, 4, 15, 0, 7, 2, 11, 13, 1, 3], 2),
     lambda: median_recursion_gen([9, 4, 15, 0, 7, 2, 11, 13, 1, 3], 2))],
    ids=["select", "select-list", "median_recursion"])
def test_runners_replay_generator_transcript_in_adversary_mode(run, gen):
    ref, got = recording_oracle(MEDIAN_VALUES), recording_oracle(MEDIAN_VALUES)
    want = drive(gen(), ref)
    out = run(got)
    if not isinstance(out, int):
        out = (out.outcome, out.witness)
    assert out == want
    assert (got.transcript, got.count) == (ref.transcript, ref.count)


@pytest.mark.parametrize("vals, path", [(MEDIAN_VALUES, "median"),
                                        (BLOCK_VALUES, "block")])
def test_clairvoyant_and_preprocessed_replay_generator_transcripts(vals,
                                                                   path):
    """Adversary mode drives the generator of the path taken; the report
    equals the value-evaluated run's."""
    n = len(vals)
    prof = ClusterProfile([vals.count(v) for v in sorted(set(vals))])
    for run in (lambda o: clairvoyant(o, prof),
                lambda o: run_preprocessed(PreprocessedPlan(prof), o),
                lambda o: run_preprocessed(
                    PreprocessedPlan(prof, k=4), o)):
        got = recording_oracle(vals)
        rep = run(got)
        fast = run(CountingOracle(Instance(vals)))
        assert ((rep.outcome, rep.witness, rep.comparisons, rep.stats)
                == (fast.outcome, fast.witness, fast.comparisons, fast.stats))
        st = rep.stats
        if st.get("mode") == "block":
            gen = block_sorting_gen(range(n), 4)
        else:
            assert st["path"] == path
            gen = (median_recursion_gen(range(n), st["L"]) if path == "median"
                   else block_sorting_gen(range(n), st["k"]))
        ref = recording_oracle(vals)
        assert drive(gen, ref) == (rep.outcome, rep.witness)
        assert got.transcript == ref.transcript


@pytest.mark.parametrize("partner_last", [False, True])
@pytest.mark.parametrize("i", [1, 2, 4])
def test_si_clairvoyant_replays_generator_transcript_in_adversary_mode(
        i, partner_last):
    inst = realize_si_family(64, i, seed=i, partner_last=partner_last)
    vals = inst.a_values + inst.b_values
    ref, got = recording_oracle(vals), recording_oracle(vals)
    want = drive(si_clairvoyant_gen(inst.na, inst.nb, i), ref)
    rep = si_clairvoyant(got, inst.na, inst.nb, i, inst.na)
    assert (rep.outcome, rep.witness) == want
    assert (got.transcript, got.count) == (ref.transcript, ref.count)
    fast = si_clairvoyant(inst.oracle(), inst.na, inst.nb, i, inst.na)
    assert (fast.outcome, fast.witness, fast.comparisons) == (
        *want, ref.count)
