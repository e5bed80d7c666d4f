"""Differential tests: the doubling, block and set-intersection doubling
runners against the plain references in bruteforce.py, which build each
sorted list in full before brute_merge_sort_gen sees it.  Requests,
results and stats must agree exactly, including on n = 1 and 2 and on
all-distinct inputs.  The runners that evaluate their spans on a
realized instance (block_sorting, order_doubling, si_doubling) must
report the reference's outcome, witness, request count and stats, and
so must clairvoyant, whose path and parameters the reference picks by
full scans, and the preprocessed runner, whose plan the reference takes
from the running-totals halving scan."""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bruteforce import (brute_approx_L2_scan, brute_block_sorting_gen,
                        brute_cd, brute_doubling_gen,
                        brute_median_recursion_gen, brute_select_L1,
                        brute_select_L2, brute_si_doubling_gen,
                        recorded_run as run)
from edlab.algorithms import (_block_spans, block_sorting, block_sorting_gen,
                              clairvoyant, doubling_gen, order_doubling,
                              preprocess, run_preprocessed)
from edlab.core import CountingOracle, Instance, Outcome
from edlab.profiles import ClusterProfile
from edlab.setint import si_doubling, si_doubling_gen
from edlab.sortsel import sort_spans_gen


@st.composite
def instances(draw, max_n=150):
    """Values for n in 1..max_n: all distinct, or drawn from a small
    range so ties are everywhere."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    if draw(st.booleans()):
        return draw(st.permutations(range(n)))
    hi = draw(st.integers(min_value=0, max_value=max(1, n // 4)))
    return draw(st.lists(st.integers(0, hi), min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(values=instances())
@example(values=[0])
@example(values=[3, 3])
@example(values=[1, 0])
@example(values=list(range(100))[::-1])
@example(values=list(range(64)) + [63])
def test_doubling_matches_reference(values):
    n = len(values)
    assert run(doubling_gen(n), values) == run(brute_doubling_gen(n), values)


@settings(max_examples=200, deadline=None)
@given(values=instances(), data=st.data())
@example(values=[0], data=None)
@example(values=[2, 2], data=None)
@example(values=[0, 1], data=None)
@example(values=list(range(40)), data=None)
@example(values=[5, 1, 4, 2, 3, 1, 0], data=None)
def test_block_sorting_matches_reference(values, data):
    n = len(values)
    if data is None:  # every k up to past n, both fixed orders
        cases = [(k, order) for k in range(1, n + 3)
                 for order in (range(n), list(range(n))[::-1])]
    else:
        cases = [(data.draw(st.integers(1, n + 2)),
                  data.draw(st.permutations(range(n))))]
    for k, items in cases:
        got_stats, ref_stats = {}, {}
        got = run(block_sorting_gen(items, k), values)
        ref = run(brute_block_sorting_gen(items, k, ref_stats), values)
        assert got == ref
        # block_sorting_gen returns this generator; read its iterations
        run(sort_spans_gen(_block_spans(items, k), Outcome.GAVE_UP,
                           stats=got_stats), values)
        assert got_stats == ref_stats


@st.composite
def si_instances(draw, max_side=60):
    """(na, combined values): A's values, then B's, all distinct, or
    drawn from one small range so each side ties and the sides meet."""
    na = draw(st.integers(1, max_side))
    nb = draw(st.integers(1, max_side))
    if draw(st.booleans()):  # all distinct across both sides
        return na, draw(st.permutations(range(na + nb)))
    hi = draw(st.integers(0, max(1, (na + nb) // 3)))
    return na, draw(st.lists(st.integers(0, hi), min_size=na + nb,
                             max_size=na + nb))


@settings(max_examples=200, deadline=None)
@given(case=si_instances())
@example(case=(1, [0, 0]))
@example(case=(1, [0, 1]))
@example(case=(2, [4, 4, 1, 2]))
@example(case=(1, [7, 3, 5, 7]))
@example(case=(3, [2, 1, 0, 3, 4, 5, 6, 7]))
@example(case=(40, list(range(40)) + [39] + list(range(40, 70))))
def test_si_doubling_matches_reference(case):
    na, values = case
    nb = len(values) - na
    got = run(si_doubling_gen(na, nb), values)
    assert got == run(brute_si_doubling_gen(na, nb), values)


def _report_matches(rep, ref_gen, values, ref_stats=None):
    """The runner's report says what the reference's run did."""
    res, requests = run(ref_gen, values)
    assert ((rep.outcome, rep.witness), rep.comparisons) == (res, len(requests))
    assert rep.stats == (ref_stats or {})


@settings(max_examples=200, deadline=None)
@given(values=instances(), data=st.data())
@example(values=[0], data=None)
@example(values=[1, 1], data=None)
@example(values=[1, 0], data=None)
@example(values=list(range(70)), data=None)
@example(values=[6, 2, 5, 3, 4, 2, 0, 1, 6], data=None)
def test_span_runners_match_reference_on_instances(values, data):
    n = len(values)
    inst = Instance(tuple(values))
    _report_matches(order_doubling(CountingOracle(inst)),
                    brute_doubling_gen(n), values)
    if data is None:
        cases = [(k, range(n)) for k in range(1, n + 3)]
    else:
        cases = [(data.draw(st.integers(1, n + 2)),
                  data.draw(st.permutations(range(n))))]
    for k, items in cases:
        ref_stats = {}
        _report_matches(block_sorting(CountingOracle(inst), items, k),
                        brute_block_sorting_gen(items, k, ref_stats), values,
                        ref_stats)


def _brute_clairvoyant(sizes):
    """The reference run clairvoyant must match on a profile with these
    sizes, and its stats: median recursion with L1 when its bound beats
    the block bound, else block sorting with k = 2 D(L2)."""
    n = sum(sizes)
    sel1 = brute_select_L1(sizes)
    L2, bound2 = brute_select_L2(sizes)
    if sel1 is not None and sel1[1] < bound2:
        stats = {"path": "median", "L": sel1[0], "bound": sel1[1]}
        return brute_median_recursion_gen(range(n), sel1[0], stats), stats
    k = 2 * brute_cd(sizes, L2)[1]
    stats = {"path": "block", "L": L2, "k": k, "bound": bound2}
    return brute_block_sorting_gen(range(n), k, stats), stats


@st.composite
def one_big_cluster(draw, max_n=150):
    """A shuffled cluster of a third to a half of n values, the rest
    distinct: inputs on which clairvoyant mostly takes its median path."""
    n = draw(st.integers(min_value=3, max_value=max_n))
    big = draw(st.integers(n // 3, n // 2))
    return draw(st.permutations([0] * big + list(range(1, n - big + 1))))


@settings(max_examples=200, deadline=None)
@given(values=st.one_of(instances(), one_big_cluster()))
@example(values=[0])
@example(values=[1, 1])
@example(values=[1, 0])
@example(values=list(range(70)))
@example(values=[0] * 30 + list(range(1, 40)))  # median path
@example(values=[6, 2, 5, 3, 4, 2, 0, 1, 6, 4, 4])
def test_clairvoyant_matches_reference_on_instances(values):
    sizes = list(Counter(values).values())
    rep = clairvoyant(CountingOracle(Instance(tuple(values))),
                      ClusterProfile(sizes))
    ref_gen, ref_stats = _brute_clairvoyant(sizes)
    _report_matches(rep, ref_gen, values, ref_stats)


def _brute_preprocessed(sizes):
    """The reference run of a preprocessed plan and its stats: block
    sorting with k = 2 D(t) at the halving scan's t, or clairvoyant's
    reference run when the scan's objective reaches n."""
    n = sum(sizes)
    t, obj, _ = brute_approx_L2_scan(sizes)
    if obj >= n:
        gen, stats = _brute_clairvoyant(sizes)
        stats["mode"] = "defer"
        return gen, stats
    k = 2 * brute_cd(sizes, t)[1]
    stats = {"mode": "block", "k": k, "approx_L": t}
    return brute_block_sorting_gen(range(n), k, stats), stats


@settings(max_examples=200, deadline=None)
@given(values=instances())
@example(values=[0])
@example(values=[1, 1])
@example(values=[1, 0])
@example(values=list(range(70)))
@example(values=[0, 1, 2] * 12)  # block path
@example(values=[0] * 30 + list(range(1, 40)))
def test_preprocessed_matches_reference_on_instances(values):
    sizes = list(Counter(values).values())
    rep = run_preprocessed(preprocess(ClusterProfile(sizes)),
                           CountingOracle(Instance(tuple(values))))
    ref_gen, ref_stats = _brute_preprocessed(sizes)
    _report_matches(rep, ref_gen, values, ref_stats)


@settings(max_examples=200, deadline=None)
@given(case=si_instances())
@example(case=(1, [0, 0]))
@example(case=(1, [0, 1]))
@example(case=(2, [4, 4, 1, 2]))
@example(case=(3, [2, 1, 0, 3, 4, 5, 6, 7]))
@example(case=(40, list(range(40)) + [39] + list(range(40, 70))))
def test_si_doubling_runner_matches_reference_on_instances(case):
    na, values = case
    nb = len(values) - na
    rep = si_doubling(CountingOracle(Instance(tuple(values))), na, nb)
    _report_matches(rep, brute_si_doubling_gen(na, nb), values)


@pytest.mark.parametrize("k", [0, -2])
def test_block_sorting_rejects_bad_k_like_reference(k):
    for gen in (block_sorting_gen, brute_block_sorting_gen):
        with pytest.raises(ValueError):
            next(gen(range(4), k))
