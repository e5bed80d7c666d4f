"""Differential tests: the doubling, block and set-intersection doubling
runners against the plain references in bruteforce.py, which build each
sorted list in full before brute_merge_sort_gen sees it.  Requests,
results and stats must agree exactly, including on n = 1 and 2 and on
all-distinct inputs."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bruteforce import (brute_block_sorting_gen, brute_doubling_gen,
                        brute_si_doubling_gen, recorded_run as run)
from edlab.algorithms import block_sorting_gen, doubling_gen
from edlab.setint import si_doubling_gen


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
        got = run(block_sorting_gen(items, k, got_stats), values)
        ref = run(brute_block_sorting_gen(items, k, ref_stats), values)
        assert got == ref
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


@pytest.mark.parametrize("k", [0, -2])
def test_block_sorting_rejects_bad_k_like_reference(k):
    for gen in (block_sorting_gen, brute_block_sorting_gen):
        with pytest.raises(ValueError):
            next(gen(range(4), k))
