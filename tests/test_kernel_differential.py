"""Differential tests: sortsel's sort and select kernels against the
recursive kernels kept verbatim in bruteforce.py.  Requests and results
must agree exactly, including on n = 1 and 2, all-distinct inputs,
duplicate-heavy inputs and the cross witness set intersection uses."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bruteforce import (brute_insertion_sort_gen, brute_merge_sort_gen,
                        brute_select_gen, recorded_run as run)
from edlab.sortsel import insertion_sort_gen, merge_sort_gen, select_gen


@st.composite
def instances(draw, max_n=200):
    """Values for n in 1..max_n: all distinct, or drawn from a small
    range so ties are everywhere."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    if draw(st.booleans()):
        return draw(st.permutations(range(n)))
    hi = draw(st.integers(min_value=0, max_value=max(1, n // 4)))
    return draw(st.lists(st.integers(0, hi), min_size=n, max_size=n))


def _cases(values, data):
    """Index orders to run on: both fixed orders for the explicit
    examples, one drawn permutation otherwise."""
    n = len(values)
    if data is None:
        return [list(range(n)), list(range(n))[::-1]]
    return [data.draw(st.permutations(range(n)))]


@settings(max_examples=300, deadline=None)
@given(values=instances(), data=st.data())
@example(values=[0], data=None)
@example(values=[4, 4], data=None)
@example(values=[1, 0], data=None)
@example(values=list(range(64)), data=None)
@example(values=[3] * 40, data=None)
def test_merge_sort_matches_reference(values, data):
    n = len(values)
    if data is None:  # no witness, then the cross witness at chosen cuts
        cuts = [None] + (list(range(n + 1)) if n <= 6 else [0, 1, n // 2, n])
    else:
        cuts = [data.draw(st.one_of(st.none(), st.integers(0, n)))]
    for items in _cases(values, data):
        for h in cuts:
            wit = None if h is None else (lambda x, y: (x < h) != (y < h))
            got = run(merge_sort_gen(items, wit), values)
            assert got == run(brute_merge_sort_gen(items, wit), values)


@settings(max_examples=200, deadline=None)
@given(values=instances(max_n=400), data=st.data())
@example(values=[0], data=None)
@example(values=[2, 2], data=None)
@example(values=[0, 1], data=None)
@example(values=[5, 1, 4, 2, 3], data=None)
@example(values=[1, 0, 1, 0, 1, 0], data=None)
@example(values=list(range(130))[::-1], data=None)
@example(values=[7] * 31, data=None)
def test_select_matches_reference(values, data):
    n = len(values)
    if data is None:  # every rank of a small input, the ends of a large one
        ranks = range(1, n + 1) if n <= 6 else (1, 2, (n + 1) // 2, n - 1, n)
    else:
        ranks = [data.draw(st.integers(1, n))]
    for items in _cases(values, data):
        for k in ranks:
            got = run(select_gen(items, k), values)
            assert got == run(brute_select_gen(items, k), values)


@settings(max_examples=100, deadline=None)
@given(values=instances(max_n=12), data=st.data())
@example(values=[0], data=None)
@example(values=[1, 1], data=None)
def test_insertion_sort_matches_reference(values, data):
    for items in _cases(values, data):
        got = run(insertion_sort_gen(items), values)
        assert got == run(brute_insertion_sort_gen(items), values)


@pytest.mark.parametrize("k", [0, 4])
def test_select_rejects_bad_rank_like_reference(k):
    for gen in (select_gen, brute_select_gen):
        with pytest.raises(ValueError):
            next(gen(range(3), k))
