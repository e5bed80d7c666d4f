"""Differential tests: median recursion and the oblivious runner's
budgeted median branches against the two recursions kept as references
in bruteforce.py.  Requests, results and stats must agree exactly."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bruteforce import (brute_budgeted_median_branch_gen,
                        brute_median_recursion_gen, recorded_run as run)
from edlab.algorithms import budgeted_median_branch_gen, median_recursion_gen


@st.composite
def instances(draw, max_n=48):
    """Values for n in 1..max_n: all distinct, or drawn from a small
    range so clusters form."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    if draw(st.booleans()):
        return draw(st.permutations(range(n)))
    hi = draw(st.integers(min_value=0, max_value=n))
    return draw(st.lists(st.integers(0, hi), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(values=instances(), data=st.data())
@example(values=[0], data=None)
@example(values=[5, 5], data=None)
@example(values=[1, 0], data=None)
def test_median_recursion_matches_reference(values, data):
    n = len(values)
    if data is None:  # explicit examples: every L and index order
        cases = [(L, list(range(n))) for L in range(1, n + 3)]
        cases += [(L, list(range(n))[::-1]) for L in range(1, n + 3)]
    else:
        cases = [(data.draw(st.integers(1, n + 2)),
                  data.draw(st.permutations(range(n))))]
    for L, items in cases:
        got_stats, ref_stats = {"path": "median"}, {"path": "median"}
        got = run(median_recursion_gen(items, L, got_stats), values)
        ref = run(brute_median_recursion_gen(items, L, ref_stats), values)
        assert got == ref
        assert got_stats == ref_stats


# all distinct at n = 1000, so the memo holds up to 9 levels (Hypothesis
# inputs stop at n = 64, where it holds at most 6)
PERM_1000 = random.Random(1000).sample(range(1000), 1000)


@settings(max_examples=200, deadline=None)
@given(values=instances(max_n=64), i=st.sampled_from([1, 2, 4, 8]))
@example(values=[0], i=1)
@example(values=[3, 3], i=1)
@example(values=[0, 1], i=2)
@example(values=PERM_1000, i=1)
@example(values=PERM_1000, i=2)
@example(values=PERM_1000, i=4)
@example(values=PERM_1000, i=8)
def test_budgeted_median_branch_matches_reference(values, i):
    n = len(values)
    got = run(budgeted_median_branch_gen(n, i), values)
    assert got == run(brute_budgeted_median_branch_gen(n, i), values)


@pytest.mark.parametrize("L", [0, -1])
def test_median_recursion_rejects_bad_L_like_reference(L):
    for gen in (median_recursion_gen, brute_median_recursion_gen):
        with pytest.raises(ValueError):
            next(gen(range(4), L))
