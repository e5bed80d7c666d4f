"""Parallel-branch runner: branch layout, fair scheduling, certificates,
and a differential test against the reference scheduler in bruteforce.py."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bruteforce import brute_oblivious_gen, recorded_run
from edlab.algorithms import (budgeted_median_branch_gen, oblivious,
                              oblivious_branches, oblivious_gen)
from edlab.core import CountingOracle, Instance, Outcome, realize_instance
from edlab.profiles import ClusterProfile
from edlab.sortsel import drive, drive_bounded

profiles = st.lists(st.integers(min_value=1, max_value=9), min_size=2,
                    max_size=14).map(ClusterProfile)


def oracle_for(vals):
    return CountingOracle(instance=Instance(tuple(vals)))


def test_branch_labels_at_256():
    labels = [label for label, _ in oblivious_branches(256)]
    assert labels == ["block:0", "block:1", "block:2", "block:3",
                      "double", "median:1", "median:2", "median:4", "median:8"]


def test_every_branch_asks_before_it_can_stop():
    # oblivious_gen primes each branch with one bare next()
    for n in [*range(2, 301), *(2 ** e for e in range(9, 17))]:
        for label, gen in oblivious_branches(n):
            x, y = next(gen)
            assert x != y and 0 <= x < n and 0 <= y < n, (n, label)


def test_all_equal_wins_immediately():
    vals = [9] * 256
    rep = oblivious(oracle_for(vals))
    assert rep.outcome is Outcome.DUPLICATE
    assert rep.comparisons <= len(oblivious_branches(256))
    x, y = rep.witness
    assert vals[x] == vals[y] and x != y


def test_scheduler_shares_rounds_evenly():
    n, budget = 64, 40
    vals = list(range(n))  # distinct: nothing finishes this early
    costs = {}
    o = oracle_for(vals)
    res, finished = drive_bounded(oblivious_gen(n, costs), o, budget)
    assert not finished
    width = len(oblivious_branches(n))
    assert sum(costs.values()) == budget
    lo, hi = budget // width, -(-budget // width)
    assert all(c in (lo, hi) for c in costs.values())


def test_distinct_certificate_comes_from_full_sort():
    vals = [5, 2, 7, 0, 3, 6, 1, 4]
    rep = oblivious(oracle_for(vals))
    assert rep.outcome is Outcome.DISTINCT
    assert rep.witness is None
    assert rep.branch_costs["double"] > 0


def test_rejects_tiny_n():
    o = oracle_for([1, 2])
    with pytest.raises(ValueError):
        drive(oblivious_gen(1), o)
    with pytest.raises(ValueError, match="need n >= 2"):
        drive(brute_oblivious_gen(1), o)


@st.composite
def instances(draw, max_n=200):
    """Values for n in 2..max_n: all distinct, or drawn from a small
    range so ties are everywhere."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    if draw(st.booleans()):
        return draw(st.permutations(range(n)))
    hi = draw(st.integers(min_value=0, max_value=max(1, n // 4)))
    return draw(st.lists(st.integers(0, hi), min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(values=instances())
@example(values=[0, 1])
@example(values=[4, 4])
@example(values=[2, 0, 1])
@example(values=[1, 0, 1])
def test_oblivious_matches_reference(values):
    n = len(values)
    costs, brute_costs = {}, {}
    got = recorded_run(oblivious_gen(n, costs), values)
    assert got == recorded_run(brute_oblivious_gen(n, brute_costs), values)
    assert costs == brute_costs


@settings(max_examples=40, deadline=None)
@given(p=profiles, seed=st.integers(0, 999))
def test_oblivious_outcome_matches_instance(p, seed):
    inst = realize_instance(p, seed)
    rep = oblivious(oracle_for(inst.values))
    if p.max_size() >= 2:
        assert rep.outcome is Outcome.DUPLICATE
        x, y = rep.witness
        assert x != y and inst.values[x] == inst.values[y]
    else:
        assert rep.outcome is Outcome.DISTINCT


def test_budgeted_median_branch_alone():
    p = ClusterProfile([2] + [1] * 16)
    inst = realize_instance(p, 3)
    o = oracle_for(inst.values)
    outcome, witness = drive(budgeted_median_branch_gen(18, 1), o)
    assert outcome is Outcome.DUPLICATE
    x, y = witness
    assert inst.values[x] == inst.values[y]

    o2 = oracle_for(list(range(12)))
    outcome, witness = drive(budgeted_median_branch_gen(12, 1), o2)
    assert outcome is Outcome.GAVE_UP and witness is None
