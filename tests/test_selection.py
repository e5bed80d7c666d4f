"""Suspendable sort/select kernels: correctness, costs, budget semantics."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edlab.core import Answer, CountingOracle, Instance
from edlab.sortsel import (drive, drive_bounded, drive_with, merge_sort_gen,
                           select_gen)

values_lists = st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                        max_size=60)


def run_on(vals, gen):
    o = CountingOracle(instance=Instance(tuple(vals)))
    return drive(gen, o), o


@given(vals=values_lists)
def test_merge_sort_result(vals):
    n = len(vals)
    tag, *rest = run_on(vals, merge_sort_gen(range(n)))[0]
    if tag == "dup":
        x, y = rest
        assert x != y and vals[x] == vals[y]
    else:
        order = rest[0]
        assert [vals[i] for i in order] == sorted(vals)
        assert len(set(vals)) == n  # clean run certifies distinctness


@given(n=st.integers(min_value=1, max_value=200),
       seed=st.integers(min_value=0, max_value=999))
def test_merge_sort_cost_bound(n, seed):
    vals = list(range(n))
    random.Random(seed).shuffle(vals)
    (_, _), o = run_on(vals, merge_sort_gen(range(n)))
    assert o.count <= n * math.ceil(math.log2(n)) if n > 1 else o.count == 0


def test_merge_sort_witness_filter_keeps_sorting():
    vals = [2, 2, 1]
    res, _ = run_on(vals, merge_sort_gen(range(3), cross_at=3))  # A only
    assert res[0] == "ok"
    assert [vals[i] for i in res[1]] == [1, 2, 2]
    # same input without the filter reports the equal pair
    res, _ = run_on(vals, merge_sort_gen(range(3)))
    assert res == ("dup", 0, 1) or res == ("dup", 1, 0)


@given(vals=values_lists, k=st.integers(min_value=1, max_value=60))
def test_select_matches_sorted_rank(vals, k):
    if k > len(vals):
        k = 1 + k % len(vals)
    idx, _ = run_on(vals, select_gen(range(len(vals)), k))
    assert vals[idx] == sorted(vals)[k - 1]


@given(n=st.integers(min_value=1, max_value=1500),
       seed=st.integers(min_value=0, max_value=99))
@settings(max_examples=30, deadline=None)
def test_select_cost_linear(n, seed):
    vals = list(range(n))
    random.Random(seed).shuffle(vals)
    k = 1 + (seed * 7919) % n
    _, o = run_on(vals, select_gen(range(n), k))
    assert o.count <= 10 * n + 50


def base_case_order(vals):
    """The order select_gen's base case sorts n <= 5 items into: one
    binary insertion sort of all items, read back at every rank."""
    n = len(vals)
    return [run_on(vals, select_gen(range(n), k))[0] for k in range(1, n + 1)]


@given(vals=st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                     max_size=5))
def test_insertion_sort_orders_by_value(vals):
    res = base_case_order(vals)
    assert sorted(res) == list(range(len(vals)))
    assert [vals[i] for i in res] == sorted(vals)


def test_insertion_sort_is_stable_on_ties():
    vals = [4, 1, 4, 1, 4]
    res = base_case_order(vals)
    assert res == [1, 3, 0, 2, 4]  # equal values keep insertion order


def test_select_rank_out_of_range():
    o = CountingOracle(instance=Instance((1, 2, 3)))
    with pytest.raises(ValueError):
        drive(select_gen(range(3), 0), o)
    with pytest.raises(ValueError):
        drive(select_gen(range(3), 4), o)


def test_drive_bounded_pauses_and_finishes():
    vals = [3, 1, 2, 0]
    o = CountingOracle(instance=Instance(tuple(vals)))
    res, finished = drive_bounded(merge_sort_gen(range(4)), o, 2)
    assert res is None and not finished and o.count == 2
    o2 = CountingOracle(instance=Instance(tuple(vals)))
    res, finished = drive_bounded(merge_sort_gen(range(4)), o2, 100)
    assert finished and res[0] == "ok"


@pytest.mark.parametrize("run", [
    lambda gen, o: drive(gen, o),
    lambda gen, o: drive_bounded(gen, o, 100)[0],
], ids=["drive", "drive_bounded"])
def test_drivers_look_up_compare_per_request(run, monkeypatch):
    # A caller may swap CountingOracle.compare on the class in the middle
    # of a run, the way the benchmark's tracer times a run's first
    # comparison; the next request must reach the swapped method.
    original = CountingOracle.compare
    swapped_calls = []

    def swapped(self, x, y):
        swapped_calls.append((x, y))
        return original(self, x, y)

    def swap_after_first(self, x, y):
        monkeypatch.setattr(CountingOracle, "compare", swapped)
        return original(self, x, y)

    monkeypatch.setattr(CountingOracle, "compare", swap_after_first)
    o = CountingOracle(instance=Instance((3, 1, 2, 0)))
    res = run(merge_sort_gen(range(4)), o)
    assert res == ("ok", [3, 1, 2, 0])
    assert len(swapped_calls) == o.count - 1 >= 1


def test_drive_with_callable():
    fixed = lambda x, y: Answer.LT if x < y else Answer.GT
    res = drive_with(merge_sort_gen(range(5)), fixed)
    assert res == ("ok", [0, 1, 2, 3, 4])
