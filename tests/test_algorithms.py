"""Distinctness algorithms: traces, structural bounds, witness validity."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edlab.algorithms import (block_sorting, clairvoyant, median_recursion,
                              order_baseline, order_doubling, preprocess,
                              run_preprocessed)
from edlab.core import (CountingOracle, Instance, Outcome, ceil_log2,
                        realize_instance)
from edlab.harness import run_algorithm
from edlab.profiles import ClusterProfile, select_L1, select_L2
from edlab.sortsel import select

profiles = st.lists(st.integers(min_value=1, max_value=9), min_size=1,
                    max_size=16).map(ClusterProfile)


def oracle_for(vals):
    return CountingOracle(instance=Instance(tuple(vals)))


def check_witness(vals, rep):
    x, y = rep.witness
    assert x != y and vals[x] == vals[y]


# --- selection ---------------------------------------------------------------

def test_select_kth_singleton():
    o = oracle_for([42])
    assert select(o, [0], 1) == 0
    assert o.count == 0


def test_select_kth_small_trace():
    vals = [3, 1, 2]
    assert vals[select(oracle_for(vals), range(3), 2)] == 2


@given(vals=st.lists(st.integers(0, 30), min_size=1, max_size=50),
       data=st.data())
def test_select_kth_matches_sorted_oracle(vals, data):
    k = data.draw(st.integers(1, len(vals)))
    idx = select(oracle_for(vals), range(len(vals)), k)
    assert vals[idx] == sorted(vals)[k - 1]


def test_select_kth_rank_errors():
    with pytest.raises(ValueError):
        select(oracle_for([1, 2]), range(2), 3)


# --- block sorting -----------------------------------------------------------

def test_block_all_equal():
    o = oracle_for([5, 5, 5, 5])
    rep = block_sorting(o, range(4), 2)
    assert rep.outcome is Outcome.DUPLICATE
    assert rep.comparisons == 1
    assert rep.stats["iterations"] == 1


def test_block_distinct_trace():
    o = oracle_for([1, 2, 3, 4])
    rep = block_sorting(o, range(4), 2)
    assert rep.outcome is Outcome.GAVE_UP
    assert rep.comparisons == 2  # one k-block sort plus the final sort of 2
    assert rep.stats["iterations"] == 2


def test_block_rejects_bad_k():
    with pytest.raises(ValueError):
        block_sorting(oracle_for([1, 2]), range(2), 0)


@settings(max_examples=60, deadline=None)
@given(p=profiles, seed=st.integers(0, 999))
def test_block_iteration_bound(p, seed):
    # the guarantee needs a duplicate to exist and a cut with
    # small-cluster mass below half
    if p.max_size() < 2:
        return
    L2, _ = select_L2(p)
    C, D = p.c(L2), p.d(L2)
    if D == 0 or 2 * C >= p.n:
        return
    inst = realize_instance(p, seed)
    rep = block_sorting(oracle_for(inst.values), range(p.n), 2 * D)
    assert rep.outcome is Outcome.DUPLICATE
    assert rep.stats["iterations"] <= 1 + math.ceil(C / D)
    check_witness(inst.values, rep)


# --- median recursion ----------------------------------------------------------

def test_median_equal_pair():
    o = oracle_for([7, 7])
    rep = median_recursion(o, range(2), 2)
    assert rep.outcome is Outcome.DUPLICATE
    check_witness([7, 7], rep)


def test_median_distinct():
    rep = median_recursion(oracle_for([1, 2, 3, 4]), range(4), 2)
    assert rep.outcome is Outcome.GAVE_UP
    assert rep.witness is None


def test_median_rejects_bad_L():
    with pytest.raises(ValueError):
        median_recursion(oracle_for([1, 2]), range(2), 0)


def test_median_pair_profile_small_call_mass():
    p = ClusterProfile([2] + [1] * 16)
    for seed in range(10):
        inst = realize_instance(p, seed)
        rep = median_recursion(oracle_for(inst.values), range(18), 2)
        assert rep.outcome is Outcome.DUPLICATE
        assert rep.stats["small_mass"] <= 16
        check_witness(inst.values, rep)


@settings(max_examples=60, deadline=None)
@given(p=profiles, seed=st.integers(0, 999), data=st.data())
def test_median_structure_bounds(p, seed, data):
    feasible = [L for L in p.piece_starts() if L >= 2 and p.c(L) < p.n]
    if not feasible:
        return
    L = data.draw(st.sampled_from(feasible))
    C = p.c(L)
    inst = realize_instance(p, seed)
    rep = median_recursion(oracle_for(inst.values), range(p.n), L)
    assert rep.outcome is Outcome.DUPLICATE  # guaranteed when C(L) < n
    assert rep.stats["small_mass"] <= C
    assert rep.stats["small_calls"] <= 2 * C / L + 1
    check_witness(inst.values, rep)


# --- clairvoyant runner --------------------------------------------------------

def test_clairvoyant_one_clique():
    p = ClusterProfile([16])
    inst = realize_instance(p, 0)
    rep = clairvoyant(oracle_for(inst.values), p)
    assert rep.outcome is Outcome.DUPLICATE
    assert rep.comparisons == 1
    assert rep.stats["path"] == "block" and rep.stats["k"] == 2


def test_clairvoyant_all_singletons():
    n = 16
    p = ClusterProfile([1] * n)
    inst = realize_instance(p, 1)
    rep = clairvoyant(oracle_for(inst.values), p)
    assert rep.outcome is Outcome.GAVE_UP
    assert rep.comparisons <= n * ceil_log2(n)


def test_clairvoyant_pair_profile_cost():
    p = ClusterProfile([2] + [1] * 16)
    b1 = select_L1(p)[1]
    b2 = select_L2(p)[1]
    for seed in range(5):
        inst = realize_instance(p, seed)
        rep = clairvoyant(oracle_for(inst.values), p)
        assert rep.outcome is Outcome.DUPLICATE
        assert rep.comparisons <= 10 * min(b1, b2)


def test_clairvoyant_rejects_profile_mismatch():
    inst = realize_instance(ClusterProfile([2, 1]), 0)
    with pytest.raises(ValueError, match="does not realize"):
        run_algorithm("clairvoyant", inst, ClusterProfile([3]))


@settings(max_examples=50, deadline=None)
@given(p=profiles, seed=st.integers(0, 999))
def test_clairvoyant_outcome_matches_profile(p, seed):
    inst = realize_instance(p, seed)
    rep = clairvoyant(oracle_for(inst.values), p)
    if p.max_size() >= 2:
        if rep.outcome is Outcome.DUPLICATE:
            check_witness(inst.values, rep)
    else:
        assert rep.outcome in (Outcome.GAVE_UP, Outcome.DISTINCT)
        assert rep.witness is None


# --- preprocessing -------------------------------------------------------------

def test_preprocess_one_clique_plan():
    p = ClusterProfile([8])
    plan = preprocess(p)
    assert plan.k == 2
    inst = realize_instance(p, 0)
    rep = run_preprocessed(plan, oracle_for(inst.values))
    assert rep.outcome is Outcome.DUPLICATE and rep.comparisons == 1


def test_preprocess_defers_on_flat_profiles():
    plan = preprocess(ClusterProfile([1] * 32))
    assert plan.k is None


def test_run_preprocessed_rejects_mismatch():
    inst = realize_instance(ClusterProfile([2, 2]), 0)
    with pytest.raises(ValueError, match="does not realize"):
        run_algorithm("preprocessed", inst, ClusterProfile([4]))


@settings(max_examples=60, deadline=None)
@given(p=profiles, seed=st.integers(0, 999))
def test_run_preprocessed_within_triple_clairvoyant_budget(p, seed):
    sel1 = select_L1(p)
    term1 = sel1[1] if sel1 else math.inf
    budget = min(term1, select_L2(p)[1])
    inst = realize_instance(p, seed)
    rep = run_preprocessed(preprocess(p), oracle_for(inst.values))
    assert rep.comparisons <= 3 * 10 * budget
    if p.max_size() >= 2:
        assert rep.outcome is Outcome.DUPLICATE
        check_witness(inst.values, rep)


# --- order-oblivious doubling and rank baseline ---------------------------------

def test_doubling_immediate_pair():
    rep = order_doubling(oracle_for([5, 5]))
    assert rep.outcome is Outcome.DUPLICATE and rep.comparisons == 1


def test_doubling_distinct_cost():
    vals = [3, 7, 1, 0, 6, 2, 5, 4]
    rep = order_doubling(oracle_for(vals))
    assert rep.outcome is Outcome.DISTINCT
    assert rep.comparisons <= 2 + 8 + 24  # sort costs at k = 2, 4, 8


def test_doubling_pair_hidden_at_the_end():
    n = 16
    vals = list(range(n - 2)) + [n - 2, n - 2]
    rep = order_doubling(oracle_for(vals))
    assert rep.outcome is Outcome.DUPLICATE
    assert rep.comparisons > 1 + 5 + 17  # every prefix block pays first
    check_witness(vals, rep)


def test_order_baseline_finds_known_rank_pair():
    rng = random.Random(5)
    n = 32
    for _ in range(10):
        vals = list(range(n - 1))
        dup = rng.randrange(n - 1)
        vals.append(dup)
        rng.shuffle(vals)
        k = sorted(vals).index(dup) + 1
        o = oracle_for(vals)
        rep = order_baseline(o, k)
        assert rep.outcome is Outcome.DUPLICATE
        check_witness(vals, rep)


def test_order_baseline_gives_up_without_promise():
    vals = [4, 2, 0, 3, 1]
    rep = order_baseline(oracle_for(vals), 2)
    assert rep.outcome is Outcome.GAVE_UP


def test_order_baseline_rank_errors():
    with pytest.raises(ValueError):
        order_baseline(oracle_for([1, 2]), 0)
    with pytest.raises(ValueError):
        order_baseline(oracle_for([1, 2]), 2)
