"""Differential test: si_clairvoyant against the plain reference in
bruteforce.py, on realized family instances and on B sides off the
family.  Requests, results and the runner's report must agree exactly,
and the verdict must be the one the values dictate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import (brute_cube_root, brute_si_clairvoyant_gen,
                        brute_si_family_answer, recorded_run as run)
from edlab.core import Outcome
from edlab.setint import (SIInstance, realize_si_family, si_clairvoyant,
                          si_clairvoyant_gen)

SIZES = (8, 64, 512)


def _check(inst, i):
    na, nb = inst.na, inst.nb
    values = inst.a_values + inst.b_values
    got = run(si_clairvoyant_gen(na, nb, i), values)
    ref = run(brute_si_clairvoyant_gen(na, nb, i), values)
    assert got == ref
    rep = si_clairvoyant(inst.oracle(), na, nb, i, na)
    assert (rep.outcome, rep.witness, rep.comparisons) == (*ref[0], len(ref[1]))
    assert ref[0] == brute_si_family_answer(inst.a_values, inst.b_values, i)
    return rep


@pytest.mark.parametrize("partner_last", [False, True])
@pytest.mark.parametrize("n,i", [(n, i) for n in SIZES
                                 for i in range(1, brute_cube_root(n) + 1)])
def test_family_instances_match_reference(n, i, partner_last):
    inst = realize_si_family(n, i, seed=n + i, partner_last=partner_last)
    assert _check(inst, i).outcome is Outcome.DUPLICATE


def _off_family(inst, i, j):
    """B with cluster i's partner replaced: by cluster j's value when j
    differs from i, else by a value A does not hold."""
    a = inst.a_values
    v = next(v for v in set(a) if a.count(v) == i)
    w = next(w for w in set(a) if a.count(w) == j) if j != i else max(a) + 1
    return SIInstance(a, tuple(w if x == v else x for x in inst.b_values))


def _split_big(inst, i):
    """A with one element of the big cluster moved to a fresh value: the
    strip keeps one index too many."""
    a = list(inst.a_values)
    a[a.index(0)] = max(a + list(inst.b_values)) + 1
    return SIInstance(tuple(a), inst.b_values)


def _merge_cluster(inst, i):
    """A with cluster i given the value of another type-1 cluster: no
    cluster of size i is left."""
    a = inst.a_values
    v, w = (next(v for v in set(a) if a.count(v) == k)
            for k in (i, 2 if i == 1 else 1))
    return SIInstance(tuple(w if x == v else x for x in a), inst.b_values)


# the off-family A sides reach the two give-ups before the B scan:
# the strip keeping the wrong count, and no single cluster of size i
@pytest.mark.parametrize("reshape", [_split_big, _merge_cluster])
@pytest.mark.parametrize("n,i", [(n, i) for n in SIZES
                                 for i in range(1, brute_cube_root(n) + 1)])
def test_off_family_a_sides_give_up_like_the_reference(n, i, reshape):
    inst = reshape(realize_si_family(n, i, seed=n + i), i)
    values = inst.a_values + inst.b_values
    got = run(si_clairvoyant_gen(n, inst.nb, i), values)
    assert got == run(brute_si_clairvoyant_gen(n, inst.nb, i), values)
    assert got[0] == (Outcome.GAVE_UP, None)
    rep = si_clairvoyant(inst.oracle(), n, inst.nb, i, n)
    assert (rep.outcome, rep.witness, rep.comparisons) == (*got[0],
                                                           len(got[1]))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.sampled_from(SIZES), partner_last=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1), off=st.booleans())
def test_drawn_instances_match_reference(data, n, partner_last, seed, off):
    s = brute_cube_root(n)
    i = data.draw(st.integers(1, s))
    inst = realize_si_family(n, i, seed=seed, partner_last=partner_last)
    if off:
        inst = _off_family(inst, i, data.draw(st.integers(1, s)))
    rep = _check(inst, i)
    assert rep.outcome is (Outcome.GAVE_UP if off else Outcome.DUPLICATE)
