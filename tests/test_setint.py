"""Bipartite intersection: family construction, doubling, clairvoyant runs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import (brute_bipartite_equal, brute_bipartite_pairs,
                        brute_bipartite_profile_of, brute_si_family_pairs)
from edlab.core import Outcome
from edlab.setint import (BipartiteProfile, SIInstance, bipartite_profile_of,
                          read_si_instance, realize_si_family, si_clairvoyant,
                          si_doubling, si_family, verify_bipartite,
                          write_si_instance)


def test_bipartite_profile_of_small():
    inst = SIInstance((1, 2), (2, 3))
    assert bipartite_profile_of(inst) == BipartiteProfile([(1, 0), (1, 1), (0, 1)])
    assert verify_bipartite(inst, BipartiteProfile([(0, 1), (1, 1), (1, 0)]))
    assert not verify_bipartite(inst, BipartiteProfile([(2, 2)]))


def test_bipartite_profile_validation():
    with pytest.raises(ValueError):
        BipartiteProfile([(0, 0)])
    with pytest.raises(ValueError):
        BipartiteProfile([(-1, 2)])


SHAPE = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
    lambda p: p != (0, 0))
# how a caller may spell one pair: every form int() reads the same
SPELLINGS = (tuple, list, lambda p: (float(p[0]), p[1]),
             lambda p: (str(p[0]), str(p[1])))


def _spelled(pairs, data):
    return [SPELLINGS[data.draw(st.integers(0, len(SPELLINGS) - 1))](p)
            for p in pairs]


def _raised(make, clusters):
    try:
        make(clusters)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(SHAPE, max_size=24), data=st.data())
def test_profile_equality_matches_reference(pairs, data):
    perm = data.draw(st.permutations(pairs))
    bumped = list(perm)
    if bumped:
        bumped[data.draw(st.integers(0, len(bumped) - 1))] = data.draw(SHAPE)
    prof = BipartiteProfile(_spelled(pairs, data))
    assert (prof.a_total, prof.b_total) == (sum(a for a, _ in pairs),
                                            sum(b for _, b in pairs))
    assert prof.clusters == sorted(pairs)
    for other in (perm, bumped):
        spelled = _spelled(other, data)
        same = BipartiteProfile(spelled) == prof
        assert same == brute_bipartite_equal(spelled, pairs)
        if same:
            assert hash(BipartiteProfile(spelled)) == hash(prof)


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(SHAPE, max_size=12), data=st.data(),
       # (1, 2.5) is accepted by both: int() truncates it
       bad=st.sampled_from([(0, 0), (-1, 2), (3, -1), ("x", 1), (1, 2.5)]))
def test_profile_rejects_like_reference(pairs, data, bad):
    spelled = _spelled(pairs, data)
    spelled.insert(data.draw(st.integers(0, len(spelled))), bad)
    if data.draw(st.booleans()):  # a bad sign and a bad size together
        spelled.insert(data.draw(st.integers(0, len(spelled))), [-2, 0])
    assert (_raised(BipartiteProfile, spelled)
            == _raised(brute_bipartite_pairs, spelled))


@settings(max_examples=200, deadline=None)
@given(a=st.lists(st.integers(0, 9), max_size=20),
       b=st.lists(st.integers(0, 9), max_size=20))
def test_bipartite_profile_of_matches_reference(a, b):
    prof = bipartite_profile_of(SIInstance(tuple(a), tuple(b)))
    assert prof.clusters == sorted(brute_bipartite_profile_of(a, b))
    assert (prof.a_total, prof.b_total) == (len(a), len(b))


def test_family_64_2():
    expected = BipartiteProfile([(1, 0), (2, 1), (3, 0), (4, 0)]
                                + [(0, 1)] * 63 + [(54, 0)])
    assert si_family(64, 2) == expected
    prof = si_family(64, 2)
    assert prof.a_total == prof.b_total == 64


def test_family_64_1():
    expected = BipartiteProfile([(1, 1), (2, 0), (3, 0), (4, 0)]
                                + [(0, 1)] * 63 + [(54, 0)])
    assert si_family(64, 1) == expected


def test_family_8_1():
    expected = BipartiteProfile([(1, 1), (2, 0)] + [(0, 1)] * 7 + [(5, 0)])
    assert si_family(8, 1) == expected


def test_family_domain_errors():
    with pytest.raises(ValueError):
        si_family(16, 1)  # not a cube of a power of two
    with pytest.raises(ValueError):
        si_family(27, 1)
    with pytest.raises(ValueError):
        si_family(64, 0)
    with pytest.raises(ValueError):
        si_family(64, 5)


def test_family_totals_all_i():
    for n in (8, 64, 512):
        s = round(n ** (1 / 3))
        for i in range(1, s + 1):
            prof = si_family(n, i)
            assert prof.a_total == n and prof.b_total == n
            both = [c for c in prof.clusters if c[0] > 0 and c[1] > 0]
            assert len(both) == 1 and both[0] == (i, 1)


def test_family_matches_reference_pairs():
    for n in (8, 64, 512, 4096):
        s = round(n ** (1 / 3))
        for i in range(1, s + 1):
            assert brute_bipartite_equal(si_family(n, i).clusters,
                                         brute_si_family_pairs(n, i))
        inst = realize_si_family(n, s, seed=n)
        assert brute_bipartite_equal(
            brute_bipartite_profile_of(inst.a_values, inst.b_values),
            brute_si_family_pairs(n, s))
        assert not brute_bipartite_equal(si_family(n, 1).clusters,
                                         brute_si_family_pairs(n, s))


def test_realize_family_matches_profile():
    for n, i in ((8, 1), (8, 2), (64, 3)):
        inst = realize_si_family(n, i, seed=4)
        assert verify_bipartite(inst, si_family(n, i))
        assert min(inst.a_values) == 0  # big cluster sits at the bottom


def test_doubling_trivial_intersection():
    inst = SIInstance((1,), (1,))
    rep = si_doubling(inst.oracle(), 1, 1)
    assert rep.outcome is Outcome.DUPLICATE
    assert rep.comparisons == 1
    assert rep.witness == (0, 1)


def test_doubling_disjoint_n4():
    inst = SIInstance((0, 2, 4, 6), (1, 3, 5, 7))
    rep = si_doubling(inst.oracle(), 4, 4)
    assert rep.outcome is Outcome.DISTINCT
    assert rep.witness is None


def test_doubling_ignores_same_side_ties():
    inst = SIInstance((5, 5), (3, 7))
    rep = si_doubling(inst.oracle(), 2, 2)
    assert rep.outcome is Outcome.DISTINCT


@settings(max_examples=60, deadline=None)
@given(na=st.integers(1, 24), nb=st.integers(1, 24),
       seed=st.integers(0, 10**6))
def test_doubling_never_misses_cross_pair(na, nb, seed):
    rng = random.Random(seed)
    a = [rng.randrange(12) for _ in range(na)]
    b = [rng.randrange(12) for _ in range(nb)]
    inst = SIInstance(tuple(a), tuple(b))
    rep = si_doubling(inst.oracle(), na, nb)
    crossing = set(a) & set(b)
    if crossing:
        assert rep.outcome is Outcome.DUPLICATE
        wa, wb = rep.witness
        assert wa < na <= wb
        assert a[wa] == b[wb - na]
    else:
        assert rep.outcome is Outcome.DISTINCT


def test_clairvoyant_canonical_runs():
    for n, i in ((8, 1), (64, 2)):
        inst = realize_si_family(n, i, seed=9)
        rep = si_clairvoyant(inst.oracle(), n, n, i, n)
        assert rep.outcome is Outcome.DUPLICATE
        wa, wb = rep.witness
        assert inst.a_values[wa] == inst.b_values[wb - n]
        assert rep.comparisons <= 6.0 * n


def test_clairvoyant_partner_placed_last():
    n, i = 64, 4
    inst = realize_si_family(n, i, seed=2, partner_last=True)
    assert inst.b_values[-1] in inst.a_values
    rep = si_clairvoyant(inst.oracle(), n, n, i, n)
    assert rep.outcome is Outcome.DUPLICATE
    assert rep.comparisons <= 6.0 * n


def test_clairvoyant_wrong_i_gives_up():
    inst = realize_si_family(64, 2, seed=0)
    rep = si_clairvoyant(inst.oracle(), 64, 64, 3, 64)
    assert rep.outcome is Outcome.GAVE_UP
    assert rep.witness is None


def test_clairvoyant_rejects_non_family_shape():
    inst = SIInstance((1, 2, 3), (1, 2, 3))
    with pytest.raises(ValueError):
        si_clairvoyant(inst.oracle(), 3, 3, 1, 3)


def test_clairvoyant_refuses_a_cube_outside_the_family():
    # 27 = 3^3, but the family needs n = 2^(3t)
    inst = SIInstance(tuple(range(27)), (0,))
    with pytest.raises(ValueError, match=r"^n must be 2\*\*\(3t\)"):
        si_clairvoyant(inst.oracle(), 27, 1, 1, 27)


def test_si_instance_file_round_trip(tmp_path):
    inst = realize_si_family(8, 2, seed=5)
    path = tmp_path / "si.inst"
    write_si_instance(path, inst)
    assert read_si_instance(path) == inst


@pytest.mark.parametrize("text,line,header", [
    ("A:\n1\nB:\n2\nA:\n2\n", 5, "A:"),
    ("A:\n1\nB:\n2\n\nB:\n3\n", 6, "B:"),
    ("A:\nA:\n1\nB:\n1\n", 2, "A:"),
])
def test_read_si_instance_rejects_repeated_header(tmp_path, text, line,
                                                   header):
    path = tmp_path / "twice.si"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        read_si_instance(path)
    assert str(exc.value) == f"{path}:{line}: repeated section header {header}"
