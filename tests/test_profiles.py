"""Profile step functions, parameter selection, and budget arithmetic."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bruteforce import (brute_approx_L2_scan, brute_cd,
                        brute_lower_bound_block,
                        brute_lower_bound_combined, brute_lower_bound_median,
                        brute_reduction_budget, brute_select_L1,
                        brute_select_L2)
from edlab.harness import (cmd_profile_bounds, cmd_profile_stats,
                           random_multicluster_profile, random_profile)
from edlab.profiles import (ClusterProfile, approx_L2_scan,
                            check_linear_subset, derive_reduced,
                            lower_bound_block, lower_bound_combined,
                            lower_bound_median, read_profile,
                            reduction_budget, select_L1, select_L2,
                            write_profile)

profiles = st.lists(st.integers(min_value=1, max_value=12), min_size=1,
                    max_size=20).map(ClusterProfile)


def test_profile_validation():
    with pytest.raises(ValueError):
        ClusterProfile([])
    with pytest.raises(ValueError):
        ClusterProfile([2, 0])


def test_cd_step_values():
    p = ClusterProfile([3, 1, 1, 1])
    assert (p.c(1), p.d(1)) == (0, 4)
    assert (p.c(2), p.d(2)) == (3, 1)
    assert (p.c(4), p.d(4)) == (6, 0)


def test_piece_starts():
    p = ClusterProfile([3, 1, 1, 1])
    assert p.piece_starts() == [1, 2, 4]
    assert ClusterProfile([5]).piece_starts() == [1, 6]


@given(p=profiles)
def test_cd_against_full_scan(p):
    for L in range(1, p.n + 2):
        assert (p.c(L), p.d(L)) == brute_cd(p.sizes, L)


@given(p=profiles)
def test_breakpoint_identity(p):
    # C only grows where clusters of exactly size L drop below the cut
    for L in range(1, p.max_size() + 1):
        bump = L * sum(1 for s in p.sizes if s == L)
        assert p.c(L + 1) - p.c(L) == bump


@given(p=profiles)
def test_cd_edge_values(p):
    assert p.d(1) == p.m
    assert p.c(p.max_size() + 1) == p.n
    assert p.c(1) == 0


@given(p=profiles)
# the log term clamps to zero exactly at a piece's lo2 or hi2: bound1
# at L = C, the median bound at L = ceil(C/2); then the edge cases with
# no piece at all and with a single piece
@example(p=ClusterProfile([1, 1, 3]))           # bound1 at lo2
@example(p=ClusterProfile([1, 1, 1, 1, 4]))     # bound1 at hi2, median at lo2
@example(p=ClusterProfile([1] * 8 + [4]))       # median at hi2
@example(p=ClusterProfile([1] * 5))
@example(p=ClusterProfile([7]))
def test_piece_scan_equals_full_scan(p):
    assert select_L1(p) == brute_select_L1(p.sizes)
    L2, bound2 = select_L2(p)
    assert (L2, bound2) == brute_select_L2(p.sizes)
    # harness.bounds_row block-sorts at this cut with k = 2*D(L2) unguarded
    C2, D2 = p.c(L2), p.d(L2)
    assert 2 * C2 < p.n
    assert D2 >= 1
    assert bound2 >= 1
    assert lower_bound_median(p) == brute_lower_bound_median(p.sizes)
    assert lower_bound_block(p) == brute_lower_bound_block(p.sizes)
    assert lower_bound_combined(p) == brute_lower_bound_combined(p.sizes)


def test_select_L1_pinned_values():
    assert select_L1(ClusterProfile([3, 1, 1, 1])) == (3, 6.0)
    assert select_L1(ClusterProfile([2] + [1] * 16)) == (2, 66.0)
    assert select_L1(ClusterProfile([6])) == (2, 6.0)
    assert select_L1(ClusterProfile([1, 1, 1])) is None


def test_select_L2_pinned_values():
    assert select_L2(ClusterProfile([3, 1, 1, 1])) == (1, 8.0)
    assert select_L2(ClusterProfile([8])) == (1, 1.0)
    L, val = select_L2(ClusterProfile([2] + [1] * 16))
    assert L == 1 and val == 17 * math.log2(17)


def test_lower_bound_pinned_values():
    assert lower_bound_median(ClusterProfile([3, 3])) == 0.0
    assert lower_bound_median(ClusterProfile([2] + [1] * 16)) == 8.0
    assert lower_bound_median(ClusterProfile([1] * 9)) == 0.0
    assert lower_bound_block(ClusterProfile([8])) == 0.001
    assert lower_bound_block(ClusterProfile([3, 1, 1, 1])) == 0.006
    assert lower_bound_block(ClusterProfile([2] + [1] * 16)) == 0.001 * 18
    assert lower_bound_combined(ClusterProfile([8])) == 0.001
    assert lower_bound_combined(ClusterProfile([3, 1, 1, 1])) == 0.006


# profiles with and without an L1 candidate, and with a zero median bound
ROW_PROFILES = ([3, 1, 1, 1], [1] * 9, [8], [2] + [1] * 16, [5, 5, 2, 1])


def test_lower_bounds_bundle():
    for sizes in ROW_PROFILES:
        p = ClusterProfile(sizes)
        _, [row], _ = cmd_profile_bounds(p)
        assert row == [f"{lower_bound_median(p):.6f}",
                       f"{lower_bound_block(p):.6f}",
                       f"{lower_bound_combined(p):.6f}"]


def test_approx_L2_trivial_profile():
    p = ClusterProfile([8])
    t, obj, count = approx_L2_scan(p)
    assert (t, obj, count) == (8, 1.0, 0)


@st.composite
def scan_profiles(draw):
    """Small hand-sized profiles, or the finders families up to n = 600."""
    if draw(st.booleans()):
        return draw(profiles)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 600))
    family = draw(st.sampled_from([random_profile,
                                   random_multicluster_profile]))
    return ClusterProfile(family(rng, n, draw(st.integers(0, 3))))


@settings(max_examples=300, deadline=None)
@given(p=scan_profiles())
@example(p=ClusterProfile([7]))              # m = 1
@example(p=ClusterProfile([4] * 9))          # all sizes equal
@example(p=ClusterProfile([1] * 12))         # all singletons
@example(p=ClusterProfile([5, 3]))           # two clusters
@example(p=ClusterProfile([1, 9]))
def test_approx_L2_scan_matches_reference(p):
    assert approx_L2_scan(p) == brute_approx_L2_scan(p.sizes)


@given(p=profiles)
def test_approx_L2_within_factor_three(p):
    _, opt = brute_select_L2(p.sizes)
    t, obj, count = approx_L2_scan(p)
    assert 2 * p.c(t) < p.n  # feasibility of the returned cut
    assert p.d(t) >= 1  # so bound2_value never sees D = 0
    vt = (p.c(t) + p.d(t)) * max(1.0, math.log2(p.d(t)))
    assert obj == vt
    assert obj <= 3 * opt
    assert count <= 30 * p.m + 10


def test_derive_reduced_examples():
    r = derive_reduced(ClusterProfile([4, 2, 2]))
    assert (sorted(r.sizes), r.n) == ([2, 2], 4)
    r = derive_reduced(ClusterProfile([5, 1, 1, 1]))
    assert (sorted(r.sizes), r.n) == ([1, 1, 1], 3)
    r = derive_reduced(ClusterProfile([4, 4, 4, 4]))
    assert (sorted(r.sizes), r.n) == ([4, 4, 4], 12)
    with pytest.raises(ValueError):
        derive_reduced(ClusterProfile([7]))


@given(p=profiles)
def test_derive_reduced_invariants(p):
    if p.m < 2:
        return
    r = derive_reduced(p)
    # deletions go largest-first: the kept clusters are the r.m smallest
    by_size = sorted(p.sizes)
    assert sorted(r.sizes) == by_size[:r.m]
    # and stop at the first deletion that leaves at most 3/4 of n
    assert 4 * r.n <= 3 * p.n
    assert 4 * (r.n + by_size[r.m]) > 3 * p.n


@given(p=profiles)
def test_reduction_budget_matches_full_scan(p):
    if p.m < 2:
        return
    assert reduction_budget(p) == brute_reduction_budget(list(p.sizes))


def test_check_linear_subset_examples():
    assert check_linear_subset(ClusterProfile([4, 2, 2]))
    assert check_linear_subset(ClusterProfile([2, 2]))
    with pytest.raises(ValueError):
        check_linear_subset(ClusterProfile([9]))


def test_selection_bundle_is_coherent():
    for sizes in ROW_PROFILES:
        p = ClusterProfile(sizes)
        _, [row], _ = cmd_profile_stats(p)
        sel1 = select_L1(p)
        L1, bound1 = (sel1[0], f"{sel1[1]:.3f}") if sel1 else ("", "")
        L2, bound2 = select_L2(p)
        t, obj, _ = approx_L2_scan(p)
        assert row == [p.n, p.m, p.max_size(), L1, bound1,
                       L2, f"{bound2:.3f}", t, f"{obj:.3f}"]


def test_profile_file_round_trip(tmp_path):
    p = ClusterProfile([4, 1, 3, 1])
    path = tmp_path / "prof"
    write_profile(path, p)
    q = read_profile(path)
    assert q.sizes == p.sizes and q == p


def test_profile_equality_is_by_multiset():
    assert ClusterProfile([2, 1, 3]) == ClusterProfile([3, 2, 1])
    assert hash(ClusterProfile([2, 1, 3])) == hash(ClusterProfile([3, 2, 1]))
    assert ClusterProfile([2, 2]) != ClusterProfile([4])
