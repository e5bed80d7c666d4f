"""Cluster profiles: step functions, parameter selection, lower bounds.

A profile is the multiset of duplicate-cluster sizes of an input, i.e.
its duplicate graph up to isomorphism.  Everything downstream is driven
by the two step functions

    C(L) = total number of elements in clusters of size < L
    D(L) = number of clusters of size >= L

which only change at L = s+1 for sizes s present in the profile, so all
minimizations scan piece representatives instead of every L.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate
from typing import Optional

from .core import read_int_lines, write_lines
from .sortsel import EQ, GT, LT, drive_with, select_gen


class ClusterProfile:
    """Multiset of cluster sizes with O(log m) C/D evaluation."""

    def __init__(self, sizes):
        sizes = tuple(map(int, sizes))
        if not sizes:
            raise ValueError("profile needs at least one cluster")
        if min(sizes) < 1:
            raise ValueError("cluster sizes must be >= 1")
        self.sizes = sizes
        self.m = len(sizes)
        self.n = sum(sizes)
        self._sorted = sorted(sizes)
        self._prefix = list(accumulate(self._sorted, initial=0))

    def c(self, L: int) -> int:
        """Total size of clusters strictly smaller than L."""
        return self._prefix[bisect_left(self._sorted, L)]

    def d(self, L: int) -> int:
        """Number of clusters of size at least L."""
        return self.m - bisect_left(self._sorted, L)

    def max_size(self) -> int:
        return self._sorted[-1]

    def piece_starts(self) -> list[int]:
        """Left endpoints of the constancy pieces of C and D."""
        starts = [1]
        for s in sorted(set(self._sorted)):
            starts.append(s + 1)
        return starts

    def __repr__(self):
        return f"ClusterProfile({list(self.sizes)})"

    def __eq__(self, other):
        return isinstance(other, ClusterProfile) and self._sorted == other._sorted

    def __hash__(self):
        return hash(tuple(self._sorted))


# --- objective terms -------------------------------------------------------
# These exact float expressions are part of the contract: tests compare
# them against brute-force scans bit for bit.

def bound1_value(n: int, C: int, L: int) -> float:
    """n + C(L)*log2(C(L)/L), with the C = 0 and C <= L cases clamped to n."""
    if C == 0:
        return float(n)
    return n + C * max(0.0, math.log2(C / L))


def bound2_value(C: int, D: int) -> float:
    """(C(L)+D(L)) * max(1, log2 D(L)).  Callers skip every L with
    cap*C(L) >= n, so some cluster has size >= L and D(L) >= 1."""
    return (C + D) * max(1.0, math.log2(D))


def median_bound_value(C: int, L: int) -> float:
    """(1/4)*C(L)*log2(C(L)/(2L)), clamped at zero."""
    if C == 0:
        return 0.0
    return 0.25 * C * max(0.0, math.log2(C / (2 * L)))


def _clamped_candidates(profile: ClusterProfile, clamp: int):
    """Piece representatives (C, L) for minimizing C*log2(C/(clamp*L))
    over 2 <= L <= max size, which are the L >= 2 with C(L) < n.

    Within a piece C is constant and the term is non-increasing in L, so
    the piece minimum sits at the right end, or at L = ceil(C/clamp)
    where the log clamps to zero; ties must resolve to the smallest L,
    matching a full scan.  The last piece starts past the largest size,
    where C = n, so it is never walked.
    """
    starts = profile.piece_starts()
    for lo, nxt in zip(starts, starts[1:]):
        lo2, hi2 = max(lo, 2), nxt - 1
        if lo2 > hi2:
            continue
        C = profile.c(lo2)
        zero = -(-C // clamp)  # first L with C <= clamp*L
        if zero <= lo2:
            yield C, lo2
        else:
            yield C, hi2
            if zero <= hi2:
                yield C, zero


def select_L1(profile: ClusterProfile) -> Optional[tuple[int, float]]:
    """argmin over {L >= 2 : C(L) < n} of n + C(L)*log2(C(L)/L).

    Returns (L1, bound1) or None when no L >= 2 has C(L) < n (the
    all-singleton case).  Ties go to the smaller L.
    """
    n = profile.n
    best = None
    for C, L in _clamped_candidates(profile, 1):
        val = bound1_value(n, C, L)
        if best is None or val < best[1] or (val == best[1] and L < best[0]):
            best = (L, val)
    return best


def _bound2_min(profile: ClusterProfile, cap: int,
                candidates) -> tuple[int, float]:
    """argmin over the candidate L with cap*C(L) < n of (C+D)*max(1, log2 D).

    Candidates are tried in order and ties resolve to the earlier one;
    D is computed only for feasible L.  Given piece_starts(), this is the
    minimum over every L >= 1, since the objective is constant on pieces
    and L = 1 always qualifies.
    """
    n = profile.n
    best = None
    for L in candidates:
        C = profile.c(L)
        if cap * C >= n:
            continue
        val = bound2_value(C, profile.d(L))
        if best is None or val < best[1]:
            best = (L, val)
    return best


def select_L2(profile: ClusterProfile) -> tuple[int, float]:
    """argmin over {L >= 1 : 2*C(L) < n} of (C+D)*max(1, log2 D)."""
    return _bound2_min(profile, 2, profile.piece_starts())


def approx_L2_scan(profile: ClusterProfile) -> tuple[int, float, int]:
    """Linear-time approximation of select_L2 from cluster sizes alone.

    Starts from the minimum size, then repeatedly selects the median of
    the surviving sizes and keeps the upper half, ties in their order.
    Each of these sizes is a candidate L, and _bound2_min picks the best
    feasible one from the profile's C and D.  Returns (L2_approx,
    objective, size_comparisons); the objective is within a small
    constant factor (3x on the tested families) of select_L2's.  The
    count is linear in m: m - 1 for the minimum, then per halving of r
    sizes the select's comparisons and r - 1 for the partition.
    """
    sizes = profile.sizes
    counter = [profile.m - 1]

    def cmp3(i, j):
        counter[0] += 1
        a, b = sizes[i], sizes[j]
        return LT if a < b else GT if a > b else EQ

    cur = range(profile.m)
    candidates = [min(sizes)]
    while len(cur) > 1:
        r = len(cur)
        u = (r + 1) // 2
        v = sizes[drive_with(select_gen(cur, r - u + 1), cmp3)]
        counter[0] += r - 1
        greater = [t for t in cur if sizes[t] > v]
        cur = greater + [t for t in cur if sizes[t] == v][:u - len(greater)]
        candidates.append(v)
    L, val = _bound2_min(profile, 2, candidates)
    return L, val, counter[0]


def derive_reduced(profile: ClusterProfile) -> ClusterProfile:
    """Delete maximum clusters until at most 3/4 of the vertices remain.

    Returns the reduced profile: the clusters left after deleting the
    largest ones, by decreasing size, until 4n' <= 3n.  It is never
    empty because no single cluster can hold more than half of the
    remaining vertices at the time it becomes the only one left.
    """
    if profile.m < 2:
        raise ValueError("reduction needs at least two clusters")
    remaining = sorted(profile.sizes, reverse=True)
    n = profile.n
    n_cur, k = n, 0
    while 4 * n_cur > 3 * n:
        n_cur -= remaining[k]
        k += 1
    return ClusterProfile(remaining[k:])


def lower_bound_median(profile: ClusterProfile) -> float:
    """(1/4) * min over {L >= 2 : C(L) < n} of C(L)*log2(C(L)/(2L)).

    Zero when the candidate set is empty or the log term clamps away.
    Rounds below this budget leave Median Recursion without a duplicate
    on some isomorphic instance.
    """
    return min((median_bound_value(C, L)
                for C, L in _clamped_candidates(profile, 2)), default=0.0)


def lower_bound_block(profile: ClusterProfile) -> float:
    """(1/1000) * min(n, min over {L >= 1 : 2C < n} of (C+D)*max(1, log2 D))."""
    _, b2 = select_L2(profile)
    return 0.001 * min(float(profile.n), b2)


def lower_bound_combined(profile: ClusterProfile) -> float:
    """(1/1000) * min of the median-style and block-style budgets."""
    sel1 = select_L1(profile)
    term1 = sel1[1] if sel1 is not None else math.inf
    _, term2 = select_L2(profile)
    return 0.001 * min(term1, term2)


def reduction_budget(profile: ClusterProfile) -> float:
    """min(n'/8, (1/32)*min_{C'(L)<n'} (C'+D')*max(1,log2 D')) over the
    reduced profile G' of derive_reduced, with n' its vertex count."""
    reduced = derive_reduced(profile)
    return min(reduced.n / 8.0,
               _bound2_min(reduced, 1, reduced.piece_starts())[1] / 32.0)


def check_linear_subset(profile: ClusterProfile) -> bool:
    """Verify the reduction inequality tying G' budgets back to G.

    reduction_budget(G) >= (1/1000)*min(n, min_{2C<n} (C+D)*max(1,log2 D))

    holds for every profile with at least two clusters; a False here
    means a bug, and the harness treats it as such.
    """
    return reduction_budget(profile) >= lower_bound_block(profile)


# --- profile file format: one decimal cluster size per line ---------------

def write_profile(path, profile: ClusterProfile) -> None:
    write_lines(path, profile.sizes)


def read_profile(path) -> ClusterProfile:
    rows = read_int_lines(path)
    for no, s in rows:
        if s < 1:
            raise ValueError(f"{path}:{no}: cluster sizes must be >= 1")
    return ClusterProfile(s for _, s in rows)
