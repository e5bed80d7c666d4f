"""Comparison kernels written against a suspendable request protocol.

All sorting/selection routines here are generators that yield ``(x, y)``
index pairs and receive an Answer back.  One yield is exactly one
comparison, which is what lets the round-robin scheduler advance a
branch by a single comparison per turn, and lets adversary games cut an
opponent off after a fixed number of rounds.  Plain runners just drain
the generator against an oracle.
"""

from __future__ import annotations

from typing import Callable

from .core import Answer, CountingOracle

LT, EQ, GT = Answer.LT, Answer.EQ, Answer.GT


def drive(gen, oracle: CountingOracle):
    """Run a comparison generator to completion against an oracle."""
    ans = None
    while True:
        try:
            req = gen.send(ans)
        except StopIteration as stop:
            return stop.value
        ans = oracle.compare(*req)


def drive_with(gen, cmp3: Callable[[int, int], Answer]):
    """Like drive() but against a bare three-way comparison callable."""
    ans = None
    while True:
        try:
            req = gen.send(ans)
        except StopIteration as stop:
            return stop.value
        ans = cmp3(*req)


def drive_bounded(gen, oracle: CountingOracle, budget: int):
    """Advance ``gen`` for at most ``budget`` comparisons.

    Returns (result, finished): result is the generator's return value
    when it finished within budget, else None.
    """
    ans = None
    used = 0
    while True:
        try:
            req = gen.send(ans)
        except StopIteration as stop:
            return stop.value, True
        if used >= budget:
            return None, False
        ans = oracle.compare(*req)
        used += 1


def insertion_sort_gen(items):
    """Binary-insertion sort; ties keep insertion order.  Returns the list."""
    out = []
    for x in items:
        lo, hi = 0, len(out)
        while lo < hi:
            mid = (lo + hi) // 2
            ans = yield (x, out[mid])
            if ans is LT:
                hi = mid
            else:
                lo = mid + 1
        out.insert(lo, x)
    return out


def merge_sort_gen(items, witness=None):
    """Merge sort over index lists.

    ``witness(x, y)`` decides whether an EQ answer is a reportable
    duplicate; by default every equality is.  Non-witness equalities are
    treated as "left first" and sorting continues, so the output is a
    stable total preorder.  Returns ('ok', sorted) or ('dup', x, y).

    A block of size b costs at most b*ceil(log2 b) comparisons, and if
    two equal witness-eligible elements are present the sort always
    compares some such pair directly (they meet at the merge joining
    their two halves), so a clean run certifies distinctness.
    """
    items = list(items)
    n = len(items)
    if n <= 1:
        return ("ok", items)
    mid = n // 2
    left = yield from merge_sort_gen(items[:mid], witness)
    if left[0] == "dup":
        return left
    right = yield from merge_sort_gen(items[mid:], witness)
    if right[0] == "dup":
        return right
    lseq, rseq = left[1], right[1]
    out = []
    i = j = 0
    while i < len(lseq) and j < len(rseq):
        ans = yield (lseq[i], rseq[j])
        if ans is EQ and (witness is None or witness(lseq[i], rseq[j])):
            return ("dup", lseq[i], rseq[j])
        if ans is GT:
            out.append(rseq[j])
            j += 1
        else:
            out.append(lseq[i])
            i += 1
    out.extend(lseq[i:])
    out.extend(rseq[j:])
    return ("ok", out)


def select_gen(items, k: int):
    """Median of medians, group size 5: index of the k-th smallest (1-based).

    Deterministic and linear; ties are resolved arbitrarily but stably,
    so with duplicates present any index of the k-th order statistic may
    come back.  Never treats EQ as special.
    """
    arr = list(items)
    if not 1 <= k <= len(arr):
        raise ValueError(f"rank {k} out of range for {len(arr)} items")
    while True:
        n = len(arr)
        if n <= 5:
            srt = yield from insertion_sort_gen(arr)
            return srt[k - 1]
        # pivot estimated from complete quintets only; the trailing partial
        # group is never sorted, it just takes part in the partition below
        medians = []
        for g in range(0, n - n % 5, 5):
            grp = yield from insertion_sort_gen(arr[g : g + 5])
            medians.append(grp[2])
        pivot = yield from select_gen(medians, (len(medians) + 1) // 2)
        less, equal, greater = [], [pivot], []
        for it in arr:
            if it == pivot:
                continue
            ans = yield (it, pivot)
            if ans is LT:
                less.append(it)
            elif ans is GT:
                greater.append(it)
            else:
                equal.append(it)
        if k <= len(less):
            arr = less
        elif k <= len(less) + len(equal):
            return pivot
        else:
            k -= len(less) + len(equal)
            arr = greater
