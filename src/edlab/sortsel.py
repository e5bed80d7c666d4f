"""Comparison kernels written against a suspendable request protocol.

All sorting/selection routines here are generators that yield ``(x, y)``
index pairs and receive an Answer back.  One yield is exactly one
comparison, which is what lets the round-robin scheduler advance a
branch by a single comparison per turn, and lets adversary games cut an
opponent off after a fixed number of rounds.  Plain runners just drain
the generator against an oracle.

Merge sort and selection each run in one generator frame: their
recursion is kept on an explicit stack, so a request does not pass
through a ``yield from`` chain as deep as the recursion.  Both issue
exactly the requests, in the order, of the recursive forms.

Driver contract.  Every request is an ``(x, y)`` pair.  A driver binds
the generator's ``send`` once per run and unpacks each request into two
arguments, so the per-comparison call is a plain two-argument call.  It
looks up ``oracle.compare`` afresh on every request, though, and must
keep doing so: a caller may swap ``CountingOracle.compare`` on the class
in the middle of a run (the benchmark's tracer does, to time the first
comparison of a run), and the swap has to reach the next request.
"""

from __future__ import annotations

from typing import Callable

from .core import Answer, CountingOracle

LT, EQ, GT = Answer.LT, Answer.EQ, Answer.GT


def drive(gen, oracle: CountingOracle):
    """Run a comparison generator to completion against an oracle."""
    send = gen.send
    ans = None
    while True:
        try:
            x, y = send(ans)
        except StopIteration as stop:
            return stop.value
        ans = oracle.compare(x, y)


def drive_with(gen, cmp3: Callable[[int, int], Answer]):
    """Like drive() but against a bare three-way comparison callable."""
    send = gen.send
    ans = None
    while True:
        try:
            x, y = send(ans)
        except StopIteration as stop:
            return stop.value
        ans = cmp3(x, y)


def drive_bounded(gen, oracle: CountingOracle, budget: int):
    """Advance ``gen`` for at most ``budget`` comparisons.

    Returns (result, finished): result is the generator's return value
    when it finished within budget, else None.
    """
    send = gen.send
    ans = None
    used = 0
    while True:
        try:
            x, y = send(ans)
        except StopIteration as stop:
            return stop.value, True
        if used >= budget:
            return None, False
        ans = oracle.compare(x, y)
        used += 1


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

    Top-down: the halves split at n // 2 and each merge runs once both
    of its halves are sorted, in the order a recursive sort would run
    them.  The recursion lives on an explicit stack of [lo, hi) spans,
    so every request leaves from this one frame.  It sorts in place, so
    ``items``, any iterable of indices, is copied into a list of its own.
    """
    a = list(items)
    stack = [(0, len(a), False)]
    while stack:
        lo, hi, halves_sorted = stack.pop()
        if hi - lo <= 1:
            continue
        mid = (lo + hi) // 2
        if not halves_sorted:
            stack += ((lo, hi, True), (mid, hi, False), (lo, mid, False))
            continue
        # merge in place: the left half is copied out, the right half is
        # read where it lies, ahead of the write cursor k
        left = a[lo:mid]
        nl = mid - lo
        i, j, k = 0, mid, lo
        x, y = left[0], a[mid]
        while True:
            ans = yield (x, y)
            if ans is GT:
                a[k] = y
                k += 1
                j += 1
                if j == hi:
                    a[k:hi] = left[i:]
                    break
                y = a[j]
            elif ans is EQ and (witness is None or witness(x, y)):
                return ("dup", x, y)
            else:
                a[k] = x
                k += 1
                i += 1
                if i == nl:
                    break
                x = left[i]
    return ("ok", a)


def select_gen(items, k: int):
    """Median of medians, group size 5: index of the k-th smallest (1-based).

    Deterministic and linear; ties are resolved arbitrarily but stably,
    so with duplicates present any index of the k-th order statistic may
    come back.  Never treats EQ as special.

    One frame: the levels that wait for the median of their quintet
    medians as a pivot sit on a stack, and one binary insertion sort
    serves both the quintets and the base case of at most 5 items.
    ``items`` is a sequence (a list or a range) that is only measured,
    sliced and iterated, never modified, so it is used without a copy.
    """
    arr = items
    if not 1 <= k <= len(arr):
        raise ValueError(f"rank {k} out of range for {len(arr)} items")
    waiting = []  # (arr, k) of each level that waits for its pivot
    while True:
        n = len(arr)
        base = n <= 5
        # sort the whole base case, or each complete quintet: the pivot is
        # estimated from complete quintets only, and the trailing partial
        # group just takes part in the partition below
        picks = []
        for g in range(0, n if base else n - n % 5, 5):
            out = []
            for x in arr[g : g + 5]:
                lo, hi = 0, len(out)
                while lo < hi:
                    mid = (lo + hi) // 2
                    if (yield (x, out[mid])) is LT:
                        hi = mid
                    else:
                        lo = mid + 1
                out.insert(lo, x)
            picks.append(out[k - 1] if base else out[2])
        if not base:
            waiting.append((arr, k))
            arr, k = picks, (len(picks) + 1) // 2
            continue
        found = picks[0]
        # an answer is the pivot of the innermost waiting level, which
        # either narrows to one side and carries on or answers with it
        while waiting:
            arr, k = waiting.pop()
            less, greater = [], []
            equal = 1
            for it in arr:
                if it == found:
                    continue
                ans = yield (it, found)
                if ans is LT:
                    less.append(it)
                elif ans is GT:
                    greater.append(it)
                else:
                    equal += 1
            if k <= len(less):
                arr = less
                break
            if k > len(less) + equal:
                k -= len(less) + equal
                arr = greater
                break
        else:
            return found
