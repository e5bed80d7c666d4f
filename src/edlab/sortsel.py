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

Block sorting, prefix doubling and the set-intersection joint sort make
one move: merge sort a run of indices and stop at the first witness, an
equality between any two indices when ``cross_at`` is None (element
distinctness), else between one below ``cross_at`` and one not (set
intersection, A first).  ``sort_spans_gen`` is that move; the three
runners only choose their spans and how a clean run ends.  On a realized
instance the move's cost and first witness are functions of the values,
so ``sort_spans`` computes them without a request; in adversary mode it
drives ``sort_spans_gen``.

Driver contract.  Every request is an ``(x, y)`` pair.  A driver binds
the generator's ``send`` once per run and unpacks each request into two
arguments, so the per-comparison call is a plain two-argument call.  It
looks up ``oracle.compare`` afresh on every request, though, and must
keep doing so: a caller may swap ``CountingOracle.compare`` on the class
in the middle of a run (the benchmark's tracer does, to time the first
comparison of a run), and the swap has to reach the next request.  The
span runners (block sorting, prefix doubling, the SI joint sort and
clairvoyant's block path) issue no request at all in instance mode, so
the contract reaches them only in adversary mode.  Games, duel opponents
and the oblivious scheduler always go through the drivers, and
``test_drivers_look_up_compare_per_request`` checks the contract there.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress
from operator import ne
from typing import Callable

from .core import Answer, CountingOracle, Outcome

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


def merge_sort_gen(items, cross_at=None):
    """Merge sort over index lists.

    An EQ answer on (x, y) is a witness when ``cross_at`` is None, or
    when exactly one of x and y is below ``cross_at``.  Other equalities
    are treated as "left first" and sorting continues, so the output is
    a stable total preorder.  Returns ('ok', sorted) or ('dup', x, y).

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
            elif ans is EQ and (cross_at is None
                                or (x < cross_at) != (y < cross_at)):
                return ("dup", x, y)
            else:
                a[k] = x
                k += 1
                i += 1
                if i == nl:
                    break
                x = left[i]
    return ("ok", a)


def sort_spans_gen(spans, end, cross_at=None, stats=None):
    """Merge sort each span of ``spans`` in turn, from scratch.

    ``cross_at`` is ``merge_sort_gen``'s witness rule.  Returns
    (Outcome.DUPLICATE, (x, y)) at the first witness, or (end, None)
    once the last span sorts clean.  stats["iterations"] counts the
    sorts started.  ``spans`` is any iterable of spans, each any
    iterable of indices; it is advanced only between sorts, so a
    request leaves from the merge's frame through this one.

    This is the reference for ``sort_spans``, and the form that games,
    duel opponents and the oblivious scheduler drive.
    """
    for iters, span in enumerate(spans, 1):
        if stats is not None:
            stats["iterations"] = iters
        res = yield from merge_sort_gen(span, cross_at)
        if res[0] == "dup":
            return Outcome.DUPLICATE, (res[1], res[2])
    return end, None


def sort_spans(oracle: CountingOracle, spans, end, cross_at=None, stats=None):
    """What ``drive(sort_spans_gen(spans, end, cross_at, stats), oracle)``
    returns, with the same ``oracle.count`` and stats.

    An adversary-mode oracle drives that generator.  On a realized
    instance each span is evaluated from the values instead, with no
    request, and its cost is added to ``oracle.count`` once it is known.
    """
    vals = oracle._values
    if vals is None:
        return drive(sort_spans_gen(spans, end, cross_at, stats), oracle)
    for iters, span in enumerate(spans, 1):
        if stats is not None:
            stats["iterations"] = iters
        cost, hit = _span_cost(vals, list(span), cross_at)
        oracle.count += cost
        if hit is not None:
            return Outcome.DUPLICATE, hit
    return end, None


def _span_cost(vals, a, cross_at):
    """(comparisons, witness or None) of ``merge_sort_gen(a, cross_at)``
    when ``vals`` answers every request.

    Each merge depends only on the sorted values of its two halves, so
    the recursion returns those, in the generator's post-order, and
    stops where the generator stops.  Ties go left first, so a clean
    merge of L and R places every item of the side whose maximum comes
    first, plus the other side's items that come before that maximum.
    Two equal items meet only at the merge that joins them: the shared
    values of L and R are met in ascending order, each as R's first
    item of that value against L's run of it in position order (the
    generator's merges are stable), and the first of those EQs that is
    a witness ends the sort.

    Bad indices raise ValueError, as ``compare`` would: one out of range
    when it is read, a repeated one when its copies meet.  Copies on one
    side of ``cross_at`` may meet at a merge whose ties are never
    inspected, so with ``cross_at`` a repeat is refused before any merge.
    """
    n = len(vals)
    if cross_at is not None:
        srt = sorted(a)
        for x, y in zip(srt, srt[1:]):
            if x == y:
                raise ValueError(f"comparison of an index with itself: {x}")
        # the positions p where a[p - 1] and a[p] lie on different sides
        # of cross_at: a merge of a[lo:hi] holds both sides when one of
        # them lies in lo+1..hi-1
        side = list(map(cross_at.__gt__, a))
        turns = list(compress(range(1, len(a)), map(ne, side, side[1:])))
    cost = 0
    hit = None

    def stop(lo, mid, hi, L, R):
        # charge and record the first witness among the values L and R
        # share; False when no EQ between them is a witness
        nonlocal cost, hit
        for v in sorted(set(L).intersection(R)):
            y = next(y for y in a[mid:hi] if vals[y] == v)
            t = 0
            for x in a[lo:mid]:
                if vals[x] != v:
                    continue
                t += 1
                if x == y:
                    raise ValueError(f"comparison of an index with itself: {x}")
                if cross_at is None or (x < cross_at) != (y < cross_at):
                    cost += bisect_left(L, v) + bisect_left(R, v) + t
                    hit = (x, y)
                    return True
        return False

    def run(lo, hi):
        # sorted values of a[lo:hi], or None once a witness is found
        nonlocal cost, hit
        if hi - lo == 2:
            x, y = a[lo], a[lo + 1]
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"index out of range: ({x}, {y}) with n={n}")
            vx, vy = vals[x], vals[y]
            cost += 1
            if vx < vy:
                return [vx, vy]
            if vx > vy:
                return [vy, vx]
            if x == y:
                raise ValueError(f"comparison of an index with itself: {x}")
            if cross_at is None or (x < cross_at) != (y < cross_at):
                hit = (x, y)
                return None
            return [vx, vy]
        if hi - lo == 1:
            x = a[lo]
            if not 0 <= x < n:
                raise ValueError(f"index out of range: {x} with n={n}")
            return [vals[x]]
        mid = (lo + hi) // 2
        L = run(lo, mid)
        if L is None:
            return None
        R = run(mid, hi)
        if R is None:
            return None
        if cross_at is None:
            may_stop = True
        else:
            t = bisect_right(turns, lo)
            may_stop = t < len(turns) and turns[t] < hi
        if may_stop and not set(L).isdisjoint(R) and stop(lo, mid, hi, L, R):
            return None
        if L[-1] <= R[-1]:
            cost += len(L) + bisect_left(R, L[-1])
        else:
            cost += len(R) + bisect_right(L, R[-1])
        L += R
        L.sort()
        return L

    if len(a) >= 2:
        run(0, len(a))
    return cost, hit


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
