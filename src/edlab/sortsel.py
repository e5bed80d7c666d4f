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
drives ``sort_spans_gen``.  ``select`` does the same for ``select_gen``,
through ``select_values``, which median recursion and SI clairvoyant
also use for their pivots.

Driver contract.  Every request is an ``(x, y)`` pair, and every
request a generator sends an oracle passes through one loop,
``drive_bounded``: ``drive`` is that loop with no budget.  The only
other loop is ``drive_with``, which answers from a bare three-way
callable (the halving scan's size comparisons).  A loop binds the
generator's ``send`` once per run and unpacks each request into two
arguments, so the per-comparison call is a plain two-argument call.
The oracle loop looks up ``oracle.compare`` afresh on every request,
though, and must keep doing so: a caller may swap
``CountingOracle.compare`` on the class in the middle of a run (the
benchmark's tracer does, to time the first comparison of a run), and
the swap has to reach the next request.  In instance mode no runner but
the oblivious scheduler issues a request: the span runners (block
sorting, prefix doubling, the SI joint sort), median recursion,
clairvoyant on both paths, preprocessed runs, selection and SI
clairvoyant are evaluated from the values, so the contract reaches them
only in adversary mode (``order_baseline`` still makes its one
confirming comparison).  Games, duel opponents and the oblivious
scheduler always go through the loop, and
``test_drivers_look_up_compare_per_request`` checks the contract there.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import compress
from operator import ne
from typing import Callable

from .core import Answer, CountingOracle, Outcome

LT, EQ, GT = Answer.LT, Answer.EQ, Answer.GT


def drive(gen, oracle: CountingOracle):
    """Run a comparison generator to completion against an oracle."""
    return drive_bounded(gen, oracle, math.inf)[0]


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


def drive_bounded(gen, oracle: CountingOracle, budget: float):
    """Advance ``gen`` for at most ``budget`` comparisons.

    ``budget`` may be ``math.inf``, which is how ``drive`` runs a
    generator to completion, so this is the one loop that feeds an
    oracle.  Returns (result, finished): result is the generator's
    return value when it finished within budget, else None.
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
    returns, with the same ``oracle.count`` and stats, on spans of
    distinct indices in 0..n-1.

    An adversary-mode oracle drives that generator.  On a realized
    instance each span is evaluated from the values instead, with no
    request, and its cost is added to ``oracle.count`` once it is known.
    There a span holding an index out of range or an index twice is
    refused with ValueError before any of its merges, and its cost is
    not charged; the generator refuses it only if a request reaches the
    bad index.
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


def check_indices(n: int, items) -> None:
    """Refuse ``items`` with ValueError unless its indices are distinct
    and in 0..n-1, naming the first index out of range or the first met
    a second time.  The value evaluators call this at entry, before they
    charge anything: a negative index would otherwise read a value from
    the end, where the oracle refuses it."""
    if not items:
        return
    # a range's ends are its extremes, and it holds no index twice: a
    # scan or a set of one would only cost time and memory
    is_range = isinstance(items, range)
    ends = (items[0], items[-1]) if is_range else items
    if min(ends) < 0 or max(ends) >= n:
        x = next(x for x in items if not 0 <= x < n)
        raise ValueError(f"index out of range: {x} with n={n}")
    if not is_range and len(set(items)) < len(items):
        seen = set()
        x = next(x for x in items if x in seen or seen.add(x))
        raise ValueError(f"comparison of an index with itself: {x}")


def _span_cost(vals, a, cross_at):
    """(comparisons, witness or None) of ``merge_sort_gen(a, cross_at)``
    when ``vals`` answers every request, for ``a`` a list of distinct
    indices in 0..len(vals)-1.

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

    Any other span is refused with ValueError before the first merge,
    naming the first index out of range or the first index met a second
    time.
    """
    check_indices(len(vals), a)
    if cross_at is not None:
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
            vx, vy = vals[x], vals[y]
            cost += 1
            if vx < vy:
                return [vx, vy]
            if vx > vy:
                return [vy, vx]
            if cross_at is None or (x < cross_at) != (y < cross_at):
                hit = (x, y)
                return None
            return [vx, vy]
        if hi - lo == 1:
            return [vals[a[lo]]]
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


# _PROBES[m][p]: the requests select_gen's binary insertion makes to
# place an item at position p of m sorted items (m < 5).  An item lands
# after every item it ties, as bisect_right places it.
_PROBES = ((0,), (1, 1), (2, 2, 1), (2, 2, 2, 2), (3, 3, 2, 2, 2))


def select_values(vals, items, k: int):
    """(index, requests) of ``drive(select_gen(items, k), oracle)`` when
    ``vals`` answers every request, for ``items`` a sequence of distinct
    indices in 0..len(vals)-1 and 1 <= k <= len(items).

    The same loop as ``select_gen``: each binary insertion lands where
    its probes would put it and is charged their number, and each
    partition keeps ``arr`` order in two passes that together stand for
    its len(arr) - 1 requests.
    """
    arr = items
    cost = 0
    waiting = []
    while True:
        n = len(arr)
        base = n <= 5
        picks = []
        for g in range(0, n if base else n - n % 5, 5):
            out, outv = [], []
            for x in arr[g : g + 5]:
                v = vals[x]
                p = bisect_right(outv, v)
                cost += _PROBES[len(outv)][p]
                out.insert(p, x)
                outv.insert(p, v)
            picks.append(out[k - 1] if base else out[2])
        if not base:
            waiting.append((arr, k))
            arr, k = picks, (len(picks) + 1) // 2
            continue
        found = picks[0]
        pv = vals[found]
        while waiting:
            arr, k = waiting.pop()
            cost += len(arr) - 1
            less = [it for it in arr if vals[it] < pv]
            if k <= len(less):
                arr = less
                break
            greater = [it for it in arr if vals[it] > pv]
            if k > len(arr) - len(greater):
                k -= len(arr) - len(greater)
                arr = greater
                break
        else:
            return found, cost


def select(oracle: CountingOracle, items, k: int):
    """What ``drive(select_gen(items, k), oracle)`` returns, with the
    same ``oracle.count``, for ``items`` a sequence of distinct indices
    in 0..n-1.

    An adversary-mode oracle drives that generator.  On a realized
    instance the selection is evaluated from the values by
    ``select_values``, with no request.  There a rank out of range is
    refused first, then an index out of range or an index twice, before
    anything is charged.
    """
    vals = oracle._values
    if vals is None:
        return drive(select_gen(items, k), oracle)
    if not 1 <= k <= len(items):
        raise ValueError(f"rank {k} out of range for {len(items)} items")
    check_indices(len(vals), items)
    found, cost = select_values(vals, items, k)
    oracle.count += cost
    return found
