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
and SI clairvoyant selects its pivot through it.  ``select`` gives item
p of its n0 items the distinct integer key value * n0 + p, whose order
is ``select_gen``'s (ties go by position), and ``select_keys`` runs the
selection on the keys, one level of quintets at a time, each ordered
and charged by straight-line compares.
Median recursion keys its items once and selects every pivot with
``select_keys``.  ``sort_spans`` is the runner of all three span sorts
and returns the run's ``RunReport``.

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
from operator import lt
from typing import Callable

from .core import Answer, CountingOracle, Outcome, RunReport

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


def sort_spans(oracle: CountingOracle, spans, end, cross_at=None,
               stats=None) -> RunReport:
    """The report of ``sort_spans_gen(spans, end, cross_at, stats)``:
    the runner of every span sort, for element distinctness and, with
    ``cross_at``, set intersection.  Its comparisons are the growth of
    ``oracle.count`` during the call, on spans of distinct indices in
    0..n-1.

    An adversary-mode oracle drives that generator.  On a realized
    instance each span is evaluated from the values instead, with no
    request, reusing the sorted runs that earlier spans of the call
    share with it, and its cost is added to ``oracle.count`` once it is
    known.
    There a span holding an index out of range or an index twice is
    refused with ValueError before any of its merges, and its cost is
    not charged; the generator refuses it only if a request reaches the
    bad index.
    """
    start = oracle.count
    vals = oracle._values
    if vals is None:
        outcome, witness = drive(sort_spans_gen(spans, end, cross_at, stats),
                                 oracle)
    else:
        outcome, witness = end, None
        memo = {}
        for iters, span in enumerate(spans, 1):
            if stats is not None:
                stats["iterations"] = iters
            cost, hit = _span_cost(vals, list(span), cross_at, memo)
            oracle.count += cost
            if hit is not None:
                outcome, witness = Outcome.DUPLICATE, hit
                break
    return RunReport(outcome, witness, oracle.count - start,
                     stats=stats or {})


def check_indices(n: int, items) -> None:
    """Refuse ``items`` with ValueError unless its indices are distinct
    and in 0..n-1, naming the first index out of range or the first met
    a second time.  The value evaluators call this at entry, before they
    charge anything (the span evaluator skips it for a strictly
    ascending span whose ends are in range): a negative index would
    otherwise read a value from the end, where the oracle refuses it."""
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


# A subtree whose indices are a contiguous ascending run sorts the same
# way in every span that holds it, so sort_spans keeps (cost, sorted
# values) of such runs of at least _MEMO_MIN items, met in the top
# _MEMO_DEPTH levels of a span: prefix 2k's halves are then prefix k's.
_MEMO_MIN = 64
_MEMO_DEPTH = 3


def _span_cost(vals, a, cross_at, memo):
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
    a witness ends the sort.  With ``cross_at``, a subtree of an
    ascending span whose items all lie on one side of it holds no
    witness and is sorted without looking for one; in any other span
    each EQ is tested.

    ``memo`` maps (first index, length) of a contiguous ascending run to
    its (cost, sorted values), for runs sorted clean by earlier calls
    with the same ``vals`` and ``cross_at``; this call adds its own.
    The lists in it are never changed.

    A span that is not such a list is refused with ValueError before
    the first merge, naming the first index out of range or the first
    index met a second time.  A strictly ascending span is checked by
    its two ends.
    """
    ascending = all(map(lt, a, a[1:]))
    if not (ascending and a and 0 <= a[0] and a[-1] < len(vals)):
        check_indices(len(vals), a)
    # an ascending span's items below cross_at are a[:turn], so a[lo:hi]
    # holds both sides only when lo < turn < hi
    turn = (bisect_left(a, cross_at)
            if cross_at is not None and ascending else None)
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

    def run(lo, hi, depth):
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
        clean = turn is not None and not lo < turn < hi
        key = None
        if (depth < _MEMO_DEPTH and ascending and hi - lo >= _MEMO_MIN
                and a[hi - 1] - a[lo] == hi - lo - 1):
            key = (a[lo], hi - lo)
            if key in memo:
                c, S = memo[key]
                cost += c
                return S
            before = cost
        mid = (lo + hi) // 2
        if clean and depth >= _MEMO_DEPTH - 1:
            L = lean(lo, mid)
            R = lean(mid, hi)
        else:
            L = run(lo, mid, depth + 1)
            if L is None:
                return None
            R = run(mid, hi, depth + 1)
            if R is None:
                return None
        if (not clean and not set(L).isdisjoint(R)
                and stop(lo, mid, hi, L, R)):
            return None
        if L[-1] <= R[-1]:
            cost += len(L) + bisect_left(R, L[-1])
        else:
            cost += len(R) + bisect_right(L, R[-1])
        # a child above depth _MEMO_DEPTH may have come from or gone
        # into the memo, whose lists stay unchanged
        if depth < _MEMO_DEPTH - 1:
            L = L + R
        else:
            L += R
        L.sort()
        if key is not None:
            memo[key] = (cost - before, L)
        return L

    def lean(lo, hi):
        # sorted values of a[lo:hi], which holds no witness
        nonlocal cost
        if hi - lo == 2:
            vx, vy = vals[a[lo]], vals[a[lo + 1]]
            cost += 1
            return [vx, vy] if vx <= vy else [vy, vx]
        if hi - lo == 1:
            return [vals[a[lo]]]
        mid = (lo + hi) // 2
        L = lean(lo, mid)
        R = lean(mid, hi)
        if L[-1] <= R[-1]:
            cost += len(L) + bisect_left(R, L[-1])
        else:
            cost += len(R) + bisect_right(L, R[-1])
        L += R
        L.sort()
        return L

    if len(a) >= 2:
        run(0, len(a), 0)
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


def select_keys(keys, k: int, n0: int):
    """(key, requests) of ``select_gen`` run on ``keys`` with each
    request answered by comparing key // n0: the k-th smallest key, and
    what selecting it costs.  ``keys`` is a list of distinct integers
    value * n0 + p with 0 <= p < n0, where p rises along the list, so
    the keys' order is ``select_gen``'s: ties go by position.

    The same loop as ``select_gen``, one level at a time.  Each complete
    quintet a, b, c, d, e is ordered by straight-line compares: order
    the pairs (a, b) and (c, d); f = max(a, c) and g = min(b, d) are the
    middle two of a..d, and the median of five is the median of f, g and
    e.  Binary insertion would charge the quintet 0 + 1 + (2 or 1) + 2 +
    (3 or 2) requests, that is 8 - [c > max(a, b)] - [e > min(f, g)],
    where min(f, g) is the second smallest of a..d.  A base case of at
    most 5 keys is placed by binary insertion and charged ``_PROBES``.
    Each partition keeps ``arr`` order in two key-range passes that
    together stand for its len(arr) - 1 requests: the keys whose value
    is below the pivot's are those below lo, the pivot's key rounded
    down to a multiple of n0, and those above it are from lo + n0 on.
    """
    arr = keys
    cost = 0
    waiting = []
    while True:
        if len(arr) > 5:
            picks = []
            pick = picks.append
            # five turns of one iterator: consecutive quintets, and the
            # trailing partial group is left out
            it = iter(arr)
            for a, b, c, d, e in zip(it, it, it, it, it):
                if a > b:
                    a, b = b, a
                cost += 8 - (c > b)
                if c > d:
                    c, d = d, c
                # f and g, in order, take the places of a and b
                if c > a:
                    a = c
                if d < b:
                    b = d
                if a > b:
                    a, b = b, a
                if e > a:
                    cost -= 1
                    pick(e if e < b else b)
                else:
                    pick(a)
            waiting.append((arr, k))
            arr, k = picks, (len(picks) + 1) // 2
            continue
        out = []
        for x in arr:
            p = bisect_right(out, x)
            cost += _PROBES[len(out)][p]
            out.insert(p, x)
        found = out[k - 1]
        lo = found - found % n0
        hi = lo + n0
        while waiting:
            arr, k = waiting.pop()
            cost += len(arr) - 1
            less = [x for x in arr if x < lo]
            if k <= len(less):
                arr = less
                break
            greater = [x for x in arr if x >= hi]
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
    instance the selection is evaluated from the values, with no
    request: item p of the n0 items gets the key vals[items[p]] * n0 + p,
    and ``select_keys`` selects among the keys (each list ``select_gen``
    builds keeps ``items`` order, so ties go by position there too).
    There a rank out of range is refused first, then an index out of
    range or an index twice, before anything is charged.
    """
    vals = oracle._values
    if vals is None:
        return drive(select_gen(items, k), oracle)
    if not 1 <= k <= len(items):
        raise ValueError(f"rank {k} out of range for {len(items)} items")
    check_indices(len(vals), items)
    n0 = len(items)
    key, cost = select_keys([vals[x] * n0 + p for p, x in enumerate(items)],
                            k, n0)
    oracle.count += cost
    return items[key % n0]
