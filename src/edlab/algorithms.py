"""Element-distinctness algorithms over the comparison oracle.

Every algorithm here is written as a request generator (see sortsel) and
wrapped by a small runner that produces a RunReport.  Block sorting and
prefix doubling are series of span sorts: their runners hand the spans to
``sortsel.sort_spans``, which evaluates them on a realized instance
without a request, drives the generator otherwise, and returns the
report.  ``setint`` runs set-intersection doubling on ``doubling_spans``
and ``sort_spans`` too.  The oblivious runner multiplexes many branch
generators through a round-robin scheduler that charges exactly one
oracle comparison per live branch per round; the scheduler is itself a
generator, so adversary games can drive it with a comparison budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional

from .core import Answer, CountingOracle, Outcome, RunReport, ceil_log2
from .profiles import ClusterProfile, approx_L2_scan, select_L1, select_L2
from .sortsel import (EQ, LT, check_indices, drive, select, select_gen,
                      select_values, sort_spans, sort_spans_gen)


# --- kernels ---------------------------------------------------------------

def _block_spans(items, k: int):
    """The blocks of block sorting: q = max(0, len(items) // k - 1)
    blocks of the k lowest remaining items, then the remainder, which
    holds fewer than 2k.  ``items`` is a sequence (a list or a range)
    that is only measured and sliced, never modified, so it is used
    without a copy; a k below 1 raises here, before any block is cut."""
    if k < 1:
        raise ValueError("block size must be >= 1")
    q = max(0, len(items) // k - 1)
    return chain((items[s:s + k] for s in range(0, q * k, k)),
                 [items[q * k:]])


def block_sorting_gen(items, k: int, stats: Optional[dict] = None):
    """Sort disjoint blocks of k lowest remaining indices, then the rest.

    While at least 2k items remain, the first k are merge sorted and
    discarded; any EQ is a witness.  The remainder (size < 2k) gets one
    final sort, and a clean one gives up.  stats["iterations"] counts
    started sort phases.

    A plain function that returns the `sort_spans_gen` generator over
    `_block_spans`; a k below 1 therefore raises here, when this is
    called, not at the first request.  The runner `block_sorting` sorts
    the same spans through `sort_spans`.
    """
    return sort_spans_gen(_block_spans(items, k), Outcome.GAVE_UP, stats=stats)


def _median_rec(items, L, C, st, memo, limit):
    """Partition at the lower median and recurse on both strict sides.

    Returns (Outcome.DUPLICATE, witness) on the first EQ against a
    pivot, else (Outcome.GAVE_UP, None).  Calls below L elements are
    abandoned, not sorted; their mass is what the cost analysis charges,
    and once it reaches C the whole recursion gives up.

    Depth first on an explicit stack: a call pushes its greater side
    and then its less side, so calls run in the recursive order and the
    first ones form the all-less path from the root.  `memo` lists
    (median, less, greater) along that path by depth: a call at depth
    < len(memo) is replayed without oracle charge, one at depth <
    `limit` is stored.  `depth` counts the calls run: the depth while
    the path lasts, and after it at least the path's length, which is
    at least `limit` (proof in budgeted_median_branch_gen).
    """
    stack = [items]
    depth = 0
    while stack:
        items = stack.pop()
        if len(items) < L:
            if items:
                st["small_calls"] += 1
                st["small_mass"] += len(items)
                if st["small_mass"] >= C:
                    return Outcome.GAVE_UP, None
            continue
        if depth < len(memo):
            med, less, greater = memo[depth]  # replay: no oracle charge
        else:
            med = yield from select_gen(items, (len(items) + 1) // 2)
            less, greater = [], []
            for it in items:
                if it == med:
                    continue
                a = yield (it, med)
                if a is EQ:
                    return Outcome.DUPLICATE, (it, med)
                (less if a is LT else greater).append(it)
            if depth < limit:
                memo.append((med, less, greater))
        depth += 1
        stack.append(greater)
        stack.append(less)
    return Outcome.GAVE_UP, None


def median_recursion_gen(items, L: int, stats: Optional[dict] = None):
    """Partition at the lower median, recurse on both strict sides.

    Equal-to-median elements surface as EQ during the partition pass, so
    the duplicate check costs no extra comparisons.  A duplicate is
    guaranteed whenever some cluster has size >= L: equal elements
    answer identically against every pivot and travel together until
    one of them becomes the pivot.  Gives up once every pending call is
    smaller than L.

    A plain function that returns the `_median_rec` generator, so a
    request leaves from that one frame; an L below 1 therefore raises
    here, when this is called, not at the first request.  ``items`` is
    a sequence (a list or a range) that is only measured, iterated and
    sliced, never modified, so it is used without a copy.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    st = stats if stats is not None else {}
    st.setdefault("small_calls", 0)
    st.setdefault("small_mass", 0)
    return _median_rec(items, L, math.inf, st, [], 0)


def doubling_spans(na: int, nb: int = 0):
    """The prefixes of prefix doubling: the first min(na, k) indices,
    then the first min(nb, k) indices from na on, for k = 2, 4, 8, ...,
    up to the first k >= na, nb.  Element distinctness sorts its n
    indices with nb = 0; set intersection sorts A's na indices together
    with B's nb, which follow them."""
    last = ceil_log2(max(2, na, nb))  # the first k >= na, nb is 2**last
    return (chain(range(min(na, 2 ** e)), range(na, na + min(nb, 2 ** e)))
            for e in range(1, last + 1))


def doubling_gen(n: int):
    """Sort the first min(n, k) indices from scratch for k = 2, 4, 8, ...

    Any EQ is a witness; the final full sort (the first k >= n)
    certifies Distinct.  Order-competitive against adversaries that
    must commit early positions, and also the only branch of the
    oblivious runner that can certify Distinct.  A plain function that
    returns the `sort_spans_gen` generator over `doubling_spans`; the
    runner `order_doubling` sorts the same spans through `sort_spans`.
    """
    return sort_spans_gen(doubling_spans(n), Outcome.DISTINCT)


# --- budgeted median recursion with memoized top levels --------------------

def budgeted_median_branch_gen(n: int, i: int):
    """One parallel branch: doubling small-call budget C, L = max(2, C/2^i).

    Each C-iteration reruns median recursion until C elements have
    landed in abandoned small calls, then doubles C; the budget is
    fresh after each doubling.  The top limit = floor(log2(n/C)) levels
    of the all-less path are memoized across iterations and replays are
    free: re-execution is deterministic, so the path is the same in
    every iteration, and `del memo[limit:]` keeps the levels still used
    as limit falls.

    That path is all the memo needs: no greater side at depth < limit
    ever runs, because small mass reaches C first.
    - A tie with a pivot ends the run at once, so a call of size m
      splits into (m+1)//2 - 1 and m - (m+1)//2 elements as for distinct
      values, and the all-less call at depth d has size s_d with
      s_d + 1 = floor((n+1)/2^d).  As 2^limit <= n/C, the one at depth
      limit-1 has s >= 2C - 1.
    - With L >= 2 every call of size 1 is small, and a subtree of size
      m puts at least 2^(floor(log2(m+1)) - 1) elements into small
      calls.  C is a power of two, so that call's subtree puts at least
      C there; a call on the path that is itself small holds >= C.
    - That subtree runs before the first greater side at depth < limit,
      the greater child of the call at depth limit-2.
    """
    items = range(n)  # only iterated and handed to select_gen, never changed
    cap = 2 ** ceil_log2(max(2, n))
    memo = []
    C = 1
    while C <= cap:
        L = max(2, C >> i)
        limit = max(0, (n // C).bit_length() - 1)
        del memo[limit:]
        st = {"small_calls": 0, "small_mass": 0}
        res = yield from _median_rec(items, L, C, st, memo, limit)
        if res[0] is Outcome.DUPLICATE:
            return res
        C *= 2
    return Outcome.GAVE_UP, None


# --- oblivious parallel runner ---------------------------------------------

def oblivious_branches(n: int):
    """The branch list, in fixed scheduling order."""
    imax = ceil_log2(ceil_log2(n))
    branches = []
    for i in range(imax + 1):
        k = 2 * 2 ** (2 ** i)  # 2k > n degenerates to one full sort
        branches.append((f"block:{i}", block_sorting_gen(range(n), k)))
    branches.append(("double", doubling_gen(n)))
    i = 1
    while i <= 2 ** imax:
        branches.append((f"median:{i}", budgeted_median_branch_gen(n, i)))
        i *= 2
    return branches


def oblivious_gen(n: int, branch_costs: Optional[dict] = None):
    """Round-robin over all branches, one comparison per branch per round.

    The first witness wins mid-round; Distinct comes only from the
    doubling branch's full-sort certificate; a branch that gives up is
    dropped from the rotation.

    Every branch asks before it can stop when n >= 2: `block:i` first
    sorts a span of at least 2 indices, `double` first sorts range(2),
    and `median:i` starts with L = 2 <= n, so its first select asks.
    Priming is therefore one `next` per branch; a branch that stopped
    there would surface as a RuntimeError, not be skipped.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    live = [[label, gen, next(gen)] for label, gen in oblivious_branches(n)]
    if branch_costs is not None:
        branch_costs.update((label, 0) for label, _, _ in live)
    while live:
        for slot in list(live):
            ans = yield slot[2]
            if branch_costs is not None:
                branch_costs[slot[0]] += 1
            try:
                slot[2] = slot[1].send(ans)
            except StopIteration as stop:
                out = stop.value
                if out[0] is not Outcome.GAVE_UP:
                    return out
                live.remove(slot)
    return Outcome.GAVE_UP, None


# --- runners ----------------------------------------------------------------

def _run(oracle: CountingOracle, gen, stats=None, branch_costs=None) -> RunReport:
    start = oracle.count
    outcome, witness = drive(gen, oracle)
    return RunReport(outcome=outcome, witness=witness,
                     comparisons=oracle.count - start,
                     branch_costs=branch_costs or {}, stats=stats or {})


def block_sorting(oracle: CountingOracle, items, k: int) -> RunReport:
    return sort_spans(oracle, _block_spans(items, k), Outcome.GAVE_UP,
                      stats={})


def median_recursion(oracle: CountingOracle, items, L: int) -> RunReport:
    """The report of ``median_recursion_gen``.

    An adversary-mode oracle drives the generator.  On a realized
    instance `_median_rec`'s loop runs on the values, with no request:
    each call selects its pivot with ``select_values`` and partitions in
    two passes that stand for its len(items) - 1 requests.  A partition
    that meets an item other than the pivot with the pivot's value stops
    at the first such item, charged the requests up to it.  Indices out
    of range or repeated are refused before anything is charged.
    """
    stats = {}
    gen = median_recursion_gen(items, L, stats)  # refuses L < 1, zeroes stats
    vals = oracle._values
    if vals is None:
        return _run(oracle, gen, stats)
    check_indices(len(vals), items)
    start = oracle.count
    outcome, witness = Outcome.GAVE_UP, None
    stack = [items]
    while stack:
        items = stack.pop()
        if len(items) < L:
            if items:
                stats["small_calls"] += 1
                stats["small_mass"] += len(items)
            continue
        med, cost = select_values(vals, items, (len(items) + 1) // 2)
        pv = vals[med]
        less = [it for it in items if vals[it] < pv]
        greater = [it for it in items if vals[it] > pv]
        if len(less) + len(greater) + 1 < len(items):
            # the first item that ties the pivot is the last one asked
            hit = next(it for it in items if it != med and vals[it] == pv)
            at = items.index(hit)
            oracle.count += cost + at + (items.index(med) > at)
            outcome, witness = Outcome.DUPLICATE, (hit, med)
            break
        oracle.count += cost + len(items) - 1
        stack.append(greater)
        stack.append(less)
    return RunReport(outcome=outcome, witness=witness,
                     comparisons=oracle.count - start, stats=stats)


def order_doubling(oracle: CountingOracle) -> RunReport:
    return sort_spans(oracle, doubling_spans(oracle.n), Outcome.DISTINCT)


def oblivious(oracle: CountingOracle, n: Optional[int] = None) -> RunReport:
    n = oracle.n if n is None else n
    costs = {}
    return _run(oracle, oblivious_gen(n, costs), branch_costs=costs)


def clairvoyant(oracle: CountingOracle, profile: ClusterProfile) -> RunReport:
    """Pick the cheaper of the two parameterized algorithms for profile.

    Runs median recursion with L1 when its bound beats the block bound,
    else block sorting with k = 2*D(L2).  The profile is the advice G(I)
    and is taken as given; harness.run_algorithm checks a profile that
    comes from outside against its instance.
    """
    items = range(profile.n)
    sel1 = select_L1(profile)
    L2, bound2 = select_L2(profile)
    if sel1 is not None and sel1[1] < bound2:
        rep = median_recursion(oracle, items, sel1[0])
        rep.stats.update(path="median", L=sel1[0], bound=sel1[1])
    else:
        k = 2 * profile.d(L2)
        rep = block_sorting(oracle, items, k)
        rep.stats.update(path="block", L=L2, k=k, bound=bound2)
    return rep


# --- preprocessing -----------------------------------------------------------

@dataclass
class PreprocessedPlan:
    profile: ClusterProfile
    k: Optional[int] = None      # block sorting's k; None defers
    approx_L: Optional[int] = None


def preprocess(profile: ClusterProfile) -> PreprocessedPlan:
    """Build a plan from cluster sizes alone, no oracle comparisons.

    Uses the linear-time halving scan; when even the approximate block
    objective reaches n the plan defers to run time (exact parameter
    selection costs O(n) there anyway), otherwise it commits to block
    sorting with k = 2*D of the approximate L.
    """
    t, obj, _ = approx_L2_scan(profile)
    if obj >= profile.n:
        return PreprocessedPlan(profile, approx_L=t)
    return PreprocessedPlan(profile, k=2 * profile.d(t), approx_L=t)


def run_preprocessed(plan: PreprocessedPlan, oracle: CountingOracle) -> RunReport:
    if plan.k is not None:
        rep = block_sorting(oracle, range(plan.profile.n), plan.k)
        rep.stats.update(mode="block", k=plan.k, approx_L=plan.approx_L)
        return rep
    rep = clairvoyant(oracle, plan.profile)
    rep.stats.update(mode="defer")
    return rep


# --- rank-based operations ----------------------------------------------------

def order_baseline(oracle: CountingOracle, k: int) -> RunReport:
    """Selection at known ranks k and k+1 plus one confirming comparison.

    When the input's only duplicate pair occupies sorted ranks {k, k+1},
    this finds it in O(n) comparisons regardless of where the pair sits
    positionally; without that promise it gives up.
    """
    n = oracle.n
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    start = oracle.count
    x = select(oracle, range(n), k)
    # rank k+1 overall = rank k once x is removed; selecting on the
    # remainder also guarantees y != x when ranks k, k+1 are tied
    y = select(oracle, [i for i in range(n) if i != x], k)
    ans = oracle.compare(x, y)
    if ans is Answer.EQ:
        return RunReport(Outcome.DUPLICATE, (x, y), oracle.count - start)
    return RunReport(Outcome.GAVE_UP, None, oracle.count - start)
