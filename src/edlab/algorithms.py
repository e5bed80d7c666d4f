"""Element-distinctness algorithms over the comparison oracle.

Every algorithm here is written as a request generator (see sortsel) and
wrapped by a small runner that produces a RunReport.  The oblivious
runner multiplexes many branch generators through a round-robin
scheduler that charges exactly one oracle comparison per live branch
per round; the scheduler is itself a generator, so adversary games can
drive it with a comparison budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .core import Answer, CountingOracle, Outcome, RunReport, ceil_log2
from .profiles import ClusterProfile, approx_L2_scan, select_L1, select_L2
from .sortsel import EQ, LT, drive, merge_sort_gen, select_gen


# --- kernels ---------------------------------------------------------------

def block_sorting_gen(items, k: int, stats: Optional[dict] = None):
    """Sort disjoint blocks of k lowest remaining indices, then the rest.

    While at least 2k items remain, the first k are merge sorted and
    discarded; any EQ is a witness.  The remainder (size < 2k) gets one
    final sort.  stats["iterations"] counts started sort phases.
    ``items`` is a sequence (a list or a range) that is only measured
    and sliced, never modified, so it is used without a copy.
    """
    if k < 1:
        raise ValueError("block size must be >= 1")
    start = iters = 0  # items[start:] remain
    while True:
        end = start + k if len(items) - start >= 2 * k else len(items)
        iters += 1
        if stats is not None:
            stats["iterations"] = iters
        res = yield from merge_sort_gen(items[start:end])
        if res[0] == "dup":
            return Outcome.DUPLICATE, (res[1], res[2])
        if end == len(items):
            return Outcome.GAVE_UP, None
        start = end


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


def doubling_gen(n: int):
    """Sort the first min(n, k) indices from scratch for k = 2, 4, 8, ...

    Any EQ is a witness; the final full sort (k >= n) certifies
    Distinct.  Order-competitive against adversaries that must commit
    early positions, and also the only branch of the oblivious runner
    that can certify Distinct.
    """
    k = 2
    while True:
        b = min(n, k)
        res = yield from merge_sort_gen(range(b))
        if res[0] == "dup":
            return Outcome.DUPLICATE, (res[1], res[2])
        if b >= n:
            return Outcome.DISTINCT, None
        k *= 2


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
        limit = max(0, (n // C).bit_length() - 1) if C <= n else 0
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
    """
    if n < 2:
        raise ValueError("need n >= 2")
    live = []
    for label, gen in oblivious_branches(n):
        if branch_costs is not None:
            branch_costs[label] = 0
        try:
            req = next(gen)
        except StopIteration as stop:
            out = stop.value
            if out[0] is not Outcome.GAVE_UP:
                return out
            continue
        live.append([label, gen, req])
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
    stats = {}
    return _run(oracle, block_sorting_gen(items, k, stats), stats)


def median_recursion(oracle: CountingOracle, items, L: int) -> RunReport:
    stats = {}
    return _run(oracle, median_recursion_gen(items, L, stats), stats)


def order_doubling(oracle: CountingOracle, n: int) -> RunReport:
    return _run(oracle, doubling_gen(n))


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
    n = profile.n
    items = range(n)
    sel1 = select_L1(profile)
    L2, bound2 = select_L2(profile)
    if sel1 is not None and sel1[1] < bound2:
        stats = {"path": "median", "L": sel1[0], "bound": sel1[1]}
        rep = _run(oracle, median_recursion_gen(items, sel1[0], stats), stats)
    else:
        k = 2 * profile.d(L2)
        stats = {"path": "block", "L": L2, "k": k, "bound": bound2}
        rep = _run(oracle, block_sorting_gen(items, k, stats), stats)
    return rep


# --- preprocessing -----------------------------------------------------------

@dataclass
class PreprocessedPlan:
    mode: str                    # "block" | "defer"
    profile: ClusterProfile
    k: Optional[int] = None
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
        return PreprocessedPlan("defer", profile, approx_L=t)
    return PreprocessedPlan("block", profile, k=2 * profile.d(t), approx_L=t)


def run_preprocessed(plan: PreprocessedPlan, oracle: CountingOracle) -> RunReport:
    if plan.mode == "block":
        rep = block_sorting(oracle, range(plan.profile.n), plan.k)
        rep.stats.update(mode="block", k=plan.k, approx_L=plan.approx_L)
        return rep
    rep = clairvoyant(oracle, plan.profile)
    rep.stats.update(mode="defer")
    return rep


# --- rank-based operations ----------------------------------------------------

def select_kth(oracle: CountingOracle, items, k: int):
    """Deterministic linear selection (median of medians, groups of 5)."""
    return drive(select_gen(items, k), oracle)


def order_baseline(oracle: CountingOracle, n: int, k: int) -> RunReport:
    """Selection at known ranks k and k+1 plus one confirming comparison.

    When the input's only duplicate pair occupies sorted ranks {k, k+1},
    this finds it in O(n) comparisons regardless of where the pair sits
    positionally; without that promise it gives up.
    """
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    start = oracle.count
    x = select_kth(oracle, range(n), k)
    # rank k+1 overall = rank k once x is removed; selecting on the
    # remainder also guarantees y != x when ranks k, k+1 are tied
    y = select_kth(oracle, [i for i in range(n) if i != x], k)
    ans = oracle.compare(x, y)
    if ans is Answer.EQ:
        return RunReport(Outcome.DUPLICATE, (x, y), oracle.count - start)
    return RunReport(Outcome.GAVE_UP, None, oracle.count - start)
