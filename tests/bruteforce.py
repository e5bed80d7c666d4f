"""Independent reference implementations used to cross-check the package.

Everything here recomputes results from first principles with full scans
over every parameter value L in {1..n+1}, deliberately ignoring the
piecewise-constant structure the library exploits.  Float expressions
mirror the documented contract term by term so equality checks are
bit-for-bit, not approximate.
"""

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

from edlab.adversary import AdversaryState
from edlab.core import Answer, CountingOracle, Instance, Outcome, ceil_log2
from edlab.profiles import ClusterProfile
from edlab.setint import SIInstance
from edlab.sortsel import drive, drive_bounded

LT, EQ, GT = Answer.LT, Answer.EQ, Answer.GT


def brute_cd(sizes, L):
    return (sum(s for s in sizes if s < L),
            sum(1 for s in sizes if s >= L))


def _val1(n, C, L):
    if C == 0:
        return float(n)
    return n + C * max(0.0, math.log2(C / L))


def _val2(C, D):
    if D <= 0:
        return float(C)
    return (C + D) * max(1.0, math.log2(D))


def brute_select_L1(sizes):
    """Full scan of n + C*log2(C/L) over L in {2..n+1} with C(L) < n."""
    n = sum(sizes)
    best = None
    for L in range(2, n + 2):
        C, _ = brute_cd(sizes, L)
        if C >= n:
            continue
        val = _val1(n, C, L)
        if best is None or val < best[1]:
            best = (L, val)
    return best


def brute_select_L2(sizes):
    """Full scan of (C+D)*max(1, log2 D) over L in {1..n+1} with 2C < n."""
    n = sum(sizes)
    best = None
    for L in range(1, n + 2):
        C, D = brute_cd(sizes, L)
        if 2 * C >= n:
            continue
        val = _val2(C, D)
        if best is None or val < best[1]:
            best = (L, val)
    return best


def brute_lower_bound_median(sizes):
    n = sum(sizes)
    best = None
    for L in range(2, n + 2):
        C, _ = brute_cd(sizes, L)
        if C >= n:
            continue
        val = 0.0 if C == 0 else 0.25 * C * max(0.0, math.log2(C / (2 * L)))
        if best is None or val < best:
            best = val
    return best if best is not None else 0.0


def brute_lower_bound_block(sizes):
    sel = brute_select_L2(sizes)
    return 0.001 * min(float(sum(sizes)), sel[1])


def brute_lower_bound_combined(sizes):
    sel1 = brute_select_L1(sizes)
    term1 = sel1[1] if sel1 is not None else math.inf
    term2 = brute_select_L2(sizes)[1]
    return 0.001 * min(term1, term2)


def brute_reduction_budget(sizes):
    """min(n'/8, (1/32)*min (C'+D')*max(1, log2 D')), the inner minimum a
    full scan of L in {1..n'+1} with C'(L) < n', where the primes refer
    to the sizes left after deleting maximum clusters until at most 3/4
    of the vertices remain."""
    n = sum(sizes)
    kept = sorted(sizes)
    while 4 * sum(kept) > 3 * n:
        kept.pop()
    n_prime = sum(kept)
    best = None
    for L in range(1, n_prime + 2):
        C, D = brute_cd(kept, L)
        if C >= n_prime:
            continue
        val = _val2(C, D)
        if best is None or val < best:
            best = val
    return min(n_prime / 8.0, best / 32.0)


def brute_approx_L2_scan(sizes):
    """The halving scan as approx_L2_scan first ran it: running totals
    give C and D of each median, and the minimum and every partition go
    through the counted three-way comparison.  Returns (L2_approx,
    objective, size_comparisons)."""
    sizes = tuple(sizes)
    n, m = sum(sizes), len(sizes)
    counter = [0]

    def cmp3(i, j):
        counter[0] += 1
        a, b = sizes[i], sizes[j]
        return LT if a < b else GT if a > b else EQ

    cur = range(m)
    tmin = cur[0]
    for tok in cur[1:]:
        if cmp3(tok, tmin) is LT:
            tmin = tok
    candidates = [(sizes[tmin], 0, m)]  # (t_1, C, D): nothing sits below the min

    dropped_sum = 0
    dropped_eq = 0  # dropped elements equal to the current pivot value
    v_prev = None
    while len(cur) > 1:
        r = len(cur)
        u = (r + 1) // 2
        gen, ans = brute_select_gen(cur, r - u + 1), None
        while True:
            try:
                x, y = gen.send(ans)
            except StopIteration as stop:
                v_tok = stop.value
                break
            ans = cmp3(x, y)
        v = sizes[v_tok]
        less, equal, greater = [], [], []
        for tok in cur:
            if tok == v_tok:
                equal.append(tok)
                continue
            a = cmp3(tok, v_tok)
            (less if a is LT else greater if a is GT else equal).append(tok)
        keep_eq = u - len(greater)
        kept = greater + equal[:keep_eq]
        shed = len(equal) - keep_eq
        dropped_sum += sum(sizes[t] for t in less) + v * shed
        dropped_eq = (dropped_eq if v == v_prev else 0) + shed
        v_prev = v
        C = dropped_sum - v * dropped_eq
        D = len(kept) + dropped_eq
        candidates.append((v, C, D))
        cur = kept

    best = None
    for t, C, D in candidates:
        if 2 * C >= n:
            continue
        val = _val2(C, D)
        if best is None or val < best[1]:
            best = (t, val)
    return best[0], best[1], counter[0]

# --- reference chain packing, reconstruction and realization -----------
# The tree adversary's post-game pipeline written out directly: every
# extraction rescores the whole position trie and filters each chain
# node's list, reconstruct re-slices its pools, and realize sorts
# zero-padded keys.  Quadratic, but plainly faithful to the definitions;
# the adversary's incremental versions must agree with it exactly.

def _build_trie(positions, indices):
    root = {"elems": []}
    for idx in indices:
        node = root
        for b in positions[idx]:
            node = node.setdefault(b, {"elems": []})
        node["elems"].append(idx)
    return root


def _extract_chain(root, take: int):
    """Remove and return `take` elements from the max-count root-to-leaf
    chain (shallowest first, ties by index; '0'-child preferred on equal
    subtree counts).  None when no chain holds that many."""
    order = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        for b in ("0", "1"):
            if b in node:
                stack.append(node[b])
    score = {}
    for node in reversed(order):
        best_child = 0
        for b in ("0", "1"):
            if b in node:
                best_child = max(best_child, score[id(node[b])])
        score[id(node)] = len(node["elems"]) + best_child
    if score[id(root)] < take:
        return None
    chain = [root]
    node = root
    while "0" in node or "1" in node:
        c0, c1 = node.get("0"), node.get("1")
        if c1 is None or (c0 is not None and score[id(c0)] >= score[id(c1)]):
            node = c0
        else:
            node = c1
        chain.append(node)
    picked = []
    for nd in chain:
        for idx in sorted(nd["elems"]):
            picked.append(idx)
            if len(picked) == take:
                break
        if len(picked) == take:
            break
    pickset = set(picked)
    for nd in chain:
        nd["elems"] = [e for e in nd["elems"] if e not in pickset]
    return picked


def brute_pack_isomorphic(state: AdversaryState, profile: ClusterProfile):
    """Assign elements to target clusters, each cluster on one chain.

    Clusters are processed in decreasing size through max-count chain
    extraction.  Once only singletons remain they are assigned directly,
    shallowest position first (equivalent for realization purposes: a
    single element is trivially a chain).  Returns a cluster list
    aligned with profile.sizes.
    """
    n = len(state.positions)
    if profile.n != n:
        raise ValueError("profile does not cover all elements")
    order = sorted(range(profile.m), key=lambda c: -profile.sizes[c])
    clusters: list = [None] * profile.m
    used = set()
    root = _build_trie(state.positions, range(n))
    for pos_i, cid in enumerate(order):
        size = profile.sizes[cid]
        if size == 1:
            rest = sorted((i for i in range(n) if i not in used),
                          key=lambda i: (len(state.positions[i]),
                                         state.positions[i], i))
            for sid, elem in zip(order[pos_i:], rest):
                clusters[sid] = [elem]
            break
        picked = _extract_chain(root, size)
        if picked is None:
            raise RuntimeError("no chain can hold this cluster; "
                               "packing budget was violated")
        clusters[cid] = picked
        used.update(picked)
    return clusters


def brute_pack_separation(state: AdversaryState, L: int):
    """Greedy chains of exactly L while any chain holds L elements,
    then singletons.  Returns (big_clusters, singleton_clusters); the
    concatenation is exactly what pack_isomorphic produces for the
    profile [L]*q + [1]*(n - q*L)."""
    n = len(state.positions)
    root = _build_trie(state.positions, range(n))
    bigs = []
    while True:
        picked = _extract_chain(root, L)
        if picked is None:
            break
        bigs.append(picked)
    used = {i for c in bigs for i in c}
    singles = [[i] for i in sorted((i for i in range(n) if i not in used),
                                   key=lambda i: (len(state.positions[i]),
                                                  state.positions[i], i))]
    return bigs, singles


def brute_reconstruct(state: AdversaryState, profile: ClusterProfile):
    """Whole/split realization against the reduced profile.

    Forms the reduced profile's clusters in decreasing size, anchoring
    each at the shallowest occupied non-root node and topping up from
    root elements; once the reduced clusters (or the non-root nodes) are
    exhausted, every remaining cluster of the full profile is formed
    from root elements.  Returns (clusters aligned with profile.sizes,
    fallback flag: True when non-root nodes ran out early).
    """
    n = len(state.positions)
    if profile.n != n:
        raise ValueError("profile does not cover all elements")
    if profile.m < 2:
        raise ValueError("reduction needs at least two clusters")
    sizes = profile.sizes
    order_desc = sorted(range(profile.m), key=lambda c: -sizes[c])
    n_cur, k = n, 0
    while 4 * n_cur > 3 * n:
        n_cur -= sizes[order_desc[k]]
        k += 1
    gprime_ids = order_desc[k:]

    nodes: dict = {}
    roots = []
    for idx, p in enumerate(state.positions):
        if p:
            nodes.setdefault(p, []).append(idx)
        else:
            roots.append(idx)
    node_order = sorted(nodes, key=lambda p: (len(p), p))
    clusters: list = [None] * profile.m
    fallback = False
    ni = 0
    for cid in gprime_ids:
        while ni < len(node_order) and not nodes[node_order[ni]]:
            ni += 1
        if ni >= len(node_order):
            fallback = True
            break
        avail = nodes[node_order[ni]]
        t = min(sizes[cid], len(avail))
        take = avail[:t]
        nodes[node_order[ni]] = avail[t:]
        need = sizes[cid] - t
        if need > len(roots):
            raise RuntimeError("root pool exhausted while topping up")
        take = take + roots[:need]
        roots = roots[need:]
        clusters[cid] = take
    leftovers = [cid for cid in range(profile.m) if clusters[cid] is None]
    leftovers.sort(key=lambda c: -sizes[c])
    for cid in leftovers:
        s = sizes[cid]
        if s > len(roots):
            raise RuntimeError("root pool exhausted while forming clusters")
        clusters[cid] = roots[:s]
        roots = roots[s:]
    return clusters, fallback


def brute_realize(state: AdversaryState, clusters) -> Instance:
    """Move each cluster to a fresh leaf and read off values.

    Terminal key = deepest member's path + zero padding + '1' + fixed-
    width cluster counter; all keys share one length, so they are
    pairwise distinct and non-prefix.  Values are lexicographic key
    ranks, hence equal within a cluster and consistent with every
    answered divergence.
    """
    n = len(state.positions)
    covered = sorted(i for c in clusters for i in c)
    if covered != list(range(n)):
        raise ValueError("assignment must cover every element exactly once")
    anchors = []
    for cid, c in enumerate(clusters):
        if not c:
            raise ValueError(f"cluster {cid} is empty")
        anchor = max((state.positions[i] for i in c), key=len)
        for i in c:
            if not anchor.startswith(state.positions[i]):
                raise ValueError("cluster is not a chain in the tree")
        anchors.append(anchor)
    W = max(1, (len(clusters) - 1).bit_length())
    K = max(len(a) for a in anchors) + 1 + W
    keys = [a + "0" * (K - len(a) - 1 - W) + "1" + format(cid, f"0{W}b")
            for cid, a in enumerate(anchors)]
    rank = {kk: r for r, kk in enumerate(sorted(keys))}
    values = [0] * n
    for cid, c in enumerate(clusters):
        for i in c:
            values[i] = rank[keys[cid]]
    return Instance(tuple(values))


# --- reference bipartite game ------------------------------------------
# The set-intersection adversary with its own copy of the tree
# divergence rule, B-paths kept apart from the A-leaves, and the
# realization that ranks zero-padded keys directly.  The adversary
# module's version shares the tree adversary's rule and realize; both
# must play and realize every game identically.

def brute_cube_root(n: int) -> int:
    """s with s**3 == n for a family size n = 2**(3t), t >= 1."""
    s = round(n ** (1 / 3))
    while s ** 3 < n:
        s += 1
    if s ** 3 != n or s < 2 or s & (s - 1):
        raise ValueError("n must be 2**(3t) for integer t >= 1")
    return s


def brute_si_family_pairs(n: int, i: int) -> list:
    """The family's clusters as (a_size, b_size) pairs, from its
    definition: (j, 1 if j == i else 0) for j = 1..s, n - 1 B-singletons
    (0, 1) and one big A-cluster holding the rest of A."""
    s = brute_cube_root(n)
    return ([(j, 1 if j == i else 0) for j in range(1, s + 1)]
            + [(0, 1)] * (n - 1) + [(n - s * (s + 1) // 2, 0)])


class BruteSIAdversary:
    """B-elements walk down the tree; A-elements sit at fixed leaves.

    The big A-cluster occupies the leftmost leaf (smallest value); the
    type-1 cluster j sits at one leaf below the j-th depth-l node.  Leaf
    depth exceeds the round budget, so a B-element can never reach or
    pass an A-leaf; same-cluster A pairs answer EQ (true equalities,
    not witnesses), everything else answers by divergence with only
    B-elements moving.
    """

    def __init__(self, n: int):
        s = brute_cube_root(n)
        self.n = n
        self.s = s
        self.l = round(math.log2(n)) // 3
        self.rounds_budget = n * self.l // 2
        self.depth_leaf = self.rounds_budget + self.l + 2
        self.big = n - s * (s + 1) // 2
        self.cluster_leaf = {}
        self.a_cluster = []
        for _ in range(self.big):
            self.a_cluster.append(0)
        self.cluster_leaf[0] = "0" * self.depth_leaf
        for j in range(1, s + 1):
            u = format(j - 1, f"0{self.l}b")
            self.cluster_leaf[j] = u + "1" + "0" * (self.depth_leaf - self.l - 1)
            self.a_cluster.extend([j] * j)
        assert len(self.a_cluster) == n
        self.bpos = [""] * n  # B index offset by n

    def _path(self, idx: int) -> str:
        if idx < self.n:
            return self.cluster_leaf[self.a_cluster[idx]]
        return self.bpos[idx - self.n]

    def answer(self, x: int, y: int) -> Answer:
        n = self.n
        if x < n and y < n:
            if self.a_cluster[x] == self.a_cluster[y]:
                return EQ
            px, py = self._path(x), self._path(y)
        else:
            px, py = self._path(x), self._path(y)
            if px == py:  # both must be B: A-leaves are deeper than B can go
                self.bpos[x - n] = px + "0"
                self.bpos[y - n] = py + "1"
                return LT
            if len(px) < len(py) and py.startswith(px):
                nxt = py[len(px)]
                px = px + ("1" if nxt == "0" else "0")
                self.bpos[x - n] = px
            elif len(py) < len(px) and px.startswith(py):
                nxt = px[len(py)]
                py = py + ("1" if nxt == "0" else "0")
                self.bpos[y - n] = py
        d = 0
        while px[d] == py[d]:
            d += 1
        return LT if px[d] < py[d] else GT


@dataclass
class BruteSIGameReport:
    instance: SIInstance
    j: int
    rounds_played: int
    transcript: list
    opponent_finished: bool


def brute_si_adversary_game(opponent_factory: Callable[[int], object],
                            n: int) -> BruteSIGameReport:
    """Run the bipartite game and realize the hard instance.

    After floor(n*l/2) rounds some B-element x still sits at depth <= l
    (each round adds at most 2 depth in total); the shallowest such x is
    merged into the type-1 cluster below it: x was never answered
    against that cluster, otherwise x would have diverged away from its
    subtree.  All other B-elements become fresh singletons; the result
    realizes si_family(n, j).
    """
    adv = BruteSIAdversary(n)
    oracle = CountingOracle(adversary=adv.answer, n=2 * n)
    _, finished = drive_bounded(opponent_factory(n), oracle, adv.rounds_budget)
    cands = [(len(p), i) for i, p in enumerate(adv.bpos) if len(p) <= adv.l]
    if not cands:
        raise RuntimeError("every B-element is deep; depth budget violated")
    _, xb = min(cands)
    px = adv.bpos[xb]
    j = int((px + "0" * adv.l)[:adv.l], 2) + 1

    W = max(1, (n - 1).bit_length())
    K = adv.depth_leaf + 1 + W
    b_keys = [None] * n
    b_keys[xb] = adv.cluster_leaf[j]
    ctr = 0
    for i, p in enumerate(adv.bpos):
        if i == xb:
            continue
        b_keys[i] = p + "1" + "0" * (K - len(p) - 2 - W) + format(ctr, f"0{W}b")
        ctr += 1
    a_keys = [adv.cluster_leaf[c] for c in adv.a_cluster]
    rank = {kk: r for r, kk in enumerate(sorted(set(a_keys + b_keys)))}
    inst = SIInstance(tuple(rank[kk] for kk in a_keys),
                      tuple(rank[kk] for kk in b_keys))
    if not brute_bipartite_equal(
            brute_bipartite_profile_of(inst.a_values, inst.b_values),
            brute_si_family_pairs(n, j)):
        raise RuntimeError("realized instance is not in the target family")
    return BruteSIGameReport(inst, j, oracle.count, oracle.transcript, finished)


def recording_oracle(values) -> CountingOracle:
    """An oracle that answers from ``values`` through the adversary hook.

    Only adversary-mode oracles keep a transcript, so tests that compare
    request sequences play the values this way; the transcript's (x, y)
    pairs are then every request, in order.
    """
    vals = tuple(values)

    def hook(x, y):
        vx, vy = vals[x], vals[y]
        return LT if vx < vy else GT if vx > vy else EQ
    return CountingOracle(adversary=hook, n=len(vals))


def recorded_run(gen, values):
    """The generator's result and every request it made, in order."""
    oracle = recording_oracle(values)
    return drive(gen, oracle), [(x, y) for x, y, _ in oracle.transcript]


# --- reference bipartite profiles -----------------------------------------
# A set-intersection profile as a plain list of normalized (a_size, b_size)
# pairs, one per cluster, compared by sorting both lists.  BipartiteProfile
# keeps a multiplicity map instead and must agree with this on equality,
# totals and which inputs it rejects.

def brute_bipartite_pairs(clusters) -> list:
    """int() of every pair, then the same check and message as the package."""
    pairs = [(int(a), int(b)) for a, b in clusters]
    if any(a < 0 or b < 0 or a + b < 1 for a, b in pairs):
        raise ValueError("each cluster needs non-negative sizes, one positive")
    return pairs


def brute_bipartite_equal(p, q) -> bool:
    return sorted(brute_bipartite_pairs(p)) == sorted(brute_bipartite_pairs(q))


def brute_bipartite_profile_of(a_values, b_values) -> list:
    """One (A count, B count) pair per distinct value of either side,
    the counts read off one Counter per side."""
    a_counts, b_counts = Counter(a_values), Counter(b_values)
    return [(a_counts[v], b_counts[v]) for v in a_counts.keys() | b_counts]


# --- reference sort/select kernels ---------------------------------------
# The kernels as sortsel wrote them with one generator frame per
# recursion level: merge sort recursing on both halves, selection
# recursing for its pivot through a separate insertion sort.  Copied
# verbatim apart from the brute_ names.  sortsel's single-frame kernels
# must issue the same requests and return the same results.

def brute_insertion_sort_gen(items):
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


def brute_merge_sort_gen(items, witness=None):
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
    left = yield from brute_merge_sort_gen(items[:mid], witness)
    if left[0] == "dup":
        return left
    right = yield from brute_merge_sort_gen(items[mid:], witness)
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


def brute_select_gen(items, k: int):
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
            srt = yield from brute_insertion_sort_gen(arr)
            return srt[k - 1]
        # pivot estimated from complete quintets only; the trailing partial
        # group is never sorted, it just takes part in the partition below
        medians = []
        for g in range(0, n - n % 5, 5):
            grp = yield from brute_insertion_sort_gen(arr[g : g + 5])
            medians.append(grp[2])
        pivot = yield from brute_select_gen(medians, (len(medians) + 1) // 2)
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


# --- reference median recursions ----------------------------------------
# The two recursions median recursion used to keep: the plain one with
# its small-call stats, and the budgeted one with memoized top levels
# that the oblivious runner's median branches drive.  The algorithms
# module now runs both through one recursion; the request sequences,
# results and stats must not change.

def _median_rec(items, L, st):
    # Calls below L elements are abandoned, not sorted; their mass is
    # what the cost analysis charges.
    if len(items) < L:
        if items:
            st["small_calls"] += 1
            st["small_mass"] += len(items)
        return None
    med = yield from brute_select_gen(items, (len(items) + 1) // 2)
    less, greater = [], []
    for it in items:
        if it == med:
            continue
        a = yield (it, med)
        if a is EQ:
            return it, med
        (less if a is LT else greater).append(it)
    hit = yield from _median_rec(less, L, st)
    if hit is not None:
        return hit
    return (yield from _median_rec(greater, L, st))


def brute_median_recursion_gen(items, L: int, stats: Optional[dict] = None):
    if L < 1:
        raise ValueError("L must be >= 1")
    st = stats if stats is not None else {}
    st.setdefault("small_calls", 0)
    st.setdefault("small_mass", 0)
    hit = yield from _median_rec(list(items), L, st)
    if hit is not None:
        return Outcome.DUPLICATE, hit
    return Outcome.GAVE_UP, None


def _median_rec_memo(items, L, C, st, memo, path, limit):
    if len(items) < L:
        if items:
            st["mass"] += len(items)
            if st["mass"] >= C:
                return "abort"
        return None
    if len(path) < limit and path in memo:
        med, less, greater = memo[path]  # replay: no oracle charge
    else:
        med = yield from brute_select_gen(items, (len(items) + 1) // 2)
        less, greater = [], []
        for it in items:
            if it == med:
                continue
            a = yield (it, med)
            if a is EQ:
                return it, med
            (less if a is LT else greater).append(it)
        if len(path) < limit:
            memo[path] = (med, less, greater)
    hit = yield from _median_rec_memo(less, L, C, st, memo, path + "0", limit)
    if hit is not None:
        return hit
    return (yield from _median_rec_memo(greater, L, C, st, memo, path + "1", limit))


def brute_budgeted_median_branch_gen(n: int, i: int):
    items = list(range(n))
    cap = 2 ** ceil_log2(max(2, n))
    memo = {}
    C = 1
    while C <= cap:
        L = max(2, C >> i)
        limit = max(0, (n // C).bit_length() - 1) if C <= n else 0
        memo = {p: v for p, v in memo.items() if len(p) < limit}
        st = {"mass": 0}
        res = yield from _median_rec_memo(items, L, C, st, memo, "", limit)
        if res is not None and res != "abort":
            return Outcome.DUPLICATE, res
        C *= 2
    return Outcome.GAVE_UP, None


# --- reference merge-sort runners ------------------------------------------
# The doubling, block and set-intersection doubling runners written
# plainly on brute_merge_sort_gen: every sort gets a list built in full,
# and the blocks are cut before the first sort.

def brute_doubling_gen(n: int):
    k = 2
    while True:
        res = yield from brute_merge_sort_gen(list(range(min(n, k))))
        if res[0] == "dup":
            return Outcome.DUPLICATE, (res[1], res[2])
        if k >= n:
            return Outcome.DISTINCT, None
        k *= 2


def brute_block_sorting_gen(items, k: int, stats: Optional[dict] = None):
    if k < 1:
        raise ValueError("block size must be >= 1")
    rest = list(items)
    blocks = []
    while len(rest) >= 2 * k:  # a block of k leaves at least k behind
        blocks.append(rest[:k])
        rest = rest[k:]
    blocks.append(rest)
    for iters, block in enumerate(blocks, 1):
        if stats is not None:
            stats["iterations"] = iters
        res = yield from brute_merge_sort_gen(block)
        if res[0] == "dup":
            return Outcome.DUPLICATE, (res[1], res[2])
    return Outcome.GAVE_UP, None


def brute_si_doubling_gen(na: int, nb: int):
    def cross(x, y):
        return (x < na) != (y < na)
    k = 2
    while True:
        a_side = list(range(min(na, k)))
        b_side = [na + j for j in range(min(nb, k))]
        res = yield from brute_merge_sort_gen(a_side + b_side, cross)
        if res[0] == "dup":  # a crossing pair: the A index is the smaller
            return Outcome.DUPLICATE, tuple(sorted(res[1:]))
        if k >= max(na, nb):
            return Outcome.DISTINCT, None
        k *= 2


# --- reference oblivious scheduler --------------------------------------------
# The round-robin scheduler as it stood before its priming pass was cut
# to one bare next() per branch: a branch that stops while primed is
# dropped, or ends the run with its verdict.  It rotates the reference
# branches, with the package's labels and the same k and i schedule.

def brute_oblivious_branches(n: int):
    imax = ceil_log2(ceil_log2(n))
    branches = []
    for i in range(imax + 1):
        k = 2 * 2 ** (2 ** i)
        branches.append((f"block:{i}", brute_block_sorting_gen(range(n), k)))
    branches.append(("double", brute_doubling_gen(n)))
    i = 1
    while i <= 2 ** imax:
        branches.append((f"median:{i}",
                         brute_budgeted_median_branch_gen(n, i)))
        i *= 2
    return branches


def brute_oblivious_gen(n: int, branch_costs: Optional[dict] = None):
    """Round-robin over all branches, one comparison per branch per round.

    The first witness wins mid-round; Distinct comes only from the
    doubling branch's full-sort certificate; a branch that gives up is
    dropped from the rotation.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    live = []
    for label, gen in brute_oblivious_branches(n):
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


# --- reference structure-aware set-intersection solver ----------------------
# si_clairvoyant written plainly on the reference kernels: every list is
# built in full, the big cluster's size comes from brute_cube_root, and
# the sorted remainder is cut into runs by adjacent comparisons.

def brute_si_clairvoyant_gen(na: int, nb: int, i: int):
    s = brute_cube_root(na)
    big = na - s * (s + 1) // 2
    a_side = list(range(na))
    med = yield from brute_select_gen(a_side, (na + 1) // 2)
    rest = []
    for a in a_side:
        if a != med and (yield (a, med)) is not EQ:
            rest.append(a)
    if len(rest) != na - big:
        return Outcome.GAVE_UP, None
    res = yield from brute_merge_sort_gen(rest, lambda x, y: False)
    order = res[1]
    runs = []
    for k, x in enumerate(order):
        if k > 0 and (yield (order[k - 1], x)) is EQ:
            runs[-1].append(x)
        else:
            runs.append([x])
    sized = [run for run in runs if len(run) == i]
    if len(sized) != 1:
        return Outcome.GAVE_UP, None
    for b in range(na, na + nb):
        if (yield (sized[0][0], b)) is EQ:
            return Outcome.DUPLICATE, (sized[0][0], b)
    return Outcome.GAVE_UP, None


def brute_si_family_answer(a_values, b_values, i: int):
    """What a family solver must say, from the values alone: the first
    A index of the A-cluster of size i with the first B index of its
    value, or GAVE_UP when B does not hold that value."""
    v = next(v for v, c in Counter(a_values).items() if c == i)
    for j, w in enumerate(b_values):
        if w == v:
            return Outcome.DUPLICATE, (a_values.index(v), len(a_values) + j)
    return Outcome.GAVE_UP, None
