"""Adaptive comparison adversaries over an implicit binary tree.

Elements carry bit-string positions (tree paths, root = empty string);
the tree itself is never materialized.  Answers are always derived from
the bit at which the two paths diverge after any movement, so
consistency with the final realized values is structural.  Realization
pushes each target cluster to a fresh leaf below its deepest member and
reads values off the lexicographic order of the terminal paths.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, groupby, repeat
from typing import Callable, Optional

from .core import Answer, CountingOracle, Instance, Outcome
from .profiles import ClusterProfile, derive_reduced
from .setint import SIInstance, si_family, si_shape, verify_bipartite
from .sortsel import drive_bounded

LT, EQ, GT = Answer.LT, Answer.EQ, Answer.GT


@dataclass
class AdversaryState:
    positions: list
    rounds_played: int
    transcript: list
    halted: Optional[tuple] = None  # set when the opponent stopped inside budget


def _diverge(pos, x, y) -> Answer:
    """The tree rule on the paths in `pos`, moving at most two elements
    one step each: equal paths split (x left, y right, answer LT); when
    one path is a proper prefix of the other, the shallower element
    steps to the sibling of the deeper one's next move, i.e. appends
    the complement of the deeper path's next bit.  The two paths have
    then diverged and are answered by string order, which decides at
    the first bit where they differ, as "0" < "1"."""
    px, py = pos[x], pos[y]
    if px == py:
        pos[x] = px + "0"
        pos[y] = py + "1"
        return LT
    if len(px) < len(py) and py.startswith(px):
        nxt = py[len(px)]
        px = px + ("1" if nxt == "0" else "0")
        pos[x] = px
    elif len(py) < len(px) and px.startswith(py):
        nxt = px[len(py)]
        py = py + ("1" if nxt == "0" else "0")
        pos[y] = py
    return LT if px < py else GT


class TreeAdversary:
    """Element-distinctness adversary: answers LT/GT only, never EQ,
    by the tree rule of _diverge on its positions."""

    def __init__(self, n: int):
        self.n = n
        self.positions = [""] * n

    def answer(self, x: int, y: int) -> Answer:
        return _diverge(self.positions, x, y)


def play_game(opponent_factory: Callable[[int], object], n: int,
              rounds: int) -> AdversaryState:
    """Drive an algorithm generator against the tree adversary.

    Stops after `rounds` comparisons or when the opponent halts.  A
    Duplicate claim is impossible (no EQ is ever answered) and raises; a
    Distinct claim is recorded in .halted and is an opponent failure,
    since the realization will contain duplicates.
    """
    adv = TreeAdversary(n)
    oracle = CountingOracle(adversary=adv.answer, n=n)
    result, finished = drive_bounded(opponent_factory(n), oracle, rounds)
    state = AdversaryState(adv.positions, oracle.count, oracle.transcript)
    if finished:
        if result[0] is Outcome.DUPLICATE:
            raise RuntimeError("opponent claims a duplicate but no EQ was answered")
        state.halted = result
    return state


def few_deep_index(state: AdversaryState, n: int) -> int:
    """Smallest i in [floor(loglog(n)/2), floor(loglog n)] with
    fewer than n/2^i elements at depth >= 2^i."""
    lln = math.log2(math.log2(n))
    lo, hi = int(math.floor(lln / 2)), int(math.floor(lln))
    depths = sorted(map(len, state.positions))
    for i in range(lo, hi + 1):
        deep = len(depths) - bisect_left(depths, 2 ** i)
        if deep < n / 2 ** i:
            return i
    raise RuntimeError("no few-deep index in range; depth budget violated")


# --- chain packing over a position trie -----------------------------------

class _Node:
    """Trie node: the elements whose path ends here, in index order, of
    which those before `lo` are packed, and `score`, the most unpacked
    elements on any downward chain from here (this node included)."""

    __slots__ = ("elems", "lo", "kids", "score")

    def __init__(self):
        self.elems = ()  # an occupied node gets its path's index list
        self.lo = 0
        self.kids = [None, None]  # the "0" and "1" children
        self.score = 0

    def rescore(self) -> None:
        c0, c1 = self.kids
        self.score = len(self.elems) - self.lo + max(c0.score if c0 else 0,
                                                     c1.score if c1 else 0)


def _by_path(positions) -> dict:
    """Each occupied path mapped to the indices of its elements, in
    increasing order, paths in string order.  One C-level stable sort
    of the indices by path; each run of one path is then found by
    binary search, so Python-level work is per distinct path."""
    at = positions.__getitem__
    order = sorted(range(len(positions)), key=at)
    runs = {}
    lo, n = 0, len(order)
    while lo < n:
        path = at(order[lo])
        hi = bisect_right(order, path, lo, key=at)
        runs[path] = order[lo:hi]
        lo = hi
    return runs


def _build_trie(positions):
    """Trie of all occupied paths, every node scored once.  Each distinct
    path is walked once and its node takes that path's index-ordered
    element list."""
    root = _Node()
    made = [root]  # parents before children
    for path, elems in _by_path(positions).items():
        node = root
        for b in path:
            kids = node.kids
            k = b == "1"
            child = kids[k]
            if child is None:
                child = kids[k] = _Node()
                made.append(child)
            node = child
        node.elems = elems
    for node in reversed(made):
        node.rescore()
    return root


def _extract_chain(root, take: int):
    """Remove and return `take` elements from the max-count root-to-leaf
    chain: shallowest first, ties by index, the '0' child preferred when
    both children score the same.  None when no chain holds that many.

    The walk stops at the node that completes the pick.  Packed elements
    are an index-ordered prefix of each node's list, so taking them only
    advances the node's cursor, and only the walked nodes change score:
    one extraction costs O(depth of that node + take).
    """
    if root.score < take:
        return None
    picked = []
    path = []
    node = root
    while True:
        path.append(node)
        t = min(take - len(picked), len(node.elems) - node.lo)
        picked += node.elems[node.lo:node.lo + t]
        node.lo += t
        if len(picked) == take:
            break
        c0, c1 = node.kids
        node = c0 if c1 is None or (c0 is not None
                                    and c0.score >= c1.score) else c1
    for node in reversed(path):
        node.rescore()
    return picked


def _shallowest_first(root) -> list:
    """Unpacked elements ordered by (depth, path, index): the trie in
    level order, '0' child before '1', skipping emptied subtrees."""
    out = []
    level = [root]
    while level:
        for node in level:
            out += node.elems[node.lo:]
        level = [c for node in level for c in node.kids if c and c.score]
    return out


def _pack(positions, sizes):
    """Extract one chain per size, in order, until no chain holds the
    next size.  Returns (chains, unpacked elements shallowest first)."""
    root = _build_trie(positions)
    chains = []
    for size in sizes:
        picked = _extract_chain(root, size)
        if picked is None:
            break
        chains.append(picked)
    return chains, _shallowest_first(root)


def pack_isomorphic(state: AdversaryState, profile: ClusterProfile):
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
    sizes = profile.sizes
    order = sorted(range(profile.m), key=sizes.__getitem__, reverse=True)
    big = [cid for cid in order if sizes[cid] > 1]
    chains, rest = _pack(state.positions, (sizes[cid] for cid in big))
    if len(chains) < len(big):
        raise RuntimeError("no chain can hold this cluster; "
                           "packing budget was violated")
    clusters: list = [None] * profile.m
    for cid, chain in zip(big, chains):
        clusters[cid] = chain
    for cid, elem in zip(order[len(big):], rest):
        clusters[cid] = [elem]
    return clusters


def pack_separation(state: AdversaryState, L: int):
    """Greedy chains of exactly L while any chain holds L elements,
    then singletons.  Returns (big_clusters, singleton_clusters); for
    L >= 2 the concatenation is exactly what pack_isomorphic produces
    for the profile [L]*q + [1]*(n - q*L)."""
    if L < 1:
        raise ValueError("chain length L must be >= 1")
    bigs, rest = _pack(state.positions, repeat(L))
    return bigs, [[i] for i in rest]


def reconstruct(state: AdversaryState, profile: ClusterProfile):
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
    reduced, _ = derive_reduced(profile)
    sizes = profile.sizes
    order_desc = sorted(range(profile.m), key=sizes.__getitem__,
                        reverse=True)
    gprime_ids = order_desc[profile.m - reduced.m:]

    nodes = _by_path(state.positions)
    roots = nodes.pop("", [])
    pools = [nodes[p] for p in sorted(nodes, key=lambda p: (len(p), p))]
    clusters: list = [None] * profile.m
    fallback = False
    ni = lo = r = 0  # current node, taken from it, taken from roots
    for cid in gprime_ids:
        while ni < len(pools) and lo == len(pools[ni]):
            ni, lo = ni + 1, 0
        if ni == len(pools):
            fallback = True
            break
        t = min(sizes[cid], len(pools[ni]) - lo)
        need = sizes[cid] - t
        if need > len(roots) - r:
            raise RuntimeError("root pool exhausted while topping up")
        clusters[cid] = pools[ni][lo:lo + t] + roots[r:r + need]
        lo += t
        r += need
    # order_desc is a stable sort, so this keeps ties in index order
    leftovers = [cid for cid in order_desc if clusters[cid] is None]
    for cid in leftovers:
        s = sizes[cid]
        if s > len(roots) - r:
            raise RuntimeError("root pool exhausted while forming clusters")
        clusters[cid] = roots[r:r + s]
        r += s
    return clusters, fallback


def realize(state: AdversaryState, clusters) -> Instance:
    """Move each cluster to a fresh leaf and read off values.

    Cluster c's terminal key is its anchor (deepest member's path) +
    zero padding + '1' + c as a fixed-width binary counter; all keys
    share one length, so they are pairwise distinct and non-prefix.
    Values are the keys' lexicographic ranks, hence equal within a
    cluster and consistent with every answered divergence.

    The keys are never built.  Write a key as s + 0...0 + '1' + c with
    s the anchor stripped of trailing zeros, so s is empty or ends in
    '1'.  Equal s leave the counters to decide.  Where s and s' first
    differ, so do the keys.  Where s is a proper prefix of s', the rest
    of s' is some zeros and then a '1' at an offset where s's key still
    pads with zeros (the keys are equally long), so s's key is smaller,
    just as s < s'.  Hence sorting by (s, c) ranks the keys.

    si_adversary_game realizes here too, and its natural keys are not
    all equally long: an A-cluster's key is its leaf, s padded with
    zeros to the leaf depth, and a B-singleton's is its path p + '1'
    padded to the same depth and then followed by a counter in B-index
    order.  Stepping each B-element to its '1' child makes its stripped
    anchor exactly p + '1', and every s fits inside the leaf depth, so
    the argument above still orders keys with different s.  Where s
    ties, the A-key is a proper prefix of the B-key, hence smaller, and
    B-keys fall back on their counters.  Numbering the A-clusters first
    and the B-singletons after them by index therefore gives the same
    ranks.
    """
    pos = state.positions
    n = len(pos)
    members = chain.from_iterable
    if sum(map(len, clusters)) != n or n and (min(members(clusters)) < 0
                                             or max(members(clusters)) >= n):
        raise ValueError("assignment must cover every element exactly once")
    # n members, all in range: they cover every element exactly once iff
    # none is missed.  Tag each element with its cluster id (the tags
    # become values below) and look for an untagged one.  A plain loop:
    # in CPython 3.11 it stores twice as fast as map(setitem, ...).  The
    # same int objects serve as ids and as ranks, so no short-lived ints
    # are scattered among the ranks the instance keeps; fresh id ints
    # raised separation_row(65536)'s peak RSS by about 0.7 MB.
    m = len(clusters)
    ids = list(range(m))
    cids = [None] * n
    for cid, c in zip(ids, clusters):
        for i in c:
            cids[i] = cid
    if None in cids:
        raise ValueError("assignment must cover every element exactly once")
    at = pos.__getitem__
    anchors = []
    for cid, c in enumerate(clusters):
        if len(c) == 1:  # a singleton is its own anchor
            anchors.append(at(c[0]))
            continue
        if not c:
            raise ValueError(f"cluster {cid} is empty")
        paths = set(map(at, c))  # members share paths: check each once
        anchor = max(paths, key=len)
        if not all(map(anchor.startswith, paths)):
            raise ValueError("cluster is not a chain in the tree")
        anchors.append(anchor)
    anchors = list(map(str.rstrip, anchors, repeat("0")))
    rank = [0] * m
    for r, cid in zip(ids, sorted(ids, key=anchors.__getitem__)):
        rank[cid] = r
    return Instance(tuple(map(rank.__getitem__, cids)))


# --- set-intersection adversary --------------------------------------------

class SIAdversary:
    """B-elements walk down the tree; A-elements sit at fixed leaves.

    Indices 0..n-1 are A, n..2n-1 are B, and `positions` holds the
    A-leaves and then the B-paths.  The big A-cluster occupies the
    leftmost leaf (smallest value); the type-1 cluster j sits at one
    leaf below the j-th depth-l node.  Leaf depth exceeds the round
    budget, so a B-element can never reach or pass an A-leaf, and the
    tree rule of _diverge only ever moves B-elements.  Same-cluster A
    pairs answer EQ (true equalities, not witnesses).
    """

    def __init__(self, n: int):
        s, self.big = si_shape(n)
        self.n = n
        self.s = s
        self.l = round(math.log2(n)) // 3
        self.rounds_budget = n * self.l // 2
        self.depth_leaf = self.rounds_budget + self.l + 2
        leaves = ["0" * self.depth_leaf]
        self.a_cluster = [0] * self.big
        for j in range(1, s + 1):
            u = format(j - 1, f"0{self.l}b")
            leaves.append(u + "1" + "0" * (self.depth_leaf - self.l - 1))
            self.a_cluster.extend([j] * j)
        assert len(self.a_cluster) == n
        self.positions = [leaves[c] for c in self.a_cluster] + [""] * n

    def answer(self, x: int, y: int) -> Answer:
        n, a = self.n, self.a_cluster
        if x < n and y < n and a[x] == a[y]:
            return EQ
        return _diverge(self.positions, x, y)


@dataclass
class SIGameReport:
    instance: SIInstance
    j: int
    rounds_played: int
    transcript: list
    opponent_finished: bool
    opponent_result: Optional[tuple]


def si_adversary_game(opponent_factory: Callable[[int], object],
                      n: int) -> SIGameReport:
    """Run the bipartite game and realize the hard instance.

    After floor(n*l/2) rounds some B-element x still sits at depth <= l
    (each round adds at most 2 depth in total); the shallowest such x is
    merged into the type-1 cluster below it: x was never answered
    against that cluster, otherwise x would have diverged away from its
    subtree.  Every other B-element steps to its '1' child and becomes a
    fresh singleton; realize then reads off an instance of
    si_family(n, j).
    """
    adv = SIAdversary(n)
    oracle = CountingOracle(adversary=adv.answer, n=2 * n)
    result, finished = drive_bounded(opponent_factory(n), oracle,
                                     adv.rounds_budget)
    pos = adv.positions
    xb = min(range(n, 2 * n), key=lambda i: len(pos[i]))
    if len(pos[xb]) > adv.l:
        raise RuntimeError("every B-element is deep; depth budget violated")
    j = int((pos[xb] + "0" * adv.l)[:adv.l], 2) + 1
    # A-clusters first, then the B-singletons by index: see realize.
    # Cluster c's members are a_cluster's contiguous run of c.
    clusters = [list(run) for _, run in
                groupby(range(n), adv.a_cluster.__getitem__)]
    clusters[j].append(xb)
    for i in range(n, 2 * n):
        if i != xb:
            pos[i] += "1"
            clusters.append([i])
    values = realize(AdversaryState(pos, oracle.count, oracle.transcript),
                     clusters).values
    inst = SIInstance(values[:n], values[n:])
    if not verify_bipartite(inst, si_family(n, j)):
        raise RuntimeError("realized instance is not in the target family")
    return SIGameReport(inst, j, oracle.count, oracle.transcript,
                        finished, result if finished else None)
