"""Independent reference implementations used to cross-check the package.

Everything here recomputes results from first principles with full scans
over every parameter value L in {1..n+1}, deliberately ignoring the
piecewise-constant structure the library exploits.  Float expressions
mirror the documented contract term by term so equality checks are
bit-for-bit, not approximate.
"""

import math

from edlab.adversary import AdversaryState
from edlab.core import Instance
from edlab.profiles import ClusterProfile


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
    for c in clusters:
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
