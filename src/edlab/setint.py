"""Set intersection in the comparison model.

A and B live in one combined index space (A first), so the counting
oracle and the generator protocol carry over unchanged; an intersection
witness is an EQ between opposite sides.  Equalities inside one side
are legitimate input structure, never output.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import (CountingOracle, Instance, Outcome, RunReport,
                   parse_int_line)
from .sortsel import EQ, drive, merge_sort_gen, select_gen


@dataclass(frozen=True)
class SIInstance:
    a_values: tuple
    b_values: tuple

    @property
    def na(self):
        return len(self.a_values)

    @property
    def nb(self):
        return len(self.b_values)

    def combined(self) -> Instance:
        return Instance(tuple(self.a_values) + tuple(self.b_values))

    def oracle(self) -> CountingOracle:
        return CountingOracle(instance=self.combined())


class BipartiteProfile:
    """Multiset of (a_size, b_size) cluster pairs; equality is isomorphism."""

    def __init__(self, clusters):
        clusters = [(int(a), int(b)) for a, b in clusters]
        if any(a < 0 or b < 0 or a + b < 1 for a, b in clusters):
            raise ValueError("each cluster needs non-negative sizes, one positive")
        self.clusters = clusters
        self.a_total = sum(a for a, _ in clusters)
        self.b_total = sum(b for _, b in clusters)

    def __eq__(self, other):
        return (isinstance(other, BipartiteProfile)
                and sorted(self.clusters) == sorted(other.clusters))

    def __hash__(self):
        return hash(tuple(sorted(self.clusters)))

    def __repr__(self):
        return f"BipartiteProfile({self.clusters})"


def bipartite_profile_of(inst: SIInstance) -> BipartiteProfile:
    a_counts = Counter(inst.a_values)
    b_counts = Counter(inst.b_values)
    clusters = [(a_counts.get(v, 0), b_counts.get(v, 0))
                for v in set(a_counts) | set(b_counts)]
    return BipartiteProfile(clusters)


def verify_bipartite(inst: SIInstance, profile: BipartiteProfile) -> bool:
    return bipartite_profile_of(inst) == profile


def si_shape(n: int) -> tuple[int, int]:
    """(s, big) for a family size n = 2^(3t), t >= 1: the exact cube
    root s and the size n - s(s+1)/2 of the big A-cluster."""
    s = round(n ** (1 / 3))
    while s ** 3 < n:
        s += 1
    if s ** 3 != n or s < 2 or s & (s - 1):
        raise ValueError("n must be 2**(3t) for integer t >= 1")
    return s, n - s * (s + 1) // 2


def si_family(n: int, i: int) -> BipartiteProfile:
    """The hard bipartite family: which type-1 cluster intersects B is i.

    Clusters: (j, [j == i]) for j = 1..n^(1/3); n-1 of (0, 1); one big
    (n - n^(1/3)(n^(1/3)+1)/2, 0).  Requires n = 2^(3t) so the cube
    root is exact.
    """
    s, big = si_shape(n)
    if not 1 <= i <= s:
        raise ValueError(f"i must be in 1..{s}")
    clusters = [(j, 1 if j == i else 0) for j in range(1, s + 1)]
    clusters.extend([(0, 1)] * (n - 1))
    clusters.append((big, 0))
    return BipartiteProfile(clusters)


def realize_si_family(n: int, i: int, seed: int = 0,
                      partner_last: bool = False) -> SIInstance:
    """Concrete values for si_family(n, i), big cluster smallest.

    The big A-cluster takes rank 0 (canonical form expected by
    si_clairvoyant); everything else gets shuffled ranks and positions.
    partner_last pins B's intersecting element to B's final position.
    """
    import random
    rng = random.Random(seed)
    prof = si_family(n, i)
    s, big = si_shape(n)
    ranks = list(range(1, s + n))  # one per cluster beyond the big one
    rng.shuffle(ranks)
    it = iter(ranks)
    type1_rank = {j: next(it) for j in range(1, s + 1)}
    b_single_ranks = [next(it) for _ in range(n - 1)]
    a_vals = [0] * big
    for j in range(1, s + 1):
        a_vals.extend([type1_rank[j]] * j)
    b_vals = list(b_single_ranks)
    rng.shuffle(a_vals)
    if partner_last:
        rng.shuffle(b_vals)
        b_vals.append(type1_rank[i])
    else:
        b_vals.append(type1_rank[i])
        rng.shuffle(b_vals)
    inst = SIInstance(tuple(a_vals), tuple(b_vals))
    assert verify_bipartite(inst, prof)
    return inst


def _cross_witness(na):
    def witness(x, y):
        return (x < na) != (y < na)
    return witness


def _orient(na, x, y):
    return (x, y) if x < na else (y, x)


def si_doubling_gen(na: int, nb: int):
    """Joint-sort growing prefixes of both sides; cross EQ is a witness.

    k doubles; each round merge sorts the first min(na, k) A-indices
    together with the first min(nb, k) B-indices from scratch.  Same-
    side EQ continues as a tie.  The final joint sort (k >= both sides)
    certifies disjointness: any cross-equal pair in a fully sorted
    multiset gets directly compared during some merge.
    """
    wit = _cross_witness(na)
    k = 2
    while True:
        idxs = list(range(min(na, k))) + [na + j for j in range(min(nb, k))]
        res = yield from merge_sort_gen(idxs, witness=wit)
        if res[0] == "dup":
            return Outcome.DUPLICATE, _orient(na, res[1], res[2])
        if k >= max(na, nb):
            return Outcome.DISTINCT, None
        k *= 2


def si_doubling(oracle: CountingOracle, na: int, nb: int) -> RunReport:
    start = oracle.count
    outcome, witness = drive(si_doubling_gen(na, nb), oracle)
    return RunReport(outcome, witness, oracle.count - start)


def si_clairvoyant_gen(na: int, nb: int, i: int, n: int):
    """Exploit the family structure: strip the big cluster, find cluster i.

    Median-select on A lands inside the big cluster (it is smaller than
    everything and holds more than half of A); the partition discards
    its equal-to-median mass.  The O(n^(2/3)) leftovers are sorted and
    clustered by adjacent equality; the unique cluster of size i gives
    an element to scan B with, stopping at the first EQ.  Structural
    surprises give up rather than guess.
    """
    s = round(n ** (1 / 3))
    if s ** 3 != n or na != n:
        raise ValueError("canonical family instance expected")
    expected_rest = s * (s + 1) // 2
    items = list(range(na))
    med = yield from select_gen(items, (na + 1) // 2)
    rest = []
    for a in items:
        if a == med:
            continue
        ans = yield (a, med)
        if ans is not EQ:
            rest.append(a)
    if len(rest) != expected_rest:
        return Outcome.GAVE_UP, None
    res = yield from merge_sort_gen(rest, witness=lambda x, y: False)
    order = res[1]
    clusters = [[order[0]]] if order else []
    for prev, cur in zip(order, order[1:]):
        ans = yield (prev, cur)
        if ans is EQ:
            clusters[-1].append(cur)
        else:
            clusters.append([cur])
    sized = [c for c in clusters if len(c) == i]
    if len(sized) != 1:
        return Outcome.GAVE_UP, None
    probe = sized[0][0]
    for b in range(na, na + nb):
        ans = yield (probe, b)
        if ans is EQ:
            return Outcome.DUPLICATE, (probe, b)
    return Outcome.GAVE_UP, None


def si_clairvoyant(oracle: CountingOracle, na: int, nb: int, i: int,
                   n: int) -> RunReport:
    start = oracle.count
    outcome, witness = drive(si_clairvoyant_gen(na, nb, i, n), oracle)
    return RunReport(outcome, witness, oracle.count - start)


# --- file format: "A:" section then "B:" section, decimal ranks -----------

def write_si_instance(path, inst: SIInstance) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("A:\n")
        for v in inst.a_values:
            fh.write(f"{v}\n")
        fh.write("B:\n")
        for v in inst.b_values:
            fh.write(f"{v}\n")


def read_si_instance(path) -> SIInstance:
    a_vals, b_vals = [], []
    target = None
    with open(path, encoding="utf-8") as fh:
        for no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line == "A:":
                target = a_vals
            elif line == "B:":
                target = b_vals
            else:
                if target is None:
                    raise ValueError(
                        f"{path}:{no}: values before any section header")
                target.append(parse_int_line(path, no, line))
    return SIInstance(tuple(a_vals), tuple(b_vals))
