"""Set intersection in the comparison model.

A and B live in one combined index space (A first), so the counting
oracle and the generator protocol carry over unchanged; an intersection
witness is an EQ between opposite sides, which the kernels and
``harness.check_report`` test as ``cross_at=na``.  Equalities inside one
side are legitimate input structure, never output.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain, groupby

from .algorithms import doubling_spans
from .core import (CountingOracle, Instance, Outcome, RunReport,
                   parse_int_line, text_lines, write_lines)
from .sortsel import (EQ, check_indices, drive, merge_sort_gen, select,
                      select_gen, sort_spans, sort_spans_gen)


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
    """Multiset of (a_size, b_size) cluster pairs; equality is isomorphism.

    Held as ``counts``, a Counter from each (a_size, b_size) shape to the
    number of clusters of that shape, so building, comparing and hashing
    cost one C-level pass over the pairs plus work in the number of
    distinct shapes; nothing sorts the clusters.
    """

    def __init__(self, clusters):
        # int() every distinct pair before any is checked, as a pass over
        # all pairs would: a bad size is reported before a bad sign
        shapes = Counter()
        for (a, b), m in Counter(map(tuple, clusters)).items():
            shapes[int(a), int(b)] += m
        self._hold(shapes)

    @classmethod
    def _of_shapes(cls, shapes: Counter) -> BipartiteProfile:
        """The profile with shapes[a, b] >= 1 clusters of each int shape
        (a, b), for callers that count shapes rather than list clusters."""
        prof = cls.__new__(cls)
        prof._hold(shapes)
        return prof

    def _hold(self, shapes: Counter) -> None:
        if any(a < 0 or b < 0 or a + b < 1 for a, b in shapes):
            raise ValueError("each cluster needs non-negative sizes, one positive")
        self.counts = shapes
        self.a_total = sum(a * m for (a, _), m in shapes.items())
        self.b_total = sum(b * m for (_, b), m in shapes.items())

    @property
    def clusters(self) -> list:
        """Every (a_size, b_size) pair, one per cluster, sorted."""
        return sorted(self.counts.elements())

    def __eq__(self, other):
        return (isinstance(other, BipartiteProfile)
                and self.counts == other.counts)

    def __hash__(self):
        return hash(frozenset(self.counts.items()))

    def __repr__(self):
        return f"BipartiteProfile({self.clusters})"


def bipartite_profile_of(inst: SIInstance) -> BipartiteProfile:
    a_counts = Counter(inst.a_values)
    b_counts = Counter(inst.b_values)
    both = a_counts.keys() & b_counts.keys()
    a_both = list(map(a_counts.get, both))
    b_both = list(map(b_counts.get, both))
    # a value on one side only is an (a, 0) or (0, b) cluster, so only the
    # values on both sides need their two counts paired into a shape
    shapes = Counter(zip(a_both, b_both))
    for a, m in (Counter(a_counts.values()) - Counter(a_both)).items():
        shapes[a, 0] = m
    for b, m in (Counter(b_counts.values()) - Counter(b_both)).items():
        shapes[0, b] = m
    return BipartiteProfile._of_shapes(shapes)


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
    shapes = Counter((j, int(j == i)) for j in range(1, s + 1))
    shapes[0, 1] += n - 1
    shapes[big, 0] += 1
    return BipartiteProfile._of_shapes(shapes)


def si_a_clusters(n: int) -> list:
    """The cluster id of each A index of si_family(n, i), in canonical
    order: the big cluster 0, then type-1 cluster j repeated j times for
    j = 1..s.  The layout does not depend on i."""
    s, big = si_shape(n)
    return [0] * big + [j for j in range(1, s + 1) for _ in range(j)]


def realize_si_family(n: int, i: int, seed: int = 0,
                      partner_last: bool = False) -> SIInstance:
    """Concrete values for si_family(n, i), big cluster smallest.

    A is laid out by ``si_a_clusters``.  The big A-cluster takes rank 0
    (canonical form expected by si_clairvoyant); everything else gets
    shuffled ranks and positions.
    partner_last pins B's intersecting element to B's final position.
    """
    rng = random.Random(seed)
    prof = si_family(n, i)
    s, _ = si_shape(n)
    ranks = list(range(1, s + n))  # one per cluster beyond the big one
    rng.shuffle(ranks)
    # the big cluster takes 0, type-1 cluster j takes ranks[j - 1] and
    # the B-singletons take the rest
    a_vals = list(map([0, *ranks[:s]].__getitem__, si_a_clusters(n)))
    b_vals = ranks[s:]
    rng.shuffle(a_vals)
    if partner_last:
        rng.shuffle(b_vals)
        b_vals.append(ranks[i - 1])
    else:
        b_vals.append(ranks[i - 1])
        rng.shuffle(b_vals)
    inst = SIInstance(tuple(a_vals), tuple(b_vals))
    if not verify_bipartite(inst, prof):
        raise RuntimeError("realized instance is not in the target family")
    return inst


def si_doubling_gen(na: int, nb: int):
    """Joint-sort growing prefixes of both sides; cross EQ is a witness.

    k doubles; each round merge sorts the first min(na, k) A-indices
    together with the first min(nb, k) B-indices from scratch.  Same-
    side EQ continues as a tie.  The final joint sort (the first k >=
    both sides) certifies disjointness: any cross-equal pair in a fully
    sorted multiset gets directly compared during some merge.  A plain
    function that returns the `sort_spans_gen` generator over
    ``doubling_spans(na, nb)``, with ``cross_at=na``; the runner
    `si_doubling` sorts the same spans through `sort_spans`.

    The witness comes out as (A index, B index) with no reordering.  A
    merge asks (left item, right item), and its left span precedes its
    right span in the list, where all A-indices precede all B-indices:
    a right span that holds an A-index has a left span of A-indices.
    """
    return sort_spans_gen(doubling_spans(na, nb), Outcome.DISTINCT,
                          cross_at=na)


def si_doubling(oracle: CountingOracle, na: int, nb: int) -> RunReport:
    return sort_spans(oracle, doubling_spans(na, nb), Outcome.DISTINCT,
                      cross_at=na)


def si_clairvoyant_gen(na: int, nb: int, i: int):
    """Exploit the family structure: strip the big cluster, find cluster i.

    Median-select on A lands inside the big cluster (it is smaller than
    everything and holds more than half of A); the partition discards
    its equal-to-median mass.  The O(n^(2/3)) leftovers are sorted and
    clustered by adjacent equality; the unique cluster of size i gives
    an element to scan B with, stopping at the first EQ.  Structural
    surprises give up rather than guess.
    """
    _, big = si_shape(na)
    items = range(na)
    med = yield from select_gen(items, (na + 1) // 2)
    rest = []
    for a in items:
        if a == med:
            continue
        ans = yield (a, med)
        if ans is not EQ:
            rest.append(a)
    if len(rest) != na - big:
        return Outcome.GAVE_UP, None
    res = yield from merge_sort_gen(rest, cross_at=na)  # A only: no witness
    order = res[1]
    clusters = [[order[0]]]
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
    """The report of ``si_clairvoyant_gen(na, nb, i)``.

    An adversary-mode oracle drives the generator.  On a realized
    instance each step is evaluated from the values, with no request,
    and charged the requests the generator would make: the select
    through ``select``, the strip (na - 1), the A-only sort through
    ``sort_spans``, the adjacency scan (one fewer than the items sorted)
    and the B probe up to its first equal.  Indices 0..na+nb-1 must all exist; that is
    checked before anything is charged.
    """
    if n != na:
        raise ValueError("canonical family instance expected")
    start = oracle.count
    vals = oracle._values
    if vals is None:
        outcome, witness = drive(si_clairvoyant_gen(na, nb, i), oracle)
        return RunReport(outcome, witness, oracle.count - start)
    _, big = si_shape(na)
    check_indices(len(vals), range(na + nb))
    pv = vals[select(oracle, range(na), (na + 1) // 2)]
    rest = [a for a in range(na) if vals[a] != pv]
    oracle.count += na - 1
    outcome, witness = Outcome.GAVE_UP, None
    if len(rest) == na - big:
        sort_spans(oracle, [rest], Outcome.DISTINCT, cross_at=na)
        order = sorted(rest, key=vals.__getitem__)
        oracle.count += len(order) - 1
        runs = [list(g) for _, g in groupby(order, vals.__getitem__)]
        sized = [run for run in runs if len(run) == i]
        if len(sized) == 1:
            probe = sized[0][0]
            try:
                hit = vals.index(vals[probe], na, na + nb)
            except ValueError:  # B does not hold the probe's value
                oracle.count += nb
            else:
                oracle.count += hit - na + 1
                outcome, witness = Outcome.DUPLICATE, (probe, hit)
    return RunReport(outcome, witness, oracle.count - start)


# --- file format: "A:" section then "B:" section, decimal ranks -----------

def write_si_instance(path, inst: SIInstance) -> None:
    write_lines(path, chain(["A:"], inst.a_values, ["B:"], inst.b_values))


def read_si_instance(path) -> SIInstance:
    a_vals, b_vals = [], []
    sections = {"A:": a_vals, "B:": b_vals}
    target = None
    for no, line in text_lines(path):
        if line in sections:
            target = sections[line]
            if target is None:
                raise ValueError(
                    f"{path}:{no}: repeated section header {line}")
            sections[line] = None
        else:
            if target is None:
                raise ValueError(
                    f"{path}:{no}: values before any section header")
            target.append(parse_int_line(path, no, line))
    for name, vals in (("A", a_vals), ("B", b_vals)):
        if not vals:
            raise ValueError(f"{path}: no values in section {name}:")
    return SIInstance(tuple(a_vals), tuple(b_vals))
