"""sortsel.sort_spans against the generator it stands in for.

On a realized instance sort_spans evaluates each span from the values;
result, oracle.count and stats must equal what driving sort_spans_gen
gives.  In adversary mode it drives that generator, so the transcript
is the generator's.  The span runners must then issue no request at all
on a realized instance, and neither may median recursion, clairvoyant,
preprocessed runs, selection or SI clairvoyant, which evaluate select
and the median partitions from the values (tests/test_value_evaluators.py).  Both forms agree on spans of distinct in-range
indices; on a realized instance any other span is refused before its
first merge.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bruteforce import recording_oracle
from edlab import algorithms
from edlab.algorithms import (_block_spans, block_sorting, clairvoyant,
                               doubling_spans, order_doubling)
from edlab.core import CountingOracle, Instance, Outcome
from edlab.profiles import ClusterProfile
from edlab.setint import realize_si_family, si_clairvoyant, si_doubling
from edlab.sortsel import drive, select, sort_spans, sort_spans_gen


@st.composite
def cases(draw, max_n=60):
    """(values, spans, cross_at): all-distinct or small-range values,
    one to four spans, each a subset of the indices in any order, and a
    cut anywhere or none."""
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        values = draw(st.permutations(range(n)))
    else:
        hi = draw(st.integers(0, max(1, n // 4)))
        values = draw(st.lists(st.integers(0, hi), min_size=n, max_size=n))
    spans = []
    for _ in range(draw(st.integers(1, 4))):
        order = draw(st.permutations(range(n)))
        spans.append(order[:draw(st.integers(0, n))])
    cross_at = draw(st.one_of(st.none(), st.integers(0, n)))
    return values, spans, cross_at


def _verdict(rep):
    return rep.outcome, rep.witness


def _both(values, spans, cross_at, end=Outcome.DISTINCT):
    """(result, count, stats) from the generator, then from sort_spans."""
    out = []
    for run in (lambda o, st_: drive(sort_spans_gen(spans, end, cross_at, st_), o),
                lambda o, st_: _verdict(sort_spans(o, spans, end, cross_at,
                                                   st_))):
        oracle, stats = CountingOracle(Instance(tuple(values))), {}
        out.append((run(oracle, stats), oracle.count, stats))
    return out


@settings(max_examples=400, deadline=None)
@given(case=cases())
@example(case=([0], [[0]], None))
@example(case=([0], [[], [0]], 0))
@example(case=([5, 5], [[0, 1]], None))
@example(case=([5, 5], [[1, 0]], 1))
@example(case=([5, 5], [[0, 1]], 0))
@example(case=([2, 1], [[0], [1, 0]], None))
@example(case=([1, 1, 1, 0, 0], [[0, 1, 2, 3, 4]], 3))
@example(case=([3, 1, 3, 1, 2, 2], [[5, 4, 3, 2, 1, 0]], 2))
def test_sort_spans_matches_generator(case):
    values, spans, cross_at = case
    gen, fast = _both(values, spans, cross_at)
    assert fast == gen


def _values(rng, n, kind):
    """n values: all distinct, distinct but for one planted equal pair,
    or drawn from n // 8 values (at least one), so ties are everywhere."""
    if kind == "tied":
        return [rng.randrange(max(1, n // 8)) for _ in range(n)]
    values = rng.sample(range(4 * n), n)
    if kind == "planted":
        values[rng.randrange(n)] = values[rng.randrange(n)]
    return values


def _si_values(rng, na, nb, kind):
    """A's na values, then B's nb: each side ties only within itself
    ("tied" draws A from na // 8 values), and "planted" gives one B item
    an A item's value, so a cross witness lies in the last spans."""
    a = _values(rng, na, "tied" if kind == "tied" else "distinct")
    b = [v + 4 * na for v in _values(rng, nb, "distinct")]
    if kind == "planted":
        b[rng.randrange(nb // 2, nb)] = a[rng.randrange(na)]
    return a + b


def _spans(spans):
    # the runners' spans are one-shot iterators; each run needs its own
    return [list(span) for span in spans]


def _long_span_cases():
    """(values, spans, cross_at) with spans of 256 or more indices,
    whose subtrees form the contiguous ascending runs of 64 or more that
    sort_spans reuses across spans, plus shuffled spans that it cannot
    reuse.  Each span family meets all-distinct, planted and tied
    values."""
    rng = random.Random(20)
    out = []
    for kind in ("distinct", "planted", "tied"):
        for n in (256, 300, 700):
            out.append(pytest.param(_values(rng, n, kind),
                                    _spans(doubling_spans(n)), None,
                                    id=f"doubling-{n}-{kind}"))
        for na, nb in ((256, 256), (300, 520), (512, 100), (300, 1),
                       (1, 300)):
            out.append(pytest.param(_si_values(rng, na, nb, kind),
                                    _spans(doubling_spans(na, nb)), na,
                                    id=f"si-doubling-{na}-{nb}-{kind}"))
        values = _values(rng, 640, kind)
        for k in (64, 100, 256):
            out.append(pytest.param(values,
                                    _spans(_block_spans(range(640), k)),
                                    None, id=f"block-{k}-{kind}"))
        for cross_at in (None, 0, 200, 640):
            tag = f"{cross_at}-{kind}"
            out += [
                pytest.param(values, [range(40, 360)] * 3, cross_at,
                             id=f"repeated-{tag}"),
                pytest.param(values, [range(40 + j, 360 + j)
                                      for j in range(4)],
                             cross_at, id=f"shifted-{tag}"),
                pytest.param(values, [rng.sample(range(640), m)
                                      for m in (256, 300, 640)],
                             cross_at, id=f"shuffled-{tag}")]
    for i in (1, 3, 8):
        si = realize_si_family(512, i, seed=i)
        out.append(pytest.param(list(si.a_values + si.b_values),
                                _spans(doubling_spans(si.na, si.nb)), si.na,
                                id=f"si-family-512-{i}"))
    return out


@pytest.mark.parametrize("values, spans, cross_at", _long_span_cases())
def test_sort_spans_matches_generator_on_long_spans(values, spans, cross_at):
    gen, fast = _both(values, spans, cross_at)
    assert fast == gen


@pytest.mark.parametrize("cross_at", [None, 100])
def test_sort_spans_refuses_an_ascending_span_by_its_ends(cross_at):
    # a strictly ascending span is checked by its two ends; a bad one is
    # refused with check_indices' message, and only the spans before it
    # are charged
    values = _values(random.Random(3), 300, "distinct")
    for span, bad in ((range(301), 300), (range(-1, 299), -1)):
        oracle = CountingOracle(Instance(tuple(values)))
        with pytest.raises(ValueError,
                           match=f"^index out of range: {bad} with n=300$"):
            sort_spans(oracle, [span], Outcome.DISTINCT, cross_at)
        assert oracle.count == 0
        oracle = CountingOracle(Instance(tuple(values)))
        with pytest.raises(ValueError, match="^index out of range"):
            sort_spans(oracle, [range(256), span], Outcome.DISTINCT,
                       cross_at)
        (_, want, _), _ = _both(values, [range(256)], cross_at)
        assert oracle.count == want


def test_sort_spans_replays_generator_transcript_in_adversary_mode():
    values = [4, 1, 3, 1, 0, 2, 4, 5]
    spans = [[0, 1, 2], [7, 6, 5, 4, 3, 2, 1, 0]]
    for cross_at in (None, 4):
        ref, got = recording_oracle(values), recording_oracle(values)
        ref_stats, got_stats = {}, {}
        want = drive(sort_spans_gen(spans, Outcome.DISTINCT, cross_at,
                                    ref_stats), ref)
        assert _verdict(sort_spans(got, spans, Outcome.DISTINCT, cross_at,
                                   got_stats)) == want
        assert got.transcript == ref.transcript
        assert (got.count, got_stats) == (ref.count, ref_stats)


_VALUES = (4, 1, 3, 1, 0, 2, 4, 5)
_PROFILE = ClusterProfile([2, 2, 1, 1, 1, 1])  # the clusters of _VALUES
_SPANS = [[0, 1, 2], [7, 6, 5, 4, 3, 2, 1, 0]]
_SI = realize_si_family(64, 2, seed=1)


@pytest.mark.parametrize("make", [lambda v: CountingOracle(Instance(v)),
                                  recording_oracle],
                         ids=["instance", "adversary"])
@pytest.mark.parametrize("values, runner", [
    (_VALUES, lambda o: sort_spans(o, _SPANS, Outcome.DISTINCT)),
    (_VALUES, lambda o: sort_spans(o, _SPANS, Outcome.DISTINCT, 4)),
    (_VALUES, lambda o: algorithms.median_recursion(o, range(8), 2)),
    (_VALUES, algorithms.oblivious),
    (_VALUES, lambda o: clairvoyant(o, _PROFILE)),
    (_VALUES, lambda o: algorithms.run_preprocessed(
        algorithms.preprocess(_PROFILE), o)),
    (_SI.combined().values,
     lambda o: si_clairvoyant(o, _SI.na, _SI.nb, 2, _SI.na))],
    # sort_spans's two cases are named by their witness cut
    ids=["None", "4", "median", "oblivious", "clairvoyant", "preprocessed",
         "si_clairvoyant"])
def test_span_report_counts_only_its_own_comparisons(make, values, runner):
    # a select charges the oracle first; the report must not include it
    oracle = make(values)
    select(oracle, range(8), 3)
    start = oracle.count
    assert start > 0
    rep = runner(oracle)
    assert rep.comparisons == oracle.count - start > 0


@pytest.mark.parametrize("cross_at", [None, 2])
@pytest.mark.parametrize("span", [[0, 4], [1, -1], [0, 1, 2, 3, 9],
                                  [0, 0], [2, 1, 3, 2], [3, 0, 1, 0],
                                  [9, 0, 1], [-1, 0, 1]])
def test_sort_spans_rejects_bad_indices(span, cross_at):
    oracle = CountingOracle(Instance((0, 1, 2, 3)))
    with pytest.raises(ValueError):
        sort_spans(oracle, [span], Outcome.DISTINCT, cross_at)
    with pytest.raises(ValueError):
        drive(sort_spans_gen([span], Outcome.DISTINCT, cross_at),
              CountingOracle(Instance((0, 1, 2, 3))))


@pytest.mark.parametrize("x", [9, -1])
def test_sort_spans_names_an_out_of_range_index_in_a_one_item_leaf(x):
    oracle = CountingOracle(Instance((0, 1, 2, 3)))
    with pytest.raises(ValueError, match=f"^index out of range: {x} with n=4$"):
        sort_spans(oracle, [[x, 0, 1]], Outcome.DISTINCT)


# Over values 5, 5, 1, 2 the first merge of [0, 1, 2, 9] and [0, 1, 2, 2]
# meets the equal pair (0, 1), a witness unless cross_at = 2 puts both
# below the cut; the bad index sits past it.  A bad span is refused
# before any merge, whatever the witness rule and wherever it sits.
@pytest.mark.parametrize("cross_at", [None, 2])
@pytest.mark.parametrize("span, message", [
    ([0, 1, 2, 9], "index out of range: 9 with n=4"),
    ([0, 1, 2, 2], "comparison of an index with itself: 2"),
    ([9], "index out of range: 9 with n=4")],
    ids=["late-out-of-range", "late-repeat", "one-item"])
def test_sort_spans_refuses_a_bad_span_before_any_merge(span, message,
                                                        cross_at):
    oracle = CountingOracle(Instance((5, 5, 1, 2)))
    with pytest.raises(ValueError, match=f"^{message}$"):
        sort_spans(oracle, [span], Outcome.DISTINCT, cross_at)
    assert oracle.count == 0


def test_block_sorting_refuses_an_out_of_range_index_before_any_merge():
    oracle = CountingOracle(Instance((5, 5, 1, 2)))
    with pytest.raises(ValueError, match="^index out of range: 9 with n=4$"):
        block_sorting(oracle, [0, 1, 2, 9], 4)
    assert oracle.count == 0


class _Silent(CountingOracle):
    """An instance oracle that fails the test on any request."""
    __slots__ = ()

    def compare(self, x, y):
        raise AssertionError(f"request ({x}, {y}) in instance mode")


def test_span_runners_issue_no_request_in_instance_mode():
    inst = Instance((7, 3, 9, 1, 4, 3, 8, 0, 2, 6, 5, 9))
    n = len(inst)
    for runner, gen in (
            (lambda o: block_sorting(o, range(n), 3),
             lambda: algorithms.block_sorting_gen(range(n), 3)),
            (order_doubling,
             lambda: algorithms.doubling_gen(n))):
        oracle = CountingOracle(inst)
        want = drive(gen(), oracle)
        rep = runner(_Silent(inst))
        assert ((rep.outcome, rep.witness), rep.comparisons) == (want, oracle.count)
    quads = Instance((0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2))
    rep = clairvoyant(_Silent(quads), ClusterProfile([4, 4, 4]))
    assert rep.stats["path"] == "block"
    assert rep.outcome is Outcome.DUPLICATE
    si = realize_si_family(64, 2, seed=1)
    rep = si_doubling(_Silent(si.combined()), si.na, si.nb)
    assert rep.outcome is Outcome.DUPLICATE


def test_value_runners_issue_no_request_in_instance_mode():
    # 16 values with a cluster of 4: clairvoyant takes its median path
    inst = Instance((7, 3, 9, 1, 4, 3, 8, 0, 3, 6, 5, 3, 2, 10, 11, 12))
    prof = ClusterProfile([1] * 12 + [4])
    n = len(inst)
    for runner in (
            lambda o: algorithms.median_recursion(o, range(n), 2),
            lambda o: algorithms.median_recursion(o, [5, 0, 9, 2, 14], 2),
            lambda o: clairvoyant(o, prof),
            lambda o: algorithms.run_preprocessed(
                algorithms.PreprocessedPlan(prof, k=4), o),
            lambda o: algorithms.run_preprocessed(
                algorithms.PreprocessedPlan(prof), o)):
        rep = runner(_Silent(inst))
        assert rep == runner(CountingOracle(inst))
    assert clairvoyant(_Silent(inst), prof).stats["path"] == "median"
    assert (select(_Silent(inst), range(n), 5)
            == select(CountingOracle(inst), range(n), 5))
    si = realize_si_family(64, 2, seed=1)
    rep = si_clairvoyant(_Silent(si.combined()), si.na, si.nb, 2, si.na)
    assert rep == si_clairvoyant(si.oracle(), si.na, si.nb, 2, si.na)
    assert rep.outcome is Outcome.DUPLICATE
