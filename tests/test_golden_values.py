"""Golden records of the value-evaluated runners at scale.

On a realized instance ``sortsel.select``, ``algorithms.median_recursion``,
``clairvoyant``, ``run_preprocessed`` and ``setint.si_clairvoyant`` charge
the oracle from the values, with no request.  ``test_golden_runs.py``
pins the requests of these runners through ``bruteforce.recording_oracle``,
which takes the generator path; this table pins the count and the
returned index, outcome, witness and stats of the value path itself, on
a plain ``CountingOracle``:

* select at n = 2^12, 2^14 and 2^16, on distinct and tie-heavy values,
  with items as range(n), the reversed list and a strided subset, at
  the first, lower median and last rank and at a third of the way;
* median_recursion at L = 1, 2, 16 and the profile's default L, over
  range(n) and the reversed list, on the four random_profile modes at
  n = 2^14, and on distinct values there, where it gives up;
* clairvoyant and run_preprocessed on the same four instances;
* si_clairvoyant on realize_si_family(4096, i) for every i, and on
  realize_si_family(32768, i) for i = 1, 16 and 32.

Any change to the value evaluators must leave every entry unchanged.
After a deliberate change to the counts, print a new GOLDEN table with

    PYTHONPATH=src python tests/test_golden_values.py
"""

import pprint
import random
import textwrap

import pytest

from edlab.algorithms import (clairvoyant, median_recursion, preprocess,
                              run_preprocessed)
from edlab.core import CountingOracle, Instance, realize_instance
from edlab.harness import default_median_L, random_profile
from edlab.profiles import ClusterProfile
from edlab.setint import realize_si_family, si_clairvoyant
from edlab.sortsel import select

SELECT_SIZES = (2 ** 12, 2 ** 14, 2 ** 16)
RUN_N = 2 ** 14
MEDIAN_LS = (1, 2, 16, "default")
SI_CASES = ([(4096, i) for i in range(1, 17)]
            + [(32768, i) for i in (1, 16, 32)])


def _values(n, ties):
    rng = random.Random(3 * n + ties)
    if ties:
        return [rng.randrange(max(1, n // 16)) for _ in range(n)]
    vals = list(range(n))
    rng.shuffle(vals)
    return vals


def _items(n, shape):
    if shape == "range":
        return range(n)
    if shape == "reversed":
        return list(range(n))[::-1]
    return list(range(n // 7, n, 3))


def select_case(n, ties, shape) -> dict:
    oracle = CountingOracle(Instance(tuple(_values(n, ties))))
    items = _items(n, shape)
    m = len(items)
    rec = {}
    for k in sorted({1, (m + 1) // 2, m, m // 3}):
        before = oracle.count
        rec[k] = (select(oracle, items, k), oracle.count - before)
    return rec


def _instance(mode):
    prof = ClusterProfile(random_profile(random.Random(11 * RUN_N + mode),
                                         RUN_N, mode))
    return realize_instance(prof, seed=RUN_N + mode), prof


def _report(rep, oracle) -> dict:
    return {"count": oracle.count, "comparisons": rep.comparisons,
            "outcome": rep.outcome.value, "witness": rep.witness,
            "stats": rep.stats}


def run_case(kind, mode, *args) -> dict:
    if mode == "distinct":
        inst = Instance(tuple(_values(RUN_N, 0)))
        prof = ClusterProfile([1] * RUN_N)
    else:
        inst, prof = _instance(mode)
    oracle = CountingOracle(inst)
    if kind == "median":
        L, shape = args
        L = default_median_L(prof) if L == "default" else L
        rep = median_recursion(oracle, _items(RUN_N, shape), L)
    elif kind == "clairvoyant":
        rep = clairvoyant(oracle, prof)
    else:
        rep = run_preprocessed(preprocess(prof), oracle)
    return _report(rep, oracle)


def si_case(n, i) -> dict:
    inst = realize_si_family(n, i, seed=n + i)
    oracle = inst.oracle()
    return _report(si_clairvoyant(oracle, inst.na, inst.nb, i, inst.na),
                   oracle)


CASES = {}
for _n in SELECT_SIZES:
    for _ties in (0, 1):
        for _shape in ("range", "reversed", "strided"):
            CASES[f"select-{_n}-{_ties}-{_shape}"] = (select_case, _n,
                                                      _ties, _shape)
for _mode in (0, 1, 2, 3, "distinct"):
    for _L in MEDIAN_LS:
        for _shape in ("range", "reversed"):
            CASES[f"median-{_mode}-{_L}-{_shape}"] = (run_case, "median",
                                                      _mode, _L, _shape)
for _mode in range(4):
    for _kind in ("clairvoyant", "preprocessed"):
        CASES[f"{_kind}-{_mode}"] = (run_case, _kind, _mode)
for _n, _i in SI_CASES:
    CASES[f"si-{_n}-{_i}"] = (si_case, _n, _i)


def case_record(key) -> dict:
    fn, *args = CASES[key]
    return fn(*args)


GOLDEN = {
    'select-4096-0-range':
        {1: (3791, 30143),
         1365: (773, 30333),
         2048: (3430, 30102),
         4096: (1050, 30007)},
    'select-4096-0-reversed':
        {1: (3791, 30123),
         1365: (773, 30292),
         2048: (3430, 30229),
         4096: (1050, 30256)},
    'select-4096-0-strided':
        {1: (1170, 7771),
         390: (987, 7937),
         586: (3012, 8362),
         1171: (1050, 8267)},
    'select-4096-1-range':
        {1: (1747, 27698),
         1365: (2008, 27647),
         2048: (418, 28253),
         4096: (1861, 29464)},
    'select-4096-1-reversed':
        {1: (1852, 28370),
         1365: (2519, 28605),
         2048: (2883, 28526),
         4096: (2834, 29244)},
    'select-4096-1-strided':
        {1: (2013, 7694),
         390: (1776, 7689),
         586: (747, 7934),
         1171: (3954, 8120)},
    'select-16384-0-range':
        {1: (7349, 123561),
         5461: (12854, 124078),
         8192: (8585, 123653),
         16384: (11166, 124993)},
    'select-16384-0-reversed':
        {1: (7349, 124765),
         5461: (12854, 124735),
         8192: (8585, 124285),
         16384: (11166, 125740)},
    'select-16384-0-strided':
        {1: (13347, 34663),
         1560: (3576, 34330),
         2341: (14115, 34205),
         4682: (11166, 33898)},
    'select-16384-1-range':
        {1: (5479, 114436),
         5461: (11766, 117999),
         8192: (4576, 118308),
         16384: (5333, 116718)},
    'select-16384-1-reversed':
        {1: (5149, 115234),
         5461: (10492, 117761),
         8192: (2679, 119420),
         16384: (5974, 123334)},
    'select-16384-1-strided':
        {1: (7023, 32918),
         1560: (9804, 32766),
         2341: (7659, 17671),
         4682: (5526, 34316)},
    'select-65536-0-range':
        {1: (27530, 510922),
         21845: (25625, 511665),
         32768: (18591, 511761),
         65536: (15353, 508547)},
    'select-65536-0-reversed':
        {1: (27530, 510550),
         21845: (25625, 509145),
         32768: (18591, 509340),
         65536: (15353, 510904)},
    'select-65536-0-strided':
        {1: (27530, 141933),
         6241: (53735, 144071),
         9363: (60032, 144350),
         18725: (15353, 142876)},
    'select-65536-1-range':
        {1: (36344, 503319),
         21845: (7961, 507593),
         32768: (9539, 257271),
         65536: (12808, 505151)},
    'select-65536-1-reversed':
        {1: (8660, 503012),
         21845: (54721, 499856),
         32768: (60343, 503402),
         65536: (29917, 472081)},
    'select-65536-1-strided':
        {1: (36344, 136817),
         6241: (57863, 136923),
         9363: (15734, 135817),
         18725: (55928, 141665)},
    'median-0-1-range':
        {'count': 52002,
         'comparisons': 52002,
         'outcome': 'duplicate',
         'witness': (132, 9667),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-0-1-reversed':
        {'count': 112760,
         'comparisons': 112760,
         'outcome': 'duplicate',
         'witness': (16231, 10005),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-0-2-range':
        {'count': 52002,
         'comparisons': 52002,
         'outcome': 'duplicate',
         'witness': (132, 9667),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-0-2-reversed':
        {'count': 112760,
         'comparisons': 112760,
         'outcome': 'duplicate',
         'witness': (16231, 10005),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-0-16-range':
        {'count': 52002,
         'comparisons': 52002,
         'outcome': 'duplicate',
         'witness': (132, 9667),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-0-16-reversed':
        {'count': 112760,
         'comparisons': 112760,
         'outcome': 'duplicate',
         'witness': (16231, 10005),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-0-default-range':
        {'count': 52002,
         'comparisons': 52002,
         'outcome': 'duplicate',
         'witness': (132, 9667),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-0-default-reversed':
        {'count': 112760,
         'comparisons': 112760,
         'outcome': 'duplicate',
         'witness': (16231, 10005),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-1-1-range':
        {'count': 46214,
         'comparisons': 46214,
         'outcome': 'duplicate',
         'witness': (0, 7817),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-1-1-reversed':
        {'count': 46205,
         'comparisons': 46205,
         'outcome': 'duplicate',
         'witness': (16383, 8571),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-1-2-range':
        {'count': 46214,
         'comparisons': 46214,
         'outcome': 'duplicate',
         'witness': (0, 7817),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-1-2-reversed':
        {'count': 46205,
         'comparisons': 46205,
         'outcome': 'duplicate',
         'witness': (16383, 8571),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-1-16-range':
        {'count': 46214,
         'comparisons': 46214,
         'outcome': 'duplicate',
         'witness': (0, 7817),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-1-16-reversed':
        {'count': 46205,
         'comparisons': 46205,
         'outcome': 'duplicate',
         'witness': (16383, 8571),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-1-default-range':
        {'count': 46214,
         'comparisons': 46214,
         'outcome': 'duplicate',
         'witness': (0, 7817),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-1-default-reversed':
        {'count': 46205,
         'comparisons': 46205,
         'outcome': 'duplicate',
         'witness': (16383, 8571),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-2-1-range':
        {'count': 127644,
         'comparisons': 127644,
         'outcome': 'duplicate',
         'witness': (1846, 1041),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-2-1-reversed':
        {'count': 124366,
         'comparisons': 124366,
         'outcome': 'duplicate',
         'witness': (14291, 1041),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-2-2-range':
        {'count': 127644,
         'comparisons': 127644,
         'outcome': 'duplicate',
         'witness': (1846, 1041),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-2-2-reversed':
        {'count': 124366,
         'comparisons': 124366,
         'outcome': 'duplicate',
         'witness': (14291, 1041),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-2-16-range':
        {'count': 127644,
         'comparisons': 127644,
         'outcome': 'duplicate',
         'witness': (1846, 1041),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-2-16-reversed':
        {'count': 124366,
         'comparisons': 124366,
         'outcome': 'duplicate',
         'witness': (14291, 1041),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-2-default-range':
        {'count': 127644,
         'comparisons': 127644,
         'outcome': 'duplicate',
         'witness': (1846, 1041),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-2-default-reversed':
        {'count': 124366,
         'comparisons': 124366,
         'outcome': 'duplicate',
         'witness': (14291, 1041),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-3-1-range':
        {'count': 46668,
         'comparisons': 46668,
         'outcome': 'duplicate',
         'witness': (2, 7813),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-3-1-reversed':
        {'count': 46588,
         'comparisons': 46588,
         'outcome': 'duplicate',
         'witness': (16383, 8571),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-3-2-range':
        {'count': 46668,
         'comparisons': 46668,
         'outcome': 'duplicate',
         'witness': (2, 7813),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-3-2-reversed':
        {'count': 46588,
         'comparisons': 46588,
         'outcome': 'duplicate',
         'witness': (16383, 8571),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-3-16-range':
        {'count': 46668,
         'comparisons': 46668,
         'outcome': 'duplicate',
         'witness': (2, 7813),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-3-16-reversed':
        {'count': 46588,
         'comparisons': 46588,
         'outcome': 'duplicate',
         'witness': (16383, 8571),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-3-default-range':
        {'count': 46668,
         'comparisons': 46668,
         'outcome': 'duplicate',
         'witness': (2, 7813),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-3-default-reversed':
        {'count': 46588,
         'comparisons': 46588,
         'outcome': 'duplicate',
         'witness': (16383, 8571),
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-distinct-1-range':
        {'count': 1319397,
         'comparisons': 1319397,
         'outcome': 'gave_up',
         'witness': None,
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-distinct-1-reversed':
        {'count': 1327875,
         'comparisons': 1327875,
         'outcome': 'gave_up',
         'witness': None,
         'stats': {'small_calls': 0, 'small_mass': 0}},
    'median-distinct-2-range':
        {'count': 1319397,
         'comparisons': 1319397,
         'outcome': 'gave_up',
         'witness': None,
         'stats': {'small_calls': 8192, 'small_mass': 8192}},
    'median-distinct-2-reversed':
        {'count': 1327875,
         'comparisons': 1327875,
         'outcome': 'gave_up',
         'witness': None,
         'stats': {'small_calls': 8192, 'small_mass': 8192}},
    'median-distinct-16-range':
        {'count': 1191893,
         'comparisons': 1191893,
         'outcome': 'gave_up',
         'witness': None,
         'stats': {'small_calls': 1025, 'small_mass': 15360}},
    'median-distinct-16-reversed':
        {'count': 1200434,
         'comparisons': 1200434,
         'outcome': 'gave_up',
         'witness': None,
         'stats': {'small_calls': 1025, 'small_mass': 15360}},
    'median-distinct-default-range':
        {'count': 1319397,
         'comparisons': 1319397,
         'outcome': 'gave_up',
         'witness': None,
         'stats': {'small_calls': 8192, 'small_mass': 8192}},
    'median-distinct-default-reversed':
        {'count': 1327875,
         'comparisons': 1327875,
         'outcome': 'gave_up',
         'witness': None,
         'stats': {'small_calls': 8192, 'small_mass': 8192}},
    'clairvoyant-0':
        {'count': 52002,
         'comparisons': 52002,
         'outcome': 'duplicate',
         'witness': (132, 9667),
         'stats': {'small_calls': 0,
                   'small_mass': 0,
                   'path': 'median',
                   'L': 2,
                   'bound': 39467.41160944097}},
    'preprocessed-0':
        {'count': 52002,
         'comparisons': 52002,
         'outcome': 'duplicate',
         'witness': (132, 9667),
         'stats': {'small_calls': 0,
                   'small_mass': 0,
                   'path': 'median',
                   'L': 2,
                   'bound': 39467.41160944097,
                   'mode': 'defer'}},
    'clairvoyant-1':
        {'count': 2,
         'comparisons': 2,
         'outcome': 'duplicate',
         'witness': (2, 3),
         'stats': {'iterations': 2,
                   'path': 'block',
                   'L': 2,
                   'k': 2,
                   'bound': 3201.0}},
    'preprocessed-1':
        {'count': 2,
         'comparisons': 2,
         'outcome': 'duplicate',
         'witness': (2, 3),
         'stats': {'iterations': 2,
                   'mode': 'block',
                   'k': 2,
                   'approx_L': 13184}},
    'clairvoyant-2':
        {'count': 127644,
         'comparisons': 127644,
         'outcome': 'duplicate',
         'witness': (1846, 1041),
         'stats': {'small_calls': 0,
                   'small_mass': 0,
                   'path': 'median',
                   'L': 2,
                   'bound': 16384.0}},
    'preprocessed-2':
        {'count': 127644,
         'comparisons': 127644,
         'outcome': 'duplicate',
         'witness': (1846, 1041),
         'stats': {'small_calls': 0,
                   'small_mass': 0,
                   'path': 'median',
                   'L': 2,
                   'bound': 16384.0,
                   'mode': 'defer'}},
    'clairvoyant-3':
        {'count': 2,
         'comparisons': 2,
         'outcome': 'duplicate',
         'witness': (2, 3),
         'stats': {'iterations': 1,
                   'path': 'block',
                   'L': 2,
                   'k': 16,
                   'bound': 30.0}},
    'preprocessed-3':
        {'count': 3,
         'comparisons': 3,
         'outcome': 'duplicate',
         'witness': (2, 3),
         'stats': {'iterations': 1,
                   'mode': 'block',
                   'k': 20,
                   'approx_L': 1}},
    'si-4096-1':
        {'count': 16842,
         'comparisons': 16842,
         'outcome': 'duplicate',
         'witness': (2587, 4624),
         'stats': {}},
    'si-4096-2':
        {'count': 19668,
         'comparisons': 19668,
         'outcome': 'duplicate',
         'witness': (1156, 7438),
         'stats': {}},
    'si-4096-3':
        {'count': 18982,
         'comparisons': 18982,
         'outcome': 'duplicate',
         'witness': (1690, 6767),
         'stats': {}},
    'si-4096-4':
        {'count': 16537,
         'comparisons': 16537,
         'outcome': 'duplicate',
         'witness': (2084, 4343),
         'stats': {}},
    'si-4096-5':
        {'count': 16567,
         'comparisons': 16567,
         'outcome': 'duplicate',
         'witness': (157, 4349),
         'stats': {}},
    'si-4096-6':
        {'count': 19065,
         'comparisons': 19065,
         'outcome': 'duplicate',
         'witness': (928, 6852),
         'stats': {}},
    'si-4096-7':
        {'count': 17084,
         'comparisons': 17084,
         'outcome': 'duplicate',
         'witness': (1004, 4885),
         'stats': {}},
    'si-4096-8':
        {'count': 19256,
         'comparisons': 19256,
         'outcome': 'duplicate',
         'witness': (559, 7038),
         'stats': {}},
    'si-4096-9':
        {'count': 20344,
         'comparisons': 20344,
         'outcome': 'duplicate',
         'witness': (347, 8151),
         'stats': {}},
    'si-4096-10':
        {'count': 17665,
         'comparisons': 17665,
         'outcome': 'duplicate',
         'witness': (726, 5446),
         'stats': {}},
    'si-4096-11':
        {'count': 19886,
         'comparisons': 19886,
         'outcome': 'duplicate',
         'witness': (36, 7698),
         'stats': {}},
    'si-4096-12':
        {'count': 18229,
         'comparisons': 18229,
         'outcome': 'duplicate',
         'witness': (585, 6024),
         'stats': {}},
    'si-4096-13':
        {'count': 16679,
         'comparisons': 16679,
         'outcome': 'duplicate',
         'witness': (731, 4450),
         'stats': {}},
    'si-4096-14':
        {'count': 19504,
         'comparisons': 19504,
         'outcome': 'duplicate',
         'witness': (884, 7293),
         'stats': {}},
    'si-4096-15':
        {'count': 19235,
         'comparisons': 19235,
         'outcome': 'duplicate',
         'witness': (79, 7015),
         'stats': {}},
    'si-4096-16':
        {'count': 17926,
         'comparisons': 17926,
         'outcome': 'duplicate',
         'witness': (241, 5707),
         'stats': {}},
    'si-32768-1':
        {'count': 157521,
         'comparisons': 157521,
         'outcome': 'duplicate',
         'witness': (21511, 62596),
         'stats': {}},
    'si-32768-16':
        {'count': 157439,
         'comparisons': 157439,
         'outcome': 'duplicate',
         'witness': (8594, 62534),
         'stats': {}},
    'si-32768-32':
        {'count': 144513,
         'comparisons': 144513,
         'outcome': 'duplicate',
         'witness': (909, 49596),
         'stats': {}},
}


@pytest.mark.parametrize("key", list(CASES))
def test_golden_value_run(key):
    assert case_record(key) == GOLDEN[key]


if __name__ == "__main__":
    print("GOLDEN = {")
    for key in CASES:
        rec = pprint.pformat(case_record(key), width=68, sort_dicts=False)
        print(f"    {key!r}:")
        print(textwrap.indent(rec, " " * 8) + ",")
    print("}")
