"""Golden records of every runner, kernel and order game.

Each case pins the comparison count, the outcome, the witness, the stats
and branch_costs, and a sha256 digest of the request sequence, for

* the six harness.RUN_ALGOS on the four random_profile modes,
* merge_sort_gen (with and without a cross witness) and select_gen at
  n = 1, 2, 5, 6 and 2^12, on all-distinct and duplicate-heavy values,
* median_recursion_gen, budgeted_median_branch_gen and oblivious_gen,
* order_game with the two order runners on its instance, and
* harness.cmd_duel rows.

Requests are recorded by bruteforce.recording_oracle, which answers
from the values through the adversary hook.  Any change to the kernels,
the drivers or the runners must leave every entry unchanged.  After a
deliberate change to the counts or requests, print a new GOLDEN table
with

    PYTHONPATH=src:tests python tests/test_golden_runs.py
"""

import hashlib
import pprint
import random
import textwrap

import pytest

from bruteforce import recording_oracle
from edlab.harness import order_game
from edlab.algorithms import (block_sorting, budgeted_median_branch_gen,
                              clairvoyant, median_recursion,
                              median_recursion_gen, oblivious,
                              oblivious_gen, order_baseline, order_doubling,
                              preprocess, run_preprocessed)
from edlab.core import realize_instance
from edlab.harness import (DUEL_ALGOS, RUN_ALGOS, cmd_duel, default_block_k,
                           default_median_L, random_multicluster_profile,
                           random_profile)
from edlab.profiles import ClusterProfile
from edlab.sortsel import drive, merge_sort_gen, select_gen

RUN_SIZES = (16, 256, 2048)
KERNEL_SIZES = (1, 2, 5, 6, 4096)
MEDIAN_SIZES = (64, 1024)
ORDER_SIZES = (16, 256, 2048)
DUEL_SIZES = (256, 1024)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _requests(oracle) -> str:
    return _digest([(x, y) for x, y, _ in oracle.transcript])


def _instance(n, mode):
    prof = ClusterProfile(random_profile(random.Random(4 * n + mode), n, mode))
    return realize_instance(prof, seed=n + mode), prof


def _report(rep, oracle) -> dict:
    return {"count": oracle.count, "comparisons": rep.comparisons,
            "outcome": rep.outcome.value, "witness": rep.witness,
            "stats": rep.stats, "branch_costs": rep.branch_costs,
            "requests": _requests(oracle)}


def _generated(gen, oracle, stats=None, branch_costs=None) -> dict:
    result = drive(gen, oracle)
    return {"count": oracle.count, "result": _digest(result),
            "stats": stats, "branch_costs": branch_costs,
            "requests": _requests(oracle)}


def run_case(algo, n, mode) -> dict:
    """harness.run_algorithm's dispatch, on a recording oracle."""
    inst, prof = _instance(n, mode)
    oracle = recording_oracle(inst.values)
    if algo == "block":
        rep = block_sorting(oracle, range(n), default_block_k(prof))
    elif algo == "median":
        rep = median_recursion(oracle, range(n), default_median_L(prof))
    elif algo == "clairvoyant":
        rep = clairvoyant(oracle, prof)
    elif algo == "oblivious":
        rep = oblivious(oracle)
    elif algo == "preprocessed":
        rep = run_preprocessed(preprocess(prof), oracle)
    else:
        rep = order_doubling(oracle)
    return _report(rep, oracle)


def _kernel_values(n, dups):
    rng = random.Random(n + dups)
    if dups:
        return [rng.randrange(max(1, n // 4)) for _ in range(n)]
    vals = list(range(n))
    rng.shuffle(vals)
    return vals


def kernel_case(kernel, n, dups) -> dict:
    vals = _kernel_values(n, dups)
    h = n // 2
    if kernel == "sort":
        gens = [merge_sort_gen(range(n))]
    elif kernel == "sort-cross":
        gens = [merge_sort_gen(range(n), cross_at=h)]
    else:
        gens = [select_gen(range(n), k) for k in sorted({1, (n + 1) // 2, n})]
    oracle = recording_oracle(vals)
    results = [drive(gen, oracle) for gen in gens]
    return {"count": oracle.count, "result": _digest(results),
            "requests": _requests(oracle)}


def median_case(kind, n, mode) -> dict:
    inst, prof = _instance(n, mode)
    oracle = recording_oracle(inst.values)
    if kind.startswith("median"):
        L = {"median-2": 2, "median-default": default_median_L(prof)}[kind]
        items = list(range(n))[::-1] if mode % 2 else range(n)
        stats = {}
        return _generated(median_recursion_gen(items, L, stats), oracle, stats)
    if kind.startswith("budgeted"):
        i = int(kind.split("-")[1])
        return _generated(budgeted_median_branch_gen(n, i), oracle)
    costs = {}
    return _generated(oblivious_gen(n, costs), oracle, branch_costs=costs)


def order_case(n) -> dict:
    inst, k, state = order_game(n)
    rec = {"k": k, "rounds": state.rounds_played,
           "transcript": _digest(state.transcript),
           "values": _digest(inst.values)}
    for name, runner in (("baseline", lambda o: order_baseline(o, k)),
                         ("doubling", order_doubling)):
        oracle = recording_oracle(inst.values)
        rec[name] = _report(runner(oracle), oracle)
    return rec


def duel_case(algo, n, mode) -> dict:
    prof = ClusterProfile(random_multicluster_profile(
        random.Random(4 * n + mode), n, mode))
    header, rows, violations = cmd_duel(algo, n, prof)
    return {"rows": rows, "violations": violations}


CASES = {}
for _n in RUN_SIZES:
    for _mode in range(4):
        for _algo in RUN_ALGOS:
            CASES[f"run-{_algo}-{_n}-{_mode}"] = (run_case, _algo, _n, _mode)
for _n in KERNEL_SIZES:
    for _dups in (0, 1):
        for _kernel in ("sort", "sort-cross", "select"):
            CASES[f"kernel-{_kernel}-{_n}-{_dups}"] = (kernel_case, _kernel,
                                                       _n, _dups)
for _n in MEDIAN_SIZES:
    for _mode in range(4):
        for _kind in ("median-2", "median-default", "budgeted-1",
                      "budgeted-4", "oblivious"):
            CASES[f"{_kind}-{_n}-{_mode}"] = (median_case, _kind, _n, _mode)
for _n in ORDER_SIZES:
    CASES[f"order-{_n}"] = (order_case, _n)
for _n in DUEL_SIZES:
    for _mode in range(4):
        for _algo in DUEL_ALGOS:
            CASES[f"duel-{_algo}-{_n}-{_mode}"] = (duel_case, _algo, _n, _mode)


def case_record(key) -> dict:
    fn, *args = CASES[key]
    return fn(*args)


GOLDEN = {
    'run-block-16-0':
        {'count': 4,
         'comparisons': 4,
         'outcome': 'duplicate',
         'witness': (1, 2),
         'stats': {'iterations': 1},
         'branch_costs': {},
         'requests': 'beaf22be7c8e7117'},
    'run-median-16-0':
        {'count': 40,
         'comparisons': 40,
         'outcome': 'duplicate',
         'witness': (1, 2),
         'stats': {'small_calls': 0, 'small_mass': 0},
         'branch_costs': {},
         'requests': '38b22a3babc05e97'},
    'run-clairvoyant-16-0':
        {'count': 4,
         'comparisons': 4,
         'outcome': 'duplicate',
         'witness': (1, 2),
         'stats': {'path': 'block',
                   'L': 3,
                   'k': 4,
                   'bound': 7.0,
                   'iterations': 1},
         'branch_costs': {},
         'requests': 'beaf22be7c8e7117'},
    'run-oblivious-16-0':
        {'count': 22,
         'comparisons': 22,
         'outcome': 'duplicate',
         'witness': (1, 2),
         'stats': {},
         'branch_costs': {'block:0': 4,
                          'block:1': 3,
                          'block:2': 3,
                          'double': 3,
                          'median:1': 3,
                          'median:2': 3,
                          'median:4': 3},
         'requests': '2be3bd65d33de76e'},
    'run-preprocessed-16-0':
        {'count': 4,
         'comparisons': 4,
         'outcome': 'duplicate',
         'witness': (1, 2),
         'stats': {'iterations': 1, 'mode': 'block', 'k': 4, 'approx_L': 3},
         'branch_costs': {},
         'requests': 'beaf22be7c8e7117'},
    'run-doubling-16-0':
        {'count': 5,
         'comparisons': 5,
         'outcome': 'duplicate',
         'witness': (1, 2),
         'stats': {},
         'branch_costs': {},
         'requests': 'd39935c99f25cba9'},
    'run-block-16-1':
        {'count': 2,
         'comparisons': 2,
         'outcome': 'duplicate',
         'witness': (2, 3),
         'stats': {'iterations': 1},
         'branch_costs': {},
         'requests': 'bd222625cb8df7ff'},
    'run-median-16-1':
        {'count': 41,
         'comparisons': 41,
         'outcome': 'duplicate',
         'witness': (2, 7),
         'stats': {'small_calls': 0, 'small_mass': 0},
         'branch_costs': {},
         'requests': '517575f71b9a2ecd'},
    'run-clairvoyant-16-1':
        {'count': 41,
         'comparisons': 41,
         'outcome': 'duplicate',
         'witness': (2, 7),
         'stats': {'path': 'median',
                   'L': 8,
                   'bound': 16.0,
                   'small_calls': 0,
                   'small_mass': 0},
         'branch_costs': {},
         'requests': '517575f71b9a2ecd'},
    'run-oblivious-16-1':
        {'count': 8,
         'comparisons': 8,
         'outcome': 'duplicate',
         'witness': (2, 3),
         'stats': {},
         'branch_costs': {'block:0': 2,
                          'block:1': 1,
                          'block:2': 1,
                          'double': 1,
                          'median:1': 1,
                          'median:2': 1,
                          'median:4': 1},
         'requests': 'f5a59906d5aadc34'},
    'run-preprocessed-16-1':
        {'count': 41,
         'comparisons': 41,
         'outcome': 'duplicate',
         'witness': (2, 7),
         'stats': {'path': 'median',
                   'L': 8,
                   'bound': 16.0,
                   'small_calls': 0,
                   'small_mass': 0,
                   'mode': 'defer'},
         'branch_costs': {},
         'requests': '517575f71b9a2ecd'},
    'run-doubling-16-1':
        {'count': 3,
         'comparisons': 3,
         'outcome': 'duplicate',
         'witness': (2, 3),
         'stats': {},
         'branch_costs': {},
         'requests': '24b9ee0bc20cbeff'},
    'run-block-16-2':
        {'count': 4,
         'comparisons': 4,
         'outcome': 'duplicate',
         'witness': (1, 2),
         'stats': {'iterations': 1},
         'branch_costs': {},
         'requests': 'beaf22be7c8e7117'},
    'run-median-16-2':
        {'count': 59,
         'comparisons': 59,
         'outcome': 'duplicate',
         'witness': (1, 2),
         'stats': {'small_calls': 0, 'small_mass': 0},
         'branch_costs': {},
         'requests': '52b5dd4686b2d29d'},
    'run-clairvoyant-16-2':
        {'count': 59,
         'comparisons': 59,
         'outcome': 'duplicate',
         'witness': (1, 2),
         'stats': {'path': 'median',
                   'L': 2,
                   'bound': 16.0,
                   'small_calls': 0,
                   'small_mass': 0},
         'branch_costs': {},
         'requests': '52b5dd4686b2d29d'},
    'run-oblivious-16-2':
        {'count': 22,
         'comparisons': 22,
         'outcome': 'duplicate',
         'witness': (1, 2),
         'stats': {},
         'branch_costs': {'block:0': 4,
                          'block:1': 3,
                          'block:2': 3,
                          'double': 3,
                          'median:1': 3,
                          'median:2': 3,
                          'median:4': 3},
         'requests': '2be3bd65d33de76e'},
    'run-preprocessed-16-2':
        {'count': 59,
         'comparisons': 59,
         'outcome': 'duplicate',
         'witness': (1, 2),
         'stats': {'path': 'median',
                   'L': 2,
                   'bound': 16.0,
                   'small_calls': 0,
                   'small_mass': 0,
                   'mode': 'defer'},
         'branch_costs': {},
         'requests': '52b5dd4686b2d29d'},
    'run-doubling-16-2':
        {'count': 5,
         'comparisons': 5,
         'outcome': 'duplicate',
         'witness': (1, 2),
         'stats': {},
         'branch_costs': {},
         'requests': 'd39935c99f25cba9'},
    'run-block-16-3':
        {'count': 3,
         'comparisons': 3,
         'outcome': 'duplicate',
         'witness': (0, 3),
         'stats': {'iterations': 1},
         'branch_costs': {},
         'requests': '29d0c4f27b4b9587'},
    'run-median-16-3':
        {'count': 42,
         'comparisons': 42,
         'outcome': 'duplicate',
         'witness': (1, 6),
         'stats': {'small_calls': 0, 'small_mass': 0},
         'branch_costs': {},
         'requests': '49f1a53c7ca0814c'},
    'run-clairvoyant-16-3':
        {'count': 3,
         'comparisons': 3,
         'outcome': 'duplicate',
         'witness': (0, 3),
         'stats': {'path': 'block',
                   'L': 4,
                   'k': 4,
                   'bound': 7.0,
                   'iterations': 1},
         'branch_costs': {},
         'requests': '29d0c4f27b4b9587'},
    'run-oblivious-16-3':
        {'count': 15,
         'comparisons': 15,
         'outcome': 'duplicate',
         'witness': (0, 3),
         'stats': {},
         'branch_costs': {'block:0': 3,
                          'block:1': 2,
                          'block:2': 2,
                          'double': 2,
                          'median:1': 2,
                          'median:2': 2,
                          'median:4': 2},
         'requests': 'd3c95620777135fd'},
    'run-preprocessed-16-3':
        {'count': 3,
         'comparisons': 3,
         'outcome': 'duplicate',
         'witness': (0, 3),
         'stats': {'iterations': 1, 'mode': 'block', 'k': 4, 'approx_L': 4},
         'branch_costs': {},
         'requests': '29d0c4f27b4b9587'},
    'run-doubling-16-3':
        {'count': 4,
         'comparisons': 4,
         'outcome': 'duplicate',
         'witness': (0, 3),
         'stats': {},
         'branch_costs': {},
         'requests': '9d448e2b45a171b0'},
    'run-block-256-0':
        {'count': 14,
         'comparisons': 14,
         'outcome': 'duplicate',
         'witness': (7, 8),
         'stats': {'iterations': 1},
         'branch_costs': {},
         'requests': 'bac19fce9416dc08'},
    'run-median-256-0':
        {'count': 854,
         'comparisons': 854,
         'outcome': 'duplicate',
         'witness': (7, 27),
         'stats': {'small_calls': 0, 'small_mass': 0},
         'branch_costs': {},
         'requests': '3288e2591a0b532f'},
    'run-clairvoyant-256-0':
        {'count': 14,
         'comparisons': 14,
         'outcome': 'duplicate',
         'witness': (7, 8),
         'stats': {'path': 'block',
                   'L': 2,
                   'k': 62,
                   'bound': 322.02276017514686,
                   'iterations': 1},
         'branch_costs': {},
         'requests': 'bac19fce9416dc08'},
    'run-oblivious-256-0':
        {'count': 281,
         'comparisons': 281,
         'outcome': 'duplicate',
         'witness': (8, 14),
         'stats': {},
         'branch_costs': {'block:0': 32,
                          'block:1': 32,
                          'block:2': 31,
                          'block:3': 31,
                          'double': 31,
                          'median:1': 31,
                          'median:2': 31,
                          'median:4': 31,
                          'median:8': 31},
         'requests': '35353cb255d8ffec'},
    'run-preprocessed-256-0':
        {'count': 14,
         'comparisons': 14,
         'outcome': 'duplicate',
         'witness': (7, 8),
         'stats': {'path': 'block',
                   'L': 2,
                   'k': 62,
                   'bound': 322.02276017514686,
                   'iterations': 1,
                   'mode': 'defer'},
         'branch_costs': {},
         'requests': 'bac19fce9416dc08'},
    'run-doubling-256-0':
        {'count': 55,
         'comparisons': 55,
         'outcome': 'duplicate',
         'witness': (8, 14),
         'stats': {},
         'branch_costs': {},
         'requests': 'cc22fb8fdb8bda1a'},
    'run-block-256-1':
        {'count': 32,
         'comparisons': 32,
         'outcome': 'duplicate',
         'witness': (11, 13),
         'stats': {'iterations': 1},
         'branch_costs': {},
         'requests': 'a4cd693b76c0acc0'},
    'run-median-256-1':
        {'count': 3846,
         'comparisons': 3846,
         'outcome': 'duplicate',
         'witness': (1, 141),
         'stats': {'small_calls': 4, 'small_mass': 124},
         'branch_costs': {},
         'requests': '2719ce528c590ae1'},
    'run-clairvoyant-256-1':
        {'count': 3846,
         'comparisons': 3846,
         'outcome': 'duplicate',
         'witness': (1, 141),
         'stats': {'path': 'median',
                   'L': 55,
                   'bound': 631.8080875085082,
                   'small_calls': 4,
                   'small_mass': 124},
         'branch_costs': {},
         'requests': '2719ce528c590ae1'},
    'run-oblivious-256-1':
        {'count': 208,
         'comparisons': 208,
         'outcome': 'duplicate',
         'witness': (20, 21),
         'stats': {},
         'branch_costs': {'block:0': 24,
                          'block:1': 23,
                          'block:2': 23,
                          'block:3': 23,
                          'double': 23,
                          'median:1': 23,
                          'median:2': 23,
                          'median:4': 23,
                          'median:8': 23},
         'requests': '1917a450b837f640'},
    'run-preprocessed-256-1':
        {'count': 3846,
         'comparisons': 3846,
         'outcome': 'duplicate',
         'witness': (1, 141),
         'stats': {'path': 'median',
                   'L': 55,
                   'bound': 631.8080875085082,
                   'small_calls': 4,
                   'small_mass': 124,
                   'mode': 'defer'},
         'branch_costs': {},
         'requests': '2719ce528c590ae1'},
    'run-doubling-256-1':
        {'count': 54,
         'comparisons': 54,
         'outcome': 'duplicate',
         'witness': (11, 13),
         'stats': {},
         'branch_costs': {},
         'requests': '3a868ae51dd286e8'},
    'run-block-256-2':
        {'count': 88,
         'comparisons': 88,
         'outcome': 'duplicate',
         'witness': (21, 30),
         'stats': {'iterations': 1},
         'branch_costs': {},
         'requests': 'cf616609d0a08f5e'},
    'run-median-256-2':
        {'count': 1609,
         'comparisons': 1609,
         'outcome': 'duplicate',
         'witness': (44, 176),
         'stats': {'small_calls': 0, 'small_mass': 0},
         'branch_costs': {},
         'requests': '1b8834e29839aa22'},
    'run-clairvoyant-256-2':
        {'count': 1609,
         'comparisons': 1609,
         'outcome': 'duplicate',
         'witness': (44, 176),
         'stats': {'path': 'median',
                   'L': 2,
                   'bound': 256.0,
                   'small_calls': 0,
                   'small_mass': 0},
         'branch_costs': {},
         'requests': '1b8834e29839aa22'},
    'run-oblivious-256-2':
        {'count': 786,
         'comparisons': 786,
         'outcome': 'duplicate',
         'witness': (21, 30),
         'stats': {},
         'branch_costs': {'block:0': 88,
                          'block:1': 88,
                          'block:2': 88,
                          'block:3': 87,
                          'double': 87,
                          'median:1': 87,
                          'median:2': 87,
                          'median:4': 87,
                          'median:8': 87},
         'requests': '604b920e26a68c44'},
    'run-preprocessed-256-2':
        {'count': 1609,
         'comparisons': 1609,
         'outcome': 'duplicate',
         'witness': (44, 176),
         'stats': {'path': 'median',
                   'L': 2,
                   'bound': 256.0,
                   'small_calls': 0,
                   'small_mass': 0,
                   'mode': 'defer'},
         'branch_costs': {},
         'requests': '1b8834e29839aa22'},
    'run-doubling-256-2':
        {'count': 157,
         'comparisons': 157,
         'outcome': 'duplicate',
         'witness': (21, 30),
         'stats': {},
         'branch_costs': {},
         'requests': '3b97456c90d544d1'},
    'run-block-256-3':
        {'count': 4,
         'comparisons': 4,
         'outcome': 'duplicate',
         'witness': (2, 3),
         'stats': {'iterations': 1},
         'branch_costs': {},
         'requests': '8edcfd5c3a09c9e6'},
    'run-median-256-3':
        {'count': 742,
         'comparisons': 742,
         'outcome': 'duplicate',
         'witness': (2, 30),
         'stats': {'small_calls': 0, 'small_mass': 0},
         'branch_costs': {},
         'requests': 'b3068505eeb3357a'},
    'run-clairvoyant-256-3':
        {'count': 4,
         'comparisons': 4,
         'outcome': 'duplicate',
         'witness': (2, 3),
         'stats': {'path': 'block',
                   'L': 2,
                   'k': 10,
                   'bound': 13.931568569324174,
                   'iterations': 1},
         'branch_costs': {},
         'requests': '8edcfd5c3a09c9e6'},
    'run-oblivious-256-3':
        {'count': 10,
         'comparisons': 10,
         'outcome': 'duplicate',
         'witness': (2, 3),
         'stats': {},
         'branch_costs': {'block:0': 2,
                          'block:1': 1,
                          'block:2': 1,
                          'block:3': 1,
                          'double': 1,
                          'median:1': 1,
                          'median:2': 1,
                          'median:4': 1,
                          'median:8': 1},
         'requests': '972a6ec38e62032c'},
    'run-preprocessed-256-3':
        {'count': 3,
         'comparisons': 3,
         'outcome': 'duplicate',
         'witness': (4, 5),
         'stats': {'iterations': 1,
                   'mode': 'block',
                   'k': 12,
                   'approx_L': 1},
         'branch_costs': {},
         'requests': '3a7638f0180392af'},
    'run-doubling-256-3':
        {'count': 3,
         'comparisons': 3,
         'outcome': 'duplicate',
         'witness': (2, 3),
         'stats': {},
         'branch_costs': {},
         'requests': '24b9ee0bc20cbeff'},
    'run-block-2048-0':
        {'count': 23,
         'comparisons': 23,
         'outcome': 'duplicate',
         'witness': (3, 8),
         'stats': {'iterations': 1},
         'branch_costs': {},
         'requests': 'ae94265e92e0c1c2'},
    'run-median-2048-0':
        {'count': 6144,
         'comparisons': 6144,
         'outcome': 'duplicate',
         'witness': (10, 211),
         'stats': {'small_calls': 0, 'small_mass': 0},
         'branch_costs': {},
         'requests': '284bc9aeeb061ae7'},
    'run-clairvoyant-2048-0':
        {'count': 23,
         'comparisons': 23,
         'outcome': 'duplicate',
         'witness': (3, 8),
         'stats': {'path': 'block',
                   'L': 2,
                   'k': 414,
                   'bound': 3769.8086091746695,
                   'iterations': 1},
         'branch_costs': {},
         'requests': 'ae94265e92e0c1c2'},
    'run-oblivious-2048-0':
        {'count': 343,
         'comparisons': 343,
         'outcome': 'duplicate',
         'witness': (9, 14),
         'stats': {},
         'branch_costs': {'block:0': 32,
                          'block:1': 32,
                          'block:2': 31,
                          'block:3': 31,
                          'block:4': 31,
                          'double': 31,
                          'median:1': 31,
                          'median:2': 31,
                          'median:4': 31,
                          'median:8': 31,
                          'median:16': 31},
         'requests': '880c91c570dcc768'},
    'run-preprocessed-2048-0':
        {'count': 23,
         'comparisons': 23,
         'outcome': 'duplicate',
         'witness': (3, 8),
         'stats': {'path': 'block',
                   'L': 2,
                   'k': 414,
                   'bound': 3769.8086091746695,
                   'iterations': 1,
                   'mode': 'defer'},
         'branch_costs': {},
         'requests': 'ae94265e92e0c1c2'},
    'run-doubling-2048-0':
        {'count': 53,
         'comparisons': 53,
         'outcome': 'duplicate',
         'witness': (9, 14),
         'stats': {},
         'branch_costs': {},
         'requests': 'deba3a58bb29435d'},
    'run-block-2048-1':
        {'count': 166,
         'comparisons': 166,
         'outcome': 'duplicate',
         'witness': (32, 44),
         'stats': {'iterations': 1},
         'branch_costs': {},
         'requests': '4db6c5373f05158c'},
    'run-median-2048-1':
        {'count': 84764,
         'comparisons': 84764,
         'outcome': 'duplicate',
         'witness': (13, 683),
         'stats': {'small_calls': 56, 'small_mass': 1736},
         'branch_costs': {},
         'requests': 'baaba8645fe4dd68'},
    'run-clairvoyant-2048-1':
        {'count': 84764,
         'comparisons': 84764,
         'outcome': 'duplicate',
         'witness': (13, 683),
         'stats': {'path': 'median',
                   'L': 37,
                   'bound': 13639.894685360245,
                   'small_calls': 56,
                   'small_mass': 1736},
         'branch_costs': {},
         'requests': 'baaba8645fe4dd68'},
    'run-oblivious-2048-1':
        {'count': 1818,
         'comparisons': 1818,
         'outcome': 'duplicate',
         'witness': (32, 44),
         'stats': {},
         'branch_costs': {'block:0': 166,
                          'block:1': 166,
                          'block:2': 166,
                          'block:3': 165,
                          'block:4': 165,
                          'double': 165,
                          'median:1': 165,
                          'median:2': 165,
                          'median:4': 165,
                          'median:8': 165,
                          'median:16': 165},
         'requests': '30cacb4b4a0f62bf'},
    'run-preprocessed-2048-1':
        {'count': 84764,
         'comparisons': 84764,
         'outcome': 'duplicate',
         'witness': (13, 683),
         'stats': {'path': 'median',
                   'L': 37,
                   'bound': 13639.894685360245,
                   'small_calls': 56,
                   'small_mass': 1736,
                   'mode': 'defer'},
         'branch_costs': {},
         'requests': 'baaba8645fe4dd68'},
    'run-doubling-2048-1':
        {'count': 358,
         'comparisons': 358,
         'outcome': 'duplicate',
         'witness': (32, 44),
         'stats': {},
         'branch_costs': {},
         'requests': '8164bd805b0f93c5'},
    'run-block-2048-2':
        {'count': 621,
         'comparisons': 621,
         'outcome': 'duplicate',
         'witness': (1, 67),
         'stats': {'iterations': 1},
         'branch_costs': {},
         'requests': '1370b30765a7af55'},
    'run-median-2048-2':
        {'count': 14448,
         'comparisons': 14448,
         'outcome': 'duplicate',
         'witness': (42, 979),
         'stats': {'small_calls': 0, 'small_mass': 0},
         'branch_costs': {},
         'requests': '0d05fd1fab5ca651'},
    'run-clairvoyant-2048-2':
        {'count': 14448,
         'comparisons': 14448,
         'outcome': 'duplicate',
         'witness': (42, 979),
         'stats': {'path': 'median',
                   'L': 2,
                   'bound': 2048.0,
                   'small_calls': 0,
                   'small_mass': 0},
         'branch_costs': {},
         'requests': '0d05fd1fab5ca651'},
    'run-oblivious-2048-2':
        {'count': 6824,
         'comparisons': 6824,
         'outcome': 'duplicate',
         'witness': (1, 67),
         'stats': {},
         'branch_costs': {'block:0': 621,
                          'block:1': 621,
                          'block:2': 621,
                          'block:3': 621,
                          'block:4': 620,
                          'double': 620,
                          'median:1': 620,
                          'median:2': 620,
                          'median:4': 620,
                          'median:8': 620,
                          'median:16': 620},
         'requests': 'fc8497579cde3fdd'},
    'run-preprocessed-2048-2':
        {'count': 14448,
         'comparisons': 14448,
         'outcome': 'duplicate',
         'witness': (42, 979),
         'stats': {'path': 'median',
                   'L': 2,
                   'bound': 2048.0,
                   'small_calls': 0,
                   'small_mass': 0,
                   'mode': 'defer'},
         'branch_costs': {},
         'requests': '0d05fd1fab5ca651'},
    'run-doubling-2048-2':
        {'count': 1126,
         'comparisons': 1126,
         'outcome': 'duplicate',
         'witness': (1, 67),
         'stats': {},
         'branch_costs': {},
         'requests': '9f4667027022244b'},
    'run-block-2048-3':
        {'count': 3,
         'comparisons': 3,
         'outcome': 'duplicate',
         'witness': (2, 4),
         'stats': {'iterations': 1},
         'branch_costs': {},
         'requests': '79e8448d57237993'},
    'run-median-2048-3':
        {'count': 5832,
         'comparisons': 5832,
         'outcome': 'duplicate',
         'witness': (0, 936),
         'stats': {'small_calls': 0, 'small_mass': 0},
         'branch_costs': {},
         'requests': 'fdea4556a9ac3b8f'},
    'run-clairvoyant-2048-3':
        {'count': 3,
         'comparisons': 3,
         'outcome': 'duplicate',
         'witness': (2, 4),
         'stats': {'path': 'block',
                   'L': 1,
                   'k': 20,
                   'bound': 33.219280948873624,
                   'iterations': 1},
         'branch_costs': {},
         'requests': '79e8448d57237993'},
    'run-oblivious-2048-3':
        {'count': 23,
         'comparisons': 23,
         'outcome': 'duplicate',
         'witness': (0, 2),
         'stats': {},
         'branch_costs': {'block:0': 3,
                          'block:1': 2,
                          'block:2': 2,
                          'block:3': 2,
                          'block:4': 2,
                          'double': 2,
                          'median:1': 2,
                          'median:2': 2,
                          'median:4': 2,
                          'median:8': 2,
                          'median:16': 2},
         'requests': '6a760469889d65cf'},
    'run-preprocessed-2048-3':
        {'count': 3,
         'comparisons': 3,
         'outcome': 'duplicate',
         'witness': (2, 4),
         'stats': {'iterations': 1,
                   'mode': 'block',
                   'k': 20,
                   'approx_L': 2},
         'branch_costs': {},
         'requests': '79e8448d57237993'},
    'run-doubling-2048-3':
        {'count': 4,
         'comparisons': 4,
         'outcome': 'duplicate',
         'witness': (0, 2),
         'stats': {},
         'branch_costs': {},
         'requests': 'a447f7bf7d76f44b'},
    'kernel-sort-1-0':
        {'count': 0,
         'result': '05de2d8a86ddc2af',
         'requests': '4f53cda18c2baa0c'},
    'kernel-sort-cross-1-0':
        {'count': 0,
         'result': '05de2d8a86ddc2af',
         'requests': '4f53cda18c2baa0c'},
    'kernel-select-1-0':
        {'count': 0,
         'result': 'd0bca111f8628137',
         'requests': '4f53cda18c2baa0c'},
    'kernel-sort-1-1':
        {'count': 0,
         'result': '05de2d8a86ddc2af',
         'requests': '4f53cda18c2baa0c'},
    'kernel-sort-cross-1-1':
        {'count': 0,
         'result': '05de2d8a86ddc2af',
         'requests': '4f53cda18c2baa0c'},
    'kernel-select-1-1':
        {'count': 0,
         'result': 'd0bca111f8628137',
         'requests': '4f53cda18c2baa0c'},
    'kernel-sort-2-0':
        {'count': 1,
         'result': 'cbf6beac9b4878c7',
         'requests': '4c461d4a0ab0fe42'},
    'kernel-sort-cross-2-0':
        {'count': 1,
         'result': 'cbf6beac9b4878c7',
         'requests': '4c461d4a0ab0fe42'},
    'kernel-select-2-0':
        {'count': 2,
         'result': 'fad748aa45cceb71',
         'requests': 'd255447e13062c0b'},
    'kernel-sort-2-1':
        {'count': 1,
         'result': '67979117e47525d8',
         'requests': '4c461d4a0ab0fe42'},
    'kernel-sort-cross-2-1':
        {'count': 1,
         'result': '67979117e47525d8',
         'requests': '4c461d4a0ab0fe42'},
    'kernel-select-2-1':
        {'count': 2,
         'result': '923682bea6d517dc',
         'requests': 'd255447e13062c0b'},
    'kernel-sort-5-0':
        {'count': 6,
         'result': '137e1fabdc547fb9',
         'requests': '31893afc7e0a851e'},
    'kernel-sort-cross-5-0':
        {'count': 6,
         'result': '137e1fabdc547fb9',
         'requests': '31893afc7e0a851e'},
    'kernel-select-5-0':
        {'count': 18,
         'result': '807519301b2f89d3',
         'requests': 'f9d6aa425d9d28d2'},
    'kernel-sort-5-1':
        {'count': 1,
         'result': '67979117e47525d8',
         'requests': '4c461d4a0ab0fe42'},
    'kernel-sort-cross-5-1':
        {'count': 4,
         'result': '0a10cf58c814aed2',
         'requests': '6e4002296b0100c2'},
    'kernel-select-5-1':
        {'count': 18,
         'result': '321b5085a179e377',
         'requests': '0ec7e1f3cfc77260'},
    'kernel-sort-6-0':
        {'count': 11,
         'result': '13598cc5f02ad52c',
         'requests': 'b88a09a133ceeac5'},
    'kernel-sort-cross-6-0':
        {'count': 11,
         'result': '13598cc5f02ad52c',
         'requests': 'b88a09a133ceeac5'},
    'kernel-select-6-0':
        {'count': 43,
         'result': '8199db4dd994d130',
         'requests': '5064f050f7b68eb1'},
    'kernel-sort-6-1':
        {'count': 1,
         'result': '189ae2040ddea612',
         'requests': 'd2befae1db2d4c20'},
    'kernel-sort-cross-6-1':
        {'count': 5,
         'result': '73c607b314e8fc9a',
         'requests': 'd4383a9ce45e37ef'},
    'kernel-select-6-1':
        {'count': 33,
         'result': '4bde371dab7440b8',
         'requests': '2044a51a9e5595fd'},
    'kernel-sort-4096-0':
        {'count': 43927,
         'result': 'dae298cbf5751863',
         'requests': '566a5ba770c45490'},
    'kernel-sort-cross-4096-0':
        {'count': 43927,
         'result': 'dae298cbf5751863',
         'requests': '566a5ba770c45490'},
    'kernel-select-4096-0':
        {'count': 90516,
         'result': '968b9fffdbd157d6',
         'requests': 'bd19441ad9a9512b'},
    'kernel-sort-4096-1':
        {'count': 273,
         'result': 'bcf5c72b556ab3c7',
         'requests': 'e7a7f5af6d731130'},
    'kernel-sort-cross-4096-1':
        {'count': 39871,
         'result': '633d5f5f929d7914',
         'requests': '5acb715552c03204'},
    'kernel-select-4096-1':
        {'count': 90489,
         'result': '10228ac268e0d2ba',
         'requests': '6df75df8467c421e'},
    'median-2-64-0':
        {'count': 168,
         'result': 'f12a8fe42ec71514',
         'stats': {'small_calls': 0, 'small_mass': 0},
         'branch_costs': None,
         'requests': '5252c0c66da1084b'},
    'median-default-64-0':
        {'count': 168,
         'result': 'f12a8fe42ec71514',
         'stats': {'small_calls': 0, 'small_mass': 0},
         'branch_costs': None,
         'requests': '5252c0c66da1084b'},
    'budgeted-1-64-0':
        {'count': 168,
         'result': 'f12a8fe42ec71514',
         'stats': None,
         'branch_costs': None,
         'requests': '5252c0c66da1084b'},
    'budgeted-4-64-0':
        {'count': 168,
         'result': 'f12a8fe42ec71514',
         'stats': None,
         'branch_costs': None,
         'requests': '5252c0c66da1084b'},
    'oblivious-64-0':
        {'count': 1,
         'result': 'a87b50dc5401d8a7',
         'stats': None,
         'branch_costs': {'block:0': 1,
                          'block:1': 0,
                          'block:2': 0,
                          'block:3': 0,
                          'double': 0,
                          'median:1': 0,
                          'median:2': 0,
                          'median:4': 0,
                          'median:8': 0},
         'requests': '4c461d4a0ab0fe42'},
    'median-2-64-1':
        {'count': 807,
         'result': 'c7c208d59f469321',
         'stats': {'small_calls': 16, 'small_mass': 16},
         'branch_costs': None,
         'requests': 'cc2b483ec093e605'},
    'median-default-64-1':
        {'count': 564,
         'result': 'c7c208d59f469321',
         'stats': {'small_calls': 2, 'small_mass': 30},
         'branch_costs': None,
         'requests': 'c3c42a0e5f09a9ef'},
    'budgeted-1-64-1':
        {'count': 1046,
         'result': 'a6eee3daa57d5a08',
         'stats': None,
         'branch_costs': None,
         'requests': 'e57e3bfd6ad94067'},
    'budgeted-4-64-1':
        {'count': 1433,
         'result': 'a6eee3daa57d5a08',
         'stats': None,
         'branch_costs': None,
         'requests': '944c5a11fe7e8c57'},
    'oblivious-64-1':
        {'count': 10,
         'result': '4496dad560b283b5',
         'stats': None,
         'branch_costs': {'block:0': 2,
                          'block:1': 1,
                          'block:2': 1,
                          'block:3': 1,
                          'double': 1,
                          'median:1': 1,
                          'median:2': 1,
                          'median:4': 1,
                          'median:8': 1},
         'requests': '972a6ec38e62032c'},
    'median-2-64-2':
        {'count': 320,
         'result': 'b171278af6f2c8f3',
         'stats': {'small_calls': 0, 'small_mass': 0},
         'branch_costs': None,
         'requests': '8576504ea647429b'},
    'median-default-64-2':
        {'count': 320,
         'result': 'b171278af6f2c8f3',
         'stats': {'small_calls': 0, 'small_mass': 0},
         'branch_costs': None,
         'requests': '8576504ea647429b'},
    'budgeted-1-64-2':
        {'count': 320,
         'result': 'b171278af6f2c8f3',
         'stats': None,
         'branch_costs': None,
         'requests': '8576504ea647429b'},
    'budgeted-4-64-2':
        {'count': 320,
         'result': 'b171278af6f2c8f3',
         'stats': None,
         'branch_costs': None,
         'requests': '8576504ea647429b'},
    'oblivious-64-2':
        {'count': 587,
         'result': '8a00a0109341b0b1',
         'stats': None,
         'branch_costs': {'block:0': 66,
                          'block:1': 66,
                          'block:2': 65,
                          'block:3': 65,
                          'double': 65,
                          'median:1': 65,
                          'median:2': 65,
                          'median:4': 65,
                          'median:8': 65},
         'requests': 'cb24df867b5df936'},
    'median-2-64-3':
        {'count': 166,
         'result': '2cc1e6bed9875788',
         'stats': {'small_calls': 0, 'small_mass': 0},
         'branch_costs': None,
         'requests': '2968d3d9685ef3f9'},
    'median-default-64-3':
        {'count': 166,
         'result': '2cc1e6bed9875788',
         'stats': {'small_calls': 0, 'small_mass': 0},
         'branch_costs': None,
         'requests': '2968d3d9685ef3f9'},
    'budgeted-1-64-3':
        {'count': 162,
         'result': 'b10c152e65220b20',
         'stats': None,
         'branch_costs': None,
         'requests': 'd281f914c8e1cd78'},
    'budgeted-4-64-3':
        {'count': 162,
         'result': 'b10c152e65220b20',
         'stats': None,
         'branch_costs': None,
         'requests': 'd281f914c8e1cd78'},
    'oblivious-64-3':
        {'count': 1,
         'result': 'a87b50dc5401d8a7',
         'stats': None,
         'branch_costs': {'block:0': 1,
                          'block:1': 0,
                          'block:2': 0,
                          'block:3': 0,
                          'double': 0,
                          'median:1': 0,
                          'median:2': 0,
                          'median:4': 0,
                          'median:8': 0},
         'requests': '4c461d4a0ab0fe42'},
    'median-2-1024-0':
        {'count': 6307,
         'result': 'c3a2b9b6d056e2a1',
         'stats': {'small_calls': 0, 'small_mass': 0},
         'branch_costs': None,
         'requests': '6f9d4923b3788511'},
    'median-default-1024-0':
        {'count': 6307,
         'result': 'c3a2b9b6d056e2a1',
         'stats': {'small_calls': 0, 'small_mass': 0},
         'branch_costs': None,
         'requests': '6f9d4923b3788511'},
    'budgeted-1-1024-0':
        {'count': 6307,
         'result': 'c3a2b9b6d056e2a1',
         'stats': None,
         'branch_costs': None,
         'requests': '6f9d4923b3788511'},
    'budgeted-4-1024-0':
        {'count': 6307,
         'result': 'c3a2b9b6d056e2a1',
         'stats': None,
         'branch_costs': None,
         'requests': '6f9d4923b3788511'},
    'oblivious-1024-0':
        {'count': 343,
         'result': '49ef6f9725ef3b7c',
         'stats': None,
         'branch_costs': {'block:0': 32,
                          'block:1': 32,
                          'block:2': 31,
                          'block:3': 31,
                          'block:4': 31,
                          'double': 31,
                          'median:1': 31,
                          'median:2': 31,
                          'median:4': 31,
                          'median:8': 31,
                          'median:16': 31},
         'requests': '85088212ad9d9a5d'},
    'median-2-1024-1':
        {'count': 29730,
         'result': 'c3ac82b2b83d708b',
         'stats': {'small_calls': 256, 'small_mass': 256},
         'branch_costs': None,
         'requests': 'a4529866f8f88763'},
    'median-default-1024-1':
        {'count': 16947,
         'result': 'c3ac82b2b83d708b',
         'stats': {'small_calls': 4, 'small_mass': 508},
         'branch_costs': None,
         'requests': '26acd4fec4713e0d'},
    'budgeted-1-1024-1':
        {'count': 27546,
         'result': 'a7a117d0dec9938e',
         'stats': None,
         'branch_costs': None,
         'requests': 'd0fc5502f6c74620'},
    'budgeted-4-1024-1':
        {'count': 48031,
         'result': 'a7a117d0dec9938e',
         'stats': None,
         'branch_costs': None,
         'requests': 'f4888b179bdfad33'},
    'oblivious-1024-1':
        {'count': 221,
         'result': '967bb5307ed8f88c',
         'stats': None,
         'branch_costs': {'block:0': 21,
                          'block:1': 20,
                          'block:2': 20,
                          'block:3': 20,
                          'block:4': 20,
                          'double': 20,
                          'median:1': 20,
                          'median:2': 20,
                          'median:4': 20,
                          'median:8': 20,
                          'median:16': 20},
         'requests': '85f6c4f98e91f840'},
    'median-2-1024-2':
        {'count': 6700,
         'result': 'aa81f13c1f87103c',
         'stats': {'small_calls': 0, 'small_mass': 0},
         'branch_costs': None,
         'requests': 'bbfe142ffee09313'},
    'median-default-1024-2':
        {'count': 6700,
         'result': 'aa81f13c1f87103c',
         'stats': {'small_calls': 0, 'small_mass': 0},
         'branch_costs': None,
         'requests': 'bbfe142ffee09313'},
    'budgeted-1-1024-2':
        {'count': 6700,
         'result': 'aa81f13c1f87103c',
         'stats': None,
         'branch_costs': None,
         'requests': 'bbfe142ffee09313'},
    'budgeted-4-1024-2':
        {'count': 6700,
         'result': 'aa81f13c1f87103c',
         'stats': None,
         'branch_costs': None,
         'requests': 'bbfe142ffee09313'},
    'oblivious-1024-2':
        {'count': 421,
         'result': 'd572b6baa3ce9520',
         'stats': None,
         'branch_costs': {'block:0': 39,
                          'block:1': 39,
                          'block:2': 39,
                          'block:3': 38,
                          'block:4': 38,
                          'double': 38,
                          'median:1': 38,
                          'median:2': 38,
                          'median:4': 38,
                          'median:8': 38,
                          'median:16': 38},
         'requests': 'ef0170ab862fd813'},
    'median-2-1024-3':
        {'count': 2881,
         'result': '6547fe418f34e099',
         'stats': {'small_calls': 0, 'small_mass': 0},
         'branch_costs': None,
         'requests': '42582dd8b2a069b9'},
    'median-default-1024-3':
        {'count': 2881,
         'result': '6547fe418f34e099',
         'stats': {'small_calls': 0, 'small_mass': 0},
         'branch_costs': None,
         'requests': '42582dd8b2a069b9'},
    'budgeted-1-1024-3':
        {'count': 2873,
         'result': '37a0598d2c4d787b',
         'stats': None,
         'branch_costs': None,
         'requests': 'b092cf2734f54d5c'},
    'budgeted-4-1024-3':
        {'count': 2873,
         'result': '37a0598d2c4d787b',
         'stats': None,
         'branch_costs': None,
         'requests': 'b092cf2734f54d5c'},
    'oblivious-1024-3':
        {'count': 1,
         'result': 'a87b50dc5401d8a7',
         'stats': None,
         'branch_costs': {'block:0': 1,
                          'block:1': 0,
                          'block:2': 0,
                          'block:3': 0,
                          'block:4': 0,
                          'double': 0,
                          'median:1': 0,
                          'median:2': 0,
                          'median:4': 0,
                          'median:8': 0,
                          'median:16': 0},
         'requests': '4c461d4a0ab0fe42'},
    'order-16':
        {'k': 12,
         'rounds': 8,
         'transcript': '90b523379ad9cabc',
         'values': '587b0617f8de89c3',
         'baseline': {'count': 97,
                      'comparisons': 97,
                      'outcome': 'duplicate',
                      'witness': (14, 15),
                      'stats': {},
                      'branch_costs': {},
                      'requests': '33e10075ae3f12a8'},
         'doubling': {'count': 40,
                      'comparisons': 40,
                      'outcome': 'duplicate',
                      'witness': (14, 15),
                      'stats': {},
                      'branch_costs': {},
                      'requests': 'e6d8af890b0b28c3'}},
    'order-256':
        {'k': 224,
         'rounds': 256,
         'transcript': 'be84487bfa5203dc',
         'values': '916cccb98ef5b4aa',
         'baseline': {'count': 3145,
                      'comparisons': 3145,
                      'outcome': 'duplicate',
                      'witness': (254, 255),
                      'stats': {},
                      'branch_costs': {},
                      'requests': '2a2d60062ad7b616'},
         'doubling': {'count': 1827,
                      'comparisons': 1827,
                      'outcome': 'duplicate',
                      'witness': (254, 255),
                      'stats': {},
                      'branch_costs': {},
                      'requests': 'c3a98d8f17ff7318'}},
    'order-2048':
        {'k': 1793,
         'rounds': 2816,
         'transcript': 'd7682a70cdd425e8',
         'values': '9c537c78a96ce874',
         'baseline': {'count': 27622,
                      'comparisons': 27622,
                      'outcome': 'duplicate',
                      'witness': (2046, 2047),
                      'stats': {},
                      'branch_costs': {},
                      'requests': '4254050b637b989a'},
         'doubling': {'count': 22555,
                      'comparisons': 22555,
                      'outcome': 'duplicate',
                      'witness': (2046, 2047),
                      'stats': {},
                      'branch_costs': {},
                      'requests': 'e1fad3d24e2101f1'}},
    'duel-block-256-0':
        {'rows': [[256, 4, 'block', True, True, 5]], 'violations': []},
    'duel-median-256-0':
        {'rows': [[256, 4, 'median', True, True, 4]], 'violations': []},
    'duel-oblivious-256-0':
        {'rows': [[256, 4, 'oblivious', True, True, 2]], 'violations': []},
    'duel-doubling-256-0':
        {'rows': [[256, 4, 'doubling', True, True, 3]], 'violations': []},
    'duel-block-256-1':
        {'rows': [[256, 24, 'block', True, True, 2468]], 'violations': []},
    'duel-median-256-1':
        {'rows': [[256, 24, 'median', True, True, 2630]], 'violations': []},
    'duel-oblivious-256-1':
        {'rows': [[256, 24, 'oblivious', True, True, 2731]],
         'violations': []},
    'duel-doubling-256-1':
        {'rows': [[256, 24, 'doubling', True, True, 2715]],
         'violations': []},
    'duel-block-256-2':
        {'rows': [[256, 19, 'block', True, True, 1675]], 'violations': []},
    'duel-median-256-2':
        {'rows': [[256, 19, 'median', True, True, 1673]], 'violations': []},
    'duel-oblivious-256-2':
        {'rows': [[256, 19, 'oblivious', True, True, 1634]],
         'violations': []},
    'duel-doubling-256-2':
        {'rows': [[256, 19, 'doubling', True, True, 960]], 'violations': []},
    'duel-block-256-3':
        {'rows': [[256, 0, 'block', True, True, 1]], 'violations': []},
    'duel-median-256-3':
        {'rows': [[256, 0, 'median', True, True, 1]], 'violations': []},
    'duel-oblivious-256-3':
        {'rows': [[256, 0, 'oblivious', True, True, 1]], 'violations': []},
    'duel-doubling-256-3':
        {'rows': [[256, 0, 'doubling', True, True, 1]], 'violations': []},
    'duel-block-1024-0':
        {'rows': [[1024, 21, 'block', True, True, 22]], 'violations': []},
    'duel-median-1024-0':
        {'rows': [[1024, 21, 'median', True, True, 11]], 'violations': []},
    'duel-oblivious-1024-0':
        {'rows': [[1024, 21, 'oblivious', True, True, 2]], 'violations': []},
    'duel-doubling-1024-0':
        {'rows': [[1024, 21, 'doubling', True, True, 13]], 'violations': []},
    'duel-block-1024-1':
        {'rows': [[1024, 96, 'block', True, True, 11784]], 'violations': []},
    'duel-median-1024-1':
        {'rows': [[1024, 96, 'median', True, True, 12008]],
         'violations': []},
    'duel-oblivious-1024-1':
        {'rows': [[1024, 96, 'oblivious', True, True, 11706]],
         'violations': []},
    'duel-doubling-1024-1':
        {'rows': [[1024, 96, 'doubling', True, True, 11662]],
         'violations': []},
    'duel-block-1024-2':
        {'rows': [[1024, 19, 'block', True, True, 20]], 'violations': []},
    'duel-median-1024-2':
        {'rows': [[1024, 19, 'median', True, True, 12]], 'violations': []},
    'duel-oblivious-1024-2':
        {'rows': [[1024, 19, 'oblivious', True, True, 3]], 'violations': []},
    'duel-doubling-1024-2':
        {'rows': [[1024, 19, 'doubling', True, True, 15]], 'violations': []},
    'duel-block-1024-3':
        {'rows': [[1024, 0, 'block', True, True, 1]], 'violations': []},
    'duel-median-1024-3':
        {'rows': [[1024, 0, 'median', True, True, 1]], 'violations': []},
    'duel-oblivious-1024-3':
        {'rows': [[1024, 0, 'oblivious', True, True, 1]], 'violations': []},
    'duel-doubling-1024-3':
        {'rows': [[1024, 0, 'doubling', True, True, 1]], 'violations': []},
}


@pytest.mark.parametrize("key", list(CASES))
def test_golden_run(key):
    assert case_record(key) == GOLDEN[key]


if __name__ == "__main__":
    print("GOLDEN = {")
    for key in CASES:
        rec = pprint.pformat(case_record(key), width=68, sort_dicts=False)
        print(f"    {key!r}:")
        print(textwrap.indent(rec, " " * 8) + ",")
    print("}")
