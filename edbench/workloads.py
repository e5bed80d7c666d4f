"""The benchmark's three workloads, each a fixed list of tasks.

A task is a call into edlab's public functions (``run``) plus a
ground-truth check of its result (``check``) that returns the task's
pinned record and a list of errors.  Tasks look every edlab function up
on its module when they run, so the traced run sees the wrapped names.

Inputs come from two sources.  A fixed grid, drawn once from harness's
own random families with constant grid seeds, gives every cluster
profile, the order of its clusters' values and the duel pairings: these
set a finder's or a game's cost by up to 10x, so redrawing them per run
would swamp every timing.  The workload seed draws the rest: where each
value sits in a finder instance, and the set-intersection instances.
Games take nothing from the seed: the tree adversary and the opponents
are deterministic and never look at positions, so a game's input is its
(opponent, profile, rounds) triple, all on the grid.  All inputs are
built before the first task.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import edlab.cli  # noqa: F401  (its import cost is part of setup_s)
from edlab import adversary, core, harness, profiles, setint
from edlab.core import Answer, Outcome
from edlab.profiles import ClusterProfile

SIZES = tuple(2 ** k for k in range(10, 15))
SEPARATION_SIZES = (4096, 16384, 65536)
SI_N = 4096
SI_BIG_N = 32768


@dataclass
class Task:
    id: str
    run: Callable[[], object]
    check: Callable[[object], tuple]  # result -> (record, errors)


def _rng(*parts) -> random.Random:
    # string seeds hash through sha512: stable across runs and interpreters
    return random.Random(":".join(map(str, parts)))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _transcript_digest(transcript) -> str:
    return _digest(";".join(f"{x},{y},{a.value}" for x, y, a in transcript))


def _values_digest(values) -> str:
    return _digest(",".join(map(str, values)))


def _replays(values, transcript) -> bool:
    """Ground truth: every recorded answer matches the values' order."""
    n = len(values)
    for x, y, ans in transcript:
        if x == y or not (0 <= x < n and 0 <= y < n):
            return False
        vx, vy = values[x], values[y]
        if ans is not (Answer.LT if vx < vy else Answer.GT if vx > vy
                       else Answer.EQ):
            return False
    return True


def _witness_errors(values, witness, cross_at=None):
    """Errors unless witness is an in-range pair of equal values
    (and, for set intersection, one index on each side of cross_at)."""
    if witness is None:
        return ["duplicate verdict without a witness"]
    x, y = witness
    n = len(values)
    if not (0 <= x < n and 0 <= y < n) or x == y:
        return [f"witness ({x},{y}) is not two distinct indices below {n}"]
    if cross_at is not None and not x < cross_at <= y:
        return [f"witness ({x},{y}) does not cross sides at {cross_at}"]
    if values[x] != values[y]:
        return [f"witness ({x},{y}) holds unequal values"]
    return []


def _report_record(rep):
    return {"cmp": rep.comparisons, "outcome": rep.outcome.value,
            "witness": list(rep.witness) if rep.witness else None}


def _run_errors(oracle, rep, values, cross_at=None):
    errs = []
    if rep.comparisons != oracle.count:
        errs.append(f"report counts {rep.comparisons} comparisons, "
                    f"oracle {oracle.count}")
    if rep.outcome is not Outcome.DUPLICATE:
        errs.append(f"verdict {rep.outcome.value} on an input with a duplicate")
    else:
        errs += _witness_errors(values, rep.witness, cross_at)
    return errs


# --- finders -------------------------------------------------------------

def finders(seed: int) -> list:
    """Every instance runs all six runners with default parameters.

    Instance mode: the oracle, the drivers and the sort/select kernels do
    the work; no adversary runs.  4 harness.random_profile modes x
    n = 2^10..2^14, 120 tasks.
    """
    tasks = []
    for n in SIZES:
        for mode in range(4):
            prof = ClusterProfile(harness.random_profile(
                _rng("grid", "finders", n, mode), n, mode))
            values = list(core.realize_instance(
                prof, _rng("grid", "ranks", n, mode).getrandbits(32)).values)
            _rng(seed, "finders", n, mode).shuffle(values)
            inst = core.Instance(tuple(values))
            for algo in harness.RUN_ALGOS:
                tasks.append(_finder_task(f"n{n}-mode{mode}-{algo}", algo, inst))
    return tasks


def _finder_task(task_id, algo, inst):
    def run():
        return harness.run_algorithm(algo, inst)

    def check(out):
        oracle, rep = out
        errs = _run_errors(oracle, rep, inst.values)
        err = harness.check_report(inst, rep)
        if err:
            errs.append(err)
        return _report_record(rep), errs
    return Task(task_id, run, check)


# --- games -----------------------------------------------------------------

def games(seed: int) -> list:
    """Adversary games, duels and separation rows.

    Per n = 2^10..2^14 and harness.random_multicluster_profile mode, one
    game shaped like acceptance criterion 5 and one harness.cmd_duel, the
    four duel opponents rotating over the four modes; plus
    harness.separation_row at 4096, 16384 and 65536.  Chain packing
    dominates.  43 tasks.
    """
    tasks = []
    for k, n in enumerate(SIZES):
        lln = math.log2(math.log2(n))
        for mode in range(4):
            opp = harness.DUEL_ALGOS[(k + mode) % 4]
            prof = ClusterProfile(harness.random_multicluster_profile(
                _rng("grid", "games", n, mode), n, mode))
            rounds = min(int(n * lln / 8),
                         int(profiles.lower_bound_median(prof)))
            tag = f"n{n}-mode{mode}-{opp}"
            tasks.append(_game_task(f"game-{tag}", opp, n, prof, rounds))
            tasks.append(_duel_task(f"duel-{tag}", opp, n, prof))
    tasks += [_separation_task(n) for n in SEPARATION_SIZES]
    return tasks


def _game_task(task_id, opp, n, prof, rounds):
    def run():
        state = adversary.play_game(harness.duel_opponent(opp, prof), n, rounds)
        i = adversary.few_deep_index(state, n)
        inst = adversary.realize(state, adversary.pack_isomorphic(state, prof))
        return (state, i, inst, core.replay_transcript(inst, state.transcript),
                core.verify_graph(inst, prof))

    def check(out):
        state, i, inst, replay_ok, graph_ok = out
        errs = []
        if state.halted is not None or state.rounds_played != rounds:
            errs.append(f"game stopped after {state.rounds_played} of "
                        f"{rounds} rounds")
        if any(a is Answer.EQ for _, _, a in state.transcript):
            errs.append("tree adversary answered EQ")
        if i < 1:
            errs.append(f"few-deep index {i} < 1")
        if not (replay_ok and graph_ok):
            errs.append("edlab rejected its own realized instance")
        if not _replays(inst.values, state.transcript):
            errs.append("transcript does not replay on the realized instance")
        if sorted(Counter(inst.values).values()) != sorted(prof.sizes):
            errs.append("realized instance is off-profile")
        rec = {"rounds": state.rounds_played, "few_deep": i,
               "transcript": _transcript_digest(state.transcript),
               "instance": _values_digest(inst.values)}
        return rec, errs
    return Task(task_id, run, check)


def _duel_task(task_id, opp, n, prof):
    def run():
        return harness.cmd_duel(opp, n, prof)

    def check(out):
        _, rows, violations = out
        errs = list(violations)
        if rows[0][4] is not True:
            errs.append("duel's realized instance is inconsistent")
        return {"row": rows[0]}, errs
    return Task(task_id, run, check)


def _separation_task(n):
    def run():
        return harness.separation_row(n)

    def check(out):
        row, bad, _ = out
        errs = [bad] if bad else []
        if row[-1] is not True:
            errs.append("separation instance is inconsistent")
        return {"row": row}, errs
    return Task(f"separation-n{n}", run, check)


# --- set intersection --------------------------------------------------------

def setint_tasks(seed: int) -> list:
    """The only workload that runs setint and SIAdversary.

    si_family(4096, i) for i = 1..16, partner placed by the seed and
    last, each solved by si_doubling and then si_clairvoyant in one task
    (one task per instance keeps the latency percentiles off the gap
    between the two solvers' costs); si_clairvoyant on two seeded
    si_family(32768, i) instances; one bipartite adversary game against
    si_doubling_gen at n = 4096 with si_clairvoyant on its realized
    instance.  35 tasks.
    """
    tasks = []
    for i in range(1, round(SI_N ** (1 / 3)) + 1):
        for last in (False, True):
            inst = setint.realize_si_family(
                SI_N, i, seed=_rng(seed, "setint", i, last).getrandbits(32),
                partner_last=last)
            tag = f"n{SI_N}-i{i}-{'last' if last else 'seeded'}"
            tasks.append(_si_task(f"si_family-{tag}", inst, i, SI_N,
                                  ("si_doubling", "si_clairvoyant")))
    for c in range(2):
        rng = _rng(seed, "setint-big", c)
        i = rng.randint(1, round(SI_BIG_N ** (1 / 3)))
        inst = setint.realize_si_family(SI_BIG_N, i, seed=rng.getrandbits(32))
        tasks.append(_si_task(f"si_family-n{SI_BIG_N}-{c}", inst, i,
                              SI_BIG_N, ("si_clairvoyant",)))
    tasks.append(_si_game_task(SI_N))
    return tasks


def _si_task(task_id, inst, i, n, solvers):
    """Each solver in turn on a fresh oracle over the family instance."""
    def run():
        out = []
        for name in solvers:
            oracle = inst.oracle()
            if name == "si_doubling":
                rep = setint.si_doubling(oracle, inst.na, inst.nb)
            else:
                rep = setint.si_clairvoyant(oracle, inst.na, inst.nb, i, n)
            out.append((name, oracle, rep))
        return out

    def check(out):
        values = inst.a_values + inst.b_values
        rec, errs = {}, []
        for name, oracle, rep in out:
            errs += _run_errors(oracle, rep, values, cross_at=inst.na)
            rec[name] = _report_record(rep)
        return rec, errs
    return Task(task_id, run, check)


def _si_game_task(n):
    def run():
        game = adversary.si_adversary_game(
            lambda m: setint.si_doubling_gen(m, m), n)
        inst = game.instance
        oracle = inst.oracle()
        rep = setint.si_clairvoyant(oracle, inst.na, inst.nb, game.j, n)
        return game, oracle, rep

    def check(out):
        game, oracle, rep = out
        inst = game.instance
        values = inst.a_values + inst.b_values
        errs = _run_errors(oracle, rep, values, cross_at=inst.na)
        if game.opponent_finished:
            errs.append("si_doubling finished inside the round budget")
        if not _replays(values, game.transcript):
            errs.append("transcript does not replay on the realized instance")
        shared = set(inst.a_values) & set(inst.b_values)
        a_sizes = Counter(inst.a_values)
        if len(shared) != 1 or a_sizes[next(iter(shared))] != game.j:
            errs.append(f"realized instance does not intersect in one "
                        f"A-cluster of size {game.j}")
        rec = {"rounds": game.rounds_played, "j": game.j,
               "transcript": _transcript_digest(game.transcript),
               "instance": _values_digest(values),
               "clairvoyant": _report_record(rep)}
        return rec, errs
    return Task(f"si_game-n{n}", run, check)


WORKLOADS = {"finders": finders, "games": games, "setint": setint_tasks}
