"""Experiment harness and command line interface tests."""

import csv
import io
import math
import random

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edlab import algorithms, harness, setint, sortsel
from edlab.cli import main
from edlab.core import Instance, Outcome, RunReport, read_instance
from edlab.harness import (
    RUN_ALGOS,
    check_report,
    default_block_k,
    default_median_L,
    derive_seed,
    effective_seed,
    power_law_sizes,
    profile_of_instance,
    random_multicluster_profile,
    random_profile,
    reconstruction_budget,
    run_algorithm,
)
from edlab.profiles import ClusterProfile, read_profile
from edlab.core import realize_instance
from edlab.setint import realize_si_family, write_si_instance


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


# --- seeds and generators ---------------------------------------------------

def test_effective_seed_default_and_override(monkeypatch):
    monkeypatch.delenv("EDLAB_SEED", raising=False)
    assert effective_seed(7) == 7
    monkeypatch.setenv("EDLAB_SEED", "42")
    assert effective_seed(7) == 42


def test_derive_seed_deterministic_and_spread():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    seen = {derive_seed(0, i) for i in range(100)}
    assert len(seen) == 100
    assert all(0 <= s < 2 ** 32 for s in seen)


@pytest.mark.parametrize("mode", [0, 1, 2, 3])
def test_random_profile_modes(mode):
    rng = random.Random(mode + 11)
    for n in [8, 64, 257, 1024]:
        sizes = random_profile(rng, n, mode)
        assert sum(sizes) == n
        assert all(s >= 1 for s in sizes)
        # these instances are meant to exercise the duplicate finders
        assert max(sizes) >= 2


def test_random_multicluster_profile_has_two_clusters():
    rng = random.Random(5)
    for n in range(2, 80):
        sizes = random_multicluster_profile(rng, n, n % 4)
        assert sum(sizes) == n
        assert len(sizes) >= 2


def test_power_law_sizes_exact_budget():
    rng = random.Random(3)
    for m, n in [(1, 10), (4, 16), (8, 64), (30, 30)]:
        sizes = power_law_sizes(rng, m, n)
        assert len(sizes) == m
        assert sum(sizes) == n
        assert all(s >= 1 for s in sizes)


@pytest.mark.parametrize("m", [0, 11])
def test_power_law_sizes_refuses_m_outside_1_to_n(m):
    # cmd_gen refuses these values first, naming the option; the helper's
    # own check is what a library caller meets
    with pytest.raises(ValueError, match=r"^need 1 <= m <= n$"):
        power_law_sizes(random.Random(0), m, 10)


def test_profile_of_instance_recovers_multiset():
    prof = ClusterProfile([3, 2, 1, 1])
    inst = realize_instance(prof, seed=9)
    assert profile_of_instance(inst) == prof


def test_default_parameters():
    prof = ClusterProfile([3, 1, 1, 1])
    # L2 = 1 with four clusters, so the block variant gets k = 8
    assert default_block_k(prof) == 8
    assert default_median_L(prof) == 3
    assert default_median_L(ClusterProfile([1, 1])) == 2


def test_reconstruction_budget_positive_on_typical_profiles():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randrange(64, 512)
        prof = ClusterProfile(random_profile(rng, n, rng.randrange(4)))
        b = reconstruction_budget(prof)
        assert isinstance(b, int)
        assert b >= 0
        assert b <= n / 8


# --- run_algorithm + check_report -------------------------------------------

def test_run_algorithm_dispatch_and_ground_truth():
    prof = ClusterProfile([4, 2, 1, 1])
    inst = realize_instance(prof, seed=2)
    for algo in ["block", "median", "clairvoyant", "preprocessed", "doubling"]:
        oracle, rep = run_algorithm(algo, inst, prof)
        assert rep.outcome is Outcome.DUPLICATE
        assert rep.comparisons == oracle.count
        assert check_report(inst, rep) is None


def _settled(algo, inst, prof):
    """What run_algorithm returns or raises, as comparable data."""
    try:
        oracle, rep = run_algorithm(algo, inst, prof)
    except ValueError as exc:  # oblivious needs n >= 2
        return str(exc)
    return rep, oracle.count


CONTRACT = "instance does not realize the claimed profile"


@pytest.mark.parametrize("algo", RUN_ALGOS)
@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=10),
       seed=st.integers(0, 99))
@example(sizes=[1], seed=0)
@example(sizes=[2], seed=0)
@example(sizes=[1, 1], seed=0)
@example(sizes=[1] * 7, seed=3)
def test_run_algorithm_settles_the_profile(algo, sizes, seed):
    inst = realize_instance(ClusterProfile(sizes), seed)
    assert (_settled(algo, inst, profile_of_instance(inst))
            == _settled(algo, inst, None))
    n = len(inst)
    others = [ClusterProfile(sizes + [1])]  # another n
    if n > 1:  # the same n, another shape
        others.append(ClusterProfile([n - 1, 1] if max(sizes) == n else [n]))
    for other in others:
        with pytest.raises(ValueError, match=f"^{CONTRACT}$"):
            run_algorithm(algo, inst, other)


@pytest.mark.parametrize("algo", RUN_ALGOS)
def test_run_algorithm_checks_a_profile_once(algo, monkeypatch):
    calls = {"verify": 0, "derive": 0}

    def counting(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper
    monkeypatch.setattr(harness, "verify_graph",
                        counting("verify", harness.verify_graph))
    monkeypatch.setattr(harness, "profile_of_instance",
                        counting("derive", harness.profile_of_instance))
    prof = ClusterProfile([4, 2, 1, 1])
    inst = realize_instance(prof, seed=2)
    run_algorithm(algo, inst, prof)
    assert calls == {"verify": 1, "derive": 0}
    calls.update(verify=0)
    run_algorithm(algo, inst)
    reads_profile = algo not in ("oblivious", "doubling")
    assert calls == {"verify": 0, "derive": int(reads_profile)}
    # with an explicit k or L, block and median read no profile
    explicit = {"block": {"k": 2}, "median": {"L": 2}}.get(algo)
    if explicit is not None:
        calls.update(derive=0)
        run_algorithm(algo, inst, **explicit)
        assert calls == {"verify": 0, "derive": 0}
    # the runners take their profile as given
    assert not hasattr(algorithms, "verify_graph")


@pytest.mark.parametrize("algo, option, message", [
    (algo, option, f"{flag} applies only to --algo {owner}")
    for option, owner, flag in (("k", "block", "--k"), ("L", "median", "--l"))
    for algo in RUN_ALGOS if algo != owner])
def test_run_algorithm_refuses_an_option_its_algorithm_does_not_read(
        algo, option, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_algorithm(algo, Instance((5, 1, 2, 5)), **{option: 2})


def test_run_algorithm_unknown_name():
    inst = realize_instance(ClusterProfile([2]), seed=0)
    with pytest.raises(ValueError):
        run_algorithm("quicksort", inst, ClusterProfile([2]))


def test_duel_opponent_unknown_name():
    with pytest.raises(ValueError,
                       match="^no adversary opponent named 'quicksort'$"):
        harness.duel_opponent("quicksort", ClusterProfile([2, 1]))


def test_duel_refuses_n_other_than_the_profile_size():
    with pytest.raises(ValueError, match="^profile covers 3 elements, not 4$"):
        harness.cmd_duel("block", 4, ClusterProfile([2, 1]))


def test_check_report_flags_bad_claims():
    inst = realize_instance(ClusterProfile([2, 1]), seed=4)
    x, y = [i for i in range(3)
            if inst.values.count(inst.values[i]) == 2][:2]
    other = next(i for i in range(3) if inst.values[i] != inst.values[x])
    good = RunReport(Outcome.DUPLICATE, (x, y), 1)
    assert check_report(inst, good) is None
    bad_pair = RunReport(Outcome.DUPLICATE, (x, other), 1)
    assert "not an equal pair" in check_report(inst, bad_pair)
    bad_distinct = RunReport(Outcome.DISTINCT, None, 3)
    assert "duplicates" in check_report(inst, bad_distinct)
    assert check_report(inst, RunReport(Outcome.GAVE_UP, None, 0)) is None


# --- verdicts checked against ground truth -----------------------------------

def _unequal_witness(*args):
    """A runner stand-in whose witness (0, 0) is never an equal pair."""
    return RunReport(Outcome.DUPLICATE, (0, 0), 1, stats={"iterations": 1})


UNEQUAL = "witness (0,0) is not an equal pair"


def test_duel_checks_clairvoyant_on_the_realized_instance(monkeypatch):
    monkeypatch.setattr(harness, "clairvoyant", _unequal_witness)
    prof = ClusterProfile([8, 8, 4, 4, 2, 2] + [1] * 36)
    _, rows, violations = harness.cmd_duel("block", 64, prof, rounds=5)
    assert rows[0][4] is True  # realized and replayed
    assert violations == [f"clairvoyant on the realized instance: {UNEQUAL}"]


def test_separation_row_checks_the_median_witness(monkeypatch):
    monkeypatch.setattr(harness, "median_recursion", _unequal_witness)
    _, bad, _ = harness.separation_row(16)
    assert bad == ("median recursion on the realized instance at n=16: "
                   + UNEQUAL)


def test_separation_row_hands_the_index_check_only_ranges(monkeypatch):
    """Median recursion runs on range(n) over the instance re-indexed in
    pack order, so the index check never builds a set of n indices."""
    check, handed = sortsel.check_indices, []

    def record(n, items):
        handed.append(items)
        check(n, items)

    for module in (algorithms, setint, sortsel):
        monkeypatch.setattr(module, "check_indices", record)
    row, bad, _ = harness.separation_row(4096)
    assert bad is None and row[5] > 0
    assert handed and all(isinstance(items, range) for items in handed)


def test_bounds_row_checks_the_block_witness(monkeypatch):
    monkeypatch.setattr(harness, "block_sorting", _unequal_witness)
    row, bad = harness.bounds_row(0, 1, 64)
    assert row[-1] is True  # the block branch ran and met its bound
    assert bad == f"block sorting on profile 0: {UNEQUAL}"


# --- every other violation of gen, the duel, the sweeps and the rows ----------

def test_gen_reports_an_instance_that_misses_its_profile(tmp_path,
                                                         monkeypatch):
    monkeypatch.setattr(harness, "verify_graph", lambda *args: False)
    _, violations = harness.cmd_gen(str(tmp_path), clique_n=3)
    assert violations == ["generated instance does not realize its profile"]


DUEL_PROFILE = ClusterProfile([8, 8, 4, 4, 2, 2] + [1] * 36)


def _refuse(*args):
    raise RuntimeError("no chain fits")


def test_duel_reports_a_failed_reconstruction_inside_the_budget(monkeypatch):
    monkeypatch.setattr(harness, "reconstruct", _refuse)
    # the default budget, the one inside which reconstruction is guaranteed
    _, rows, violations = harness.cmd_duel("block", 64, DUEL_PROFILE)
    assert rows[0][4:] == [False, ""]
    assert violations == ["reconstruction failed inside the guaranteed "
                          "budget: no chain fits"]


def test_duel_reports_an_instance_that_does_not_replay(monkeypatch):
    monkeypatch.setattr(harness, "replay_transcript", lambda *args: False)
    _, rows, violations = harness.cmd_duel("block", 64, DUEL_PROFILE, rounds=5)
    assert rows[0][4] is False
    assert violations == ["realized instance inconsistent with "
                          "transcript/profile"]


@settings(max_examples=150, deadline=None)
@given(algo=st.sampled_from(harness.DUEL_ALGOS),
       seed=st.integers(0, 2**32 - 1), n=st.integers(2, 256),
       mode=st.integers(0, 3), data=st.data())
def test_duel_is_sound_under_any_round_budget(algo, seed, n, mode, data):
    prof = ClusterProfile(
        random_multicluster_profile(random.Random(seed), n, mode))
    guaranteed = reconstruction_budget(prof)
    rounds = data.draw(st.integers(0, 2 * guaranteed), label="rounds")
    _, [row], violations = harness.cmd_duel(algo, n, prof, rounds=rounds)
    assert violations == []
    assert row[1] <= rounds
    if rounds <= guaranteed:
        assert row[4] is True
    elif row[4] is False:
        # past the guarantee a failed reconstruction is data: no
        # realized instance, so no clairvoyant count either
        assert row[5] == ""


@pytest.mark.parametrize("rounds, consistency, cv", [
    (8640, True, 7671),
    (8736, False, ""),
])
def test_duel_reports_a_real_failure_past_the_budget_as_data(rounds,
                                                             consistency, cv):
    # oblivious on [2]x512 reconstructs 90x past its guaranteed budget of
    # 96 rounds and fails a little further on: data, not a violation
    prof = ClusterProfile([2] * 512)
    assert reconstruction_budget(prof) == 96
    _, rows, violations = harness.cmd_duel("oblivious", 1024, prof,
                                           rounds=rounds)
    assert rows == [[1024, rounds, "oblivious", True, consistency, cv]]
    assert violations == []


@pytest.mark.parametrize("name", ["clairvoyant", "oblivious"])
def test_competitive_sweep_reports_a_missed_duplicate(name, monkeypatch):
    monkeypatch.delenv("EDLAB_SEED", raising=False)
    monkeypatch.setattr(harness, name,
                        lambda *args: RunReport(Outcome.GAVE_UP, None, 1))
    _, _, violations = harness.cmd_sweep_competitive([16], 1, 0)
    assert violations == [f"{name} missed the duplicate on n=16 id=0"]


def _halted_game(*args, _play=harness.play_game):
    """The real game, with the opponent marked as stopped inside it."""
    state = _play(*args)
    state.halted = (Outcome.GAVE_UP, None)
    return state


class _HugeC(ClusterProfile):
    """A profile whose C(L) exceeds every n."""

    def c(self, L):
        return 2 ** 40


@pytest.mark.parametrize("name, stand_in, message", [
    ("play_game", _halted_game,
     "opponent finished inside the round budget at n=16"),
    ("median_recursion", lambda *args: RunReport(Outcome.GAVE_UP, None, 1),
     "median recursion failed on the realized instance at n=16"),
    ("ClusterProfile", _HugeC, "C(L) exceeded n/2^(i-3) at n=16"),
    ("replay_transcript", lambda *args: False,
     "realized instance inconsistent at n=16"),
], ids=["halted", "gave-up", "huge-C", "no-replay"])
def test_separation_row_reports_each_violation(name, stand_in, message,
                                               monkeypatch):
    monkeypatch.setattr(harness, name, stand_in)
    _, bad, _ = harness.separation_row(16)
    assert bad == message


@pytest.mark.parametrize("ns, ratios, violations", [
    ([16, 32], [0.2, 0.1], ["separation ratio not non-decreasing in n"]),
    ([16, 32], [0.1, 0.2], []),
    ([32, 16], [0.2, 0.1], []),  # unsorted sizes are not checked
])
def test_separation_sweep_checks_the_ratio_order_on_sorted_sizes(
        ns, ratios, violations, monkeypatch):
    ratio_at = dict(zip(ns, ratios))
    monkeypatch.setattr(harness, "separation_row",
                        lambda n: ([n], None, ratio_at[n]))
    _, rows, got = harness.cmd_sweep_separation(ns)
    assert rows == [[n] for n in ns]
    assert got == violations


def _iterations_past_the_bound(*args):
    rep = algorithms.block_sorting(*args)
    rep.stats["iterations"] = 10 ** 6
    return rep


@pytest.mark.parametrize("name, stand_in, message", [
    ("check_linear_subset", lambda prof: False,
     "linear-subset inequality failed on profile 0"),
    ("approx_L2_scan", lambda prof: (1, 4 * harness.select_L2(prof)[1], 0),
     "approximation factor 4.000 > 3 on profile 0"),
    ("block_sorting", _iterations_past_the_bound,
     "block iteration bound violated on profile 0"),
], ids=["linear-subset", "approx-factor", "block-iterations"])
def test_bounds_row_reports_each_violation(name, stand_in, message,
                                           monkeypatch):
    monkeypatch.setattr(harness, name, stand_in)
    _, bad = harness.bounds_row(0, 1, 64)
    assert bad == message


def _reporting(witness):
    """A runner stand-in that reports a duplicate with ``witness``."""
    return lambda *args: RunReport(Outcome.DUPLICATE, witness, 1)


# on values 5, 1, 2, 5 a negative index reads from the end, so (-1, 0)
# and (0, -1) name the equal values at 3 and 0; index 4 is past the end
@pytest.mark.parametrize("witness", [(-1, 0), (0, -1), (0, 4), (4, 0)])
def test_check_report_needs_two_indices_in_range(witness, monkeypatch):
    monkeypatch.setattr(harness, "block_sorting", _reporting(witness))
    _, _, violations = harness.cmd_run("block", Instance((5, 1, 2, 5)), k=2)
    x, y = witness
    assert violations == [f"witness ({x},{y}) is not an equal pair"]


def test_cli_run_reports_an_out_of_range_witness(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "block_sorting", _reporting((0, 4)))
    (tmp_path / "x.inst").write_text("5\n1\n2\n5\n")
    res = CliRunner().invoke(main, ["run", "--algo", "block",
                                    "--input", str(tmp_path / "x.inst")])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # no traceback
    assert res.stderr == "violation: witness (0,4) is not an equal pair\n"


# A = 1, 1, 3 at indices 0..2 and B = 3 at index 3: only (2, 3) crosses;
# (2, 2) and (-1, 3) read equal values from the wrong places, and (0, 1)
# is an equal pair inside A
SI_FILE = "A:\n1\n1\n3\nB:\n3\n"


@pytest.mark.parametrize("witness", [(2, 2), (-1, 3), (3, 3), (2, 4), (0, 1)])
def test_si_run_needs_an_a_index_then_a_b_index(witness, tmp_path,
                                                 monkeypatch):
    monkeypatch.setattr(harness, "si_doubling", _reporting(witness))
    (tmp_path / "x.si").write_text(SI_FILE)
    _, _, violations = harness.cmd_si_run("doubling", tmp_path / "x.si")
    wa, wb = witness
    assert violations == [f"witness ({wa},{wb}) is not a crossing pair"]


def test_si_run_refuses_a_disjoint_verdict_on_intersecting_inputs(
        tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "si_doubling",
                        lambda *args: RunReport(Outcome.DISTINCT, None, 1))
    (tmp_path / "x.si").write_text(SI_FILE)
    _, _, violations = harness.cmd_si_run("doubling", tmp_path / "x.si")
    assert violations == ["disjoint verdict on intersecting inputs"]


def test_si_run_unknown_name(tmp_path):
    (tmp_path / "x.si").write_text(SI_FILE)
    with pytest.raises(ValueError, match="^unknown si algorithm 'quicksort'$"):
        harness.cmd_si_run("quicksort", tmp_path / "x.si")


NO_WITNESS = "duplicate verdict without a witness"


def test_duplicate_verdict_needs_a_witness(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "block_sorting", _reporting(None))
    monkeypatch.setattr(harness, "si_doubling", _reporting(None))
    (tmp_path / "x.inst").write_text("5\n1\n2\n5\n")
    (tmp_path / "x.si").write_text(SI_FILE)
    _, rows, violations = harness.cmd_run("block", Instance((5, 1, 2, 5)), k=2)
    assert (rows[0][2:], violations) == (["duplicate", 1, "", ""], [NO_WITNESS])
    _, rows, violations = harness.cmd_si_run("doubling", tmp_path / "x.si")
    assert (rows[0][3:], violations) == (["duplicate", 1, "", ""], [NO_WITNESS])
    for args in (["run", "--algo", "block", "--input", str(tmp_path / "x.inst")],
                 ["si", "run", "--algo", "doubling",
                  "--input", str(tmp_path / "x.si")]):
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert res.stderr == f"violation: {NO_WITNESS}\n"


# --- CLI: gen ---------------------------------------------------------------

def test_cli_gen_clique(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["gen", "--clique", "n=16",
                               "--out-dir", str(tmp_path)])
    assert res.exit_code == 0, res.output
    ppath = tmp_path / "16"
    ipath = tmp_path / "16.inst"
    assert ppath.exists() and ipath.exists()
    assert str(ppath) in res.output and str(ipath) in res.output
    assert read_profile(str(ppath)) == ClusterProfile([16])
    inst = read_instance(str(ipath))
    assert len(inst.values) == 16
    assert len(set(inst.values)) == 1


def test_cli_gen_random(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["gen", "--profile-random", "m=8", "n=64",
                               "--seed", "1", "--out-dir", str(tmp_path)])
    assert res.exit_code == 0, res.output
    ppath = tmp_path / "random-m8-n64-s1"
    assert ppath.exists()
    prof = read_profile(str(ppath))
    assert prof.m == 8
    assert prof.n == 64
    inst = read_instance(str(ppath) + ".inst")
    assert profile_of_instance(inst) == prof


def test_cli_gen_seed_env_override(tmp_path, monkeypatch):
    runner = CliRunner()
    a = tmp_path / "a"
    b = tmp_path / "b"
    monkeypatch.setenv("EDLAB_SEED", "2")
    res = runner.invoke(main, ["gen", "--profile-random", "m=6", "n=48",
                               "--seed", "1", "--out-dir", str(a)])
    assert res.exit_code == 0
    monkeypatch.delenv("EDLAB_SEED")
    res = runner.invoke(main, ["gen", "--profile-random", "m=6", "n=48",
                               "--seed", "2", "--out-dir", str(b)])
    assert res.exit_code == 0
    # the environment variable wins over --seed, including in file names
    assert (a / "random-m6-n48-s2").read_text() == \
        (b / "random-m6-n48-s2").read_text()


def test_effective_seed_rejects_non_integer(monkeypatch):
    monkeypatch.setenv("EDLAB_SEED", "abc")
    with pytest.raises(ValueError, match="EDLAB_SEED"):
        effective_seed(7)


@pytest.mark.parametrize("args", [
    ["gen", "--clique", "n=8"],
    ["sweep-competitive", "--ns", "64", "--reps", "1"],
    ["sweep-separation", "--ns", "1024"],
    ["check-bounds", "--count", "1", "--nmax", "16"],
    ["profile", "stats", "missing"],
])
def test_cli_non_integer_seed_env_fails_every_verb(args, tmp_path,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("EDLAB_SEED", "abc")
    res = CliRunner().invoke(main, args)
    assert res.exit_code != 0
    assert isinstance(res.exception, SystemExit)  # no traceback
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and "EDLAB_SEED" in lines[0]
    assert list(tmp_path.iterdir()) == []


BAD_INPUT_FILES = {
    "pair.inst": "0\n0\n1\n",
    "empty.inst": "",
    "garbled.inst": "1\nx\n",
    "garbled.prof": "3\nabc\n",
    "garbled.si": "A:\n1\n\nB:\nzz\n",
    "early.si": "1\nA:\n1\nB:\n1\n",
    "ok.si": "A:\n1\nB:\n1\n",
    "other.prof": "2\n2\n",
    "one.prof": "16\n",
    "zero.prof": "2\n0\n",
    "empty.prof": "\n",
    "empty.si": "",
    "no_b.si": "A:\n1\n",
    "empty_a.si": "A:\nB:\n1\n",
    "empty_b.si": "A:\n1\nB:\n\n",
    "repeated.si": "A:\n1\nB:\n2\nA:\n2\n",
    "a3.si": "A:\n1\n2\n3\nB:\n1\n",
    "a27.si": "A:\n" + "".join(f"{v}\n" for v in range(27)) + "B:\n0\n",
    "latin1.inst": b"\xff1\n2\n",
    "latin1.prof": b"2\n\xff\n",
    "latin1.si": b"A:\n1\nB:\n\xff\n",
    "underscore.inst": "1_0\n2\n",
    "arabic.inst": "1\n\u0661\u0662\n",
    "plus.prof": "+3\n",
    "plus.si": "A:\n1\nB:\n+1\n",
    "over.prof": "8388609\n8388608\n",
    "max.prof": "16777216\n",
    "huge.prof": "100000000000\n100000000000\n",
}


def _write_files(folder, names):
    for name in names:
        text = BAD_INPUT_FILES[name]
        (folder / name).write_bytes(
            text if isinstance(text, bytes) else text.encode("utf-8"))


# a bad file's message names the file, and the line where there is one
BAD_FILE_AT = {"garbled.inst": "garbled.inst:2:",
               "garbled.prof": "garbled.prof:2:",
               "garbled.si": "garbled.si:5:",
               "empty.inst": "empty.inst:",
               "zero.prof": "zero.prof:2:",
               "empty.prof": "empty.prof:",
               "empty.si": "empty.si:",
               "no_b.si": "no_b.si:",
               "empty_a.si": "empty_a.si:",
               "empty_b.si": "empty_b.si:",
               "repeated.si": "repeated.si:5:",
               "latin1.inst": "latin1.inst:1:",
               "latin1.prof": "latin1.prof:2:",
               "latin1.si": "latin1.si:4:",
               "underscore.inst": "underscore.inst:1:",
               "arabic.inst": "arabic.inst:2:",
               "plus.prof": "plus.prof:1:",
               "plus.si": "plus.si:4:"}


# a size above MAX_N = 2^24, refused before anything of that size is
# allocated; only refused sizes are tried, never a run that allocates
CEILING = [
    (["gen", "--clique", "n=16777217"],
     "--clique n must be at most 16777216, got 16777217"),
    (["gen", "--profile-random", "m=2", "n=100000000000"],
     "--profile-random n must be at most 16777216, got 100000000000"),
    (["sweep-competitive", "--ns", "64,16777217"],
     "--ns must be at most 16777216, got 16777217"),
    (["sweep-separation", "--ns", "100000000000"],
     "--ns must be at most 16777216, got 100000000000"),
    (["check-bounds", "--nmax", "16777217"],
     "--nmax must be at most 16777216, got 16777217"),
    (["check-bounds", "--count", "1", "--nmax", "100000000000"],
     "--nmax must be at most 16777216, got 100000000000"),
    (["duel", "--algo", "oblivious", "--profile", "over.prof"],
     "--profile n must be at most 16777216, got 16777217"),
    (["duel", "--algo", "block", "--profile", "huge.prof", "--rounds", "5"],
     "--profile n must be at most 16777216, got 200000000000"),
    # MAX_N itself passes the ceiling and meets the next check
    (["duel", "--algo", "block", "--profile", "max.prof"],
     "duel needs a profile of at least two clusters, got 1"),
    (["gen", "--profile-random", "m=0", "n=16777216"],
     "--profile-random m must be in 1..16777216, got 0"),
]

# a file the system refuses: its message names the path
FILE_ERRORS = [
    (["run", "--algo", "block", "--input", "pair.inst",
      "--out", "missing/out.csv"],
     "[Errno 2] No such file or directory: 'missing/out.csv'"),
    (["gen", "--clique", "n=4", "--out-dir", "pair.inst"],
     "[Errno 17] File exists: 'pair.inst'"),
    (["run", "--algo", "block", "--input", "."],
     "[Errno 21] Is a directory: '.'"),
]


@pytest.mark.parametrize("args", [
    ["run", "--algo", "block", "--k", "0", "--input", "pair.inst"],
    ["run", "--algo", "median", "--l", "0", "--input", "pair.inst"],
    ["run", "--algo", "block", "--input", "empty.inst"],
    ["run", "--algo", "block", "--input", "garbled.inst"],
    ["profile", "stats", "garbled.prof"],
    ["si", "run", "--algo", "doubling", "--input", "early.si"],
    ["run", "--algo", "clairvoyant", "--input", "pair.inst",
     "--profile", "other.prof"],
    ["si", "run", "--algo", "clairvoyant", "--input", "ok.si"],
    ["sweep-competitive", "--ns", "64,x"],
    ["sweep-competitive", "--ns", "2"],
    ["sweep-competitive", "--ns", "64,1"],
    ["sweep-separation", "--ns", "2"],
    ["sweep-separation", "--ns", "1"],
    ["sweep-separation", "--ns", "15"],
    ["check-bounds", "--nmax", "5"],
    ["si", "run", "--algo", "doubling", "--input", "garbled.si"],
    ["run", "--algo", "oblivious", "--input", "empty.inst"],
    ["profile", "stats", "zero.prof"],
    ["profile", "bounds", "zero.prof"],
    ["profile", "stats", "empty.prof"],
    ["profile", "bounds", "empty.prof"],
    ["si", "run", "--algo", "doubling", "--input", "empty.si"],
    ["si", "run", "--algo", "doubling", "--input", "no_b.si"],
    ["si", "run", "--algo", "doubling", "--input", "empty_a.si"],
    ["si", "run", "--algo", "clairvoyant", "--input", "empty_b.si"],
    ["si", "run", "--algo", "doubling", "--input", "repeated.si"],
    ["gen", "--clique", "x=5"],
    ["gen", "--clique", "n=abc"],
    ["gen", "--profile-random", "m=8", "x=64"],
    ["duel", "--algo", "block", "--profile", "other.prof", "--rounds", "-3"],
    ["si", "run", "--algo", "clairvoyant", "--input", "fam64.si", "--i", "0"],
    ["si", "run", "--algo", "clairvoyant", "--input", "fam64.si", "--i", "-1"],
    ["si", "run", "--algo", "clairvoyant", "--input", "fam64.si", "--i", "5"],
    ["sweep-competitive", "--ns", "64", "--reps", "-2"],
    ["sweep-competitive", "--ns", "64", "--reps", "0"],
    ["check-bounds", "--count", "-1"],
    ["check-bounds", "--count", "0"],
    ["si", "run", "--algo", "clairvoyant", "--input", "a3.si", "--i", "1"],
    ["si", "run", "--algo", "clairvoyant", "--input", "a27.si", "--i", "1"],
    *(args for args, _ in FILE_ERRORS),
    ["duel", "--algo", "block", "--profile", "one.prof"],
    ["duel", "--algo", "block", "--profile", "one.prof", "--rounds", "5"],
    ["run", "--algo", "block", "--input", "latin1.inst"],
    ["profile", "stats", "latin1.prof"],
    ["si", "run", "--algo", "doubling", "--input", "latin1.si"],
    ["run", "--algo", "block", "--input", "underscore.inst"],
    ["run", "--algo", "doubling", "--input", "arabic.inst"],
    ["profile", "bounds", "plus.prof"],
    ["si", "run", "--algo", "doubling", "--input", "plus.si"],
    *(args for args, _ in CEILING),
])
def test_cli_bad_input_is_one_error_line(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_files(tmp_path, BAD_INPUT_FILES)
    write_si_instance("fam64.si", realize_si_family(64, 1, seed=0))
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # no traceback
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: ")
    where = BAD_FILE_AT.get(args[-1])
    if where is not None:
        assert lines[0].startswith(f"Error: {where} ")


@pytest.mark.parametrize("args, message", [
    (["gen", "--clique", "x=5"], "--clique expects n=<int>, got 'x=5'"),
    (["gen", "--clique", "n=abc"], "--clique expects n=<int>, got 'n=abc'"),
    (["gen", "--profile-random", "m=8", "x=64"],
     "--profile-random expects m=<int> n=<int>, got 'm=8 x=64'"),
    (["duel", "--algo", "block", "--profile", "other.prof", "--rounds", "-3"],
     "--rounds must be at least 0, got -3"),
    (["si", "run", "--algo", "clairvoyant", "--input", "fam64.si", "--i", "5"],
     "--i must be in 1..4, got 5"),
    (["si", "run", "--algo", "clairvoyant", "--input", "fam64.si", "--i", "0"],
     "--i must be in 1..4, got 0"),
    (["sweep-competitive", "--ns", "64", "--reps", "-2"],
     "--reps must be at least 1, got -2"),
    (["check-bounds", "--count", "-1"], "--count must be at least 1, got -1"),
    (["run", "--algo", "median", "--k", "0", "--input", "pair.inst"],
     "--k applies only to --algo block"),
    (["run", "--algo", "oblivious", "--l", "-5", "--input", "pair.inst"],
     "--l applies only to --algo median"),
    (["run", "--algo", "block", "--L", "3", "--input", "pair.inst"],
     "--l applies only to --algo median"),
    (["si", "run", "--algo", "doubling", "--input", "fam64.si", "--i", "99"],
     "--i applies only to --algo clairvoyant"),
    (["si", "run", "--algo", "clairvoyant", "--input", "a27.si", "--i", "1"],
     "a27.si: |A| = 27 is outside the family: "
     "n must be 2**(3t) for integer t >= 1"),
    (["sweep-separation", "--ns", "1024,x"],
     "--ns expects comma-separated integers, got '1024,x'"),
    (["sweep-separation", "--ns", ","],
     "--ns expects comma-separated integers, got ','"),
    (["sweep-competitive", "--ns", ","],
     "--ns expects comma-separated integers, got ','"),
    (["gen", "--clique", "n=0"], "--clique n must be at least 1, got 0"),
    (["gen", "--profile-random", "m=0", "n=5"],
     "--profile-random m must be in 1..5, got 0"),
    (["gen", "--profile-random", "m=6", "n=5"],
     "--profile-random m must be in 1..5, got 6"),
    (["gen", "--profile-random", "m=1", "n=0"],
     "--profile-random n must be at least 1, got 0"),
    *FILE_ERRORS,
    (["duel", "--algo", "block", "--profile", "one.prof"],
     "duel needs a profile of at least two clusters, got 1"),
    (["duel", "--algo", "oblivious", "--profile", "one.prof", "--rounds", "5"],
     "duel needs a profile of at least two clusters, got 1"),
    (["run", "--algo", "block", "--input", "latin1.inst"],
     "latin1.inst:1: 'utf-8' codec can't decode byte 0xff in position 0: "
     "invalid start byte"),
    (["run", "--algo", "block", "--input", "underscore.inst"],
     "underscore.inst:1: expected an integer, got '1_0'"),
    *CEILING,
])
def test_cli_bad_option_is_named_with_what_it_takes(args, message, tmp_path,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_files(tmp_path, BAD_INPUT_FILES)
    write_si_instance("fam64.si", realize_si_family(64, 1, seed=0))
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 1
    assert res.output == f"Error: {message}\n"


@pytest.mark.parametrize("algo", RUN_ALGOS)
def test_cli_run_rejects_a_profile_the_instance_does_not_realize(algo,
                                                                  tmp_path):
    # clusters [5, 3] against a claimed [4, 4]
    (tmp_path / "x.inst").write_text("0\n0\n0\n0\n0\n1\n1\n1\n")
    (tmp_path / "x.prof").write_text("4\n4\n")
    res = CliRunner().invoke(main, ["run", "--algo", algo,
                                    "--input", str(tmp_path / "x.inst"),
                                    "--profile", str(tmp_path / "x.prof")])
    assert res.exit_code == 1
    assert res.output == f"Error: {CONTRACT}\n"


def test_cli_gen_requires_exactly_one_mode(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["gen", "--out-dir", str(tmp_path)])
    assert res.exit_code != 0
    res = runner.invoke(main, ["gen", "--clique", "n=8", "--profile-random",
                               "m=2", "n=8", "--out-dir", str(tmp_path)])
    assert res.exit_code != 0


# --- CLI: run ---------------------------------------------------------------

def test_cli_run_block_on_clique(tmp_path):
    runner = CliRunner()
    runner.invoke(main, ["gen", "--clique", "n=16", "--out-dir", str(tmp_path)])
    res = runner.invoke(main, ["run", "--algo", "block",
                               "--input", str(tmp_path / "16.inst")])
    assert res.exit_code == 0, res.output
    rows = parse_csv(res.output)
    assert rows[0] == ["algo", "n", "outcome", "comparisons",
                       "witness_x", "witness_y"]
    algo, n, outcome, comparisons, wx, wy = rows[1]
    assert (algo, n, outcome) == ("block", "16", "duplicate")
    # a 16-clique needs exactly one comparison with the default k
    assert comparisons == "1"
    assert wx != wy


def test_cli_run_median_gave_up_row(tmp_path):
    prof = ClusterProfile([1] * 8)
    inst = realize_instance(prof, seed=0)
    ipath = tmp_path / "d.inst"
    from edlab.core import write_instance
    write_instance(str(ipath), inst)
    runner = CliRunner()
    res = runner.invoke(main, ["run", "--algo", "median", "--l", "2",
                               "--input", str(ipath)])
    assert res.exit_code == 0, res.output
    rows = parse_csv(res.output)
    assert rows[1][2] == "gave_up"
    assert rows[1][4] == "" and rows[1][5] == ""


def test_cli_run_writes_file_and_lf_only(tmp_path):
    runner = CliRunner()
    runner.invoke(main, ["gen", "--clique", "n=8", "--out-dir", str(tmp_path)])
    out = tmp_path / "rows.csv"
    res = runner.invoke(main, ["run", "--algo", "doubling",
                               "--input", str(tmp_path / "8.inst"),
                               "--out", str(out)])
    assert res.exit_code == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.decode().splitlines()[0].startswith("algo,")


# --- CLI: --out on every CSV verb -------------------------------------------

# each CSV verb on a small input, with the harness command it returns
CSV_VERBS = [
    (["run", "--algo", "doubling", "--input", "pairs.inst"], "cmd_run"),
    (["duel", "--algo", "block", "--profile", "duel.prof", "--rounds", "5"],
     "cmd_duel"),
    (["sweep-competitive", "--ns", "64", "--reps", "2", "--seed", "0"],
     "cmd_sweep_competitive"),
    (["sweep-separation", "--ns", "64"], "cmd_sweep_separation"),
    (["check-bounds", "--count", "6", "--nmax", "64", "--seed", "1"],
     "cmd_check_bounds"),
    (["si", "run", "--algo", "doubling", "--input", "fam.si"], "cmd_si_run"),
    (["profile", "stats", "duel.prof"], "cmd_profile_stats"),
    (["profile", "bounds", "duel.prof"], "cmd_profile_bounds"),
]


@pytest.mark.parametrize("rigged", [False, True], ids=["rows", "violation"])
@pytest.mark.parametrize("args,command", CSV_VERBS,
                         ids=[c[4:] for _, c in CSV_VERBS])
def test_cli_out_file_holds_what_stdout_shows(args, command, rigged,
                                              tmp_path, monkeypatch):
    from edlab.core import write_instance
    from edlab.profiles import write_profile
    monkeypatch.chdir(tmp_path)
    write_instance("pairs.inst", realize_instance(ClusterProfile([2] * 4),
                                                  seed=0))
    write_profile("duel.prof", DUEL_PROFILE)
    write_si_instance("fam.si", realize_si_family(8, 1, seed=3))
    if rigged:
        monkeypatch.setattr(harness, command, lambda *a, **k: (
            ["h", "v"], [[1, "a,b"]], ["rigged"]))
    runner = CliRunner()
    shown = runner.invoke(main, args)
    written = runner.invoke(main, args + ["--out", "rows.csv"])
    assert shown.exit_code == written.exit_code == (1 if rigged else 0)
    assert written.stdout_bytes == b""
    raw = (tmp_path / "rows.csv").read_bytes()
    assert raw == shown.stdout_bytes and b"\r" not in raw
    if rigged:
        assert raw == b'h,v\n1,"a,b"\n'
        assert written.stderr == shown.stderr == "violation: rigged\n"
    else:
        assert raw.count(b"\n") >= 2  # a header and at least one row
    verb = args[:2] if args[0] in ("si", "profile") else args[:1]
    options = [line.split()[0].rstrip(",") for line in
               runner.invoke(main, verb + ["--help"]).output.splitlines()
               if line.startswith("  --")]
    assert options[-2:] == ["--out", "--help"]


# --- CLI: duel --------------------------------------------------------------

@pytest.mark.parametrize("algo", ["block", "median", "oblivious", "doubling"])
def test_cli_duel_small(tmp_path, algo):
    runner = CliRunner()
    runner.invoke(main, ["gen", "--profile-random", "m=8", "n=64",
                         "--seed", "1", "--out-dir", str(tmp_path)])
    res = runner.invoke(main, ["duel", "--algo", algo, "--profile",
                               str(tmp_path / "random-m8-n64-s1"),
                               "--rounds", "5"])
    assert res.exit_code == 0, res.output
    rows = parse_csv(res.output)
    assert rows[0] == ["n", "rounds", "algo", "survived", "consistency",
                       "clairvoyant_comparisons"]
    n, rounds, name, survived, consistency, cmp_ = rows[1]
    assert (n, rounds, name) == ("64", "5", algo)
    assert survived == "True"
    assert consistency == "True"
    assert int(cmp_) > 0


def test_cli_duel_past_guaranteed_budget_is_data_not_violation(tmp_path):
    # this profile's dominant cluster pushes the guaranteed reconstruction
    # budget to zero; past it the run may fail to reconstruct, which the
    # row reports as consistency=False without tripping the exit code
    runner = CliRunner()
    runner.invoke(main, ["gen", "--profile-random", "m=8", "n=256",
                         "--seed", "5", "--out-dir", str(tmp_path)])
    ppath = str(tmp_path / "random-m8-n256-s5")
    from edlab.harness import reconstruction_budget
    assert reconstruction_budget(read_profile(ppath)) == 0
    res = runner.invoke(main, ["duel", "--algo", "doubling", "--profile",
                               ppath, "--rounds", "40"])
    assert res.exit_code == 0, res.output
    rows = parse_csv(res.output)
    assert rows[1][3] == "True"   # opponent survived the 40 rounds
    assert rows[1][4] == "False"  # but no consistent realization exists


# --- CLI: sweeps ------------------------------------------------------------

def test_cli_sweep_separation_frozen_row():
    runner = CliRunner()
    res = runner.invoke(main, ["sweep-separation", "--ns", "1024"])
    assert res.exit_code == 0, res.output
    rows = parse_csv(res.output)
    assert rows[0] == ["n", "rounds_survived", "few_deep_i", "L",
                       "c_bound_ok", "median_cmp", "ratio", "consistent"]
    # the duel below the survival budget is deterministic, pin the row
    assert rows[1] == ["1024", "425", "1", "512", "True", "2792",
                       "0.1522", "True"]


def test_cli_sweep_competitive_small_deterministic():
    runner = CliRunner()
    args = ["sweep-competitive", "--ns", "64", "--reps", "2", "--seed", "0"]
    res1 = runner.invoke(main, args)
    res2 = runner.invoke(main, args)
    assert res1.exit_code == 0, res1.output
    assert res1.output == res2.output
    rows = parse_csv(res1.output)
    assert len(rows) == 3
    for row in rows[1:]:
        ratio = float(row[-2])
        over = float(row[-1])
        assert ratio >= 1.0
        assert over == pytest.approx(
            ratio / math.log2(math.log2(64)), abs=1e-3)


@pytest.mark.parametrize("sweep", [
    lambda: harness.cmd_sweep_competitive((), 1, 0),
    lambda: harness.cmd_sweep_separation(()),
])
def test_sweeps_refuse_an_empty_size_list(sweep):
    with pytest.raises(ValueError, match="--ns needs at least one value"):
        sweep()


def test_cli_check_bounds_small():
    runner = CliRunner()
    res = runner.invoke(main, ["check-bounds", "--count", "6",
                               "--nmax", "64", "--seed", "1"])
    assert res.exit_code == 0, res.output
    rows = parse_csv(res.output)
    assert rows[0] == ["profile_id", "n", "m", "linear_subset_ok",
                       "approx_factor", "block_iters_ok"]
    assert len(rows) == 7
    for row in rows[1:]:
        assert row[3] == "True"
        assert float(row[4]) <= 3.0
        assert row[5] == "True"


# --- CLI: set intersection --------------------------------------------------

def test_cli_si_run_both_algorithms(tmp_path):
    inst = realize_si_family(8, 1, seed=3)
    path = tmp_path / "fam.si"
    write_si_instance(str(path), inst)
    runner = CliRunner()
    res = runner.invoke(main, ["si", "run", "--algo", "doubling",
                               "--input", str(path)])
    assert res.exit_code == 0, res.output
    rows = parse_csv(res.output)
    assert rows[0] == ["algo", "na", "nb", "outcome", "comparisons",
                       "witness_a", "witness_b"]
    assert rows[1][:4] == ["doubling", "8", "8", "duplicate"]
    res = runner.invoke(main, ["si", "run", "--algo", "clairvoyant",
                               "--input", str(path), "--i", "1"])
    assert res.exit_code == 0, res.output
    rows = parse_csv(res.output)
    assert rows[1][3] == "duplicate"
    assert int(rows[1][4]) <= 6.0 * 8


def test_cli_si_clairvoyant_gives_up_off_the_family(tmp_path):
    # all-distinct A: the median strip keeps 7 indices, not 8 - 5 = 3
    path = tmp_path / "a8.si"
    path.write_text("A:\n" + "".join(f"{v}\n" for v in range(1, 9)) + "B:\n3\n")
    res = CliRunner().invoke(main, ["si", "run", "--algo", "clairvoyant",
                                    "--input", str(path), "--i", "1"])
    assert res.exit_code == 0, res.output
    assert parse_csv(res.output)[1] == ["clairvoyant", "8", "1", "gave_up",
                                        "26", "", ""]


def test_cli_si_clairvoyant_needs_parameters(tmp_path):
    inst = realize_si_family(8, 1, seed=0)
    path = tmp_path / "fam.si"
    write_si_instance(str(path), inst)
    runner = CliRunner()
    res = runner.invoke(main, ["si", "run", "--algo", "clairvoyant",
                               "--input", str(path)])
    assert res.exit_code != 0


# --- CLI: profile inspection ------------------------------------------------

def test_cli_profile_stats_and_bounds(tmp_path):
    from edlab.profiles import write_profile
    path = tmp_path / "p"
    write_profile(str(path), ClusterProfile([3, 1, 1, 1]))
    runner = CliRunner()
    res = runner.invoke(main, ["profile", "stats", str(path)])
    assert res.exit_code == 0, res.output
    rows = parse_csv(res.output)
    assert rows[0][:4] == ["n", "m", "max_size", "L1"]
    assert rows[1][:4] == ["6", "4", "3", "3"]
    assert rows[1][4] == "6.000"
    res = runner.invoke(main, ["profile", "bounds", str(path)])
    assert res.exit_code == 0, res.output
    rows = parse_csv(res.output)
    assert rows[0] == ["M_median", "M_block", "M_combined"]
    assert rows[1] == ["0.000000", "0.006000", "0.006000"]


def test_cli_violation_exit_code(tmp_path, monkeypatch):
    # the algorithms are honest, so force a bad report through the
    # dispatch layer to exercise the violation exit path end to end
    from edlab import harness

    def rigged(algo, inst, profile=None, k=None, L=None):
        return harness.RUN_HEADER, [[algo, len(inst), "distinct", 0, "", ""]],\
            ["distinct verdict on an instance with duplicates"]

    monkeypatch.setattr(harness, "cmd_run", rigged)
    prof = ClusterProfile([2, 2])
    inst = realize_instance(prof, seed=1)
    from edlab.core import write_instance
    ipath = tmp_path / "x.inst"
    write_instance(str(ipath), inst)
    runner = CliRunner()
    res = runner.invoke(main, ["run", "--algo", "block",
                               "--input", str(ipath)])
    assert res.exit_code == 1
    assert "violation: distinct verdict" in res.output
