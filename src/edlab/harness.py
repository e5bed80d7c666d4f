"""Experiment layer: random profile families, sweeps, duels, CSV rows.

Every command takes plain arguments and returns (header, rows,
violations); the CLI renders rows as comma-separated CSV with a header
line and LF terminators, and exits 1 naming the first violation.  Bad
input raises ValueError, which the CLI reports as one `Error:` line.
All randomness flows from one seed (overridable via the EDLAB_SEED
environment variable), so every row is reproducible from the command's
arguments alone.
"""

from __future__ import annotations

import math
import os
import random
from collections import Counter
from typing import Optional

from .core import (CountingOracle, Instance, Outcome, realize_instance,
                   replay_transcript, verify_graph, write_instance)
from .profiles import (ClusterProfile, approx_L2_scan, cd, check_linear_subset,
                       lower_bound_block, lower_bound_combined,
                       lower_bound_median, reduction_budget, select_L1,
                       select_L2, write_profile)
from .algorithms import (block_sorting, block_sorting_gen, clairvoyant,
                         doubling_gen, median_recursion,
                         median_recursion_gen, oblivious, oblivious_gen,
                         order_doubling, preprocess, run_preprocessed)
from .adversary import (few_deep_index, pack_separation, play_game, realize,
                        reconstruct)
from .setint import read_si_instance, si_clairvoyant, si_doubling, si_shape

RUN_ALGOS = ("block", "median", "clairvoyant", "oblivious", "preprocessed",
             "doubling")
DUEL_ALGOS = ("block", "median", "oblivious", "doubling")


def effective_seed(seed: int) -> int:
    env = os.environ.get("EDLAB_SEED")
    if not env:
        return seed
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"EDLAB_SEED must be an integer, got {env!r}") from None


def derive_seed(seed: int, *parts: int) -> int:
    """Stable per-row seed; plain arithmetic so it survives interpreters."""
    h = seed & 0xFFFFFFFF
    for p in parts:
        h = (h * 1000003 + p + 0x9E3779B9) & 0xFFFFFFFF
    return h


def _only_for(owner: str, algo: str, option: str, value) -> None:
    """Raise naming ``option`` when it is given to an --algo that is not
    ``owner``, the one algorithm that reads it."""
    if value is not None and algo != owner:
        raise ValueError(f"{option} applies only to --algo {owner}")


def _at_least(option: str, values, least: int,
              most: Optional[int] = None) -> None:
    """Raise naming ``option`` unless there is a value and every value
    is in least..most."""
    if not values:
        raise ValueError(f"{option} needs at least one value")
    for v in values:
        if v < least or most is not None and v > most:
            want = f"at least {least}" if most is None else f"in {least}..{most}"
            raise ValueError(f"{option} must be {want}, got {v}")


# --- random profile families ------------------------------------------------
#
# Four size distributions.  Small cluster sizes dominate mode 0, one
# cluster dominates mode 1, mode 2 is flat, mode 3 is a uniform random
# composition; together they exercise both the C-heavy and the D-heavy
# regimes of the bounds.

def random_profile(rng: random.Random, n: int, mode: int = 0) -> list:
    if mode == 0:  # truncated power law
        sizes, left = [], n
        while left > 0:
            s = min(left, max(1, int(rng.paretovariate(1.2))))
            sizes.append(s)
            left -= s
    elif mode == 1:  # one clique plus dust
        big = rng.randrange(2, n + 1)
        sizes = [big] + [1] * (n - big)
    elif mode == 2:  # equal blocks
        b = rng.choice([2, 3, 4, 8, 16])
        sizes = [b] * (n // b)
        if n % b:
            sizes.append(n % b)
    else:  # uniform composition
        sizes, left = [], n
        while left > 0:
            s = rng.randrange(1, left + 1)
            sizes.append(s)
            left -= s
    if max(sizes) < 2:  # keep at least one duplicate pair
        sizes[0] += sizes.pop()
    return sizes


def random_multicluster_profile(rng: random.Random, n: int,
                                mode: int = 0) -> list:
    """Same families, but never a single cluster (reduction needs two)."""
    sizes = random_profile(rng, n, mode)
    if len(sizes) < 2:
        sizes = [n - n // 2, n // 2]
    return sizes


def power_law_sizes(rng: random.Random, m: int, n: int) -> list:
    """Exactly m power-law sizes adjusted to sum to n."""
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    sizes = [max(1, int(rng.paretovariate(1.2))) for _ in range(m)]
    total = sum(sizes)
    sizes = [max(1, s * n // total) for s in sizes]
    diff = n - sum(sizes)
    i = 0
    while diff:
        if diff > 0:
            sizes[i % m] += 1
            diff -= 1
        elif sizes[i % m] > 1:
            sizes[i % m] -= 1
            diff += 1
        i += 1
    return sizes


def profile_of_instance(inst: Instance) -> ClusterProfile:
    return ClusterProfile(sorted(Counter(inst.values).values(), reverse=True))


# --- single-run dispatch ------------------------------------------------

def default_block_k(profile: ClusterProfile) -> int:
    L2, _ = select_L2(profile)
    return 2 * profile.d(L2)


def default_median_L(profile: ClusterProfile) -> int:
    sel1 = select_L1(profile)
    return sel1[0] if sel1 is not None else 2


def run_algorithm(algo: str, inst: Instance,
                  profile: Optional[ClusterProfile] = None,
                  k: Optional[int] = None, L: Optional[int] = None):
    """Run one algorithm on one instance; returns (oracle, RunReport).

    This is where a profile enters a run, and the one place it is
    checked: a supplied profile must be realized by the instance,
    whatever the algorithm.  Without one, the profile is derived from
    the instance only for a run that reads it: clairvoyant,
    preprocessed, and block or median without an explicit k or L.  The
    runners take their profile as given.  A k is refused for any
    algorithm but block, and an L for any but median.
    """
    if algo not in RUN_ALGOS:
        raise ValueError(f"unknown algorithm {algo!r}")
    _only_for("block", algo, "--k", k)
    _only_for("median", algo, "--l", L)
    if profile is not None and not verify_graph(inst, profile):
        raise ValueError("instance does not realize the claimed profile")
    n = len(inst)
    oracle = CountingOracle(inst)
    if algo == "oblivious":
        return oracle, oblivious(oracle, n)
    if algo == "doubling":
        return oracle, order_doubling(oracle, n)
    # block reads the profile only for a default k, median for a default L
    given = {"block": k, "median": L}.get(algo)
    prof = (profile or profile_of_instance(inst)) if given is None else None
    if algo == "block":
        return oracle, block_sorting(oracle, range(n),
                                     k if k is not None else default_block_k(prof))
    if algo == "median":
        return oracle, median_recursion(oracle, range(n),
                                        L if L is not None else default_median_L(prof))
    if algo == "clairvoyant":
        return oracle, clairvoyant(oracle, prof)
    return oracle, run_preprocessed(preprocess(prof), oracle)


def check_report(inst: Instance, rep, cross_at=None) -> Optional[str]:
    """Ground-truth check of a RunReport against the open instance.

    A duplicate's witness must be two distinct indices in 0..n-1 that
    hold equal values.  With ``cross_at``, the kernels' witness rule (A
    is 0..cross_at-1, B the rest), it must be an A index then a B index,
    and a Distinct verdict means no value is on both sides."""
    vals = inst.values
    n = len(vals)
    if rep.outcome is Outcome.DUPLICATE:
        if rep.witness is None:
            return "duplicate verdict without a witness"
        x, y = rep.witness
        if cross_at is None:
            if not (0 <= x < n and 0 <= y < n) or x == y or vals[x] != vals[y]:
                return f"witness ({x},{y}) is not an equal pair"
        elif not 0 <= x < cross_at <= y < n or vals[x] != vals[y]:
            return f"witness ({x},{y}) is not a crossing pair"
    elif rep.outcome is Outcome.DISTINCT:
        if cross_at is None:
            if len(set(vals)) != n:
                return "distinct verdict on an instance with duplicates"
        elif not set(vals[:cross_at]).isdisjoint(vals[cross_at:]):
            return "disjoint verdict on intersecting inputs"
    return None


# --- gen ------------------------------------------------------------------

def cmd_gen(out_dir: str, clique_n: Optional[int] = None,
            random_m: Optional[int] = None, random_n: Optional[int] = None,
            seed: int = 0):
    seed = effective_seed(seed)
    os.makedirs(out_dir, exist_ok=True)
    if clique_n is not None:
        prof = ClusterProfile([clique_n])
        name = str(clique_n)
    else:
        rng = random.Random(seed)
        prof = ClusterProfile(power_law_sizes(rng, random_m, random_n))
        name = f"random-m{random_m}-n{random_n}-s{seed}"
    inst = realize_instance(prof, seed=seed)
    violations = []
    if not verify_graph(inst, prof):
        violations.append("generated instance does not realize its profile")
    ppath = os.path.join(out_dir, name)
    ipath = ppath + ".inst"
    write_profile(ppath, prof)
    write_instance(ipath, inst)
    return [ppath, ipath], violations


# --- run --------------------------------------------------------------

RUN_HEADER = ["algo", "n", "outcome", "comparisons", "witness_x", "witness_y"]


def cmd_run(algo: str, inst: Instance,
            profile: Optional[ClusterProfile] = None,
            k: Optional[int] = None, L: Optional[int] = None):
    _, rep = run_algorithm(algo, inst, profile, k=k, L=L)
    wx, wy = rep.witness if rep.witness is not None else ("", "")
    row = [algo, len(inst), rep.outcome.value, rep.comparisons, wx, wy]
    err = check_report(inst, rep)
    return RUN_HEADER, [row], [err] if err else []


# --- duel -------------------------------------------------------------

DUEL_HEADER = ["n", "rounds", "algo", "survived", "consistency",
               "clairvoyant_comparisons"]


def reconstruction_budget(profile: ClusterProfile) -> int:
    """Round cap under which whole/split reconstruction is guaranteed."""
    return int(reduction_budget(profile))


def duel_opponent(algo: str, profile: ClusterProfile):
    if algo == "oblivious":
        return oblivious_gen
    if algo == "doubling":
        return doubling_gen
    if algo == "block":
        k = default_block_k(profile)
        return lambda n: block_sorting_gen(range(n), k)
    if algo == "median":
        L = default_median_L(profile)
        return lambda n: median_recursion_gen(range(n), L)
    raise ValueError(f"no adversary opponent named {algo!r}")


def cmd_duel(algo: str, n: int, profile: ClusterProfile,
             rounds: Optional[int] = None):
    if profile.n != n:
        raise ValueError(f"profile covers {profile.n} elements, not {n}")
    if rounds is not None:
        _at_least("--rounds", [rounds], 0)
    budget = rounds if rounds is not None else reconstruction_budget(profile)
    state = play_game(duel_opponent(algo, profile), n, budget)
    survived = state.halted is None  # opponent still running at the cap
    violations = []
    consistency: object = False
    cv: object = ""
    try:
        clusters, _ = reconstruct(state, profile)
        inst = realize(state, clusters)
    except (RuntimeError, ValueError) as exc:
        # reconstruction is only guaranteed up to the default budget; a
        # failure past it is data (consistency stays False), not a violation
        if budget <= reconstruction_budget(profile):
            violations.append(
                f"reconstruction failed inside the guaranteed budget: {exc}")
    else:
        consistency = (replay_transcript(inst, state.transcript)
                       and verify_graph(inst, profile))
        rep = clairvoyant(CountingOracle(inst), profile)
        cv = rep.comparisons
        if not consistency:
            # a realized instance must always replay; this is a soundness bug
            violations.append(
                "realized instance inconsistent with transcript/profile")
        err = check_report(inst, rep)
        if err:
            violations.append(f"clairvoyant on the realized instance: {err}")
    row = [n, state.rounds_played, algo, survived, consistency, cv]
    return DUEL_HEADER, [row], violations


# --- sweeps ------------------------------------------------------------
#
# Each sweep states the least size it is defined for: the competitive
# ratio is divided by log2(log2 n), which is 0 at n = 2; a separation row
# needs a few-deep index i >= 1, which floor(log2(log2 n) / 2) >= 1
# guarantees from n = 16; check-bounds draws n from [8, nmax].

MIN_COMPETITIVE_N = 3
MIN_SEPARATION_N = 16
MIN_BOUNDS_NMAX = 8


COMPETITIVE_HEADER = ["n", "profile_id", "clairvoyant_cmp", "oblivious_cmp",
                      "ratio", "ratio_over_llog"]


def cmd_sweep_competitive(ns, reps: int, seed: int):
    _at_least("--ns", ns, MIN_COMPETITIVE_N)
    _at_least("--reps", [reps], 1)
    seed = effective_seed(seed)
    rows, violations = [], []
    for n in ns:
        lln = math.log2(math.log2(n))
        for pid in range(reps):
            rng = random.Random(derive_seed(seed, n, pid))
            prof = ClusterProfile(random_profile(rng, n, pid % 4))
            inst = realize_instance(prof, seed=derive_seed(seed, n, pid, 1))
            r_cv = clairvoyant(CountingOracle(inst), prof)
            r_ob = oblivious(CountingOracle(inst), n)
            bad = check_report(inst, r_cv) or check_report(inst, r_ob)
            for rep, name in ((r_cv, "clairvoyant"), (r_ob, "oblivious")):
                if rep.outcome is not Outcome.DUPLICATE:
                    bad = bad or f"{name} missed the duplicate on n={n} id={pid}"
            ratio = r_ob.comparisons / max(1, r_cv.comparisons)
            rows.append([n, pid, r_cv.comparisons, r_ob.comparisons,
                         f"{ratio:.4f}", f"{ratio / lln:.4f}"])
            if bad:
                violations.append(bad)
    return COMPETITIVE_HEADER, rows, violations


SEPARATION_HEADER = ["n", "rounds_survived", "few_deep_i", "L", "c_bound_ok",
                     "median_cmp", "ratio", "consistent"]


def separation_row(n: int):
    """One adversarial round-budget reproduction at size n.

    The oblivious schedule plays against the tree adversary for
    floor(n*log2(log2 n)/8) rounds; the final positions are packed into
    chains of length L = n/2^(2^(i-1)) for the few-deep index i, and the
    packed clusters are realized in that order, so median recursion sees
    the realized instance with each cluster's elements contiguous.
    """
    lln = math.log2(math.log2(n))
    budget = int(n * lln / 8)
    state = play_game(oblivious_gen, n, budget)
    survived = state.halted is None
    i = few_deep_index(state, n)
    L = n // 2 ** (2 ** (i - 1))
    bigs, singles = pack_separation(state, L)
    q = len(bigs)
    prof = ClusterProfile([L] * q + [1] * (n - q * L))
    C = prof.c(L)
    # exact integer form of C <= n / 2^(i-3)
    bound_ok = C * 2 ** max(0, i - 3) <= n * 2 ** max(0, 3 - i)
    inst = realize(state, bigs + singles)
    items = [e for c in bigs + singles for e in c]
    rep = median_recursion(CountingOracle(inst), items, L)
    consistent = (replay_transcript(inst, state.transcript)
                  and verify_graph(inst, prof))
    ratio = state.rounds_played / max(1, rep.comparisons)
    row = [n, state.rounds_played, i, L, bound_ok, rep.comparisons,
           f"{ratio:.4f}", consistent]
    err = check_report(inst, rep)
    bad = None
    if not survived:
        bad = f"opponent finished inside the round budget at n={n}"
    elif rep.outcome is not Outcome.DUPLICATE:
        bad = f"median recursion failed on the realized instance at n={n}"
    elif err:
        bad = f"median recursion on the realized instance at n={n}: {err}"
    elif not bound_ok:
        bad = f"C(L) exceeded n/2^(i-3) at n={n}"
    elif not consistent:
        bad = f"realized instance inconsistent at n={n}"
    return row, bad, ratio


def cmd_sweep_separation(ns):
    _at_least("--ns", ns, MIN_SEPARATION_N)
    results = [separation_row(n) for n in ns]
    rows = [r for r, _, _ in results]
    violations = [b for _, b, _ in results if b]
    ratios = [x for _, _, x in results]
    if list(ns) == sorted(ns) and len(ratios) > 1:
        if any(b < a for a, b in zip(ratios, ratios[1:])):
            violations.append("separation ratio not non-decreasing in n")
    return SEPARATION_HEADER, rows, violations


CHECK_HEADER = ["profile_id", "n", "m", "linear_subset_ok", "approx_factor",
                "block_iters_ok"]


def bounds_row(pid: int, seed: int, nmax: int):
    rng = random.Random(derive_seed(seed, pid))
    n = rng.randrange(8, nmax + 1)
    prof = ClusterProfile(random_multicluster_profile(rng, n, pid % 4))
    linear_ok = check_linear_subset(prof)
    _, obj, _ = approx_L2_scan(prof)
    L2, opt = select_L2(prof)
    factor = obj / opt if opt > 0 else 1.0
    C2, D2 = cd(prof, L2)
    block_ok: object = ""
    err = None
    if 2 * C2 < n and D2 > 0:
        inst = realize_instance(prof, seed=derive_seed(seed, pid, 1))
        rep = block_sorting(CountingOracle(inst), range(n), 2 * D2)
        block_ok = (rep.outcome is Outcome.DUPLICATE
                    and rep.stats["iterations"] <= 1 + math.ceil(C2 / D2))
        err = check_report(inst, rep)
    row = [pid, n, prof.m, linear_ok, f"{factor:.4f}", block_ok]
    bad = None
    if not linear_ok:
        bad = f"linear-subset inequality failed on profile {pid}"
    elif factor > 3.0:
        bad = f"approximation factor {factor:.3f} > 3 on profile {pid}"
    elif err:
        bad = f"block sorting on profile {pid}: {err}"
    elif block_ok is False:
        bad = f"block iteration bound violated on profile {pid}"
    return row, bad


def cmd_check_bounds(count: int, nmax: int, seed: int):
    _at_least("--count", [count], 1)
    _at_least("--nmax", [nmax], MIN_BOUNDS_NMAX)
    seed = effective_seed(seed)
    results = [bounds_row(pid, seed, nmax) for pid in range(count)]
    rows = [r for r, _ in results]
    violations = [b for _, b in results if b]
    return CHECK_HEADER, rows, violations


# --- set intersection ------------------------------------------------------

SI_HEADER = ["algo", "na", "nb", "outcome", "comparisons", "witness_a",
             "witness_b"]


def cmd_si_run(algo: str, path, i: Optional[int] = None):
    _only_for("clairvoyant", algo, "--i", i)
    inst = read_si_instance(path)
    oracle = inst.oracle()
    if algo == "doubling":
        rep = si_doubling(oracle, inst.na, inst.nb)
    elif algo == "clairvoyant":
        if i is None:
            raise ValueError("clairvoyant needs --i")
        # si_shape refuses an A side outside the family, |A| = s^3 with
        # s = 2^t, whose type-1 clusters are 1..s
        try:
            s, _ = si_shape(inst.na)
        except ValueError as exc:
            raise ValueError(f"{path}: |A| = {inst.na} is outside the "
                             f"family: {exc}") from None
        _at_least("--i", [i], 1, most=s)
        rep = si_clairvoyant(oracle, inst.na, inst.nb, i, inst.na)
    else:
        raise ValueError(f"unknown si algorithm {algo!r}")
    wa, wb = rep.witness if rep.witness is not None else ("", "")
    row = [algo, inst.na, inst.nb, rep.outcome.value, rep.comparisons, wa, wb]
    err = check_report(inst.combined(), rep, cross_at=inst.na)
    return SI_HEADER, [row], [err] if err else []


# --- profile inspection --------------------------------------------------

STATS_HEADER = ["n", "m", "max_size", "L1", "bound1", "L2", "bound2",
                "L2_approx", "approx_objective"]
BOUNDS_HEADER = ["M_median", "M_block", "M_combined"]


def cmd_profile_stats(profile: ClusterProfile):
    sel1 = select_L1(profile)
    L2, bound2 = select_L2(profile)
    t, obj, _ = approx_L2_scan(profile)
    L1, bound1 = (sel1[0], f"{sel1[1]:.3f}") if sel1 is not None else ("", "")
    row = [profile.n, profile.m, profile.max_size(), L1, bound1,
           L2, f"{bound2:.3f}", t, f"{obj:.3f}"]
    return STATS_HEADER, [row], []


def cmd_profile_bounds(profile: ClusterProfile):
    row = [f"{bound(profile):.6f}" for bound in
           (lower_bound_median, lower_bound_block, lower_bound_combined)]
    return BOUNDS_HEADER, [row], []
