"""Acceptance gate for the whole laboratory.

One test per criterion, each printing a single PASS/FAIL line. The
constants asserted here (iteration bounds, competitive-ratio caps,
operation budgets) were fixed once at calibration time and are frozen:
a failure means a behavioral regression, not statistical noise.
"""

import math
import random
import time

from bruteforce import (brute_lower_bound_block, brute_lower_bound_combined,
                        brute_lower_bound_median, brute_select_L1,
                        brute_select_L2)
from edlab.adversary import (few_deep_index, pack_isomorphic, play_game,
                             realize, si_adversary_game)
from edlab.algorithms import (block_sorting, clairvoyant, median_recursion,
                              oblivious, order_baseline, order_doubling)
from edlab.core import (Answer, CountingOracle, Outcome, realize_instance,
                        replay_transcript, verify_graph)
from edlab.harness import (duel_opponent, order_game,
                           random_multicluster_profile, random_profile,
                           separation_row)
from edlab.profiles import (ClusterProfile, approx_L2_scan,
                            check_linear_subset, lower_bound_block,
                            lower_bound_combined, lower_bound_median,
                            select_L1, select_L2)
from edlab.setint import (realize_si_family, si_clairvoyant, si_doubling_gen,
                          si_family)

# calibrated once, asserted forever
COMPETITIVE_CAP = 6.0       # oblivious/clairvoyant, divided by log2 log2 n
SELECTION_CAP = 7.5         # order_baseline comparisons (two selects), per 4n
SI_CAP = 6.0                # si_clairvoyant comparisons per element


def verdict(num: int, label: str, violations) -> None:
    ok = not violations
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    assert ok, f"criterion {num} ({label}): {violations[:5]}"


# --- criteria 1 and 2 share one profile suite -------------------------------

_suite = {}


def duplicate_suite():
    """200 qualifying profiles each for the block and median checks."""
    if _suite:
        return _suite
    t0 = time.time()
    rng = random.Random(20260815)
    block_checked = med_checked = 0
    block_bad, med_bad = [], []
    t = 0
    while block_checked < 200 or med_checked < 200:
        n = rng.randrange(8, 2 ** 14 + 1)
        prof = ClusterProfile(random_profile(rng, n, t % 4))
        inst = realize_instance(prof, seed=t)
        L2, _ = select_L2(prof)
        C2, D2 = prof.c(L2), prof.d(L2)
        if block_checked < 200 and 2 * C2 < n:
            block_checked += 1
            rep = block_sorting(CountingOracle(inst), range(n), 2 * D2)
            limit = 1 + math.ceil(C2 / D2)
            if rep.outcome is not Outcome.DUPLICATE:
                block_bad.append(f"draw {t}: block found no duplicate")
            elif rep.stats["iterations"] > limit:
                block_bad.append(
                    f"draw {t}: {rep.stats['iterations']} iterations,"
                    f" bound {limit}")
        if med_checked < 200:
            sel1 = select_L1(prof)
            if sel1 is not None:
                L1 = sel1[0]
                CL = prof.c(L1)
                med_checked += 1
                rep = median_recursion(CountingOracle(inst), range(n), L1)
                if rep.outcome is not Outcome.DUPLICATE:
                    med_bad.append(f"draw {t}: median found no duplicate")
                elif rep.stats["small_mass"] > CL:
                    med_bad.append(
                        f"draw {t}: small mass {rep.stats['small_mass']}"
                        f" > C(L)={CL}")
                elif rep.stats["small_calls"] > 2 * CL / L1 + 1:
                    med_bad.append(
                        f"draw {t}: {rep.stats['small_calls']} small calls,"
                        f" bound {2 * CL / L1 + 1:.2f}")
        t += 1
    _suite.update(block_bad=block_bad, med_bad=med_bad, draws=t,
                  elapsed=time.time() - t0)
    return _suite


def test_criterion_01_block_iteration_bound():
    suite = duplicate_suite()
    bad = list(suite["block_bad"])
    if suite["elapsed"] >= 60.0:
        bad.append(f"suite took {suite['elapsed']:.1f}s")
    verdict(1, "block sorting stays within 1+ceil(C/D) iterations", bad)


def test_criterion_02_median_structure():
    suite = duplicate_suite()
    bad = list(suite["med_bad"])
    if suite["elapsed"] >= 60.0:
        bad.append(f"suite took {suite['elapsed']:.1f}s")
    verdict(2, "median recursion small-call mass and count bounds", bad)


def test_criterion_03_selector_equivalence():
    rng = random.Random(7)
    bad = []
    for t in range(1000):
        n = rng.randrange(2, 257) if t % 10 == 0 else rng.randrange(2, 65)
        if t % 7 == 0:
            sizes = [1] * n  # exercises the no-feasible-L path
        else:
            sizes = random_multicluster_profile(rng, n, t % 4)
        prof = ClusterProfile(sizes)
        pairs = [
            ("select_L1", select_L1(prof), brute_select_L1(sizes)),
            ("select_L2", select_L2(prof), brute_select_L2(sizes)),
            ("lower_bound_median", lower_bound_median(prof),
             brute_lower_bound_median(sizes)),
            ("lower_bound_block", lower_bound_block(prof),
             brute_lower_bound_block(sizes)),
            ("lower_bound_combined", lower_bound_combined(prof),
             brute_lower_bound_combined(sizes)),
        ]
        for name, fast, brute in pairs:
            if fast != brute:
                bad.append(f"profile {t} ({sizes[:6]}...): {name}"
                           f" {fast} != {brute}")
    verdict(3, "selectors match full brute-force scans exactly", bad)


def minimax_affine(pts):
    """Best a for min-max relative error of a*m + b over (m, y) points."""
    def t_of(a):
        d = [(y - a * m, y) for m, y in pts]
        return max((di - dj) / (yi + yj) for di, yi in d for dj, yj in d)
    lo, hi = 0.0, 300.0
    for _ in range(300):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if t_of(m1) < t_of(m2):
            hi = m2
        else:
            lo = m1
    a = (lo + hi) / 2
    return a, t_of(a)


def test_criterion_04_preprocessing_factor_and_linearity():
    bad = []
    rng = random.Random(11)
    worst = 1.0
    for t in range(1000):
        n = rng.randrange(4, 2049)
        prof = ClusterProfile(random_profile(rng, n, t % 4))
        _, obj, _ = approx_L2_scan(prof)
        _, opt = select_L2(prof)
        factor = obj / opt
        worst = max(worst, factor)
        if factor > 3.0:
            bad.append(f"profile {t}: approximation factor {factor:.3f}")

    # operation count vs m: average 8 draws per size over one fixed
    # heavy-tailed family, then fit a*m+b minimizing the worst relative
    # error; an m*log m count fails this fit at ~25% while the measured
    # curve sits near 2-3%
    fit_rng = random.Random(20260815)
    pts = []
    for j in range(6, 17):
        m = 2 ** j
        total = 0
        for _ in range(8):
            sizes = [max(1, int(fit_rng.paretovariate(1.2)))
                     for _ in range(m)]
            total += approx_L2_scan(ClusterProfile(sizes))[2]
        pts.append((m, total / 8))
    _, residual = minimax_affine(pts)
    if residual > 0.05:
        bad.append(f"count-vs-m fit residual {residual * 100:.2f}% > 5%")
    verdict(4, "approximation factor <= 3 and linear operation count", bad)


def test_criterion_05_adversary_soundness():
    t0 = time.time()
    rng = random.Random(5)
    opponents = ("block", "median", "oblivious", "doubling")
    bad = []
    for t in range(100):
        n = 2 ** rng.randrange(8, 15)
        prof = ClusterProfile(random_profile(rng, n, t % 4))
        budget = int(n * math.log2(math.log2(n)) / 8)
        rounds = min(budget, int(lower_bound_median(prof)))
        state = play_game(duel_opponent(opponents[t % 4], prof), n, rounds)
        if any(a is Answer.EQ for _, _, a in state.transcript):
            bad.append(f"game {t}: adversary answered EQ")
            continue
        i = few_deep_index(state, n)
        if not (isinstance(i, int) and i >= 1):
            bad.append(f"game {t}: no few-deep index within budget")
            continue
        clusters = pack_isomorphic(state, prof)
        inst = realize(state, clusters)
        if not replay_transcript(inst, state.transcript):
            bad.append(f"game {t}: transcript not replayable")
        elif not verify_graph(inst, prof):
            bad.append(f"game {t}: realized instance off-profile")
    elapsed = time.time() - t0
    if elapsed >= 300.0:
        bad.append(f"took {elapsed:.0f}s")
    verdict(5, "adversary games are sound and realizable", bad)


def test_criterion_06_loglog_separation():
    bad = []
    ratios = []
    anchors = {
        1024: [1024, 425, 1, 512, True, 2792, "0.1522", True],
        4096: [4096, 1835, 1, 2048, True, 11242, "0.1632", True],
        16384: [16384, 7797, 1, 8192, True, 45043, "0.1731", True],
    }
    for n in (2 ** 10, 2 ** 12, 2 ** 14):
        row, row_bad, ratio = separation_row(n)
        ratios.append(ratio)
        if row_bad:
            bad.append(row_bad)
            continue
        budget = int(n * math.log2(math.log2(n)) / 8)
        if row[1] != budget:
            bad.append(f"n={n}: survived {row[1]} of {budget} rounds")
        if row[5] > 40 * n:
            bad.append(f"n={n}: median used {row[5]} > 40n comparisons")
        if not row[4]:
            bad.append(f"n={n}: C(L) bound violated")
        if row != anchors[n]:
            bad.append(f"n={n}: row drifted to {row}")
    if any(b < a for a, b in zip(ratios, ratios[1:])):
        bad.append(f"ratio not non-decreasing: {ratios}")
    verdict(6, "round budget survives while median stays under 40n", bad)


def test_criterion_07_oblivious_competitiveness():
    n = 2 ** 12
    rng = random.Random(99)
    bad = []
    worst = 0.0
    for t in range(50):
        prof = ClusterProfile(random_profile(rng, n, t % 4))
        inst = realize_instance(prof, seed=300 + t)
        rep_c = clairvoyant(CountingOracle(inst), prof)
        rep_o = oblivious(CountingOracle(inst))
        if rep_o.outcome is not Outcome.DUPLICATE:
            bad.append(f"profile {t}: oblivious found no duplicate")
            continue
        worst = max(worst, rep_o.comparisons / rep_c.comparisons)
    scaled = worst / math.log2(math.log2(n))
    if scaled > COMPETITIVE_CAP:
        bad.append(f"worst ratio/llog {scaled:.4f} > {COMPETITIVE_CAP}")
    verdict(7, "oblivious within a fixed log log n factor of clairvoyant",
            bad)


def test_criterion_08_order_model_separation():
    n = 2 ** 12
    inst, k, _ = order_game(n)
    rep_b = order_baseline(CountingOracle(inst), k)
    rep_d = order_doubling(CountingOracle(inst))
    bad = []
    if rep_b.outcome is not Outcome.DUPLICATE:
        bad.append("baseline missed the adjacent-rank pair")
    if rep_d.outcome is not Outcome.DUPLICATE:
        bad.append("prefix doubling missed the pair")
    if rep_b.comparisons > SELECTION_CAP * 4 * n:
        bad.append(f"baseline used {rep_b.comparisons}"
                   f" > {SELECTION_CAP * 4 * n:.0f}")
    floor_d = n * math.log2(n) / 8
    if rep_d.comparisons < floor_d:
        bad.append(f"doubling used {rep_d.comparisons} < {floor_d:.0f}")
    gap = rep_d.comparisons / rep_b.comparisons
    if gap < math.log2(n) / 16:
        bad.append(f"count gap {gap:.3f} < {math.log2(n) / 16}")
    verdict(8, "known-rank selection beats order-oblivious doubling", bad)


def test_criterion_09_set_intersection():
    t0 = time.time()
    bad = []
    for n in (8, 64, 512, 4096):
        s = round(n ** (1 / 3))
        for i in range(1, s + 1):
            prof = si_family(n, i)
            if prof.a_total != n or prof.b_total != n:
                bad.append(f"family ({n},{i}): totals"
                           f" {prof.a_total}/{prof.b_total}")
                continue
            inst = realize_si_family(n, i, seed=i)
            rep = si_clairvoyant(inst.oracle(), inst.na, inst.nb, i, n)
            if rep.outcome is not Outcome.DUPLICATE:
                bad.append(f"family ({n},{i}): no crossing pair found")
            elif rep.comparisons > SI_CAP * n:
                bad.append(f"family ({n},{i}): {rep.comparisons}"
                           f" > {SI_CAP * n:.0f} comparisons")

    n = 4096
    ell = round(math.log2(n)) // 3
    game = si_adversary_game(lambda m: si_doubling_gen(m, m), n)
    if game.opponent_finished or game.rounds_played != n * ell // 2:
        bad.append(f"doubling finished after {game.rounds_played} rounds,"
                   f" budget {n * ell // 2}")
    rep = si_clairvoyant(game.instance.oracle(), n, n, game.j, n)
    if rep.outcome is not Outcome.DUPLICATE or rep.comparisons > SI_CAP * n:
        bad.append(f"realized hard instance not solved in {SI_CAP}n:"
                   f" {rep.outcome.value}, {rep.comparisons}")
    elapsed = time.time() - t0
    if elapsed >= 300.0:
        bad.append(f"took {elapsed:.0f}s")
    verdict(9, "family totals, clairvoyant budget, adversary survival", bad)


def test_criterion_10_linear_subset_inequality():
    rng = random.Random(10)
    bad = []
    for t in range(10 ** 4):
        n = rng.randrange(2, 257)
        prof = ClusterProfile(random_multicluster_profile(rng, n, t % 4))
        if not check_linear_subset(prof):
            bad.append(f"profile {t}: {prof.sizes[:8]}")
    verdict(10, "linear-subset inequality on random multi-cluster profiles",
            bad)
