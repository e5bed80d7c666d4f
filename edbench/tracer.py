"""Span tracer for the traced benchmark run.

The tracer records spans from outside the package: it replaces names in
the edlab modules where callers look them up, so no code under src/
changes.  Two kinds of wrapper exist:

* span wrappers around calls that do a chunk of work (a runner, a
  driver, packing); each call becomes one Span with name, start, end and
  parent, kept in memory and written out when the run ends;
* hot wrappers around the per-comparison calls (CountingOracle.compare,
  the adversaries' answer methods, the profile scan's comparison
  callable).  These run millions of times a run, so each is folded into
  a [calls, ns] counter on the enclosing span instead of a span of its
  own.

Self time of a span is its duration minus its child spans and its
top-level hot calls, so the self times of every span and hot name inside
a task add up to the task's duration.  Nothing here is imported by an
untraced run.
"""

from __future__ import annotations

import json
import time

from edlab import adversary, algorithms, core, harness, profiles, setint

now = time.perf_counter_ns

RUNNERS = ("block", "median", "clairvoyant", "oblivious", "preprocessed",
           "doubling")

# (module, attribute, span name): every place the benchmark's workloads
# reach a layer, wrapped under the name the caller looks up.
SPAN_SITES = (
    (core, "realize_instance", "core.realize_instance"),
    (core, "replay_transcript", "core.replay"),
    (harness, "replay_transcript", "core.replay"),
    (algorithms, "drive", "sortsel.drive"),
    (setint, "drive", "sortsel.drive"),
    (adversary, "drive_bounded", "sortsel.drive_bounded"),
    (harness, "block_sorting", "algorithms.block"),
    (harness, "median_recursion", "algorithms.median"),
    (harness, "clairvoyant", "algorithms.clairvoyant"),
    (harness, "preprocess", "algorithms.preprocessed"),
    (harness, "run_preprocessed", "algorithms.preprocessed"),
    (harness, "order_doubling", "algorithms.doubling"),
    (harness, "select_L1", "profiles.select"),
    (harness, "select_L2", "profiles.select"),
    (algorithms, "select_L1", "profiles.select"),
    (algorithms, "select_L2", "profiles.select"),
    (profiles, "lower_bound_median", "profiles.lower_bound"),
    (harness, "play_game", "adversary.play_game"),
    (adversary, "play_game", "adversary.play_game"),
    (harness, "few_deep_index", "adversary.few_deep"),
    (adversary, "few_deep_index", "adversary.few_deep"),
    (harness, "pack_separation", "adversary.pack"),
    (adversary, "pack_isomorphic", "adversary.pack"),
    (harness, "reconstruct", "adversary.reconstruct"),
    (harness, "realize", "adversary.realize"),
    (adversary, "realize", "adversary.realize"),
    (adversary, "si_adversary_game", "adversary.si_game"),
    (setint, "si_doubling", "setint.si_doubling"),
    (setint, "si_clairvoyant", "setint.si_clairvoyant"),
    (harness, "si_doubling", "setint.si_doubling"),
    (harness, "si_clairvoyant", "setint.si_clairvoyant"),
    (setint, "realize_si_family", "setint.realize_si_family"),
)

# (class, method, hot name).  Wrapped on the class, so every oracle and
# adversary built afterwards binds the wrapper.
HOT_SITES = (
    (core.CountingOracle, "compare", "core.compare"),
    (adversary.TreeAdversary, "answer", "adversary.tree_answer"),
    (adversary.SIAdversary, "answer", "adversary.si_answer"),
)

# Hot calls that only happen inside another hot call: an adversary
# answers from within CountingOracle.compare.
HOT_NESTED_IN = {"adversary.tree_answer": "core.compare",
                 "adversary.si_answer": "core.compare"}

# Spans that only occur while inputs are generated; their metrics are
# totals over the one set-up of the traced process.
SETUP_SPANS = ("core.realize_instance", "profiles.lower_bound",
               "setint.realize_si_family")

# Per-layer metrics in report order, with units.
LAYER_METRICS = (
    ("core.compare.calls", "count"),
    ("core.compare.self_ns", "ns"),
    ("core.transcript.tuples", "count"),
    ("core.replay.s", "s"),
    ("core.realize_instance.s", "s"),
    ("sortsel.drive.self_s", "s"),
    ("sortsel.drive.self_ns_per_cmp", "ns"),
    ("sortsel.drive_with.self_s", "s"),
    ("sortsel.drive_with.self_ns_per_cmp", "ns"),
    ("sortsel.drive_bounded.self_s", "s"),
    ("sortsel.drive_bounded.self_ns_per_cmp", "ns"),
    *((f"algorithms.{r}.{k}", u) for r in RUNNERS
      for k, u in (("s", "s"), ("cmp", "count"))),
    ("algorithms.oblivious.first_cmp_ms", "ms"),
    ("profiles.select.s", "s"),
    ("profiles.approx_scan.s", "s"),
    ("profiles.approx_scan.cmp", "count"),
    ("profiles.lower_bound.s", "s"),
    ("adversary.tree_answer.calls", "count"),
    ("adversary.tree_answer.self_ns", "ns"),
    ("adversary.pack.s", "s"),
    ("adversary.reconstruct.s", "s"),
    ("adversary.realize.s", "s"),
    ("adversary.few_deep.s", "s"),
    ("adversary.si_answer.calls", "count"),
    ("adversary.si_answer.self_ns", "ns"),
    ("adversary.si_game.self_s", "s"),
    ("setint.si_doubling.s", "s"),
    ("setint.si_doubling.cmp", "count"),
    ("setint.si_clairvoyant.s", "s"),
    ("setint.si_clairvoyant.cmp", "count"),
    ("setint.realize_si_family.s", "s"),
    ("harness.check.s", "s"),
    ("harness.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class Span:
    __slots__ = ("idx", "name", "parent", "start", "end", "hot", "info",
                 "in_task")

    def __init__(self, idx, name, parent, in_task):
        self.idx = idx
        self.name = name
        self.parent = parent
        self.in_task = in_task
        self.hot = {}
        self.info = None
        self.start = self.end = 0


class Tracer:
    def __init__(self):
        self.t0 = now()
        self.root = Span(-1, "root", None, False)
        self.cur = self.root
        self.spans = []
        self.oracles = []
        self.sites = []

    # --- recording -------------------------------------------------------

    def open(self, name, in_task=None):
        parent = self.cur
        s = Span(len(self.spans), name, parent,
                 parent.in_task if in_task is None else in_task)
        self.spans.append(s)
        self.cur = s
        s.start = now()
        return s

    def close(self, s):
        s.end = now()
        self.cur = s.parent

    def run_task(self, task_id, fn):
        """Run fn() as one task span; returns fn's result."""
        s = self.open("harness.task", in_task=True)
        try:
            return fn()
        finally:
            self.close(s)
            s.info = {"task": task_id, "transcript_tuples": sum(
                len(getattr(o, "transcript", None) or ()) for o in self.oracles)}
            self.oracles.clear()

    def call_in_span(self, name, fn, *args):
        s = self.open(name)
        try:
            return fn(*args)
        finally:
            self.close(s)

    def _span_wrapper(self, fn, name):
        tr = self

        def wrapper(*args, **kwargs):
            s = tr.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.close(s)
        return wrapper

    def _hot_wrapper(self, fn, name):
        tr = self

        def wrapper(*args):
            t = now()
            out = fn(*args)
            d = now() - t
            acc = tr.cur.hot.get(name)
            if acc is None:
                tr.cur.hot[name] = [1, d]
            else:
                acc[0] += 1
                acc[1] += d
            return out
        return wrapper

    def install(self):
        """Build a wrapper for every site and switch tracing on.

        Call before any input, oracle or game exists."""
        tr = self
        sites = [(module, attr, self._span_wrapper(getattr(module, attr), name))
                 for module, attr, name in SPAN_SITES]
        sites += [(cls, attr, self._hot_wrapper(getattr(cls, attr), name))
                  for cls, attr, name in HOT_SITES]

        oracle_init = core.CountingOracle.__init__

        def init(oracle, *args, **kwargs):
            oracle_init(oracle, *args, **kwargs)
            tr.oracles.append(oracle)
        sites.append((core.CountingOracle, "__init__", init))

        # profiles.approx_L2_scan compares sizes through drive_with and a
        # local callable; time that callable as the driver's comparison.
        drive_with = profiles.drive_with

        def traced_drive_with(gen, cmp3):
            return drive_with(gen, tr._hot_wrapper(cmp3, "profiles.cmp3"))
        sites.append((profiles, "drive_with", self._span_wrapper(
            traced_drive_with, "sortsel.drive_with")))

        # the scan reports its own size-comparison count as result[2]
        for module in (algorithms, harness):
            def traced_scan(profile, _scan=module.approx_L2_scan):
                s = tr.open("profiles.approx_scan")
                try:
                    out = _scan(profile)
                finally:
                    tr.close(s)
                s.info = out[2]
                return out
            sites.append((module, "approx_L2_scan", traced_scan))

        # oblivious branch set-up: time from the call to its first
        # comparison, via a one-shot compare that restores the hot one
        oblivious = harness.oblivious
        cls = core.CountingOracle

        def traced_oblivious(oracle, n=None):
            hot_compare = cls.compare
            s = tr.open("algorithms.oblivious")

            def first_compare(self_, x, y):
                cls.compare = hot_compare
                s.info = now() - s.start
                return hot_compare(self_, x, y)
            cls.compare = first_compare
            try:
                return oblivious(oracle, n)
            finally:
                cls.compare = hot_compare
                tr.close(s)
        sites.append((harness, "oblivious", traced_oblivious))

        self.sites = [(owner, attr, getattr(owner, attr), wrapper)
                      for owner, attr, wrapper in sites]
        self.enable(True)

    def enable(self, on):
        """Switch between the wrappers and the original names."""
        for owner, attr, original, wrapper in self.sites:
            setattr(owner, attr, wrapper if on else original)

    # --- reporting -------------------------------------------------------

    def summarize(self, passes):
        """Per-layer metrics (per pass) and the task self-time table."""
        child_ns = [0] * len(self.spans)
        incl_cmp = [0] * len(self.spans)
        for s in reversed(self.spans):
            incl_cmp[s.idx] += s.hot.get("core.compare", (0, 0))[0]
            if s.parent.idx >= 0:
                child_ns[s.parent.idx] += s.end - s.start
                incl_cmp[s.parent.idx] += incl_cmp[s.idx]

        dur, self_ns, cmp_ = {}, {}, {}
        hot_calls, hot_self = {}, {}
        direct_cmp = {}
        first_cmp = []
        task_ns = 0
        scan_cmp = 0
        for s in self.spans:
            d = s.end - s.start
            top_hot = sum(ns for h, (_, ns) in s.hot.items()
                          if h not in HOT_NESTED_IN)
            own = d - child_ns[s.idx] - top_hot
            key = s.name
            if not s.in_task:
                key = "setup:" + key
            dur[key] = dur.get(key, 0) + d
            self_ns[key] = self_ns.get(key, 0) + own
            cmp_[key] = cmp_.get(key, 0) + incl_cmp[s.idx]
            direct_cmp[key] = direct_cmp.get(key, 0) + sum(
                c for h, (c, _) in s.hot.items() if h not in HOT_NESTED_IN)
            if not s.in_task:
                continue
            if s.name == "harness.task":
                task_ns += d
            elif s.name == "algorithms.oblivious" and s.info is not None:
                first_cmp.append(s.info)
            elif s.name == "profiles.approx_scan":
                scan_cmp += s.info
            nested = {}
            for h, (c, ns) in s.hot.items():
                hot_calls[h] = hot_calls.get(h, 0) + c
                outer = HOT_NESTED_IN.get(h)
                if outer is not None:
                    nested[outer] = nested.get(outer, 0) + ns
            for h, (_, ns) in s.hot.items():
                hot_self[h] = hot_self.get(h, 0) + ns - nested.get(h, 0)

        def per_pass_s(key, table=dur):
            return table.get(key, 0) / 1e9 / passes

        def per_call_ns(total, n):
            return total / n if n else 0.0

        tuples = sum(s.info["transcript_tuples"] for s in self.spans
                     if s.name == "harness.task")
        m = {
            "core.compare.calls": hot_calls.get("core.compare", 0) / passes,
            "core.compare.self_ns": per_call_ns(
                hot_self.get("core.compare", 0),
                hot_calls.get("core.compare", 0)),
            "core.transcript.tuples": tuples / passes,
            "core.replay.s": per_pass_s("core.replay"),
        }
        for drv in ("drive", "drive_with", "drive_bounded"):
            key = f"sortsel.{drv}"
            m[f"{key}.self_s"] = per_pass_s(key, self_ns)
            m[f"{key}.self_ns_per_cmp"] = per_call_ns(
                self_ns.get(key, 0), direct_cmp.get(key, 0))
        for r in RUNNERS:
            m[f"algorithms.{r}.s"] = per_pass_s(f"algorithms.{r}")
            m[f"algorithms.{r}.cmp"] = cmp_.get(f"algorithms.{r}", 0) / passes
        m["algorithms.oblivious.first_cmp_ms"] = (
            sum(first_cmp) / len(first_cmp) / 1e6 if first_cmp else 0.0)
        m["profiles.select.s"] = per_pass_s("profiles.select")
        m["profiles.approx_scan.s"] = per_pass_s("profiles.approx_scan")
        m["profiles.approx_scan.cmp"] = scan_cmp / passes
        for h, name in (("adversary.tree_answer", "tree_answer"),
                        ("adversary.si_answer", "si_answer")):
            m[f"adversary.{name}.calls"] = hot_calls.get(h, 0) / passes
            m[f"adversary.{name}.self_ns"] = per_call_ns(
                hot_self.get(h, 0), hot_calls.get(h, 0))
        for name in ("pack", "reconstruct", "realize", "few_deep"):
            m[f"adversary.{name}.s"] = per_pass_s(f"adversary.{name}")
        m["adversary.si_game.self_s"] = per_pass_s("adversary.si_game", self_ns)
        for name in ("si_doubling", "si_clairvoyant"):
            m[f"setint.{name}.s"] = per_pass_s(f"setint.{name}")
            m[f"setint.{name}.cmp"] = cmp_.get(f"setint.{name}", 0) / passes
        for name in SETUP_SPANS:
            m[f"{name}.s"] = dur.get("setup:" + name, 0) / 1e9
        m["harness.check.s"] = per_pass_s("harness.check")
        m["harness.self_s"] = per_pass_s("harness.task", self_ns)

        # Self time of every span and hot name inside tasks.  harness.task's
        # self time is harness.self_s; the table sums to task_ns.
        table = {k: v for k, v in self_ns.items() if not k.startswith("setup:")}
        table["harness.self"] = table.pop("harness.task", 0)
        for h, ns in hot_self.items():
            table[h] = table.get(h, 0) + ns
        return m, {k: v / 1e9 / passes for k, v in table.items()}, task_ns / 1e9 / passes

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.idx, "name": s.name, "parent": s.parent.idx,
                    "start_ns": s.start - self.t0, "end_ns": s.end - self.t0,
                    "hot": s.hot, "info": s.info}) + "\n")
