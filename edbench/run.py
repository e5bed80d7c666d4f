"""edlab benchmark: run one workload and print its metrics.

    python3 edbench/run.py --workload finders --seed 1 --seconds 20 --trace 0

Workloads (see edbench/README.md): finders, games, setint.  Every
measurement runs in a fresh single-threaded worker process
(edbench/worker.py), so no workload sees another's imports or memory.

--trace 0 reports the end-to-end metrics.  setup_s is the median over
SETUP_REPEATS fresh processes of the time from process start to the
first task (imports plus input generation).  The timed process runs
whole passes over the workload's fixed task list.  tasks_per_s divides
the list's length by the sum of each task's median latency over the
passes; task_ms.p50 and task_ms.tail are percentiles of all latencies.

--trace 1 reports the per-layer metrics from one process with the span
tracer installed.  It alternates untraced and traced passes; the ratio
of their task times is the tracing overhead.

Each metric is printed as a line "name value unit"; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import MIN_PASSES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("finders", "games", "setint")
SETUP_REPEATS = 5
RUN_LIMIT_S = 170  # a whole run must end within 180 s


def seed_arg(text):
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"the seed must be an integer, got {text!r}") from None


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="edlab benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=seed_arg)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_LIMIT_S
        # a fixed hash seed keeps set and dict layouts, and so timings,
        # the same from run to run
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.pop("EDLAB_SEED", None)  # inputs come from --seed alone

    def worker(self, phase):
        a = self.args
        left = self.deadline - time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", a.workload, "--seed", str(a.seed),
               "--phase", phase, "--seconds", str(a.seconds),
               "--budget", str(left - 15),
               "--spawned-at", repr(time.time())]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, text=True,
                              stdout=subprocess.PIPE, timeout=max(1.0, left))
        if proc.returncode != 0:
            raise SystemExit(f"{phase} worker exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(n):
    """Highest whole percentile with at least 10 of n samples beyond it."""
    return max(1, math.floor(100 * (n - 10) / n))


def end_to_end(runner):
    setups = [runner.worker("setup")["setup_s"]
              for _ in range(SETUP_REPEATS - 1)]
    res = runner.worker("timed")
    setups.append(res["setup_s"])
    lat = res["lat"]
    med = [statistics.median(ls) for ls in lat]
    samples = [x for ls in lat for x in ls]
    # fixed by the task list, so a faster program running more passes
    # does not move the percentile
    p = tail_percentile(len(lat) * MIN_PASSES)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "tasks_per_s": (len(med) / sum(med), "1/s"),
        "task_ms.p50": (1000 * statistics.median(samples), "ms"),
        "task_ms.tail": (1000 * statistics.quantiles(
            samples, n=100, method="inclusive")[p - 1], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    print(f"# {len(lat)} tasks x {res['passes']} passes = {len(samples)} "
          f"latencies; task_ms.tail is their p{p}; setup_s is the median of "
          f"{len(setups)} processes")
    return metrics, res


def per_layer(runner):
    res = runner.worker("traced")
    metrics = {name: (value, unit) for name, value, unit in res["layers"]}
    task_s = res["task_s"]
    print(f"# traced task time per pass {task_s:.4f} s over {res['passes']} "
          f"passes; self time by span (share of task time):")
    for name, s in sorted(res["self_table"].items(), key=lambda kv: -kv[1]):
        print(f"#   {name:28s} {s:10.4f} s  {s / task_s:6.1%}")
    print(f"#   {'(sum)':28s} {sum(res['self_table'].values()):10.4f} s")
    return metrics, res


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "edlab" / "__init__.py").is_file():
        print(f"edlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args)
    try:
        metrics, res = (per_layer if args.trace else end_to_end)(runner)
    except (SystemExit, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed = res["attempted"], res["failed"]
    for f in res["failures"]:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {attempted} tasks attempted, "
          f"{failed} failed (failed_frac {failed / attempted:.4f})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
