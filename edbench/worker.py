"""One fresh, single-threaded benchmark process (started by run.py).

Imports edlab from the checkout's src/, builds the workload's inputs,
and stops there (--phase setup) or runs whole passes over the task list
until --seconds have elapsed, at least MIN_PASSES of them (--phase timed;
--phase traced installs the span tracer first and puts an untraced pass
before each traced one).  Prints one JSON object on standard output.

To rewrite a workload's pinned counts after a deliberate change to the
paper's cost measure, run one untimed pass at the default seed:

    python3 edbench/worker.py --workload finders --write-pins
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins"
OUT = HERE / "out"
DEFAULT_SEED = 0
MIN_PASSES = 3  # every per-task latency is a median over the passes


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--phase", choices=("setup", "timed", "traced"),
                   default="timed")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--budget", type=float, default=150.0,
                   help="start no pass that would end after this many seconds")
    p.add_argument("--spawned-at", type=float, default=None,
                   help="time.time() just before this process was started")
    p.add_argument("--write-pins", action="store_true")
    return p.parse_args(argv)


def import_workloads():
    sys.path.insert(0, str(SRC))
    import edlab
    if not Path(edlab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"edlab imported from {edlab.__file__}, not {SRC}")
    import workloads
    return workloads


def run_task(task, tracer):
    """Returns (record, errors, seconds) for one task."""
    gc.collect()  # every task starts from the same collector state
    t = time.perf_counter()
    try:
        if tracer is None:
            out = task.run()
            rec, errs = task.check(out)
        else:
            def traced():
                out = task.run()
                return tracer.call_in_span("harness.check", task.check, out)
            rec, errs = tracer.run_task(task.id, traced)
    except Exception:  # a failing task is counted, and the run goes on
        rec, errs = None, [traceback.format_exc(limit=3).strip()]
    return rec, errs, time.perf_counter() - t


def check_pin(task_id, rec, pins):
    want = pins.get(task_id)
    got = json.loads(json.dumps(rec))
    if want is None:
        return [f"no pinned record for {task_id}"]
    if got != want:
        return [f"pinned record changed: expected {want}, got {got}"]
    return []


def main(argv=None):
    args = parse_args(argv)
    started = args.spawned_at if args.spawned_at is not None else time.time()
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")

    tracer = None
    if args.phase == "traced":
        from tracer import LAYER_METRICS, Tracer
        tracer = Tracer()
        tracer.install()
    tasks = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.time() - started
    result = {"setup_s": setup_s}

    if args.write_pins:
        if args.seed != DEFAULT_SEED:
            raise SystemExit(f"pins are kept for the default seed {DEFAULT_SEED}")
        pins = {}
        for task in tasks:
            rec, errs, _ = run_task(task, None)
            if errs:
                raise SystemExit(f"{task.id}: {errs[0]}")
            pins[task.id] = rec
        PINS.mkdir(exist_ok=True)
        path = PINS / f"{args.workload}.json"
        lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(pins[k])}"
                           for k in sorted(pins))
        path.write_text(f'{{"seed": {DEFAULT_SEED}, "tasks": {{\n{lines}\n}}}}\n')
        print(f"wrote {len(pins)} records to {path}", file=sys.stderr)
        return 0
    if args.phase == "setup":
        print(json.dumps(result))
        return 0

    pins = None
    if args.seed == DEFAULT_SEED:
        pins = json.loads((PINS / f"{args.workload}.json").read_text())["tasks"]
    lat = [[] for _ in tasks]
    ref_lat = [[] for _ in tasks]
    failures = []

    def run_pass(samples, tracer):
        for k, task in enumerate(tasks):
            rec, errs, dt = run_task(task, tracer)
            if not errs and pins is not None:
                errs = check_pin(task.id, rec, pins)
            samples[k].append(dt)
            if errs:
                failures.append(f"{task.id}: {errs[0]}")

    # A traced run alternates untraced and traced passes in this one
    # process, so the tracing overhead is not swamped by drift in the
    # machine's speed between two processes.
    t0 = time.perf_counter()
    passes = 0
    while True:
        p0 = time.perf_counter()
        if tracer is not None:
            tracer.enable(False)
            run_pass(ref_lat, None)
            tracer.enable(True)
        run_pass(lat, tracer)
        passes += 1
        elapsed = time.perf_counter() - t0
        if passes >= MIN_PASSES and elapsed >= args.seconds:
            break
        if elapsed + (time.perf_counter() - p0) > args.budget:
            break

    attempted = passes * len(tasks) * (1 if tracer is None else 2)
    result.update(passes=passes, attempted=attempted, failed=len(failures),
                  failures=failures[:20], lat=lat,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        layers, self_table, task_s = tracer.summarize(passes)
        layers["trace.overhead_frac"] = (sum(map(statistics.median, lat))
                                         / sum(map(statistics.median, ref_lat)) - 1)
        result.update(layers=[[name, layers[name], unit]
                              for name, unit in LAYER_METRICS],
                      self_table=self_table, task_s=task_s)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
