"""One benchmark process: set up a workload, run it for a time, check it.

Started by run.py in a fresh interpreter with causalkit's source on
PYTHONPATH and the BLAS thread count fixed in the environment.  Prints one
JSON line: the monotonic time at which set-up ended and, unless --setup-only,
the measurements and check results of the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
import traceback

import causalkit

from checks import CheckFailed
from spans import Tracer
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def measure(workload, seconds: float, tracer) -> dict:
    """Run whole rounds of operations until their timed wall time reaches `seconds`.

    With a tracer, even rounds are traced and odd rounds are not, so one run
    gives both the per-layer split and the tracing overhead.
    """
    times = {True: [], False: []}
    cpu, timed, units, attempted, failed, errors = [], 0.0, 0, 0, 0, []
    rounds = 0
    allowed = sorted(os.sched_getaffinity(0))
    while timed < seconds or (tracer is not None and rounds < 2):
        traced = tracer is not None and rounds % 2 == 0
        for index in range(rounds * workload.round_size, (rounds + 1) * workload.round_size):
            # On a shared host each vCPU slows down independently of the
            # others for seconds to minutes; rotating operations over the
            # allowed CPUs makes a run sample all of them.
            os.sched_setaffinity(0, {allowed[index % len(allowed)]})
            # Each CLI call normally starts in a fresh process; start every
            # operation from an empty collector instead of the last one's garbage.
            gc.collect()
            if traced:
                tracer.install()
                tracer.begin_op(index)
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                outcome, error = workload.run(index), None
            except Exception as exc:  # an operation error is counted, not fatal
                outcome, error = None, exc
            t1, c1 = time.perf_counter(), time.process_time()
            if traced:
                tracer.end_op()
                tracer.uninstall()
            attempted += 1
            times[traced].append(t1 - t0)
            cpu.append(c1 - c0)
            timed += t1 - t0
            if error is not None:
                failed += 1
                print(f"operation {index} failed: {error!r}", file=sys.stderr)
                continue
            try:
                units += workload.check(index, outcome)
            except CheckFailed as exc:
                if workload.expected_failure(index):
                    failed += 1
                else:
                    errors.append(f"operation {index}: {exc}")
        rounds += 1
    os.sched_setaffinity(0, allowed)
    all_times = times[True] + times[False]
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": {
            "op_p50_ms": statistics.median(all_times) * 1e3,
            "units_per_s": units / timed,
            "cpu_ms_per_op": statistics.median(cpu) * 1e3,
        },
        "traced_p50_ms": statistics.median(times[True]) * 1e3 if times[True] else None,
        "untraced_p50_ms": statistics.median(times[False]) * 1e3 if times[False] else None,
        "units": units,
        "timed_s": timed,
        "op_ms": [round(t * 1e3, 1) for t in all_times],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if os.path.dirname(os.path.dirname(os.path.abspath(causalkit.__file__))) != src:
        print(f"causalkit imported from {causalkit.__file__}, not from {src}", file=sys.stderr)
        return 2
    os.makedirs(args.workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.workdir)
        workload.setup()
        ready_at = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready_at": ready_at}))
            return 0
        workload.warmup()
        tracer = Tracer() if args.trace else None
        result = measure(workload, args.seconds, tracer)
        try:
            workload.finish()
        except CheckFailed as exc:
            result["errors"].append(f"run: {exc}")
        if tracer is not None:
            result["layers"] = tracer.layer_metrics(result["traced_p50_ms"], result["untraced_p50_ms"])
            tracer.write(os.path.join(os.path.dirname(args.workdir),
                                      f"spans-{args.workload}-seed{args.seed}.jsonl"))
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    result["ready_at"] = ready_at
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
