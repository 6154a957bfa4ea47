"""Benchmark causalkit on one workload and print its metrics.

    python3 perfbench/run.py --workload mc_dr --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: causalkit is imported from ./src, never from
an installed copy.  The run starts SETUP_PROBES fresh interpreters that only
set the workload up, to time set-up, then one more that sets up, runs an
untimed warm-up operation, measures whole rounds of operations for --seconds
of timed wall time and checks every output.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics — the
end-to-end metrics with --trace 0, the per-layer split with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mc_dr", "csv_roundtrip", "eif_check", "psm_match")
SETUP_PROBES = 6
# One BLAS thread: on a 2-core machine a second thread adds CPU time and
# run-to-run spread without shortening these operations much.
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A run must end within 180 s; leave room for the probes and the report.
RUN_BUDGET_S = 170.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for name in BLAS_VARIABLES:
        env[name] = BLAS_THREADS
    return env


def spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter; add its set-up time to its result."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=max(deadline - start, 1.0),
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready_at"] - start
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "causalkit", "__init__.py")):
        print(f"no causalkit source under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]
    try:
        setups = [spawn([*common, "--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        run = spawn([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    setups.append(run["setup_s"])
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    for error in run["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in run["layers"].items()}
    else:
        metrics = {
            "op_p50_ms": {"value": run["metrics"]["op_p50_ms"], "unit": "ms"},
            "units_per_s": {"value": run["metrics"]["units_per_s"], "unit": "unit/s"},
            "cpu_ms_per_op": {"value": run["metrics"]["cpu_ms_per_op"], "unit": "ms"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    info = {
        "workload": args.workload, "seed": args.seed, "blas_threads": int(BLAS_THREADS),
        "units": run["units"], "timed_s": run["timed_s"], "setup_samples_s": setups,
        "traced_p50_ms": run["traced_p50_ms"], "untraced_p50_ms": run["untraced_p50_ms"],
        "op_ms": run["op_ms"],
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not run["errors"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


def unit_of(name: str) -> str:
    kind = name.rsplit(".", 1)[1]
    return "ms" if kind.endswith("_ms") else "count" if kind != "bytes" else "B"


if __name__ == "__main__":
    sys.exit(main())
