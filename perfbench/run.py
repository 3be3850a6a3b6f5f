"""Benchmark entry point: one workload, one run, one JSON line of metrics.

    python3 perfbench/run.py --workload harnack_v1 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout of the repository; the program is imported
from its ``src`` directory, so nothing is built or installed.  The run is a
closed loop: one caller in one workload process issues the operations back
to back.  RSPDE_THREADS is set to min(2, nproc).

--trace 0 prints the end-to-end metrics: setup_s (median of seven process
starts, six set-up-only and the workload process itself, each timed from
launch until it can begin its first operation), op_s, paths_per_s, se2_s and
peak_rss_mb (the workload process).  --trace 1 prints the per-layer metrics
of a traced round.  The last line of standard output is the result object;
the lines before it carry one sha256 digest per operation.  The exit code is
0 only when every operation gave the expected verdict, kept the ledger
invariants and matched the golden digests.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("harnack_v1", "gradient_v16", "penalized_ladder", "simulate_paths")
SETUP_PROBES = 6


def _launch(root, env, argv):
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *argv],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True,
    )


def _wait_ready(proc) -> bool:
    for line in proc.stdout:
        if line.strip() == "READY":
            return True
        print(line, end="")
    return False


def _reap(proc):
    """Wait for the process; return (exit code, peak RSS in MB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def _setup_seconds(root, env, argv) -> float | None:
    start = time.perf_counter()
    proc = _launch(root, env, [*argv, "--setup-only"])
    ready = _wait_ready(proc)
    elapsed = time.perf_counter() - start
    proc.stdout.read()
    code, _ = _reap(proc)
    return elapsed if ready and code == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rspde lab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rspde", "__init__.py")):
        print(f"error: {root} holds no src/rspde; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    env["RSPDE_THREADS"] = str(min(2, len(os.sched_getaffinity(0))))
    worker_argv = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]

    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            seconds = _setup_seconds(root, env, worker_argv)
            if seconds is None:
                print("error: set-up probe failed", file=sys.stderr)
                return 1
            setup.append(seconds)

    start = time.perf_counter()
    proc = _launch(root, env, worker_argv)
    result = None
    try:
        ready = _wait_ready(proc)
        setup.append(time.perf_counter() - start)
        for line in proc.stdout:
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                print(line, end="")
    finally:
        if result is None:
            proc.kill()  # harmless if it has already exited
        code, peak_rss_mb = _reap(proc)
    if not ready or code != 0 or result is None:
        print(f"error: workload process exited with code {code}", file=sys.stderr)
        return 1

    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
