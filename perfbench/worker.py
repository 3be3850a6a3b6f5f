"""Workload process: set up one workload, then run it untraced or traced.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and
RSPDE_THREADS set.  It prints ``READY`` once set-up is done (run.py times
set-up up to that line), then ``digest`` lines, and last ``RESULT <json>``.

Untraced (--trace 0): one golden round at the default seed (warm-up and
golden-digest check), then whole rounds at the given seed, closed loop, until
--seconds have passed.  Traced (--trace 1): the golden round, one untraced
reference round at the given seed, the same round traced at RSPDE_THREADS
threads and again at one thread, then the batch-width microbench.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import layers
import rspde
import workloads
from tracer import Tracer, work_counts

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")


class Recorder:
    """Runs operations, checks them, and keeps per-operation results."""

    def __init__(self):
        self.tracer = None
        self.spans = []
        self.attempted = 0
        self.failed = 0

    def run_round(self, workload, seed, round_index, label):
        out = []
        for op in workload.ops(seed, round_index):
            rec = self.run_op(op, workload.name, seed, round_index, label)
            out.append(rec)
        return out

    def run_op(self, op, workload_name, seed, round_index, label):
        self.attempted += 1
        rec = {"op": op.name, "round": round_index, "seed": seed, "n_paths": op.n_paths,
               "seconds": None, "digest": None, "se": None, "error": None}
        try:
            run = op.run if self.tracer is None else self.tracer.wrap("bench.op", op.run)
            start = time.perf_counter()
            outcome = run()
            rec["seconds"] = time.perf_counter() - start
            if self.tracer is not None:
                self.spans.extend(self.tracer.collect())
            rec["digest"], rec["se"] = op.check(outcome)
            if self.tracer is not None:
                self.tracer.collect()  # spans of the replay inside the check
        except workloads.OutputMismatch as exc:
            rec["error"] = f"mismatch: {exc}"
        except Exception as exc:  # an operation that raises counts as failed
            rec["error"] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        if rec["error"]:
            self.failed += 1
            print(f"FAILED {workload_name} {label} round={round_index} {op.name}: "
                  f"{rec['error']}", file=sys.stderr)
        print(f"digest {workload_name} {label} seed={seed} round={round_index} "
              f"op={op.name} sha256={rec['digest']} seconds={rec['seconds']} se={rec['se']}",
              flush=True)
        return rec

    def fail(self, message):
        self.failed += 1
        print(f"FAILED {message}", file=sys.stderr)


def check_goldens(recorder, name, golden_records):
    with open(GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh).get(name, {})
    for rec in golden_records:
        want = goldens.get(rec["op"])
        if rec["digest"] is not None and rec["digest"] != want:
            recorder.fail(f"{name} golden digest of {rec['op']}: {rec['digest']} != {want}")


def seconds_by_op(records):
    by_op = {}
    for rec in records:
        by_op.setdefault(rec["op"], []).append(rec["seconds"])
    return by_op


def end_to_end_metrics(records, reference_se):
    """op_s, paths_per_s and se2_s over the timed rounds.

    Times are means over the whole run, not medians: the shared host runs
    a core at two speeds that alternate every few seconds, so per-operation
    times are bimodal and their median jumps between the modes from run to
    run, while the mean moves only with the share of time spent in each.

    se2_s sums, over the round's operations that gate on a standard error,
    SE^2 x mean seconds.  The SE is the one of the golden round (default
    seed), so it is a fixed property of the estimator rather than a sample
    that varies from seed to seed; the seconds are this run's.
    """
    # mean seconds of each operation of the round, averaged over the round
    means = {op: statistics.fmean(seconds) for op, seconds in seconds_by_op(records).items()}
    paths_per_s = sum(r["n_paths"] for r in records) / sum(r["seconds"] for r in records)
    se2_s = sum(reference_se[op] ** 2 * seconds for op, seconds in means.items()
                if reference_se.get(op) is not None)
    return {
        "op_s": {"value": statistics.fmean(means.values()), "unit": "s"},
        "paths_per_s": {"value": paths_per_s, "unit": "1/s"},
        "se2_s": {"value": se2_s, "unit": "s"},
    }


def run_untraced(workload, seed, seconds):
    rec = Recorder()
    golden = rec.run_round(workload, workloads.DEFAULT_SEED, 0, "golden")
    check_goldens(rec, workload.name, golden)
    timed = []
    start = time.perf_counter()
    round_index = 0
    while round_index == 0 or time.perf_counter() - start < seconds:
        timed += rec.run_round(workload, seed, round_index, "timed")
        round_index += 1
    ok = [r for r in timed if r["error"] is None]
    metrics = end_to_end_metrics(ok, {r["op"]: r["se"] for r in golden}) if ok else {}
    print(f"ops {workload.name} timed={len(timed)} rounds={round_index} "
          f"attempted={rec.attempted} failed={rec.failed} "
          f"failed_frac={rec.failed / rec.attempted:.6g}", flush=True)
    print_timings(workload.name, ok)
    return rec, metrics


def print_timings(workload_name, records):
    """Per operation: sample count, mean, median and, given more than ten
    samples, the highest percentile with ten samples beyond it."""
    for op, seconds in seconds_by_op(records).items():
        seconds.sort()
        n = len(seconds)
        tail = f" p{100 * (n - 10) / n:.0f}={seconds[n - 11]:.6g}" if n > 10 else ""
        print(f"timing {workload_name} op={op} n={n} mean={statistics.fmean(seconds):.6g} "
              f"median={statistics.median(seconds):.6g}{tail}", flush=True)


def trace_rounds(rec, workload, seed, thread_counts):
    """Run round 0 at ``seed`` traced, once per RSPDE_THREADS value.

    Returns {threads: (spans, wall seconds, records)}.  The workload is
    rebuilt under the tracer so that its model carries traced b/sigma.
    """
    saved = os.environ.get("RSPDE_THREADS")
    tracer = Tracer().install()
    try:
        traced = workloads.build(workload.name, workload.work_dir, workload.n_paths)
        tracer.collect()
        rec.tracer = tracer
        out = {}
        for threads in thread_counts:
            os.environ["RSPDE_THREADS"] = str(threads)
            rec.spans = []
            start = time.perf_counter()
            records = rec.run_round(traced, seed, 0, f"traced_{threads}thread")
            out[threads] = (rec.spans, time.perf_counter() - start, records)
        return out
    finally:
        if saved is None:
            os.environ.pop("RSPDE_THREADS", None)
        else:
            os.environ["RSPDE_THREADS"] = saved
        rec.tracer = None
        tracer.uninstall()


def run_traced(workload, seed):
    name = workload.name
    threads = int(os.environ.get("RSPDE_THREADS", "1"))
    rec = Recorder()
    check_goldens(rec, name, rec.run_round(workload, workloads.DEFAULT_SEED, 0, "golden"))
    cpu0, wall0 = time.process_time(), time.perf_counter()
    reference = rec.run_round(workload, seed, 0, "reference")
    cpu_s, ref_wall = time.process_time() - cpu0, time.perf_counter() - wall0
    passes = trace_rounds(rec, workload, seed, (threads, 1))

    for nt, (_, _, recs) in passes.items():
        for got, want in zip(recs, reference):
            if got["digest"] != want["digest"]:
                rec.fail(f"{name} traced at {nt} threads, {got['op']}: "
                         "digest differs from the untraced run")
    spans_n, wall_n, _ = passes[threads]
    spans_1, wall_1, _ = passes[1]
    if work_counts(spans_n) != work_counts(spans_1):
        rec.fail(f"{name}: traced counts differ between RSPDE_THREADS={threads} and 1")
    metrics = layers.per_layer_metrics(spans_1, spans_n)
    metrics.update({
        "process.cpu_s": (cpu_s, "s"),
        "process.cpu_util": (cpu_s / ref_wall, "s/s"),
        "process.thread_speedup": (wall_1 / wall_n, "x"),
        "trace.overhead_frac": ((wall_n - ref_wall) / ref_wall, "frac"),
        "cli.simulate.bytes_written": (_simulate_bytes(workload), "B"),
    })
    metrics.update(layers.microbench())
    return rec, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _simulate_bytes(workload) -> float:
    """Bytes of the files the last `simulate` command wrote (0 elsewhere)."""
    if not isinstance(workload, workloads.SimulatePaths):
        return 0.0
    return float(sum(os.path.getsize(os.path.join(workload.out_dir, f))
                     for f in os.listdir(workload.out_dir)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(rspde.__file__), src]) != src:
        print(f"error: imported rspde from {rspde.__file__}, not from {src}", file=sys.stderr)
        return 1
    scratch_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root)
    try:
        workload = workloads.build(args.workload, work_dir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            rec, metrics = run_traced(workload, args.seed)
        else:
            rec, metrics = run_untraced(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        _remove_if_empty(scratch_root)
    result = {"correct": rec.failed == 0, "attempted": rec.attempted,
              "failed": rec.failed, "metrics": metrics}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


def _remove_if_empty(path):
    try:
        os.rmdir(path)
    except OSError:
        pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
