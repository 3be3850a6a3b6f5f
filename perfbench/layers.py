"""Per-layer metrics from traced spans, and the batch-width microbench.

Counts and self times come from the traced round at one thread, where every
span nests on the caller thread and self times partition the operations'
wall time.  The pool's busy fraction comes from the round at RSPDE_THREADS.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from tracer import aggregate, pool_busy_fraction

WIDTHS = (1, 64, 256, 1024, 4096)
_EMPTY = {"calls": 0, "work": 0, "self_s": 0.0}


def _per(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def per_layer_metrics(spans_1thread, spans_threads) -> dict[str, tuple[float, str]]:
    agg = aggregate(spans_1thread)

    def get(name):
        return agg.get(name, _EMPTY)

    op_wall = sum(s.seconds for s in spans_1thread if s.name == "bench.op")

    def share(*names):
        return _per(sum(get(n)["self_s"] for n in names), op_wall)

    inc, b_sigma, solve = get("grid_noise.increments"), get("coefficients.b_sigma"), get("heat.solve")
    resolvent, ensemble = get("solver.resolvent"), get("semigroup.run_ensemble")
    m = {
        "grid_noise.increments.calls": (inc["calls"], "count"),
        "grid_noise.increments.stream_steps": (inc["work"], "count"),
        "grid_noise.increments.self_s": (inc["self_s"], "s"),
        "grid_noise.increments.us_per_stream_step": (_per(inc["self_s"], inc["work"], 1e6), "us"),
        "grid_noise.increments.mean_width": (_per(inc["work"], inc["calls"]), "count"),
        "grid_noise.share": (share("grid_noise.increments", "grid_noise.sample_increments"), "frac"),
        "coefficients.b_sigma.calls": (b_sigma["calls"], "count"),
        "coefficients.b_sigma.values": (b_sigma["work"], "count"),
        "coefficients.b_sigma.self_s": (b_sigma["self_s"], "s"),
        "coefficients.b_sigma.ns_per_value": (_per(b_sigma["self_s"], b_sigma["work"], 1e9), "ns"),
        "coefficients.share": (share("coefficients.b_sigma"), "frac"),
        "heat.solve.calls": (solve["calls"], "count"),
        "heat.solve.columns": (solve["work"], "count"),
        "heat.solve.self_s": (solve["self_s"], "s"),
        "heat.solve.us_per_column": (_per(solve["self_s"], solve["work"], 1e6), "us"),
        "heat.solve.mean_width": (_per(solve["work"], solve["calls"]), "count"),
        "heat.share": (share("heat.solve"), "frac"),
        "solver.resolvent.calls": (resolvent["calls"], "count"),
        "solver.resolvent.values": (resolvent["work"], "count"),
        "solver.resolvent.self_s": (resolvent["self_s"], "s"),
        "solver.resolvent.ns_per_value": (_per(resolvent["self_s"], resolvent["work"], 1e9), "ns"),
        "solver.resolvent.share": (share("solver.resolvent"), "frac"),
        "semigroup.run_ensemble.passes": (ensemble["calls"], "count"),
        "semigroup.run_ensemble.path_steps": (ensemble["work"], "count"),
        "semigroup.run_ensemble.self_s": (ensemble["self_s"], "s"),
        "semigroup.noise_reuse": (_per(ensemble["work"], inc["work"]), "x"),
        "semigroup.pool.busy_frac": (pool_busy_fraction(spans_threads), "frac"),
        "trace.unattributed_frac": (share("bench.op"), "frac"),
    }
    for name in ("solver.ledger", "solver.solve_path", "semigroup.functional", "verify.check"):
        m[f"{name}.calls"] = (get(name)["calls"], "count")
        m[f"{name}.self_s"] = (get(name)["self_s"], "s")
    m["cli.simulate.self_s"] = (get("cli.simulate")["self_s"], "s")
    return {k: (float(v), unit) for k, (v, unit) in m.items()}


def _seconds_per_call(fn, min_sample_s=0.05, samples=7) -> float:
    fn()
    start, calls = time.perf_counter(), 0
    while time.perf_counter() - start < min_sample_s:
        fn()
        calls += 1
    per_sample = max(calls, 1)
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        for _ in range(per_sample):
            fn()
        times.append((time.perf_counter() - start) / per_sample)
    return statistics.median(times)


def microbench() -> dict[str, tuple[float, str]]:
    """increments_matrix and ImplicitHeatSolver.solve at fixed batch widths,
    called directly on the standard lab grid."""
    from rspde import grid_noise, heat
    from workloads import DEFAULT_SEED, LAB_GRID

    grid = grid_noise.make_grid(**LAB_GRID)
    plan = grid_noise.NoisePlan(DEFAULT_SEED)
    solver = heat.ImplicitHeatSolver(grid.n_space, grid.dx, grid.dt)
    out = {}
    for width in WIDTHS:
        streams = np.arange(width)
        noise = _seconds_per_call(lambda: grid_noise.increments_matrix(plan, grid, 0, streams))
        out[f"grid_noise.increments.w{width}.us_per_stream_step"] = (noise / width * 1e6, "us")
        w = grid_noise.increments_matrix(plan, grid, 0, streams)
        solve = _seconds_per_call(lambda: solver.solve(w))
        out[f"heat.solve.w{width}.us_per_column"] = (solve / width * 1e6, "us")
    return out
