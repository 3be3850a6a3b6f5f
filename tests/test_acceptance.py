"""Acceptance gates: one test and one printed PASS/FAIL line per criterion.

Run with `python -m pytest tests/test_acceptance.py -v -s`.  Each criterion
carries its stated tolerance and runtime cap; the heavy Monte Carlo gates
(4000 paths) dominate the wall time.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from rspde.cli import main
from rspde.coefficients import BoundProfile, constant_M, constant_model, harnack_rhs, standard_model, zeta
from rspde.config import dumps_config
from rspde.grid_noise import NoisePlan, l2_norm, make_grid
from rspde.heat import heat_apply, spectral_basis
from rspde.semigroup import (
    Directions,
    bounded_cylinder,
    clipped_affine,
    direction_dictionary,
    estimate_grad_Pt,
    exp_neg_pair,
)
from rspde.solver import deterministic_obstacle, solve_path, solve_tangent
from rspde.verify import (
    check_eps_convergence,
    check_eps_monotonicity,
    check_gradient_estimate,
    check_initial_continuity,
    check_lipschitz_Pt,
    check_log_harnack,
    check_variance_bound,
)

SEED = 20170607


def report(num, name, passed, detail, elapsed, cap):
    line = (f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'}  "
            f"[{detail}]  ({elapsed:.1f}s, cap {cap:.0f}s)")
    print(line)
    assert passed, line
    assert elapsed < cap, f"runtime {elapsed:.1f}s exceeded cap {cap}s: {line}"


@pytest.fixture(scope="module")
def standard_lab():
    grid = make_grid(63, 2.5e-3, 0.25)
    model = standard_model()
    e1 = spectral_basis(63).modes[0]
    h = np.maximum(1.5 * e1, 0.0)
    dirs = direction_dictionary(grid, 8, include_parts=False)
    phi = clipped_affine(e1, grid.dx, offset=0.5, lo=0.0, hi=50.0)
    phi_pos = exp_neg_pair(e1, grid.dx, lo=0.1, hi=1.0)
    return grid, model, e1, h, dirs, phi, phi_pos


def heat_flow_error(n_space, dt):
    grid = make_grid(n_space, dt, 0.1)
    e1 = spectral_basis(n_space).modes[0]
    model = constant_model(0.0, 0.0)
    traj = solve_path(e1, "reflected", model, grid, NoisePlan(SEED))
    target = math.exp(-math.pi**2 * 0.05) * e1
    return float(l2_norm(traj.fields[-1] - target, grid.dx)), traj


def test_criterion_01_heat_flow_exactness():
    t0 = time.perf_counter()
    err, traj = heat_flow_error(127, 1e-4)
    base_elapsed = time.perf_counter() - t0
    assert traj.ledger.total == 0.0
    err_refined, _ = heat_flow_error(255, 5e-5)
    report(1, "heat-flow exactness",
           err < 1e-3 and err / err_refined >= 1.5,
           f"L2 err {err:.2e}, refined {err_refined:.2e}, ratio {err/err_refined:.2f}",
           base_elapsed, cap=1.0)


def test_criterion_02_discrete_complementarity():
    t0 = time.perf_counter()
    grid = make_grid(63, 1e-3, 2.0)
    model = standard_model()
    h = np.maximum(0.5 * spectral_basis(63).modes[0], 0.0)
    traj = solve_path(h, "reflected", model, grid, NoisePlan(SEED, 3),
                      save_at=list(grid.times()))
    ok = (
        traj.ledger.complementarity_sum == 0.0
        and float(np.min(traj.ledger.node_mass)) >= 0.0
        and float(np.min(traj.fields)) >= 0.0
        and traj.ledger.total > 0.0
    )
    report(2, "discrete complementarity", ok,
           f"sum(u*deta) = {traj.ledger.complementarity_sum!r}, "
           f"mass {traj.ledger.total:.3f} over {traj.ledger.steps_recorded} steps",
           time.perf_counter() - t0, cap=30.0)


def test_criterion_03_eps_monotonicity():
    t0 = time.perf_counter()
    grid = make_grid(63, 1e-3, 0.5)
    model = standard_model()
    h = np.maximum(0.5 * spectral_basis(63).modes[0], 0.0)
    rep = check_eps_monotonicity(h, model, grid, 1e-2, 1e-3, n_paths=20, seed=SEED)
    report(3, "eps-monotonicity", rep.passed,
           f"violating fraction {rep.lhs:.2e} < 1e-3, worst gap {rep.inputs['worst_violation']:.2e}",
           time.perf_counter() - t0, cap=60.0)


def test_criterion_04_penalization_convergence():
    t0 = time.perf_counter()
    grid = make_grid(63, 1e-3, 0.5)
    model = standard_model()
    h = np.maximum(0.5 * spectral_basis(63).modes[0], 0.0)
    rep = check_eps_convergence(h, model, grid, [1e-2, 1e-3, 1e-4], n_paths=20, seed=SEED)
    dists = rep.inputs["sup_distances"]
    report(4, "penalization convergence",
           rep.passed and rep.inputs["reflected_min"] == 0.0,
           "sup distances " + " > ".join(f"{d:.3f}" for d in dists)
           + f", reflected min {rep.inputs['reflected_min']!r}",
           time.perf_counter() - t0, cap=120.0)


def test_criterion_05_tangent_consistency(standard_lab):
    grid, model, e1, h, _, _, _ = standard_lab
    t0 = time.perf_counter()
    delta, eps = 1e-4, 1e-3
    worst = 0.0
    for stream in range(10):
        plan = NoisePlan(SEED, stream)
        base = solve_path(h, "penalized", model, grid, plan, save_at=[0.25], eps=eps)
        bumped = solve_path(np.maximum(h + delta * e1, 0.0), "penalized", model,
                            grid, plan, save_at=[0.25], eps=eps)
        tang = solve_tangent(base, e1, model, grid)
        fd = (bumped.at(0.25) - base.at(0.25)) / delta
        v = tang.at(0.25)
        worst = max(worst, float(l2_norm(v - fd, grid.dx) / l2_norm(v, grid.dx)))
    report(5, "tangent consistency", worst < 0.01,
           f"worst relative L2 gap over 10 paths {worst:.2e} < 1e-2",
           time.perf_counter() - t0, cap=60.0)


def test_criterion_06_gradient_estimate(standard_lab):
    grid, model, e1, h, dirs, phi, _ = standard_lab
    t0 = time.perf_counter()
    rep = check_gradient_estimate(phi, h, 0.25, "reflected", model, grid,
                                  n_paths=4000, seed=SEED, directions=dirs)
    injected = check_gradient_estimate(phi, h, 0.25, "reflected", model, grid,
                                       n_paths=4000, seed=SEED, directions=dirs,
                                       m_scale=1e-6)
    report(6, "gradient estimate", rep.passed and not injected.passed,
           f"lhs {rep.lhs:.3e} <= rhs {rep.rhs:.3e} (margin {rep.margin_ratio:.2e}); "
           f"M*1e-6 injection flips to {injected.verdict}",
           time.perf_counter() - t0, cap=600.0)


def test_criterion_07_log_harnack(standard_lab):
    grid, model, e1, h, _, _, phi_pos = standard_lab
    t0 = time.perf_counter()
    h2 = np.zeros(grid.n_space)
    reports = [
        check_log_harnack(phi_pos, h, h2, t, "reflected", model, grid,
                          n_paths=4000, seed=SEED)
        for t in (0.1, 0.25)
    ]
    control = check_log_harnack(phi_pos, h, h, 0.25, "reflected", model, grid,
                                n_paths=4000, seed=SEED)
    ok = all(r.passed for r in reports) and control.passed \
        and control.inputs["additive_term"] == 0.0
    report(7, "log-Harnack", ok,
           "; ".join(f"t={t}: lhs {r.lhs:.3f} <= rhs {r.rhs:.3f}"
                     for t, r in zip((0.1, 0.25), reports))
           + f"; equal-points control {control.verdict} with additive 0",
           time.perf_counter() - t0, cap=600.0)


def test_criterion_08_variance_and_lipschitz(standard_lab):
    grid, model, e1, h, dirs, phi, _ = standard_lab
    t0 = time.perf_counter()
    var_rep = check_variance_bound(phi, h, 0.25, "reflected", model, grid,
                                   n_paths=4000, seed=SEED)
    lip_rep = check_lipschitz_Pt(phi, h, 0.25, "reflected", model, grid,
                                 n_paths=4000, seed=SEED, directions=dirs)
    center = float(grid.dx * (e1 @ h))
    step_phi = bounded_cylinder(e1, grid.dx, center=center, lo=0.0, hi=1.0, smooth=False)
    raw = estimate_grad_Pt(step_phi, h, 0.0, "reflected", model, grid, 8,
                           seed=SEED, directions=Directions(["e1"], [e1]), delta=1e-3)
    smoothed = estimate_grad_Pt(step_phi, h, 0.1, "reflected", model, grid, 1000,
                                seed=SEED, directions=Directions(["e1"], [e1]), delta=1e-3)
    smoothing_seen = np.isfinite(smoothed.value) and smoothed.value < 0.05 * raw.value
    report(8, "variance+Lipschitz bounds",
           var_rep.passed and lip_rep.passed and smoothing_seen,
           f"variance margin {var_rep.margin_ratio:.2e}, lipschitz margin "
           f"{lip_rep.margin_ratio:.2e}; step-functional proxy {raw.value:.0f} -> "
           f"{smoothed.value:.3f} at t=0.1",
           time.perf_counter() - t0, cap=600.0)


def test_criterion_09_initial_continuity(standard_lab):
    grid, model, e1, h, _, _, _ = standard_lab
    t0 = time.perf_counter()
    bump = np.sin(np.pi * grid.x)  # sup-norm exactly 1 on this mesh
    h2 = h + 0.1 * bump
    rep = check_initial_continuity(h, h2, 2.0, "reflected", model, grid,
                                   n_paths=50, seed=SEED, ladder=(1.0, 0.5, 0.25))
    sup_diffs = rep.inputs["sup_diffs"]
    report(9, "initial-data continuity",
           rep.passed and sup_diffs == pytest.approx([0.1, 0.05, 0.025]),
           f"|h1-h2|_inf ladder {sup_diffs}, normalized ratios "
           + ", ".join(f"{r:.3f}" for r in rep.inputs["ratios"])
           + f", spread {rep.lhs:.3f} < 2",
           time.perf_counter() - t0, cap=300.0)


def test_criterion_10_bounds_arithmetic():
    t0 = time.perf_counter()
    five_terms = max(3.0, 9.0 / math.sqrt(math.pi), 8.0, 144.0 / math.sqrt(math.pi),
                     864.0 / math.sqrt(math.pi))
    m_ok = constant_M(1.0, 1.0) == pytest.approx(five_terms, rel=1e-12)

    profile = BoundProfile(1.0, 1.0)
    s = np.linspace(0.0, 1.0, 10**6 + 1)
    zs = np.sqrt(s) + 2.25 * s + 1.5 * s**2 + (18.0 / (5.0 * math.sqrt(math.pi))) * s**2.5
    trap = float(np.trapezoid(np.exp(-zs), s))
    quad_ok = profile.int_exp_neg_zeta(1.0) == pytest.approx(trap, rel=1e-6)

    ts = np.linspace(0.05, 1.0, 20)
    vals = [harnack_rhs(t, 1.0, profile, 1.1) for t in ts]
    mono_ok = all(a > b for a, b in zip(vals, vals[1:]))

    report(10, "bounds arithmetic", m_ok and quad_ok and mono_ok,
           f"M(1,1) = {constant_M(1.0, 1.0):.6f} (864/sqrt(pi)), "
           f"quadrature vs 1e6-point trapezoid rel "
           f"{abs(profile.int_exp_neg_zeta(1.0)-trap)/trap:.1e}, "
           "harnack rhs strictly decreasing on 20 t-points",
           time.perf_counter() - t0, cap=1.0)


def test_criterion_11_obstacle_stability():
    t0 = time.perf_counter()
    grid = make_grid(63, 1e-3, 0.5)
    rng = np.random.default_rng(SEED)
    xs, ts = grid.x, grid.times()

    def rand_v():
        a = rng.normal(size=2)
        b = rng.normal(size=3)
        prof = np.abs(a[0]) * np.sin(np.pi * xs) + 0.3 * np.abs(a[1]) * np.sin(2 * np.pi * xs) ** 2
        out = np.empty((len(ts), len(xs)))
        for i, t in enumerate(ts):
            out[i] = prof + t * (
                b[0] * np.sin(np.pi * xs) + b[1] * np.cos(3 * t) * np.sin(2 * np.pi * xs)
            ) + b[2] * np.sin(5 * t) * xs * (1 - xs)
        out[0] = np.maximum(out[0], 0.0)
        return out

    worst_ok, worst_ratio = True, 0.0
    for _ in range(10):
        v1, v2 = rand_v(), rand_v()
        z1, _ = deterministic_obstacle(v1, grid)
        z2, _ = deterministic_obstacle(v2, grid)
        lhs = float(np.max(np.abs(z1 - z2)))
        rhs = 2.0 * float(np.max(np.abs(v1 - v2)))
        slack = 5.0 * (grid.dt + grid.dx**2) * max(1.0, rhs)
        worst_ok = worst_ok and (lhs <= rhs + slack)
        worst_ratio = max(worst_ratio, lhs / rhs)
    report(11, "obstacle stability", worst_ok,
           f"worst |z1-z2| / (2 |v1-v2|) = {worst_ratio:.3f} over 10 random pairs",
           time.perf_counter() - t0, cap=60.0)


def test_criterion_12_reproducibility(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    sim_cfg = {
        "grid": {"n_space": 31, "dt": 1e-3, "t_final": 0.05},
        "model": {"name": "sin_modulated", "params": {}},
        "run": {"mode": "reflected", "n_paths": 2, "seed": SEED,
                "save_at": [0.05], "h_modes": [0.5]},
    }
    chk_cfg = {
        "grid": {"n_space": 31, "dt": 2.5e-3, "t_final": 0.1},
        "model": {"name": "sin_modulated", "params": {}},
        "run": {"mode": "reflected", "n_paths": 600, "seed": SEED},
        "check": {
            "name": "gradient", "t": 0.1, "h_modes": [1.5],
            "functional": {"kind": "clipped_affine", "direction_modes": [1.0],
                            "offset": 0.5, "lo": 0.0, "hi": 50.0},
        },
    }
    sim_path = tmp_path / "sim.json"
    sim_path.write_text(dumps_config(sim_cfg))
    chk_path = tmp_path / "chk.json"
    chk_path.write_text(dumps_config(chk_cfg))

    blobs = {}
    for nt in ("1", "4"):
        monkeypatch.setenv("RSPDE_THREADS", nt)
        out = tmp_path / f"threads_{nt}"
        assert main(["simulate", "--config", str(sim_path), "--out", str(out)]) == 0
        assert main(["check", "gradient", "--config", str(chk_path),
                     "--out", str(out)]) == 0
        blobs[nt] = {
            "traj0": (out / "trajectory_000.csv").read_bytes(),
            "traj1": (out / "trajectory_001.csv").read_bytes(),
            "ledger": (out / "ledger_000.csv").read_bytes(),
            "report": (out / "report_gradient.json").read_bytes(),
        }
    same = all(blobs["1"][k] == blobs["4"][k] for k in blobs["1"])
    rep = json.loads(blobs["1"]["report"])
    report(12, "reproducibility across RSPDE_THREADS", same,
           f"trajectories, ledger, and check report byte-identical for 1 vs 4 "
           f"threads; check verdict {rep['verdict']}",
           time.perf_counter() - t0, cap=60.0)
