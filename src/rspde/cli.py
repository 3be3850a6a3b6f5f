"""Command-line front end: simulate, check, bounds, converge-eps.

Exit codes are a stable contract for CI: 0 on success/PASS, 2 when an
inequality check FAILs, 1 on configuration or execution errors.  Every
output file embeds the config hash and seed; reruns of the same config
produce identical numeric content regardless of RSPDE_THREADS.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

import numpy as np

from . import config as cfgmod
from .coefficients import BoundProfile, harnack_rhs
from .config import ConfigError
from .grid_noise import NoisePlan
from .semigroup import functional_from_config
from .solver import solve_path
from .verify import (
    check_eps_convergence,
    check_eps_monotonicity,
    check_gradient_estimate,
    check_initial_continuity,
    check_lipschitz_Pt,
    check_log_harnack,
    check_variance_bound,
)

__all__ = ["main", "cmd_simulate", "cmd_check", "cmd_bounds"]

CHECK_NAMES = ("gradient", "log-harnack", "variance", "lipschitz", "continuity", "comparison")


def _write_rows(fh, header, rows):
    """A header line, then one line of %.17g fields per row of floats.

    Fields are joined by "," and every line ends in "\r\n", unquoted: the
    bytes csv.writer writes, since no header name or %.17g field holds a
    comma, a quote or a line break.  Rows are written as they come, so an
    error in a lazy ``rows`` leaves the lines before it written.
    """
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    fh.write(",".join(header) + "\r\n")
    fh.writelines(line % tuple(row) for row in rows)


def _write_csv(path, columns: dict, cfg_hash, seed, stream):
    """Provenance comment line, then a header of the column names and one
    row per entry of the (equal-length) column arrays."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config_hash={cfg_hash} seed={seed} stream={stream}\n")
        _write_rows(fh, list(columns), np.column_stack(list(columns.values())).tolist())


def _write_json(path, blob):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_simulate(cfg: dict, out_dir: str, fmt: str = "csv") -> int:
    grid = cfgmod.build_grid(cfg)
    model = cfgmod.build_model(cfg)
    run = cfg["run"]
    mode = run["mode"]
    eps = run.get("eps")
    seed = run["seed"]
    save_at = run.get("save_at", [grid.t_final])
    h, clip_dist = cfgmod.initial_field(grid, run.get("h_modes", cfg.get("check", {}).get("h_modes")))
    os.makedirs(out_dir, exist_ok=True)
    cfg_hash = cfgmod.config_hash(cfg)
    manifest = {
        "config_hash": cfg_hash,
        "seed": seed,
        "mode": mode,
        "eps": eps,
        "model": model.name,
        "grid": {"n_space": grid.n_space, "dt": grid.dt, "n_steps": grid.n_steps},
        "n_paths": run["n_paths"],
        "h_clip_distance": clip_dist,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "files": [],
    }
    for stream in range(run["n_paths"]):
        traj = solve_path(h, mode, model, grid, NoisePlan(seed, stream), save_at=save_at, eps=eps)
        base = f"trajectory_{stream:03d}"
        if fmt in ("csv", "both"):
            columns = {"t": np.repeat(traj.times, grid.n_space),
                       "x": np.tile(grid.x, len(traj.times)), "u": traj.fields.ravel()}
            _write_csv(os.path.join(out_dir, base + ".csv"), columns, cfg_hash, seed, stream)
            manifest["files"].append(base + ".csv")
        if fmt in ("npz", "both"):
            np.savez(os.path.join(out_dir, base + ".npz"), t=traj.times, x=grid.x,
                     u=traj.fields, config_hash=np.array(cfg_hash), seed=np.array(seed),
                     stream=np.array(stream))
            manifest["files"].append(base + ".npz")
        if mode == "reflected" and stream == 0:
            _write_csv(os.path.join(out_dir, "ledger_000.csv"),
                       {"x": grid.x, "mass": traj.ledger.node_mass}, cfg_hash, seed, stream)
            manifest["files"].append("ledger_000.csv")
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return 0


_BOUND_CHECKS = {"gradient": check_gradient_estimate, "variance": check_variance_bound,
                 "lipschitz": check_lipschitz_Pt, "log-harnack": check_log_harnack}


def _run_named_check(name: str, cfg: dict, m_scale: float):
    grid = cfgmod.build_grid(cfg)
    model = cfgmod.build_model(cfg)
    run = cfg["run"]
    chk = cfg.get("check", {})
    mode, eps, seed, n_paths = run["mode"], run.get("eps"), run["seed"], run["n_paths"]
    t = float(chk.get("t", grid.t_final))

    if name == "converge_eps":
        ladder = run.get("eps_ladder", chk.get("eps_ladder", [1e-2, 1e-3, 1e-4]))
        h, _ = cfgmod.initial_field(grid, chk.get("h_modes", run.get("h_modes")))
        return check_eps_convergence(h, model, grid, ladder, n_paths, seed)
    if name == "comparison":
        h, _ = cfgmod.initial_field(grid, chk.get("h_modes"))
        return check_eps_monotonicity(
            h, model, grid,
            eps_big=float(chk.get("eps_big", 1e-2)),
            eps_small=float(chk.get("eps_small", 1e-3)),
            n_paths=n_paths, seed=seed,
        )
    if name == "continuity":
        h1, _ = cfgmod.initial_field(grid, chk.get("h1_modes"))
        h2, _ = cfgmod.initial_field(grid, chk.get("h2_modes"))
        return check_initial_continuity(
            h1, h2, float(chk.get("p", 2.0)), mode, model, grid,
            n_paths=n_paths, seed=seed, eps=eps,
            ladder=tuple(chk.get("ladder", (1.0, 0.5, 0.25))),
        )
    if name not in _BOUND_CHECKS:
        raise ConfigError(f"unknown check {name!r}")
    if "functional" not in chk:
        raise ConfigError(f"check.functional: missing required field for the {name} check")
    phi = functional_from_config(grid, chk["functional"])
    if name == "log-harnack":
        fields = [cfgmod.initial_field(grid, chk.get(key))[0] for key in ("h1_modes", "h2_modes")]
    else:
        fields = [cfgmod.initial_field(grid, chk.get("h_modes"))[0]]
    return _BOUND_CHECKS[name](phi, *fields, t, mode, model, grid, n_paths, seed,
                               eps=eps, m_scale=m_scale)


def cmd_check(name: str, cfg: dict, out_dir: str | None, m_scale: float, cfg_hash: str) -> int:
    """Run a named check (or ``converge_eps``), print it, write report_NAME.json.

    The report is stamped with cfg_hash: ``main`` passes the hash of the
    config file as written, not of cfg with the overrides written in.
    """
    report = _run_named_check(name, cfg, m_scale)
    report.config_hash = cfg_hash
    print(report)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _write_json(os.path.join(out_dir, f"report_{name}.json"), report.to_json())
    return 0 if report.passed else 2


def cmd_bounds(L_b: float, L_sigma: float, kappa1: float, t_list, out=None) -> int:
    profile = BoundProfile(L_b, L_sigma)
    _write_rows(out if out is not None else sys.stdout,
                ["t", "M", "zeta", "int_exp_neg_zeta", "harnack_rhs_unit_dist2"],
                ((t, profile.M, profile.zeta(t), profile.int_exp_neg_zeta(t),
                  harnack_rhs(t, 1.0, profile, kappa1)) for t in t_list))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rspde",
        description="Reflected stochastic heat equation laboratory: simulation and inequality checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_args = argparse.ArgumentParser(add_help=False)
    run_args.add_argument("--config", required=True)
    run_args.add_argument("--seed", type=int, default=None)
    run_args.add_argument("--paths", type=int, default=None)

    p_sim = sub.add_parser("simulate", parents=[run_args],
                           help="integrate trajectories and write CSV/npz + manifest")
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--format", choices=("csv", "npz", "both"), default="csv")

    p_chk = sub.add_parser("check", parents=[run_args], help="run a named inequality/property check")
    p_chk.add_argument("name", choices=CHECK_NAMES)
    p_chk.add_argument("--out", default=None)
    p_chk.add_argument("--debug-scale-m", type=float, default=1.0,
                       help="rescale the smoothing constant M (fail-injection debugging)")

    p_bnd = sub.add_parser("bounds", help="print M, zeta, and Harnack bound columns as CSV")
    p_bnd.add_argument("--L-b", type=float, required=True, dest="L_b")
    p_bnd.add_argument("--L-sigma", type=float, required=True, dest="L_sigma")
    p_bnd.add_argument("--kappa1", type=float, required=True)
    p_bnd.add_argument("--t", type=float, nargs="+", required=True)

    p_cnv = sub.add_parser("converge-eps", parents=[run_args],
                           help="penalized-to-reflected convergence ladder")
    p_cnv.add_argument("--out", default=None)
    p_cnv.set_defaults(name="converge_eps", debug_scale_m=1.0)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "bounds":
            return cmd_bounds(args.L_b, args.L_sigma, args.kappa1, args.t)
        file_cfg = cfgmod.load_config(args.config)
        overrides = {k: v for k, v in (("seed", args.seed), ("n_paths", args.paths)) if v is not None}
        cfg = {**file_cfg, "run": {**file_cfg["run"], **overrides}}
        cfgmod.validate_config(cfg)
        if args.command == "simulate":  # hashes the config with its overrides written in
            return cmd_simulate(cfg, args.out, args.format)
        return cmd_check(args.name, cfg, args.out, args.debug_scale_m, cfgmod.config_hash(file_cfg))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # execution errors are exit 1, not 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
