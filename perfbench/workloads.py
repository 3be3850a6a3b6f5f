"""The benchmark's four lab workloads, built only from rspde's public API and CLI.

A workload is set up once (config parsing, grid and model build, first-call
caches) and then issues *rounds* of operations.  An operation is one check
verdict or one ``simulate`` command; a round holds one of each operation the
workload defines, so every run sees the same mix.  Round ``r`` of workload
seed ``s`` draws its noise from master seed ``s * 1000 + r``.

Every operation is checked after it returns, outside its timed region:
the verdict must be the expected one, the ledger invariants must hold where
a ledger is exposed, and a sha256 digest of its outputs is taken so that
it can be compared with the committed golden digests (default seed, round
0) or between two commits at any seed.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
from typing import Callable

import numpy as np

from rspde import cli, config, grid_noise, heat, semigroup, solver, verify

DEFAULT_SEED = 20170607

# The standard lab: n_space=63, dt=2.5e-3, sin_modulated, reflected, h = 1.5 e1+.
LAB_GRID = {"n_space": 63, "dt": 2.5e-3, "t_final": 0.25}
LAB_MODEL = {"name": "sin_modulated", "params": {}}
H_MODES = [1.5]
EXP_NEG_PAIR = {"kind": "exp_neg_pair", "direction_modes": [1.0], "lo": 0.1, "hi": 1.0}
CLIPPED_AFFINE = {"kind": "clipped_affine", "direction_modes": [1.0],
                  "offset": 0.5, "lo": 0.0, "hi": 50.0}


class OutputMismatch(AssertionError):
    """An operation returned a wrong verdict, broke an invariant or a digest."""


@dataclasses.dataclass
class Op:
    """One operation: ``run`` is the timed program call, ``check`` inspects
    its outcome and returns (digest, combined 1-SE of its gate or None)."""

    name: str
    n_paths: int
    run: Callable[[], object]
    check: Callable[[object], tuple[str, float | None]]


def op_seed(seed: int, round_index: int) -> int:
    return seed * 1000 + round_index


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digest(report) -> str:
    return sha256_hex(json.dumps(report.to_json(), sort_keys=True).encode("utf-8"))


def combined_se(std_errors: dict) -> float:
    return math.sqrt(sum(v * v for v in std_errors.values()))


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise OutputMismatch(what)


def _check_report(report):
    _expect(report.passed, f"{report.check}: verdict {report.verdict}, expected PASS")
    _expect(math.isfinite(report.lhs) and math.isfinite(report.rhs),
            f"{report.check}: non-finite lhs/rhs")
    return report_digest(report), combined_se(report.std_errors)


def _warm_caches(grid) -> None:
    heat.spectral_basis(grid.n_space)
    heat.implicit_step(np.zeros(grid.n_space), grid.dx, grid.dt)


class Workload:
    name = ""

    def __init__(self, work_dir: str, n_paths: int):
        self.work_dir = work_dir
        self.n_paths = n_paths

    def ops(self, seed: int, round_index: int) -> list[Op]:
        raise NotImplementedError


class _CheckLab(Workload):
    """Bound checks called through rspde.verify on the standard lab."""

    def __init__(self, work_dir, n_paths):
        super().__init__(work_dir, n_paths)
        cfg = config.parse_config(json.dumps({
            "grid": LAB_GRID, "model": LAB_MODEL,
            "run": {"mode": "reflected", "n_paths": n_paths, "seed": DEFAULT_SEED},
        }))
        self.grid = config.build_grid(cfg)
        self.model = config.build_model(cfg)
        self.h, _ = config.initial_field(self.grid, H_MODES)
        self.zero, _ = config.initial_field(self.grid, [])
        self.phi = semigroup.functional_from_config(self.grid, CLIPPED_AFFINE)
        self.phi_pos = semigroup.functional_from_config(self.grid, EXP_NEG_PAIR)
        _warm_caches(self.grid)


class HarnackV1(_CheckLab):
    """Log-Harnack at t=0.1 and t=0.25 (h2 = 0) plus one variance check;
    each check is two V=1 ensemble passes over the same streams."""

    name = "harnack_v1"

    def ops(self, seed, round_index):
        s = op_seed(seed, round_index)
        args = ("reflected", self.model, self.grid, self.n_paths, s)
        return [
            Op("log_harnack_t0.1", self.n_paths,
               lambda: verify.check_log_harnack(self.phi_pos, self.h, self.zero, 0.1, *args),
               _check_report),
            Op("log_harnack_t0.25", self.n_paths,
               lambda: verify.check_log_harnack(self.phi_pos, self.h, self.zero, 0.25, *args),
               _check_report),
            Op("variance_t0.25", self.n_paths,
               lambda: verify.check_variance_bound(self.phi, self.h, 0.25, *args),
               _check_report),
        ]


class GradientV16(_CheckLab):
    """Gradient and Lipschitz checks over the 8-mode direction dictionary:
    16 +/- variants integrate in lockstep per stream."""

    name = "gradient_v16"

    def __init__(self, work_dir, n_paths):
        super().__init__(work_dir, n_paths)
        self.directions = semigroup.direction_dictionary(self.grid, 8, include_parts=False)

    def ops(self, seed, round_index):
        s = op_seed(seed, round_index)
        args = ("reflected", self.model, self.grid, self.n_paths, s)
        return [
            Op("gradient_t0.25", self.n_paths,
               lambda: verify.check_gradient_estimate(self.phi, self.h, 0.25, *args,
                                                      directions=self.directions),
               _check_report),
            Op("lipschitz_t0.25", self.n_paths,
               lambda: verify.check_lipschitz_Pt(self.phi, self.h, 0.25, *args,
                                                 directions=self.directions),
               _check_report),
        ]


class _CliLab(Workload):
    """Operations issued through rspde.cli.main with a config file."""

    cfg: dict = {}

    def __init__(self, work_dir, n_paths):
        super().__init__(work_dir, n_paths)
        self.out_dir = os.path.join(work_dir, "out")
        self.config_path = os.path.join(work_dir, f"{self.name}.json")
        cfg = json.loads(json.dumps(self.cfg))
        cfg["run"]["n_paths"] = n_paths
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(config.dumps_config(cfg))
        self.config = config.load_config(self.config_path)
        self.grid = config.build_grid(self.config)
        self.model = config.build_model(self.config)
        _warm_caches(self.grid)

    def cli(self, *argv):
        """rspde.cli.main with this lab's config; its report line is captured."""
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([*argv, "--config", self.config_path, "--out", self.out_dir])

    def read(self, name: str) -> bytes:
        with open(os.path.join(self.out_dir, name), "rb") as fh:
            return fh.read()


class PenalizedLadder(_CliLab):
    """converge-eps (eps 1e-2/1e-3/1e-4 against the reflected run) and the
    comparison eps-ordering check, both with the arctan_square penalty."""

    name = "penalized_ladder"
    cfg = {
        "grid": {"n_space": 63, "dt": 1e-3, "t_final": 0.5},
        "model": {"name": "sin_modulated", "params": {"penalty": "arctan_square"}},
        "run": {"mode": "reflected", "n_paths": 0, "seed": DEFAULT_SEED,
                "eps_ladder": [1e-2, 1e-3, 1e-4]},
        "check": {"name": "comparison", "h_modes": H_MODES,
                  "eps_big": 1e-2, "eps_small": 1e-3},
    }

    def ops(self, seed, round_index):
        s = str(op_seed(seed, round_index))
        return [
            Op("converge_eps", self.n_paths,
               lambda: self.cli("converge-eps", "--seed", s), self._check_convergence),
            Op("comparison", self.n_paths,
               lambda: self.cli("check", "comparison", "--seed", s), self._check_comparison),
        ]

    def _report(self, exit_code, name):
        _expect(exit_code == 0, f"{name}: exit code {exit_code}, expected 0 (PASS)")
        blob = self.read(f"report_{name}.json")
        report = json.loads(blob)
        _expect(report["verdict"] == "PASS", f"{name}: verdict {report['verdict']}")
        return blob, report

    def _check_convergence(self, exit_code):
        blob, report = self._report(exit_code, "converge_eps")
        inputs = report["inputs"]
        _expect(inputs["complementarity_sum"] == 0.0,
                f"converge_eps: complementarity_sum {inputs['complementarity_sum']!r}")
        _expect(inputs["reflected_min"] >= 0.0, "converge_eps: reflected run went negative")
        _expect(inputs["ledger_total"] >= 0.0, "converge_eps: negative ledger mass")
        return sha256_hex(blob), combined_se(report["std_errors"])

    def _check_comparison(self, exit_code):
        blob, _ = self._report(exit_code, "comparison")
        return sha256_hex(blob), None


class SimulatePaths(_CliLab):
    """`rspde simulate`: reflected, five saves, CSV trajectories plus the
    stream-0 ledger, one stream at a time through solve_path."""

    name = "simulate_paths"
    SAVE_AT = [0.05, 0.1, 0.15, 0.2, 0.25]
    cfg = {
        "grid": LAB_GRID, "model": LAB_MODEL,
        "run": {"mode": "reflected", "n_paths": 0, "seed": DEFAULT_SEED,
                "save_at": SAVE_AT, "h_modes": H_MODES},
    }

    def __init__(self, work_dir, n_paths):
        super().__init__(work_dir, n_paths)
        self.h, _ = config.initial_field(self.grid, H_MODES)

    def ops(self, seed, round_index):
        s = op_seed(seed, round_index)
        return [Op("simulate", self.n_paths,
                   lambda: self.cli("simulate", "--seed", str(s)),
                   lambda exit_code: self._check_simulate(exit_code, s))]

    def output_files(self) -> list[str]:
        return [f"trajectory_{k:03d}.csv" for k in range(self.n_paths)] + ["ledger_000.csv"]

    def _check_simulate(self, exit_code, seed):
        _expect(exit_code == 0, f"simulate: exit code {exit_code}")
        blobs = {name: self.read(name) for name in self.output_files()}
        # Replay stream 0 through the public integrator to see its ledger.
        traj = solver.solve_path(self.h, "reflected", self.model, self.grid,
                                 grid_noise.NoisePlan(seed, 0), save_at=self.SAVE_AT)
        ledger = traj.ledger
        _expect(ledger.complementarity_sum == 0.0,
                f"simulate: complementarity_sum {ledger.complementarity_sum!r}")
        _expect(bool(np.all(ledger.node_mass >= 0.0)), "simulate: negative ledger mass")
        masses = np.array([float(row[1]) for row in _csv_rows(blobs["ledger_000.csv"])])
        _expect(np.array_equal(masses, ledger.node_mass), "simulate: ledger CSV != replayed ledger")
        finals = np.array([_final_snapshot(blobs[f"trajectory_{k:03d}.csv"])
                           for k in range(self.n_paths)])
        _expect(np.array_equal(finals[0], traj.fields[-1]),
                "simulate: trajectory CSV != replayed path")
        _expect(bool(np.all(finals >= 0.0)), "simulate: reflected field went negative")
        digest = sha256_hex("".join(f"{name} {sha256_hex(blob)}\n"
                                    for name, blob in sorted(blobs.items())).encode())
        # squared L2 norm of the standard-error field of the ensemble mean at t_final
        se2 = self.grid.dx * float(np.sum(np.var(finals, axis=0, ddof=1))) / self.n_paths
        return digest, math.sqrt(se2)


def _csv_rows(blob: bytes):
    lines = [ln for ln in blob.decode("utf-8").splitlines() if not ln.startswith("#")]
    return list(csv.reader(lines))[1:]


def _final_snapshot(blob: bytes) -> np.ndarray:
    rows = _csv_rows(blob)
    t_last = rows[-1][0]
    return np.array([float(u) for t, _, u in rows if t == t_last])


CLASSES = {cls.name: cls for cls in (HarnackV1, GradientV16, PenalizedLadder, SimulatePaths)}

# Paths per operation, sized so that a 25 s run holds several whole rounds.
N_PATHS = {"harnack_v1": 512, "gradient_v16": 512, "penalized_ladder": 20, "simulate_paths": 8}


def build(name: str, work_dir: str, n_paths: int | None = None) -> Workload:
    if name not in CLASSES:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(CLASSES)}")
    return CLASSES[name](work_dir, N_PATHS[name] if n_paths is None else n_paths)
