"""Monte Carlo estimation of the transition semigroup and its functionals.

Estimators drive ensembles of trajectories, one noise stream per path.
Several field variants (for example h + delta*k and h - delta*k for a
finite-difference gradient) integrate in lockstep sharing the per-(stream,
step) noise block, which is what makes the difference estimators
common-random-number coupled.

Streams are partitioned into fixed-size chunks (independent of the worker
count), chunks may run on a thread pool sized by RSPDE_THREADS, and per-path
values are reassembled in stream order before any reduction, so results are
bitwise independent of the degree of parallelism.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientModel
from .grid_noise import NoisePlan, SpaceTimeGrid, increments_matrix, l2_norm, sine_profile
from .heat import spectral_basis
from .solver import _check_run, _lockstep, _project, penalty_resolvent

__all__ = [
    "Functional",
    "FunctionalContractError",
    "MCEstimate",
    "GradientEstimate",
    "clipped_affine",
    "exp_neg_pair",
    "bounded_cylinder",
    "functional_from_config",
    "direction_dictionary",
    "run_ensemble",
    "estimate_Pt",
    "estimate_Pt_log",
    "estimate_Pt_grad_sq",
    "estimate_variance",
    "estimate_grad_Pt",
]

_STREAM_CHUNK = 256  # fixed partition width; never derived from the worker count


class FunctionalContractError(RuntimeError):
    """A sampled functional value violated its declared bounds."""


def _stable_logistic(x):
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so no exp overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


@dataclass(frozen=True)
class Functional:
    """Cylinder functional h -> psi(<h, phi>) from a small catalogue.

    kinds: ``clipped_affine`` (clip(offset + s, lo, hi)), ``exp_neg_pair``
    (lo + (hi-lo) exp(-s^2)), ``bounded_cylinder`` (logistic ramp in s, or a
    hard step when smooth=False).  All are bounded into [lo, hi].  ``_psi``
    holds each kind's psi and signed psi'; value and grad_norm derive from it.
    """

    kind: str
    phi: np.ndarray
    dx: float
    offset: float = 0.0
    lo: float = 0.0
    hi: float = 1.0
    center: float = 0.0
    sharpness: float = 1.0
    smooth: bool = True

    def __post_init__(self):
        if self.kind not in _FUNCTIONAL_BUILDERS:
            raise ValueError(f"unknown functional kind {self.kind!r}")
        if not self.lo <= self.hi:  # also rejects a NaN bound
            raise ValueError(f"need lo <= hi, got lo={self.lo}, hi={self.hi}")
        for name in ("phi", "dx", "offset", "lo", "hi", "center", "sharpness"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")

    @property
    def phi_l2(self) -> float:
        return float(l2_norm(self.phi, self.dx))

    @property
    def is_c1(self) -> bool:
        return self.smooth or self.kind != "bounded_cylinder"

    @property
    def strictly_positive(self) -> bool:
        return self.lo > 0.0

    def pair(self, U: np.ndarray):
        """<U, phi> = dx * sum_i phi_i U_i over the node axis (axis 0)."""
        return self.dx * np.tensordot(self.phi, U, axes=([0], [0]))

    def _psi(self, s):
        """(psi(s), signed psi'(s)) at the pairings s; the hard step's psi' is 0/inf."""
        s = np.asarray(s, dtype=float)
        span = self.hi - self.lo
        if self.kind == "clipped_affine":
            a = self.offset + s
            return np.clip(a, self.lo, self.hi), np.where((a > self.lo) & (a < self.hi), 1.0, 0.0)
        if self.kind == "exp_neg_pair":
            e = np.exp(-np.square(s))
            return self.lo + span * e, -span * 2.0 * s * e
        if self.smooth:  # bounded_cylinder
            p = _stable_logistic(self.sharpness * (s - self.center))
            return self.lo + span * p, span * self.sharpness * p * (1.0 - p)
        return self.lo + span * (s >= self.center), np.where(s == self.center, np.inf, 0.0)

    def value(self, U: np.ndarray):
        return self._psi(self.pair(U))[0]

    def grad_norm(self, U: np.ndarray):
        """Local Lipschitz constant |grad Phi| = |psi'(s)| |phi|; the hard step's 0/inf unscaled."""
        slope = np.abs(self._psi(self.pair(U))[1])
        return slope * self.phi_l2 if self.is_c1 else slope

    def grad_sq(self, U: np.ndarray):
        return np.square(self.grad_norm(U))


def clipped_affine(phi, dx, offset=0.0, lo=0.0, hi=1.0) -> Functional:
    return Functional("clipped_affine", np.asarray(phi, float), dx, offset=offset, lo=lo, hi=hi)


def exp_neg_pair(phi, dx, lo=0.1, hi=1.0) -> Functional:
    if not 0.0 <= lo < hi:
        raise ValueError("need 0 <= lo < hi")
    return Functional("exp_neg_pair", np.asarray(phi, float), dx, lo=lo, hi=hi)


def bounded_cylinder(phi, dx, center=0.0, lo=0.0, hi=1.0, sharpness=1.0, smooth=True) -> Functional:
    return Functional(
        "bounded_cylinder", np.asarray(phi, float), dx,
        center=center, lo=lo, hi=hi, sharpness=sharpness, smooth=smooth,
    )


_FUNCTIONAL_BUILDERS = {
    "clipped_affine": clipped_affine,
    "exp_neg_pair": exp_neg_pair,
    "bounded_cylinder": bounded_cylinder,
}


def functional_from_config(grid: SpaceTimeGrid, spec: dict) -> Functional:
    """Build a catalogue functional from a config block.

    The direction is given as sine-mode coefficients under ``direction_modes``;
    remaining keys are the kind's numeric parameters.
    """
    spec = dict(spec)
    kind = spec.pop("kind")
    if kind not in _FUNCTIONAL_BUILDERS:
        raise ValueError(f"unknown functional kind {kind!r}; choose from {sorted(_FUNCTIONAL_BUILDERS)}")
    modes = spec.pop("direction_modes")
    phi = sine_profile(grid, modes)
    return _FUNCTIONAL_BUILDERS[kind](phi, grid.dx, **spec)


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float


@dataclass
class GradientEstimate:
    """Finite-difference proxy for |grad P_t Phi|(h): max over a direction
    dictionary of coupled central differences.  A finite dictionary can only
    under-estimate the true local Lipschitz constant, so this is a lower
    bound proxy."""

    value: float
    std_error: float
    best_direction: str
    per_direction: dict  # label -> (mean, std_error)
    rejected: dict       # label -> projection distance
    delta: float


# ---------------------------------------------------------------------------
# lockstep ensemble engine
# ---------------------------------------------------------------------------

def _n_threads() -> int:
    env = os.environ.get("RSPDE_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"RSPDE_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def _track_sup(sup, U, pairs) -> None:
    """Raise sup[p] to max over nodes of |U[:, i, :] - U[:, j, :]| for each pair p = (i, j)."""
    for p, (i, j) in enumerate(pairs):
        np.maximum(sup[p], np.max(np.abs(U[:, i, :] - U[:, j, :]), axis=0), out=sup[p])


def _chunk_ranges(n_paths: int):
    return [(lo, min(lo + _STREAM_CHUNK, n_paths)) for lo in range(0, n_paths, _STREAM_CHUNK)]


def _check_streams(n_paths: int, stream_offset: int = 0) -> None:
    """At least one stream, with ids stream_offset + [0, n_paths) in [0, 2**64)."""
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths!r}")
    if not 0 <= stream_offset <= 2**64 - n_paths:
        raise ValueError(f"stream ids stream_offset + [0, n_paths) must lie in [0, 2**64), "
                         f"got stream_offset={stream_offset!r}, n_paths={n_paths!r}")


def run_ensemble(h_variants, n_run_steps, mode, model: CoefficientModel,
                 grid: SpaceTimeGrid, seed: int, n_paths: int, eps: float | None = None,
                 stream_offset: int = 0, track_sup_pairs=None, per_path=None):
    """Integrate V field variants over n_paths streams in lockstep.

    With ``per_path=None`` returns the final fields, shape (V, n_space, n_paths).
    ``per_path`` is a sequence of R functions, each mapping one variant's final
    chunk field (n_space, width) to its per-path values (width,); each chunk
    applies them per variant as it finishes, and the pass returns the values in
    stream order, shape (V, R, n_paths), so no field array outlives its chunk.
    When ``track_sup_pairs`` lists variant index pairs, also returns the running
    sup over time and space of |U_i - U_j| per path, shape (n_pairs, n_paths)
    (the supremum includes t = 0).

    All variants of a stream share the same noise blocks, so cross-variant
    differences are common-random-number coupled.  Each path's trajectory
    is bitwise identical to a single solve_path run with the same stream id,
    except under the ``arctan_square`` penalty (see the ``solver`` module).
    """
    H = _check_run(np.atleast_2d(h_variants), mode, eps, grid, stack=True)
    V, n = H.shape
    if not 0 <= n_run_steps <= grid.n_steps:
        raise ValueError(f"n_run_steps must lie in [0, grid.n_steps = {grid.n_steps}], "
                         f"got {n_run_steps!r}")
    _check_streams(n_paths, stream_offset)
    pairs = list(track_sup_pairs or [])

    plan = NoisePlan(seed)
    q = grid.dt / eps if mode == "penalized" else 0.0
    stage = ((lambda v: penalty_resolvent(v, q, model.penalty_kind, out=v)) if mode == "penalized"
             else (lambda v: _project(v, grid)))

    reductions = None if per_path is None else list(per_path)
    out = np.empty((V, n if reductions is None else len(reductions), n_paths))
    sup_out = np.zeros((len(pairs), n_paths))

    def do_chunk(lo: int, hi: int):
        streams = np.arange(lo, hi, dtype=np.uint64) + np.uint64(stream_offset)
        U = [np.broadcast_to(H.T[:, :, None], (n, V, hi - lo)).copy()]
        sup = sup_out[:, lo:hi]
        _track_sup(sup, U[0], pairs)
        for _ in _lockstep(U, [stage], lambda m: increments_matrix(plan, grid, m, streams)[:, None, :],
                           n_run_steps, model, grid, streams):
            _track_sup(sup, U[0], pairs)
        if reductions is None:
            out[:, :, lo:hi] = U[0].transpose(1, 0, 2)
            return
        for v in range(V):  # per variant: BLAS rounds a product's columns by its width
            for r, f in enumerate(reductions):
                out[v, r, lo:hi] = f(U[0][:, v, :])

    ranges = _chunk_ranges(n_paths)
    workers = min(_n_threads(), len(ranges))
    if workers <= 1:
        for lo, hi in ranges:
            do_chunk(lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda r: do_chunk(*r), ranges))
    if pairs:
        return out, sup_out
    return out


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def _check_n_paths(n_paths: int) -> None:
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2 for a standard error, got {n_paths}")


def _check_positive(name: str, *values) -> None:
    """ValueError naming ``name`` unless each of its values is finite and > 0."""
    for v in values:
        if not 0 < v < math.inf:
            raise ValueError(f"{name} must be > 0 and finite, got {v!r}")


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(len(values)))


def _variance_se(values: np.ndarray) -> tuple[float, float]:
    """Unbiased sample variance and its asymptotic std error."""
    n = len(values)
    var = float(np.var(values, ddof=1))
    centered = values - np.mean(values)
    m4 = float(np.mean(centered ** 4))
    return var, math.sqrt(max(m4 - var * var * (n - 3) / (n - 1), 0.0) / n)


def _check_estimator(phi: Functional, h, mode, eps, grid: SpaceTimeGrid, n_paths: int) -> np.ndarray:
    """The rules every estimator checks before its pass; returns h as floats."""
    _check_n_paths(n_paths)
    if len(phi.phi) != grid.n_space:
        raise ValueError(f"phi has {len(phi.phi)} nodes, the grid has {grid.n_space}")
    return _check_run(h, mode, eps, grid)


def _estimate(phi, per_path, reduce, h, t, mode, model, grid, n_paths, seed, eps,
              at_t0=None) -> MCEstimate:
    """Shared body of the scalar estimators.

    Runs one V=1 pass of streams 0..n_paths-1 from h to time t, in which each
    chunk maps its final fields to per-path values with ``per_path``, and
    reduces the values to the estimate's (mean, std_error) with ``reduce``.
    At t = 0 every path sits at h: the mean is ``at_t0(h)`` (default
    per_path(h)) and the std error 0.  The run rules hold at every t.
    """
    h = _check_estimator(phi, h, mode, eps, grid, n_paths)
    n_steps = grid.step_of(t)
    if n_steps == 0:
        return MCEstimate(float((at_t0 or per_path)(h)), 0.0)
    values = run_ensemble(h[None, :], n_steps, mode, model, grid, seed, n_paths, eps=eps,
                          per_path=[per_path])
    return MCEstimate(*reduce(values[0, 0]))


def estimate_Pt(phi: Functional, h, t, mode, model, grid, n_paths, seed, eps=None) -> MCEstimate:
    """Ensemble mean of Phi(u(t; h)) over streams 0..n_paths-1."""
    return _estimate(phi, phi.value, _mean_se, h, t, mode, model, grid, n_paths, seed, eps)


def estimate_Pt_log(phi: Functional, h, t, mode, model, grid, n_paths, seed, eps=None) -> MCEstimate:
    """Ensemble mean of log Phi(u(t; h)); Phi must be strictly positive."""
    if not phi.strictly_positive:
        raise ValueError("estimate_Pt_log needs a strictly positive functional (lo > 0)")

    def checked_log(values):
        if np.min(values) < phi.lo * (1.0 - 1e-12):
            raise FunctionalContractError(
                f"sampled value {np.min(values)} below declared lower bound {phi.lo}"
            )
        return np.log(values)

    return _estimate(phi, phi.value, lambda values: _mean_se(checked_log(values)), h, t, mode,
                     model, grid, n_paths, seed, eps, at_t0=lambda h: checked_log(phi.value(h)))


def estimate_Pt_grad_sq(phi: Functional, h, t, mode, model, grid, n_paths, seed, eps=None) -> MCEstimate:
    """Ensemble mean of |grad Phi|^2(u(t; h)) (right-hand sides of the bounds)."""
    return _estimate(phi, phi.grad_sq, _mean_se, h, t, mode, model, grid, n_paths, seed, eps)


def estimate_variance(phi: Functional, h, t, mode, model, grid, n_paths, seed, eps=None) -> MCEstimate:
    """Unbiased sample variance of Phi(u(t; h)) with its asymptotic std error."""
    return _estimate(phi, phi.value, _variance_se, h, t, mode, model, grid, n_paths, seed, eps,
                     at_t0=lambda h: 0.0)


def direction_dictionary(grid: SpaceTimeGrid, n_modes: int = 8, include_parts: bool = True) -> dict:
    """Unit-norm probe directions: low sine modes and their +/- parts.

    Returns {label: field} in mode order, every field of unit discrete L2
    norm; zero or duplicate parts (such as the negative part of the first
    mode) are dropped.
    """
    basis = spectral_basis(grid.n_space, min(n_modes, grid.n_space))
    directions: dict[str, np.ndarray] = {}

    def push(label, vec):
        norm = float(l2_norm(vec, grid.dx))
        if norm < 1e-12:
            return
        unit = vec / norm
        if all(np.max(np.abs(existing - unit)) >= 1e-12 for existing in directions.values()):
            directions[label] = unit

    for i in range(min(n_modes, grid.n_space)):
        e = basis.modes[i]
        push(f"e{i+1}", e)
        if include_parts:
            push(f"e{i+1}+", np.maximum(e, 0.0))
            push(f"e{i+1}-", np.maximum(-e, 0.0))
    return directions


def estimate_grad_Pt(phi: Functional, h, t, mode, model, grid, n_paths, seed,
                     eps=None, directions=None, delta=None) -> GradientEstimate:
    """Coupled central-difference proxy for |grad P_t Phi|(h).

    For each unit direction k the +/- variants h +/- delta*k are projected
    onto the nonnegative cone (directions whose projection moves the field
    by more than delta/10 in L2 are rejected) and integrated in lockstep
    with shared noise; the proxy is the max over directions of
    |P_t Phi(h+) - P_t Phi(h-)| / (2 delta).

    ``directions`` is a dict {label: unit field}, read in insertion order;
    None means direction_dictionary(grid).
    """
    h = _check_estimator(phi, h, mode, eps, grid, n_paths)
    if directions is None:
        directions = direction_dictionary(grid)
    elif not isinstance(directions, dict):
        raise TypeError(f"directions must be a dict {{label: field}} or None, "
                        f"got {type(directions).__name__}")
    if not directions:
        raise ValueError("directions is empty: give at least one probe direction")
    for label, k in directions.items():
        if np.shape(k) != h.shape:
            raise ValueError(f"direction {label!r} has shape {np.shape(k)}, expected {h.shape}")
    if delta is None:
        delta = 1e-3 * max(float(l2_norm(h, grid.dx)), 1.0)
    _check_positive("delta", delta)

    variants = {}  # label -> (h+, h-)
    rejected = {}
    for label, k in directions.items():
        hp = np.maximum(h + delta * k, 0.0)
        hm = np.maximum(h - delta * k, 0.0)
        d_proj = max(
            float(l2_norm(hp - (h + delta * k), grid.dx)),
            float(l2_norm(hm - (h - delta * k), grid.dx)),
        )
        if d_proj > delta / 10.0:
            rejected[label] = d_proj
        else:
            variants[label] = (hp, hm)
    if not variants:
        raise ValueError("all probe directions were rejected at the cone boundary")

    n_steps = grid.step_of(t)
    if n_steps == 0:
        per_direction = {label: (float((phi.value(hp) - phi.value(hm)) / (2.0 * delta)), 0.0)
                         for label, (hp, hm) in variants.items()}
    else:
        stacked = np.stack([f for pair in variants.values() for f in pair])
        values = run_ensemble(stacked, n_steps, mode, model, grid, seed, n_paths, eps=eps,
                              per_path=[phi.value])[:, 0]
        per_direction = {label: _mean_se((values[2 * i] - values[2 * i + 1]) / (2.0 * delta))
                         for i, label in enumerate(variants)}

    label = max(per_direction, key=lambda d: abs(per_direction[d][0]))  # first of any ties
    value, std_error = per_direction[label]
    return GradientEstimate(abs(value), std_error, label, per_direction, rejected, delta)
