"""Time integrators: penalized, reflected (with reflection ledger), tangent.

Every run steps through ``_lockstep``: per step one shared noise block, then
for each field drift + noise and the implicit half-Laplacian solve
(``_drift_noise_solve``), a nodewise nonlinear stage (``penalty_resolvent``
or the projection ``_project``) and a finite check (``_check_finite``).
Besides ``solve_path`` and ``solve_tangent``, ``semigroup``'s ensemble
chunks and ``verify``'s eps experiments use it on fields of shape
(n_space, ..., n_paths), with noise and stages of their own.  Every run
checks its start field with ``_check_run`` first.  A step holds three
field-sized arrays: the field, the drift sum formed in what ``b`` returned
and the noise term in what ``sigma`` returned; the solve and the stage
act in place.

The drift + noise stage, the solve and the projection act per column, so
reflected and ``negative_part`` penalized runs match single-path runs
bitwise.  The ``arctan_square`` resolvent does not: its Newton sweep stops
on the largest residual over the whole slab it is given, so a column's
result depends on the other columns of that slab.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .coefficients import _PENALTIES, CoefficientModel
from .grid_noise import NoisePlan, SpaceTimeGrid, sample_increments
from .heat import _cached_solver

__all__ = [
    "BlowUpError",
    "UnsupportedModelError",
    "ReflectionLedger",
    "Trajectory",
    "penalty_resolvent",
    "penalty_resolvent_deriv",
    "solve_path",
    "solve_tangent",
    "deterministic_obstacle",
]


class BlowUpError(RuntimeError):
    """Integrator produced NaN/inf.

    Carries the failing step, the noise stream and max |u| of that stream's
    last finite field (one step earlier).
    """

    def __init__(self, step, stream, max_abs):
        super().__init__(f"blow-up at step {step} on stream {stream}: "
                         f"last finite max |u| = {max_abs}")
        self.step = step
        self.stream = stream
        self.max_abs = max_abs


class UnsupportedModelError(ValueError):
    """Tangent integration asked for on a model without derivatives."""


@dataclass
class ReflectionLedger:
    """Accumulated nonnegative reflection mass (discrete constraint measure).

    ``node_mass`` aggregates cell masses per node (or per node and path for
    batched runs); ``complementarity_sum`` accumulates sum(u_new * d_eta)
    across steps, which the projection keeps at exactly 0.0 because mass is
    recorded only at nodes where the projected value is exactly zero.
    """

    node_mass: np.ndarray
    total: float = 0.0
    complementarity_sum: float = 0.0
    steps_recorded: int = 0
    per_step: list | None = None

    @classmethod
    def empty(cls, shape, record_full: bool = False) -> "ReflectionLedger":
        return cls(node_mass=np.zeros(shape), per_step=[] if record_full else None)

    def record(self, d_eta: np.ndarray, u_new: np.ndarray) -> None:
        self.node_mass += d_eta
        self.total += float(d_eta.sum())
        self.complementarity_sum += float((u_new * d_eta).sum())
        self.steps_recorded += 1
        if self.per_step is not None:
            self.per_step.append(d_eta.copy())


@dataclass
class Trajectory:
    """Snapshots of one run: the save times, the field at each (one row per
    time) and, for a reflected path, its reflection ledger."""

    times: np.ndarray
    fields: np.ndarray
    ledger: ReflectionLedger | None = None

    def at(self, t: float) -> np.ndarray:
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-9 * max(1.0, abs(t)):
            raise KeyError(f"no snapshot at t={t}; stored times {self.times}")
        return self.fields[idx]


# ---------------------------------------------------------------------------
# nonlinear stages
# ---------------------------------------------------------------------------

# Each penalty f of the catalogue (``coefficients._PENALTIES``) is defined
# here and nowhere else, by its resolvent and the resolvent's derivative:
#   negative_part   f(u) = max(-u, 0),           f'(u) = -1 on u < 0
#   arctan_square   f(u) = arctan(min(u, 0)^2),  f'(u) = 2w/(1 + w^4), w = min(u, 0)
# Both are nonincreasing, zero on u >= 0 and positive below; f'(0) = 0.

def _arctan_square_slope(w, dt_over_eps):
    """1 - (dt/eps) f'(w) for the arctan penalty at w <= 0."""
    return 1.0 - dt_over_eps * 2.0 * w / (1.0 + w ** 4)


def penalty_resolvent(v: np.ndarray, dt_over_eps: float, kind: str, out=None) -> np.ndarray:
    """Solve u = v + (dt/eps) f(u) nodewise, into ``out`` (which may be v
    itself) when given, else into a fresh array; returns the result.

    For f(u) = max(-u,0) the solve is closed form: u = v where v >= 0, else
    v/(1 + dt/eps).  For the arctan penalty a safeguarded Newton sweep runs
    to 1e-12 on the finite negative entries; non-finite entries pass through
    for the finite check to report.
    """
    if kind not in _PENALTIES:
        raise ValueError(f"unknown penalty kind {kind!r}")
    if out is None:
        out = np.array(v, dtype=float)
    elif out is not v:
        np.copyto(out, v)
    if kind == "negative_part":
        below = np.greater_equal(out, 0.0)
        np.logical_not(below, out=below)  # NaN takes the quotient, -0.0 stays
        return np.divide(out, 1.0 + dt_over_eps, out=out, where=below)
    neg = (out < 0.0) & np.isfinite(out)
    if np.any(neg):
        vn = out[neg]
        # root lies in [vn, 0]; Newton with a bisection safeguard so the
        # iteration cannot cycle when dt/eps is large
        lo = vn.copy()
        hi = np.zeros_like(vn)
        scale = 1.0 + np.abs(vn)
        un = 0.5 * (lo + hi)
        for _ in range(300):
            g = un - dt_over_eps * np.arctan(un * un) - vn
            if (np.abs(g) / scale).max() < 1e-12:
                break
            np.copyto(lo, un, where=g < 0.0)
            np.copyto(hi, un, where=g >= 0.0)
            nxt = un - g / _arctan_square_slope(un, dt_over_eps)
            # a step not strictly inside the bracket bisects, and so does a NaN or inf one
            un = np.where((nxt > lo) & (nxt < hi), nxt, 0.5 * (lo + hi))
        else:
            raise RuntimeError("arctan penalty resolvent did not converge")
        out[neg] = un
    return out


def penalty_resolvent_deriv(u_new: np.ndarray, dt_over_eps: float, kind: str) -> np.ndarray:
    """Derivative of the resolvent map v -> u through the stored output u_new.

    Equals 1/(1 - (dt/eps) f'(u_new)); the a.e. convention f'(0) = 0 makes
    the factor 1 on {u_new >= 0}.
    """
    if kind == "negative_part":
        return np.where(u_new < 0.0, 1.0 / (1.0 + dt_over_eps), 1.0)
    if kind == "arctan_square":
        return 1.0 / _arctan_square_slope(np.minimum(u_new, 0.0), dt_over_eps)
    raise ValueError(f"unknown penalty kind {kind!r}")


_FLOAT64 = np.dtype(np.float64)


def _handed_over(x, u):
    """Whether the stepper may overwrite x, which b or sigma returned for u:
    a writable float64 ndarray of u's shape that shares no memory with u.
    Two distinct arrays that own their memory (no base) share none, which
    spares the step the slower bounds check in the usual case."""
    return (isinstance(x, np.ndarray) and x.shape == u.shape and x.dtype == _FLOAT64
            and x.flags.writeable and x is not u
            and ((x.base is None and u.base is None) or not np.may_share_memory(x, u)))


def _drift_noise_solve(u, dW, model, grid):
    """Explicit drift + noise, then the implicit half-Laplacian solve.

    ``u`` has shape (n_space, ...) and ``dW`` holds cell increments that
    broadcast against it; every operation acts per column.  The value is
    u + dt b(u) + sigma(u) (dW / dx), summed in that order and solved in
    place.  The drift terms are formed in the array ``model.b`` returned and
    the noise term in the one ``model.sigma`` returned, when the model hands
    over a fresh writable array of u's shape (``_handed_over``); anything
    else (u itself, a view of it, a read-only or broadcast array, a scalar)
    is only read, and the term goes to a fresh array.
    """
    b = model.b(u)
    w = np.multiply(grid.dt, b, out=b if _handed_over(b, u) else np.empty(u.shape))
    np.add(u, w, out=w)
    s = model.sigma(u)
    noise = dW / grid.dx
    fresh = noise if noise.shape == u.shape else None  # dW of u's shape: reuse its quotient
    np.add(w, np.multiply(s, noise, out=s if _handed_over(s, u) else fresh), out=w)
    return _cached_solver(grid.n_space, grid.dx, grid.dt).solve(w, out=w)


def _project(v, grid, ledger=None):
    """Clip v onto the nonnegative cone in place and return it; cell mass
    (v_i)^- * dx goes to the ledger.  Callers pass a field they own."""
    if ledger is None:
        return np.maximum(v, 0.0, out=v)
    d_eta = np.maximum(-v, 0.0) * grid.dx
    ledger.record(d_eta, np.maximum(v, 0.0, out=v))
    return v


def _check_finite(u, u_prev, step, streams):
    """Raise BlowUpError at the first stream whose field u holds a NaN or inf.

    The last axis of u and u_prev (the field one step earlier) runs over
    ``streams``; a 1-D field is the single stream ``streams[0]``.
    """
    if np.isfinite(u).all():
        return
    k = int(np.argmin(np.isfinite(u).reshape(-1, len(streams)).all(axis=0)))
    last = np.asarray(u_prev).reshape(-1, len(streams))[:, k]
    raise BlowUpError(step, int(streams[k]), float(np.max(np.abs(last))))


def _lockstep(fields, stages, noise, n_steps, model, grid, streams):
    """The splitting stepper: advance the list ``fields`` in place n_steps steps.

    Step m draws one noise block ``noise(m)`` that every field shares; field
    i then takes drift + noise and the implicit solve, its stage
    ``stages[i]`` and the finite check against its previous value, whose
    last axis runs over ``streams``.  Yields (m + 1, noise block) after
    each step.
    """
    for m in range(n_steps):
        dW = noise(m)
        for i, stage in enumerate(stages):
            u = stage(_drift_noise_solve(fields[i], dW, model, grid))
            _check_finite(u, fields[i], m, streams)
            fields[i] = u
        yield m + 1, dW


# ---------------------------------------------------------------------------
# full paths
# ---------------------------------------------------------------------------

def _check_mode(mode, eps) -> None:
    """A known mode, and a finite eps > 0 when penalized."""
    if mode not in ("penalized", "reflected"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "penalized" and not (eps is not None and 0 < eps < math.inf):
        raise ValueError(f"penalized mode needs eps > 0 and finite, got {eps!r}")


def _check_run(h, mode, eps, grid: SpaceTimeGrid, stack: bool = False) -> np.ndarray:
    """The rules of every run: ``_check_mode`` and a finite, entrywise nonnegative
    start field.  A run from one start (``solve_path``, ``solve_tangent``, the
    eps experiments, each point of the two-point checks, the estimators) takes
    shape (n_space,); only ``run_ensemble`` takes a stack (V, n_space), with
    ``stack=True``.  Returns the field as floats."""
    _check_mode(mode, eps)
    h = np.asarray(h, dtype=float)
    if h.ndim != (2 if stack else 1) or h.shape[-1] != grid.n_space:
        expected = f"(V, {grid.n_space})" if stack else f"({grid.n_space},)"
        raise ValueError(f"initial field has shape {h.shape}, expected {expected}")
    if not np.isfinite(h).all():
        raise ValueError("initial field must be finite")
    if np.any(h < 0.0):
        raise ValueError("initial field must be entrywise >= 0")
    return h


def _snapshots(grid: SpaceTimeGrid, save_at, steps):
    """(times, fields) at the save times (default t_final; ``save_at`` may be an
    array), from ``steps``, an iterator of (m, field at step m) from m = 0."""
    save = sorted({grid.step_of(t) for t in (() if save_at is None else save_at)}) or [grid.n_steps]
    kept = {m: u.copy() for m, u in steps if m in save}
    return np.array([m * grid.dt for m in save]), np.stack([kept[m] for m in save])


def solve_path(h, mode, model, grid, plan: NoisePlan, save_at=None, eps=None,
               record_full_ledger=False) -> Trajectory:
    """Integrate one trajectory from h; snapshots at the requested times.

    ``mode`` is "penalized" (requires eps) or "reflected".  The output is a
    pure function of (master_seed, stream_id, grid, model, eps, h).
    """
    h = _check_run(h, mode, eps, grid)
    ledger = ReflectionLedger.empty(h.shape, record_full_ledger) if mode == "reflected" else None
    stage = ((lambda v: _project(v, grid, ledger)) if ledger is not None
             else (lambda v: penalty_resolvent(v, grid.dt / eps, model.penalty_kind, out=v)))
    u = [h]
    steps = ((m, u[0]) for m, _ in _lockstep(u, [stage], lambda m: sample_increments(plan, grid, m),
                                             grid.n_steps, model, grid, [plan.stream_id]))
    return Trajectory(*_snapshots(grid, save_at, chain([(0, h)], steps)), ledger)


def solve_tangent(h, k, mode, model: CoefficientModel, grid: SpaceTimeGrid, plan: NoisePlan,
                  save_at=None, eps=None) -> Trajectory:
    """Integrate the derivative flow in direction k (h's shape) along the
    penalized path that ``solve_path`` takes with the same arguments.

    The base path runs through the stepper alongside, and after each step
    the linearized update takes the same noise block and the base field
    before and after it.  The result is the exact derivative of the
    discrete one-step map, with the penalty stage differentiated through
    the resolvent; snapshots as in ``solve_path``, no ledger.  A non-finite
    base or tangent field raises BlowUpError.
    """
    if not model.differentiable:
        raise UnsupportedModelError(
            f"model {model.name!r} has no declared derivatives; tangent flow unavailable"
        )
    if mode == "reflected":
        raise ValueError("tangent flow is defined along penalized paths")
    h = _check_run(h, mode, eps, grid)
    k = np.asarray(k, dtype=float)
    if k.shape != h.shape:
        raise ValueError(f"h and k have shapes {h.shape} and {k.shape}, expected ({grid.n_space},)")
    solver = _cached_solver(grid.n_space, grid.dx, grid.dt)
    q = grid.dt / eps

    def flow():
        u, u_prev, v = [h], h, k
        yield 0, k
        for m, dW in _lockstep(u, [lambda w: penalty_resolvent(w, q, model.penalty_kind)],
                               lambda m: sample_increments(plan, grid, m), grid.n_steps,
                               model, grid, [plan.stream_id]):
            w_v = v + grid.dt * model.db(u_prev) * v + model.dsigma(u_prev) * v * (dW / grid.dx)
            v_new = solver.solve(w_v) * penalty_resolvent_deriv(u[0], q, model.penalty_kind)
            _check_finite(v_new, v, m - 1, [plan.stream_id])
            u_prev, v = u[0], v_new
            yield m, v

    return Trajectory(*_snapshots(grid, save_at, flow()))


def deterministic_obstacle(v, grid: SpaceTimeGrid):
    """Minimal nonnegative correction z with z + v >= 0 and exact complementarity.

    ``v`` is an array of shape (n_steps+1, n_space): the driving field at
    the grid times.  Per step, z takes an implicit heat step and is then
    lifted by exactly the amount needed to keep z + v nonnegative; the lift
    mass (times dx) goes to the ledger.  Returns the full history of z and
    the ledger.
    """
    v_arr = np.asarray(v, dtype=float)
    if v_arr.shape != (grid.n_steps + 1, grid.n_space):
        raise ValueError(
            f"obstacle data has shape {v_arr.shape}, expected {(grid.n_steps + 1, grid.n_space)}"
        )
    if np.any(v_arr[0] < 0.0):
        raise ValueError("v(0) must be entrywise >= 0")
    solver = _cached_solver(grid.n_space, grid.dx, grid.dt)
    ledger = ReflectionLedger.empty((grid.n_space,))
    z_hist = np.zeros_like(v_arr)
    z = np.zeros(grid.n_space)
    for m in range(1, grid.n_steps + 1):
        z_star = solver.solve(z)
        w = z_star + v_arr[m]
        lift = np.maximum(-w, 0.0)
        z = z_star + lift
        ledger.record(lift * grid.dx, np.maximum(w, 0.0))
        z_hist[m] = z
    return z_hist, ledger
