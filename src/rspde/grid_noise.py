"""Space-time grids, field helpers, and reproducible white-noise streams.

The noise source is counter-based: the Gaussian block for a given
(master_seed, stream_id, step) is a pure function of those three integers,
independent of evaluation order, batching, or thread scheduling.  The exact
counter-to-Gaussian mapping (Philox4x64-10 + Box-Muller) is frozen in
docs/noise.md so that other implementations can reproduce the streams
bit for bit.  The uniforms come from numpy's compiled Philox, one
generator per process under one lock, whose counter, key and buffer
position are written into its C state for each (seed, stream, step).
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpaceTimeGrid",
    "NoisePlan",
    "make_grid",
    "sample_increments",
    "increments_matrix",
    "l2_norm",
    "sup_norm",
    "project_nonneg",
    "sine_profile",
]


# ---------------------------------------------------------------------------
# grids and fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform mesh on [0,1] x [0, t_final].

    ``n_space`` counts interior nodes; the boundary nodes x=0, x=1 are
    implicit and always carry the value 0.  ``dx = 1/(n_space+1)``.
    """

    n_space: int
    dx: float
    dt: float
    n_steps: int

    @property
    def t_final(self) -> float:
        return self.dt * self.n_steps

    @property
    def x(self) -> np.ndarray:
        """Interior node coordinates, shape (n_space,)."""
        return self.dx * np.arange(1, self.n_space + 1)

    def times(self) -> np.ndarray:
        """All step times 0, dt, ..., n_steps*dt."""
        return self.dt * np.arange(self.n_steps + 1)

    def step_of(self, t: float) -> int:
        """Map a time to its step index; t must sit on the time mesh."""
        m = int(round(t / self.dt))
        if m < 0 or m > self.n_steps or abs(m * self.dt - t) > 1e-3 * self.dt:
            raise ValueError(f"time {t} is not on the time mesh (dt={self.dt})")
        return m


def make_grid(n_space: int, dt: float, t_final: float) -> SpaceTimeGrid:
    """Build a grid with dx = 1/(n_space+1) and n_steps = t_final/dt.

    Rejects an n_space that is not an integer >= 3 (a bool is not one), a
    dt that is not finite and > 0, and a t_final that is not finite, below
    dt or not an integer multiple of dt within 0.1% slack.
    """
    if isinstance(n_space, bool) or not isinstance(n_space, (int, np.integer)):
        raise ValueError(f"n_space must be an integer, got {n_space!r}")
    if n_space < 3:
        raise ValueError(f"n_space must be >= 3, got {n_space}")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be > 0 and finite, got {dt}")
    if not dt <= t_final < math.inf:
        raise ValueError(f"t_final must be >= dt and finite, got {t_final} with dt = {dt}")
    ratio = t_final / dt
    n_steps = int(round(ratio))
    if abs(ratio - n_steps) > 1e-3 * max(1.0, ratio):
        raise ValueError(
            f"t_final/dt = {ratio} is not an integer within 0.1% slack"
        )
    return SpaceTimeGrid(n_space=int(n_space), dx=1.0 / (n_space + 1), dt=dt, n_steps=n_steps)


def l2_norm(values: np.ndarray, dx: float) -> float | np.ndarray:
    """Discrete L2(0,1) norm sqrt(dx * sum(values^2)) along axis 0."""
    return np.sqrt(dx * np.sum(np.square(values), axis=0))


def sup_norm(values: np.ndarray) -> float | np.ndarray:
    """Max of |values| along axis 0 (sup over interior nodes)."""
    return np.max(np.abs(values), axis=0)


def project_nonneg(values: np.ndarray) -> tuple[np.ndarray, float]:
    """Clip negative entries to 0; also return the L-inf clip distance."""
    clipped = np.maximum(values, 0.0)
    return clipped, float(np.max(clipped - values, initial=0.0))


def sine_profile(grid: SpaceTimeGrid, coeffs) -> np.ndarray:
    """Field sum_n c_n * sqrt(2) sin(n pi x) on the interior nodes.

    ``coeffs`` lists the mode coefficients c_1, c_2, ...; no projection is
    applied here (see the config layer for the clipped variant).
    """
    x = grid.x
    out = np.zeros(grid.n_space)
    for n, c in enumerate(coeffs, start=1):
        if c != 0.0:
            out += c * math.sqrt(2.0) * np.sin(n * math.pi * x)
    return out


# ---------------------------------------------------------------------------
# counter-based noise
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoisePlan:
    """Keys one reproducible noise stream."""

    master_seed: int
    stream_id: int = 0


_PHILOX_LOCK = threading.Lock()  # held over a call's whole stream loop: see docs/noise.md


class _PhiloxState(ctypes.Structure):
    """Head of numpy's C ``philox_state``: the counter and key pointers and ``buffer_pos``.

    numpy/random/src/philox/philox.h declares
    ``struct { philox4x64_ctr_t *ctr; philox4x64_key_t *key; int buffer_pos; ... }``
    with four and two 64-bit words behind the pointers.
    """

    _fields_ = [("ctr", ctypes.POINTER(ctypes.c_uint64 * 4)),
                ("key", ctypes.POINTER(ctypes.c_uint64 * 2)),
                ("buffer_pos", ctypes.c_int)]


@functools.cache
def _philox():
    """The process's Philox ``Generator.random``, C state, counter and key words; call under the lock.

    The bound method holds the generator, which keeps the memory behind the
    views alive; numpy sets the counter and key pointers once, at construction.
    """
    gen = np.random.Philox(counter=[1, 2, 3, 4], key=[5, 6])
    state = _PhiloxState.from_address(gen.ctypes.state_address)
    ctr, key = state.ctr.contents, state.key.contents
    if (list(ctr), list(key), state.buffer_pos) != ([1, 2, 3, 4], [5, 6], 4):
        raise RuntimeError(f"numpy {np.__version__}: Philox C state layout differs "
                           "from the one docs/noise.md describes")
    return np.random.Generator(gen).random, state, ctr, key


def _uniforms(master_seed: int, stream_ids, step: int, n_u: int) -> np.ndarray:
    """Uniforms (r >> 11) * 2^-53 per (seed, stream, step), shape (n_u, n_streams).

    Column s is numpy.random.Generator(numpy.random.Philox(counter=step << 128,
    key=[master_seed, stream_ids[s]])).random(n_u): under the lock, the
    process's compiled Philox4x64-10 gets counter [0, 0, step, 0], key
    [master_seed, stream] and an empty buffer written into its C state, and
    each stream draws whole four-word blocks, which leave the buffer empty.
    """
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    streams = np.asarray(stream_ids, dtype=np.uint64).tolist()
    out = np.empty((len(streams), -(-n_u // 4) * 4))
    with _PHILOX_LOCK:
        random, state, ctr, key = _philox()
        ctr[:] = (0, 0, step % (1 << 64), 0)
        key[0] = master_seed % (1 << 64)
        state.buffer_pos = 4  # empty buffer: each stream's first block is at counter [1, 0, step, 0]
        for row, stream in zip(out, streams):
            ctr[0] = 0  # random advances only this word: a row's blocks cannot wrap it
            key[1] = stream
            random(out=row)
    return out[:, :n_u].T


def _gaussian_block(master_seed: int, stream_ids, step: int, n: int, scale: float) -> np.ndarray:
    """Box-Muller normals from the uniforms times ``scale``, shape (n, n_streams).

    Pair 2i, 2i+1 of uniforms (u1, u2) maps to z0 = sqrt(-2 log(1-u1))
    cos(2 pi u2), z1 = the sin twin.  The radii and angles are computed in
    place in the uniform block, and the scaled normals are written into the
    returned array; each value gets the same operations in the same order
    as the formulas above.
    """
    u = _uniforms(master_seed, stream_ids, step, 2 * -(-n // 2))
    u1, u2 = u[0::2], u[1::2]
    np.negative(u1, out=u1)
    np.log1p(u1, out=u1)
    np.multiply(-2.0, u1, out=u1)
    r = np.sqrt(u1, out=u1)
    theta = np.multiply(2.0 * np.pi, u2, out=u2)
    z = np.empty((n, u.shape[1]))
    z0, z1 = z[0::2], z[1::2]
    np.multiply(r, np.cos(theta, out=z0), out=z0)
    n_sin = z1.shape[0]
    np.multiply(r[:n_sin], np.sin(theta[:n_sin], out=z1), out=z1)
    z *= scale
    return z


def sample_increments(plan: NoisePlan, grid: SpaceTimeGrid, step: int) -> np.ndarray:
    """Brownian-sheet cell increments for one step, shape (n_space,).

    Each entry is N(0, dt*dx), independent across nodes, steps, and streams;
    repeat calls with the same (seed, stream, step) are bitwise identical.
    """
    return increments_matrix(plan, grid, step, [plan.stream_id])[:, 0]


def increments_matrix(plan: NoisePlan, grid: SpaceTimeGrid, step: int, stream_ids) -> np.ndarray:
    """Increments for many streams at one step, shape (n_space, n_streams).

    Column s equals sample_increments(NoisePlan(plan.master_seed, stream_ids[s]), ...)
    bitwise; batching exists only for speed.
    """
    if step >= grid.n_steps:
        raise ValueError(f"step {step} out of range (n_steps={grid.n_steps})")
    return _gaussian_block(plan.master_seed, stream_ids, step, grid.n_space,
                           math.sqrt(grid.dt * grid.dx))
