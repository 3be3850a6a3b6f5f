"""Space-time grids, field helpers, and reproducible white-noise streams.

The noise source is counter-based: the Gaussian block for a given
(master_seed, stream_id, step) is a pure function of those three integers,
independent of evaluation order, batching, or thread scheduling.  The exact
counter-to-Gaussian mapping (Philox4x64-10 + Box-Muller) is frozen in
docs/noise.md so that other implementations can reproduce the streams
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "SpaceTimeGrid",
    "NoisePlan",
    "make_grid",
    "with_stream",
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

    Rejects n_space < 3, non-positive dt, and t_final that is not an
    integer multiple of dt within 0.1% slack.
    """
    if n_space < 3:
        raise ValueError(f"n_space must be >= 3, got {n_space}")
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if t_final < dt:
        raise ValueError(f"t_final must be >= dt, got {t_final} < {dt}")
    ratio = t_final / dt
    n_steps = int(round(ratio))
    if abs(ratio - n_steps) > 1e-3 * max(1.0, ratio):
        raise ValueError(
            f"t_final/dt = {ratio} is not an integer within 0.1% slack"
        )
    return SpaceTimeGrid(n_space=n_space, dx=1.0 / (n_space + 1), dt=dt, n_steps=n_steps)


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
    """Keys one reproducible noise stream.

    ``counter`` is a base step offset added to the per-call step index, so a
    run can be resumed mid-trajectory without replaying earlier steps.
    """

    master_seed: int
    stream_id: int = 0
    counter: int = 0


def with_stream(plan: NoisePlan, stream_id: int) -> NoisePlan:
    """Same master seed, different trajectory stream."""
    return replace(plan, stream_id=stream_id)


# Philox4x64-10 round constants (Random123; same core as numpy.random.Philox).
_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = np.uint64(0x9E3779B97F4A7C15)
_W1 = np.uint64(0xBB67AE8584CAA73B)
_MASK32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_U64 = np.uint64
_TWO53_INV = 1.0 / 9007199254740992.0  # 2**-53


def _mulhilo(a, b):
    """128-bit product of uint64 arrays, as (high word, low word)."""
    lo = a * b
    ah = a >> _S32
    al = a & _MASK32
    bh = b >> _S32
    bl = b & _MASK32
    mid = ((al * bl) >> _S32) + ((al * bh) & _MASK32) + ((ah * bl) & _MASK32)
    hi = ah * bh + ((al * bh) >> _S32) + ((ah * bl) >> _S32) + (mid >> _S32)
    return hi, lo


def _philox_raw(master_seed: int, stream_ids: np.ndarray, step: int, n_raw: int) -> np.ndarray:
    """Raw uint64 stream per (seed, stream, step), shape (n_raw, n_streams).

    Column s reproduces numpy.random.Philox(counter=step << 128,
    key=[master_seed, stream_ids[s]]).random_raw(n_raw) exactly: block j of
    four words is Philox4x64-10 applied to counter words [j+1, 0, step, 0]
    (numpy pre-increments the counter) with key words [seed, stream].
    """
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    n_streams = len(stream_ids)
    n_blocks = -(-n_raw // 4)
    c0 = np.repeat(np.arange(1, n_blocks + 1, dtype=np.uint64), n_streams)
    zero = np.zeros(n_blocks * n_streams, dtype=np.uint64)
    c1 = zero
    c2 = np.full(n_blocks * n_streams, _U64(step % (1 << 64)))
    c3 = zero
    k0 = np.full(n_blocks * n_streams, _U64(master_seed % (1 << 64)))
    k1 = np.tile(np.asarray(stream_ids, dtype=np.uint64), n_blocks)
    with np.errstate(over="ignore"):
        for _ in range(10):
            hi0, lo0 = _mulhilo(_M0, c0)
            hi1, lo1 = _mulhilo(_M1, c2)
            c0 = hi1 ^ c1 ^ k0
            c1 = lo1
            c2 = hi0 ^ c3 ^ k1
            c3 = lo0
            k0 = k0 + _W0
            k1 = k1 + _W1
    # (4, n_blocks, S) -> word order 4*j + q per stream column
    out = np.stack((c0, c1, c2, c3)).reshape(4, n_blocks, n_streams)
    return out.transpose(1, 0, 2).reshape(4 * n_blocks, n_streams)[:n_raw]


def _gaussian_block(master_seed: int, stream_ids: np.ndarray, step: int, n: int) -> np.ndarray:
    """Standard normals from the raw stream via Box-Muller, shape (n, n_streams).

    Pair 2i, 2i+1 of raws maps to u1 = (r0 >> 11)*2^-53, u2 = (r1 >> 11)*2^-53,
    then z0 = sqrt(-2 log(1-u1)) cos(2 pi u2), z1 = the sin twin.
    """
    n_pairs = -(-n // 2)
    raw = _philox_raw(master_seed, stream_ids, step, 2 * n_pairs)
    u1 = (raw[0::2] >> np.uint64(11)).astype(np.float64) * _TWO53_INV
    u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64) * _TWO53_INV
    r = np.sqrt(-2.0 * np.log1p(-u1))
    theta = (2.0 * np.pi) * u2
    z = np.empty((2 * n_pairs, raw.shape[1]))
    z[0::2] = r * np.cos(theta)
    z[1::2] = r * np.sin(theta)
    return z[:n]


def sample_increments(plan: NoisePlan, grid: SpaceTimeGrid, step: int) -> np.ndarray:
    """Brownian-sheet cell increments for one step, shape (n_space,).

    Each entry is N(0, dt*dx), independent across nodes, steps, and streams;
    repeat calls with the same (seed, stream, step) are bitwise identical.
    """
    if step >= grid.n_steps:
        raise ValueError(f"step {step} out of range (n_steps={grid.n_steps})")
    return increments_matrix(plan, grid, step, [plan.stream_id])[:, 0]


def increments_matrix(plan: NoisePlan, grid: SpaceTimeGrid, step: int, stream_ids) -> np.ndarray:
    """Increments for many streams at one step, shape (n_space, n_streams).

    Column s equals sample_increments(with_stream(plan, stream_ids[s]), ...)
    bitwise; batching exists only for speed.
    """
    if step >= grid.n_steps:
        raise ValueError(f"step {step} out of range (n_steps={grid.n_steps})")
    z = _gaussian_block(
        plan.master_seed, np.asarray(stream_ids), plan.counter + step, grid.n_space
    )
    return z * math.sqrt(grid.dt * grid.dx)
