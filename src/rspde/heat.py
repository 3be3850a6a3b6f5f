"""Dirichlet heat machinery: sine basis, exact semigroup, implicit step.

The generator here is half the Dirichlet Laplacian on (0,1): mode n carries
eigenvalue n^2 pi^2 / 2.  The spectral routines serve as exact references;
the tridiagonal backward-Euler step is the workhorse inside the integrators.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "SpectralBasis",
    "spectral_basis",
    "heat_apply",
    "implicit_step",
    "ImplicitHeatSolver",
]


class SpectralBasis:
    """Sampled sine eigenbasis e_n(x) = sqrt(2) sin(n pi x), n = 1..n_modes.

    ``modes`` has shape (n_modes, n_space); ``eigenvalues`` holds
    n^2 pi^2 / 2, the decay rates of the half-Laplacian semigroup.
    """

    def __init__(self, n_space: int, n_modes: int | None = None):
        if n_modes is None:
            n_modes = n_space
        x = np.arange(1, n_space + 1) / (n_space + 1)
        n = np.arange(1, n_modes + 1)
        self.n_space = n_space
        self.n_modes = n_modes
        self.dx = 1.0 / (n_space + 1)
        self.modes = math.sqrt(2.0) * np.sin(np.pi * np.outer(n, x))
        self.eigenvalues = 0.5 * (n * np.pi) ** 2

    def coefficients(self, h: np.ndarray) -> np.ndarray:
        """Discrete pairings dx * sum_i e_n(x_i) h_i."""
        return self.dx * (self.modes @ h)


@lru_cache(maxsize=16)
def spectral_basis(n_space: int, n_modes: int | None = None) -> SpectralBasis:
    return SpectralBasis(n_space, n_modes)


def heat_apply(h: np.ndarray, t: float) -> np.ndarray:
    """Exact heat semigroup on the sampled field: sum_n e^{-n^2 pi^2 t/2} <h,e_n> e_n.

    Reference implementation for validating time integrators; cost is a
    dense matrix product, fine for the mesh sizes used here.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    basis = spectral_basis(h.shape[0])
    damped = np.exp(-basis.eigenvalues * t) * basis.coefficients(h)
    return basis.modes.T @ damped


class ImplicitHeatSolver:
    """Pre-factored tridiagonal solve of (I - dt * D2 / 2) v = w.

    D2 is the 3-point Dirichlet Laplacian; the matrix is strictly diagonally
    dominant, so the Thomas sweep needs no pivoting.  ``solve`` accepts shape
    (n_space, ...) and returns float64 (integer input is cast first); each
    column is processed by the identical scalar recurrence, so results do
    not depend on the batch width.  A batched sweep runs row by row, each
    ufunc given its output positionally (cheaper than ``out=``), with one
    scratch row, so it allocates only its result, and nothing with ``out``.

    The coefficients ``beta`` and ``gamma`` are lists of Python floats.  A
    1-D field runs the recurrence over Python floats: a numpy sweep pays
    per-row call overhead that a single column cannot spread.  Python
    floats are IEEE doubles, and each step is the same division,
    multiplication and addition of the same operands in the same order as
    the batched numpy sweep, so a column comes out bit for bit as that sweep
    gives it, NaN signs included.
    """

    def __init__(self, n_space: int, dx: float, dt: float):
        r = float(dt / (2.0 * dx * dx))
        beta = [1.0 + 2.0 * r]
        gamma = []
        for i in range(n_space - 1):
            gamma.append(-r / beta[i])
            beta.append((1.0 + 2.0 * r) + r * gamma[i])
        self.n_space = n_space
        self.r = r
        self._beta = beta
        self._gamma = gamma

    def solve(self, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The solution v, written into ``out`` when given (``out=w`` solves in place)."""
        w = np.asarray(w, dtype=np.float64)
        if w.ndim == 1:
            return self._solve_column(w, out)
        r, beta, gamma = self.r, self._beta, self._gamma
        v = np.empty_like(w) if out is None else out
        tmp = np.empty_like(w[0])
        vs, ws = list(v), list(w)  # row views, made once per solve
        # forward sweep y_i = (w_i + r y_{i-1}) / beta_i into v (w_i is read
        # before y_i is written, so out=w is safe), then v_i = y_i - gamma_i v_{i+1}
        np.divide(ws[0], beta[0], vs[0])
        for i in range(1, self.n_space):
            np.multiply(r, vs[i - 1], tmp)
            np.add(ws[i], tmp, tmp)
            np.divide(tmp, beta[i], vs[i])
        for i in range(self.n_space - 2, -1, -1):
            np.multiply(gamma[i], vs[i + 1], tmp)
            np.subtract(vs[i], tmp, vs[i])
        return v

    def _solve_column(self, w: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """The same sweep as ``solve`` on one column, over Python floats."""
        r, beta, gamma = self.r, self._beta, self._gamma
        y = w.tolist()  # a fresh list: y, then v, overwrite w's entries in place
        prev = y[0] = y[0] / beta[0]
        for i in range(1, self.n_space):
            prev = y[i] = (y[i] + r * prev) / beta[i]
        for i in range(self.n_space - 2, -1, -1):
            prev = y[i] = y[i] - gamma[i] * prev
        if out is None:
            return np.array(y)
        out[:] = y
        return out


@lru_cache(maxsize=32)
def _cached_solver(n_space: int, dx: float, dt: float) -> ImplicitHeatSolver:
    return ImplicitHeatSolver(n_space, dx, dt)


def implicit_step(w: np.ndarray, dx: float, dt: float) -> np.ndarray:
    """One backward-Euler step of the half-Laplacian from data w."""
    return _cached_solver(w.shape[0], dx, dt).solve(w)
