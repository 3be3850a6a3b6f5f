"""Sine basis, exact semigroup, and the implicit step."""

import math

import numpy as np
import pytest

from rspde.grid_noise import l2_norm
from rspde.heat import ImplicitHeatSolver, heat_apply, implicit_step, spectral_basis


@pytest.fixture(scope="module")
def basis127():
    return spectral_basis(127)


class TestSpectralBasis:
    def test_discrete_orthonormality(self, basis127):
        n_keep = 127 // 4
        E = basis127.modes[:n_keep]
        gram = basis127.dx * (E @ E.T)
        assert np.max(np.abs(gram - np.eye(n_keep))) < 1e-10

    def test_discrete_laplacian_eigenvalue_match(self):
        n_space = 127
        dx = 1.0 / (n_space + 1)
        for n in range(1, n_space // 8 + 1):
            lam_disc = 2.0 * (1.0 - math.cos(n * math.pi * dx)) / dx**2
            assert lam_disc == pytest.approx(n**2 * math.pi**2, rel=0.02)

    def test_eigenvalues_are_half_laplacian(self, basis127):
        assert basis127.eigenvalues[0] == pytest.approx(math.pi**2 / 2)
        assert basis127.eigenvalues[2] == pytest.approx(9 * math.pi**2 / 2)


class TestHeatApply:
    def test_mode_decay_factor(self, basis127):
        e1 = basis127.modes[0]
        out = heat_apply(e1, 0.1)
        expected = math.exp(-math.pi**2 * 0.05) * e1
        assert math.exp(-math.pi**2 * 0.05) == pytest.approx(0.6104980, abs=1e-7)
        rel = l2_norm(out - expected, basis127.dx) / l2_norm(expected, basis127.dx)
        assert rel < 1e-8

    def test_t_zero_identity(self, basis127):
        rng = np.random.default_rng(0)
        h = rng.uniform(0, 1, size=127)
        assert np.allclose(heat_apply(h, 0.0), h, atol=1e-12)

    def test_spectral_gap_contraction(self):
        rng = np.random.default_rng(1)
        for t in (0.01, 0.1, 1.0):
            h = rng.uniform(0, 1, size=63)  # nonnegative field
            out = heat_apply(h, t)
            assert l2_norm(out, 1 / 64) <= math.exp(-math.pi**2 * t / 2) * l2_norm(h, 1 / 64) * (1 + 1e-12)

    def test_semigroup_property(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=63)
        a = heat_apply(heat_apply(h, 0.03), 0.04)
        b = heat_apply(h, 0.07)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            heat_apply(np.zeros(7), -0.1)


def _special_matrix(rng, n_space):
    """(n_space, 64) floats over 600 decades; columns 8.. hold nan, -nan,
    +-inf, +-1e308, subnormals and -0.0 at one to three random rows."""
    specials = [math.nan, -math.nan, math.inf, -math.inf, 1e308, -1e308,
                5e-324, -5e-324, 2.2e-308, -0.0]
    W = rng.normal(size=(n_space, 64)) * 10.0 ** rng.integers(-300, 300, size=64)
    for j in range(8, 64):
        rows = rng.integers(0, n_space, size=1 + j % 3)
        W[rows, j] = rng.choice(specials, size=rows.size)
    return W


class TestImplicitStep:
    def test_zero_fixed_point(self):
        out = implicit_step(np.zeros(63), 1 / 64, 1e-3)
        assert np.array_equal(out, np.zeros(63))

    def test_discrete_eigenvector_ratio(self):
        n_space, dt = 127, 1e-3
        dx = 1.0 / (n_space + 1)
        e1 = spectral_basis(n_space).modes[0]
        out = implicit_step(e1, dx, dt)
        ratio = 1.0 / (1.0 + dt * (1.0 - math.cos(math.pi * dx)) / dx**2)
        assert np.max(np.abs(out - ratio * e1)) < 1e-10

    def test_repeated_steps_match_semigroup(self):
        n_space, dt, t = 127, 1e-4, 0.1
        dx = 1.0 / (n_space + 1)
        e1 = spectral_basis(n_space).modes[0]
        u = e1.copy()
        solver = ImplicitHeatSolver(n_space, dx, dt)
        for _ in range(int(round(t / dt))):
            u = solver.solve(u)
        err = l2_norm(u - heat_apply(e1, t), dx)
        assert err < 1e-3

    def test_l2_contraction(self):
        rng = np.random.default_rng(4)
        dx = 1 / 64
        for _ in range(20):
            w = rng.normal(size=63)
            v = implicit_step(w, dx, 5e-3)
            assert l2_norm(v, dx) <= l2_norm(w, dx) * (1 + 1e-12)

    def test_batched_columns_match_single(self):
        # a 1-D field takes the Python-float sweep, a 2-D one the numpy sweep;
        # they must agree bit for bit, non-finite, huge and subnormal entries
        # (and the NaN signs they produce) included
        rng = np.random.default_rng(5)
        for n_space in (3, 7, 63):
            W = _special_matrix(rng, n_space)
            solver = ImplicitHeatSolver(n_space, 1.0 / (n_space + 1), 1e-3)
            with np.errstate(all="ignore"):
                batched = solver.solve(W)
                for j in range(W.shape[1]):
                    column = W[:, j].copy()
                    single = solver.solve(column)
                    assert single.dtype == np.float64 and single.shape == (n_space,)
                    assert single.tobytes() == batched[:, j].tobytes(), (n_space, j)
                    assert column.tobytes() == W[:, j].tobytes()  # input not mutated
            assert np.isnan(batched[:, 8:]).any() and np.isinf(batched[:, 8:]).any()

    @pytest.mark.parametrize("lanes", [(), (64,), (4, 16)])
    def test_solve_into_out_matches_fresh(self, lanes):
        # out= and the in-place solve out=w give the bytes of a fresh solve
        rng = np.random.default_rng(6)
        for n_space in (3, 7, 63):
            W = _special_matrix(rng, n_space)
            fields = list(W.T) if lanes == () else [W.reshape((n_space, *lanes))]
            solver = ImplicitHeatSolver(n_space, 1.0 / (n_space + 1), 1e-3)
            with np.errstate(all="ignore"):
                for field in fields:
                    fresh = solver.solve(field)
                    out = np.full_like(field, 7.0)
                    assert solver.solve(field, out=out) is out
                    assert out.tobytes() == fresh.tobytes(), n_space
                    w = field.copy()
                    assert solver.solve(w, out=w) is w
                    assert w.tobytes() == fresh.tobytes(), n_space
                solved = np.stack([solver.solve(field) for field in fields])
            assert np.isnan(solved).any() and np.isinf(solved).any()

    @pytest.mark.parametrize("shape", [(7,), (7, 3)])
    def test_integer_input_is_not_truncated(self, shape):
        spike = np.zeros(shape, dtype=np.int64)
        spike[3] = 1
        out = implicit_step(spike, 1 / 8, 0.1)
        assert out.dtype == np.float64 and out.shape == shape
        assert out.tobytes() == implicit_step(spike.astype(np.float64), 1 / 8, 0.1).tobytes()
        assert np.all(out > 0.0)
