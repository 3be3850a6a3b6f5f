"""Grid construction and the reproducible noise source."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rspde.grid_noise import (
    NoisePlan,
    increments_matrix,
    l2_norm,
    make_grid,
    project_nonneg,
    sample_increments,
    sine_profile,
    sup_norm,
    with_stream,
    _philox_raw,
)


class TestMakeGrid:
    def test_example_127(self):
        grid = make_grid(127, 1e-3, 0.5)
        assert grid.dx == pytest.approx(1.0 / 128) == pytest.approx(0.0078125)
        assert grid.n_steps == 500
        assert grid.t_final == pytest.approx(0.5)

    def test_example_small(self):
        grid = make_grid(3, 0.1, 0.1)
        assert grid.dx == 0.25
        assert grid.n_steps == 1

    def test_rejects_small_n_space(self):
        with pytest.raises(ValueError):
            make_grid(2, 0.1, 0.1)

    def test_rejects_incompatible_t_final(self):
        with pytest.raises(ValueError):
            make_grid(7, 0.1, 0.55)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            make_grid(7, 0.0, 1.0)
        with pytest.raises(ValueError):
            make_grid(7, 0.2, 0.1)

    @given(n=st.integers(3, 4096))
    def test_dx_partition_exact(self, n):
        grid = make_grid(n, 0.1, 0.1)
        # dx * (n+1) must reproduce 1 up to one rounding
        assert abs(grid.dx * (n + 1) - 1.0) <= np.finfo(float).eps

    def test_step_of(self):
        grid = make_grid(7, 0.1, 1.0)
        assert grid.step_of(0.0) == 0
        assert grid.step_of(0.5) == 5
        with pytest.raises(ValueError):
            grid.step_of(0.55)


class TestFieldHelpers:
    def test_l2_norm_definition(self):
        v = np.array([1.0, -2.0, 3.0])
        assert l2_norm(v, 0.25) == pytest.approx(np.sqrt(0.25 * 14.0))

    def test_sup_norm(self):
        assert sup_norm(np.array([1.0, -5.0, 2.0])) == 5.0

    def test_project_nonneg(self):
        v = np.array([0.5, -0.25, 0.0])
        proj, dist = project_nonneg(v)
        assert np.array_equal(proj, [0.5, 0.0, 0.0])
        assert dist == 0.25

    def test_sine_profile_single_mode(self):
        grid = make_grid(63, 0.1, 0.1)
        prof = sine_profile(grid, [2.0])
        assert prof == pytest.approx(2.0 * np.sqrt(2) * np.sin(np.pi * grid.x))


class TestNoiseDeterminism:
    def test_same_key_bitwise_identical(self):
        grid = make_grid(127, 1e-3, 0.5)
        plan = NoisePlan(42, 7)
        a = sample_increments(plan, grid, 3)
        b = sample_increments(plan, grid, 3)
        assert np.array_equal(a, b)

    def test_philox_matches_numpy_oracle(self):
        # the documented contract: our raw stream equals numpy's Philox
        for seed, stream, step, n in [(42, 7, 3, 64), (0, 0, 0, 8), (2**63, 17, 1000, 12)]:
            mine = _philox_raw(seed, np.array([stream]), step, n)[:, 0]
            ref = np.random.Philox(counter=step << 128, key=seed + (stream << 64)).random_raw(n)
            assert np.array_equal(mine, ref)

    def test_batched_equals_single(self):
        grid = make_grid(63, 1e-3, 0.1)
        plan = NoisePlan(11, 0)
        mat = increments_matrix(plan, grid, 5, [3, 10, 200])
        for col, stream in enumerate([3, 10, 200]):
            single = sample_increments(with_stream(plan, stream), grid, 5)
            assert np.array_equal(mat[:, col], single)

    @given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**32),
           step=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_pure_function_of_key(self, seed, stream, step):
        grid = make_grid(15, 1e-2, 200.0)
        plan = NoisePlan(seed, stream)
        assert np.array_equal(
            sample_increments(plan, grid, step), sample_increments(plan, grid, step)
        )

    def test_step_out_of_range(self):
        grid = make_grid(7, 0.1, 0.5)
        with pytest.raises(ValueError):
            sample_increments(NoisePlan(1), grid, 5)

    def test_counter_offsets_steps(self):
        grid = make_grid(7, 0.1, 1.0)
        shifted = NoisePlan(9, 2, counter=3)
        base = NoisePlan(9, 2)
        assert np.array_equal(
            sample_increments(shifted, grid, 1), sample_increments(base, grid, 4)
        )

    def test_golden_values_frozen(self):
        # pins the full documented pipeline (Philox raws -> Box-Muller ->
        # sqrt(dt*dx) scale) so the stream definition cannot drift silently
        grid = make_grid(127, 1e-3, 0.5)
        v = sample_increments(NoisePlan(42, 7), grid, 3)
        golden = [
            float.fromhex("0x1.6fe36f980098ap-8"),
            float.fromhex("0x1.9164457425f0dp-10"),
            float.fromhex("0x1.c7e216723dc23p-10"),
            float.fromhex("-0x1.eaba86f6da880p-9"),
        ]
        assert v[:4].tolist() == golden


class TestCoupling:
    def test_couple_identical_increments(self):
        # common noise needs no helper: equal plans give equal increments
        grid = make_grid(31, 1e-3, 0.02)
        plan = NoisePlan(5, 3)
        twin = NoisePlan(5, 3)
        for step in range(11):
            assert np.array_equal(
                sample_increments(plan, grid, step), sample_increments(twin, grid, step)
            )

    def test_streams_differ(self):
        grid = make_grid(31, 1e-3, 0.02)
        a = sample_increments(NoisePlan(5, 0), grid, 0)
        b = sample_increments(NoisePlan(5, 1), grid, 0)
        assert not np.array_equal(a, b)


class TestNoiseStatistics:
    def test_cell_variance_within_one_percent(self):
        # dt=1e-3, dx=1/128: per-node variance dt*dx = 7.8125e-6
        grid = make_grid(127, 1e-3, 8.0)
        plan = NoisePlan(123)
        draws = np.concatenate([
            increments_matrix(plan, grid, step, np.arange(1000)).ravel()
            for step in range(8)
        ])
        assert draws.size >= 10**6
        target = grid.dt * grid.dx
        assert target == pytest.approx(7.8125e-6)
        assert np.var(draws) == pytest.approx(target, rel=0.01)

    def test_independent_streams_uncorrelated(self):
        grid = make_grid(127, 1e-3, 8.0)
        plan = NoisePlan(77)
        pairs = np.concatenate([
            increments_matrix(plan, grid, step, [0, 1]) for step in range(800)
        ])
        x, y = pairs[: 10**5, 0], pairs[: 10**5, 1]
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(10**5)

    def test_gaussian_moments(self):
        grid = make_grid(127, 1e-3, 8.0)
        plan = NoisePlan(2024)
        z = np.concatenate([
            increments_matrix(plan, grid, step, np.arange(1000)).ravel()
            for step in range(8)
        ]) / np.sqrt(grid.dt * grid.dx)
        z = z[: 10**6]
        skew = np.mean(z**3) / np.mean(z**2) ** 1.5
        kurt = np.mean(z**4) / np.mean(z**2) ** 2 - 3.0
        assert abs(skew) < 0.02
        assert abs(kurt) < 0.05

    def test_halving_dt_halves_variance_exactly(self):
        # identical standard normals, only the sqrt(dt*dx) scale changes
        g1 = make_grid(63, 2e-3, 0.02)
        g2 = make_grid(63, 1e-3, 0.02)
        plan = NoisePlan(3, 1)
        a = sample_increments(plan, g1, 4)
        b = sample_increments(plan, g2, 4)
        assert np.var(b) / np.var(a) == pytest.approx(0.5, rel=1e-12)
