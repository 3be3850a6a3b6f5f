"""Grid construction and the reproducible noise source."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rspde.grid_noise as grid_noise
from rspde.grid_noise import (
    NoisePlan,
    increments_matrix,
    l2_norm,
    make_grid,
    project_nonneg,
    sample_increments,
    sine_profile,
    sup_norm,
    _uniforms,
)


# Reference Philox4x64-10 in vectorised numpy: the round recap of
# docs/noise.md, kept to check the compiled generator the noise layer uses.
_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = np.uint64(0x9E3779B97F4A7C15)
_W1 = np.uint64(0xBB67AE8584CAA73B)
_MASK32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


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


def philox_reference(master_seed, stream_ids, step, n_raw):
    """Raw words per (seed, stream, step), shape (n_raw, n_streams).

    Block j of four words is Philox4x64-10 applied to counter words
    [j+1, 0, step, 0] with key words [seed, stream].
    """
    n_streams = len(stream_ids)
    n_blocks = -(-n_raw // 4)
    c0 = np.repeat(np.arange(1, n_blocks + 1, dtype=np.uint64), n_streams)
    c1 = c3 = np.zeros(n_blocks * n_streams, dtype=np.uint64)
    c2 = np.full(n_blocks * n_streams, np.uint64(step % (1 << 64)))
    k0 = np.full(n_blocks * n_streams, np.uint64(master_seed % (1 << 64)))
    k1 = np.tile(np.asarray(stream_ids, dtype=np.uint64), n_blocks)
    with np.errstate(over="ignore"):
        for _ in range(10):
            hi0, lo0 = _mulhilo(_M0, c0)
            hi1, lo1 = _mulhilo(_M1, c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
            k0 = k0 + _W0
            k1 = k1 + _W1
    # (4, n_blocks, S) -> word order 4*j + q per stream column
    out = np.stack((c0, c1, c2, c3)).reshape(4, n_blocks, n_streams)
    return out.transpose(1, 0, 2).reshape(4 * n_blocks, n_streams)[:n_raw]


def uniform_reference(master_seed, stream_ids, step, n_u):
    """Uniforms (r >> 11) * 2**-53 of the reference words, shape (n_u, n_streams)."""
    return (philox_reference(master_seed, stream_ids, step, n_u) >> np.uint64(11)) * 2.0**-53


def uniform_oracle(master_seed, stream, step, n_u):
    """numpy's own Philox built from (counter, key), through ``Generator.random``."""
    bitgen = np.random.Philox(counter=step << 128, key=master_seed + (stream << 64))
    return np.random.Generator(bitgen).random(n_u)


NOISE_SEEDS = [0, 1, 2**63 + 5, 2**64 - 1]
NOISE_STEPS = [0, 1, 2**40]  # test_increments_from_reference_words steps past 2**40 too
NOISE_STREAM_SETS = {
    1: [[0], [7], [2**64 - 1]],
    3: [[0, 7, 2**64 - 1]],
    256: [[0, 7, 2**64 - 1, *range(1000, 1253)]],
}


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

    @pytest.mark.parametrize("n_space", [15.5, 15.0, True, "15", None],
                             ids=["fraction", "integral-float", "bool", "str", "none"])
    def test_rejects_a_non_integer_n_space(self, n_space):
        # 15.5 used to build a grid with n_space = 15.5
        with pytest.raises(ValueError, match="n_space must be an integer"):
            make_grid(n_space, 0.01, 0.1)

    def test_numpy_integer_n_space_builds_the_same_grid(self):
        grid = make_grid(np.int64(15), 0.01, 0.1)
        assert grid == make_grid(15, 0.01, 0.1) and type(grid.n_space) is int

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_rejects_a_non_finite_dt(self, dt):
        # nan failed with "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match="dt must be > 0 and finite"):
            make_grid(15, dt, 0.1)

    @pytest.mark.parametrize("t_final", [math.nan, math.inf])
    def test_rejects_a_non_finite_t_final(self, t_final):
        # inf failed with an OverflowError
        with pytest.raises(ValueError, match="t_final must be >= dt and finite"):
            make_grid(15, 0.01, t_final)

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
        # the documented contract: the raw stream equals numpy's Philox built
        # from (counter, key) and the round recap of docs/noise.md, and the
        # uniforms are its words mapped by Generator.random; seed 2**64 - 1
        # with stream 0 is key 2**64 - 1
        for seed in NOISE_SEEDS:
            for step in NOISE_STEPS:
                for streams in [s for sets in NOISE_STREAM_SETS.values() for s in sets]:
                    for n in (63, 64):
                        mine = _uniforms(seed, np.array(streams, dtype=np.uint64), step, n)
                        words = philox_reference(seed, streams, step, n)
                        assert mine.shape == (n, len(streams))
                        assert np.array_equal(mine, (words >> np.uint64(11)) * 2.0**-53)
                        for col in (0, len(streams) // 2, len(streams) - 1):
                            raw = np.random.Philox(
                                counter=step << 128, key=seed + (streams[col] << 64)
                            ).random_raw(n)
                            assert np.array_equal(words[:, col], raw)
                            oracle = uniform_oracle(seed, streams[col], step, n)
                            assert np.array_equal(mine[:, col], oracle)

    @given(seed=st.integers(0, 2**64 - 1),
           streams=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3),
           step=st.integers(0, 2**64 - 1), n_u=st.integers(1, 70))
    @settings(max_examples=60, deadline=None)
    def test_uniforms_match_reference(self, seed, streams, step, n_u):
        # partial blocks at every n_u mod 4, at keys and steps up to 2**64 - 1
        mine = _uniforms(seed, streams, step, n_u)
        assert mine.shape == (n_u, len(streams))
        assert np.array_equal(mine, uniform_reference(seed, streams, step, n_u))

    @pytest.mark.parametrize("width", sorted(NOISE_STREAM_SETS))
    def test_increments_from_reference_words(self, monkeypatch, width):
        # Box-Muller gives the same bits whether the uniforms come from the
        # compiled generator or from the reference words, at a step past 2**40
        grid = make_grid(63, 1e-3, 1e-3 * (2**40 + 4))
        plan = NoisePlan(2**63 + 5)
        streams = NOISE_STREAM_SETS[width][-1]
        fast = increments_matrix(plan, grid, 2**40 + 3, streams)
        monkeypatch.setattr(grid_noise, "_uniforms", uniform_reference)
        assert fast.tobytes() == increments_matrix(plan, grid, 2**40 + 3, streams).tobytes()

    def test_batched_equals_single(self):
        grid = make_grid(63, 1e-3, 0.1)
        plan = NoisePlan(11, 0)
        for streams in ([3, 10, 200], [0, 7, 2**64 - 1]):
            mat = increments_matrix(plan, grid, 5, streams)
            for col, stream in enumerate(streams):
                single = sample_increments(NoisePlan(plan.master_seed, stream), grid, 5)
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

    def test_golden_values_frozen(self):
        # pins the full documented pipeline (Philox uniforms -> Box-Muller ->
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


class TestNoiseThreads:
    TRIPLES = [(seed, stream, step) for seed in (3, 2**64 - 1) for stream in (0, 5, 2**64 - 1)
               for step in (0, 2, 7)]

    def test_concurrent_calls_equal_serial(self):
        # four threads walk the triples from different starting points, so
        # calls for different (seed, stream, step) interleave on every thread
        grid = make_grid(63, 1e-3, 0.01)

        def call(triple):
            seed, stream, step = triple
            return increments_matrix(NoisePlan(seed), grid, step, [stream, stream ^ 1, 9])

        serial = {t: call(t) for t in self.TRIPLES}
        results, errors = [], []

        def worker(order):
            try:
                for _ in range(20):
                    for t in order:
                        results.append((t, call(t)))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        orders = [self.TRIPLES[k:] + self.TRIPLES[:k] for k in (0, 5, 9, 13)]
        threads = [threading.Thread(target=worker, args=(order,)) for order in orders]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        assert len(results) == 20 * 4 * len(self.TRIPLES)
        for t, got in results:
            assert got.tobytes() == serial[t].tobytes()

    def test_reset_after_partial_block(self):
        # an n_u that is not a multiple of four, odd or even, takes words
        # from a part of a block; every later stream must still start from
        # an empty buffer at counter [1, 0, step, 0]
        calls = [(5, 7, 3, [0, 2**64 - 1]), (64, 9, 0, [2**64 - 1]),
                 (3, 2**64 - 1, 2**40, [2**64 - 1, 1]), (64, 9, 1, [5, 2**64 - 1, 0]),
                 (62, 4, 2, [1, 2**64 - 1]), (64, 4, 2, [1, 2**64 - 1])]
        got = []

        def run():
            for n_u, seed, step, streams in calls:
                got.append(_uniforms(seed, streams, step, n_u))

        th = threading.Thread(target=run)
        th.start()
        th.join(timeout=60)
        assert len(got) == len(calls)
        for (n_u, seed, step, streams), u in zip(calls, got):
            assert u.shape == (n_u, len(streams))
            assert np.array_equal(u, uniform_reference(seed, streams, step, n_u))
            for col, stream in enumerate(streams):
                assert np.array_equal(u[:, col], uniform_oracle(seed, stream, step, n_u))

    def test_held_lock_blocks_a_call_until_released(self):
        # the generator is shared: a call waits for the lock, then gives
        # the bytes of a serial call
        grid = make_grid(63, 1e-3, 0.01)
        plan, streams = NoisePlan(2**64 - 1), [0, 5, 2**64 - 1]
        serial = increments_matrix(plan, grid, 7, streams)
        got = []
        th = threading.Thread(target=lambda: got.append(increments_matrix(plan, grid, 7, streams)))
        with grid_noise._PHILOX_LOCK:
            th.start()
            th.join(timeout=0.2)
            blocked = th.is_alive() and got == []
        th.join(timeout=60)
        assert blocked
        assert not th.is_alive()
        assert got[0].tobytes() == serial.tobytes()

    def test_threads_share_one_generator(self):
        # three threads that start together build exactly one generator
        grid = make_grid(15, 1e-2, 0.1)
        grid_noise._philox.cache_clear()
        barrier = threading.Barrier(3, timeout=60)
        results = {}

        def worker(k):
            barrier.wait()
            results[k] = [increments_matrix(NoisePlan(k), grid, step, [k, 9]) for step in range(5)]

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(3)]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(th.is_alive() for th in threads)
        info = grid_noise._philox.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        for k in range(3):
            for step in range(5):
                serial = increments_matrix(NoisePlan(k), grid, step, [k, 9])
                assert results[k][step].tobytes() == serial.tobytes()

    def test_call_after_other_seed_equals_fresh_thread(self):
        grid = make_grid(15, 1e-2, 0.1)
        plan = NoisePlan(11, 4)
        sample_increments(NoisePlan(12, 9), grid, 8)
        after = sample_increments(plan, grid, 2)
        fresh = []
        th = threading.Thread(target=lambda: fresh.append(sample_increments(plan, grid, 2)))
        th.start()
        th.join(timeout=60)
        assert not th.is_alive()
        assert after.tobytes() == fresh[0].tobytes()


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
