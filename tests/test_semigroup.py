"""Functionals, ensemble engine, and the Monte Carlo estimators."""

import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rspde import semigroup
from rspde.coefficients import CoefficientModel, constant_model, sin_modulated_model, standard_model
from rspde.grid_noise import NoisePlan, l2_norm, make_grid
from rspde.heat import heat_apply, spectral_basis
from rspde.semigroup import (
    Functional,
    FunctionalContractError,
    bounded_cylinder,
    clipped_affine,
    direction_dictionary,
    estimate_grad_Pt,
    estimate_Pt,
    estimate_Pt_grad_sq,
    estimate_Pt_log,
    estimate_variance,
    exp_neg_pair,
    functional_from_config,
    run_ensemble,
)
from rspde.solver import BlowUpError, ReflectionLedger, _drift_noise_solve, _project, solve_path


def _no_run(*args, **kwargs):
    raise AssertionError("an ensemble ran before the input rules")


@pytest.fixture(scope="module")
def small():
    grid = make_grid(31, 1e-3, 0.05)
    model = standard_model()
    e1 = spectral_basis(31).modes[0]
    h = np.maximum(0.5 * e1, 0.0)
    return grid, model, e1, h


def closed_form_value(f, U):
    """Phi(U) written out per kind, as the catalogue table states it."""
    s = f.pair(U)
    if f.kind == "clipped_affine":
        return np.clip(f.offset + s, f.lo, f.hi)
    if f.kind == "exp_neg_pair":
        return f.lo + (f.hi - f.lo) * np.exp(-np.square(s))
    if f.smooth:
        p = semigroup._stable_logistic(f.sharpness * (np.asarray(s, dtype=float) - f.center))
        return f.lo + (f.hi - f.lo) * p
    return f.lo + (f.hi - f.lo) * (np.asarray(s) >= f.center)


def closed_form_grad_norm(f, U):
    """|grad Phi|(U) written out per kind; the hard step is 0/inf, unscaled."""
    s = np.asarray(f.pair(U), dtype=float)
    if f.kind == "clipped_affine":
        return np.where((f.offset + s > f.lo) & (f.offset + s < f.hi), f.phi_l2, 0.0)
    if f.kind == "exp_neg_pair":
        return (f.hi - f.lo) * 2.0 * np.abs(s) * np.exp(-np.square(s)) * f.phi_l2
    if f.smooth:
        p = semigroup._stable_logistic(f.sharpness * (s - f.center))
        return (f.hi - f.lo) * abs(f.sharpness) * p * (1.0 - p) * f.phi_l2
    return np.where(s == f.center, np.inf, 0.0)


def catalogue_cases(phi, dx):
    return [
        clipped_affine(phi, dx, offset=0.2),
        clipped_affine(phi, dx, offset=-0.3, lo=-1.0, hi=2.0),
        clipped_affine(phi, dx, lo=0.0, hi=0.0),
        exp_neg_pair(phi, dx),
        exp_neg_pair(phi, dx, lo=0.0, hi=3.0),
        bounded_cylinder(phi, dx, center=0.2, lo=0.1, hi=0.9, sharpness=4.0),
        bounded_cylinder(phi, dx, sharpness=-2.5),
        bounded_cylinder(phi, dx, center=-0.1, sharpness=-1e3),
        bounded_cylinder(phi, dx, lo=0.3, hi=0.3),
        bounded_cylinder(phi, dx, smooth=False),
        bounded_cylinder(phi, dx, center=0.3, lo=-1.0, hi=2.0, smooth=False),
    ]


class TestFunctionalCatalogue:
    @pytest.mark.parametrize("shape", [(31,), (31, 7), (31, 3, 5)], ids=["n", "n-P", "n-V-P"])
    @pytest.mark.parametrize("zero_phi", [False, True], ids=["e1", "zero-phi"])
    def test_value_and_grad_match_closed_forms_bitwise(self, small, shape, zero_phi):
        # psi and the signed psi' give value = psi and grad_norm = |psi'| |phi|
        # with the closed forms' bits: |a b| = |a| |b| and 1.0 |phi| = |phi|
        grid, _, e1, h = small
        rng = np.random.default_rng(21)
        U = rng.normal(size=shape) * 10.0 ** rng.uniform(-3.0, 1.0, shape[1:])
        if U.ndim > 1:
            U[:, 0] = 0.0  # s = 0: on the step and at the clip edge of lo = hi = 0
        fields = [U] if U.ndim > 1 else [U, h, 0.0 * h]
        for f, V in itertools.product(catalogue_cases(0.0 * e1 if zero_phi else e1, grid.dx), fields):
            want_value, want_grad = closed_form_value(f, V), closed_form_grad_norm(f, V)
            for got, want in [(f.value(V), want_value), (f.grad_norm(V), want_grad),
                              (f.grad_sq(V), np.square(want_grad))]:
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (f, shape)

    @pytest.mark.parametrize("bounds", [{"lo": math.nan}, {"hi": math.nan}], ids=["lo", "hi"])
    def test_nan_bound_rejected(self, small, bounds):
        # lo > hi is false for nan, so clipped_affine(phi, dx, lo=nan) used to build
        grid, _, e1, _ = small
        with pytest.raises(ValueError, match="lo <= hi"):
            clipped_affine(e1, grid.dx, **bounds)

    def test_clipped_affine_value_and_grad(self, small):
        grid, _, e1, h = small
        phi = clipped_affine(e1, grid.dx, offset=0.2, lo=0.0, hi=1.0)
        s = grid.dx * float(e1 @ h)
        assert phi.value(h) == pytest.approx(min(max(0.2 + s, 0.0), 1.0))
        assert phi.grad_norm(h) == pytest.approx(phi.phi_l2)
        low = np.zeros(grid.n_space)
        # offset 0.2 sits strictly inside (0, 1): gradient |phi| there too
        assert phi.grad_norm(low) == pytest.approx(phi.phi_l2)

    def test_clipped_affine_saturated_grad_zero(self, small):
        grid, _, e1, _ = small
        phi = clipped_affine(e1, grid.dx, offset=2.0, lo=0.0, hi=1.0)
        assert phi.grad_norm(np.zeros(grid.n_space)) == 0.0

    def test_exp_neg_pair_bounds(self, small):
        grid, _, e1, h = small
        phi = exp_neg_pair(e1, grid.dx, lo=0.1, hi=1.0)
        assert phi.strictly_positive
        vals = phi.value(np.stack([h, 5 * h, 0 * h], axis=1))
        assert np.all(vals >= 0.1) and np.all(vals <= 1.0)
        assert phi.value(0 * h) == 1.0

    def test_cylinder_smooth_and_step(self, small):
        grid, _, e1, h = small
        smooth = bounded_cylinder(e1, grid.dx, center=0.2, lo=0.1, hi=0.9, sharpness=4.0)
        step = bounded_cylinder(e1, grid.dx, center=0.2, lo=0.0, hi=1.0, smooth=False)
        assert smooth.is_c1 and not step.is_c1
        assert 0.1 < float(smooth.value(h)) < 0.9
        assert float(step.value(h)) in (0.0, 1.0)
        assert np.isinf(step.grad_norm(h)) or step.grad_norm(h) == 0.0

    def test_cylinder_negative_sharpness_grad_norm_nonnegative(self, small):
        # p(1-p) is even in the logistic's argument, so only |sharpness| enters
        grid, _, e1, h = small
        U = np.stack([h, 5 * h, -h], axis=1)
        flipped = bounded_cylinder(e1, grid.dx, sharpness=-2.0).grad_norm(U)
        assert np.all(flipped >= 0.0)
        assert flipped == pytest.approx(bounded_cylinder(e1, grid.dx, sharpness=2.0).grad_norm(U),
                                        rel=1e-12)

    def test_from_config(self, small):
        grid, _, e1, h = small
        phi = functional_from_config(grid, {
            "kind": "exp_neg_pair", "direction_modes": [1.0], "lo": 0.2, "hi": 1.0,
        })
        assert phi.kind == "exp_neg_pair"
        assert phi.value(h) == pytest.approx(0.2 + 0.8 * math.exp(-float(grid.dx * (e1 @ h)) ** 2))

    def test_unknown_kind_rejected(self, small):
        grid, _, _, _ = small
        with pytest.raises(ValueError):
            functional_from_config(grid, {"kind": "mystery", "direction_modes": [1.0]})

    def test_unknown_kind_rejected_at_construction(self, small):
        grid, _, e1, _ = small
        with pytest.raises(ValueError, match="mystery"):
            Functional("mystery", e1, grid.dx)

    @pytest.mark.parametrize("name, build", [
        ("offset", lambda e1, dx: clipped_affine(e1, dx, offset=math.nan)),
        ("sharpness", lambda e1, dx: bounded_cylinder(e1, dx, sharpness=math.nan)),
        ("center", lambda e1, dx: bounded_cylinder(e1, dx, center=math.nan)),
        ("phi", lambda e1, dx: clipped_affine(np.where(np.arange(e1.size) == 3, math.nan, e1), dx)),
        ("dx", lambda e1, dx: clipped_affine(e1, math.nan)),
        ("hi", lambda e1, dx: exp_neg_pair(e1, dx, lo=0.0, hi=math.inf)),
    ], ids=["offset-nan", "sharpness-nan", "center-nan", "phi-nan", "dx-nan", "exp-neg-pair-hi-inf"])
    def test_non_finite_argument_rejected_naming_it(self, small, name, build):
        # each used to build, then return nan or inf from value and grad_norm
        grid, _, e1, _ = small
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            build(e1, grid.dx)

    @pytest.mark.parametrize("build", [
        lambda e1, dx: clipped_affine(e1, dx, lo=0.5, hi=0.2),
        lambda e1, dx: bounded_cylinder(e1, dx, lo=1.0, hi=0.0),
        lambda e1, dx: bounded_cylinder(e1, dx, lo=1.0, hi=0.0, smooth=False),
    ], ids=["clipped_affine", "bounded_cylinder", "step"])
    def test_lo_above_hi_rejected(self, small, build):
        grid, _, e1, _ = small
        with pytest.raises(ValueError, match="lo <= hi"):
            build(e1, grid.dx)

    def test_stable_logistic_bits_match_closed_forms(self):
        # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, bit for bit; neither
        # side's exp overflows, and a nan stays a nan
        special = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 0.5, -0.5, 1.0, -1.0, 36.0, -36.0,
                   37.0, -37.0, 709.0, -709.0, 710.0, -710.0, 745.0, -745.0, 746.0, -746.0,
                   1e308, -1e308, math.inf, -math.inf]
        rng = np.random.default_rng(3)
        x = np.concatenate([special, rng.normal(size=200) * 10.0 ** rng.integers(-8, 3, 200)])
        with np.errstate(over="raise"):
            got = semigroup._stable_logistic(x)
        want = np.array([1.0 / (1.0 + np.exp(-v)) if v >= 0 else np.exp(v) / (1.0 + np.exp(v))
                         for v in x])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.isnan(semigroup._stable_logistic(np.array([math.nan, -math.nan]))).all()

    def test_lo_equal_hi_is_a_constant_functional(self, small):
        grid, _, e1, h = small
        U = np.stack([h, 5 * h, 0 * h], axis=1)
        for phi in (clipped_affine(e1, grid.dx, lo=0.3, hi=0.3),
                    bounded_cylinder(e1, grid.dx, lo=0.3, hi=0.3, sharpness=4.0)):
            assert np.all(phi.value(U) == 0.3)
            assert np.all(phi.grad_norm(U) == 0.0)


class TestRunEnsemble:
    def test_columns_match_solve_path_bitwise(self, small):
        grid, model, _, h = small
        U = run_ensemble(h[None, :], grid.n_steps, "reflected", model, grid,
                         seed=5, n_paths=4)
        for stream in range(4):
            traj = solve_path(h, "reflected", model, grid, NoisePlan(5, stream))
            assert np.array_equal(U[0, :, stream], traj.fields[-1])

    def test_threads_do_not_change_results(self, small, monkeypatch):
        grid, model, _, h = small
        results = {}
        for nt in ("1", "4"):
            monkeypatch.setenv("RSPDE_THREADS", nt)
            results[nt] = run_ensemble(np.stack([h, 0.5 * h]), grid.n_steps,
                                       "reflected", model, grid, seed=9, n_paths=600)
        assert np.array_equal(results["1"], results["4"])

    def test_variants_share_noise(self, small):
        grid, model, _, h = small
        U = run_ensemble(np.stack([h, h]), grid.n_steps, "reflected", model, grid,
                         seed=7, n_paths=3)
        assert np.array_equal(U[0], U[1])

    def test_sup_tracking_includes_t0(self, small):
        grid, model, _, h = small
        h2 = 0.5 * h
        _, sups = run_ensemble(np.stack([h, h2]), 1, "reflected", model, grid,
                               seed=7, n_paths=3, track_sup_pairs=[(0, 1)])
        assert np.all(sups >= np.max(np.abs(h - h2)) - 1e-15)

    def test_blow_up_reports_stream(self, small):
        grid, _, _, h = small
        explosive = CoefficientModel(
            name="explosive", b=lambda u: np.full_like(u, np.inf),
            sigma=lambda u: np.zeros_like(u), L_b=0.0, L_sigma=0.0,
            kappa1=0.0, kappa2=0.0,
        )
        for stream_offset in (0, 5):
            with pytest.raises(BlowUpError) as exc:
                run_ensemble(h[None, :], 3, "penalized", explosive, grid, seed=1,
                             n_paths=4, eps=1.0, stream_offset=stream_offset)
            assert getattr(exc.value, "stream", None) == stream_offset
            assert exc.value.step == 0
            assert exc.value.max_abs == np.max(h)

    @pytest.mark.parametrize("returned, copied", [
        (lambda u: u, lambda u: u.copy()),
        (lambda u: u[...], lambda u: u.copy()),
        (lambda u: np.broadcast_to(u.max(axis=0), u.shape),
         lambda u: np.broadcast_to(u.max(axis=0), u.shape).copy()),
        (lambda u: 0.5, lambda u: np.full(u.shape, 0.5)),
    ], ids=["itself", "view", "read-only-broadcast", "float"])
    def test_model_returning_its_input_leaves_fields_intact(self, small, returned, copied):
        # b and sigma may hand back u, a view of it, a read-only array or a
        # scalar: the stepper only reads those, so the run equals one whose
        # model returns fresh arrays, which the stepper may overwrite
        grid, _, _, h = small
        H = np.stack([h, 0.5 * h])
        kept = H.copy()
        same, copies = (CoefficientModel(name="identity", b=b, sigma=b, L_b=1.0, L_sigma=1.0,
                                         kappa1=0.5, kappa2=2.0)
                        for b in (returned, copied))
        for mode, eps in (("reflected", None), ("penalized", 1e-2)):
            U = run_ensemble(H, grid.n_steps, mode, same, grid, seed=4, n_paths=5, eps=eps)
            assert H.tobytes() == kept.tobytes()
            ref = run_ensemble(H, grid.n_steps, mode, copies, grid, seed=4, n_paths=5, eps=eps)
            assert U.tobytes() == ref.tobytes()
            path = solve_path(h, mode, same, grid, NoisePlan(4, 2), eps=eps)
            assert H[0].tobytes() == h.tobytes() == kept[0].tobytes()
            assert path.fields.tobytes() == U[0, :, 2].tobytes()
            ref_path = solve_path(h, mode, copies, grid, NoisePlan(4, 2), eps=eps)
            assert path.fields.tobytes() == ref_path.fields.tobytes()

    @pytest.mark.parametrize("mode, penalty", [("reflected", "negative_part"),
                                               ("penalized", "negative_part"),
                                               ("penalized", "arctan_square")],
                             ids=["reflected", "negative_part", "arctan_square"])
    def test_v16_pass_peak_memory(self, monkeypatch, mode, penalty):
        # one thread, 16 variants, one 256-stream chunk: besides its output
        # the pass holds at most 3.5 arrays of the chunk's field size (the
        # field, the drift sum in b's array and the noise term in sigma's)
        monkeypatch.setenv("RSPDE_THREADS", "1")
        grid = make_grid(63, 2.5e-3, 0.25)
        model = sin_modulated_model(penalty=penalty)
        eps = 1e-3 if mode == "penalized" else None
        H = np.abs(np.random.default_rng(0).normal(size=(16, grid.n_space)))
        run_ensemble(H, 1, mode, model, grid, seed=3, n_paths=256, eps=eps)  # warm the caches
        tracemalloc.start()
        try:
            out = run_ensemble(H, 3, mode, model, grid, seed=3, n_paths=256, eps=eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        field_bytes = grid.n_space * 16 * 256 * 8
        assert (peak - out.nbytes) / field_bytes <= 3.5

    @pytest.mark.parametrize("n_paths", [2, 3, 5, 255, 256, 260, 700, 1001])
    @pytest.mark.parametrize("n_variants", [1, 16])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_per_path_values_match_the_fields_bitwise(self, monkeypatch, threads, n_variants,
                                                      n_paths):
        # each chunk reduces its own columns, variant by variant; these widths
        # leave no last chunk of 1-3 streams, which BLAS rounds by another path
        monkeypatch.setenv("RSPDE_THREADS", threads)
        grid = make_grid(63, 2.5e-3, 0.25)
        model = sin_modulated_model()
        H = np.abs(np.random.default_rng(n_variants).normal(size=(n_variants, grid.n_space)))
        phi = clipped_affine(spectral_basis(63).modes[0], grid.dx, offset=0.5, lo=0.0, hi=50.0)
        fns = [phi.value, phi.grad_sq, lambda u: np.max(u, axis=0)]
        values = run_ensemble(H, 3, "reflected", model, grid, seed=6, n_paths=n_paths, per_path=fns)
        U = run_ensemble(H, 3, "reflected", model, grid, seed=6, n_paths=n_paths)
        assert values.shape == (n_variants, len(fns), n_paths)
        for v in range(n_variants):
            for r, f in enumerate(fns):
                assert values[v, r].tobytes() == f(U[v]).tobytes()

    def test_empty_per_path_keeps_the_sups(self, small):
        grid, model, _, h = small
        H = np.stack([h, 0.5 * h])
        U, sups = run_ensemble(H, 4, "reflected", model, grid, seed=7, n_paths=3,
                               track_sup_pairs=[(0, 1)])
        values, same = run_ensemble(H, 4, "reflected", model, grid, seed=7, n_paths=3,
                                    track_sup_pairs=[(0, 1)], per_path=[])
        assert values.shape == (2, 0, 3)
        assert same.tobytes() == sups.tobytes()

    def test_gradient_pass_holds_no_field_array(self, monkeypatch):
        # one thread, 16 variants, 1024 streams: the pass reduces each chunk as it
        # finishes, so it peaks below the (16, 63, 1024) field array alone (4 chunk
        # fields, 8.3 MB), which the estimator held before it read its values
        monkeypatch.setenv("RSPDE_THREADS", "1")
        grid = make_grid(63, 2.5e-3, 0.25)
        model = sin_modulated_model()
        e1 = spectral_basis(63).modes[0]
        h = np.maximum(1.5 * e1, 0.0)
        phi = clipped_affine(e1, grid.dx, offset=0.5, lo=0.0, hi=50.0)
        directions = direction_dictionary(grid, 8, include_parts=False)
        args = (phi, h, 3 * grid.dt, "reflected", model, grid)
        estimate_grad_Pt(*args, 256, seed=3, directions=directions)  # warm the caches
        tracemalloc.start()
        try:
            estimate_grad_Pt(*args, 1024, seed=3, directions=directions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (grid.n_space * 16 * 256 * 8) <= 3.5

    @pytest.mark.parametrize("kwargs, name", [
        ({"n_run_steps": -3}, "n_run_steps"),
        ({"n_run_steps": 51}, "n_run_steps"),
        ({"n_paths": 0}, "n_paths"),
        ({"n_paths": -1}, "n_paths"),
        ({"stream_offset": -1}, "stream_offset"),
        ({"stream_offset": 2**64 - 4}, "stream_offset"),
    ], ids=["steps-negative", "steps-beyond-grid", "paths-0", "paths-negative",
            "offset-negative", "offset-past-2**64"])
    def test_bad_run_arguments_named_before_any_chunk(self, small, monkeypatch, kwargs, name):
        # n_run_steps=-3 used to return the start fields, n_paths=-1 failed in
        # numpy and stream_offset=-1 ran stream 2**64-1
        grid, model, _, h = small
        chunks = []
        monkeypatch.setattr(semigroup, "_lockstep", lambda *a: chunks.append(a) or iter(()))
        args = {"n_run_steps": 3, "n_paths": 5, **kwargs}
        with pytest.raises(ValueError, match=name):
            run_ensemble(h, mode="reflected", model=model, grid=grid, seed=1, **args)
        assert chunks == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_start_named_before_any_chunk(self, small, monkeypatch, bad):
        # a nan start used to end in a BlowUpError at step 0 that read
        # "last finite max |u| = nan"
        grid, model, _, h = small
        chunks = []
        monkeypatch.setattr(semigroup, "_lockstep", lambda *a: chunks.append(a) or iter(()))
        H = np.stack([h, h])
        H[1, 3] = bad
        with pytest.raises(ValueError, match="initial field must be finite"):
            run_ensemble(H, 3, "reflected", model, grid, seed=1, n_paths=5)
        assert chunks == []

    def test_last_streams_below_2_64_run(self, small):
        grid, model, _, h = small
        U = run_ensemble(h, 3, "reflected", model, grid, seed=1, n_paths=2,
                         stream_offset=2**64 - 2)
        path = solve_path(h, "reflected", model, grid, NoisePlan(1, 2**64 - 1),
                          save_at=[3 * grid.dt])
        assert np.array_equal(U[0, :, 1], path.fields[-1])

    def test_bad_thread_count_names_variable(self, small, monkeypatch):
        grid, model, _, h = small
        monkeypatch.setenv("RSPDE_THREADS", "abc")
        with pytest.raises(ValueError, match="RSPDE_THREADS.*'abc'"):
            run_ensemble(h[None, :], 1, "reflected", model, grid, seed=1, n_paths=2)


@st.composite
def small_runs(draw):
    """A random small grid, model, mode and stack of initial fields."""
    n_space = draw(st.integers(3, 9))
    dt = draw(st.sampled_from([1e-3, 1e-2, 5e-2]))
    grid = make_grid(n_space, dt, dt * draw(st.integers(1, 5)))
    model = draw(st.sampled_from([standard_model(), constant_model(-2.0, 1.0)]))
    mode, eps = draw(st.sampled_from([("reflected", None), ("penalized", 1e-3),
                                      ("penalized", 1e-1)]))
    node = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
    H = np.array(draw(st.lists(st.lists(node, min_size=n_space, max_size=n_space),
                               min_size=1, max_size=3)))
    return grid, model, mode, eps, H, draw(st.integers(0, 2**32)), draw(st.integers(1, 7))


class TestBitwiseInvariants:
    """What holds bitwise in reflected and negative_part penalized runs.

    The arctan_square resolvent is left out: its Newton sweep stops on the
    largest residual of the whole slab, so its columns depend on each other.
    """

    @given(run=small_runs())
    @settings(max_examples=30, deadline=None)
    def test_chunk_width_stacking_and_solve_path(self, run):
        grid, model, mode, eps, H, seed, n_paths = run
        by_width = {}
        for width in (1, 3, 256):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(semigroup, "_STREAM_CHUNK", width)
                mp.setenv("RSPDE_THREADS", "2")
                by_width[width] = run_ensemble(H, grid.n_steps, mode, model, grid,
                                               seed, n_paths, eps=eps)
        U = by_width[256]
        assert np.array_equal(by_width[1], U) and np.array_equal(by_width[3], U)
        for v, h in enumerate(H):
            alone = run_ensemble(h[None, :], grid.n_steps, mode, model, grid,
                                 seed, n_paths, eps=eps)
            assert np.array_equal(alone[0], U[v])
            for stream in range(n_paths):
                traj = solve_path(h, mode, model, grid, NoisePlan(seed, stream), eps=eps)
                assert np.array_equal(traj.fields[-1], U[v, :, stream])
                if mode == "reflected":
                    assert traj.ledger.complementarity_sum == 0.0


class TestEstimatePt:
    def test_t_zero_is_identity(self, small):
        grid, model, e1, h = small
        phi = clipped_affine(e1, grid.dx, lo=-10, hi=10)
        est = estimate_Pt(phi, h, 0.0, "reflected", model, grid, 100, seed=1)
        assert est.mean == float(phi.value(h))
        assert est.std_error == 0.0

    def test_constant_functional(self, small):
        grid, model, e1, h = small
        phi = clipped_affine(e1, grid.dx, offset=0.7, lo=0.7, hi=0.7)
        est = estimate_Pt(phi, h, 0.05, "reflected", model, grid, 50, seed=1)
        # every path value is exactly 0.7; the mean picks up only summation
        # rounding and the spread estimate is at the same scale
        assert est.mean == pytest.approx(0.7, rel=1e-15)
        assert est.std_error <= 1e-15

    def test_linear_case_matches_heat_oracle(self):
        # tiny constant diffusion, no drift: while the trajectory stays
        # inside the cone the first-mode pairing evolves by the heat factor
        grid = make_grid(31, 1e-3, 0.05)
        model = constant_model(0.0, 0.02, kappa1=0.01, kappa2=0.03)
        e1 = spectral_basis(31).modes[0]
        h = np.maximum(0.5 * e1, 0.0)
        phi = clipped_affine(e1, grid.dx, lo=-100.0, hi=100.0)
        est = estimate_Pt(phi, h, 0.05, "reflected", model, grid, 400, seed=12)
        target = grid.dx * float(e1 @ heat_apply(h, 0.05))
        slack = 3 * est.std_error + 5 * (grid.dt + grid.dx**2) * abs(target)
        assert abs(est.mean - target) <= slack

    def test_linear_case_positivity_window(self):
        # the oracle above is valid because clipping is empirically rare:
        # fewer than 1 in 1000 paths touch the constraint
        grid = make_grid(31, 1e-3, 0.05)
        model = constant_model(0.0, 0.02, kappa1=0.01, kappa2=0.03)
        h = np.maximum(0.5 * spectral_basis(31).modes[0], 0.0)
        n_paths = 1000
        ledger = ReflectionLedger.empty((grid.n_space, n_paths))
        U = np.broadcast_to(h[:, None], (grid.n_space, n_paths)).copy()
        plan = NoisePlan(12)
        from rspde.grid_noise import increments_matrix

        for m in range(grid.n_steps):
            dW = increments_matrix(plan, grid, m, np.arange(n_paths))
            U = _project(_drift_noise_solve(U, dW, model, grid), grid, ledger)
        clipped_paths = np.count_nonzero(np.sum(ledger.node_mass, axis=0) > 0)
        assert clipped_paths / n_paths < 0.001

    def test_monotone_in_functional(self, small):
        grid, model, e1, h = small
        lo = clipped_affine(e1, grid.dx, offset=0.0, lo=-5, hi=5)
        hi = clipped_affine(e1, grid.dx, offset=1.0, lo=-4, hi=6)
        a = estimate_Pt(lo, h, 0.05, "reflected", model, grid, 64, seed=3)
        b = estimate_Pt(hi, h, 0.05, "reflected", model, grid, 64, seed=3)
        assert a.mean <= b.mean  # pointwise Phi1 <= Phi2 with shared paths

    def test_positive_functional_nonnegative_mean(self, small):
        grid, model, e1, h = small
        phi = exp_neg_pair(e1, grid.dx, lo=0.0, hi=1.0)
        est = estimate_Pt(phi, h, 0.05, "reflected", model, grid, 64, seed=4)
        assert est.mean >= 0.0

    def test_bitwise_reproducible(self, small):
        grid, model, e1, h = small
        phi = clipped_affine(e1, grid.dx, lo=-5, hi=5)
        a = estimate_Pt(phi, h, 0.05, "reflected", model, grid, 128, seed=11)
        b = estimate_Pt(phi, h, 0.05, "reflected", model, grid, 128, seed=11)
        assert (a.mean, a.std_error) == (b.mean, b.std_error)

    def test_rejects_negative_initial_field(self, small):
        # the ensemble obeys solve_path's sign rule instead of running from -h
        grid, model, e1, h = small
        phi = clipped_affine(e1, grid.dx, lo=-5, hi=5)
        with pytest.raises(ValueError, match="initial field must be entrywise >= 0"):
            estimate_Pt(phi, -h, 0.05, "reflected", model, grid, 16, seed=11)
        with pytest.raises(ValueError, match="initial field must be entrywise >= 0"):
            run_ensemble(np.stack([h, -h]), 1, "penalized", model, grid, seed=11, n_paths=2,
                         eps=1e-2)

    def test_rejects_off_mesh_time(self, small):
        grid, model, e1, h = small
        phi = clipped_affine(e1, grid.dx)
        with pytest.raises(ValueError):
            estimate_Pt(phi, h, 0.0505, "reflected", model, grid, 16, seed=0)

    def test_two_stage_semigroup_consistency(self):
        grid = make_grid(31, 2e-3, 0.12)
        model = standard_model()
        e1 = spectral_basis(31).modes[0]
        h = np.maximum(0.8 * e1, 0.0)
        phi = exp_neg_pair(e1, grid.dx, lo=0.1, hi=1.0)
        direct = estimate_Pt(phi, h, 0.12, "reflected", model, grid, 2048, seed=21)
        n_outer, n_inner = 32, 64
        mid = run_ensemble(h[None, :], grid.step_of(0.06), "reflected", model, grid,
                           seed=21, n_paths=n_outer)[0]
        inner = run_ensemble(mid.T, grid.step_of(0.06), "reflected", model, grid,
                             seed=21, n_paths=n_inner, stream_offset=10_000)
        per_outer = np.mean(phi.value(inner.transpose(1, 0, 2)), axis=1)
        nested = float(np.mean(per_outer))
        se_nested = float(np.std(per_outer, ddof=1) / math.sqrt(n_outer))
        gap = abs(direct.mean - nested)
        assert gap <= 3.0 * math.sqrt(direct.std_error**2 + se_nested**2) + 5e-3


@pytest.mark.parametrize("estimator", [estimate_Pt, estimate_Pt_log, estimate_Pt_grad_sq,
                                       estimate_variance, estimate_grad_Pt])
@pytest.mark.parametrize("t", [0.0, 0.05])
def test_single_path_rejected(small, estimator, t):
    # one path has no standard error
    grid, model, e1, h = small
    phi = exp_neg_pair(e1, grid.dx, lo=0.1, hi=1.0)
    with pytest.raises(ValueError, match="n_paths"):
        estimator(phi, h, t, "reflected", model, grid, 1, seed=1)


@pytest.mark.parametrize("estimator", [estimate_Pt, estimate_Pt_log, estimate_Pt_grad_sq,
                                       estimate_variance, estimate_grad_Pt])
@pytest.mark.parametrize("t", [0.0, 0.05])
@pytest.mark.parametrize("rule", ["negative-field", "unknown-mode", "penalized-without-eps"])
def test_run_rules_hold_at_every_t(small, estimator, t, rule):
    # the rules hold for h itself, before the t = 0 shortcut and not only
    # through the cone projections h +/- delta k of the gradient proxy
    grid, model, e1, h = small
    phi = exp_neg_pair(e1, grid.dx, lo=0.1, hi=1.0)
    dented = h.copy()
    dented[0] = -1e-6
    field, mode, match = {
        "negative-field": (dented, "reflected", "initial field must be entrywise >= 0"),
        "unknown-mode": (h, "bogus", "unknown mode"),
        "penalized-without-eps": (h, "penalized", "penalized mode needs eps > 0"),
    }[rule]
    with pytest.raises(ValueError, match=match):
        estimator(phi, field, t, mode, model, grid, 16, seed=1)


class TestEstimateLogAndVariance:
    def test_log_constant(self, small):
        grid, model, e1, h = small
        phi = clipped_affine(e1, grid.dx, offset=0.5, lo=0.5, hi=0.5)
        est = estimate_Pt_log(phi, h, 0.05, "reflected", model, grid, 32, seed=2)
        assert est.mean == pytest.approx(math.log(0.5), rel=1e-12)

    def test_log_t_zero(self, small):
        grid, model, e1, h = small
        phi = exp_neg_pair(e1, grid.dx, lo=0.1, hi=1.0)
        est = estimate_Pt_log(phi, h, 0.0, "reflected", model, grid, 32, seed=2)
        assert est.mean == pytest.approx(math.log(float(phi.value(h))), rel=1e-12)

    def test_jensen_inequality(self, small):
        grid, model, e1, h = small
        phi = exp_neg_pair(e1, grid.dx, lo=0.1, hi=1.0)
        log_est = estimate_Pt_log(phi, h, 0.05, "reflected", model, grid, 256, seed=6)
        mean_est = estimate_Pt(phi, h, 0.05, "reflected", model, grid, 256, seed=6)
        # shared paths make this a sure inequality, no slack needed
        assert log_est.mean <= math.log(mean_est.mean) + 1e-12

    def test_log_requires_strict_positivity(self, small):
        grid, model, e1, h = small
        phi = clipped_affine(e1, grid.dx, lo=0.0, hi=1.0)
        with pytest.raises(ValueError):
            estimate_Pt_log(phi, h, 0.05, "reflected", model, grid, 16, seed=0)

    def test_functional_contract_error(self, small):
        from rspde.semigroup import Functional

        class LyingFunctional(Functional):
            # declares the floor lo = 0.45 but clips its values at 0
            def value(self, U):
                return np.clip(self.offset + self.pair(U), 0.0, self.hi)

        grid, model, _, h = small
        e2 = spectral_basis(31).modes[1]  # sign-changing pairing direction
        phi = LyingFunctional("clipped_affine", e2, grid.dx, offset=0.5, lo=0.45, hi=2.0)
        with pytest.raises(FunctionalContractError):
            estimate_Pt_log(phi, h, 0.05, "reflected", model, grid, 256, seed=8)

    def test_variance_constant_zero(self, small):
        grid, model, e1, h = small
        phi = clipped_affine(e1, grid.dx, offset=0.3, lo=0.3, hi=0.3)
        est = estimate_variance(phi, h, 0.05, "reflected", model, grid, 64, seed=2)
        assert est.mean == 0.0

    def test_variance_t_zero(self, small):
        grid, model, e1, h = small
        phi = clipped_affine(e1, grid.dx)
        est = estimate_variance(phi, h, 0.0, "reflected", model, grid, 64, seed=2)
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_variance_positive_with_bootstrap(self, small):
        grid, model, e1, h = small
        phi = clipped_affine(e1, grid.dx, lo=-5, hi=5)
        est = estimate_variance(phi, h, 0.05, "reflected", model, grid, 400, seed=14)
        assert est.mean > 0.0


class TestEstimateGrad:
    def test_constant_functional_zero(self, small):
        grid, model, e1, h = small
        phi = clipped_affine(e1, grid.dx, offset=0.4, lo=0.4, hi=0.4)
        est = estimate_grad_Pt(phi, h, 0.05, "reflected", model, grid, 32, seed=2)
        assert est.value == 0.0

    def test_t_zero_recovers_functional_gradient(self, small):
        grid, model, e1, h = small
        phi = clipped_affine(e1, grid.dx, offset=0.2, lo=-10, hi=10)
        est = estimate_grad_Pt(phi, h, 0.0, "reflected", model, grid, 32, seed=2,
                               directions=direction_dictionary(grid, 1, include_parts=False))
        assert est.value == pytest.approx(float(phi.grad_norm(h)), rel=1e-10)

    def test_direction_dictionary_shapes(self, small):
        grid, _, _, _ = small
        dirs = direction_dictionary(grid, 8, include_parts=False)
        assert isinstance(dirs, dict)
        assert list(dirs) == [f"e{i}" for i in range(1, 9)]
        dirs_p = direction_dictionary(grid, 8, include_parts=True)
        assert len(dirs_p) == 8 + 7 * 2  # first-mode parts are degenerate
        assert list(dirs_p)[:4] == ["e1", "e2", "e2+", "e2-"]  # mode order
        for f in dirs_p.values():
            assert l2_norm(f, grid.dx) == pytest.approx(1.0, rel=1e-12)

    def test_boundary_directions_rejected(self, small):
        grid, model, e1, _ = small
        phi = clipped_affine(e1, grid.dx, lo=-5, hi=5)
        # field supported on the left half: probes into the dead zone move
        # h - delta*k outside the cone and get rejected, in-support probes stay
        h_half = np.maximum(spectral_basis(31).modes[1], 0.0)
        est = estimate_grad_Pt(phi, h_half, 0.0, "reflected", model, grid, 16, seed=2)
        assert "e1" in est.rejected
        assert "e2+" in est.per_direction
        assert not est.rejected.keys() & est.per_direction.keys()
        order = list(direction_dictionary(grid))  # each dict keeps the dictionary's order
        for got in (est.rejected, est.per_direction):
            assert list(got) == [lbl for lbl in order if lbl in got]

    def test_all_directions_rejected_raises(self, small):
        grid, model, e1, _ = small
        phi = clipped_affine(e1, grid.dx, lo=-5, hi=5)
        with pytest.raises(ValueError):
            estimate_grad_Pt(phi, np.zeros(grid.n_space), 0.0, "reflected", model,
                             grid, 16, seed=2)

    @pytest.mark.parametrize("delta", [0.0, -1e-3])
    def test_nonpositive_delta_rejected(self, small, delta):
        # delta = 0 divided by zero into a nan estimate with a nan std error
        grid, model, e1, h = small
        phi = clipped_affine(e1, grid.dx, offset=0.2, lo=-10, hi=10)
        with pytest.raises(ValueError, match="delta"):
            estimate_grad_Pt(phi, h, 0.05, "reflected", model, grid, 4, seed=2,
                             directions={"e1": e1}, delta=delta)

    @pytest.mark.parametrize("delta", [math.inf, math.nan])
    def test_non_finite_delta_rejected(self, small, monkeypatch, delta):
        grid, model, e1, h = small
        monkeypatch.setattr(semigroup, "run_ensemble", _no_run)
        phi = clipped_affine(e1, grid.dx, offset=0.2, lo=-10, hi=10)
        with pytest.raises(ValueError, match="delta must be > 0 and finite"):
            estimate_grad_Pt(phi, h, 0.05, "reflected", model, grid, 4, seed=2,
                             directions={"e1": e1}, delta=delta)

    def test_empty_directions_named(self, small, monkeypatch):
        # used to report that every direction was rejected at the cone boundary
        grid, model, e1, h = small
        monkeypatch.setattr(semigroup, "run_ensemble", _no_run)
        phi = clipped_affine(e1, grid.dx, offset=0.2, lo=-10, hi=10)
        for directions in ({}, direction_dictionary(grid, 0)):
            with pytest.raises(ValueError, match="directions is empty"):
                estimate_grad_Pt(phi, h, 0.05, "reflected", model, grid, 4, seed=2,
                                 directions=directions)

    def test_direction_of_another_length_named(self, small, monkeypatch):
        # used to fail in numpy with "operands could not be broadcast together"
        grid, model, e1, h = small
        monkeypatch.setattr(semigroup, "run_ensemble", _no_run)
        phi = clipped_affine(e1, grid.dx, offset=0.2, lo=-10, hi=10)
        with pytest.raises(ValueError, match=r"direction 'short' has shape \(30,\), expected \(31,\)"):
            estimate_grad_Pt(phi, h, 0.05, "reflected", model, grid, 4, seed=2,
                             directions={"e1": e1, "short": e1[:30]})

    def test_single_direction_t_zero_value(self, small):
        grid, model, e1, h = small
        phi = clipped_affine(e1, grid.dx, offset=0.2, lo=-10, hi=10)
        est = estimate_grad_Pt(phi, h, 0.0, "reflected", model, grid, 16, seed=2,
                               directions={"e1": e1})
        assert est.value == pytest.approx(float(phi.grad_norm(h)), rel=1e-10)

    def test_two_directions_t_zero_value(self, small):
        grid, model, e1, h = small
        e2 = spectral_basis(31).modes[1]
        phi = clipped_affine(e1, grid.dx, offset=0.2, lo=-10, hi=10)
        est = estimate_grad_Pt(phi, h, 0.0, "reflected", model, grid, 16, seed=2,
                               directions={"e1": e1, "e2": e2})
        assert est.best_direction == "e1"
        assert est.value == pytest.approx(float(phi.grad_norm(h)), rel=1e-10)

    @pytest.mark.parametrize("directions", [[np.ones(31)], (np.ones(31), np.ones(31))],
                             ids=["list", "two-tuple"])
    def test_bare_sequence_rejected(self, small, directions):
        # a sequence of fields carries no labels, a 2-tuple of them included
        grid, model, e1, h = small
        phi = clipped_affine(e1, grid.dx, offset=0.2, lo=-10, hi=10)
        with pytest.raises(TypeError, match=r"directions must be a dict \{label: field\}"):
            estimate_grad_Pt(phi, h, 0.0, "reflected", model, grid, 16, seed=2,
                             directions=directions)

    def test_coupled_beats_uncoupled_stderror(self, small):
        grid, model, e1, h = small
        phi = clipped_affine(e1, grid.dx, lo=-5, hi=5)
        delta = 1e-3
        est = estimate_grad_Pt(phi, h, 0.05, "reflected", model, grid, 1000, seed=5,
                               directions={"e1": e1}, delta=delta)
        hp = np.maximum(h + delta * e1, 0.0)
        hm = np.maximum(h - delta * e1, 0.0)
        up = estimate_Pt(phi, hp, 0.05, "reflected", model, grid, 1000, seed=5)
        um = estimate_Pt(phi, hm, 0.05, "reflected", model, grid, 1000, seed=987_654)
        se_uncoupled = math.sqrt(up.std_error**2 + um.std_error**2) / (2 * delta)
        assert est.std_error < se_uncoupled
