"""Inequality checkers and coupled comparison experiments."""

import math

import numpy as np
import pytest

from rspde import grid_noise, semigroup, verify
from rspde.coefficients import BoundProfile, constant_model, standard_model, zeta
from rspde.grid_noise import NoisePlan, increments_matrix, make_grid
from rspde.heat import spectral_basis
from rspde.semigroup import (
    bounded_cylinder,
    clipped_affine,
    direction_dictionary,
    estimate_grad_Pt,
    exp_neg_pair,
    run_ensemble,
)
from rspde.solver import BlowUpError, solve_path
from rspde.verify import (
    check_eps_convergence,
    check_eps_monotonicity,
    check_gradient_estimate,
    check_initial_continuity,
    check_lipschitz_Pt,
    check_log_harnack,
    check_variance_bound,
)


def _no_run(*args, **kwargs):
    raise AssertionError("an ensemble ran before the input rules")


@pytest.fixture(scope="module")
def lab():
    grid = make_grid(63, 2.5e-3, 0.25)
    model = standard_model()
    e1 = spectral_basis(63).modes[0]
    h = np.maximum(1.5 * e1, 0.0)
    dirs = direction_dictionary(grid, 8, include_parts=False)
    return grid, model, e1, h, dirs


class TestGradientCheck:
    def test_constant_functional_trivial_pass(self, lab):
        grid, model, e1, h, dirs = lab
        phi = clipped_affine(e1, grid.dx, offset=0.4, lo=0.4, hi=0.4)
        report = check_gradient_estimate(phi, h, 0.25, "reflected", model, grid,
                                         32, seed=1, directions=dirs)
        assert report.passed
        assert report.lhs == 0.0 and report.rhs == 0.0

    def test_short_time_consistency(self, lab):
        # at t = dt the proxy is close to |grad Phi| itself and the bound
        # factor is at least 2M >= 6
        grid, model, e1, h, dirs = lab
        phi = clipped_affine(e1, grid.dx, offset=0.5, lo=-50, hi=50)
        report = check_gradient_estimate(phi, h, grid.dt, "reflected", model, grid,
                                         200, seed=2, directions=dirs)
        assert report.passed
        assert report.lhs == pytest.approx(phi.grad_norm(h) ** 2, rel=0.2)
        assert report.rhs >= 6.0 * report.lhs / 2.5

    def test_standard_model_passes_with_margin(self, lab):
        grid, model, e1, h, dirs = lab
        phi = clipped_affine(e1, grid.dx, offset=0.5, lo=0.0, hi=50.0)
        report = check_gradient_estimate(phi, h, 0.25, "reflected", model, grid,
                                         500, seed=3, directions=dirs)
        assert report.passed
        print(f"gradient margin ratio: {report.margin_ratio:.3g}")

    def test_fail_injection_flips_verdict(self, lab):
        grid, model, e1, h, dirs = lab
        phi = clipped_affine(e1, grid.dx, offset=0.5, lo=0.0, hi=50.0)
        report = check_gradient_estimate(phi, h, 0.25, "reflected", model, grid,
                                         500, seed=3, directions=dirs, m_scale=1e-6)
        assert not report.passed

    def test_requires_c1_functional(self, lab):
        grid, model, e1, h, dirs = lab
        step = bounded_cylinder(e1, grid.dx, smooth=False)
        with pytest.raises(ValueError):
            check_gradient_estimate(step, h, 0.25, "reflected", model, grid, 16,
                                    seed=1, directions=dirs)

    def test_requires_positive_time(self, lab):
        grid, model, e1, h, dirs = lab
        phi = clipped_affine(e1, grid.dx)
        with pytest.raises(ValueError):
            check_gradient_estimate(phi, h, 0.0, "reflected", model, grid, 16,
                                    seed=1, directions=dirs)

    def test_single_path_rejected(self, lab):
        # one path gives standard errors of 0.0, which would let any lhs pass
        grid, model, e1, h, dirs = lab
        phi = clipped_affine(e1, grid.dx, offset=0.5, lo=0.0, hi=50.0)
        with pytest.raises(ValueError, match="n_paths"):
            check_gradient_estimate(phi, h, 0.25, "reflected", model, grid, 1,
                                    seed=1, directions=dirs)


class TestLogHarnackCheck:
    def test_equal_points_reduce_to_jensen(self, lab):
        grid, model, e1, h, _ = lab
        phi = exp_neg_pair(e1, grid.dx, lo=0.1, hi=1.0)
        report = check_log_harnack(phi, h, h, 0.25, "reflected", model, grid,
                                   200, seed=4)
        assert report.passed
        assert report.inputs["additive_term"] == 0.0

    def test_constant_functional(self, lab):
        grid, model, e1, h, _ = lab
        phi = clipped_affine(e1, grid.dx, offset=0.6, lo=0.6, hi=0.6)
        report = check_log_harnack(phi, h, np.zeros(grid.n_space), 0.25,
                                   "reflected", model, grid, 64, seed=4)
        assert report.passed
        assert report.lhs == pytest.approx(math.log(0.6), rel=1e-12)

    def test_distinct_points_pass_and_match_quadrature_oracle(self, lab):
        grid, model, e1, h, _ = lab
        phi = exp_neg_pair(e1, grid.dx, lo=0.1, hi=1.0)
        h2 = np.zeros(grid.n_space)
        report = check_log_harnack(phi, h, h2, 0.25, "reflected", model, grid,
                                   300, seed=5)
        assert report.passed
        # additive term against an independent trapezoid quadrature
        dist2 = grid.dx * float(np.sum(h * h))
        s = np.linspace(0.0, 0.25, 200_001)
        integral = float(np.trapezoid(np.exp(-np.array([zeta(v, 1.0, 1.0) for v in s])), s))
        profile = BoundProfile(model.L_b, model.L_sigma)
        oracle = profile.M * dist2 / (model.kappa1**2 * integral)
        assert report.inputs["additive_term"] == pytest.approx(oracle, rel=1e-6)

    def test_requires_strictly_positive(self, lab, monkeypatch):
        grid, model, e1, h, _ = lab
        monkeypatch.setattr(semigroup, "run_ensemble", _no_run)
        phi = clipped_affine(e1, grid.dx, lo=0.0, hi=1.0)
        with pytest.raises(ValueError, match="strictly positive"):
            check_log_harnack(phi, h, h, 0.25, "reflected", model, grid, 16, seed=1)

    def test_jensen_for_every_positive_catalogue_kind(self, lab):
        # equal points must pass for each strictly positive functional shape
        grid, model, e1, h, _ = lab
        kinds = [
            exp_neg_pair(e1, grid.dx, lo=0.1, hi=1.0),
            clipped_affine(e1, grid.dx, offset=0.5, lo=0.2, hi=2.0),
            bounded_cylinder(e1, grid.dx, center=0.3, lo=0.1, hi=0.9, sharpness=3.0),
        ]
        for phi in kinds:
            for t in (grid.dt, 0.25):
                rep = check_log_harnack(phi, h, h, t, "reflected", model, grid,
                                        100, seed=16)
                assert rep.passed, (phi.kind, t)


class TestVarianceAndLipschitz:
    def test_variance_constant_trivial(self, lab):
        grid, model, e1, h, _ = lab
        phi = clipped_affine(e1, grid.dx, offset=0.4, lo=0.4, hi=0.4)
        report = check_variance_bound(phi, h, 0.25, "reflected", model, grid,
                                      32, seed=6)
        assert report.passed
        assert report.lhs == 0.0

    def test_variance_one_step(self, lab):
        grid, model, e1, h, _ = lab
        phi = clipped_affine(e1, grid.dx, lo=-50, hi=50)
        report = check_variance_bound(phi, h, grid.dt, "reflected", model, grid,
                                      200, seed=6)
        assert report.passed

    def test_variance_standard_model(self, lab):
        grid, model, e1, h, _ = lab
        phi = clipped_affine(e1, grid.dx, offset=0.5, lo=0.0, hi=50.0)
        report = check_variance_bound(phi, h, 0.25, "reflected", model, grid,
                                      300, seed=7)
        assert report.passed
        print(f"variance margin ratio: {report.margin_ratio:.3g}")

    def test_lipschitz_constant_trivial(self, lab):
        grid, model, e1, h, dirs = lab
        phi = clipped_affine(e1, grid.dx, offset=0.4, lo=0.4, hi=0.4)
        report = check_lipschitz_Pt(phi, h, 0.25, "reflected", model, grid,
                                    32, seed=8, directions=dirs)
        assert report.passed

    def test_lipschitz_standard_model(self, lab):
        grid, model, e1, h, dirs = lab
        phi = clipped_affine(e1, grid.dx, offset=0.5, lo=0.0, hi=50.0)
        report = check_lipschitz_Pt(phi, h, 0.25, "reflected", model, grid,
                                    300, seed=9, directions=dirs)
        assert report.passed

    def test_strong_feller_smoothing_of_step_functional(self, lab):
        # a hard step has unbounded local Lipschitz constant, yet the
        # semigroup-smoothed proxy collapses by orders of magnitude at t > 0
        grid, model, e1, h, _ = lab
        center = float(grid.dx * (e1 @ h))
        step = bounded_cylinder(e1, grid.dx, center=center, lo=0.0, hi=1.0, smooth=False)
        delta = 1e-3
        raw = estimate_grad_Pt(step, h, 0.0, "reflected", model, grid, 8, seed=10,
                               directions={"e1": e1}, delta=delta)
        smoothed = estimate_grad_Pt(step, h, 0.1, "reflected", model, grid, 300,
                                    seed=10, directions={"e1": e1}, delta=delta)
        assert raw.value == pytest.approx(1.0 / (2 * delta))
        assert np.isfinite(smoothed.value)
        assert smoothed.value < 0.05 * raw.value
        report = check_lipschitz_Pt(step, h, 0.1, "reflected", model, grid, 300,
                                    seed=10, directions={"e1": e1})
        assert report.passed


class TestContinuityCheck:
    def test_identical_fields_coupled_difference_zero(self, lab):
        grid, model, _, h, _ = lab
        _, sups = run_ensemble(np.stack([h, h.copy()]), grid.n_steps, "reflected",
                               model, grid, seed=11, n_paths=8,
                               track_sup_pairs=[(0, 1)])
        assert np.array_equal(sups, np.zeros_like(sups))

    def test_degenerate_ladder_rejected(self, lab):
        grid, model, _, h, _ = lab
        with pytest.raises(ValueError):
            check_initial_continuity(h, h, 2.0, "reflected", model, grid, 8, seed=1)

    def test_single_path_rejected(self, lab):
        grid, model, _, h, _ = lab
        with pytest.raises(ValueError, match="n_paths"):
            check_initial_continuity(h, 0.5 * h, 2.0, "reflected", model, grid, 1, seed=1)

    @pytest.mark.parametrize("ladder", [(), (1.0, 0.0), (1.0, -0.5), (1.0, 2.0), (0.5,), (0.5, 0.5)])
    def test_empty_or_nonpositive_ladder_rejected(self, lab, ladder):
        # a zero rung made a nan ratio that max/min skipped, giving PASS; a
        # rung above 1 leaves the segment [h1, h2] and can leave the cone;
        # one distinct rung gave a spread of 1, a PASS that could not fail
        grid, model, _, h, _ = lab
        with pytest.raises(ValueError, match="ladder"):
            check_initial_continuity(h, 0.5 * h, 2.0, "reflected", model, grid, 4, seed=1,
                                     ladder=ladder)

    def test_linear_case_ratio_exactly_constant(self):
        # constant diffusion and zero drift: the coupled difference field is
        # deterministic, so the normalized ratios coincide across the ladder
        # as long as no projection fires
        grid = make_grid(31, 1e-3, 0.05)
        model = constant_model(0.0, 0.02, kappa1=0.01, kappa2=0.03)
        e1 = spectral_basis(31).modes[0]
        h1 = np.maximum(0.8 * e1, 0.0)
        h2 = h1 + 0.1 * np.sin(np.pi * grid.x)
        report = check_initial_continuity(h1, h2, 2.0, "reflected", model, grid,
                                          40, seed=12)
        ratios = report.inputs["ratios"]
        assert report.passed
        assert max(ratios) - min(ratios) < 1e-12

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_p_must_be_finite(self, lab, monkeypatch, p):
        # p = nan gave a FAIL verdict with lhs nan; p = inf a divide warning
        grid, model, _, h, _ = lab
        monkeypatch.setattr(verify, "run_ensemble", _no_run)
        with pytest.raises(ValueError, match=f"p must be finite and >= 1, got {p}"):
            check_initial_continuity(h, 0.5 * h, p, "reflected", model, grid, 4, seed=1)

    def test_standard_model_ladder(self, lab):
        grid, model, _, h, _ = lab
        h2 = h + 0.1 * np.sin(np.pi * grid.x)
        report = check_initial_continuity(h, h2, 2.0, "reflected", model, grid,
                                          40, seed=13)
        assert report.passed
        assert report.lhs < 2.0


class TestEpsExperiments:
    def test_monotonicity_small_run(self, lab):
        grid, model, _, h, _ = lab
        report = check_eps_monotonicity(h, model, grid, 1e-2, 1e-3, 8, seed=14)
        assert report.passed
        assert report.lhs < 1e-3

    def test_monotonicity_rejects_bad_ordering(self, lab):
        grid, model, _, h, _ = lab
        with pytest.raises(ValueError):
            check_eps_monotonicity(h, model, grid, 1e-3, 1e-2, 4, seed=1)

    @pytest.mark.parametrize("eps_small", [0.0, -1.0])
    def test_monotonicity_rejects_nonpositive_eps(self, lab, eps_small):
        grid, model, _, h, _ = lab
        with pytest.raises(ValueError, match="eps_small"):
            check_eps_monotonicity(h, model, grid, 1e-2, eps_small, 4, seed=1)

    def test_monotonicity_needs_one_path(self, lab):
        # the violating fraction needs at least one path; one is enough
        grid, model, _, h, _ = lab
        for n_paths in (0, -1):
            with pytest.raises(ValueError, match="n_paths"):
                check_eps_monotonicity(h, model, grid, 1e-2, 1e-3, n_paths, seed=1)
        report = check_eps_monotonicity(h, model, grid, 1e-2, 1e-3, 1, seed=1)
        assert report.inputs["points_checked"] == grid.n_steps * grid.n_space

    @pytest.mark.parametrize("ladder", [[], [1e-2, 0.0], [1e-2, -1e-3], [1e-2]])
    def test_convergence_rejects_empty_or_nonpositive_ladder(self, lab, ladder):
        # one rung gave lhs = rhs, a PASS that could not fail
        grid, model, _, h, _ = lab
        with pytest.raises(ValueError, match="eps_ladder"):
            check_eps_convergence(h, model, grid, ladder, 4, seed=1)

    @pytest.mark.parametrize("ladder", [[math.inf, 1e-3], [1e-2, math.nan]], ids=["inf", "nan"])
    def test_convergence_rejects_non_finite_rung_before_any_noise(self, lab, monkeypatch, ladder):
        # [inf, 1e-3] used to return PASS against a run with no penalty
        grid, model, _, h, _ = lab
        monkeypatch.setattr(verify, "increments_matrix", _no_run)
        with pytest.raises(ValueError, match="eps_ladder must be > 0 and finite"):
            check_eps_convergence(h, model, grid, ladder, 4, seed=1)

    @pytest.mark.parametrize("eps_big, eps_small, name", [
        (math.inf, 1e-3, "eps_big"), (math.nan, 1e-3, "eps_big"),
        (1e-2, math.nan, "eps_small"), (math.inf, math.inf, "eps_big"),
    ], ids=["big-inf", "big-nan", "small-nan", "both-inf"])
    def test_monotonicity_rejects_non_finite_eps_before_any_noise(self, lab, monkeypatch,
                                                                  eps_big, eps_small, name):
        grid, model, _, h, _ = lab
        monkeypatch.setattr(verify, "increments_matrix", _no_run)
        with pytest.raises(ValueError, match=f"{name} must be > 0 and finite"):
            check_eps_monotonicity(h, model, grid, eps_big, eps_small, 4, seed=1)

    def test_convergence_ladder_small_run(self, lab):
        grid, model, _, h, _ = lab
        report = check_eps_convergence(h, model, grid, [1e-2, 1e-3, 1e-4], 8, seed=15)
        assert report.passed
        dists = report.inputs["sup_distances"]
        assert dists[0] > dists[1] > dists[2]
        assert report.inputs["reflected_min"] == 0.0
        assert report.inputs["complementarity_sum"] == 0.0

    def test_convergence_single_path_rejected(self, lab):
        grid, model, _, h, _ = lab
        with pytest.raises(ValueError, match="n_paths"):
            check_eps_convergence(h, model, grid, [1e-2, 1e-3], 1, seed=15)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("penalty", ["negative_part", "arctan_square"])
    def test_blow_ups_raise(self, penalty):
        # an infinite drift floods the first step; the runs must not turn the
        # non-finite fields into a verdict
        grid = make_grid(7, 0.1, 0.3)
        model = constant_model(math.inf, 0.0, penalty=penalty)
        h = np.zeros(grid.n_space)
        with pytest.raises(BlowUpError) as mono:
            check_eps_monotonicity(h, model, grid, 1e-2, 1e-3, 4, seed=1)
        with pytest.raises(BlowUpError) as conv:
            check_eps_convergence(h, model, grid, [1e-2, 1e-3], 4, seed=1)
        for exc in (mono, conv):
            assert (exc.value.step, exc.value.stream) == (0, 0)


@pytest.mark.parametrize("run", [
    lambda h, model, grid: check_eps_monotonicity(h, model, grid, 1e-2, 1e-3, 4, seed=1),
    lambda h, model, grid: check_eps_convergence(h, model, grid, [1e-2, 1e-3], 4, seed=1),
], ids=["monotonicity", "convergence"])
def test_eps_experiments_check_the_start_field(tiny, run):
    # a negative start used to run and PASS; a 5-node one failed in numpy's broadcast
    grid, model, _, h = tiny
    with pytest.raises(ValueError, match="initial field must be entrywise >= 0"):
        run(h - 0.5, model, grid)
    with pytest.raises(ValueError, match=r"initial field has shape \(5,\), expected \(15,\)"):
        run(h[:5], model, grid)


@pytest.mark.parametrize("run", [
    lambda h, model, grid: check_eps_monotonicity(h, model, grid, 1e-2, 1e-3, 4, seed=1),
    lambda h, model, grid: check_eps_convergence(h, model, grid, [1e-2, 1e-3], 4, seed=1),
], ids=["monotonicity", "convergence"])
def test_eps_experiments_reject_a_non_finite_start_before_any_noise(tiny, monkeypatch, run):
    grid, model, _, h = tiny
    monkeypatch.setattr(verify, "increments_matrix", _no_run)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="initial field must be finite"):
            run(np.where(np.arange(grid.n_space) == 4, bad, h), model, grid)


@pytest.mark.parametrize("run", [
    lambda h, h1, phi, model, grid: check_eps_monotonicity(h1, model, grid, 1e-2, 1e-3, 4, seed=1),
    lambda h, h1, phi, model, grid: check_eps_convergence(h1, model, grid, [1e-2, 1e-3], 4, seed=1),
    lambda h, h1, phi, model, grid: check_log_harnack(phi, h1, h, 0.1, "reflected", model,
                                                      grid, 8, seed=1),
    lambda h, h1, phi, model, grid: check_log_harnack(phi, h, h1, 0.1, "reflected", model,
                                                      grid, 8, seed=1),
    lambda h, h1, phi, model, grid: check_initial_continuity(h1, h, 2.0, "reflected", model,
                                                             grid, 8, seed=1),
    lambda h, h1, phi, model, grid: check_initial_continuity(h, h1, 2.0, "reflected", model,
                                                             grid, 8, seed=1),
], ids=["monotonicity", "convergence", "log-harnack-h1", "log-harnack-h2",
        "continuity-h1", "continuity-h2"])
def test_single_start_checks_reject_a_stack(tiny, monkeypatch, run):
    # a (1, n_space) start used to pass the run rules and then fail in numpy
    # ("input operand has more dimensions", "only 0-dimensional arrays")
    grid, model, e1, h = tiny
    passes = []
    for module in (semigroup, verify):
        monkeypatch.setattr(module, "run_ensemble", lambda *a, **k: passes.append(a))
    monkeypatch.setattr(verify, "_lockstep", lambda *a: passes.append(a) or iter(()))
    phi = exp_neg_pair(e1, grid.dx, lo=0.1, hi=1.0)
    with pytest.raises(ValueError, match=r"initial field has shape \(1, 15\), expected \(15,\)"):
        run(h, h[None, :], phi, model, grid)
    assert passes == []


def test_two_point_checks_check_each_point_before_any_run(tiny, monkeypatch):
    # a 1-node h2 used to fail only after log-harnack's whole h1 pass, and
    # continuity broadcast it to a constant field and passed
    grid, model, e1, h = tiny
    passes = []
    monkeypatch.setattr(semigroup, "run_ensemble", lambda *a, **k: passes.append(a))
    monkeypatch.setattr(verify, "run_ensemble", lambda *a, **k: passes.append(a))
    phi = exp_neg_pair(e1, grid.dx, lo=0.1, hi=1.0)
    for h1, h2 in [(h, h[:1]), (h[:1], h)]:
        with pytest.raises(ValueError, match=r"initial field has shape \(1,\)"):
            check_log_harnack(phi, h1, h2, 0.1, "reflected", model, grid, 8, seed=1)
        with pytest.raises(ValueError, match=r"initial field has shape \(1,\)"):
            check_initial_continuity(h1, h2, 2.0, "reflected", model, grid, 8, seed=1)
    with pytest.raises(ValueError, match="initial field must be entrywise >= 0"):
        check_log_harnack(phi, h, h - 0.5, 0.1, "reflected", model, grid, 8, seed=1)
    assert passes == []


@pytest.fixture(scope="module")
def tiny():
    grid = make_grid(15, 0.01, 0.1)
    e1 = spectral_basis(15).modes[0]
    return grid, standard_model(), e1, np.maximum(1.5 * e1, 0.0)


SEVEN_CHECKS = {
    "gradient": lambda grid, model, e1, h: check_gradient_estimate(
        clipped_affine(e1, grid.dx, offset=0.5, lo=0.0, hi=50.0), h, 0.1, "reflected",
        model, grid, 8, seed=1),
    "log-harnack": lambda grid, model, e1, h: check_log_harnack(
        exp_neg_pair(e1, grid.dx, lo=0.1, hi=1.0), h, np.zeros(grid.n_space), 0.1,
        "reflected", model, grid, 8, seed=1),
    "variance": lambda grid, model, e1, h: check_variance_bound(
        clipped_affine(e1, grid.dx, offset=0.5, lo=0.0, hi=50.0), h, 0.1, "reflected",
        model, grid, 8, seed=1),
    "lipschitz": lambda grid, model, e1, h: check_lipschitz_Pt(
        clipped_affine(e1, grid.dx, offset=0.5, lo=0.0, hi=50.0), h, 0.1, "reflected",
        model, grid, 8, seed=1),
    "continuity": lambda grid, model, e1, h: check_initial_continuity(
        h, 0.5 * h, 2.0, "reflected", model, grid, 8, seed=1),
    "comparison": lambda grid, model, e1, h: check_eps_monotonicity(
        h, model, grid, 1e-2, 1e-3, 4, seed=1),
    "eps-convergence": lambda grid, model, e1, h: check_eps_convergence(
        h, model, grid, [1e-2, 1e-3], 4, seed=1),
}


@pytest.mark.parametrize("name", sorted(SEVEN_CHECKS))
def test_report_json_keys_and_verdict(tiny, name):
    # the written report: every field by name, with verdict in place of passed
    report = SEVEN_CHECKS[name](*tiny)
    assert report.check == name
    lhs, rhs = report.lhs, report.rhs
    assert report.margin_ratio == (math.inf if lhs == 0 else abs(rhs) / abs(lhs))
    if name in ("gradient", "log-harnack", "variance", "lipschitz"):
        assert {"t", "n_paths", "model", "m_scale"} <= report.inputs.keys()
    for passed in (report.passed, not report.passed):
        report.passed = passed
        blob = report.to_json()
        assert blob == {
            "check": report.check, "verdict": "PASS" if passed else "FAIL", "lhs": report.lhs,
            "rhs": report.rhs, "std_errors": report.std_errors,
            "margin_ratio": report.margin_ratio, "inputs": report.inputs, "seed": report.seed,
            "config_hash": report.config_hash, "notes": report.notes,
        }
        assert blob["verdict"] == report.verdict


@pytest.mark.parametrize("name", ["gradient", "log-harnack", "variance", "lipschitz", "continuity"])
def test_checks_take_per_path_values_not_fields(tiny, monkeypatch, name):
    # every pass a check runs reduces its chunks to per-path values, so no
    # check holds the (V, n_space, n_paths) field array
    passes = []

    def spy(*args, **kwargs):
        passes.append(kwargs.get("per_path"))
        return run_ensemble(*args, **kwargs)

    monkeypatch.setattr(semigroup, "run_ensemble", spy)
    monkeypatch.setattr(verify, "run_ensemble", spy)
    SEVEN_CHECKS[name](*tiny)
    assert passes and all(fns is not None for fns in passes)


BOUND_CHECKS = [
    (check_gradient_estimate, 1),
    (check_log_harnack, 2),
    (check_variance_bound, 1),
    (check_lipschitz_Pt, 1),
]


@pytest.mark.parametrize("t", [0.0, -0.1])
@pytest.mark.parametrize("check, n_fields", BOUND_CHECKS, ids=lambda v: getattr(v, "__name__", v))
def test_bound_check_rejects_t_before_any_run(tiny, monkeypatch, check, n_fields, t):
    grid, model, e1, h = tiny
    monkeypatch.setattr(semigroup, "run_ensemble", _no_run)
    phi = exp_neg_pair(e1, grid.dx, lo=0.1, hi=1.0)
    with pytest.raises(ValueError, match="t must be > 0"):
        check(phi, *[h] * n_fields, t, "reflected", model, grid, 8, seed=1)


@pytest.mark.parametrize("m_scale", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("check, n_fields", BOUND_CHECKS, ids=lambda v: getattr(v, "__name__", v))
def test_bound_check_rejects_m_scale_before_any_run(tiny, monkeypatch, check, n_fields, m_scale):
    # m_scale = -1 used to give verdicts on a negative bound (lipschitz passed),
    # and m_scale = 0 passed all four on a zero bound
    grid, model, e1, h = tiny
    monkeypatch.setattr(semigroup, "run_ensemble", _no_run)
    phi = exp_neg_pair(e1, grid.dx, lo=0.1, hi=1.0)
    with pytest.raises(ValueError, match="m_scale must be > 0"):
        check(phi, *[h] * n_fields, 0.1, "reflected", model, grid, 8, seed=1, m_scale=m_scale)


@pytest.mark.parametrize("check, n_fields", BOUND_CHECKS, ids=lambda v: getattr(v, "__name__", v))
def test_bound_check_rejects_phi_on_another_grid_before_any_run(tiny, monkeypatch, check, n_fields):
    # a 31-node phi on the 15-node grid used to fail in Functional.pair with
    # numpy's shape mismatch, after the check's first ensemble pass
    grid, model, _, h = tiny
    passes = []
    monkeypatch.setattr(semigroup, "run_ensemble", lambda *a, **k: passes.append(a))
    phi = exp_neg_pair(spectral_basis(31).modes[0], 1.0 / 32, lo=0.1, hi=1.0)
    with pytest.raises(ValueError, match="phi has 31 nodes, the grid has 15"):
        check(phi, *[h] * n_fields, 0.1, "reflected", model, grid, 8, seed=1)
    assert passes == []


@pytest.mark.parametrize("seed", [-1, 2**64 + 5])
@pytest.mark.parametrize("run", [
    lambda grid, model, e1, h, seed: check_variance_bound(
        clipped_affine(e1, grid.dx, offset=0.5, lo=0.0, hi=50.0), h, 0.1, "reflected",
        model, grid, 8, seed),
    lambda grid, model, e1, h, seed: run_ensemble(h, grid.n_steps, "reflected", model, grid,
                                                  seed, 8),
    lambda grid, model, e1, h, seed: solve_path(h, "reflected", model, grid, NoisePlan(seed)),
], ids=["variance", "run_ensemble", "solve_path"])
def test_seed_outside_64_bits_raises_before_any_noise(tiny, monkeypatch, run, seed):
    # the noise key used to be the seed mod 2**64: check_variance_bound at seed
    # 2**64 + 5 gave seed 5's lhs and rhs under another report seed
    def no_noise(*args):
        raise AssertionError("noise was drawn before the seed rule")

    monkeypatch.setattr(grid_noise, "_gaussian_block", no_noise)
    with pytest.raises(ValueError, match=rf"seed must lie in \[0, 2\*\*64\), got {seed}"):
        run(*tiny, seed)
