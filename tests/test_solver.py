"""Integrators: penalized, reflected, tangent, and the obstacle solve."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rspde import solver as solver_module
from rspde.coefficients import CoefficientModel, constant_model, standard_model
from rspde.grid_noise import NoisePlan, l2_norm, make_grid, sample_increments
from rspde.heat import ImplicitHeatSolver, spectral_basis
from rspde.solver import (
    BlowUpError,
    ReflectionLedger,
    UnsupportedModelError,
    _drift_noise_solve,
    _project,
    deterministic_obstacle,
    penalty_resolvent,
    penalty_resolvent_deriv,
    solve_path,
    solve_tangent,
)


def _no_noise(*args, **kwargs):
    raise AssertionError("noise was drawn before the input rules")


def nonneg_first_mode(grid, amp=1.0):
    return np.maximum(amp * spectral_basis(grid.n_space).modes[0], 0.0)


def arctan_sweep_reference(v, dt_over_eps):
    """The arctan_square resolvent with its bracket test in three clauses: the
    Newton step is replaced by the midpoint when it lands on or outside the
    bracket or is not finite; the stop scale 1 + |v| is formed in the loop.
    penalty_resolvent must match it bit for bit."""
    out = np.array(v, dtype=float)
    neg = (out < 0.0) & np.isfinite(out)
    if np.any(neg):
        vn = out[neg]
        lo = vn.copy()
        hi = np.zeros_like(vn)
        un = 0.5 * (lo + hi)
        for _ in range(300):
            g = un - dt_over_eps * np.arctan(un * un) - vn
            if np.max(np.abs(g) / (1.0 + np.abs(vn))) < 1e-12:
                break
            np.copyto(lo, un, where=g < 0.0)
            np.copyto(hi, un, where=g >= 0.0)
            nxt = un - g / (1.0 - dt_over_eps * 2.0 * un / (1.0 + un ** 4))
            outside = (nxt <= lo) | (nxt >= hi) | ~np.isfinite(nxt)
            np.copyto(nxt, 0.5 * (lo + hi), where=outside)
            un = nxt
        else:
            raise RuntimeError("arctan penalty resolvent did not converge")
        out[neg] = un
    return out


class TestPenaltyResolvent:
    def test_closed_form_example(self):
        # u' = v/(1 + dt/eps) on the negative branch
        out = penalty_resolvent(np.array([-0.1]), 9.0, "negative_part")
        assert out[0] == -0.1 / 10.0 == -0.01

    def test_identity_on_nonnegative(self):
        v = np.array([0.0, 0.3, 2.0])
        assert np.array_equal(penalty_resolvent(v, 100.0, "negative_part"), v)

    @given(
        v=st.floats(-10, 10, allow_nan=False),
        q=st.floats(0.001, 1e6, allow_nan=False),
        kind=st.sampled_from(["negative_part", "arctan_square"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_fixed_point_property(self, v, q, kind):
        # output solves u = v + q f(u)
        arr = np.array([v])
        u = penalty_resolvent(arr, q, kind)[0]
        if kind == "negative_part":
            f = max(-u, 0.0)
        else:
            f = math.atan(min(u, 0.0) ** 2)
        assert u - q * f == pytest.approx(v, abs=1e-10 * max(1.0, abs(v)))

    def test_arctan_matches_branch_signs(self):
        v = np.array([-0.5, -0.01, 0.0, 0.7])
        u = penalty_resolvent(v, 50.0, "arctan_square")
        assert np.all(u[v >= 0] == v[v >= 0])
        assert np.all(u[v < 0] > v[v < 0])
        assert np.all(u[v < 0] <= 0.0)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_arctan_passes_non_finite_entries_through(self):
        v = np.array([-0.5, -math.inf, 0.3, math.nan, -2.0])
        u = penalty_resolvent(v, 50.0, "arctan_square")
        finite = np.isfinite(v)
        assert np.array_equal(u[finite], penalty_resolvent(v[finite], 50.0, "arctan_square"))
        assert u[1] == -math.inf and math.isnan(u[3])

    @pytest.mark.parametrize("kind", ["negative_part", "arctan_square"])
    @pytest.mark.parametrize("q", [0.5, 4.0, 50.0])
    def test_derivative_matches_central_difference(self, kind, q):
        # d u / d v through the stored output, against (u(v+d) - u(v-d)) / 2d
        # at points whose +-d neighbours stay on one side of 0
        v = np.concatenate([np.linspace(-3.0, -0.05, 40), np.linspace(0.05, 3.0, 40)])
        d = 1e-5
        diff = (penalty_resolvent(v + d, q, kind) - penalty_resolvent(v - d, q, kind)) / (2 * d)
        deriv = penalty_resolvent_deriv(penalty_resolvent(v, q, kind), q, kind)
        assert np.allclose(deriv, diff, rtol=1e-5, atol=0.0)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("kind", ["negative_part", "arctan_square"])
    def test_out_equals_a_fresh_result_bitwise(self, kind):
        # out=v resolves in place and out=other (a strided view here) takes
        # the result; NaN, inf and -0.0 come out as in a fresh result, and
        # the fresh call leaves v as it was
        v = np.array([-0.5, -0.0, 0.0, 0.3, math.nan, -math.inf, math.inf, -2.0, -1e-300])
        kept = v.copy()
        fresh = penalty_resolvent(v, 50.0, kind)
        assert v.tobytes() == kept.tobytes()
        if kind == "negative_part":
            assert fresh.tobytes() == np.where(v >= 0.0, v, v / 51.0).tobytes()
        own = v.copy()
        slab = np.zeros((v.size, 3))
        col = slab[:, 1]
        assert penalty_resolvent(own, 50.0, kind, out=own) is own
        assert penalty_resolvent(v, 50.0, kind, out=col) is col
        assert own.tobytes() == col.tobytes() == fresh.tobytes()
        assert v.tobytes() == kept.tobytes() and not slab[:, [0, 2]].any()

    @pytest.mark.parametrize("q", [1e-9, 1e-6, 1e-3, 0.5, 1.0, 50.0, 1e3, 1e6, math.inf, math.nan])
    def test_arctan_sweep_matches_the_reference_sweep_bitwise(self, q):
        # one strict bracket test sends nan and +-inf steps to bisection as the
        # three clauses do; slabs hold nan, +-inf and -0.0, |v| spans 1e-300 to
        # 1e150, and an infinite or nan dt/eps raises in both
        rng = np.random.default_rng(21)
        special = [math.nan, math.inf, -math.inf, -0.0, 0.0, -1e-300, 1e-300, -1e150, 1e150]
        slabs = [np.array(special)]
        for n in (1, 7, 64, 300):
            v = 10.0 ** rng.uniform(-300.0, 150.0, n) * rng.choice([-1.0, 1.0], n)
            v[rng.integers(0, n, max(1, n // 10))] = rng.choice(special)
            slabs.append(v)
        slabs.append(slabs[-1].reshape(100, 3))
        raised = 0
        for v in slabs:
            with np.errstate(all="ignore"):
                try:
                    want = arctan_sweep_reference(v, q)
                except RuntimeError:
                    raised += 1
                    with pytest.raises(RuntimeError, match="did not converge"):
                        penalty_resolvent(v, q, "arctan_square")
                    continue
                got = penalty_resolvent(v, q, "arctan_square")
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert (raised > 0) == (not math.isfinite(q))

    def test_derivative_convention_at_zero(self):
        d = penalty_resolvent_deriv(np.array([-1.0, 0.0, 1.0]), 4.0, "negative_part")
        assert np.array_equal(d, [0.2, 1.0, 1.0])


class TestStepPenalized:
    def test_heat_only_equals_implicit_step(self):
        # one penalized step with zero drift and diffusion: the noise drops
        # out exactly and the resolvent is the identity on the solve's output
        grid = make_grid(31, 1e-3, 1e-3)
        model = constant_model(0.0, 0.0)
        h = nonneg_first_mode(grid)
        solver = ImplicitHeatSolver(grid.n_space, grid.dx, grid.dt)
        traj = solve_path(h, "penalized", model, grid, NoisePlan(0), eps=1e-3)
        assert np.array_equal(traj.fields[-1], solver.solve(h))

    def test_negative_part_shrinks_with_eps(self):
        # downward drift held against the penalty floor: once the field has
        # been pulled onto the constraint, the overshoot below zero scales
        # like eps (the nodewise steady state is u = -eps * |b|)
        grid = make_grid(63, 1e-3, 1.0)
        model = constant_model(-1.0, 0.0)
        h = nonneg_first_mode(grid, 0.2)
        plan = NoisePlan(0)

        def neg_sup(eps):
            traj = solve_path(h, "penalized", model, grid, plan, eps=eps)
            return float(np.max(np.maximum(-traj.fields, 0.0)))

        a, b = neg_sup(1e-4), neg_sup(1e-5)
        assert a > 0
        assert a / b == pytest.approx(10.0, rel=1.0)  # within [5, 20]

    def test_rejects_bad_eps(self):
        grid = make_grid(7, 0.1, 0.1)
        for eps in (None, 0.0, -1.0):
            with pytest.raises(ValueError, match="eps"):
                solve_path(np.zeros(7), "penalized", constant_model(), grid, NoisePlan(0),
                           eps=eps)

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_rejects_non_finite_eps_before_any_noise(self, monkeypatch, eps):
        # eps = inf used to run with no penalty at all, and eps = nan ended
        # in a BlowUpError at step 1
        grid = make_grid(7, 0.1, 0.1)
        monkeypatch.setattr(solver_module, "sample_increments", _no_noise)
        with pytest.raises(ValueError, match="penalized mode needs eps > 0 and finite"):
            solve_path(np.zeros(7), "penalized", constant_model(), grid, NoisePlan(0), eps=eps)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_blow_up_reports_step(self):
        grid = make_grid(7, 1.0, 3.0)
        model = CoefficientModel(
            name="explosive", b=lambda u: np.full_like(u, 1e308),
            sigma=lambda u: np.zeros_like(u), L_b=0.0, L_sigma=0.0,
            kappa1=0.0, kappa2=0.0,
        )
        # the forward sweep of the first implicit solve overflows to inf
        with pytest.raises(BlowUpError) as exc:
            solve_path(np.zeros(7), "penalized", model, grid, NoisePlan(0, 3), eps=1.0)
        assert exc.value.step == 0
        assert exc.value.stream == 3
        assert exc.value.max_abs == 0.0  # the initial field

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("penalty", ["negative_part", "arctan_square"])
    def test_minus_inf_drift_reports_step_and_stream(self, penalty):
        # the arctan Newton sweep used to spin on the -inf entries and raise
        # a bare "did not converge" before the finite check could name them
        grid = make_grid(7, 0.1, 0.3)
        model = constant_model(-math.inf, penalty=penalty)
        with pytest.raises(BlowUpError) as exc:
            solve_path(np.zeros(7), "penalized", model, grid, NoisePlan(0), eps=1e-2)
        assert (exc.value.step, exc.value.stream) == (0, 0)


class TestStepReflected:
    def test_projection_and_cell_mass(self):
        # craft the pre-image of v = [-0.2, 0.3, 0.0] through the implicit solve
        grid = make_grid(3, 0.1, 0.1)
        model = constant_model(0.0, 0.0)
        solver = ImplicitHeatSolver(grid.n_space, grid.dx, grid.dt)
        v_target = np.array([-0.2, 0.3, 0.0])
        r = solver.r
        u_pre = (1 + 2 * r) * v_target - r * (
            np.concatenate(([0.0], v_target[:-1])) + np.concatenate((v_target[1:], [0.0]))
        )
        ledger = ReflectionLedger.empty((3,), record_full=True)
        out = _project(_drift_noise_solve(u_pre, np.zeros(3), model, grid), grid, ledger)
        assert out == pytest.approx([0.0, 0.3, 0.0], abs=1e-12)
        assert out[0] == 0.0 and out[2] == 0.0
        assert ledger.per_step[0] == pytest.approx([0.2 * grid.dx, 0.0, 0.0], abs=1e-12)
        assert ledger.complementarity_sum == 0.0

    def test_inactive_constraint_matches_penalized(self):
        # nonnegative drift keeps the solution inside the cone: no mass,
        # and the reflected path coincides with the penalized one bitwise
        grid = make_grid(31, 1e-3, 0.05)
        model = constant_model(0.4, 0.0)
        h = nonneg_first_mode(grid)
        plan = NoisePlan(8)
        refl = solve_path(h, "reflected", model, grid, plan, save_at=[0.01, 0.05])
        pen = solve_path(h, "penalized", model, grid, plan, save_at=[0.01, 0.05], eps=1e-6)
        assert refl.ledger.total == 0.0
        assert np.array_equal(refl.fields, pen.fields)

    def test_stochastic_complementarity_exact(self):
        grid = make_grid(63, 1e-3, 2.0)
        model = standard_model()
        h = nonneg_first_mode(grid, 0.4)
        traj = solve_path(h, "reflected", model, grid, NoisePlan(21, 5))
        assert traj.ledger.steps_recorded == 2000
        assert traj.ledger.complementarity_sum == 0.0
        assert traj.ledger.total > 0.0
        assert np.min(traj.ledger.node_mass) >= 0.0
        assert np.min(traj.fields) >= 0.0


class TestSolvePath:
    def test_deterministic_rerun_bitwise(self):
        grid = make_grid(31, 1e-3, 0.1)
        model = standard_model()
        h = nonneg_first_mode(grid, 0.5)
        plan = NoisePlan(99, 3)
        a = solve_path(h, "reflected", model, grid, plan, save_at=[0.05, 0.1])
        b = solve_path(h, "reflected", model, grid, plan, save_at=[0.05, 0.1])
        assert np.array_equal(a.fields, b.fields)
        assert a.ledger.total == b.ledger.total

    def test_heat_only_reflected_is_pure_heat_flow(self):
        grid = make_grid(31, 1e-3, 0.1)
        model = constant_model(0.0, 0.0)
        h = nonneg_first_mode(grid)
        traj = solve_path(h, "reflected", model, grid, NoisePlan(1))
        solver = ImplicitHeatSolver(grid.n_space, grid.dx, grid.dt)
        u = h.copy()
        for _ in range(grid.n_steps):
            u = solver.solve(u)
        assert np.array_equal(traj.fields[-1], u)
        assert traj.ledger.total == 0.0

    def test_rejects_negative_initial(self):
        grid = make_grid(7, 0.1, 0.1)
        with pytest.raises(ValueError):
            solve_path(np.full(7, -0.1), "reflected", constant_model(), grid, NoisePlan(0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("mode", ["reflected", "penalized"])
    def test_rejects_non_finite_initial_before_any_noise(self, monkeypatch, bad, mode):
        # a nan start used to end in a BlowUpError at step 0 that read
        # "last finite max |u| = nan"
        grid = make_grid(7, 0.1, 0.1)
        h = np.zeros(7)
        h[2] = bad
        monkeypatch.setattr(solver_module, "sample_increments", _no_noise)
        with pytest.raises(ValueError, match="initial field must be finite"):
            solve_path(h, mode, constant_model(), grid, NoisePlan(0), eps=0.1)

    def test_rejects_unknown_mode(self):
        grid = make_grid(7, 0.1, 0.1)
        with pytest.raises(ValueError):
            solve_path(np.zeros(7), "projected", constant_model(), grid, NoisePlan(0))

    def test_snapshot_times(self):
        grid = make_grid(7, 0.1, 1.0)
        traj = solve_path(np.zeros(7), "reflected", constant_model(), grid,
                          NoisePlan(0), save_at=[0.0, 0.5, 1.0])
        assert traj.times == pytest.approx([0.0, 0.5, 1.0])
        assert traj.at(0.5) is not None

    def test_coupled_eps_ordering_at_snapshots(self):
        # same noise realization (one plan drives both runs), harder penalty
        # dominates pointwise up to discretization slack at every saved (t, x)
        grid = make_grid(63, 1e-3, 0.25)
        model = standard_model()
        h = nonneg_first_mode(grid, 0.5)
        plan = NoisePlan(42, 2)
        saves = [0.05, 0.1, 0.25]
        strong = solve_path(h, "penalized", model, grid, plan, save_at=saves, eps=1e-3)
        weak = solve_path(h, "penalized", model, grid, plan, save_at=saves, eps=1e-2)
        scale = max(float(np.max(np.abs(strong.fields))),
                    float(np.max(np.abs(weak.fields))))
        tol = 5.0 * (grid.dt + grid.dx**2) * scale
        gap = weak.fields - strong.fields - tol
        assert np.count_nonzero(gap > 0) / gap.size < 1e-3


class TestSolveTangent:
    @pytest.fixture()
    def setup(self):
        grid = make_grid(63, 2.5e-3, 0.25)
        model = standard_model()
        h = nonneg_first_mode(grid, 1.5)
        plan = NoisePlan(99, 0)
        base = solve_path(h, "penalized", model, grid, plan, save_at=[0.25], eps=1e-3)
        return grid, model, h, plan, base

    @staticmethod
    def tangent(h, k, model, grid, plan, eps=1e-3):
        return solve_tangent(h, k, "penalized", model, grid, plan, save_at=[0.25], eps=eps)

    def test_zero_direction_stays_zero(self, setup):
        grid, model, h, plan, base = setup
        tang = self.tangent(h, np.zeros(grid.n_space), model, grid, plan)
        assert np.array_equal(tang.fields, np.zeros_like(tang.fields))

    def test_nonnegative_direction_stays_nonnegative(self, setup):
        grid, model, h, plan, base = setup
        k = nonneg_first_mode(grid)
        tang = self.tangent(h, k, model, grid, plan)
        tol = 5.0 * (grid.dt + grid.dx**2) * float(np.max(np.abs(tang.fields)))
        assert float(np.min(tang.fields)) >= -tol

    def test_linearity(self, setup):
        grid, model, h, plan, base = setup
        basis = spectral_basis(grid.n_space)
        k1, k2 = basis.modes[0], basis.modes[1]
        t1 = self.tangent(h, k1, model, grid, plan)
        t2 = self.tangent(h, k2, model, grid, plan)
        t12 = self.tangent(h, k1 + k2, model, grid, plan)
        scale = np.max(np.abs(t12.fields))
        assert np.max(np.abs(t12.fields - (t1.fields + t2.fields))) < 1e-10 * scale

    def test_positive_homogeneity_exact(self, setup):
        grid, model, h, plan, base = setup
        k = spectral_basis(grid.n_space).modes[0]
        t1 = self.tangent(h, k, model, grid, plan)
        t2 = self.tangent(h, 2.0 * k, model, grid, plan)
        assert np.array_equal(t2.fields, 2.0 * t1.fields)

    def test_matches_coupled_finite_difference(self, setup):
        grid, model, h, plan, base = setup
        k = spectral_basis(grid.n_space).modes[0]
        delta = 1e-4
        for stream in range(3):
            p = NoisePlan(plan.master_seed, stream)
            b0 = solve_path(h, "penalized", model, grid, p, save_at=[0.25], eps=1e-3)
            b1 = solve_path(np.maximum(h + delta * k, 0.0), "penalized", model, grid, p,
                            save_at=[0.25], eps=1e-3)
            tang = self.tangent(h, k, model, grid, p)
            fd = (b1.at(0.25) - b0.at(0.25)) / delta
            rel = l2_norm(tang.at(0.25) - fd, grid.dx) / l2_norm(tang.at(0.25), grid.dx)
            assert rel < 0.01

    def test_reads_eps_and_plan_from_path(self, setup):
        # the tangent runs along the path solve_path takes with its arguments:
        # eps 1e-2 and plan (3, 2) here, not the fixture's
        grid, model, h, _, _ = setup
        k = spectral_basis(grid.n_space).modes[0]
        delta, plan = 1e-4, NoisePlan(3, 2)
        base = solve_path(h, "penalized", model, grid, plan, save_at=[0.25], eps=1e-2)
        bumped = solve_path(np.maximum(h + delta * k, 0.0), "penalized", model, grid, plan,
                            save_at=[0.25], eps=1e-2)
        tang = self.tangent(h, k, model, grid, plan, eps=1e-2)
        fd = (bumped.at(0.25) - base.at(0.25)) / delta
        assert l2_norm(tang.at(0.25) - fd, grid.dx) < 0.01 * l2_norm(tang.at(0.25), grid.dx)

    def test_snapshots_match_solve_path_times(self, setup):
        # one snapshot rule: the same save times (an array, unsorted, with a
        # repeat and t = 0) give the same times; at t = 0 the tangent is k
        grid, model, h, plan, _ = setup
        k = spectral_basis(grid.n_space).modes[0]
        save_at = np.array([0.25, 0.0, 0.1, 0.1])
        base = solve_path(h, "penalized", model, grid, plan, save_at=save_at, eps=1e-3)
        tang = solve_tangent(h, k, "penalized", model, grid, plan, save_at=save_at, eps=1e-3)
        assert np.array_equal(tang.times, base.times) and len(base.times) == 3
        assert np.array_equal(base.at(0.0), h) and np.array_equal(tang.at(0.0), k)
        assert tang.ledger is None

    def test_rejects_nondifferentiable_model(self, setup):
        grid, model, h, plan, base = setup
        from rspde.coefficients import affine_clamped_model

        clamped = affine_clamped_model()
        with pytest.raises(UnsupportedModelError):
            self.tangent(h, h, clamped, grid, plan)

    def test_rejects_reflected_base_path(self, setup):
        grid, model, h, plan, _ = setup
        with pytest.raises(ValueError, match="tangent flow is defined along penalized paths"):
            solve_tangent(h, h, "reflected", model, grid, plan, save_at=[0.25])

    @pytest.mark.parametrize("n_k", [62, 64])
    def test_rejects_k_of_another_length(self, setup, n_k):
        # k used to be read unchecked against the base path's initial field
        grid, model, h, plan, _ = setup
        with pytest.raises(ValueError, match=rf"h and k have shapes \(63,\) and \({n_k},\)"):
            self.tangent(h, np.ones(n_k), model, grid, plan)

    def test_checks_h_by_the_run_rules(self, setup):
        grid, model, h, plan, _ = setup
        with pytest.raises(ValueError, match="initial field must be entrywise >= 0"):
            self.tangent(h - 0.5, h, model, grid, plan)
        with pytest.raises(ValueError, match=r"initial field has shape \(5,\)"):
            self.tangent(h[:5], h[:5], model, grid, plan)
        with pytest.raises(ValueError, match="penalized mode needs eps > 0"):
            solve_tangent(h, h, "penalized", model, grid, plan)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("blown", ["tangent", "base"])
    def test_blow_up_reports_step_and_stream(self, blown):
        # an infinite drift slope blows up the tangent field; an infinite
        # drift blows up the base field, which is checked too
        grid = make_grid(7, 0.1, 0.3)
        h, k = np.full(7, 0.5), np.full(7, 2.0)
        inf, zero = (lambda u: np.full_like(u, np.inf)), np.zeros_like
        model = CoefficientModel(
            name="explosive", b=inf if blown == "base" else zero, sigma=zero,
            L_b=0.0, L_sigma=0.0, kappa1=0.0, kappa2=0.0,
            db=zero if blown == "base" else inf, dsigma=zero,
        )
        with pytest.raises(BlowUpError) as exc:
            solve_tangent(h, k, "penalized", model, grid, NoisePlan(1, 3), eps=1e-2)
        assert (exc.value.step, exc.value.stream) == (0, 3)
        assert exc.value.max_abs == (0.5 if blown == "base" else 2.0)  # the initial field


class TestDeterministicObstacle:
    def test_inactive_when_data_nonnegative(self):
        grid = make_grid(31, 1e-3, 0.2)
        x = grid.x
        v = np.stack([(1.0 - 0.5 * t) * x * (1 - x) for t in grid.times()])
        z, ledger = deterministic_obstacle(v, grid)
        assert np.array_equal(z, np.zeros_like(z))
        assert ledger.total == 0.0

    def test_driven_case_constraint_and_mass(self):
        grid = make_grid(63, 1e-3, 0.5)
        x = grid.x
        c = 3.0
        v = np.stack([-c * t * x * (1 - x) for t in grid.times()])
        z, ledger = deterministic_obstacle(v, grid)
        assert float(np.min(z + v)) >= 0.0
        assert ledger.total > 0.0
        assert ledger.complementarity_sum == 0.0

    def test_self_convergence_under_dt_refinement(self):
        # a narrow driving bump keeps the contact set local; outside it the
        # correction is a free heat tail whose value depends on dt, so
        # refinement is observable (a full-width bump saturates the contact
        # set and z = -v exactly for every dt)
        x_nodes = 63
        t_cmp = 0.25

        def run(dt):
            grid = make_grid(x_nodes, dt, 0.5)
            x = grid.x
            bump = np.maximum(1.0 - (6.0 * (x - 0.5)) ** 2, 0.0)
            v = np.stack([-3.0 * t * bump for t in grid.times()])
            z, _ = deterministic_obstacle(v, grid)
            return z[int(round(t_cmp / dt))]

        z_ref = run(1e-3 / 16)
        err_coarse = np.max(np.abs(run(4e-3) - z_ref))
        err_fine = np.max(np.abs(run(1e-3) - z_ref))
        assert err_coarse > 0.0
        assert err_fine < err_coarse

    def test_stability_bound(self):
        grid = make_grid(63, 1e-3, 0.5)
        rng = np.random.default_rng(7)
        xs, ts = grid.x, grid.times()

        def rand_v():
            a = rng.normal(size=2)
            b = rng.normal(size=3)
            prof = np.abs(a[0]) * np.sin(np.pi * xs) + 0.3 * np.abs(a[1]) * np.sin(2 * np.pi * xs) ** 2
            out = np.empty((len(ts), len(xs)))
            for i, t in enumerate(ts):
                out[i] = prof + t * (
                    b[0] * np.sin(np.pi * xs) + b[1] * np.cos(3 * t) * np.sin(2 * np.pi * xs)
                ) + b[2] * np.sin(5 * t) * xs * (1 - xs)
            out[0] = np.maximum(out[0], 0.0)
            return out

        slack = 5.0 * (grid.dt + grid.dx**2)
        for _ in range(10):
            v1, v2 = rand_v(), rand_v()
            z1, _ = deterministic_obstacle(v1, grid)
            z2, _ = deterministic_obstacle(v2, grid)
            lhs = float(np.max(np.abs(z1 - z2)))
            rhs = 2.0 * float(np.max(np.abs(v1 - v2)))
            assert lhs <= rhs + slack * max(1.0, rhs)

    def test_rejects_negative_start(self):
        grid = make_grid(7, 0.1, 0.2)
        v = np.zeros((grid.n_steps + 1, 7))
        v[0, 3] = -0.1
        with pytest.raises(ValueError):
            deterministic_obstacle(v, grid)


class TestWeakFormResidual:
    @staticmethod
    def residual(n_space, dt, t_final, seed):
        """Discrete pairing balance against the first sine mode.

        Uses the exact per-step identity of the scheme; the only model
        error left is replacing the discrete Laplacian of the test mode by
        its continuum second derivative, so the residual should shrink
        like dx^2 (and stay within the O(dt + dx^2) budget).
        """
        grid = make_grid(n_space, dt, t_final)
        model = standard_model()
        h = nonneg_first_mode(grid, 0.4)
        plan = NoisePlan(seed)
        traj = solve_path(h, "reflected", model, grid, plan,
                          save_at=list(grid.times()), record_full_ledger=True)
        phi = spectral_basis(grid.n_space).modes[0]
        phi_pp = -math.pi**2 * phi

        def pair(f, g):
            return grid.dx * float(np.dot(f, g))

        total = pair(traj.fields[-1], phi) - pair(h, phi)
        acc = 0.0
        for m in range(grid.n_steps):
            u_m = traj.fields[m]
            u_next = traj.fields[m + 1]
            lift = traj.ledger.per_step[m] / grid.dx
            u_mid = u_next - lift
            dW = sample_increments(plan, grid, m)
            acc += 0.5 * grid.dt * pair(u_mid, phi_pp)
            acc += grid.dt * pair(model.b(u_m), phi)
            acc += float(np.dot(phi * model.sigma(u_m), dW))
            acc += float(np.dot(phi, traj.ledger.per_step[m]))
        scale = float(np.max(np.abs(traj.fields)))
        return abs(total - acc), scale

    def test_residual_shrinks_under_refinement(self):
        r_coarse, scale_c = self.residual(31, 2e-3, 0.2, seed=31)
        r_fine, scale_f = self.residual(63, 1e-3, 0.2, seed=63)
        budget_c = (2e-3 + (1 / 32) ** 2) * scale_c
        assert r_coarse < budget_c
        assert r_fine < 0.6 * r_coarse


class TestHolderScalingMeasured:
    def test_measure_exponents_not_gated(self, capsys):
        # recorded for information; grid cutoffs bias exponent estimates,
        # so nothing is asserted beyond finiteness
        grid = make_grid(127, 5e-5, 0.1)
        model = standard_model()
        h = nonneg_first_mode(grid, 0.5)
        traj = solve_path(h, "reflected", model, grid, NoisePlan(17),
                          save_at=[0.05 + k * 5e-4 for k in range(64)])
        u = traj.fields
        lags = [1, 2, 4, 8, 16]
        dt_incr = [np.mean(np.abs(u[l:] - u[:-l])) for l in lags]
        alpha_t = np.polyfit(np.log([l * 5e-4 for l in lags]), np.log(dt_incr), 1)[0]
        gaps = [1, 2, 4, 8]
        dx_incr = [np.mean(np.abs(u[:, g:] - u[:, :-g])) for g in gaps]
        alpha_x = np.polyfit(np.log([g * grid.dx for g in gaps]), np.log(dx_incr), 1)[0]
        print(f"measured scaling exponents: time {alpha_t:.3f}, space {alpha_x:.3f}")
        assert np.isfinite(alpha_t) and np.isfinite(alpha_x)
