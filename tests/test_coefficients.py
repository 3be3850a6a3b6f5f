"""Models, their declared constants, and the explicit bound functions."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rspde.coefficients import (
    _PENALTIES,
    BoundProfile,
    DegenerateDiffusionError,
    adaptive_simpson,
    affine_clamped_model,
    constant_M,
    constant_model,
    harnack_rhs,
    model_from_config,
    sin_modulated_model,
    standard_model,
    zeta,
)
from rspde.solver import penalty_resolvent, penalty_resolvent_deriv

SQRT_PI = math.sqrt(math.pi)


def five_term_oracle(L_b, L_sigma):
    """Independent term-by-term evaluation of the smoothing constant."""
    return max(
        3.0,
        9.0 * L_sigma**2 / SQRT_PI,
        8.0 * L_b**2 / L_sigma**4,
        144.0 * L_b**2 / (L_sigma**2 * SQRT_PI),
        864.0 * L_b**2 / SQRT_PI,
    )


def trapezoid_exp_neg_zeta(t, L_b, L_sigma, n=10**6):
    """Independent quadrature oracle for the decay integral."""
    s = np.linspace(0.0, t, n + 1)
    lb2, ls2 = L_b * L_b, L_sigma * L_sigma
    z = (
        np.sqrt(s)
        + 2.25 * ls2 * ls2 * s
        + 1.5 * lb2 * s * s
        + (18.0 * lb2 * ls2 / (5.0 * SQRT_PI)) * s**2.5
    )
    return float(np.trapezoid(np.exp(-z), s))


def assert_declared_constants_hold(model, lo=-15.0, hi=15.0, n_samples=10_000):
    """Sampled difference quotients of b and sigma stay within L_b and
    L_sigma, and kappa1 <= |sigma| <= kappa2, on [lo, hi] (1e-9 relative
    slack, 1e-12 absolute for the rounding of b and sigma)."""
    rng = np.random.default_rng(20210627)
    u, v = rng.uniform(lo, hi, size=(2, n_samples))
    du = np.abs(u - v)
    for f, lip in ((model.b, model.L_b), (model.sigma, model.L_sigma)):
        assert np.all(np.abs(f(u) - f(v)) <= lip * (1.0 + 1e-9) * du + 1e-12)
    abs_sigma = np.abs(model.sigma(u))
    assert np.all(abs_sigma >= model.kappa1 / (1.0 + 1e-9))
    assert np.all(abs_sigma <= model.kappa2 * (1.0 + 1e-9))


class TestConstantM:
    def test_pure_diffusion(self):
        # max{3, 9/sqrt(pi), 0, 0, 0} = 5.077706...
        assert constant_M(0.0, 1.0) == pytest.approx(9.0 / SQRT_PI)
        assert constant_M(0.0, 1.0) == pytest.approx(5.0777, abs=1e-4)

    def test_standard_pair(self):
        # the 864 Lb^2/sqrt(pi) term dominates
        assert constant_M(1.0, 1.0) == pytest.approx(864.0 / SQRT_PI)
        assert constant_M(1.0, 1.0) == pytest.approx(487.46, abs=0.01)

    def test_floor_at_three(self):
        assert constant_M(0.0, 0.1) == 3.0

    def test_degenerate_diffusion(self):
        with pytest.raises(DegenerateDiffusionError):
            constant_M(1.0, 0.0)

    @given(L_b=st.floats(0.0, 10.0), L_sigma=st.floats(0.01, 10.0))
    @settings(max_examples=200)
    def test_matches_oracle(self, L_b, L_sigma):
        assert constant_M(L_b, L_sigma) == pytest.approx(five_term_oracle(L_b, L_sigma), rel=1e-12)

    def test_b_terms_scale_quadratically(self):
        # doubling L_b multiplies every drift term by exactly 4
        base = constant_M(1.0, 1.0)
        assert constant_M(2.0, 1.0) == pytest.approx(4.0 * base, rel=1e-12)

    def test_floor_is_three_always(self):
        for lb, ls in [(0.0, 0.01), (1e-6, 0.5), (0.0, 0.3)]:
            assert constant_M(lb, ls) >= 3.0


class TestZeta:
    def test_zero(self):
        assert zeta(0.0, 1.0, 1.0) == 0.0

    def test_unit_values(self):
        expected = 1.0 + 2.25 + 1.5 + 18.0 / (5.0 * SQRT_PI)
        assert zeta(1.0, 1.0, 1.0) == pytest.approx(expected, rel=1e-14)
        assert zeta(1.0, 1.0, 1.0) == pytest.approx(6.7811, abs=1e-4)

    def test_quarter_value(self):
        val = zeta(0.25, 1.0, 1.0)
        assert val == pytest.approx(0.5 + 0.5625 + 0.09375 + 0.063472, abs=1e-6)
        assert val == pytest.approx(1.2197, abs=1e-4)

    @given(
        t1=st.floats(0.0, 5.0), t2=st.floats(0.0, 5.0),
        lb=st.floats(0.0, 3.0), ls=st.floats(0.0, 3.0),
    )
    @settings(max_examples=200)
    def test_strictly_increasing(self, t1, t2, lb, ls):
        lo, hi = sorted((t1, t2))
        if hi > lo:
            assert zeta(lo, lb, ls) < zeta(hi, lb, ls)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            zeta(-1e-9, 1.0, 1.0)


class TestQuadratureAndHarnack:
    def test_integral_matches_trapezoid_oracle(self):
        profile = BoundProfile(1.0, 1.0)
        mine = profile.int_exp_neg_zeta(1.0)
        oracle = trapezoid_exp_neg_zeta(1.0, 1.0, 1.0)
        assert mine == pytest.approx(oracle, rel=1e-6)

    def test_refinement_self_consistency(self):
        f = lambda s: math.exp(-zeta(s, 1.0, 1.0))
        coarse = adaptive_simpson(f, 0.0, 1.0, rel_tol=1e-8)
        fine = adaptive_simpson(f, 0.0, 1.0, rel_tol=1e-8 / 16)
        assert coarse == pytest.approx(fine, rel=1e-8)

    def test_harnack_rhs_zero_distance(self):
        profile = BoundProfile(1.0, 1.0)
        for t in (0.01, 0.5, 2.0):
            assert harnack_rhs(t, 0.0, profile, 1.0) == 0.0

    def test_harnack_rhs_decreasing_in_t(self):
        profile = BoundProfile(1.0, 1.0)
        ts = np.linspace(0.05, 2.0, 20)
        vals = [harnack_rhs(t, 1.0, profile, 1.0) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_harnack_rhs_oracle_value(self):
        profile = BoundProfile(1.0, 1.0)
        oracle = constant_M(1.0, 1.0) / trapezoid_exp_neg_zeta(1.0, 1.0, 1.0)
        assert harnack_rhs(1.0, 1.0, profile, 1.0) == pytest.approx(oracle, rel=1e-6)

    def test_algebraic_identity(self):
        # rhs * integral == M * dist2 / kappa1^2 exactly up to rounding
        profile = BoundProfile(0.7, 1.3)
        for t in (0.1, 0.9):
            lhs = harnack_rhs(t, 2.5, profile, 1.1) * profile.int_exp_neg_zeta(t)
            assert lhs == pytest.approx(profile.M * 2.5 / 1.1**2, rel=1e-12)

    def test_rejects_nonpositive_t(self):
        profile = BoundProfile(1.0, 1.0)
        with pytest.raises(ValueError):
            harnack_rhs(0.0, 1.0, profile, 1.0)


def counted(f, limit=10_000):
    """f, raising RuntimeError once it has been evaluated ``limit`` times."""
    calls = 0

    def g(x):
        nonlocal calls
        calls += 1
        if calls > limit:
            raise RuntimeError(f"integrand evaluated more than {limit} times")
        return f(x)
    return g


class TestNonFiniteInput:
    """A nan or inf input raises a ValueError naming it; nothing spins."""

    @pytest.mark.parametrize("L_b, L_sigma, field", [
        (math.inf, 1.0, "L_b"), (math.nan, 1.0, "L_b"),
        (1.0, math.inf, "L_sigma"), (1.0, math.nan, "L_sigma"), (1.0, -math.inf, "L_sigma"),
    ])
    def test_constant_M(self, L_b, L_sigma, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            constant_M(L_b, L_sigma)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_zeta(self, t):
        with pytest.raises(ValueError, match="t must be finite"):
            zeta(t, 1.0, 1.0)

    @pytest.mark.parametrize("kappa1", [math.nan, math.inf])
    def test_harnack_rhs(self, kappa1):
        with pytest.raises(ValueError, match="kappa1 must be finite"):
            harnack_rhs(0.25, 1.0, BoundProfile(1.0, 1.0), kappa1)

    @pytest.mark.parametrize("a, b", [(0.0, math.nan), (0.0, math.inf), (math.nan, 1.0),
                                      (-math.inf, 0.0)])
    def test_adaptive_simpson_interval(self, a, b):
        with pytest.raises(ValueError, match="finite interval"):
            adaptive_simpson(counted(lambda s: 1.0), a, b)

    def test_adaptive_simpson_nan_integrand(self):
        with pytest.raises(ValueError, match="not finite"):
            adaptive_simpson(counted(lambda s: math.nan), 0.0, 1.0)


class TestCatalogue:
    def test_standard_model_constants(self):
        m = standard_model()
        assert (m.L_b, m.L_sigma) == (1.0, 1.0)
        assert (m.kappa1, m.kappa2) == (pytest.approx(1.1), pytest.approx(1.9))
        assert m.differentiable

    def test_affine_clamped_valid(self):
        m = affine_clamped_model()
        assert (m.L_b, m.L_sigma, m.kappa1, m.kappa2) == (0.5, 0.5, 1.0, 2.0)
        assert not m.differentiable

    # each catalogue model at its defaults and at one other parameter set
    DECLARED = {
        "sin_modulated": sin_modulated_model(),
        "sin_modulated-params": sin_modulated_model(b_amp=-2.0, b_freq=3.0, s_base=2.0,
                                                    s_amp=-0.5, s_freq=0.7),
        "affine_clamped": affine_clamped_model(),
        "affine_clamped-params": affine_clamped_model(-3.0, 0.25, 1.0, -0.5, 1.0, 0.5, 3.0),
        "constant": constant_model(),
        "constant-params": constant_model(0.3, -1.2),
    }

    @pytest.mark.parametrize("name", DECLARED)
    def test_declared_constants_hold(self, name):
        assert_declared_constants_hold(self.DECLARED[name])

    @pytest.mark.parametrize("tighter", [
        {"L_b": 0.9}, {"L_sigma": 0.9}, {"kappa1": 1.2}, {"kappa2": 1.8},
    ], ids=["L_b", "L_sigma", "kappa1", "kappa2"])
    def test_understated_constant_is_caught(self, tighter):
        # the standard model declares L_b = L_sigma = 1, kappa1 = 1.1, kappa2 = 1.9
        with pytest.raises(AssertionError):
            assert_declared_constants_hold(dataclasses.replace(standard_model(), **tighter))

    def test_constant_model_degenerate(self):
        m = constant_model(0.0, 0.5)
        assert m.L_sigma == 0.0
        with pytest.raises(DegenerateDiffusionError):
            BoundProfile(m.L_b, m.L_sigma)

    def test_from_config_dispatch(self):
        m = model_from_config("sin_modulated", {"b_amp": 0.5})
        assert m.L_b == 0.5
        with pytest.raises(ValueError):
            model_from_config("nope", {})

    # each catalogue model's b and sigma next to the closed form they compute
    CLOSED_FORMS = [
        (sin_modulated_model(), lambda u: 1.0 * np.sin(1.0 * u),
         lambda u: 1.5 + 0.4 * np.sin(2.5 * u)),
        (sin_modulated_model(b_amp=-2.0, b_freq=3.0, s_base=2.0, s_amp=-0.5, s_freq=0.7),
         lambda u: -2.0 * np.sin(3.0 * u), lambda u: 2.0 + -0.5 * np.sin(0.7 * u)),
        (affine_clamped_model(), lambda u: np.clip(0.5 * u + 0.0, -2.0, 2.0),
         lambda u: np.clip(0.5 * u + 1.5, 1.0, 2.0)),
        (affine_clamped_model(-3.0, 0.25, 1.0, -0.5, 1.0, 0.5, 3.0),
         lambda u: np.clip(-3.0 * u + 0.25, -1.0, 1.0),
         lambda u: np.clip(-0.5 * u + 1.0, 0.5, 3.0)),
        (constant_model(0.3, -1.2), lambda u: np.full_like(u, 0.3), lambda u: np.full_like(u, -1.2)),
    ]

    @pytest.mark.parametrize("k", range(len(CLOSED_FORMS)))
    def test_b_sigma_equal_closed_forms_bitwise(self, k):
        model, b, sigma = self.CLOSED_FORMS[k]
        rng = np.random.default_rng(k)
        specials = [np.nan, -np.nan, np.inf, -np.inf, 1e308, -1e308, 5e-324, -5e-324,
                    2.2e-308, -0.0, 0.0]
        u = rng.normal(size=(63, 4, 32)) * 10.0 ** rng.integers(-20, 20, size=(63, 4, 32))
        u.flat[rng.integers(0, u.size, size=500)] = rng.choice(specials, size=500)
        kept = u.copy()
        with np.errstate(all="ignore"):
            for field in (u, u[:, 1, :], u[:, 2, 5], u[7]):
                assert model.b(field).tobytes() == b(field).tobytes()
                assert model.sigma(field).tobytes() == sigma(field).tobytes()
                assert model.b(field) is not field and model.sigma(field) is not field
        assert u.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("build", [
        lambda: sin_modulated_model(penalty="foo"),
        lambda: affine_clamped_model(penalty="negative part"),
        lambda: constant_model(0.0, 0.5, penalty=""),
        lambda: model_from_config("sin_modulated", {"penalty": "foo"}),
    ], ids=["sin_modulated", "affine_clamped", "constant", "from_config"])
    def test_unknown_penalty_rejected_at_construction(self, build):
        with pytest.raises(ValueError, match="penalty"):
            build()

    def test_penalty_shapes(self):
        # each penalty f is defined by its resolvent u = v + f(u) (dt/eps = 1):
        # f = 0 on [0, inf) keeps v >= 0 in place, f > 0 below 0 lifts v < 0
        # towards 0, and a nonincreasing f gives an increasing resolvent
        v = np.linspace(-3, 3, 101)
        for kind in _PENALTIES:
            u = penalty_resolvent(v, 1.0, kind)
            assert np.array_equal(u[v >= 0], v[v >= 0])
            assert np.all((v[v < 0] < u[v < 0]) & (u[v < 0] < 0.0))
            assert np.all(np.diff(u) > 0.0)

    def test_penalty_derivative_signs(self):
        # the resolvent's slope 1/(1 - (dt/eps) f'(u)) lies in (0, 1] when
        # f' <= 0, and is 1 on u >= 0, where f' = 0 (at 0 by convention)
        v = np.linspace(-3, 3, 101)
        for kind in _PENALTIES:
            u = penalty_resolvent(v, 1.0, kind)
            d = penalty_resolvent_deriv(u, 1.0, kind)
            assert np.all((0.0 < d) & (d <= 1.0))
            assert np.all(d[u >= 0] == 1.0)
            assert penalty_resolvent_deriv(np.array([0.0]), 1.0, kind)[0] == 1.0


class TestBoundProfileInvariants:
    @given(lb=st.floats(0.0, 5.0), ls=st.floats(0.05, 5.0))
    @settings(max_examples=100)
    def test_m_at_least_three(self, lb, ls):
        assert BoundProfile(lb, ls).M >= 3.0

    def test_normalized_harnack_scale_decreasing(self):
        # strict decrease is testable while the integral still grows by more
        # than the quadrature tolerance; past t ~ 1.5 the integrand e^{-zeta}
        # has decayed below it and increments drown in quadrature noise
        profile = BoundProfile(1.0, 1.0)
        ts = np.linspace(0.02, 1.2, 25)
        vals = [profile.M / (1.21 * profile.int_exp_neg_zeta(t)) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_integrals_equal_direct_quadrature(self):
        # a profile keeps no integral between calls: each call is one
        # adaptive_simpson run, bit for bit, however often it is asked
        profile = BoundProfile(1.0, 1.0)
        for t in (0.05, 0.5, 2.0):
            neg = adaptive_simpson(lambda s: math.exp(-zeta(s, 1.0, 1.0)), 0.0, t)
            pos = adaptive_simpson(lambda s: math.exp(zeta(s, 1.0, 1.0)), 0.0, t)
            for _ in range(3):
                assert profile.int_exp_neg_zeta(t) == neg
                assert profile.int_exp_zeta(t) == pos
