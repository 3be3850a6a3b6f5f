"""Models, assumption validation, and the explicit bound functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rspde.coefficients import (
    BoundProfile,
    CoefficientModel,
    DegenerateDiffusionError,
    adaptive_simpson,
    affine_clamped_model,
    constant_M,
    constant_model,
    harnack_rhs,
    model_from_config,
    penalty_arctan_square,
    penalty_negative_part,
    sin_modulated_model,
    standard_model,
    t0_eps,
    validate_model,
    zeta,
)

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


class TestT0Eps:
    def test_nonincreasing_in_inverse_eps(self):
        vals = [t0_eps(e, 1.0, 1.0) for e in (1.0, 0.1, 0.01)]
        assert vals[0] >= vals[1] >= vals[2] > 0.0

    def test_vanishes_as_eps_to_zero(self):
        assert t0_eps(1e-6, 1.0, 1.0) < t0_eps(1e-2, 1.0, 1.0)

    def test_bracket_validity(self):
        # with L_sigma = 1 the diffusion series alone exceeds 1/6 in the
        # large-t limit (limit value 1/3), so t0 is finite
        eps, lb, ls = 10.0, 0.0, 1.0
        t0 = t0_eps(eps, lb, ls)
        assert 0.0 < t0 < 1e6

        pi2 = math.pi**2

        def cond(t):
            n = np.arange(1, 200_000)
            series = pi2 / 6 - float(np.sum(np.exp(-(n**2) * pi2 * t) / n**2))
            return ((lb + 1 / eps) ** 2 * t / pi2) * (1 - math.exp(-pi2 * t)) + (
                2 * ls**2 / pi2
            ) * series

        assert cond(max(t0 - 1e-6, 1e-12)) <= 1.0 / 6.0
        assert cond(t0 + 1e-6) > 1.0 / 6.0

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            t0_eps(0.0, 1.0, 1.0)


class TestValidateModel:
    def test_sin_drift_passes(self):
        model = CoefficientModel(
            name="custom", b=np.sin, sigma=lambda u: 1.5 + 0.4 * np.sin(u),
            L_b=1.0, L_sigma=0.4, kappa1=1.1, kappa2=1.9,
        )
        report = validate_model(model, -10.0, 10.0)
        assert report.passed, str(report)

    def test_sigma_band_passes(self):
        model = CoefficientModel(
            name="custom", b=np.sin, sigma=lambda u: 1.5 + 0.4 * np.sin(u),
            L_b=1.0, L_sigma=0.4, kappa1=1.1, kappa2=1.9,
        )
        report = validate_model(model, -20.0, 20.0)
        assert report.passed
        assert report.sigma_min >= 1.1 - 1e-9
        assert report.sigma_max <= 1.9 + 1e-9

    def test_unbounded_sigma_fails(self):
        model = CoefficientModel(
            name="bad", b=lambda u: np.zeros_like(u), sigma=lambda u: np.asarray(u, float),
            L_b=0.0, L_sigma=1.0, kappa1=0.5, kappa2=10.0,
        )
        report = validate_model(model, -1.0, 1.0)
        assert not report.passed
        assert any("kappa1" in msg for msg in report.failures)

    def test_understated_lipschitz_fails(self):
        model = CoefficientModel(
            name="bad", b=lambda u: 2.0 * np.sin(u), sigma=lambda u: 1.5 + 0.4 * np.sin(u),
            L_b=1.0, L_sigma=0.4, kappa1=1.1, kappa2=1.9,
        )
        report = validate_model(model, -10.0, 10.0)
        assert not report.passed

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            validate_model(standard_model(), 1.0, 1.0)


class TestCatalogue:
    def test_standard_model_constants(self):
        m = standard_model()
        assert (m.L_b, m.L_sigma) == (1.0, 1.0)
        assert (m.kappa1, m.kappa2) == (pytest.approx(1.1), pytest.approx(1.9))
        assert m.differentiable
        assert validate_model(m, -15.0, 15.0).passed

    def test_affine_clamped_valid(self):
        m = affine_clamped_model()
        assert not m.differentiable
        assert validate_model(m, -5.0, 5.0).passed

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
        u = np.linspace(-3, 3, 101)
        for f in (penalty_negative_part, penalty_arctan_square):
            vals = f(u)
            assert np.all(vals[u >= 0] == 0.0)
            assert np.all(vals[u < 0] > 0.0)
            assert np.all(np.diff(vals) <= 1e-15)

    def test_penalty_derivative_signs(self):
        m = standard_model(penalty="arctan_square")
        u = np.linspace(-3, 3, 101)
        assert np.all(m.penalty_deriv(u) <= 0.0)
        m2 = standard_model()
        assert np.all(m2.penalty_deriv(u) <= 0.0)
        assert m2.penalty_deriv(np.array([0.0]))[0] == 0.0


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

    def test_integral_cache_consistency(self):
        profile = BoundProfile(1.0, 1.0)
        a = profile.int_exp_neg_zeta(0.5)
        b = profile.int_exp_neg_zeta(0.5)
        assert a == b
