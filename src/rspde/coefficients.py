"""Coefficient models and the explicit bound functions.

A model bundles drift b, diffusion sigma and the name of a penalty kind
together with the declared constants (Lipschitz bounds L_b, L_sigma and the
diffusion window kappa1 <= |sigma| <= kappa2) that the inequality checkers
consume.  The catalogue models derive these constants from their
parameters.  Each penalty kind is defined in one place, by its resolvent
in ``solver.penalty_resolvent``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "DegenerateDiffusionError",
    "CoefficientModel",
    "BoundProfile",
    "constant_M",
    "zeta",
    "harnack_rhs",
    "constant_model",
    "affine_clamped_model",
    "sin_modulated_model",
    "standard_model",
    "model_from_config",
    "MODEL_CATALOGUE",
    "adaptive_simpson",
]

_SQRT_PI = math.sqrt(math.pi)


class DegenerateDiffusionError(ValueError):
    """Raised when a bound formula needs L_sigma > 0 but got 0."""


# the penalty kinds; ``solver.penalty_resolvent`` defines each one
_PENALTIES = ("negative_part", "arctan_square")


# ---------------------------------------------------------------------------
# coefficient models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientModel:
    """Drift/diffusion pair with declared constants and a penalty choice."""

    name: str
    b: Callable[[np.ndarray], np.ndarray]
    sigma: Callable[[np.ndarray], np.ndarray]
    L_b: float
    L_sigma: float
    kappa1: float
    kappa2: float
    penalty_kind: str = "negative_part"
    db: Callable[[np.ndarray], np.ndarray] | None = None
    dsigma: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.penalty_kind not in _PENALTIES:
            raise ValueError(f"penalty must be one of {sorted(_PENALTIES)}, got {self.penalty_kind!r}")

    @property
    def differentiable(self) -> bool:
        return self.db is not None and self.dsigma is not None


# The catalogue's b and sigma compute in one output array, applying the
# operations of the closed form in the docstring in that order, so each
# entry comes out bit for bit as the closed form gives it.  The input is
# only read, and the output is fresh, so the stepper may overwrite it
# (docs/catalogue.md, "What b and sigma may return").

def _clipped_affine(u, slope, shift, lo, hi):
    """clip(slope * u + shift, lo, hi)."""
    out = np.asarray(np.multiply(slope, u))
    np.add(out, shift, out=out)
    return np.clip(out, lo, hi, out=out)


def _sine(u, amp, freq, base=None):
    """amp * sin(freq * u), and base + that when ``base`` is given."""
    out = np.asarray(np.multiply(freq, u))
    np.sin(out, out=out)
    np.multiply(amp, out, out=out)
    if base is not None:
        np.add(base, out, out=out)
    return out


def constant_model(b0: float = 0.0, s0: float = 0.0, *, penalty: str = "negative_part",
                   kappa1: float | None = None, kappa2: float | None = None) -> CoefficientModel:
    """b and sigma constant.  L_sigma = 0, so the bound formulas reject it."""
    return CoefficientModel(
        name="constant",
        b=lambda u, b0=b0: np.full_like(np.asarray(u, dtype=float), b0),
        sigma=lambda u, s0=s0: np.full_like(np.asarray(u, dtype=float), s0),
        L_b=0.0,
        L_sigma=0.0,
        kappa1=0.9 * abs(s0) if kappa1 is None else kappa1,
        kappa2=1.1 * abs(s0) if kappa2 is None else kappa2,
        penalty_kind=penalty,
        db=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        dsigma=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
    )


def affine_clamped_model(b_slope: float = 0.5, b_shift: float = 0.0, b_clip: float = 2.0,
                         s_slope: float = 0.5, s_shift: float = 1.5,
                         s_lo: float = 1.0, s_hi: float = 2.0, *,
                         penalty: str = "negative_part") -> CoefficientModel:
    """Affine drift and diffusion, clamped; diffusion clamped into [s_lo, s_hi].

    Not differentiable at the clamp corners, so the tangent integrator
    rejects it.
    """
    if not 0.0 < s_lo < s_hi:
        raise ValueError("need 0 < s_lo < s_hi")
    return CoefficientModel(
        name="affine_clamped",
        b=lambda u: _clipped_affine(u, b_slope, b_shift, -b_clip, b_clip),
        sigma=lambda u: _clipped_affine(u, s_slope, s_shift, s_lo, s_hi),
        L_b=abs(b_slope),
        L_sigma=abs(s_slope),
        kappa1=s_lo,
        kappa2=s_hi,
        penalty_kind=penalty,
    )


def sin_modulated_model(b_amp: float = 1.0, b_freq: float = 1.0,
                        s_base: float = 1.5, s_amp: float = 0.4, s_freq: float = 2.5, *,
                        penalty: str = "negative_part") -> CoefficientModel:
    """Smooth bounded-oscillation model; the defaults give the standard
    checker configuration L_b = L_sigma = 1, kappa1 = 1.1, kappa2 = 1.9."""
    if not 0.0 <= abs(s_amp) < s_base:
        raise ValueError("need |s_amp| < s_base for a positive diffusion window")
    return CoefficientModel(
        name="sin_modulated",
        b=lambda u: _sine(u, b_amp, b_freq),
        sigma=lambda u: _sine(u, s_amp, s_freq, s_base),
        L_b=abs(b_amp * b_freq),
        L_sigma=abs(s_amp * s_freq),
        kappa1=s_base - abs(s_amp),
        kappa2=s_base + abs(s_amp),
        penalty_kind=penalty,
        db=lambda u: b_amp * b_freq * np.cos(b_freq * u),
        dsigma=lambda u: s_amp * s_freq * np.cos(s_freq * u),
    )


def standard_model() -> CoefficientModel:
    return sin_modulated_model()


MODEL_CATALOGUE = {
    "constant": constant_model,
    "affine_clamped": affine_clamped_model,
    "sin_modulated": sin_modulated_model,
}


def model_from_config(name: str, params: dict | None = None) -> CoefficientModel:
    if name not in MODEL_CATALOGUE:
        raise ValueError(f"unknown model {name!r}; choose from {sorted(MODEL_CATALOGUE)}")
    return MODEL_CATALOGUE[name](**(params or {}))


# ---------------------------------------------------------------------------
# explicit constants and bound functions
# ---------------------------------------------------------------------------

def _square(name: str, value: float, power: int = 2, divisor: bool = False) -> float:
    """value^2, after checking that value^power (2 or 4) is finite, and nonzero if a divisor.

    A power that overflows, or underflows to 0 under a division, would turn
    M or zeta into inf or nan.
    """
    sq = value * value
    p = sq if power == 2 else sq * sq
    if not math.isfinite(p) or (divisor and p == 0.0):
        raise ValueError(f"{name} must be in range: {name}^{power} = {p!r} at {name} = {value!r}")
    return sq


def _finite_result(what: str, value: float, L_b: float, L_sigma: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"L_b and L_sigma must be in range: {what} = {value!r} "
                         f"at L_b = {L_b!r}, L_sigma = {L_sigma!r}")
    return value


def constant_M(L_b: float, L_sigma: float) -> float:
    """Smoothing constant max{3, 9Ls^2/sqrt(pi), 8Lb^2/Ls^4, 144Lb^2/(Ls^2 sqrt(pi)), 864Lb^2/sqrt(pi)}.

    Undefined for L_sigma = 0 (two terms divide by powers of L_sigma); that
    degenerate case raises instead of guessing a constant.  Both constants
    must be finite, and so must M and the powers of the constants it
    takes; L_sigma^4, a divisor, must also not underflow to 0.
    """
    if not 0.0 <= L_b < math.inf:
        raise ValueError(f"L_b must be finite and >= 0, got {L_b}")
    if not math.isfinite(L_sigma):
        raise ValueError(f"L_sigma must be finite, got {L_sigma}")
    if L_sigma <= 0.0:
        raise DegenerateDiffusionError(
            "constant_M needs L_sigma > 0; constant-diffusion models fall outside the bound formulas"
        )
    lb2 = _square("L_b", L_b)
    ls2 = _square("L_sigma", L_sigma, 4, divisor=True)
    return _finite_result("M", max(
        3.0,
        9.0 * ls2 / _SQRT_PI,
        8.0 * lb2 / (ls2 * ls2),
        144.0 * lb2 / (ls2 * _SQRT_PI),
        864.0 * lb2 / _SQRT_PI,
    ), L_b, L_sigma)


def zeta(t: float, L_b: float, L_sigma: float) -> float:
    """Growth exponent t^(1/2) + (9Ls^4/4) t + (3Lb^2/2) t^2 + (18Lb^2Ls^2/(5 sqrt(pi))) t^(5/2).

    Raises a ValueError naming L_b or L_sigma when a power of it, or the
    result, is not finite.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    lb2 = _square("L_b", L_b)
    ls2 = _square("L_sigma", L_sigma, 4)
    return _finite_result(f"zeta({t!r})", (
        math.sqrt(t)
        + 2.25 * ls2 * ls2 * t
        + 1.5 * lb2 * t * t
        + (18.0 * lb2 * ls2 / (5.0 * _SQRT_PI)) * t * t * math.sqrt(t)
    ), L_b, L_sigma)


def adaptive_simpson(f, a: float, b: float, rel_tol: float = 1e-8) -> float:
    """Adaptive Simpson quadrature of f on [a, b] to relative tolerance rel_tol.

    Raises on a non-finite interval or coarse estimate, on which the
    stopping test never holds and the recursion would run to full depth.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"need a finite interval, got [{a}, {b}]")
    if b < a:
        raise ValueError("need b >= a")
    if b == a:
        return 0.0
    # coarse magnitude estimate to convert the relative tolerance to absolute
    xs = np.linspace(a, b, 65)
    coarse = float(np.trapezoid([f(x) for x in xs], xs))
    if not math.isfinite(coarse):
        raise ValueError(f"integrand is not finite on [{a}, {b}]: coarse estimate {coarse}")
    tol = rel_tol * max(abs(coarse), 1e-300)

    def simpson(fa, fm, fb, h):
        return h / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm = f(lm)
        frm = f(rm)
        left = simpson(flo, flm, fmid, mid - lo)
        right = simpson(fmid, frm, fhi, hi - mid)
        if depth > 60 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (
            recurse(lo, mid, flo, flm, fmid, left, eps / 2.0, depth + 1)
            + recurse(mid, hi, fmid, frm, fhi, right, eps / 2.0, depth + 1)
        )

    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    return recurse(a, b, fa, fm, fb, simpson(fa, fm, fb, b - a), tol, 0)


class BoundProfile:
    """Bound package for one (L_b, L_sigma) pair: M, zeta, and the two
    exponential growth integrals."""

    def __init__(self, L_b: float, L_sigma: float):
        self.L_b = L_b
        self.L_sigma = L_sigma
        self.M = constant_M(L_b, L_sigma)

    def zeta(self, t: float) -> float:
        return zeta(t, self.L_b, self.L_sigma)

    def exp_zeta(self, t: float) -> float:
        """exp(zeta(t)); a ValueError naming L_b and L_sigma when it overflows."""
        try:
            return math.exp(self.zeta(t))
        except OverflowError:
            return _finite_result(f"e^zeta({t!r})", math.inf, self.L_b, self.L_sigma)

    def int_exp_neg_zeta(self, t: float) -> float:
        """integral_0^t exp(-zeta(s)) ds, adaptive quadrature to 1e-8 relative."""
        return adaptive_simpson(lambda s: math.exp(-self.zeta(s)), 0.0, t)

    def int_exp_zeta(self, t: float) -> float:
        """integral_0^t exp(+zeta(s)) ds; the largest integrand, exp(zeta(t)), is taken first."""
        self.exp_zeta(t)
        return adaptive_simpson(self.exp_zeta, 0.0, t)


def harnack_rhs(t: float, dist2: float, profile: BoundProfile, kappa1: float) -> float:
    """Additive term M * dist2 / (kappa1^2 * integral_0^t exp(-zeta))."""
    if t <= 0:
        raise ValueError(f"t must be > 0, got {t}")
    if dist2 < 0:
        raise ValueError(f"dist2 must be >= 0, got {dist2}")
    if not 0.0 < kappa1 < math.inf:
        raise ValueError(f"kappa1 must be finite and > 0, got {kappa1}")
    return profile.M * dist2 / (kappa1 * kappa1 * profile.int_exp_neg_zeta(t))
