"""Pass/fail experiments for the semigroup smoothing bounds.

Every checker is one-sided: it can confirm that an upper bound holds with
margin, never that a constant is sharp.  Gates allow 3 combined standard
errors of Monte Carlo slack plus a discretization allowance
5*(dt + dx^2)*scale, since the target inequalities hold for the continuum
dynamics and the artifact tests a discretized proxy.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .coefficients import BoundProfile, CoefficientModel, harnack_rhs
from .grid_noise import NoisePlan, SpaceTimeGrid, increments_matrix, l2_norm, sup_norm
from .semigroup import (
    Functional,
    _check_n_paths,
    _check_positive,
    _mean_se,
    _track_sup,
    estimate_grad_Pt,
    estimate_Pt,
    estimate_Pt_grad_sq,
    estimate_Pt_log,
    estimate_variance,
    run_ensemble,
)
from .solver import ReflectionLedger, _check_run, _lockstep, _project, penalty_resolvent

__all__ = [
    "CheckReport",
    "check_gradient_estimate",
    "check_log_harnack",
    "check_variance_bound",
    "check_lipschitz_Pt",
    "check_initial_continuity",
    "check_eps_monotonicity",
    "check_eps_convergence",
]


@dataclass
class CheckReport:
    check: str
    passed: bool
    lhs: float
    rhs: float
    std_errors: dict
    margin_ratio: float = field(init=False)  # |rhs| / |lhs|, infinite at lhs = 0
    inputs: dict
    seed: int
    config_hash: str = ""
    notes: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.margin_ratio = math.inf if self.lhs == 0 else abs(self.rhs) / abs(self.lhs)

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def to_json(self) -> dict:
        """The fields, with ``verdict`` in place of ``passed``."""
        blob = asdict(self)
        del blob["passed"]
        return {**blob, "verdict": self.verdict}

    def __str__(self) -> str:
        return (
            f"{self.check}: {self.verdict}  lhs={self.lhs:.6g}  rhs={self.rhs:.6g}  "
            f"margin_ratio={self.margin_ratio:.3g}"
        )


MAX_VIOLATION_FRACTION = 1e-3


def _combined_se(*ses: float) -> float:
    return math.sqrt(sum(s * s for s in ses))


def _allowance(grid: SpaceTimeGrid, scale):
    """Discretization allowance 5 (dt + dx^2) * scale; scale may be an array."""
    return 5.0 * (grid.dt + grid.dx ** 2) * scale


def _bound_factor(check, t, model: CoefficientModel, m_scale, factor) -> float:
    """The bound checks' prologue, run before any ensemble: t > 0, m_scale > 0,
    M and zeta(t), then the check's bound factor(profile), which must be finite."""
    if t <= 0:
        raise ValueError("t must be > 0")
    if not m_scale > 0:
        raise ValueError(f"m_scale must be > 0, got {m_scale!r}")
    profile = BoundProfile(model.L_b, model.L_sigma)
    profile.zeta(t)  # zeta grows with t, so every zeta(s <= t) the check takes is finite
    value = factor(profile)
    if not math.isfinite(value):
        raise ValueError(f"the {check} bound factor is {value!r} at L_b = {model.L_b!r}, "
                         f"L_sigma = {model.L_sigma!r}, m_scale = {m_scale!r}")
    return value


def _check_ladder(name: str, ladder) -> None:
    """ValueError naming ``name`` unless its rungs are > 0 and not all equal (one cannot fail)."""
    _check_positive(name, *ladder)
    if len(set(ladder)) < 2:
        raise ValueError(f"{name} needs at least two distinct rungs, got {list(ladder)}")


def _gate(check, lhs, rhs, se_lhs, se_rhs, grid, seed, t, n_paths, model, m_scale,
          allowance_rhs=None, **inputs) -> CheckReport:
    """The 3-SE gate: PASS when lhs <= rhs + 3 * combined SE + allowance.

    The allowance scales with max(|lhs|, |allowance_rhs|), where
    allowance_rhs defaults to rhs.  The report's inputs are t, n_paths, the
    model name and m_scale, then the check's own keyword ``inputs``.
    """
    scale_rhs = rhs if allowance_rhs is None else allowance_rhs
    slack = 3.0 * _combined_se(se_lhs, se_rhs) + _allowance(grid, max(abs(lhs), abs(scale_rhs)))
    return CheckReport(
        check=check,
        passed=lhs <= rhs + slack,
        lhs=lhs,
        rhs=rhs,
        std_errors={"lhs": se_lhs, "rhs": se_rhs},
        inputs={"t": t, "n_paths": n_paths, "model": model.name, "m_scale": m_scale, **inputs},
        seed=seed,
    )


def check_gradient_estimate(phi: Functional, h, t, mode, model: CoefficientModel,
                            grid: SpaceTimeGrid, n_paths: int, seed: int, eps=None,
                            directions=None, m_scale: float = 1.0) -> CheckReport:
    """Gate |grad P_t Phi|^2 <= 2 M e^{zeta(t)} P_t |grad Phi|^2.

    The left side uses the coupled finite-difference proxy (a lower bound,
    which is what a one-sided upper-bound check needs).  ``m_scale``
    rescales M for fail-injection tests.
    """
    if not phi.is_c1:
        raise ValueError("gradient estimate check needs a C1 catalogue functional")
    factor = _bound_factor("gradient", t, model, m_scale, lambda p: (
        2.0 * m_scale * p.M * p.exp_zeta(t)))
    grad = estimate_grad_Pt(phi, h, t, mode, model, grid, n_paths, seed,
                            eps=eps, directions=directions)
    pgs = estimate_Pt_grad_sq(phi, h, t, mode, model, grid, n_paths, seed, eps=eps)
    return _gate("gradient", grad.value ** 2, factor * pgs.mean,
                 2.0 * grad.value * grad.std_error, factor * pgs.std_error, grid, seed,
                 t, n_paths, model, m_scale, best_direction=grad.best_direction,
                 delta=grad.delta, rejected_directions=[lbl for lbl, _ in grad.rejected])


def check_log_harnack(phi: Functional, h1, h2, t, mode, model: CoefficientModel,
                      grid: SpaceTimeGrid, n_paths: int, seed: int, eps=None,
                      m_scale: float = 1.0) -> CheckReport:
    """Gate P_t log Phi(h1) <= log P_t Phi(h2) + M |h1-h2|^2 / (k1^2 int_0^t e^{-zeta}).

    The log of the h2-side mean gets a delta-method standard error.
    """
    h1 = _check_run(h1, mode, eps, grid)
    h2 = _check_run(h2, mode, eps, grid)
    dist2 = float(l2_norm(h1 - h2, grid.dx)) ** 2
    additive = _bound_factor("log-harnack", t, model, m_scale, lambda p: (
        m_scale * harnack_rhs(t, dist2, p, model.kappa1) if dist2 > 0 else 0.0))
    left = estimate_Pt_log(phi, h1, t, mode, model, grid, n_paths, seed, eps=eps)
    right = estimate_Pt(phi, h2, t, mode, model, grid, n_paths, seed, eps=eps)
    log_mean = math.log(right.mean)
    rhs = log_mean + additive
    return _gate("log-harnack", left.mean, rhs, left.std_error, right.std_error / right.mean,
                 grid, seed, t, n_paths, model, m_scale, allowance_rhs=log_mean,
                 dist2=dist2, additive_term=additive)


def check_variance_bound(phi: Functional, h, t, mode, model: CoefficientModel,
                         grid: SpaceTimeGrid, n_paths: int, seed: int, eps=None,
                         m_scale: float = 1.0) -> CheckReport:
    """Gate P_t Phi^2 - (P_t Phi)^2 <= 2 M k2^2 P_t |grad Phi|^2 int_0^t e^{zeta}."""
    factor = _bound_factor("variance", t, model, m_scale, lambda p: (
        2.0 * m_scale * p.M * model.kappa2 ** 2 * p.int_exp_zeta(t)))
    if not phi.is_c1:
        raise ValueError("variance bound check needs a C1 catalogue functional")
    var = estimate_variance(phi, h, t, mode, model, grid, n_paths, seed, eps=eps)
    pgs = estimate_Pt_grad_sq(phi, h, t, mode, model, grid, n_paths, seed, eps=eps)
    return _gate("variance", var.mean, factor * pgs.mean, var.std_error,
                 factor * pgs.std_error, grid, seed, t, n_paths, model, m_scale)


def check_lipschitz_Pt(phi: Functional, h, t, mode, model: CoefficientModel,
                       grid: SpaceTimeGrid, n_paths: int, seed: int, eps=None,
                       directions=None, m_scale: float = 1.0) -> CheckReport:
    """Gate |grad P_t Phi|^2 <= (2M / (k1^2 int_0^t e^{-zeta})) * variance.

    Works for merely bounded Phi, so it doubles as the empirical
    strong-Feller check: the finite-difference proxy stays finite at t > 0
    even when |grad Phi| is unbounded.
    """
    factor = _bound_factor("lipschitz", t, model, m_scale, lambda p: (
        2.0 * m_scale * p.M / (model.kappa1 ** 2 * p.int_exp_neg_zeta(t))))
    grad = estimate_grad_Pt(phi, h, t, mode, model, grid, n_paths, seed,
                            eps=eps, directions=directions)
    var = estimate_variance(phi, h, t, mode, model, grid, n_paths, seed, eps=eps)
    return _gate("lipschitz", grad.value ** 2, factor * var.mean,
                 2.0 * grad.value * grad.std_error, factor * var.std_error, grid, seed,
                 t, n_paths, model, m_scale, best_direction=grad.best_direction)


def check_initial_continuity(h1, h2, p, mode, model: CoefficientModel,
                             grid: SpaceTimeGrid, n_paths: int, seed: int, eps=None,
                             ladder=(1.0, 0.5, 0.25)) -> CheckReport:
    """Initial-data continuity: E[sup_{[0,T]x[0,1]} |u(h1) - u(h2_s)|^p]
    should scale like |h1 - h2_s|_inf^p along a geometric ladder.

    The ladder interpolates h2_s = h1 + s (h2 - h1) with rungs s in (0, 1]
    (a convex combination, so it stays in the cone); all runs share noise.  Passes when the ratio
    estimate / |h1-h2_s|_inf^p varies by less than 2x across the ladder.
    """
    h1 = _check_run(h1, mode, eps, grid)
    h2 = _check_run(h2, mode, eps, grid)
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be finite and >= 1, got {p!r}")
    _check_ladder("ladder", ladder)
    if any(s > 1 for s in ladder):
        raise ValueError(f"ladder rungs must lie in (0, 1], got {list(ladder)}")
    _check_n_paths(n_paths)
    diff = h2 - h1
    if float(sup_norm(diff)) == 0.0:
        raise ValueError("h1 and h2 coincide; the ladder is degenerate")
    variants = [h1] + [h1 + s * diff for s in ladder]
    pairs = [(0, 1 + j) for j in range(len(ladder))]
    _, sups = run_ensemble(np.stack(variants), grid.n_steps, mode, model, grid,
                           seed, n_paths, eps=eps, track_sup_pairs=pairs)
    sup_diffs = [float(sup_norm(s * diff)) for s in ladder]
    ratios = []
    ses = {}
    for j, s in enumerate(ladder):
        mean, ses[f"s={s:g}"] = _mean_se(sups[j] ** p / sup_diffs[j] ** p)
        ratios.append(mean)
    spread = max(ratios) / min(ratios)
    return CheckReport(
        check="continuity",
        passed=spread < 2.0,
        lhs=spread,
        rhs=2.0,
        std_errors=ses,
        inputs={"p": p, "ladder": list(ladder), "ratios": ratios, "sup_diffs": sup_diffs,
                "n_paths": n_paths, "model": model.name},
        seed=seed,
    )


def _eps_slab(h, grid: SpaceTimeGrid, n_variants: int, n_paths: int, seed: int):
    """The eps experiments' start: h under the run rules (each experiment checks its
    own eps), copied to shape (n_space, n_variants, n_paths), the streams
    0..n_paths-1, and their noise callable m -> (n_space, 1, n_paths)."""
    h = _check_run(h, "reflected", None, grid)
    plan, streams = NoisePlan(seed), np.arange(n_paths)
    u0 = np.broadcast_to(h[:, None, None], (grid.n_space, n_variants, n_paths))
    return u0.copy(), streams, lambda m: increments_matrix(plan, grid, m, streams)[:, None, :]


def check_eps_monotonicity(h, model: CoefficientModel, grid: SpaceTimeGrid,
                           eps_big: float, eps_small: float, n_paths: int, seed: int) -> CheckReport:
    """Pathwise ordering under shared noise: the harder-penalized solution
    (smaller eps) should dominate, up to discretization slack.

    Counts grid points over all steps, nodes, and paths where
    u_small < u_big - 5 (dt + dx^2) * (running max |u|); passes when the
    violating fraction stays below ``MAX_VIOLATION_FRACTION``.
    """
    _check_positive("eps_big", eps_big)
    _check_positive("eps_small", eps_small)
    if not eps_small < eps_big:
        raise ValueError("need eps_small < eps_big")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    u0, streams, noise = _eps_slab(h, grid, 1, n_paths, seed)
    fields = [u0, u0]  # [u_big, u_small]; the stepper replaces each, never writes into it
    stages = [lambda v, q=grid.dt / e: penalty_resolvent(v, q, model.penalty_kind, out=v)
              for e in (eps_big, eps_small)]
    running_scale = np.maximum(np.max(np.abs(u0), axis=0), 1e-300)
    violations = 0
    worst = 0.0
    for _ in _lockstep(fields, stages, noise, grid.n_steps, model, grid, streams):
        u_big, u_small = fields
        running_scale = np.maximum(running_scale, np.max(np.abs(u_big), axis=0))
        running_scale = np.maximum(running_scale, np.max(np.abs(u_small), axis=0))
        gap = u_big - u_small - _allowance(grid, running_scale)
        violations += int(np.count_nonzero(gap > 0.0))
        worst = max(worst, float(np.max(gap)))
    total = grid.n_steps * grid.n_space * n_paths
    fraction = violations / total
    return CheckReport(
        check="comparison",
        passed=fraction < MAX_VIOLATION_FRACTION,
        lhs=fraction,
        rhs=MAX_VIOLATION_FRACTION,
        std_errors={},
        inputs={"eps_big": eps_big, "eps_small": eps_small, "n_paths": n_paths,
                "worst_violation": worst, "points_checked": total, "model": model.name},
        seed=seed,
    )


def check_eps_convergence(h, model: CoefficientModel, grid: SpaceTimeGrid,
                          eps_ladder, n_paths: int, seed: int) -> CheckReport:
    """Penalized-to-reflected convergence: under shared noise the sup
    distance E[sup_{t,x} |u_eps - u_reflected|] must decrease along a
    decreasing eps ladder, and the reflected run must stay exactly
    nonnegative."""
    _check_ladder("eps_ladder", eps_ladder)
    _check_n_paths(n_paths)
    eps_ladder = sorted(eps_ladder, reverse=True)
    n_eps = len(eps_ladder)
    u0, streams, noise = _eps_slab(h, grid, n_eps + 1, n_paths, seed)
    U = [u0]
    qs = [grid.dt / e for e in eps_ladder]
    sup_dist = np.zeros((n_eps, n_paths))
    ledger = ReflectionLedger.empty((grid.n_space, n_paths))
    min_reflected = 0.0

    def stage(V):
        """Each eps's resolvent on its slice; the last slice projected into the ledger."""
        for j, q in enumerate(qs):
            v = V[:, j, :]
            penalty_resolvent(v, q, model.penalty_kind, out=v)
        _project(V[:, n_eps, :], grid, ledger)
        return V

    pairs = [(j, n_eps) for j in range(n_eps)]
    for _ in _lockstep(U, [stage], noise, grid.n_steps, model, grid, streams):
        min_reflected = min(min_reflected, float(np.min(U[0][:, n_eps, :])))
        _track_sup(sup_dist, U[0], pairs)
    stats = [_mean_se(sup_dist[j]) for j in range(n_eps)]
    means = [mean for mean, _ in stats]
    decreasing = all(means[j + 1] < means[j] for j in range(n_eps - 1))
    nonneg = min_reflected >= 0.0
    return CheckReport(
        check="eps-convergence",
        passed=decreasing and nonneg,
        lhs=means[-1],
        rhs=means[0],
        std_errors={f"eps={e:g}": se for e, (_, se) in zip(eps_ladder, stats)},
        inputs={"eps_ladder": list(eps_ladder), "sup_distances": means,
                "reflected_min": min_reflected, "n_paths": n_paths, "model": model.name,
                "ledger_total": ledger.total,
                "complementarity_sum": ledger.complementarity_sum},
        seed=seed,
        notes=["sup distances must decrease along the ladder; reflected run must stay >= 0"],
    )
