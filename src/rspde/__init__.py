"""Reflected stochastic heat equation laboratory.

Simulates the heat equation on [0,1] with Dirichlet boundaries, Lipschitz
drift/diffusion, space-time white noise, and a nonnegativity constraint
enforced either by penalization or by projection with an explicit
constraint-mass ledger; estimates the transition semigroup by Monte Carlo
and checks the quantitative smoothing bounds (gradient, log-Harnack,
variance, Lipschitz) with confidence-interval gates.
"""

from .coefficients import (
    BoundProfile,
    CoefficientModel,
    DegenerateDiffusionError,
    constant_M,
    harnack_rhs,
    model_from_config,
    standard_model,
    zeta,
)
from .grid_noise import (
    NoisePlan,
    SpaceTimeGrid,
    l2_norm,
    make_grid,
    sample_increments,
    sup_norm,
)
from .heat import heat_apply, implicit_step
from .semigroup import (
    Functional,
    MCEstimate,
    bounded_cylinder,
    clipped_affine,
    direction_dictionary,
    estimate_grad_Pt,
    estimate_Pt,
    estimate_Pt_log,
    estimate_variance,
    exp_neg_pair,
)
from .solver import (
    BlowUpError,
    ReflectionLedger,
    Trajectory,
    deterministic_obstacle,
    solve_path,
    solve_tangent,
)
from .verify import (
    check_eps_convergence,
    check_eps_monotonicity,
    check_gradient_estimate,
    check_initial_continuity,
    check_lipschitz_Pt,
    check_log_harnack,
    check_variance_bound,
)

__version__ = "0.1.0"
