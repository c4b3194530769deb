"""Proximal sampling with exact Fisher-information accounting.

Closed-form isotropic-Gaussian channel arithmetic, a 1-D quadrature
engine for smoothed densities, the proximal sampler with a
rejection-sampling backward step, and the finite-dimensional
optimization analogues, all wired to a certifying CLI.
"""

from .gaussian import (
    Heat,
    HeatPerturbed,
    HeatSLC,
    HeatSLCPoincare,
    IsoGaussian,
    OU,
    OuSLC,
    OuSLCPoincare,
    Proximal,
    ProxRate,
    evolve,
    fi_curve,
    fisher_information,
    iteration_count,
    kl_curve,
    kl_divergence,
    proximal_chain,
    proximal_step,
)
from .potentials import (
    ConvergenceError,
    QuadraticPotential,
    QuarticPotential,
    ScalarPotential,
    SmoothPotential,
    SpikeSpec,
    counterexample_potential,
    minimize,
    quadratic_potential,
    quartic_1d,
    spike_potential,
    spike_spec,
)
from .quadrature import (
    ChannelTrace,
    EvalGrid,
    GaussHermiteRule,
    NormalizationError,
    QuadratureError,
    QuadResult,
    TraceRow,
    convolved_logdensity,
    counterexample_initial_slope,
    counterexample_trace,
    default_time_grid,
    fi_kl_functional,
    gap_check,
    gauss_hermite,
    perturbed_bound_check,
    smoothed_well_logdensity,
)
from .sampler import (
    AcceptanceExponentError,
    SamplerConfig,
    SamplerRun,
    TrialCapExceeded,
    chain_rng,
    expected_trials_bound,
    forward_step,
    rejection_kappa,
    rgo_sample,
    run_chain,
)
from .optim import ProxGradTrace, gradient_flow, prox_grad_run, prox_grad_step

__version__ = "0.1.0"
