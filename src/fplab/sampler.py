"""Proximal sampler: Gaussian forward step, exact backward step by
rejection sampling, and seeded chain driver.

One iteration from x_k: draw y_k ~ N(x_k, eta I), then draw
x_{k+1} ~ nu(x | y_k) proportional to exp(-g(x) - |x - y_k|^2 / (2 eta)).
The backward conditional is sampled exactly: minimize
f_y(x) = g(x) + |x-y|^2/(2 eta) (by the target's exact prox point where it
has one, by gradient descent otherwise), propose Z ~ N(x*_y, eta/(1 - eta L) I),
accept with probability

    exp(-f_y(Z) + f_y(x*_y) + (1 - eta L)/(2 eta) * |Z - x*_y|^2).

Note the exponent coefficient (1 - eta L)/(2 eta) is the *reciprocal* of
the proposal variance.  Some write-ups print eta/(2 (1 - eta L)) here,
which does not keep acceptance probabilities <= 1; the form above is the
one forced by the domination argument (f_y is (1/eta - L)-strongly convex
when eta L < 1), and the sampler asserts exponent <= 0 on every proposal.

Randomness is counter-based (Philox) keyed by (seed, chain); identical
configurations reproduce bit-identical runs, and distinct chains are
independent streams safe to run in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .potentials import SmoothPotential, minimize, prox_objective

__all__ = [
    "SamplerConfig",
    "SamplerRun",
    "TrialCapExceeded",
    "AcceptanceExponentError",
    "rejection_kappa",
    "expected_trials_bound",
    "forward_step",
    "prox_route",
    "rgo_sample",
    "run_chain",
    "chain_rng",
]


_RGO_TOL = 1e-10  # prox-point gradient tolerance, relative to 1 + |y|


class TrialCapExceeded(RuntimeError):
    """The rejection loop hit its safety cap without accepting."""


class AcceptanceExponentError(RuntimeError):
    """An acceptance exponent came out positive: the declared smoothness of
    the target does not dominate the proposal, so the constants are wrong."""


def rejection_kappa(eta: float, smoothness: float) -> float:
    """kappa = (1 + eta L) / (1 - eta L); requires eta L < 1."""
    if not 0.0 < eta * smoothness < 1.0:
        raise ValueError("need 0 < eta * smoothness < 1")
    return (1.0 + eta * smoothness) / (1.0 - eta * smoothness)


def expected_trials_bound(eta: float, smoothness: float, dim: int) -> float:
    """Upper bound kappa^(d/2) on the expected proposals per accepted draw."""
    return rejection_kappa(eta, smoothness) ** (dim / 2.0)


@dataclass(frozen=True)
class SamplerConfig:
    """Chain parameters; burn_in None means iters // 4."""

    eta: float
    iters: int
    seed: int
    burn_in: Optional[int] = None

    def __post_init__(self):
        if not self.eta > 0.0:
            raise ValueError("eta must be positive")
        if not (isinstance(self.iters, (int, np.integer)) and self.iters >= 1):
            raise ValueError("iters must be a positive integer")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.burn_in is not None and not (0 <= self.burn_in < self.iters):
            raise ValueError("burn_in must lie in [0, iters)")

    def resolved_burn_in(self) -> int:
        return self.iters // 4 if self.burn_in is None else self.burn_in

    def resolved_max_trials(self, g: SmoothPotential) -> int:
        """Rejection-loop cap max(100, 50 * ceil(kappa^(d/2))): five times the
        floor 10 * ceil(kappa^(d/2)), so genuine stalls stay detectable."""
        return max(100, 50 * math.ceil(expected_trials_bound(self.eta, g.smoothness, g.dim)))


@dataclass(frozen=True, eq=False)
class SamplerRun:
    """Post burn-in samples with per-iteration proposal counts."""

    samples: np.ndarray  # (iters - burn_in, d)
    trial_counts: np.ndarray  # (iters,)
    mean_trials: float
    x_final: np.ndarray

    def __post_init__(self):
        if np.any(self.trial_counts < 1):
            raise ValueError("every iteration draws at least one proposal")

    @property
    def mean(self) -> np.ndarray:
        return self.samples.mean(axis=0)

    @property
    def var(self) -> np.ndarray:
        return self.samples.var(axis=0, ddof=1)


def chain_rng(seed: int, chain: int = 0) -> np.random.Generator:
    """Counter-based generator on the (seed, chain) stream."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), int(chain)))))


def forward_step(x: np.ndarray, eta: float, rng: np.random.Generator) -> np.ndarray:
    """y = x + sqrt(eta) * z with z standard normal from rng."""
    if not eta > 0.0:
        raise ValueError("eta must be positive")
    x = np.asarray(x, dtype=float)
    return x + math.sqrt(eta) * rng.standard_normal(x.size)


def prox_route(g: SmoothPotential) -> str:
    """How ``rgo_sample`` finds the prox point of g: ``closed-form`` for a
    target with an exact prox point, ``gradient-descent`` for every other."""
    return "gradient-descent" if g.prox_point is None else "closed-form"


def rgo_sample(
    g: SmoothPotential,
    y: np.ndarray,
    eta: float,
    cfg: SamplerConfig,
    rng: np.random.Generator,
):
    """Exact draw from the backward conditional at y; returns (x, trials).

    Raises TrialCapExceeded past the configured cap and
    AcceptanceExponentError if any exponent exceeds 1e-9 (the domination
    inequality leaves no room for positive exponents beyond inner-solver
    noise).
    """
    if not eta * g.smoothness < 1.0:
        raise ValueError("rejection sampling needs eta * smoothness < 1")
    y = np.asarray(y, dtype=float)
    f_y = prox_objective(g, y, eta)
    if g.prox_point is not None:
        x_star = g.prox_point(y, eta)
    else:
        x_star = minimize(f_y, y, _RGO_TOL * (1.0 + float(np.linalg.norm(y))))
    f_star = f_y.value(x_star)
    prop_sd = math.sqrt(eta / (1.0 - eta * g.smoothness))
    reject_coeff = (1.0 - eta * g.smoothness) / (2.0 * eta)
    cap = cfg.resolved_max_trials(g)
    for trials in range(1, cap + 1):
        z = x_star + prop_sd * rng.standard_normal(g.dim)
        r2 = float(np.dot(z - x_star, z - x_star))
        exponent = -f_y.value(z) + f_star + reject_coeff * r2
        if exponent > 1e-9:
            raise AcceptanceExponentError(
                f"acceptance exponent {exponent!r} > 0; declared smoothness "
                f"{g.smoothness!r} does not dominate the target"
            )
        if math.log(rng.random()) <= exponent:
            return z, trials
    raise TrialCapExceeded(f"no acceptance within {cap} proposals")


def run_chain(
    g: SmoothPotential,
    x0: np.ndarray,
    cfg: SamplerConfig,
    *,
    chain: int = 0,
) -> SamplerRun:
    """Alternate forward and backward steps for cfg.iters iterations.

    Deterministic given (cfg.seed, chain).  Samples are recorded after
    burn-in; trial counts are recorded for every iteration.
    """
    rng = chain_rng(cfg.seed, chain)
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if x.size != g.dim:
        raise ValueError("x0 length must equal the target dimension")
    burn = cfg.resolved_burn_in()
    kept = np.empty((cfg.iters - burn, g.dim))
    trials = np.empty(cfg.iters, dtype=np.int64)
    for k in range(cfg.iters):
        y = forward_step(x, cfg.eta, rng)
        x, n = rgo_sample(g, y, cfg.eta, cfg, rng)
        trials[k] = n
        if k >= burn:
            kept[k - burn] = x
    return SamplerRun(
        samples=kept,
        trial_counts=trials,
        mean_trials=float(trials.mean()),
        x_final=x.copy(),
    )
