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

For a ``QuadraticPotential`` of curvature c the exponent does not depend on
the chain's state: f_y(z) - f_y(x*_y) = (c + 1/eta) |z - x*_y|^2 / 2, so the
proposal x*_y + s xi, s^2 = eta/(1 - eta L), has exponent

    -(c + L) s^2 |xi|^2 / 2,

and at c = L each proposal is accepted with probability exactly
kappa^(-d/2), kappa = (1 + eta L)/(1 - eta L).  ``run_chain`` therefore
decides a quadratic chain's proposals a pool at a time from their
directions and uniforms alone: each pool gives the offsets s xi of the
steps it accepts and their trial counts as arrays, and ``run_chain`` draws
those steps' forward noise in one call and moves the state,
y = x + sqrt(eta) F_k, x = x*_y + s xi_accepted.  Every other target takes
the per-step loop (``forward_step`` then ``rgo_sample``), which the tests
hold the pooled route to, sample for sample.

Randomness is counter-based (Philox) keyed by (seed, chain), in three
streams: ``chain_rng(seed, chain)`` draws the forward noise, its bit
generator jumped once the proposal directions and jumped twice the
uniforms.  numpy draws the same numbers from a stream one at a time as in
a block, so both routes consume identical numbers.  Identical
configurations reproduce bit-identical runs, and distinct chains are
independent streams safe to run in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .potentials import QuadraticPotential, SmoothPotential, minimize, prox_objective

__all__ = [
    "SamplerConfig",
    "SamplerRun",
    "TrialCapExceeded",
    "AcceptanceExponentError",
    "rejection_kappa",
    "expected_trials_bound",
    "forward_step",
    "prox_route",
    "acceptance_route",
    "rgo_sample",
    "run_chain",
    "chain_rng",
]


_RGO_TOL = 1e-10  # prox-point gradient tolerance, relative to 1 + |y|
_BLOCK_FLOATS = 2**16  # floats in one pool of proposal directions


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


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
        if not (_is_integer(self.iters) and self.iters >= 1):
            raise ValueError("iters must be a positive integer")
        if not (_is_integer(self.seed) and 0 <= self.seed < 2**64):
            raise ValueError("seed must be an integer that fits in 64 unsigned bits")
        if self.burn_in is not None and not (
                _is_integer(self.burn_in) and 0 <= self.burn_in < self.iters):
            raise ValueError("burn_in must be an integer in [0, iters)")

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


def acceptance_route(g: SmoothPotential) -> str:
    """How ``run_chain`` decides g's proposals: ``state-free`` for a quadratic,
    whose acceptance exponent does not depend on the chain's state, a pool at
    a time; ``per-step`` for every other target, one ``rgo_sample`` per step."""
    return "state-free" if isinstance(g, QuadraticPotential) else "per-step"


def _proposal_sd(eta: float, smoothness: float) -> float:
    """sqrt(eta / (1 - eta L)), the standard deviation of a rejection proposal."""
    if not eta * smoothness < 1.0:
        raise ValueError("rejection sampling needs eta * smoothness < 1")
    return math.sqrt(eta / (1.0 - eta * smoothness))


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
    prop_sd = _proposal_sd(eta, g.smoothness)
    y = np.asarray(y, dtype=float)
    f_y = prox_objective(g, y, eta)
    if g.prox_point is not None:
        x_star = g.prox_point(y, eta)
    else:
        x_star = minimize(f_y, y, _RGO_TOL * (1.0 + float(np.linalg.norm(y))))
    f_star = f_y.value(x_star)
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


def _state_free_blocks(g: QuadraticPotential, cfg: SamplerConfig, directions, uniforms):
    """Yield (offsets, trials) for each pool of a quadratic chain's proposals:
    the rows z - x* of the steps the pool accepts and their proposal counts,
    decided by the state-free exponent -(c + L) s^2 |xi|^2 / 2.  Raises as
    ``rgo_sample`` does, at the same proposal; a run of rejections counts
    across pools."""
    eta, d = cfg.eta, g.dim
    prop_sd = _proposal_sd(eta, g.smoothness)
    rate = -0.5 * (g.curvature + g.smoothness) * eta / (1.0 - eta * g.smoothness)
    cap = cfg.resolved_max_trials(g)
    per_step = expected_trials_bound(eta, g.smoothness, d)
    left, last = cfg.iters, -1  # steps still to decide; pool index of the last acceptance
    while left:
        # a pool holds at most _BLOCK_FLOATS floats, and past the proposals the
        # steps left expect little more, so a short chain draws little it discards
        n = min(max(1, _BLOCK_FLOATS // d), math.ceil(1.25 * per_step * left) + 32)
        xi = directions.standard_normal((n, d))
        exponent = rate * np.einsum("ij,ij->i", xi, xi)
        bad = exponent > 1e-9
        # a step ends at its acceptance or at a positive exponent, where
        # rgo_sample raises; only the steps still left are decided
        ends = np.flatnonzero(bad | (np.log(uniforms.random(n)) <= exponent))[:left]
        trials = np.diff(ends, prepend=last)
        # the first step past the cap or ending on a positive exponent stops the chain
        stop = np.flatnonzero((trials > cap) | bad[ends])
        if stop.size and trials[stop[0]] <= cap:
            raise AcceptanceExponentError(
                f"acceptance exponent {exponent[ends[stop[0]]]!r} > 0; declared smoothness "
                f"{g.smoothness!r} does not dominate the target"
            )
        last = ends[-1] if ends.size else last
        # so does a pool that leaves steps undecided and ends in cap rejections
        if stop.size or (ends.size < left and n - 1 - last >= cap):
            raise TrialCapExceeded(f"no acceptance within {cap} proposals")
        yield prop_sd * xi[ends], trials
        left, last = left - ends.size, last - n


def run_chain(
    g: SmoothPotential,
    x0: np.ndarray,
    cfg: SamplerConfig,
    *,
    chain: int = 0,
) -> SamplerRun:
    """Alternate forward and backward steps for cfg.iters iterations, by the
    route ``acceptance_route(g)`` names.

    Deterministic given (cfg.seed, chain).  Samples are recorded after
    burn-in; trial counts are recorded for every iteration.
    """
    fwd = chain_rng(cfg.seed, chain)
    directions, uniforms = (np.random.Generator(fwd.bit_generator.jumped(j)) for j in (1, 2))
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if x.size != g.dim:
        raise ValueError("x0 length must equal the target dimension")
    burn = cfg.resolved_burn_in()
    kept = np.empty((cfg.iters - burn, g.dim))
    trials = np.empty(cfg.iters, dtype=np.int64)
    if acceptance_route(g) == "state-free":
        # y = x + sqrt(eta) F_k, x = prox(y) + s xi: the arithmetic of
        # forward_step and rgo_sample, a pool's steps at a time
        k, root_eta = 0, math.sqrt(cfg.eta)
        for offsets, counts in _state_free_blocks(g, cfg, directions, uniforms):
            trials[k:k + counts.size] = counts
            for step, offset in zip(root_eta * fwd.standard_normal(offsets.shape), offsets):
                x = g.prox_point(x + step, cfg.eta) + offset
                if k >= burn:
                    kept[k - burn] = x
                k += 1
    else:
        proposals = SimpleNamespace(standard_normal=directions.standard_normal,
                                    random=uniforms.random)
        for k in range(cfg.iters):
            x, trials[k] = rgo_sample(g, forward_step(x, cfg.eta, fwd), cfg.eta, cfg, proposals)
            if k >= burn:
                kept[k - burn] = x
    return SamplerRun(
        samples=kept,
        trial_counts=trials,
        mean_trials=float(trials.mean()),
        x_final=x.copy(),
    )
