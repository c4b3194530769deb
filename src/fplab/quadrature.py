"""1-D quadrature engine: Gaussian smoothing of a density (in closed form for
the concave well, by Gauss-Hermite for any potential), scores of the
smoothed density, one Fisher-information/KL functional on uniform grids, and
the trace producers for the non-monotonicity and gap constructions.

Numerical policy
----------------
* Gauss-Hermite rules use the probabilist convention: weights sum to 1 and
  represent an expectation over N(0,1).
* Smoothed densities are evaluated as E_Z[exp(-g(x - sqrt(t) Z))] with a
  shared max-exponent shift per evaluation point; scores come from the
  ratio of smoothed expectations (smoothing commutes with d/dx), never
  from numerically differentiating the log-density.
* The concave-well trace uses the closed form; Gauss-Hermite, which
  converges only algebraically across the well's kinks, is its oracle.
  Its t = 0 row, FI and KL of N(0, 1) against exp(-g)/Z, is in closed
  form too (erf, Dawson, log Phi) and takes no grid.  The smoothed well is
  even and its score odd, and its grids are symmetric about 0, so the trace
  takes each grid as its nonnegative half k dx, k = 0..m, evaluates the
  closed form there, and weights each point for itself and its mirror
  image; nothing is mirrored back to a full grid, and a grid makes its
  points only when first asked.  The oracle evaluates every point of its
  grids and integrates through ``fi_kl_functional``.
* The closed form's special functions are numpy code in ``fplab.special``,
  imported inside the functions that call it, so importing fplab.cli does
  not load it.  The Gauss-Hermite rule is numpy code too: fplab's only
  runtime dependency is numpy.
* A closed-form smoothing call costs a few hundred small numpy operations
  whatever its size, and a row's half-grid is a few hundred to a few
  thousand points, so the trace evaluates the rows still refining in
  batches of about _BATCH half-grid points, one call each with a time per
  point; a row of more than half a batch takes its own call with a float
  t.  A batch's rows are formed as arrays over its points, one reduceat
  per integral for all of them.  Threads gained nothing there, contending
  for the interpreter lock; ``threads=`` pools the heavier rows of the
  Gauss-Hermite oracle.
* Every integral on a uniform grid takes the grid's rule, composite Simpson
  (``EvalGrid``) or trapezoid (``TrapezoidGrid``), and estimates its error
  as |rule(h) - rule(2h)|.  The spike gap sums exact Gaussian integrals over
  the pieces of its piecewise linear potential.
* ``well_grid`` alone picks the closed-form trace's grid at t > 0, and
  with it the rule.  Rows with t >= 1.6e-5 take the trapezoid rule: their
  integrands are Gaussian convolutions whose smoothed kinks the grid
  resolves (spacing at most sqrt(t)/2), on which it converges
  geometrically: most start at twice that grid's spacing.  Rows below
  1.6e-5 take Simpson, with the well's kinks on the boundaries of coarse
  Simpson panels.  Each row halves its spacing until both estimates are
  within ROW_TOL of their values or the next grid would pass
  MAX_GRID_STEPS; 2k (dx/2) is k dx to the bit, so a halved grid keeps its
  old points' values and evaluates only its midpoints.  The
  Gauss-Hermite oracle smears the kinks over its nodes, so its grids stay
  Simpson, dense, unaligned and unrefined.
* Grids must cover >= 8 standard deviations of rho_t, whose weight every
  FI and KL integrand carries; the trace producers grow their grids with t
  accordingly.  The closed-form trace divides the smoothed density by the
  well's exact mass, which smoothing conserves, so its grids, trapezoid
  and Simpson alike, reach 8.5 sd of rho_t (a Simpson grid at least to the
  kinks) and no further, and hold only part of nu where the well's mass
  lies beyond.  The Gauss-Hermite oracle normalizes on its grid, so its
  grids reach past that mass.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .gaussian import HeatPerturbed
from .potentials import ScalarPotential, SpikeSpec, counterexample_potential, spike_potential
from .svgplot import write_table

__all__ = [
    "GaussHermiteRule",
    "EvalGrid",
    "QuadResult",
    "TraceRow",
    "ChannelTrace",
    "NormalizationError",
    "GridError",
    "QuadratureError",
    "gauss_hermite",
    "convolved_logdensity",
    "smoothed_well_logdensity",
    "fi_kl_functional",
    "counterexample_trace",
    "counterexample_initial_slope",
    "perturbed_bound_check",
    "gap_check",
    "spike_pieces",
    "default_time_grid",
    "well_grid",
    "well_reach_steps",
    "TrapezoidGrid",
]

MIN_GRID_STEPS = 200
ROW_TOL = 1e-10  # relative error estimate that each closed-form trace row refines to
MAX_GRID_STEPS = 2**20  # ~8 MB per grid array; a trace row holds a few dozen of them
_CHUNK = 16384  # grid points per Gauss-Hermite block, caps temporaries at ~16 MB


class NormalizationError(ValueError):
    """A density does not integrate to 1 on its grid."""


class GridError(ValueError):
    """A trace row has no grid at time ``t``: the grid's own checks
    refused it, or sizing it overflowed (the cause)."""

    def __init__(self, t: float, cause: Exception):
        super().__init__(f"no grid at t={t:g}: {cause}")
        self.t = t


class QuadratureError(RuntimeError):
    """Non-finite intermediate in a smoothed-density evaluation."""


# ---------------------------------------------------------------------------
# Rules and grids


@dataclass(frozen=True, eq=False)
class GaussHermiteRule:
    """Probabilist Gauss-Hermite rule: sum(weights * f(nodes)) ~ E_{N(0,1)} f."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        w, x = self.weights, self.nodes
        # extreme-node weights may underflow to exactly 0 at high order
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(x)) and np.all(w >= 0.0) and w.max() > 0.0):
            raise ValueError("rule nodes and weights must be finite and nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        if abs(float((w * x**2).sum()) - 1.0) > 1e-10:
            raise ValueError("second moment of the rule must be 1")
        if not np.allclose(x, -x[::-1], atol=1e-12):
            raise ValueError("nodes must be symmetric about 0")


def _hermite_pair(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p_{n-1}(x), p_n(x)) / 2**e and the integer exponents e, for the
    orthonormal p_k = He_k / sqrt(k!), from p_{k+1} = (x p_k - sqrt(k) p_{k-1})
    / sqrt(k+1).  Each step divides the pair by the power of two of its
    larger member, exactly, so nothing overflows, and a zero of p_k leaves
    the pair nonzero."""
    prev, cur = np.zeros_like(x), np.ones_like(x)
    exp2 = np.zeros(x.shape, dtype=np.int64)
    for k in range(n):
        prev, cur = cur, (x * cur - math.sqrt(k) * prev) / math.sqrt(k + 1)
        e = np.frexp(np.maximum(np.abs(prev), np.abs(cur)))[1]
        prev, cur = np.ldexp(prev, -e), np.ldexp(cur, -e)
        exp2 += e
    return prev, cur, exp2


def gauss_hermite(order: int) -> GaussHermiteRule:
    """The ``order``-point rule: Golub-Welsch nodes, the eigenvalues of the
    Jacobi matrix of the p_k, each polished by two Newton steps p_n /
    (sqrt(n) p_{n-1}) and then symmetrized; Christoffel weights 1 / (n
    p_{n-1}^2), formed from their logs and normalized to sum to 1."""
    if isinstance(order, bool) or not isinstance(order, numbers.Integral) or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")
    n = int(order)
    off = np.sqrt(np.arange(1.0, n))
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    for _ in range(2):
        prev, cur = _hermite_pair(x, n)[:2]
        x = x - cur / (math.sqrt(n) * prev)
    x = (x - x[::-1]) / 2.0
    prev, _, exp2 = _hermite_pair(x, n)
    log_w = -2.0 * (np.log(np.abs(prev)) + exp2 * math.log(2.0))
    w = np.exp(log_w - log_w.max())  # extreme nodes' weights may underflow to 0
    return GaussHermiteRule(order=n, nodes=x, weights=w / w.sum())


def _simpson(y: np.ndarray, dx: float) -> float:
    n = y.size
    if n < 3 or n % 2 == 0:
        raise ValueError("composite Simpson needs an odd number of points >= 3")
    return float(dx / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()))


def _trapezoid(y: np.ndarray, dx: float) -> float:
    return float(dx * (y.sum() - 0.5 * (y[0] + y[-1])))


@dataclass(frozen=True, eq=False)
class EvalGrid:
    """Uniform grid on [lo, hi] whose integrals are composite Simpson.  The
    point count ``size`` is rounded up so that the interval count is a
    multiple of 4 (the rule plus its coarse comparison both apply); ``dx`` is
    the realized spacing.  A grid takes MIN_GRID_STEPS to MAX_GRID_STEPS
    steps, and makes its ``points`` when first asked."""

    rule = "simpson"
    _sum = staticmethod(_simpson)  # the rule's sum of values at spacing dx

    lo: float
    hi: float
    step: float
    size: int = field(init=False, repr=False, default=None)
    dx: float = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")
        if not self.step > 0.0:
            raise ValueError("step must be positive")
        if (self.hi - self.lo) / self.step < MIN_GRID_STEPS:
            raise ValueError(f"grid too coarse: need at least {MIN_GRID_STEPS} steps")
        if (self.hi - self.lo) / self.step > MAX_GRID_STEPS:
            raise ValueError(f"grid too fine: more than {MAX_GRID_STEPS} steps")
        n = 4 * math.ceil(round((self.hi - self.lo) / self.step) / 4) + 1
        object.__setattr__(self, "size", n)
        object.__setattr__(self, "dx", (self.hi - self.lo) / (n - 1))

    @cached_property
    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.size)

    def covers(self, center: float, sd: float, nsd: float = 8.0) -> bool:
        return self.lo <= center - nsd * sd and self.hi >= center + nsd * sd

    def require_covers(self, center: float, sd: float, nsd: float = 8.0) -> None:
        if not self.covers(center, sd, nsd):
            raise ValueError(
                f"grid [{self.lo}, {self.hi}] does not cover {nsd} standard "
                f"deviations of a density at ({center}, sd={sd})"
            )

    def integrate(self, y: np.ndarray) -> QuadResult:
        """The integral of the values ``y`` on the points, with the estimate
        |rule(dx) - rule(2 dx)|: the error of the rule on every other node."""
        fine = self._sum(y, self.dx)
        return QuadResult(fine, abs(fine - self._sum(y[::2], 2.0 * self.dx)))

    def total(self, y: np.ndarray) -> float:
        """``integrate(y).value``, without the estimate."""
        return self._sum(y, self.dx)


class TrapezoidGrid(EvalGrid):
    """Uniform grid whose integrals are trapezoid sums T_dx.  On integrands
    analytic in a strip and decaying like a Gaussian they converge
    geometrically in 1/dx (Trefethen & Weideman, SIAM Review 2014); Simpson,
    (4 T_dx - T_2dx)/3, carries T_2dx's error.  The estimate |T_dx - T_2dx|
    is honest there, but pessimistic."""

    rule = "trapezoid"
    _sum = staticmethod(_trapezoid)


class QuadResult(NamedTuple):
    """An integral value with the refinement estimate of its error."""

    value: float
    error: float


# ---------------------------------------------------------------------------
# Gauss-Hermite smoothing


def convolved_logdensity(pot: ScalarPotential, t: float, x, rule: GaussHermiteRule):
    """Unnormalized log-density and score of exp(-pot) smoothed by N(0, t).

    Returns (logval, score) for log E_Z[exp(-g(x - sqrt(t) Z))] up to an
    x-independent constant (normalization is the caller's job, via grid
    integration); the score is the ratio of smoothed expectations, never a
    numerical derivative of logval.  At t = 0 both reduce to
    (-g(x), -g'(x)) exactly.

    The quadratic core of g is folded into the kernel in closed form:
    with psi(y) = g(y) - y^2/2, the product of exp(-y^2/2) and the
    smoothing kernel is again a Gaussian, N(x/(1+t), t/(1+t)), leaving

        logval(x) = -x^2/(2(1+t)) + log E_{Y ~ N(x/(1+t), t/(1+t))}[e^{-psi(Y)}]
        score(x)  = (-x + E[-psi'(Y) e^{-psi}]/E[e^{-psi}]) / (1+t)

    so the Gauss-Hermite rule only ever sees the residual e^{-psi}, whose
    scale does not shrink as t grows (exact algebra for any potential;
    the rule converges fast when psi varies on unit scales, which holds
    for potentials with near-unit tail curvature).  A shared max-exponent
    shift per evaluation point guards the exponentials.
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if rule.order < 64:
        raise ValueError("rule order must be at least 64 for smoothing work")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if t == 0.0:
        logval, score = -pot.value(x_arr), -pot.deriv1(x_arr)
    else:
        shrink = 1.0 + t
        sd = math.sqrt(t / shrink)
        logval = np.empty_like(x_arr)
        score = np.empty_like(x_arr)
        for start in range(0, x_arr.size, _CHUNK):
            sl = slice(start, min(start + _CHUNK, x_arr.size))
            mu = x_arr[sl] / shrink
            args = mu[:, None] + sd * rule.nodes[None, :]
            neg_psi = 0.5 * args**2 - pot.value(args)
            shift = neg_psi.max(axis=1, keepdims=True)
            if not np.all(np.isfinite(shift)):
                raise QuadratureError(
                    "non-finite potential value; grid and potential scales disagree"
                )
            w = rule.weights[None, :] * np.exp(neg_psi - shift)
            s0 = w.sum(axis=1)
            s1 = (w * (args - pot.deriv1(args))).sum(axis=1)
            if not (np.all(np.isfinite(s0)) and np.all(s0 > 0.0) and np.all(np.isfinite(s1))):
                raise QuadratureError(
                    "non-finite smoothed expectation; grid and potential scales disagree"
                )
            logval[sl] = -x_arr[sl] ** 2 / (2.0 * shrink) + np.log(s0) + shift[:, 0]
            score[sl] = (-x_arr[sl] + s1 / s0) / shrink
    if np.ndim(x) == 0:
        return float(logval[0]), float(score[0])
    return logval, score


# ---------------------------------------------------------------------------
# Closed-form smoothing of the concave well
#
# The well potential is piecewise quadratic, so on each piece the smoothing
# integrand exp(-g(y) - (x-y)^2/(2t)) is the exponential of a quadratic and
# its integral has a closed form.  Each piece's mass is assembled in log
# space, the well's factored at the maximum of its exponent, so no
# exponential overflows.
#
# t may be one float or one time per point.  Every function of t alone is
# arithmetic, a square root (both round alike on arrays and floats) or comes
# from ``_per_t``, which calls math's function once per run of equal times,
# so each point gets the bits that a call with its own float t gives it.

_SERIES_TAU = 0.1  # |c| w^2 below which the endpoint integral is expanded in c
_SERIES_TERMS = 13  # 0.1^n / n! < 1e-19 for n >= 13


def _runs(t: np.ndarray):
    """Start indices and lengths of the runs of equal values in a nonempty 1-D array."""
    bounds = np.concatenate(([0], np.flatnonzero(t[1:] != t[:-1]) + 1, [t.size]))
    return bounds[:-1], np.diff(bounds)


def _per_t(fn, t):
    """fn(t) for a float t; for an array, fn at each run of equal values."""
    if np.ndim(t) == 0:
        return fn(t)
    starts, lengths = _runs(t)
    return np.repeat([fn(v) for v in t[starts].tolist()], lengths)


def _at(t, mask: np.ndarray):
    """The times of the points in ``mask``; a float t is every point's."""
    return t if np.ndim(t) == 0 else t[mask]


def _termwise_sum(terms: np.ndarray) -> np.ndarray:
    """The sum over the first axis, one term after another: unlike a BLAS
    product or a pairwise sum, it rounds every point alike at any size."""
    return np.cumsum(terms, axis=0)[-1]


def _unit_moments(m: int, kappa: np.ndarray) -> np.ndarray:
    """G_j(kappa) = int_0^1 s^j exp(-kappa s) ds for j = 0..m-1, shape (m, n).

    Integration by parts gives kappa G_j = j G_{j-1} - e^{-kappa}.  Run
    upward from G_0 = -expm1(-kappa)/kappa, the recurrence multiplies an
    error by j/kappa at each order, so it gives the orders j < kappa where
    kappa > 1; run downward (Miller), by kappa/j, so it gives the rest, from
    a start at an order far enough above m that the start's error has shrunk
    below one rounding by order m - 1 even at kappa = m - 1.
    """
    out = np.empty((m, kappa.size))
    decay = np.exp(-kappa)
    up = kappa > 1.0
    if up.any():
        k, e = kappa[up], decay[up]
        g = -np.expm1(-k) / k
        out[0, up] = g
        for j in range(1, m):
            g = (j * g - e) / k
            out[j, up] = g
    low = kappa <= m - 1.0
    if low.any():
        k, e = kappa[low], decay[low]
        top = _miller_start(m)
        g = e / (top + 1.0 - k)  # G_top within a few per cent
        sub = out[:, low]
        for j in range(top, 0, -1):
            g = (k * g + e) / j  # G_{j-1}
            if j <= m:
                sub[j - 1] = np.where(k <= max(j - 1.0, 1.0), g, sub[j - 1])
        out[:, low] = sub
    return out


def _miller_start(m: int) -> int:
    """The order to start the downward recurrence from: an error there has
    shrunk by 2^-53 at order m - 1, at every kappa <= m - 1."""
    top, shrink = m, 1.0
    while shrink > 2.0**-53:
        top += 1
        shrink *= (m - 1.0) / top
    return top


def _endpoint_integral(kappa: np.ndarray, gamma):
    """(j, e): j = int_0^1 exp(-kappa s + gamma s^2) ds and e = the mean of s
    under that weight, for exponents whose maximum over [0, 1] is at s = 0
    (kappa >= max(0, gamma), up to rounding).  ``gamma`` is a float or one
    value per point.

    Small |gamma| expands exp(gamma s^2) in powers of gamma, which avoids the
    division by gamma that the erfcx / Dawson forms below need for the mean.
    """
    if np.ndim(gamma) == 0:
        return (_endpoint_series if abs(gamma) <= _SERIES_TAU else _endpoint_closed)(kappa, gamma)
    series = np.abs(gamma) <= _SERIES_TAU
    if not series.any() and (np.all(gamma < 0.0) or np.all(gamma > 0.0)):
        return _endpoint_closed(kappa, gamma)  # one closed form for every point: no masks
    # the series once per run of one gamma, each closed form once for all its points
    j, e = np.empty_like(kappa), np.empty_like(kappa)
    for lo, n in zip(*(a.tolist() for a in _runs(gamma))):
        if series[lo]:
            j[lo:lo + n], e[lo:lo + n] = _endpoint_series(kappa[lo:lo + n], float(gamma[lo]))
    for part in (gamma < -_SERIES_TAU, gamma > _SERIES_TAU):
        if part.any():
            j[part], e[part] = _endpoint_closed(kappa[part], gamma[part])
    return j, e


def _endpoint_series(kappa: np.ndarray, gamma: float):
    n = np.arange(_SERIES_TERMS)
    coef = (gamma**n / np.cumprod(np.r_[1.0, n[1:]]))[:, None]
    g = _unit_moments(2 * _SERIES_TERMS, kappa)
    j = _termwise_sum(coef * g[0::2])
    return j, _termwise_sum(coef * g[1::2]) / j


def _endpoint_closed(kappa: np.ndarray, gamma):
    """``_endpoint_integral`` for a gamma of one sign, by erfcx or Dawson."""
    from .special import dawson, erfcx

    drop = kappa - gamma  # -exponent at s = 1, >= 0
    root = np.sqrt(np.abs(gamma))
    z1 = kappa / (2.0 * root)
    if np.all(gamma < 0.0):
        # erfcx decreases, so where e^-drop < 2^-60 the end at s = 1 is below a
        # quarter ulp of the end at s = 0: j keeps its bits without it
        j = erfcx(z1)
        live = drop < 42.0
        if np.count_nonzero(live):
            j[live] -= np.exp(-drop[live]) * erfcx(z1[live] + _at(root, live))
        j *= math.sqrt(math.pi) / (2.0 * root)
    else:
        start, end = dawson(np.stack([z1, z1 - root]))
        j = (start - np.exp(-drop) * end) / root
    # int_0^1 (-kappa + 2 gamma s) e^f ds = e^f(1) - 1 gives the mean
    return j, (kappa + np.expm1(-drop) / j) / (2.0 * gamma)


def _outer_piece(m_big: float, halfwidth: float, t, x: np.ndarray):
    """Log-mass and mean of -g' of the smoothing integrand over y > L, where
    the times t broadcast against x."""
    from .special import log_ndtr_mills

    ml, xr = m_big * halfwidth, x - halfwidth
    z = (ml * t + xr) / np.sqrt(t * (1.0 + t))
    logphi, mills = log_ndtr_mills(z)
    logmass = (0.5 * ml * halfwidth + (ml * ml * t + 2.0 * ml * xr - xr * xr) / (2.0 * (1.0 + t))
               - 0.5 * _per_t(math.log1p, t) + logphi)
    # y - L | piece ~ N(z s, s^2) truncated to y > L, with s^2 = t/(1+t)
    return logmass, ml - np.sqrt(t / (1.0 + t)) * (z + mills)


def _well_piece(m_big: float, halfwidth: float, t, x: np.ndarray):
    """Log-mass and mean of -g' = M y of the smoothing integrand over |y| <= L.

    The exponent M y^2/2 - (x-y)^2/(2t) has curvature 2c, c = (M - 1/t)/2.
    When it is concave with its vertex mu = x/(1 - M t) inside the interval,
    the piece is a Gaussian split at mu (erf terms); otherwise its maximum is
    the endpoint sign(x) L and the integral runs inward from there.
    """
    from .special import erf

    M, L = m_big, halfwidth
    logmass, mean_y = np.empty_like(x), np.empty_like(x)
    slack = 1.0 - M * t
    inside = (np.abs(x) <= L * slack) & (slack > 0.0)
    if inside.any():
        xi, si = x[inside], _at(slack, inside)
        mu = xi / si
        root_q = np.sqrt(si / (2.0 * _at(t, inside)))
        a, b = (L + mu) * root_q, (L - mu) * root_q
        erf_a, erf_b = erf(np.stack([a, b]))
        mass = erf_a + erf_b
        logmass[inside] = 0.5 * M * xi * mu - 0.5 * _per_t(math.log, si) + np.log(0.5 * mass)
        mean_y[inside] = mu + (np.expm1(-a * a) - np.expm1(-b * b)) / (
            math.sqrt(math.pi) * root_q * mass)
    out = ~inside
    if out.any():
        xo, to = np.abs(x[out]), _at(t, out)
        width = 2.0 * L
        j, e = _endpoint_integral(width * (M * L + (xo - L) / to), 0.5 * (M - 1.0 / to) * width**2)
        logmass[out] = (0.5 * M * L * L - (xo - L) ** 2 / (2.0 * to)
                        - 0.5 * _per_t(math.log, 2.0 * math.pi * to) + np.log(width * j))
        mean_y[out] = np.where(x[out] < 0.0, -1.0, 1.0) * (L - width * e)
    return logmass, M * mean_y


def smoothed_well_logdensity(m_big: float, halfwidth: float, t, x):
    """Log-density and score of exp(-g) smoothed by N(0, t), g the concave well.

    Returns (logval, score) under the contract of ``convolved_logdensity``
    for ``counterexample_potential(m_big, halfwidth)``, in closed form:
    logval = log E_Z[exp(-g(x - sqrt(t) Z))] is the log of a sum of three
    Gaussian integrals, one per piece of g, and score is the ratio of
    smoothed expectations of -g', a mass-weighted mix of truncated-Gaussian
    means, never a numerical derivative.  At t = 0 both reduce to
    (-g(x), -g'(x)) exactly.

    ``t`` may be an array broadcast against ``x``: one call then evaluates
    many rows' grids, and every point gets the bits of a call with its own
    float t.  Its per-call cost (a few hundred small numpy operations) is
    then paid once for all of them.
    """
    pot = counterexample_potential(m_big, halfwidth)  # validates M, L >= 2
    M, L = float(m_big), float(halfwidth)
    if np.ndim(t):
        t_b, x_b = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
        t_arr, x_arr = t_b.ravel(), x_b.ravel()
        if not np.all(t_arr >= 0.0):
            raise ValueError("t must be nonnegative")
        if t_arr.size and np.all(t_arr > 0.0):
            logval, score = _smoothed_well(M, L, t_arr, x_arr)
        else:  # t = 0 points keep the potential itself
            logval, score = -pot.value(x_arr), -pot.deriv1(x_arr)
            some = t_arr > 0.0
            if some.any():
                logval[some], score[some] = _smoothed_well(M, L, t_arr[some], x_arr[some])
        return logval.reshape(t_b.shape), score.reshape(t_b.shape)
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if t == 0.0:
        logval, score = -pot.value(x_arr), -pot.deriv1(x_arr)
    else:
        logval, score = _smoothed_well(M, L, float(t), x_arr)
    if np.ndim(x) == 0:
        return float(logval[0]), float(score[0])
    return logval, score


def _smoothed_well(M: float, L: float, t, x: np.ndarray):
    """``smoothed_well_logdensity`` where every t is positive."""
    # y > L at x and y < -L as y > L at -x, in one call: the times' work once
    (log_r, log_l), (s_r, s_l) = _outer_piece(M, L, t, np.stack([x, -x]))
    log_w, s_w = _well_piece(M, L, t, x)
    top = np.maximum(np.maximum(log_l, log_w), log_r)
    w_l, w_w, w_r = np.exp(log_l - top), np.exp(log_w - top), np.exp(log_r - top)
    mass = w_l + w_w + w_r
    logval = top + np.log(mass)
    score = (w_l * -s_l + w_w * s_w + w_r * s_r) / mass
    if not (np.all(np.isfinite(logval)) and np.all(np.isfinite(score))):
        raise QuadratureError("non-finite smoothed well density")
    return logval, score


# ---------------------------------------------------------------------------
# Functionals
#
# fi_kl_functional takes values on grid.points, so a smoothed density costs
# its caller one evaluation per grid for logpdf, score and normalization
# together, and each row exponentiates rho and nu once.  Each integral,
# normalization checks included, is the rule of the grid.  The Gauss-Hermite
# oracle's rows take it; the closed-form trace forms the same integrals over
# half-grids in ``_batch_rows``.

_MASS_TOL = 1e-6  # how far a grid mass may stray from 1: rho's either way, nu's only above


def _grid_normalized(logval: np.ndarray, grid: EvalGrid) -> np.ndarray:
    """logval minus the log of its mass on the grid."""
    shift = float(logval.max())
    return logval - (math.log(grid.total(np.exp(logval - shift))) + shift)


def _check_masses(rho_mass: float, nu_mass: float) -> None:
    """Raise NormalizationError unless rho's mass on a grid is 1 +- _MASS_TOL
    and nu's at most 1 + _MASS_TOL."""
    if abs(rho_mass - 1.0) > _MASS_TOL:
        raise NormalizationError(f"rho integrates to {rho_mass!r} on the grid, not "
                                 f"1 +- {_MASS_TOL:g}")
    if nu_mass - 1.0 > _MASS_TOL:
        raise NormalizationError(f"nu integrates to {nu_mass!r} on the grid, not at most "
                                 f"1 + {_MASS_TOL:g}")


def fi_kl_functional(logrho: np.ndarray, score_diff: np.ndarray, lognu: np.ndarray,
                     grid: EvalGrid) -> tuple[QuadResult, QuadResult, float]:
    """(fi, kl, nu_mass) by the grid's rule: fi = integral rho (d/dx log rho -
    d/dx log nu)^2 dx and kl = integral rho log(rho/nu) dx as QuadResults,
    and nu_mass the mass of nu on the grid.

    ``logrho`` and ``lognu`` are normalized log-densities and ``score_diff``
    the score difference, all on grid.points.  Raises NormalizationError
    unless rho integrates to 1 +- _MASS_TOL on the grid and nu to at most
    1 + _MASS_TOL: both integrands are rho-weighted, so the grid need hold
    only rho, but no grid holds more than all of nu.
    """
    rho = np.exp(logrho)
    nu_mass = grid.total(np.exp(lognu))
    _check_masses(grid.total(rho), nu_mass)
    fi = grid.integrate(rho * score_diff**2)
    kl = grid.integrate(np.where(rho > 0.0, rho * (logrho - lognu), 0.0))
    return fi, kl, nu_mass


# ---------------------------------------------------------------------------
# Traces


class TraceRow(NamedTuple):
    t: float
    fi: float
    kl: float
    bound: Optional[float]
    # rows integrated on a grid: error estimates, the grid's size, the number
    # of points at which the smoothed density was evaluated, and the rule
    fi_err: Optional[float] = None
    kl_err: Optional[float] = None
    points: Optional[int] = None
    smoothed_points: Optional[int] = None
    rule: Optional[str] = None
    nu_mass: Optional[float] = None  # the share of nu's mass on the row's last grid

    def converged(self) -> bool:
        """Both error estimates within ROW_TOL of their values."""
        return self.fi_err <= ROW_TOL * abs(self.fi) and self.kl_err <= ROW_TOL * abs(self.kl)


_NOISE_FLOOR = -1e-9


@dataclass(frozen=True, eq=False)
class ChannelTrace:
    """A (t, fi, kl, bound) series along a channel; t strictly increasing."""

    rows: tuple

    def __post_init__(self):
        ts = [r.t for r in self.rows]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("trace times must be strictly increasing")
        for r in self.rows:
            if r.fi < _NOISE_FLOOR or r.kl < _NOISE_FLOOR:
                raise ValueError(f"negative fi/kl beyond quadrature noise at t={r.t}")

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows], dtype=float)

    def columns(self) -> dict:
        """The t, fi, kl and bound columns, as lists; a missing bound is None."""
        return {name: [getattr(r, name) for r in self.rows] for name in ("t", "fi", "kl", "bound")}

    def write_csv(self, path, params: dict) -> None:
        """The t, fi, kl and bound columns under the echo of ``params``."""
        write_table(path, params, self.columns())


def default_time_grid(t_min: float = 1e-3, t_max: float = 50.0, points: int = 60) -> np.ndarray:
    """t = 0 followed by a geometric ladder from t_min to t_max."""
    return np.concatenate([[0.0], np.geomspace(t_min, t_max, points)])


def _grid_half(t: float, halfwidth: float, m_big: float) -> float:
    # The reach of a grid that holds the smoothed well's mass: the
    # Gauss-Hermite oracle's, which normalizes on its grid, and the one
    # ``well_reach_steps`` sizes.  rho_t = N(0, 1+t) needs 8 sd.
    # exp(-g) holds nearly all its mass in unit-variance bumps at +-(M+1) L,
    # the vertices of the outer quadratics, which smoothing widens to sd
    # sqrt(1+t): the grid reaches 8.5 of those sd past the well plus 10, or
    # past the bumps plus 2, whichever is further.
    tails = 8.5 * math.sqrt(1.0 + t)
    return max(20.0, tails + halfwidth + 10.0, tails + (m_big + 1.0) * halfwidth + 2.0)


def _smoothing_grid(t: float, halfwidth: float, step: float, m_big: float) -> EvalGrid:
    # The Gauss-Hermite oracle's grid.  Its smoothed density has a kink at
    # every node shift +-L + sqrt(t) z_i, so no grid can align with them;
    # every length scale grows like sqrt(1+t), so the step scales with it.
    half = _grid_half(t, halfwidth, m_big)
    return EvalGrid(-half, half, step * math.sqrt(1.0 + t))


def _trapezoid_row(t: float) -> bool:
    """Whether the row at time t takes the trapezoid rule: its smoothed
    kinks, of width sqrt(t), are wide enough for the grid to resolve."""
    return 250.0 * math.sqrt(t) >= 1.0


def _trapezoid_step(t: float, step: float, half: float) -> float:
    """A trapezoid row's first spacing on a grid reaching +-half (see ``well_grid``)."""
    root = math.sqrt(t)
    h = step * min(30.0 * math.sqrt(1.0 + t), 500.0 * root)
    return min(h, 0.5 * root, math.nextafter(2.0 * half / MIN_GRID_STEPS, 0.0))


def well_reach_steps(t: float, halfwidth: float, m_big: float, step: float = 1e-3) -> float:
    """The steps of a grid at the trapezoid row's first spacing at time t
    that reached past the well's mass around +-(M+1)L (``_grid_half``)
    rather than rho_t's 8.5 sd; 0 for the Simpson rows (t < 1.6e-5), whose
    grids check their own size.  Where it passes MAX_GRID_STEPS the well is
    too wide or steep for its rows to be resolved within that cap."""
    if not _trapezoid_row(t):
        return 0.0
    half = _grid_half(t, halfwidth, m_big)
    return 2.0 * half / _trapezoid_step(t, step, half)


def well_grid(t: float, halfwidth: float, step: float, m_big: float) -> EvalGrid:
    """The grid of the closed-form well trace at time t, and its rule.
    Halving its spacing keeps it symmetric and the kinks on panel boundaries.

    The smoothed density is analytic except near the kinks at +-L, which
    smoothing rounds off over a width sqrt(t); elsewhere it varies on the
    scale sqrt(1+t) of rho_t.  Both kinds of grid are symmetric about 0 and
    reach 8.5 sd of rho_t: the trace normalizes the smoothed density by its
    exact mass, and every integrand is rho_t-weighted.

    * t < 1.6e-5: the kinks are narrower than ``step``.  A Simpson grid of
      spacing ``step``, shrunk until +-L fall on nodes whose index is a
      multiple of 4, so that no Simpson panel, fine or coarse, straddles a
      kink; the ends move out to the next such node at or past the reach,
      or at +-L where the kinks lie beyond it.  The realized spacing lies in
      (step/2, step] for step <= L/2.
    * From 1.6e-5 on the grid resolves the smoothed kinks, and the trapezoid
      rule converges geometrically: spacing step * min(30 sqrt(1+t),
      500 sqrt(t)), at most sqrt(t)/2 and width / MIN_GRID_STEPS (one ulp
      below, so the grid's own floor passes).

    ``m_big`` is not read: the signature is ``_smoothing_grid``'s.
    """
    reach = 8.5 * math.sqrt(1.0 + t)
    if _trapezoid_row(t):
        return TrapezoidGrid(-reach, reach, _trapezoid_step(t, step, reach))
    # the 1e-9 keeps a quotient that is an integer up to rounding from
    # gaining a spurious extra panel
    target = max(halfwidth, reach)
    inner = math.ceil(halfwidth / (2.0 * step) - 1e-9)  # 4 * inner intervals on [-L, L]
    outer = math.ceil((target - halfwidth) * inner / (2.0 * halfwidth) - 1e-9)
    half = halfwidth * (inner + 2 * outer) / inner  # L + 4 * outer intervals
    return EvalGrid(-half, half, half / (2 * inner + 4 * outer))


def counterexample_trace(
    m_big: float,
    halfwidth: float,
    t_grid: Sequence[float],
    *,
    order: Optional[int] = None,
    step: float = 1e-3,
    threads: Optional[int] = None,
) -> ChannelTrace:
    """FI and KL between N(0, 1+t) and the smoothed concave-well density.

    The start pair is N(0,1) against exp(-g) for the piecewise potential g;
    both evolve by Gaussian smoothing.  FI rises on an initial segment and
    falls later; KL is non-increasing throughout.

    The t = 0 row is ``_well_row_at_zero``, in closed form.  Later rows take
    the smoothed density from ``smoothed_well_logdensity`` (closed form) on
    ``well_grid``, refined to ROW_TOL (``TraceRow.converged``);
    ``smoothed_points`` counts its evaluations, the size of its last
    half-grid, since each halving evaluates only the new midpoints.  Given
    ``order``, the Gauss-Hermite rule of that order computes every row
    through ``convolved_logdensity`` and ``fi_kl_functional`` on one Simpson
    grid: the oracle.  ``threads`` > 1 runs its rows on a thread pool of
    that size.
    """
    t_vals = [float(t) for t in t_grid]
    if not t_vals or t_vals[0] != 0.0:
        raise ValueError("t_grid must start at 0")
    pot = counterexample_potential(m_big, halfwidth)  # validates M, L >= 2
    if order is None:
        log_z = _well_log_mass(m_big, halfwidth)  # every row's, as smoothing conserves mass
        rows = [_well_row_at_zero(m_big, halfwidth, log_z),
                *_well_rows(m_big, halfwidth, log_z, t_vals[1:], step)]
        return ChannelTrace(rows=tuple(rows))
    rule = gauss_hermite(order)

    def row(t: float) -> TraceRow:
        grid = _first_grid(_smoothing_grid, t, halfwidth, step, m_big)
        logval, score = convolved_logdensity(pot, t, grid.points, rule)
        return _grid_row(t, grid, _grid_normalized(logval, grid), score, grid.points.size)

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(row, t_vals))
    else:
        rows = [row(t) for t in t_vals]
    return ChannelTrace(rows=tuple(rows))


_BATCH = 8192  # half-grid points per smoothed-density call in the closed-form trace
_CLOSED_FORM_REL_ERR = 1e-15  # rounding bound of the t = 0 row's closed forms


def _first_grid(make_grid, t: float, halfwidth: float, step: float, m_big: float) -> EvalGrid:
    try:
        grid = make_grid(t, halfwidth, step, m_big)
    except (ValueError, OverflowError) as exc:  # the grid's own checks, or its size
        raise GridError(t, exc) from exc
    grid.require_covers(0.0, math.sqrt(1.0 + t))
    return grid


def _grid_row(t: float, grid: EvalGrid, lognu: np.ndarray, nu_score: np.ndarray,
              evaluated: int) -> TraceRow:
    """The Gauss-Hermite oracle's row at time t from the smoothed density's
    normalized log and its score on the grid."""
    pts = grid.points
    v = 1.0 + t
    logrho = -0.5 * math.log(2.0 * math.pi * v) - pts**2 / (2.0 * v)
    fi, kl, nu_mass = fi_kl_functional(logrho, -pts / v - nu_score, lognu, grid)
    return TraceRow(t, fi.value, kl.value, None, fi.error, kl.error, pts.size, evaluated, grid.rule,
                    nu_mass)


class _Level(NamedTuple):
    """One grid of a closed-form trace row, held as its nonnegative half
    k dx, k = 0..m.  A level that halves the row's previous spacing keeps the
    previous level's values, which are its values at the even k."""

    row: int
    dx: float
    m: int
    rule: str
    evaluated: int  # smoothed-density evaluations at the row's earlier levels
    kept: Optional[tuple] = None  # (normalized logval, score) at the even k

    def new_points(self) -> int:
        """The points at which this level evaluates the smoothed density."""
        return self.m + 1 if self.kept is None else self.m // 2


def _well_rows(m_big: float, halfwidth: float, log_z: float, t_vals: Sequence[float],
               step: float) -> list:
    """The closed-form trace's rows at the times t_vals, a batch of rows at a time.

    A row's first level is ``well_grid``'s grid, built when the row joins a
    batch; a trapezoid row whose half-grid m is a multiple of 4 and at least
    MIN_GRID_STEPS starts at (2 dx, m/2), where most meet ROW_TOL, and whose
    first halving is that grid to the bit.  A batch takes levels until their
    new points reach about _BATCH.  A point costs about half as much again
    in a shared call as in a call of its own, a call about what 1,500 points
    cost, so a level of more than half a batch takes a call of its own, with
    a float t.  A row that misses ROW_TOL goes back to the front of the
    queue at half its spacing, with its values, which the next level keeps
    at its even points: 2k (dx/2) is k dx to the bit, so that level
    evaluates only its midpoints.  Every row divides the smoothed density by
    the well's exact mass e^log_z, which smoothing conserves.
    """
    rows = [None] * len(t_vals)
    queue = deque(range(len(t_vals)))  # a row whose first level is still to build, or a _Level
    while queue:
        batch, size = [], 0
        while queue:
            level = queue.popleft()
            if not isinstance(level, _Level):
                grid = _first_grid(well_grid, t_vals[level], halfwidth, step, m_big)
                dx, m = grid.dx, (grid.size - 1) // 2
                if grid.rule == "trapezoid" and m % 4 == 0 and m >= MIN_GRID_STEPS:
                    dx, m = 2.0 * dx, m // 2
                level = _Level(level, dx, m, grid.rule, 0)
            n = level.new_points()
            alone = n > _BATCH // 2
            if batch and (alone or size + n > _BATCH):
                queue.appendleft(level)
                break
            batch.append(level)
            size += n
            if alone:
                break
        refined = []
        for level, (r, kept) in zip(batch, _batch_rows(m_big, halfwidth, log_z, t_vals, batch)):
            if r.converged() or 4 * level.m > MAX_GRID_STEPS:  # the next grid has 4m steps
                rows[level.row] = r
            else:
                refined.append(level._replace(dx=level.dx / 2, m=2 * level.m,
                                              evaluated=r.smoothed_points, kept=kept))
        queue.extendleft(reversed(refined))
    return rows


def _batch_rows(m_big: float, halfwidth: float, log_z: float, t_vals: Sequence[float],
                batch: list) -> list:
    """(row, (logval, score)) for each _Level of a batch: one smoothed-density
    call at the levels' new points, normalized by the log mass ``log_z``,
    and one pass over the batch's points for every row's integrals.

    Each grid is symmetric about 0, the smoothed density even and its score
    odd, so each integral is the rule's sum over the nonnegative half, each
    point weighted for itself and its mirror image (``_half_weights``), and
    one reduceat per integral adds each row's terms.  A batch of one level
    passes a float t, the others one time per point, which gives each point
    the same bits.
    """
    t = np.array([t_vals[b.row] for b in batch])
    m = np.array([b.m for b in batch])
    ends = np.cumsum(m + 1) - 1
    starts = ends - m
    k = np.arange(ends[-1] + 1) - np.repeat(starts, m + 1)
    x = k * np.repeat([b.dx for b in batch], m + 1)
    log_norm = [-0.5 * math.log(2.0 * math.pi * (1.0 + s)) for s in t.tolist()]  # of rho_t
    if len(batch) == 1:
        times, log_norm = float(t[0]), log_norm[0]
    else:
        times, log_norm = np.repeat(t, m + 1), np.repeat(log_norm, m + 1)
    fresh = [b.kept is None for b in batch]
    new = slice(None) if all(fresh) else ((k & 1) == 1) | np.repeat(fresh, m + 1)
    lv, sc = smoothed_well_logdensity(m_big, halfwidth, _at(times, new), x[new])
    lv -= log_z
    if not all(fresh):  # the levels that halve a spacing keep their even points' values
        kept = [b.kept for b in batch if b.kept is not None]
        lv_new, sc_new = lv, sc
        lv, sc = np.empty(x.size), np.empty(x.size)
        lv[new], sc[new] = lv_new, sc_new
        lv[~new], sc[~new] = (np.concatenate(values) for values in zip(*kept))
    v = 1.0 + times
    logrho = log_norm - x**2 / (2.0 * v)
    rho = np.exp(logrho)
    fi_terms = rho * np.square(x / v + sc)  # rho (d/dx log rho - score)^2
    kl_terms = rho * (logrho - lv)
    simpson = [b.rule == "simpson" for b in batch]
    fine_w, coarse_w = _half_weights(k, starts, ends, m, simpson)
    scale = np.array([b.dx / 3.0 if s else b.dx for b, s in zip(batch, simpson)])

    def sums(weights, *terms):  # each row's weighted sum of each term
        # one 1-D product per term: stacked four to an array, the terms made
        # the heap shrink and fault its pages back in at every batch in some
        # processes
        return np.array([np.add.reduceat(y * weights, starts) for y in terms])

    fine = (sums(fine_w, rho, np.exp(lv), fi_terms, kl_terms) * scale).T.tolist()
    coarse = (sums(coarse_w, fi_terms, kl_terms) * (2.0 * scale)).T.tolist()
    out = []
    for b, lo, hi, (rho_mass, nu_mass, fi, kl), (fi_c, kl_c) in zip(
            batch, starts.tolist(), ends.tolist(), fine, coarse):
        _check_masses(rho_mass, nu_mass)
        row = TraceRow(t_vals[b.row], fi, kl, None, abs(fi - fi_c), abs(kl - kl_c), 2 * b.m + 1,
                       b.evaluated + b.new_points(), b.rule, nu_mass)
        out.append((row, (lv[lo:hi + 1], sc[lo:hi + 1])))
    return out


def _half_weights(k: np.ndarray, starts: np.ndarray, ends: np.ndarray, m: np.ndarray,
                  simpson: list):
    """The fine and coarse rules' weights at the points k = 0..m of the
    nonnegative halves of symmetric grids of 2m + 1 points (m even), each
    full-grid weight doubled for its mirror image except at k = 0.  Fine,
    trapezoid: 1 at k = 0 and m, else 2 (times dx); Simpson: 2 at k = 0 and
    m, 8 at odd k, else 4 (times dx/3).  The coarse rules take the even k at
    twice the spacing, where a Simpson weight follows the parity of the
    point's index (m + k)/2 on the coarse grid."""
    fold = np.full(k.size, 2.0)
    fold[starts] = 1.0
    odd = k & 1
    if any(simpson):
        rule = np.repeat(simpson, m + 1)
        fine = fold * np.where(rule, 2 + 2 * odd, 1)
        coarse_odd = ((np.repeat(m, m + 1) + k) // 2) & 1
        coarse = fold * (1 - odd) * np.where(rule, 2 + 2 * coarse_odd, 1)
    else:
        fine, coarse = fold, fold * (1 - odd)
    fine[ends] = coarse[ends] = np.where(simpson, 2.0, 1.0)
    return fine, coarse


def _well_row_at_zero(m_big: float, halfwidth: float, log_z: float) -> TraceRow:
    """The concave-well trace's t = 0 row: FI and KL of N(0, 1) against
    exp(-g)/Z in closed form.

    With X ~ N(0, 1), phi its density and P = P(X > L), g' - x is -(M+1)x
    on |x| <= L and +-(M+1)L outside, and g is -M x^2/2 inside and
    (|x| - (M+1)L)^2/2 - M(M+1)L^2/2 outside, so

        FI = (M+1)^2 [E(X^2; |X| <= L) + 2 L^2 P],
        E(X^2; |X| <= L) = erf(L/sqrt 2) - 2 L phi(L),
        E g(X) = -M/2 E(X^2; |X| <= L) + (1 + (M+1) L^2) P - (2M+1) L phi(L),
        KL = -log(2 pi e)/2 + E g(X) + log Z,

    log Z = log_z, from ``_well_log_mass``.  Its error estimates are the rounding bound
    _CLOSED_FORM_REL_ERR of each value.
    """
    M, L = float(m_big), float(halfwidth)
    phi = math.exp(-0.5 * L * L) / math.sqrt(2.0 * math.pi)
    tail = 0.5 * math.erfc(L / math.sqrt(2.0))  # P(X > L)
    inner_sq = math.erf(L / math.sqrt(2.0)) - 2.0 * L * phi  # E(X^2; |X| <= L)
    fi = (M + 1.0) * (M + 1.0) * (inner_sq + 2.0 * L * L * tail)
    mean_g = -0.5 * M * inner_sq + (1.0 + (M + 1.0) * L * L) * tail - (2.0 * M + 1.0) * L * phi
    kl = -0.5 * math.log(2.0 * math.pi * math.e) + mean_g + log_z
    if not (math.isfinite(fi) and math.isfinite(kl)):
        raise QuadratureError("the t = 0 row's closed form leaves the float range")
    return TraceRow(0.0, fi, kl, None, _CLOSED_FORM_REL_ERR * fi, _CLOSED_FORM_REL_ERR * kl, 0, 0,
                    "closed-form")


def _well_log_mass(m_big: float, halfwidth: float) -> float:
    """log Z, Z the mass of exp(-g) for the concave well g, in closed form:

        Z = 2 sqrt(2/M) e^{M L^2/2} D(L sqrt(M/2)) + 2 sqrt(2 pi) Phi(M L) e^{M (M+1) L^2/2},

    D Dawson's function, summed in log space.  Smoothing by a probability
    kernel conserves mass, so it is the log mass of the smoothed well at
    every t.  Not finite where Z leaves the float range.
    """
    from .special import dawson, log_ndtr_mills

    M, L = float(m_big), float(halfwidth)
    with np.errstate(divide="ignore"):  # D underflows to 0 only where Z leaves the float range
        log_d = float(np.log(dawson(np.array([L * math.sqrt(0.5 * M)]))[0]))
    log_well = math.log(2.0 * math.sqrt(2.0 / M)) + log_d + 0.5 * M * L * L
    log_phi = float(log_ndtr_mills(np.array([M * L]))[0][0])
    log_outer = math.log(2.0 * math.sqrt(2.0 * math.pi)) + log_phi + 0.5 * M * (M + 1.0) * L * L
    return max(log_well, log_outer) + math.log1p(math.exp(-abs(log_well - log_outer)))


def counterexample_initial_slope(m_big: float, halfwidth: float) -> float:
    """Exact t=0 slope of FI(N(0,1+t) || smoothed well density).

    Evaluates -E[(-1+g'')^2] - 2 E[g''(-X+g')^2] under X ~ N(0,1) with
    truncated-Gaussian moments in closed form.  Positive for every
    admissible (M, L), and strictly above (M-2)(M+1)^2.
    """
    M, L = float(m_big), float(halfwidth)
    if M < 2.0 or L < 2.0:
        raise ValueError("need m_big >= 2 and halfwidth >= 2")
    phi_l = math.exp(-0.5 * L * L) / math.sqrt(2.0 * math.pi)
    p_in = math.erf(L / math.sqrt(2.0))  # P(|X| <= L)
    second_moment_in = p_in - 2.0 * L * phi_l  # E[X^2 1{|X| <= L}]
    q_tail = 0.5 * math.erfc(L / math.sqrt(2.0))  # P(X > L)
    c = (M + 1.0) ** 2
    return -c * p_in + 2.0 * M * c * second_moment_in - 4.0 * c * L * L * q_tail


def perturbed_bound_check(m_big: float, halfwidth: float, t_grid: Sequence[float]) -> ChannelTrace:
    """Counterexample trace with the perturbed heat-flow envelope attached.

    The well potential splits as x^2/2 plus an (M+1)L-Lipschitz remainder,
    which licenses the perturbed envelope with alpha=1, lip=(M+1)L.  Row t
    carries bound = factor(t) * fi(0); a row with fi above its bound means
    the quadrature or the envelope transcription is at fault, and judging
    that is the caller's job, so the trace is always complete.
    """
    trace = counterexample_trace(m_big, halfwidth, t_grid)
    env = HeatPerturbed(alpha=1.0, lip=(m_big + 1.0) * halfwidth)
    fi0 = trace.rows[0].fi
    return ChannelTrace(rows=tuple(r._replace(bound=env.factor(r.t) * fi0) for r in trace.rows))


# ---------------------------------------------------------------------------
# Spike gap figures


def _mills_ratio(z: np.ndarray) -> np.ndarray:
    """Phi-bar(z) / phi(z) for an array z, within 2e-15 relative on [-8, 40]:
    1 / m(-z), m = phi / Phi from ``fplab.special.log_ndtr_mills``, which is
    sqrt(pi/2) erfcx(z / sqrt 2) for z >= 0 and never underflows there."""
    from .special import log_ndtr_mills

    return 1.0 / log_ndtr_mills(-np.asarray(z, dtype=float))[1]


def spike_pieces(spec: SpikeSpec):
    """(x, g): the breakpoints of the spike potential on [-a, a] and its
    values there.  The breakpoints are +-a and the multiples m of the
    half-period inside (-a, a), where g is 1 for even |m| <= 2K and 0
    otherwise; g is linear between them.  A multiple within 1e-9
    half-periods of +-a, as (2K+1) is up to rounding, counts as +-a."""
    n = math.ceil(spec.a / spec.width - 1e-9) - 1
    m = np.arange(-n, n + 1)
    x = np.concatenate(([-spec.a], spec.width * m, [spec.a]))
    peak = (m % 2 == 0) & (np.abs(m) <= 2 * spec.k_count)
    edge = float(spike_potential(spec).value(spec.a))
    return x, np.concatenate(([edge], peak.astype(float), [edge]))


def gap_check(spec: SpikeSpec, grid: EvalGrid):
    """The spike construction's two figures: rho = N(0,1) e^{-g} / Z against N(0,1).

    Returns (r_inf, fi): r_inf = sup log(rho/nu) = -log Z, since g >= 0
    vanishes outside [-a, a], and fi = E_rho[(g')^2].  Both come from exact
    integrals over the pieces of ``spike_pieces``, where g is linear:
    int_l^u phi e^{-g} = F(l) - F(u), F(x) = phi(x) e^{-g(x)} R(x + g'), R the
    Mills ratio, or mirrored G(u) - G(l), G(x) = phi(x) e^{-g(x)} R(-x - g').
    Each piece takes the form whose R arguments sum to >= 0, so the
    difference keeps its digits.  1 - Z = P(|X| <= a) - int_{-a}^{a} phi e^{-g}.

    ``grid``, the grid the caller tabulates the densities on, must cover
    [-a-8, a+8]; the result does not depend on it.  Both figures are within
    8e-16 relative of 50-digit references; comparing them with eps and
    fi_floor is the caller's.
    """
    if grid.lo > -(spec.a + 8.0) or grid.hi < spec.a + 8.0:
        raise ValueError("grid must cover [-a-8, a+8]")
    x, g = spike_pieces(spec)
    slope = spike_potential(spec).deriv1(0.5 * (x[:-1] + x[1:]))
    end = np.exp(-0.5 * x * x - g) / math.sqrt(2.0 * math.pi)  # phi e^{-g}
    lo, hi = x[:-1] + slope, x[1:] + slope
    upper = lo + hi >= 0.0
    near = np.where(upper, end[:-1], end[1:])  # the end whose R argument is the smaller
    far = np.where(upper, end[1:], end[:-1])
    r = _mills_ratio(np.concatenate((np.where(upper, lo, -hi), np.where(upper, hi, -lo))))
    mass = near * r[: near.size] - far * r[near.size:]
    z_in = float(np.sum(mass))
    deficit = math.erf(spec.a / math.sqrt(2.0)) - z_in  # 1 - Z: P(|X| <= a) minus the spiked mass
    z = 1.0 - deficit
    r_inf = -math.log1p(-deficit)
    return r_inf, float(np.sum(mass * slope**2)) / z
