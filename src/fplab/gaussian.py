"""Closed-form isotropic-Gaussian arithmetic for smoothing channels.

Everything in this module is exact arithmetic: KL divergence and relative
Fisher information between isotropic Gaussians, the solution maps of the
heat and Ornstein-Uhlenbeck semigroups (the forward half of a proximal
sampler step is the heat channel at t = eta), the k-iteration law of the
proximal sampling recursion for a centered Gaussian target, and the
multiplicative contraction envelopes for each channel.

Conventions: an ``IsoGaussian`` is N(mean, var * I) with scalar variance
``var``.  A Gaussian N(m, v I) is (1/v)-strongly log-concave and satisfies
a (1/v)-Poincare inequality; those are the natural moduli to feed the
envelopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "IsoGaussian",
    "Heat",
    "OU",
    "Proximal",
    "Channel",
    "HeatSLC",
    "HeatSLCPoincare",
    "HeatPerturbed",
    "OuSLC",
    "OuSLCPoincare",
    "ProxRate",
    "kl_divergence",
    "fisher_information",
    "evolve",
    "fi_curve",
    "kl_curve",
    "proximal_step",
    "proximal_chain",
    "iteration_count",
]


@dataclass(frozen=True, eq=False)
class IsoGaussian:
    """N(mean, var * I) on R^d."""

    mean: np.ndarray
    var: float

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        if mean.ndim != 1 or mean.size < 1:
            raise ValueError("mean must be a vector of length >= 1")
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean entries must be finite")
        var = float(self.var)
        if not (math.isfinite(var) and var > 0.0):
            raise ValueError(f"variance must be positive and finite, got {var!r}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "var", var)

    @property
    def dim(self) -> int:
        return self.mean.size


# Each channel maps a law N(m, v I) to N(m_t, v_t I).  It gives on a whole
# array of times the variance v_t of a law that starts at v (``variance``) and
# the factor by which the squared distance of two means and the difference of
# two variances contract (``contraction``).  Every contraction is exponential
# in t, so a mean contracts by its square root, the contraction at t/2.


@dataclass(frozen=True)
class Heat:
    """Brownian smoothing: time t convolves with N(0, t I)."""

    def variance(self, var: float, ts: np.ndarray) -> np.ndarray:
        return var + ts

    def contraction(self, ts: np.ndarray) -> np.ndarray:
        return np.ones_like(ts)


@dataclass(frozen=True)
class OU:
    """Ornstein-Uhlenbeck semigroup targeting N(0, I/gamma)."""

    gamma: float

    def __post_init__(self):
        _require_positive(gamma=self.gamma)

    def variance(self, var: float, ts: np.ndarray) -> np.ndarray:
        rate = -2.0 * self.gamma * ts
        return np.exp(rate) * var - np.expm1(rate) / self.gamma

    def contraction(self, ts: np.ndarray) -> np.ndarray:
        return np.exp(-2.0 * self.gamma * ts)


@dataclass(frozen=True)
class Proximal:
    """The proximal recursion toward N(0, I/alpha); time is the iteration count k.

    With s = 1 + alpha eta, k steps of ``proximal_step`` map N(m, v I) to
    N(s^-k m, (1/alpha + (v - 1/alpha) s^-2k) I).
    """

    alpha: float
    eta: float

    def __post_init__(self):
        _require_positive(alpha=self.alpha, eta=self.eta)

    def variance(self, var: float, ks: np.ndarray) -> np.ndarray:
        rate = _prox_rate(self.alpha, self.eta, ks)
        if var < 1.0 / self.alpha:  # v s^-2k + (1 - s^-2k)/alpha: the form below would cancel
            return np.exp(rate) * var - np.expm1(rate) / self.alpha
        return 1.0 / self.alpha + (var - 1.0 / self.alpha) * np.exp(rate)

    def contraction(self, ks: np.ndarray) -> np.ndarray:
        return np.exp(_prox_rate(self.alpha, self.eta, ks))


def _prox_rate(alpha: float, eta: float, ks):
    """log s^-2k = -2k log1p(alpha eta), s = 1 + alpha eta: a power of the
    rounded s would multiply its rounding error by 2k."""
    return -2.0 * np.asarray(ks, dtype=float) * math.log1p(alpha * eta)


Channel = Union[Heat, OU, Proximal]
_TINY = np.finfo(float).tiny  # the least normal double
_LOG_MAX = math.log(np.finfo(float).max)


def evolve(g: IsoGaussian, channel: Channel, t: float) -> IsoGaussian:
    """Push an isotropic Gaussian through a channel for time t >= 0: N(m, v I)
    goes to N(contraction(t/2) m, variance(v, t) I)."""
    t = _check_time(t)
    return IsoGaussian(g.mean * float(channel.contraction(t / 2.0)),
                       float(channel.variance(g.var, t)))


def _transported(p0: IsoGaussian, q0: IsoGaussian, channel: Channel, ts):
    """(vp, vq, shift2, dv, e) on ts: the evolved variances, and the squared
    mean distance and variance difference, taken at t = 0 and contracted, over
    2^e.  e is 0 unless the contraction underflows the normal doubles; there it
    is the square of the mean's factor, taken as mant^2 2^e to keep its digits.
    """
    _check_dims(p0, q0)
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < 0.0):
        raise ValueError("times must be nonnegative")
    shrink = channel.contraction(ts)
    mant, e = np.frexp(channel.contraction(ts / 2.0))
    low = shrink < _TINY
    shrink, e = np.where(low, mant * mant, shrink), np.where(low, 2 * e, 0)
    shift2 = shrink * float(np.dot(p0.mean - q0.mean, p0.mean - q0.mean))
    dv = shrink * (p0.var - q0.var)
    return channel.variance(p0.var, ts), channel.variance(q0.var, ts), shift2, dv, e


def fi_curve(p0: IsoGaussian, q0: IsoGaussian, channel: Channel, ts) -> np.ndarray:
    """Fisher information t -> FI(p_t || q_t) in cancellation-free form.

    Equivalent to mapping evolve + fisher_information over ts, but the
    mean/variance differences are taken at t = 0 and transported
    multiplicatively (they contract as e^{-gamma t} and e^{-2 gamma t}
    along OU, and are constant along the heat flow), so the curve stays
    accurate to a few ulp even where the differences underflow the
    rounding of the evolved variances themselves.  (dv / vq)^2 is formed from
    the mantissa of dv / vq: dividing before squaring keeps it finite at large
    variances, and the mantissa keeps it from underflowing where FI is normal.
    """
    vp, vq, shift2, dv, e = _transported(p0, q0, channel, ts)
    mant, k = np.frexp(dv / vq)
    return (np.ldexp(shift2 / vq / vq, e)
            + np.ldexp(p0.dim * mant * mant / vp, 2 * (k + e)))


# u - log1p(u), u = ratio - 1: the series sum_{k>=2} (-u)^k / k while |u| <
# _SERIES_CUT, where the subtraction would cancel (the first dropped term is at
# most 1.1e-17 of the sum); beyond the cut the direct form, within ~2e-15, with
# log(ratio) below u = -1/2, where 1 + u keeps fewer digits than the ratio.
_SERIES_CUT = 0.1
_SERIES_TERMS = 17


def _u_minus_log1p(u: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    u, ratio = np.atleast_1d(u, ratio)
    low = u < -0.5  # each log only where it is taken: log1p(-1) would warn
    out = np.empty_like(u)
    out[low] = u[low] - np.log(ratio[low])
    out[~low] = u[~low] - np.log1p(u[~low])
    small = np.abs(u) < _SERIES_CUT
    w = -u[small]
    acc = np.full_like(w, 1.0 / _SERIES_TERMS)
    for k in range(_SERIES_TERMS - 1, 1, -1):  # Horner in w
        acc = 1.0 / k + w * acc
    out[small] = w * w * acc
    return out


def kl_curve(p0: IsoGaussian, q0: IsoGaussian, channel: Channel, ts) -> np.ndarray:
    """KL divergence t -> KL(p_t || q_t) in cancellation-free form.

    KL = d/2 (u - log(1 + u)) + |m_p - m_q|^2 / (2 v_q) with u = r - 1 =
    (v_p - v_q)/v_q; u is transported from t = 0 like fi_curve's variance
    difference, and u - log(1 + u) is summed as a series where it is small.
    """
    vp, vq, shift2, dv, e = _transported(p0, q0, channel, ts)
    u = np.ldexp(dv / vq, e)
    return 0.5 * p0.dim * _u_minus_log1p(u, vp / vq) + np.ldexp(shift2 / (2.0 * vq), e)


# ---------------------------------------------------------------------------
# Divergences


def _check_dims(p: IsoGaussian, q: IsoGaussian) -> None:
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")


def kl_divergence(p: IsoGaussian, q: IsoGaussian) -> float:
    """KL(p || q) = d/2 (u - log(1 + u)) + |mp - mq|^2 / (2 vq), u = (vp - vq)/vq,
    formed as ``kl_curve`` forms it at t = 0."""
    return float(kl_curve(p, q, Heat(), [0.0])[0])


def fisher_information(p: IsoGaussian, q: IsoGaussian) -> float:
    """Relative Fisher information E_p |grad log(p/q)|^2.

    For isotropic Gaussians the score difference is affine and the
    expectation is exact:

        FI = |mp - mq|^2 / vq^2 + d (vp - vq)^2 / (vp vq^2),

    formed as ``fi_curve`` forms it at t = 0.
    """
    return float(fi_curve(p, q, Heat(), [0.0])[0])


# ---------------------------------------------------------------------------
# Proximal recursion for the Gaussian target N(0, I/alpha)


def proximal_step(p: IsoGaussian, alpha: float, eta: float) -> IsoGaussian:
    """One full proximal-sampler iteration in closed form.

    For the target N(0, I/alpha) the iterates stay Gaussian; one step maps
    N(m, v I) to N(m/(1+alpha eta), ((v - 1/alpha)/(1+alpha eta)^2 + 1/alpha) I).
    N(0, I/alpha) is an exact fixed point.
    """
    _require_positive(alpha=alpha, eta=eta)
    shrink = 1.0 + alpha * eta
    var = (p.var - 1.0 / alpha) / shrink**2 + 1.0 / alpha
    return IsoGaussian(p.mean / shrink, var)


def proximal_chain(p0: IsoGaussian, alpha: float, eta: float, k: int) -> list[IsoGaussian]:
    """Iterates [p0, p1, ..., pk] of the closed-form proximal recursion."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = [p0]
    for _ in range(k):
        out.append(proximal_step(out[-1], alpha, eta))
    return out


# ---------------------------------------------------------------------------
# Contraction envelopes.  factor(t) is the multiplier such that the cited
# contraction statement reads FI(t) <= factor(t) * FI(0); factor(0) == 1.


def _require_positive(**kwargs: float) -> None:
    for name, val in kwargs.items():
        if not val > 0.0:
            raise ValueError(f"{name} must be positive, got {val!r}")


def _check_time(t: float) -> float:
    t = float(t)
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t!r}")
    return t


@dataclass(frozen=True)
class HeatSLC:
    """Heat-flow contraction under alpha-strong log-concavity of q0."""

    alpha: float

    def __post_init__(self):
        _require_positive(alpha=self.alpha)

    def factor(self, t: float) -> float:
        t = _check_time(t)
        return 1.0 / (1.0 + self.alpha * t) ** 2


@dataclass(frozen=True)
class HeatSLCPoincare:
    """Heat-flow contraction, q0 alpha-SLC plus symmetric p0 with beta-PI."""

    alpha: float
    beta: float

    def __post_init__(self):
        _require_positive(alpha=self.alpha, beta=self.beta)

    def factor(self, t: float) -> float:
        t = _check_time(t)
        return 1.0 / ((1.0 + self.beta * t) * (1.0 + self.alpha * t) ** 2)


@dataclass(frozen=True)
class HeatPerturbed:
    """Heat-flow envelope when -log q0 = (alpha-strongly convex) + (lip-Lipschitz).

    The factor exceeds 1 for small t and decays like (1+alpha t)^-2 e^O(1)
    for large t, so contraction only holds eventually.
    """

    alpha: float
    lip: float

    def __post_init__(self):
        _require_positive(alpha=self.alpha, lip=self.lip)

    def factor(self, t: float) -> float:
        t = _check_time(t)
        denom = self.alpha * t + 1.0
        bump = 2.0 * t * self.lip**2 / denom + 8.0 * self.lip * math.sqrt(t) / math.sqrt(denom)
        try:
            return math.exp(bump) / (1.0 + self.alpha * t) ** 2
        except OverflowError:  # a term leaves the float range: take the quotient in logs
            log_factor = bump - 2.0 * math.log1p(self.alpha * t)
            return math.inf if log_factor > _LOG_MAX else math.exp(log_factor)


@dataclass(frozen=True)
class OuSLC:
    """OU contraction under alpha-strong log-concavity of q0.

    Non-increasing in t iff 2*alpha >= gamma; for alpha < gamma/2 the factor
    rises above 1 before its eventual e^{-2 gamma t} decay.
    """

    alpha: float
    gamma: float

    def __post_init__(self):
        _require_positive(alpha=self.alpha, gamma=self.gamma)

    def factor(self, t: float) -> float:
        t = _check_time(t)
        decay = math.exp(-2.0 * self.gamma * t)
        return self.gamma**2 * decay / (self.alpha + decay * (self.gamma - self.alpha)) ** 2


@dataclass(frozen=True)
class OuSLCPoincare:
    """OU contraction, q0 alpha-SLC plus symmetric p0 with beta-PI."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        _require_positive(alpha=self.alpha, beta=self.beta, gamma=self.gamma)

    def factor(self, t: float) -> float:
        t = _check_time(t)
        decay = math.exp(-2.0 * self.gamma * t)
        pi_part = self.beta + decay * (self.gamma - self.beta)
        slc_part = self.alpha + decay * (self.gamma - self.alpha)
        return self.gamma**3 * decay**2 / (pi_part * slc_part**2)


@dataclass(frozen=True)
class ProxRate:
    """Per-iteration contraction of the proximal recursion; evaluate at k."""

    alpha: float
    eta: float

    def __post_init__(self):
        _require_positive(alpha=self.alpha, eta=self.eta)

    def factor(self, k: float) -> float:
        return float(np.exp(_prox_rate(self.alpha, self.eta, _check_time(k))))


# ---------------------------------------------------------------------------
# Iteration budget


def iteration_count(d: int, L: float, alpha: float, eps: float) -> int:
    """Smallest k with k >= (d L / alpha) ln(d L / eps); 0 when d L <= eps."""
    if not (isinstance(d, (int, np.integer)) and d >= 1):
        raise ValueError("d must be a positive integer")
    if not (0.0 < alpha <= L):
        raise ValueError("need 0 < alpha <= L")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    if d * L <= eps:
        return 0
    return max(0, math.ceil((d * L / alpha) * math.log(d * L / eps)))
