"""Concrete potentials: smooth strongly convex targets, the 1-D piecewise
potential whose smoothed Fisher information initially rises, and the
periodic-spike perturbation that separates sup-log-ratio from Fisher
information.

Scalar potentials are vectorized: value/deriv1/deriv2 accept floats or
numpy arrays.  Second derivatives of piecewise potentials return the
classical value away from kinks and the left-limit at kinks; the kink set
is finite, hence null for every integral downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SmoothPotential",
    "QuadraticPotential",
    "QuarticPotential",
    "ScalarPotential",
    "SpikeSpec",
    "ConvergenceError",
    "quadratic_potential",
    "counterexample_potential",
    "spike_spec",
    "spike_potential",
    "quartic_1d",
    "prox_objective",
    "minimize",
]


class ConvergenceError(RuntimeError):
    """Gradient descent exhausted its iteration cap.

    Signals inconsistent declared (alpha, smoothness) metadata rather than
    a tuning problem: the cap is the worst-case count those constants imply.
    """


@dataclass(frozen=True, eq=False)
class SmoothPotential:
    """A d-dimensional potential with declared curvature band [alpha, smoothness].

    The constants are declarations, not certificates; the test suite
    spot-checks them via <grad(x)-grad(y), x-y> against alpha|x-y|^2 and
    smoothness|x-y|^2 on sampled pairs.  For potentials that are only
    strongly convex/smooth on a box, the declaration is understood to hold
    on the region the trajectory of interest visits.

    A potential with exact maps overrides ``prox_point`` (the argmin of f
    plus |x - y|^2 / (2 eta)) and ``flow_grad_sq`` (|grad f|^2 along the
    gradient flow); the solvers take them wherever they are not None.
    """

    prox_point = None
    flow_grad_sq = None

    dim: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    alpha: float
    smoothness: float

    def __post_init__(self):
        if not (isinstance(self.dim, (int, np.integer)) and self.dim >= 1):
            raise ValueError("dim must be a positive integer")
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")
        if self.alpha > self.smoothness:
            raise ValueError("alpha must not exceed smoothness")


@dataclass(frozen=True, eq=False)
class QuadraticPotential(SmoothPotential):
    """curvature/2 * |x - center|^2; carries its parameters so downstream
    solvers can short-circuit to exact linear algebra."""

    center: np.ndarray = None
    curvature: float = 0.0

    def prox_point(self, y: np.ndarray, eta: float) -> np.ndarray:
        """argmin_x of this potential plus |x - y|^2 / (2 eta), exactly:
        (y + eta c center) / (1 + eta c), c the curvature."""
        c = self.curvature
        return (y + eta * c * self.center) / (1.0 + eta * c)

    def flow_grad_sq(self, x0: np.ndarray, times: np.ndarray) -> np.ndarray:
        """|grad f(x_t)|^2 along dx/dt = -grad f(x): |grad f(x_0)|^2 e^{-2 c t}."""
        g0 = self.gradient(x0)
        return float(np.dot(g0, g0)) * np.exp(-2.0 * self.curvature * times)


def quadratic_potential(dim: int, alpha: float, center=None) -> QuadraticPotential:
    """alpha/2 |x - center|^2 with alpha == smoothness."""
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    c = np.zeros(dim) if center is None else np.atleast_1d(np.asarray(center, dtype=float))
    if c.size != dim:
        raise ValueError("center length must equal dim")

    def value(x):
        dx = np.asarray(x, dtype=float) - c
        return 0.5 * alpha * float(np.dot(dx, dx))

    def gradient(x):
        return alpha * (np.asarray(x, dtype=float) - c)

    return QuadraticPotential(
        dim=dim, value=value, gradient=gradient, alpha=alpha, smoothness=alpha,
        center=c, curvature=alpha,
    )


@dataclass(frozen=True, eq=False)
class ScalarPotential:
    """A 1-D potential with value and a.e. first and second derivatives."""

    value: Callable
    deriv1: Callable
    deriv2: Callable


def counterexample_potential(m_big: float, halfwidth: float) -> ScalarPotential:
    """Piecewise potential: concave well -M x^2/2 on [-L, L], unit-curvature
    quadratic growth outside, glued C^1 at +-L.

    The induced density exp(-g) is non-log-concave in the middle; smoothing
    it with a Gaussian initially *increases* the relative Fisher information
    from N(0,1), which is the point of the construction.  Requires M, L >= 2.
    """
    M, L = float(m_big), float(halfwidth)
    if M < 2.0 or L < 2.0:
        raise ValueError("need m_big >= 2 and halfwidth >= 2")

    def value(x):
        x = np.asarray(x, dtype=float)
        inner = -0.5 * M * x**2
        right = 0.5 * (x - L) ** 2 - M * L * (x - L) - 0.5 * M * L**2
        left = 0.5 * (x + L) ** 2 + M * L * (x + L) - 0.5 * M * L**2
        out = np.where(np.abs(x) <= L, inner, np.where(x > L, right, left))
        return out if out.ndim else float(out)

    def deriv1(x):
        x = np.asarray(x, dtype=float)
        out = np.where(
            np.abs(x) <= L, -M * x, np.where(x > L, x - (M + 1.0) * L, x + (M + 1.0) * L)
        )
        return out if out.ndim else float(out)

    def deriv2(x):
        x = np.asarray(x, dtype=float)
        # left-limit convention at the kinks +-L
        out = np.where(x > L, 1.0, np.where(x > -L, -M, 1.0))
        return out if out.ndim else float(out)

    return ScalarPotential(value=value, deriv1=deriv1, deriv2=deriv2)


@dataclass(frozen=True)
class SpikeSpec:
    """Geometry of the periodic spike perturbation.

    eps       sup-log-ratio budget, in (0, 1)
    fi_floor  Fisher information to force, > 1
    a         half-width of the spiked interval: N(0,1) puts mass eps on [-a, a]
    m_big     max(1/a, sqrt(e * fi_floor / eps))
    k_count   minimal K >= 0 with (2K+1)/m_big >= a
    width     spike half-period a/(2K+1), <= 1/m_big <= a
    """

    eps: float
    fi_floor: float
    a: float
    m_big: float
    k_count: int
    width: float


def spike_spec(eps: float, fi_floor: float) -> SpikeSpec:
    if not (0.0 < eps < 1.0 < fi_floor):
        raise ValueError("need 0 < eps < 1 < fi_floor")
    from statistics import NormalDist  # loads fractions and decimal: only gap needs it
    a = NormalDist().inv_cdf((1.0 + eps) / 2.0)
    if not a > 0.0:
        raise ValueError(f"eps={eps!r} is below the resolution of (1 + eps) / 2")
    m_big = max(1.0 / a, math.sqrt(math.e * fi_floor / eps))
    if not math.isfinite(m_big):
        raise ValueError(f"fi_floor / eps = {fi_floor / eps:g} leaves the float range")
    k_count = max(0, math.ceil((a * m_big - 1.0) / 2.0 - 1e-12))
    width = a / (2 * k_count + 1)
    return SpikeSpec(eps=eps, fi_floor=fi_floor, a=a, m_big=m_big, k_count=k_count, width=width)


def spike_potential(spec: SpikeSpec) -> ScalarPotential:
    """Triangular wave of height 1 and half-period ``width`` on [-a, a], zero
    outside; peaks at even multiples of the width, |slope| = 1/width a.e."""
    a, eta, K = spec.a, spec.width, spec.k_count

    def value(x):
        x = np.asarray(x, dtype=float)
        k = np.clip(np.round(x / (2.0 * eta)), -K, K)
        tri = 1.0 - np.abs(x - 2.0 * eta * k) / eta
        out = np.where(np.abs(x) <= a, np.maximum(tri, 0.0), 0.0)
        return out if out.ndim else float(out)

    def deriv1(x):
        x = np.asarray(x, dtype=float)
        k = np.clip(np.round(x / (2.0 * eta)), -K, K)
        slope = -np.sign(x - 2.0 * eta * k) / eta
        out = np.where(np.abs(x) <= a, slope, 0.0)
        return out if out.ndim else float(out)

    def deriv2(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        return out if out.ndim else float(out)

    return ScalarPotential(value=value, deriv1=deriv1, deriv2=deriv2)


@dataclass(frozen=True, eq=False)
class QuarticPotential(SmoothPotential):
    """sum of x^4/4 + x^2/2 over the coordinates, with its exact prox point
    and gradient flow; both act coordinate by coordinate."""

    def prox_point(self, y: np.ndarray, eta: float) -> np.ndarray:
        """argmin_z of this potential plus |z - y|^2 / (2 eta): per coordinate
        the one real root of z^3 + p z = y / eta, p = 1 + 1/eta, in the
        cancellation-free form 2 sqrt(p/3) sinh(asinh((3 y / (2 eta p)) sqrt(3/p)) / 3)."""
        p = 1.0 + 1.0 / eta
        r = math.sqrt(3.0 / p)
        return 2.0 / r * np.sinh(np.arcsinh(1.5 * np.asarray(y, dtype=float) / (eta * p) * r) / 3.0)

    def flow_grad_sq(self, x0: np.ndarray, times: np.ndarray) -> np.ndarray:
        """|grad f(x_t)|^2 along dx/dt = -grad f(x).  Per coordinate u = x^2
        solves u' = -2 u (1 + u), so u_t = u_0 e^{-2t} / (1 - u_0 expm1(-2t)),
        and |grad f|^2 = u (1 + u)^2; every term is positive."""
        u0 = np.asarray(x0, dtype=float) ** 2
        t = np.asarray(times, dtype=float)[:, None]
        u = u0 * np.exp(-2.0 * t) / (1.0 - u0 * np.expm1(-2.0 * t))
        return np.sum(u * (1.0 + u) ** 2, axis=1)


def quartic_1d() -> QuarticPotential:
    """x^4/4 + x^2/2: the built-in non-quadratic convex test function.

    Globally 1-strongly convex; the declared smoothness 4 holds on the box
    |x| <= 1, which trajectories started in [-1, 1] never leave.
    """

    def value(x):
        x = np.asarray(x, dtype=float)
        return float(np.sum(0.25 * x**4 + 0.5 * x**2))

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return x**3 + x

    return QuarticPotential(dim=1, value=value, gradient=gradient, alpha=1.0, smoothness=4.0)


def prox_objective(g: SmoothPotential, y, eta: float) -> SmoothPotential:
    """x -> g(x) + |x - y|^2 / (2 eta), with curvature band
    [alpha + 1/eta, smoothness + 1/eta]."""
    inv = 1.0 / eta

    def value(x):
        dx = x - y
        return g.value(x) + 0.5 * inv * float(np.dot(dx, dx))

    def gradient(x):
        return g.gradient(x) + inv * (x - y)

    return SmoothPotential(
        dim=g.dim, value=value, gradient=gradient,
        alpha=g.alpha + inv, smoothness=g.smoothness + inv,
    )


def minimize(p: SmoothPotential, x0, tol: float) -> np.ndarray:
    """Gradient descent with fixed step 1/smoothness until |grad| <= tol.

    Deterministic, no line search.  The iteration cap
    ceil((smoothness/alpha) ln(|grad(x0)|/tol)) + 10 is what the declared
    curvature band guarantees; exceeding it raises ConvergenceError.
    When alpha == smoothness (quadratics) the first step lands exactly.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    g = p.gradient(x)
    gnorm = float(np.linalg.norm(g))
    if gnorm <= tol:
        return x
    cap = math.ceil((p.smoothness / p.alpha) * math.log(gnorm / tol)) + 10
    step = 1.0 / p.smoothness
    for _ in range(cap):
        x = x - step * g
        g = p.gradient(x)
        gnorm = float(np.linalg.norm(g))
        if not math.isfinite(gnorm):
            break
        if gnorm <= tol:
            return x
    raise ConvergenceError(
        f"no |grad| <= {tol:g} within {cap} iterations; declared alpha/smoothness "
        f"({p.alpha:g}, {p.smoothness:g}) are likely wrong for this region"
    )
