"""Finite-dimensional analogues: gradient flow and the proximal gradient
algorithm, with squared-gradient-norm decay certificates.

For an alpha-strongly convex f, |grad f|^2 decays like e^{-2 alpha t}
along the flow dX/dt = -grad f(X) and like (1 + alpha eta)^{-2k} along the
implicit update x_{k+1} = x_k - eta grad f(x_{k+1}); the proximal-sampler
mean recursion for a Gaussian target is the same map applied to
f = alpha |x|^2 / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potentials import QuadraticPotential, SmoothPotential, minimize, prox_objective

__all__ = ["ProxGradTrace", "prox_grad_step", "gradient_flow", "prox_grad_run"]


@dataclass(frozen=True, eq=False)
class ProxGradTrace:
    """Iterates and squared gradient norms of a proximal-gradient run.

    Construction enforces the decay certificate
    grad_sq_norms[k] <= grad_sq_norms[0] / (1 + alpha eta)^(2k) + 1e-9.
    """

    iterates: np.ndarray  # (k_max + 1, d)
    grad_sq_norms: np.ndarray  # (k_max + 1,)
    eta: float
    alpha: float

    def __post_init__(self):
        g0 = float(self.grad_sq_norms[0])
        shrink = (1.0 + self.alpha * self.eta) ** 2
        bound = g0
        for k, gsq in enumerate(self.grad_sq_norms):
            if gsq > bound + 1e-9:
                raise ValueError(
                    f"decay certificate violated at step {k}: {gsq!r} > {bound!r} + 1e-9"
                )
            bound /= shrink


def prox_grad_step(f: SmoothPotential, x: np.ndarray, eta: float) -> np.ndarray:
    """argmin_z f(z) + |z - x|^2 / (2 eta), the implicit gradient step.

    Quadratics are solved exactly; otherwise the (1/eta + alpha)-strongly
    convex composite is minimized by gradient descent tightly enough that
    the fixed-point residual |x' - (x - eta grad f(x'))| stays below
    1e-8 (1 + |x|).
    """
    if not eta > 0.0:
        raise ValueError("eta must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if isinstance(f, QuadraticPotential):
        return f.prox_point(x, eta)
    scale = 1.0 + float(np.linalg.norm(x))
    x_new = minimize(prox_objective(f, x, eta), x, 1e-9 * scale / eta)
    residual = float(np.linalg.norm(x_new - (x - eta * f.gradient(x_new))))
    if residual > 1e-8 * scale:
        raise RuntimeError(f"implicit-update residual {residual!r} too large")
    return x_new


def gradient_flow(f: SmoothPotential, x0, t_end: float, dt: float):
    """Integrate dX/dt = -grad f(X); returns (times, grad_sq_norms).

    Quadratic potentials use the exact exponential map; everything else is
    classical fourth-order one-step integration, which needs
    dt <= 0.1 / smoothness.
    """
    if not t_end >= 0.0:
        raise ValueError("t_end must be nonnegative")
    if not 0.0 < dt <= 0.1 / f.smoothness:
        raise ValueError("need 0 < dt <= 0.1 / smoothness")
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    steps = int(round(t_end / dt))
    times = np.linspace(0.0, steps * dt, steps + 1)
    gsq = np.empty(steps + 1)
    gsq[0] = float(np.dot(f.gradient(x), f.gradient(x)))
    if isinstance(f, QuadraticPotential):
        g0 = f.gradient(x)
        for i, t in enumerate(times[1:], start=1):
            decayed = math.exp(-f.curvature * t) * g0
            gsq[i] = float(np.dot(decayed, decayed))
        return times, gsq
    for i in range(1, steps + 1):
        k1 = -f.gradient(x)
        k2 = -f.gradient(x + 0.5 * dt * k1)
        k3 = -f.gradient(x + 0.5 * dt * k2)
        k4 = -f.gradient(x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        g = f.gradient(x)
        gsq[i] = float(np.dot(g, g))
    return times, gsq


def prox_grad_run(f: SmoothPotential, x0, eta: float, k_max: int) -> ProxGradTrace:
    """k_max implicit gradient steps from x0; the trace constructor enforces
    the per-run decay certificate."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    iterates = np.empty((k_max + 1, x.size))
    gsq = np.empty(k_max + 1)
    iterates[0] = x
    g = f.gradient(x)
    gsq[0] = float(np.dot(g, g))
    for k in range(1, k_max + 1):
        x = prox_grad_step(f, x, eta)
        iterates[k] = x
        g = f.gradient(x)
        gsq[k] = float(np.dot(g, g))
    return ProxGradTrace(iterates=iterates, grad_sq_norms=gsq, eta=eta, alpha=f.alpha)
