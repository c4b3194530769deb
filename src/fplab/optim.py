"""Finite-dimensional analogues: gradient flow and the proximal gradient
algorithm, traced by their squared gradient norms.

For an alpha-strongly convex f, |grad f|^2 decays like e^{-2 alpha t}
along the flow dX/dt = -grad f(X) and like (1 + alpha eta)^{-2k} along the
implicit update x_{k+1} = x_k - eta grad f(x_{k+1}); the proximal-sampler
mean recursion for a Gaussian target is the same map applied to
f = alpha |x|^2 / 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .potentials import SmoothPotential, minimize, prox_objective

__all__ = ["ProxGradTrace", "prox_grad_step", "gradient_flow", "prox_grad_run"]


@dataclass(frozen=True, eq=False)
class ProxGradTrace:
    """Iterates and squared gradient norms of a proximal-gradient run.

    ``residual_max`` is the largest implicit-step residual
    |x_k - (x_{k-1} - eta grad f(x_k))| / (1 + |x_{k-1}|).
    """

    iterates: np.ndarray  # (k_max + 1, d)
    grad_sq_norms: np.ndarray  # (k_max + 1,)
    residual_max: float


def prox_grad_step(f: SmoothPotential, x: np.ndarray, eta: float) -> np.ndarray:
    """argmin_z f(z) + |z - x|^2 / (2 eta), the implicit gradient step.

    A potential with an exact prox point returns it; otherwise the
    (1/eta + alpha)-strongly convex composite is minimized by gradient
    descent tightly enough that the fixed-point residual
    |x' - (x - eta grad f(x'))| stays below 1e-8 (1 + |x|).  An exact
    map's residual is rounding alone, which grows like eta smoothness |x'|
    ulp and passes that bound at eta ~ 1e9 for a quadratic centred at 1.
    """
    if not eta > 0.0:
        raise ValueError("eta must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if f.prox_point is not None:
        return f.prox_point(x, eta)
    scale = 1.0 + float(np.linalg.norm(x))
    x_new = minimize(prox_objective(f, x, eta), x, 1e-9 * scale / eta)
    residual = float(np.linalg.norm(x_new - (x - eta * f.gradient(x_new))))
    if residual > 1e-8 * scale:
        raise RuntimeError(f"implicit-update residual {residual!r} too large")
    return x_new


def gradient_flow(f: SmoothPotential, x0, t_end: float, dt: float):
    """|grad f|^2 along dX/dt = -grad f(X) at t = 0, dt, ..., round(t_end/dt) dt;
    returns (times, grad_sq_norms).

    The values come from the potential's exact flow (``flow_grad_sq``); a
    potential without one raises TypeError.
    """
    if not t_end >= 0.0:
        raise ValueError("t_end must be nonnegative")
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if f.flow_grad_sq is None:
        raise TypeError(f"{type(f).__name__} has no exact gradient flow")
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    steps = int(round(t_end / dt))
    times = np.linspace(0.0, steps * dt, steps + 1)
    return times, f.flow_grad_sq(x, times)


def prox_grad_run(f: SmoothPotential, x0, eta: float, k_max: int) -> ProxGradTrace:
    """k_max implicit gradient steps from x0."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    iterates = np.empty((k_max + 1, x.size))
    grads = np.empty((k_max + 1, x.size))
    iterates[0] = x
    grads[0] = f.gradient(x)
    for k in range(1, k_max + 1):
        x = prox_grad_step(f, x, eta)
        iterates[k] = x
        grads[k] = f.gradient(x)
    prev = iterates[:-1]
    residuals = np.linalg.norm(iterates[1:] - (prev - eta * grads[1:]), axis=1)
    residual_max = float(np.max(residuals / (1.0 + np.linalg.norm(prev, axis=1)), initial=0.0))
    return ProxGradTrace(iterates=iterates, grad_sq_norms=np.sum(grads**2, axis=1),
                         residual_max=residual_max)
