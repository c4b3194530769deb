"""Numerical references that the exact forms in fplab replaced.

They stay here as independent checks of those forms: a classical RK4
integration of the gradient flow, and composite Simpson on the spike gap's
densities.
"""

import math

import numpy as np

from fplab.potentials import SmoothPotential, spike_potential
from fplab.quadrature import EvalGrid, GapBoundError, _simpson


def rk4_flow(f: SmoothPotential, x0, t_end: float, dt: float):
    """Integrate dX/dt = -grad f(X) by classical fourth-order steps; returns
    (times, grad_sq_norms) on the time grid of ``fplab.gradient_flow``.
    Needs dt <= 0.1 / smoothness."""
    if not t_end >= 0.0:
        raise ValueError("t_end must be nonnegative")
    if not 0.0 < dt <= 0.1 / f.smoothness:
        raise ValueError("need 0 < dt <= 0.1 / smoothness")
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    steps = int(round(t_end / dt))
    times = np.linspace(0.0, steps * dt, steps + 1)
    gsq = np.empty(steps + 1)
    g = f.gradient(x)
    gsq[0] = float(np.dot(g, g))
    for i in range(1, steps + 1):
        k1 = -f.gradient(x)
        k2 = -f.gradient(x + 0.5 * dt * k1)
        k3 = -f.gradient(x + 0.5 * dt * k2)
        k4 = -f.gradient(x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        g = f.gradient(x)
        gsq[i] = float(np.dot(g, g))
    return times, gsq


def simpson_gap_check(spec, grid: EvalGrid):
    """The spike certificate by composite Simpson on ``grid``: (r_inf, fi),
    r_inf the grid maximum of log(rho/nu).  Raises GapBoundError like
    ``fplab.gap_check``.  Simpson falls to O(h) at the kinks of g, which are
    not grid nodes."""
    if grid.lo > -(spec.a + 8.0) or grid.hi < spec.a + 8.0:
        raise ValueError("grid must cover [-a-8, a+8]")
    pot = spike_potential(spec)
    pts = grid.points
    g = pot.value(pts)
    weight = np.exp(-(pts**2) / 2.0 - g) / math.sqrt(2.0 * math.pi)
    z = _simpson(weight, grid.dx)
    r_inf = float(np.max(-g)) - math.log(z)
    fi = _simpson(weight * pot.deriv1(pts) ** 2, grid.dx) / z
    if r_inf > spec.eps + 1e-6:
        raise GapBoundError(f"r_inf={r_inf!r} exceeds eps={spec.eps}", r_inf, fi)
    if fi < spec.fi_floor - 1e-6:
        raise GapBoundError(f"fi={fi!r} below floor={spec.fi_floor}", r_inf, fi)
    return r_inf, fi
