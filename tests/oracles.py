"""References that check fplab's forms from outside the package.

Numerical references that the exact forms in fplab replaced stay here as
independent checks of those forms: a classical RK4 integration of the
gradient flow, composite Simpson on the spike gap's densities, the
concave-well trace evaluated one row at a time, whose t = 0 row is the
Simpson row that the closed form replaced, and the smoothed well's mass on
a grid wide enough to hold it, which the closed-form log mass replaced.
The trace's rows at t > 0 also have a reference of their own, by
Gauss-Legendre panels broken where smoothing rounds the well's kinks off.
Beside them are closed forms that no program path needs: the time
derivatives of FI and KL along the Gaussian channels, and the concave-well
trace's t = 0 row at 50 digits.
"""

import math

import mpmath as mp
import numpy as np

from fplab.gaussian import OU, Heat, IsoGaussian, _check_dims, fisher_information
from fplab.potentials import SmoothPotential, spike_potential
from fplab.quadrature import (
    MAX_GRID_STEPS,
    MIN_GRID_STEPS,
    EvalGrid,
    TraceRow,
    TrapezoidGrid,
    _grid_half,
    _simpson,
    _trapezoid_step,
    _well_log_mass,
    smoothed_well_logdensity,
    well_grid,
)


class GapBoundError(RuntimeError):
    """The Simpson oracle's figures break one of the spike construction's bounds."""


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
    r_inf the grid maximum of log(rho/nu).  Raises GapBoundError where
    r_inf > eps + 1e-6 or fi < fi_floor - 1e-6.  Simpson falls to O(h) at the
    kinks of g, which are not grid nodes."""
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


def well_trace_row(m_big: float, halfwidth: float, t: float, step: float = 1e-3) -> TraceRow:
    """One row of the closed-form concave-well trace, evaluated on its own
    by the trace's arithmetic: ``well_grid``'s grid (at twice its spacing
    for a trapezoid grid of 2m steps, m a multiple of 4 and at least
    MIN_GRID_STEPS), its spacing halved until both error estimates meet
    ROW_TOL or the next grid would pass MAX_GRID_STEPS.  Each grid is taken
    as its nonnegative half k dx, k = 0..m, and the smoothed density is
    evaluated at every point of it in one call with a float t and divided by
    the well's closed-form mass; each integral is the rule's sum over the
    half, each point weighted for itself and its mirror image.  The trace,
    which evaluates batches of rows with one time per point and, on a halved
    grid, only the new midpoints, must equal it bit for bit at every t > 0.
    At t = 0 it is the Simpson row on the kink-aligned grid, which the
    trace's closed-form row replaced."""
    grid = well_grid(t, halfwidth, step, m_big)
    dx, m = grid.dx, (grid.size - 1) // 2
    if grid.rule == "trapezoid" and m % 4 == 0 and m >= MIN_GRID_STEPS:
        dx, m = 2.0 * dx, m // 2
    log_z = _well_log_mass(m_big, halfwidth)
    v = 1.0 + t
    while True:
        x = np.arange(m + 1) * dx
        lognu, nu_score = smoothed_well_logdensity(m_big, halfwidth, t, x)
        lognu = lognu - log_z
        logrho = -0.5 * math.log(2.0 * math.pi * v) - x**2 / (2.0 * v)
        rho = np.exp(logrho)
        terms = [rho, np.exp(lognu), rho * np.square(x / v + nu_score), rho * (logrho - lognu)]
        fine, coarse = np.zeros(m + 1), np.zeros(m + 1)
        if grid.rule == "simpson":  # 1 4 2 4 ... 2 4 1 on the full grid, folded at x = 0
            scale = dx / 3.0
            fine[0::2], fine[1::2] = 4.0, 8.0
            coarse_index = (m + np.arange(0, m + 1, 2)) // 2  # on the coarse grid of m + 1 points
            coarse[0::2] = np.where(coarse_index % 2 == 1, 8.0, 4.0)
            end = 2.0
        else:  # 1/2 1 1 ... 1 1/2 on the full grid, folded at x = 0
            scale = dx
            fine[:] = 2.0
            coarse[0::2] = 2.0
            end = 1.0
        fine[0] /= 2.0
        coarse[0] /= 2.0
        fine[-1] = coarse[-1] = end
        rho_mass, nu_mass, fi, kl = (float(np.add.reduceat(y * fine, [0])[0]) * scale for y in terms)
        fi_c, kl_c = (float(np.add.reduceat(y * coarse, [0])[0]) * (2.0 * scale) for y in terms[2:])
        assert abs(rho_mass - 1.0) <= 1e-6 and nu_mass - 1.0 <= 1e-6, (rho_mass, nu_mass)
        row = TraceRow(t, fi, kl, None, abs(fi - fi_c), abs(kl - kl_c), 2 * m + 1, m + 1,
                       grid.rule, nu_mass)
        if row.converged() or 4 * m > MAX_GRID_STEPS:
            return row
        dx, m = dx / 2, 2 * m


_KINK_CUTS = (0, 1, -1, 2, -2, 5, -5, 10, -10, 20, -20, 40, -40)  # in sd sqrt(t) about L


def well_row_by_panels(m_big: float, halfwidth: float, t: float, order: int = 20,
                       width: float = 0.25) -> tuple:
    """(fi, kl) of the closed-form concave-well trace's row at time t > 0 by
    Gauss-Legendre panels of ``order`` nodes on [0, 8.5 sqrt(1+t)], the
    trace's reach.  The panels break at L + k sqrt(t) for k in 0, +-1, +-2,
    +-5, +-10, +-20, +-40, where smoothing rounds the kink off, and at
    k (1+t) / ((M+1) L) for k > 0, where the smoothed score swings from the
    mass around -(M+1)L to that around +(M+1)L; no panel is wider than
    ``width``.  nu's log and score are ``smoothed_well_logdensity``'s less
    the exact log mass; FI and KL are even integrands, so each is twice its
    integral over the half.  The trace's uniform rules meet kinks far
    narrower than their spacing; the panels resolve them whatever t."""
    reach = 8.5 * math.sqrt(1.0 + t)
    swing = (1.0 + t) / ((m_big + 1.0) * halfwidth)
    cuts = ({0.0, reach} | {halfwidth + k * math.sqrt(t) for k in _KINK_CUTS}
            | {k * swing for k in _KINK_CUTS if k > 0})
    edges = sorted(c for c in cuts if 0.0 <= c <= reach)
    z, w = np.polynomial.legendre.leggauss(order)
    x, dx = [], []
    for a, b in zip(edges, edges[1:]):
        pieces = np.linspace(a, b, max(1, math.ceil((b - a) / width)) + 1)
        mid, half = (pieces[1:] + pieces[:-1]) / 2.0, (pieces[1:] - pieces[:-1]) / 2.0
        x.append((mid[:, None] + half[:, None] * z).ravel())
        dx.append((half[:, None] * w).ravel())
    x, dx = np.concatenate(x), np.concatenate(dx)
    lognu, nu_score = smoothed_well_logdensity(m_big, halfwidth, t, x)
    lognu = lognu - _well_log_mass(m_big, halfwidth)
    v = 1.0 + t
    logrho = -0.5 * math.log(2.0 * math.pi * v) - x**2 / (2.0 * v)
    rho = np.exp(logrho)
    fi = 2.0 * math.fsum(dx * rho * np.square(x / v + nu_score))
    kl = 2.0 * math.fsum(dx * rho * (logrho - lognu))
    return fi, kl


def wide_grid_log_mass(m_big: float, halfwidth: float, t: float, step: float = 1e-3) -> float:
    """The log mass of the concave well smoothed by N(0, t), t >= 1.6e-5, by
    the trapezoid rule at the trapezoid rows' first spacing on a grid that
    reaches past the mass around +-(M+1)L (``_grid_half``): the grid
    normalization that the closed-form log mass replaced."""
    half = _grid_half(t, halfwidth, m_big)
    grid = TrapezoidGrid(-half, half, _trapezoid_step(t, step, half))
    logval, _ = smoothed_well_logdensity(m_big, halfwidth, t, grid.points)
    shift = float(logval.max())
    return math.log(grid.total(np.exp(logval - shift))) + shift


def _generator(channel) -> tuple:
    """(c, drift): the Fokker-Planck diffusion coefficient of a channel and
    its OU rate.  The discrete proximal channel has neither."""
    if isinstance(channel, Heat):
        return 1.0, 0.0
    if isinstance(channel, OU):
        return 2.0, channel.gamma
    raise ValueError(f"unsupported channel for time derivative: {channel!r}")


def fi_time_derivative(p: IsoGaussian, q: IsoGaussian, channel) -> float:
    """d/dt FI(p_t || q_t) at t=0 when both laws follow the same channel.

    Specialization of the general Fokker-Planck identity to isotropic
    Gaussians, where the log-ratio Hessian is the constant matrix
    (1/vq - 1/vp) I:

        -c d (1/vq - 1/vp)^2 - c (2/vq - drift) FI(p, q),

    i.e. heat (c = 1, drift 0): -d (1/vq - 1/vp)^2 - (2/vq) FI(p, q), and
    OU(g) (c = 2, drift g): -2 d (1/vq - 1/vp)^2 - 2 (2/vq - g) FI(p, q).

    The weighted term can outweigh the (always nonpositive) Hessian term
    only when its weight is negative, i.e. vq > 2/g for OU; that is the
    only route to a positive derivative, and it additionally needs the
    mean-shift part of FI to dominate the variance part.
    """
    c, drift = _generator(channel)
    _check_dims(p, q)
    hess = (1.0 / q.var - 1.0 / p.var) ** 2 * p.dim
    fi = fisher_information(p, q)
    return -c * hess - c * (2.0 / q.var - drift) * fi


def kl_time_derivative(p: IsoGaussian, q: IsoGaussian, channel) -> float:
    """d/dt KL(p_t || q_t) = -(c/2) FI(p_t || q_t) along a shared channel."""
    return -0.5 * _generator(channel)[0] * fisher_information(p, q)


def well_trace_at_zero(m_big: float, halfwidth: float) -> tuple:
    """(fi, kl) of N(0, 1) against exp(-g)/Z, g the concave well, at 50 digits.

    With X ~ N(0, 1), g = -M x^2/2 on |x| <= L and (|x| - (M+1)L)^2/2 -
    M(M+1)L^2/2 outside, so g' - x is -(M+1)x inside and +-(M+1)L outside:

        FI = (M+1)^2 [E(X^2; |X| <= L) + L^2 P(|X| > L)]
        KL = -log(2 pi e)/2 + E[g(X)] + log Z,
        Z  = 2 sqrt(2/M) e^{M L^2/2} D(L sqrt(M/2))
             + 2 sqrt(2 pi) Phi(M L) e^{M L^2 (M+1)/2},

    D Dawson's function; Z is summed in log space.
    """
    with mp.workdps(50):
        M, L = mp.mpf(m_big), mp.mpf(halfwidth)
        phi, tail = mp.npdf(L), mp.ncdf(-L)  # phi(L) and P(X > L)
        inner_sq = mp.erf(L / mp.sqrt(2)) - 2 * L * phi  # E(X^2; |X| <= L)
        fi = (M + 1) ** 2 * (inner_sq + 2 * L**2 * tail)
        vertex = (M + 1) * L
        # E((X - vertex)^2; X > L) from E(X^2; X > L) = P + L phi and E(X; X > L) = phi
        outer_sq = tail + L * phi - 2 * vertex * phi + vertex**2 * tail
        mean_g = -M / 2 * inner_sq + outer_sq - M * (M + 1) * L**2 * tail
        z = L * mp.sqrt(M / 2)
        log_dawson = mp.log(mp.sqrt(mp.pi) / 2 * mp.erfi(z)) - z * z
        log_well = mp.log(2 * mp.sqrt(2 / M)) + M * L**2 / 2 + log_dawson
        log_outer = mp.log(2 * mp.sqrt(2 * mp.pi) * mp.ncdf(M * L)) + M * L**2 * (M + 1) / 2
        top = max(log_well, log_outer)
        log_z = top + mp.log(mp.exp(log_well - top) + mp.exp(log_outer - top))
        kl = -mp.log(2 * mp.pi * mp.e) / 2 + mean_g + log_z
        return float(fi), float(kl)
