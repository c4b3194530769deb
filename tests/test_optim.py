import math

import numpy as np
import pytest

import fplab as fp
from fplab.cli import _decay_failure
from oracles import rk4_flow


def plain(f):
    """f's value and gradient without its exact maps, so the solvers take
    their numerical routes."""
    return fp.SmoothPotential(dim=f.dim, value=f.value, gradient=f.gradient,
                              alpha=f.alpha, smoothness=f.smoothness)


class TestProxGradStep:
    def test_quadratic_closed_form(self):
        f = fp.quadratic_potential(2, 1.5, center=[2.0, -1.0])
        x = np.array([0.5, 0.5])
        eta = 0.8
        expect = (x + eta * 1.5 * f.center) / (1.0 + eta * 1.5)
        assert np.max(np.abs(fp.prox_grad_step(f, x, eta) - expect)) <= 1e-12

    def test_fixed_point_at_minimizer(self):
        f = fp.quadratic_potential(1, 1.0, center=[0.7])
        out = fp.prox_grad_step(f, np.array([0.7]), 1.0)
        assert out[0] == pytest.approx(0.7, abs=1e-12)

    def test_quartic_cubic_root(self):
        # implicit step solves z^3 + 2z - 1 = 0; root from numpy.roots
        root = sorted(np.roots([1.0, 0.0, 2.0, -1.0]), key=lambda r: abs(r.imag))[0].real
        out = fp.prox_grad_step(fp.quartic_1d(), np.array([1.0]), 1.0)
        assert out[0] == pytest.approx(root, rel=1e-15)
        assert root == pytest.approx(0.4533976515164039, abs=1e-15)

    def test_quartic_prox_point_against_mpmath(self):
        # the one real root of eta z^3 + (1 + eta) z = x, at 50 digits, over
        # the range of x and eta that proxgrad reaches
        mp = pytest.importorskip("mpmath")
        q = fp.quartic_1d()
        xs = np.concatenate([np.geomspace(1e-200, 3.0, 21), -np.geomspace(1e-200, 3.0, 5)])
        worst = 0.0
        with mp.workdps(50):
            for eta in np.geomspace(1e-6, 1e100, 18):
                for x, z in zip(xs, q.prox_point(xs, eta)):
                    e, xm = mp.mpf(eta), mp.mpf(x)
                    ref = mp.findroot(lambda t: e * t**3 + (1 + e) * t - xm, mp.mpf(z))
                    worst = max(worst, float(abs((z - ref) / ref)))
        assert worst <= 1e-15

    def test_quartic_closed_form_matches_descent_route(self):
        q = fp.quartic_1d()
        for x in (-0.9, 0.05, 0.5, 1.0):  # the box |x| <= 1, where descent holds its constants
            for eta in (1e-3, 0.5, 3.0, 1e3):
                closed = fp.prox_grad_step(q, np.array([x]), eta)
                descent = fp.prox_grad_step(plain(q), np.array([x]), eta)
                assert abs(closed[0] - descent[0]) <= 1e-9 * (1.0 + abs(x))

    def test_exact_route_at_large_eta(self):
        # rounding alone would fail the descent route's residual bound here
        q = fp.quadratic_potential(1, 1.0, center=[1.0])
        for eta in (1e9, 1e12):
            out = fp.prox_grad_step(q, np.array([0.0]), eta)
            assert out[0] == eta / (1.0 + eta)

    def test_implicit_residual_contract(self):
        f = fp.quartic_1d()
        x = np.array([0.9])
        out = fp.prox_grad_step(f, x, 0.5)
        residual = np.linalg.norm(out - (x - 0.5 * f.gradient(out)))
        assert residual <= 1e-8 * (1.0 + np.linalg.norm(x))

    def test_eta_validated(self):
        with pytest.raises(ValueError):
            fp.prox_grad_step(fp.quartic_1d(), np.array([1.0]), 0.0)


class TestGradientFlow:
    def test_quadratic_exact_decay(self):
        f = fp.quadratic_potential(1, 1.0)
        ts, gsq = fp.gradient_flow(f, [1.0], 5.0, 0.01)
        assert np.max(np.abs(gsq - np.exp(-2.0 * ts))) <= 1e-14

    def test_start_at_minimizer_stays_zero(self):
        f = fp.quadratic_potential(2, 2.0, center=[1.0, 1.0])
        _, gsq = fp.gradient_flow(f, [1.0, 1.0], 1.0, 0.01)
        assert np.all(gsq == 0.0)

    def test_quartic_envelope(self):
        f = fp.quartic_1d()
        ts, gsq = fp.gradient_flow(f, [1.0], 5.0, 0.02)
        envelope = gsq[0] * np.exp(-2.0 * f.alpha * ts)
        assert np.all(gsq <= envelope * (1.0 + 1e-6))

    def test_quartic_against_mpmath_ode(self):
        # |grad f|^2 = x^2 (1 + x^2)^2 along x' = -(x^3 + x), by mpmath's
        # Taylor-series ODE solver at 50 digits
        mp = pytest.importorskip("mpmath")
        f = fp.quartic_1d()
        with mp.workdps(50):
            for x0, t_end in ((1.0, 2.5), (2.0, 0.5)):
                ts, gsq = fp.gradient_flow(f, [x0], t_end, 0.25)
                sol = mp.odefun(lambda t, x: -(x**3 + x), 0, mp.mpf(x0))
                for t, g in zip(ts, gsq):
                    x = sol(mp.mpf(t))
                    ref = x**2 * (1 + x**2) ** 2
                    assert abs((g - ref) / ref) <= 1e-14

    def test_quartic_against_rk4_oracle(self):
        # RK4's own error: about 7.5e-10 at dt = 0.01, sixteen times less at half the step
        f = fp.quartic_1d()
        errs = []
        for dt in (0.01, 0.005):
            ts, exact = fp.gradient_flow(f, [1.0], 5.0, dt)
            ts_rk4, rk4 = rk4_flow(f, [1.0], 5.0, dt)
            assert ts.tobytes() == ts_rk4.tobytes()
            errs.append(float(np.max(np.abs(rk4 / exact - 1.0))))
        assert errs[0] <= 1e-9
        assert 12.0 <= errs[0] / errs[1] <= 20.0

    def test_no_exact_flow_raises(self):
        with pytest.raises(TypeError):
            fp.gradient_flow(plain(fp.quartic_1d()), [1.0], 1.0, 0.01)

    def test_dt_validated(self):
        with pytest.raises(ValueError):
            fp.gradient_flow(fp.quartic_1d(), [1.0], 1.0, 0.0)


class TestRK4Oracle:
    def test_quartic_envelope(self):
        f = fp.quartic_1d()
        ts, gsq = rk4_flow(f, [1.0], 5.0, 0.02)
        envelope = gsq[0] * np.exp(-2.0 * f.alpha * ts)
        assert np.all(gsq <= envelope * (1.0 + 1e-6))

    def test_step_size_guard(self):
        with pytest.raises(ValueError):
            rk4_flow(fp.quartic_1d(), [1.0], 1.0, 0.05)  # dt > 0.1/L


class TestProxGradRun:
    def test_quadratic_exact_powers(self):
        trace = fp.prox_grad_run(fp.quadratic_potential(1, 1.0), [1.0], 1.0, 8)
        expect = 0.25 ** np.arange(9)
        assert np.max(np.abs(trace.grad_sq_norms - expect)) <= 1e-15

    def test_start_at_minimizer_all_zero(self):
        f = fp.quadratic_potential(1, 1.0, center=[0.3])
        trace = fp.prox_grad_run(f, [0.3], 0.7, 5)
        assert np.all(trace.grad_sq_norms == 0.0)

    def test_one_step_ratio_bound(self):
        f = fp.quartic_1d()
        trace = fp.prox_grad_run(f, [1.0], 0.6, 12)
        gsq = trace.grad_sq_norms
        bound = 1.0 / (1.0 + f.alpha * 0.6) ** 2
        live = gsq[:-1] > 1e-250
        assert np.all(gsq[1:][live] / gsq[:-1][live] <= bound + 1e-9)

    @pytest.mark.parametrize("make_f", [lambda: fp.quadratic_potential(1, 1.0), fp.quartic_1d])
    def test_monotone_gradient_norms(self, make_f):
        trace = fp.prox_grad_run(make_f(), [1.0], 0.8, 15)
        assert np.all(np.diff(trace.grad_sq_norms) <= 0.0)

    @pytest.mark.parametrize("make_f", [lambda: fp.quadratic_potential(1, 1.0), fp.quartic_1d])
    @pytest.mark.parametrize("eta", [1e-6, 1e-2, 1.0, 3.0, 1e3, 1e100])
    def test_long_runs_hold_relative_certificate(self, make_f, eta):
        f = make_f()
        trace = fp.prox_grad_run(f, [1.0], eta, 400)
        assert _decay_failure(trace.grad_sq_norms, f.alpha, eta) is None  # at every step
        assert trace.residual_max <= 1e-15

    def test_certificate_is_relative(self):
        # 9e-11 is far above the envelope 2.5e-11, though within 1e-9 of it
        assert _decay_failure(np.array([1e-10, 9e-11]), 1.0, 1.0) == (
            "decay certificate violated at step 1: 9e-11 > 2.5e-11 (1 + 1e-09)")
        above = 0.0625 * (1.0 + 1e-8)
        assert _decay_failure(np.array([1.0, 0.25, above]), 1.0, 1.0) == (
            f"decay certificate violated at step 2: {above!r} > 0.0625 (1 + 1e-09)")
        assert _decay_failure(np.array([1.0, 0.25, 0.0625 * (1.0 + 1e-10)]), 1.0, 1.0) is None

    def test_certificate_floor_is_smallest_normal(self):
        # the envelope underflows to 0 at k = 2; subnormal values pass, normal ones do not
        assert _decay_failure(np.array([1.0, 1e-200, 1e-310]), 1.0, 1e100) is None
        assert _decay_failure(np.array([1.0, 1e-200, 1e-300]), 1.0, 1e100) == (
            "decay certificate violated at step 2: 1e-300 > 0.0 (1 + 1e-09)")

    def test_trace_certificate_enforced(self):
        # too slow for alpha=1, eta=1
        assert _decay_failure(np.array([1.0, 0.9]), 1.0, 1.0) == (
            "decay certificate violated at step 1: 0.9 > 0.25 (1 + 1e-09)")

    def test_mirror_of_sampler_mean_recursion(self):
        # the Gaussian-chain means and the implicit gradient steps on the
        # matching quadratic are the same map
        alpha, eta = 0.7, 0.9
        f = fp.quadratic_potential(1, alpha)
        trace = fp.prox_grad_run(f, [1.0], eta, 10)
        p = fp.IsoGaussian([1.0], 1.0)
        for k, iterate in enumerate(trace.iterates):
            assert iterate[0] == pytest.approx(p.mean[0], rel=1e-14)
            if k < 10:
                p = fp.proximal_step(p, alpha, eta)
