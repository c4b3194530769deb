import math

import numpy as np
import pytest
from scipy.special import ndtri

import fplab as fp
from fplab.potentials import ConvergenceError


def fd_deriv(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestQuadratic:
    def test_values(self):
        pot = fp.quadratic_potential(1, 1.0)
        assert pot.value(np.array([2.0])) == 2.0
        pot3 = fp.quadratic_potential(3, 2.0)
        assert pot3.value(np.array([1.0, 1.0, 1.0])) == 3.0

    def test_gradient_at_center(self):
        pot = fp.quadratic_potential(2, 1.5, center=[1.0, -2.0])
        assert np.all(pot.gradient(np.array([1.0, -2.0])) == 0.0)

    def test_alpha_equals_smoothness(self):
        pot = fp.quadratic_potential(4, 0.7)
        assert pot.alpha == pot.smoothness == 0.7

    def test_validation(self):
        with pytest.raises(ValueError):
            fp.quadratic_potential(1, 0.0)
        with pytest.raises(ValueError):
            fp.quadratic_potential(2, 1.0, center=[0.0])

    def test_curvature_band_spot_check(self):
        pot = fp.quadratic_potential(3, 1.3)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y = rng.normal(size=3), rng.normal(size=3)
            inner = float(np.dot(pot.gradient(x) - pot.gradient(y), x - y))
            d2 = float(np.dot(x - y, x - y))
            assert pot.alpha * d2 * (1 - 1e-12) <= inner <= pot.smoothness * d2 * (1 + 1e-12)


class TestCounterexamplePotential:
    def test_inner_branch_values(self):
        pot = fp.counterexample_potential(2, 2)
        assert pot.value(0.0) == 0.0
        assert pot.value(2.0) == -4.0

    def test_outer_derivative(self):
        pot = fp.counterexample_potential(2, 2)
        assert pot.deriv1(3.0) == 3.0 - 3.0 * 2.0  # x - (M+1) L

    @pytest.mark.parametrize("m_big,halfwidth", [(2, 2), (2.5, 3), (4, 2)])
    def test_branch_continuity(self, m_big, halfwidth):
        pot = fp.counterexample_potential(m_big, halfwidth)
        L = halfwidth
        for s in (1.0, -1.0):
            eps = 1e-9
            assert pot.value(s * L) == pytest.approx(pot.value(s * (L + eps)), abs=1e-7)
            assert pot.deriv1(s * L) == pytest.approx(pot.deriv1(s * (L + eps)), abs=1e-7)
        # exact branch match at the kink
        assert pot.value(L) == -m_big * L**2 / 2.0
        assert pot.deriv1(L) == -m_big * L

    def test_second_derivative_left_limit_convention(self):
        pot = fp.counterexample_potential(2, 2)
        assert pot.deriv2(0.0) == -2.0
        assert pot.deriv2(2.0) == -2.0  # left limit at the kink
        assert pot.deriv2(-2.0) == 1.0
        assert pot.deriv2(2.0 + 1e-12) == 1.0

    def test_derivative_consistency_off_kinks(self):
        pot = fp.counterexample_potential(3, 2)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-8, 8, size=60)
        pts = pts[np.abs(np.abs(pts) - 2.0) > 1e-3]
        for x in pts:
            fd = fd_deriv(lambda v: pot.value(float(v)), float(x))
            assert fd == pytest.approx(pot.deriv1(float(x)), rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("m_big,halfwidth", [(2, 2), (3, 2), (2, 4)])
    def test_lipschitz_decomposition(self, m_big, halfwidth):
        # g(x) - x^2/2 must have derivative bounded by (M+1) L everywhere
        pot = fp.counterexample_potential(m_big, halfwidth)
        xs = np.linspace(-40, 40, 20001)
        psi_prime = pot.deriv1(xs) - xs
        assert np.max(np.abs(psi_prime)) <= (m_big + 1.0) * halfwidth * (1 + 1e-12)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            fp.counterexample_potential(1.9, 2)
        with pytest.raises(ValueError):
            fp.counterexample_potential(2, 1.0)


class TestSpikeSpec:
    def test_interval_mass_matches_eps(self):
        # independent inverse-CDF oracle: spike_spec uses the standard library's
        for eps in (0.1, 0.5, 0.9):
            spec = fp.spike_spec(eps, 10.0)
            assert abs(spec.a - ndtri((1 + eps) / 2)) <= 1e-10
            mass = math.erf(spec.a / math.sqrt(2.0))
            assert abs(mass - eps) <= 1e-10

    def test_height_scale(self):
        spec = fp.spike_spec(0.5, 10.0)
        assert spec.m_big == pytest.approx(max(1.0 / spec.a, math.sqrt(math.e * 20.0)), abs=1e-12)
        assert spec.m_big == pytest.approx(7.3733056744, abs=1e-9)

    def test_k_minimality(self):
        for eps, floor in [(0.5, 10.0), (0.1, 100.0), (0.9, 2.0), (0.3, 1.5)]:
            spec = fp.spike_spec(eps, floor)
            assert (2 * spec.k_count + 1) / spec.m_big >= spec.a * (1 - 1e-12)
            if spec.k_count > 0:
                assert (2 * (spec.k_count - 1) + 1) / spec.m_big < spec.a

    def test_width_identities(self):
        spec = fp.spike_spec(0.5, 10.0)
        assert spec.width * (2 * spec.k_count + 1) == spec.a
        assert spec.width <= 1.0 / spec.m_big <= spec.a

    def test_domain_validation(self):
        for eps, floor in [(0.0, 10.0), (1.0, 10.0), (0.5, 1.0), (-0.1, 5.0)]:
            with pytest.raises(ValueError):
                fp.spike_spec(eps, floor)


class TestSpikePotential:
    def test_peak_and_zero_pattern(self):
        spec = fp.spike_spec(0.5, 10.0)
        pot = fp.spike_potential(spec)
        assert pot.value(0.0) == 1.0
        for k in range(-spec.k_count, spec.k_count + 1):
            assert pot.value(2.0 * k * spec.width) == pytest.approx(1.0, abs=1e-12)
        assert pot.value(spec.width) == pytest.approx(0.0, abs=1e-12)
        assert pot.value(2.0 * spec.a) == 0.0

    def test_range_and_support(self):
        spec = fp.spike_spec(0.3, 5.0)
        pot = fp.spike_potential(spec)
        xs = np.linspace(-3 * spec.a, 3 * spec.a, 4001)
        vals = pot.value(xs)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all(vals[np.abs(xs) > spec.a] == 0.0)

    def test_slope_magnitude(self):
        spec = fp.spike_spec(0.5, 10.0)
        pot = fp.spike_potential(spec)
        rng = np.random.default_rng(2)
        inside = rng.uniform(-spec.a, spec.a, size=200)
        inside = inside[np.abs(np.round(inside / spec.width) * spec.width - inside) > 1e-4]
        assert np.all(np.abs(np.abs(pot.deriv1(inside)) - 1.0 / spec.width) < 1e-9)
        assert np.all(pot.deriv1(np.array([spec.a + 0.5, -spec.a - 2.0])) == 0.0)

    def test_derivative_consistency_off_kinks(self):
        spec = fp.spike_spec(0.5, 10.0)
        pot = fp.spike_potential(spec)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-spec.a, spec.a, size=100)
        pts = pts[np.abs(np.round(pts / spec.width) * spec.width - pts) > 1e-3]
        for x in pts:
            fd = fd_deriv(lambda v: pot.value(float(v)), float(x), h=1e-7)
            assert fd == pytest.approx(pot.deriv1(float(x)), rel=1e-5)

    def test_tilted_mass_bounded_by_gaussian(self):
        # integral of exp(-x^2/2 - g) is positive and at most sqrt(2 pi)
        spec = fp.spike_spec(0.5, 10.0)
        pot = fp.spike_potential(spec)
        xs = np.linspace(-12, 12, 120001)
        integ = np.trapezoid(np.exp(-xs**2 / 2.0 - pot.value(xs)), xs)
        assert 0.0 < integ <= math.sqrt(2.0 * math.pi)


class TestQuartic:
    def test_constants(self):
        pot = fp.quartic_1d()
        assert pot.alpha == 1.0 and pot.smoothness == 4.0
        assert pot.value(np.array([1.0])) == 0.75
        assert np.all(pot.gradient(np.array([1.0])) == 2.0)

    def test_curvature_band_on_box(self):
        pot = fp.quartic_1d()
        rng = np.random.default_rng(4)
        for _ in range(30):
            x, y = rng.uniform(-1, 1, size=1), rng.uniform(-1, 1, size=1)
            if np.all(x == y):
                continue
            inner = float(np.dot(pot.gradient(x) - pot.gradient(y), x - y))
            d2 = float(np.dot(x - y, x - y))
            assert pot.alpha * d2 * (1 - 1e-12) <= inner <= pot.smoothness * d2 * (1 + 1e-12)


class TestMinimize:
    def test_quadratic_single_step(self):
        pot = fp.quadratic_potential(3, 2.0, center=[1.0, -1.0, 0.5])
        out = fp.minimize(pot, np.zeros(3), 1e-12)
        assert np.allclose(out, [1.0, -1.0, 0.5], atol=1e-12)

    def test_quartic_root(self):
        out = fp.minimize(fp.quartic_1d(), np.array([1.0]), 1e-10)
        assert abs(out[0]) <= 1e-10

    def test_short_circuit_at_optimum(self):
        pot = fp.quadratic_potential(2, 1.0, center=[3.0, 3.0])
        x0 = np.array([3.0, 3.0])
        out = fp.minimize(pot, x0, 1e-8)
        assert np.all(out == x0)

    def test_cap_exceeded_on_bad_metadata(self):
        # starting far outside the declared box makes the declared smoothness
        # wrong; fixed-step descent then diverges and must raise
        with pytest.raises(ConvergenceError):
            fp.minimize(fp.quartic_1d(), np.array([5.0]), 1e-10)

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            fp.minimize(fp.quartic_1d(), np.array([1.0]), 0.0)
