import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate
from scipy.special import roots_hermitenorm

import fplab as fp
from fplab.potentials import ScalarPotential
from oracles import (
    GapBoundError,
    simpson_gap_check,
    well_row_by_panels,
    well_trace_at_zero,
    well_trace_row,
    wide_grid_log_mass,
)
from fplab.cli import _GAP_SLACK, _gap_failure
from fplab.quadrature import (
    EvalGrid,
    GridError,
    NormalizationError,
    QuadratureError,
    _grid_normalized,
    _well_log_mass,
)

RULE = fp.gauss_hermite(128)


def gaussian_potential():
    """g = x^2/2, so exp(-g) smoothed by N(0,t) is N(0, 1+t) exactly."""
    return ScalarPotential(
        value=lambda x: np.asarray(x, float) ** 2 / 2.0,
        deriv1=lambda x: np.asarray(x, float),
        deriv2=lambda x: np.ones_like(np.asarray(x, float)),
    )


class TestGaussHermiteRule:
    @pytest.mark.parametrize("order", [64, 128, 256, 512])
    def test_invariants(self, order):
        rule = fp.gauss_hermite(order)
        assert abs(rule.weights.sum() - 1.0) <= 1e-12
        assert abs((rule.weights * rule.nodes**2).sum() - 1.0) <= 1e-10
        assert np.allclose(rule.nodes, -rule.nodes[::-1], atol=1e-12)

    def test_bad_order(self):
        # an order that is not a positive integer is refused, never truncated
        for order in (0, -2, 64.5, 64.0, True, "64"):
            with pytest.raises(ValueError, match="positive integer"):
                fp.gauss_hermite(order)
        assert fp.gauss_hermite(np.int64(3)).order == 3

    def test_polynomial_exactness(self):
        # E[x^6] = 15 for N(0,1)
        rule = fp.gauss_hermite(64)
        assert (rule.weights * rule.nodes**6).sum() == pytest.approx(15.0, rel=1e-12)

    @pytest.mark.parametrize("order", [2, 3, 33, 64, 65, 128, 256, 512])
    def test_matches_scipy(self, order):
        rule, ref = fp.gauss_hermite(order), _scipy_rule(order)
        assert rule.order == order and rule.nodes.shape == rule.weights.shape == (order,)
        assert np.max(np.abs(rule.nodes - ref.nodes)) <= 5e-14
        big = ref.weights > 1e-300
        assert np.max(np.abs(rule.weights[big] / ref.weights[big] - 1.0)) <= 5e-12
        assert np.all(rule.weights[~big] <= 1e-300)

    @pytest.mark.parametrize("order", [64, 65])
    def test_matches_40_digit_rule(self, order):
        # each nonnegative node polished by Newton steps at 40 digits, and its
        # Christoffel weight (n-1)! / (n He_{n-1}(x)^2) there
        rule = fp.gauss_hermite(order)
        half = rule.nodes >= 0.0
        with mp.workdps(40):
            for x0, w in zip(rule.nodes[half], rule.weights[half]):
                x = mp.mpf(float(x0))
                for _ in range(4):
                    he_prev, he = _hermite_e(order, x)
                    x -= he / (order * he_prev)
                he_prev, _ = _hermite_e(order, x)
                assert abs(x0 - x) <= 2e-14
                assert abs(w / (mp.factorial(order - 1) / (order * he_prev**2)) - 1) <= 5e-12

    def test_trace_rows_match_the_scipy_rule(self, monkeypatch):
        ts = [0.0, 0.05, 0.5]
        rows = fp.counterexample_trace(2, 2, ts, order=128, step=1e-3, threads=2).rows
        monkeypatch.setattr(fp.quadrature, "gauss_hermite", _scipy_rule)
        ref = fp.counterexample_trace(2, 2, ts, order=128, step=1e-3, threads=2).rows
        for r, q in zip(rows[1:], ref[1:]):
            assert r.fi == pytest.approx(q.fi, rel=1e-14, abs=0.0)
            assert r.kl == pytest.approx(q.kl, rel=1e-14, abs=0.0)


def _scipy_rule(order):
    """The rule from scipy's roots_hermitenorm, a reference for gauss_hermite."""
    nodes, weights = roots_hermitenorm(order)
    return fp.GaussHermiteRule(order=order, nodes=nodes, weights=weights / math.sqrt(2.0 * math.pi))


def _hermite_e(order, x):
    """(He_{n-1}(x), He_n(x)) from He_{k+1} = x He_k - k He_{k-1}."""
    prev, cur = 0, 1
    for k in range(order):
        prev, cur = cur, x * cur - k * prev
    return prev, cur


class TestEvalGrid:
    def test_construction(self):
        grid = EvalGrid(-10.0, 10.0, 1e-2)
        assert grid.points[0] == -10.0 and grid.points[-1] == 10.0
        assert (grid.points.size - 1) % 4 == 0
        assert grid.dx == pytest.approx(1e-2, rel=1e-3)

    def test_too_coarse(self):
        with pytest.raises(ValueError):
            EvalGrid(-1.0, 1.0, 0.5)

    def test_too_fine(self):
        # refused before any array is allocated
        with pytest.raises(ValueError, match="too fine"):
            EvalGrid(-1.0, 1.0, 2.0 / (fp.quadrature.MAX_GRID_STEPS + 1))
        with pytest.raises(ValueError, match="too fine"):
            EvalGrid(-1e300, 1e300, 1e-300)
        assert EvalGrid(-1.0, 1.0, 2.0 / fp.quadrature.MAX_GRID_STEPS).points.size == 2**20 + 1

    @pytest.mark.parametrize("make", [
        lambda: EvalGrid(-4.0, 4.0, 0.0101), lambda: fp.quadrature.TrapezoidGrid(-4.0, 4.0, 0.0103),
        lambda: fp.quadrature.well_grid(1e-6, 2.3, 1e-3, 2.0),
        lambda: fp.quadrature.well_grid(1e-3, 2.3, 1e-3, 2.0)],
        ids=["simpson", "trapezoid", "well-simpson", "well-trapezoid"])
    def test_points_wait_for_first_use(self, make):
        # the closed-form trace takes a grid's half as k dx from size and dx
        # and never asks for its points; asked, they are made once
        grid = make()
        assert type(grid) in (EvalGrid, fp.quadrature.TrapezoidGrid)
        assert "points" not in vars(grid)
        points = grid.points
        assert grid.points is points
        assert np.array_equal(points, np.linspace(grid.lo, grid.hi, grid.size))

    def test_coverage(self):
        grid = EvalGrid(-16.0, 16.0, 1e-2)
        assert grid.covers(0.0, 2.0)
        assert not grid.covers(0.0, 2.1)
        with pytest.raises(ValueError):
            grid.require_covers(10.0, 1.0)


def gaussian_pairs(n=25, seed=5):
    """Pairs spanning variance ratios in [0.1, 10] and mean offsets in [0, 3]."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        vq = rng.uniform(0.5, 2.0)
        ratio = 10.0 ** rng.uniform(-1.0, 1.0)
        m = rng.uniform(0.0, 3.0)
        pairs.append((m, vq * ratio, 0.0, vq))
    return pairs


def oracle_grid():
    return EvalGrid(-42.0, 42.0, 2e-3)


def gaussian_log_score(mean, var, x):
    """(log-density, score) of N(mean, var) at the points x."""
    return -0.5 * math.log(2.0 * math.pi * var) - (x - mean) ** 2 / (2.0 * var), -(x - mean) / var


def functionals(m, vp, mq, vq, grid):
    """(fi, kl) of N(m, vp) against N(mq, vq) through the grid functionals."""
    logrho, rho_score = gaussian_log_score(m, vp, grid.points)
    lognu, nu_score = gaussian_log_score(mq, vq, grid.points)
    return fp.fi_kl_functional(logrho, rho_score - nu_score, lognu, grid)[:2]


class TestFunctionalsAgainstClosedForms:
    def test_fi_and_kl_match_gaussian_closed_forms(self):
        grid = oracle_grid()
        for m, vp, mq, vq in gaussian_pairs():
            p = fp.IsoGaussian([m], vp)
            q = fp.IsoGaussian([mq], vq)
            fi, kl = functionals(m, vp, mq, vq, grid)
            assert fi.value == pytest.approx(fp.fisher_information(p, q), rel=1e-6, abs=1e-9)
            assert kl.value == pytest.approx(fp.kl_divergence(p, q), rel=1e-6, abs=1e-9)

    def test_identical_handles_vanish(self):
        fi, kl = functionals(0.5, 1.3, 0.5, 1.3, oracle_grid())
        assert fi.value == pytest.approx(0.0, abs=1e-9)
        assert kl.value == pytest.approx(0.0, abs=1e-9)

    def test_error_estimate_reported(self):
        res, _ = functionals(0.0, 2.0, 0.0, 1.0, oracle_grid())
        assert math.isfinite(res.error) and res.error >= 0.0

    def test_refinement_stability(self):
        grid = oracle_grid()
        fine = EvalGrid(grid.lo, grid.hi, grid.step / 2)
        for m, vp, mq, vq in gaussian_pairs(8, seed=6):
            fi_a, kl_a = functionals(m, vp, mq, vq, grid)
            fi_b, kl_b = functionals(m, vp, mq, vq, fine)
            assert fi_a.value == pytest.approx(fi_b.value, rel=1e-6, abs=1e-12)
            assert kl_a.value == pytest.approx(kl_b.value, rel=1e-6, abs=1e-12)

    def test_unnormalized_density_rejected(self):
        # rho's grid mass must be 1 either way; nu's may fall short of 1 but not pass it
        grid = oracle_grid()
        logrho, score = gaussian_log_score(0.0, 1.0, grid.points)
        zero = np.zeros_like(score)
        for shift in (0.1, -0.1):
            with pytest.raises(NormalizationError, match="rho integrates"):
                fp.fi_kl_functional(logrho + shift, zero, logrho, grid)
        with pytest.raises(NormalizationError, match="nu integrates"):
            fp.fi_kl_functional(logrho, zero, logrho + 0.1, grid)
        _, _, nu_mass = fp.fi_kl_functional(logrho, zero, logrho - 0.1, grid)
        assert nu_mass == pytest.approx(math.exp(-0.1), rel=1e-12)


class TestConvolvedLogdensity:
    def test_zero_time_is_exact(self):
        pot = fp.counterexample_potential(2, 2)
        xs = np.linspace(-5, 5, 11)
        logval, score = fp.convolved_logdensity(pot, 0.0, xs, RULE)
        assert np.allclose(logval, -pot.value(xs), atol=0)
        assert np.allclose(score, -pot.deriv1(xs), atol=0)

    @pytest.mark.parametrize("t", [0.1, 1.0, 50.0])
    def test_gaussian_potential_score_closed_form(self, t):
        xs = np.linspace(-6.0, 6.0, 41)
        _, score = fp.convolved_logdensity(gaussian_potential(), t, xs, RULE)
        assert np.max(np.abs(score - (-xs / (1.0 + t)))) <= 1e-8

    def test_even_potential_odd_score(self):
        pot = fp.counterexample_potential(2, 2)
        _, score = fp.convolved_logdensity(pot, 0.1, 0.0, RULE)
        assert score == pytest.approx(0.0, abs=1e-13)

    def test_scalar_input_returns_floats(self):
        logval, score = fp.convolved_logdensity(gaussian_potential(), 0.5, 1.0, RULE)
        assert isinstance(logval, float) and isinstance(score, float)

    def test_low_order_rule_rejected(self):
        with pytest.raises(ValueError):
            fp.convolved_logdensity(gaussian_potential(), 0.5, 1.0, fp.gauss_hermite(32))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            fp.convolved_logdensity(gaussian_potential(), -0.5, 1.0, RULE)

    def test_non_finite_potential_raises(self):
        bad = ScalarPotential(
            value=lambda x: np.full_like(np.asarray(x, float), -np.inf),
            deriv1=lambda x: np.zeros_like(np.asarray(x, float)),
            deriv2=lambda x: np.zeros_like(np.asarray(x, float)),
        )
        with pytest.raises(QuadratureError):
            fp.convolved_logdensity(bad, 0.5, np.array([0.0]), RULE)

    def test_against_adaptive_quadrature_oracle(self):
        # independent evaluation of the smoothed well density via mpmath
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 25
        M = L = 2

        def g_mp(y):
            if abs(y) <= L:
                return -M * y**2 / 2
            if y > L:
                return (y - L) ** 2 / 2 - M * L * (y - L) - M * L**2 / 2
            return (y + L) ** 2 / 2 + M * L * (y + L) - M * L**2 / 2

        def nu_t(x, t, moment):
            def kern(y):
                base = mp.e ** (-g_mp(y) - (x - y) ** 2 / (2 * t)) / mp.sqrt(2 * mp.pi * t)
                return base * (-(x - y) / t) if moment else base

            return mp.quad(kern, [-mp.inf, -L, L, mp.inf])

        pot = fp.counterexample_potential(2, 2)
        cases = [(0.1, 1.5, 1e-4, 2e-3), (1.0, 2.0, 1e-4, 1e-4), (5.0, -3.0, 1e-6, 1e-5)]
        for t, x, tol_logdiff, tol_score in cases:
            logval, score = fp.convolved_logdensity(pot, t, np.array([x, 0.0]), RULE)
            ref = nu_t(x, t, False)
            ref0 = nu_t(0.0, t, False)
            assert logval[0] - logval[1] == pytest.approx(
                float(mp.log(ref) - mp.log(ref0)), abs=tol_logdiff
            )
            assert score[0] == pytest.approx(float(nu_t(x, t, True) / ref), abs=tol_score)

    def test_handle_normalizes_on_grid(self):
        grid = EvalGrid(-24.0, 24.0, 2e-3)
        logval, _ = fp.convolved_logdensity(fp.counterexample_potential(2, 2), 0.3, grid.points, RULE)
        mass = integrate.simpson(np.exp(_grid_normalized(logval, grid)), dx=grid.dx)
        assert mass == pytest.approx(1.0, abs=1e-9)


def well_reference(m_big, halfwidth, t, x):
    """(log E_Z[exp(-g(x - sqrt(t) Z))], score) by 40-digit mpmath quadrature.

    On each of the well's three pieces g = c2 y^2 + c1 y + c0, so the
    integrand exp(-g(y) - (x - y)^2 / (2t)) is exp(a y^2 + b y + c) there.
    Where a < 0 the piece is cut to the finite interval around its vertex
    beyond which the integrand is 40 digits below its peak over all pieces:
    on finite intervals Gauss-Legendre reaches 40 digits in few nodes.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        M, L, t, x = mp.mpf(m_big), mp.mpf(halfwidth), mp.mpf(t), mp.mpf(x)
        c2, c1, c0 = mp.mpf(1) / 2, (M + 1) * L, (M + 1) * L**2 / 2  # g for y <= -L
        pieces = [(-mp.inf, -L, c2, c1, c0), (-L, L, -M / 2, 0, 0), (L, mp.inf, c2, -c1, c0)]
        # (lo, hi, c2, c1, a, b, c) with the exponent a y^2 + b y + c
        pieces = [(lo, hi, c2, c1, -c2 - 1 / (2 * t), x / t - c1, -c0 - x**2 / (2 * t))
                  for lo, hi, c2, c1, c0 in pieces]

        def exponent(y, a, b, c):
            return (a * y + b) * y + c

        def peak(lo, hi, a, b, c):  # the largest exponent on [lo, hi]
            ys = [y for y in (lo, hi) if mp.isfinite(y)]
            if a < 0 and lo < -b / (2 * a) < hi:
                ys.append(-b / (2 * a))
            return max(exponent(y, a, b, c) for y in ys)

        # mp.quad's tolerance is absolute: scale the integrand's peak to 1
        shift = max(peak(lo, hi, a, b, c) for lo, hi, _, _, a, b, c in pieces)
        z = 0
        for lo, hi, c2, c1, a, b, c in pieces:
            if a < 0:
                vertex = -b / (2 * a)
                drop = exponent(vertex, a, b, c) - shift + 40 * mp.log(10) + 10
                reach = mp.sqrt(max(drop, 0) / -a)
                lo, hi = max(lo, vertex - reach), min(hi, vertex + reach)
            if lo >= hi:  # the whole piece is 40 digits below the peak
                continue

            def mass_and_moment(y, c2=c2, c1=c1, a=a, b=b, c=c):
                # real part e^{...}, imaginary part -g' e^{...}
                w = mp.exp(exponent(y, a, b, c) - shift)
                return mp.mpc(w, -(2 * c2 * y + c1) * w)

            z += mp.quad(mass_and_moment, [lo, hi], method="gauss-legendre")
        return float(mp.log(z.real) + shift - mp.log(2 * mp.pi * t) / 2), float(z.imag / z.real)


def _near_inverse_m(m_big):
    t0 = 1.0 / m_big
    ulp = 2.0**-52
    return [t0] + [t0 * (1.0 + s * d) for d in (4 * ulp, 1e-9, 1e-6) for s in (-1.0, 1.0)]


class TestSmoothedWellClosedForm:
    @pytest.mark.parametrize("m_big, halfwidth, t", [
        (m, l, t) for m, l in ((2.0, 2.0), (3.0, 2.0), (2.5, 3.0))
        for t in [1e-3, 0.1, 1.0, 50.0] + _near_inverse_m(m)
    ])
    def test_against_mpmath_quadrature(self, m_big, halfwidth, t):
        # t = 1/M is where the well's exponent turns from concave to convex;
        # the closed form must not lose accuracy within ulps of it
        # -x is referenced on its own: the trace mirrors the density from the
        # nonnegative half of its grid, which needs it even and its score odd
        end = fp.quadrature.well_grid(t, halfwidth, 1e-3, m_big).hi
        xs = np.array([0.0, halfwidth, end, -halfwidth, -end])
        logval, score = fp.smoothed_well_logdensity(m_big, halfwidth, t, xs)
        ref = [well_reference(m_big, halfwidth, t, x) for x in xs]
        for j, (ref_log, ref_score) in enumerate(ref):
            ref_diff = ref_log - ref[0][0]
            assert abs(logval[j] - logval[0] - ref_diff) <= 1e-10 * max(1.0, abs(ref_diff))
            assert abs(score[j] - ref_score) <= 1e-10 * max(1.0, abs(ref_score))

    @pytest.mark.parametrize("m_big, halfwidth", [(2.0, 2.0), (3.0, 2.0), (2.5, 3.0)])
    def test_array_of_times_is_the_scalar_calls_bit_for_bit(self, m_big, halfwidth):
        # the cases above, t = 0 among them, in one call: each time's points
        # in a run, and every point a run of its own (the transpose)
        ts = np.array([0.0, 1e-3, 0.1, 1.0, 50.0] + _near_inverse_m(m_big))
        end = fp.quadrature.well_grid(50.0, halfwidth, 1e-3, m_big).hi
        xs = np.concatenate([np.linspace(-end, end, 401), [0.0, halfwidth, -halfwidth]])
        scalar = [fp.smoothed_well_logdensity(m_big, halfwidth, t, xs) for t in ts.tolist()]
        runs = fp.smoothed_well_logdensity(m_big, halfwidth, ts[:, None], xs)
        spread = fp.smoothed_well_logdensity(m_big, halfwidth, ts, xs[:, None])
        for k in range(2):  # logval, then score
            expected = np.stack([out[k] for out in scalar])
            assert runs[k].shape == spread[k].T.shape == expected.shape
            assert runs[k].tobytes() == expected.tobytes()
            assert np.ascontiguousarray(spread[k].T).tobytes() == expected.tobytes()

    def test_zero_time_is_the_potential_bit_for_bit(self):
        pot = fp.counterexample_potential(2, 2)
        xs = np.linspace(-25.0, 25.0, 2001)
        logval, score = fp.smoothed_well_logdensity(2, 2, 0.0, xs)
        gh_logval, gh_score = fp.convolved_logdensity(pot, 0.0, xs, RULE)
        assert np.array_equal(logval, gh_logval) and np.array_equal(score, gh_score)
        assert np.array_equal(logval, -pot.value(xs)) and np.array_equal(score, -pot.deriv1(xs))

    @pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
    def test_gauss_hermite_converges_to_it(self, t):
        # GH converges only algebraically across the kinks at +-L: doubling
        # the order twice must shrink its distance to the closed form
        xs = np.linspace(-6.0, 6.0, 25)
        logval, score = fp.smoothed_well_logdensity(2, 2, t, xs)
        pot = fp.counterexample_potential(2, 2)
        errs = []
        for order in (128, 512):
            gh_logval, gh_score = fp.convolved_logdensity(pot, t, xs, fp.gauss_hermite(order))
            errs.append(max(np.max(np.abs((gh_logval - gh_logval[12]) - (logval - logval[12]))),
                            np.max(np.abs(gh_score - score))))
        assert errs[1] < errs[0] <= 2e-3

    def test_scalar_input_and_validation(self):
        logval, score = fp.smoothed_well_logdensity(2, 2, 0.5, 1.0)
        assert isinstance(logval, float) and isinstance(score, float)
        with pytest.raises(ValueError):
            fp.smoothed_well_logdensity(2, 2, -0.5, 1.0)
        with pytest.raises(ValueError):
            fp.smoothed_well_logdensity(1.5, 2, 0.5, 1.0)
        with pytest.raises(ValueError):
            fp.smoothed_well_logdensity(2, 2, np.array([0.5, -0.5]), 1.0)


# frozen from the closed form via erf/erfc and confirmed by mpmath quadrature
FI0_WELL = 8.2848323307269073
KL0_WELL = 11.210462017876480


class TestCounterexampleAnchors:
    def test_fi0_against_truncated_moment_oracle(self):
        # (M+1)^2 (E[X^2 1{|X|<=L}] + L^2 P(|X|>L)) computed independently
        M = L = 2.0
        p_in = math.erf(L / math.sqrt(2.0))
        e2 = p_in - 2.0 * L * math.exp(-L * L / 2.0) / math.sqrt(2.0 * math.pi)
        oracle = (M + 1.0) ** 2 * (e2 + L * L * (1.0 - p_in))
        assert oracle == pytest.approx(FI0_WELL, abs=1e-12)

    def test_trace_anchors_and_shape(self):
        trace = fp.counterexample_trace(2, 2, [0.0, 0.05, 0.1])
        fi = trace.column("fi")
        assert fi[0] == pytest.approx(FI0_WELL, abs=1e-4)
        assert trace.rows[0].kl == pytest.approx(KL0_WELL, abs=1e-6)
        assert fi[1] > fi[0] and fi[2] > fi[0]
        kl = trace.column("kl")
        assert np.all(np.diff(kl) <= 1e-8)

    def test_fi_kl_functional_route_matches_anchor(self):
        grid = EvalGrid(-24.0, 24.0, 1e-3)
        pot = fp.counterexample_potential(2, 2)
        lognu, nu_score = fp.convolved_logdensity(pot, 0.0, grid.points, RULE)
        logrho, rho_score = gaussian_log_score(0.0, 1.0, grid.points)
        fi, kl, _ = fp.fi_kl_functional(logrho, rho_score - nu_score,
                                        _grid_normalized(lognu, grid), grid)
        assert fi.value == pytest.approx(FI0_WELL, abs=1e-4)
        assert kl.value == pytest.approx(KL0_WELL, abs=1e-6)

    def test_trace_requires_zero_start(self):
        with pytest.raises(ValueError):
            fp.counterexample_trace(2, 2, [0.1, 0.2])

    def test_rise_then_fall_sign_pattern(self):
        # fi climbs over an initial segment (peak near t ~ 0.35) and decays
        # afterwards: first differences start positive and end negative
        t_grid = fp.default_time_grid(1e-2, 10.0, 24)
        trace = fp.counterexample_trace(2, 2, t_grid)
        diffs = np.diff(trace.column("fi"))
        assert diffs[0] > 0.0 and diffs[-1] < 0.0
        peak = int(np.argmax(trace.column("fi")))
        assert 0 < peak < len(trace.rows) - 1
        assert np.all(diffs[peak:] < 0.0)


class TestInitialSlope:
    def quad_oracle(self, M, L):
        # -E[(-1+g'')^2] - 2 E[g'' (-X+g')^2] under N(0,1), by adaptive
        # quadrature with explicit breakpoints at the kinks
        def integrand(x):
            if abs(x) <= L:
                gpp, gp = -M, -M * x
            elif x > L:
                gpp, gp = 1.0, x - (M + 1) * L
            else:
                gpp, gp = 1.0, x + (M + 1) * L
            w = math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
            return w * (-((-1.0 + gpp) ** 2) - 2.0 * gpp * (-x + gp) ** 2)

        total = 0.0
        for a, b in [(-np.inf, -L), (-L, L), (L, np.inf)]:
            val, _ = integrate.quad(integrand, a, b, epsabs=1e-13, epsrel=1e-13)
            total += val
        return total

    def test_closed_form_matches_quadrature_oracle(self):
        for M, L in [(2.0, 2.0), (3.0, 2.0), (2.5, 3.0)]:
            oracle = self.quad_oracle(M, L)
            assert fp.counterexample_initial_slope(M, L) == pytest.approx(oracle, rel=1e-10)

    def test_reference_value(self):
        assert fp.counterexample_initial_slope(2, 2) == pytest.approx(14.7207746964, abs=1e-9)

    @pytest.mark.parametrize("m_big", [2.0, 2.5, 3.0, 4.0])
    @pytest.mark.parametrize("halfwidth", [2.0, 3.0])
    def test_exceeds_proof_lower_bound(self, m_big, halfwidth):
        slope = fp.counterexample_initial_slope(m_big, halfwidth)
        assert slope > max(0.0, (m_big - 2.0) * (m_big + 1.0) ** 2)

    def test_matches_trace_finite_difference(self):
        trace = fp.counterexample_trace(2, 2, [0.0, 0.005, 0.01])
        f0, f1, f2 = [r.fi for r in trace.rows]
        slope_fd = 2.0 * (f1 - f0) / 0.005 - (f2 - f0) / 0.01  # Richardson
        assert slope_fd == pytest.approx(fp.counterexample_initial_slope(2, 2), rel=1e-2)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            fp.counterexample_initial_slope(1.5, 2)


class TestPerturbedBound:
    def test_bound_attached_and_dominating(self):
        t_grid = [0.0, 0.05, 0.5, 2.0, 10.0]
        trace = fp.perturbed_bound_check(2, 2, t_grid)
        assert trace.rows[0].bound == pytest.approx(trace.rows[0].fi, rel=1e-12)
        for r in trace.rows:
            assert r.bound is not None and r.fi <= r.bound + 1e-6

    def test_violation_raises(self):
        # a fake tiny Lipschitz constant produces an envelope below the curve
        t_grid = [0.0, 0.05, 0.1]
        rows = fp.counterexample_trace(2, 2, t_grid).rows
        env = fp.HeatPerturbed(alpha=1.0, lip=1e-6)
        fi0 = rows[0].fi
        assert any(r.fi > env.factor(r.t) * fi0 + 1e-6 for r in rows)


def gap_reference(spec):
    """(r_inf, fi) of the spike construction at 50 digits: each linear piece
    of g integrated against phi in closed form, by mpmath's erfc in the tail
    where the piece sits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        w, K = mp.mpf(spec.width), spec.k_count
        root2 = mp.sqrt(2)
        z_in = fi_in = mp.mpf(0)
        xs = fp.quadrature.spike_pieces(spec)[0]
        for lo, hi in zip(xs[:-1], xs[1:]):
            lo, hi = mp.mpf(lo), mp.mpf(hi)
            mid = (lo + hi) / 2
            k = min(max(mp.nint(mid / (2 * w)), -K), K)
            s = -mp.sign(mid - 2 * w * k) / w  # g = c + s x on the piece
            c = 1 - abs(mid - 2 * w * k) / w - s * mid
            a, b = lo + s, hi + s
            if a >= 0:
                tail = (mp.erfc(a / root2) - mp.erfc(b / root2)) / 2
            else:
                tail = (mp.erfc(-b / root2) - mp.erfc(-a / root2)) / 2
            piece = mp.exp(-c + s * s / 2) * tail
            z_in += piece
            fi_in += piece * s * s
        z = 1 - (mp.erf(mp.mpf(spec.a) / root2) - z_in)
        return -mp.log(z), fi_in / z


class TestGapCheck:
    @pytest.mark.parametrize("eps,floor", [(0.5, 10.0), (0.1, 100.0)])
    def test_certified_cases(self, eps, floor):
        spec = fp.spike_spec(eps, floor)
        grid = EvalGrid(-(spec.a + 12.0), spec.a + 12.0, 2e-4)
        r_inf, fi = fp.gap_check(spec, grid)
        assert r_inf <= eps + 1e-6
        assert fi >= floor - 1e-6
        assert _gap_failure(spec, r_inf, fi) is None

    @pytest.mark.parametrize("eps,floor", [
        (0.5, 10.0), (0.1, 100.0), (1e-3, 10.0), (1e-8, 2.0), (0.999999, 1.5), (0.5, 1e4),
        (0.9, 1e6), (1.0 - 1e-9, 1.5),
    ])
    def test_against_mpmath(self, eps, floor):
        spec = fp.spike_spec(eps, floor)
        r_inf, fi = fp.gap_check(spec, EvalGrid(-(spec.a + 12.0), spec.a + 12.0, 0.05))
        ref_r, ref_fi = gap_reference(spec)
        assert abs((r_inf - ref_r) / ref_r) <= 1e-13
        assert abs((fi - ref_fi) / ref_fi) <= 1e-13
        # the construction clears both bounds by more than the check's slack
        assert (eps - ref_r) / eps > _GAP_SLACK
        assert (ref_fi - floor) / floor > _GAP_SLACK

    def test_slack_is_relative(self):
        # r_inf = 3.7e-9 is within any absolute slack of 1e-6 of eps = 1e-9
        spec = dataclasses.replace(fp.spike_spec(1e-8, 2.0), eps=1e-9)
        grid = EvalGrid(-(spec.a + 12.0), spec.a + 12.0, 0.05)
        r_inf, fi = fp.gap_check(spec, grid)
        assert r_inf == pytest.approx(3.68e-9, rel=1e-2)
        assert _gap_failure(spec, r_inf, fi) == f"r_inf={r_inf!r} exceeds eps=1e-09"
        # an r_inf four ulp above its eps passes
        close = dataclasses.replace(spec, eps=r_inf * (1.0 - 2.0**-50))
        assert fp.gap_check(close, grid) == (r_inf, fi)
        assert _gap_failure(close, r_inf, fi) is None
        # so does an fi four ulp below its floor; one 1.4e-14 below it fails
        assert _gap_failure(dataclasses.replace(spec, eps=1.0, fi_floor=fi * (1.0 + 2.0**-50)),
                            r_inf, fi) is None
        assert _gap_failure(dataclasses.replace(spec, eps=1.0, fi_floor=fi * (1.0 + 2.0**-46)),
                            r_inf, fi) == f"fi={fi!r} below floor={fi * (1.0 + 2.0**-46)}"

    def test_r_inf_identity(self):
        # sup of log(rho/nu) is attained where the perturbation vanishes, so
        # r_inf is -log Z: on the Simpson oracle, -log of its grid normalizer
        # exactly; here, -log of the normalizer that adaptive quadrature with
        # explicit kink breakpoints gives
        spec = fp.spike_spec(0.5, 10.0)
        grid = EvalGrid(-(spec.a + 12.0), spec.a + 12.0, 2e-4)
        pot = fp.spike_potential(spec)
        r_oracle, _ = simpson_gap_check(spec, grid)
        weights = np.exp(-grid.points**2 / 2.0 - pot.value(grid.points)) / math.sqrt(2 * math.pi)
        z_grid = integrate.simpson(weights, dx=grid.dx)
        assert r_oracle == pytest.approx(-math.log(z_grid), abs=1e-13)

        def integrand(x):
            return math.exp(-x * x / 2.0 - pot.value(float(x))) / math.sqrt(2.0 * math.pi)

        kinks = [k * spec.width for k in range(-2 * spec.k_count - 1, 2 * spec.k_count + 2)]
        z, _ = integrate.quad(integrand, -spec.a - 12.0, spec.a + 12.0, limit=400, points=kinks,
                              epsabs=0.0, epsrel=1e-13)
        r_inf, _ = fp.gap_check(spec, grid)
        assert r_inf == pytest.approx(-math.log(z), rel=1e-12)

    def test_simpson_oracle_agrees(self):
        # Simpson falls to O(h) at the kinks, which are not grid nodes: the
        # oracle sits about 1e-4 from the exact fi and 4e-7 from r_inf
        spec = fp.spike_spec(0.5, 10.0)
        grid = EvalGrid(-(spec.a + 12.0), spec.a + 12.0, 2e-4)
        r_inf, fi = fp.gap_check(spec, grid)
        r_oracle, fi_oracle = simpson_gap_check(spec, grid)
        assert r_oracle == pytest.approx(r_inf, rel=1e-6)
        assert fi_oracle == pytest.approx(fi, rel=1e-3)

    def test_independent_of_grid(self):
        spec = fp.spike_spec(0.5, 10.0)
        coarse = fp.gap_check(spec, EvalGrid(-(spec.a + 12.0), spec.a + 12.0, 0.05))
        fine = fp.gap_check(spec, EvalGrid(-(spec.a + 20.0), spec.a + 20.0, 1e-4))
        assert coarse == fine

    def test_grid_coverage_required(self):
        spec = fp.spike_spec(0.5, 10.0)
        for check in (fp.gap_check, simpson_gap_check):
            with pytest.raises(ValueError):
                check(spec, EvalGrid(-4.0, 4.0, 1e-3))

    def test_inconsistent_spec_raises(self):
        good = fp.spike_spec(0.5, 10.0)
        # halving the spike height scale kills the Fisher information floor
        doctored = fp.SpikeSpec(
            eps=good.eps, fi_floor=good.fi_floor, a=good.a,
            m_big=good.m_big, k_count=good.k_count, width=good.width * 4.0,
        )
        grid = EvalGrid(-(good.a + 12.0), good.a + 12.0, 2e-4)
        r_inf, fi = fp.gap_check(doctored, grid)
        assert _gap_failure(doctored, r_inf, fi) == f"fi={fi!r} below floor=10.0"
        with pytest.raises(GapBoundError, match="below floor=10.0"):
            simpson_gap_check(doctored, grid)

    def test_mills_ratio_against_mpmath(self):
        # Phi-bar(z) / phi(z) on [-8, 40], 3 and 3 +- 1 ulp among them,
        # against 40-digit values at the same floats
        mp = pytest.importorskip("mpmath")
        z = np.concatenate((np.linspace(-8.0, 40.0, 481),
                            np.nextafter(3.0, [-np.inf, 3.0, np.inf])))
        with mp.workdps(40):
            ref = np.array([float(mp.ncdf(-mp.mpf(v)) / mp.npdf(mp.mpf(v))) for v in z.tolist()])
        ratio = fp.quadrature._mills_ratio(z)
        assert np.max(np.abs(ratio - ref) / ref) <= 2e-15

    def test_pieces_of_a_consistent_spec(self):
        spec = fp.spike_spec(0.5, 10.0)
        x, g = fp.quadrature.spike_pieces(spec)
        assert x.size == 2 * (2 * spec.k_count + 1) + 1
        np.testing.assert_allclose(g, fp.spike_potential(spec).value(x), rtol=0.0, atol=1e-14)


class TestHeatDpiViaHandles:
    def test_log_concave_target_monotone_fi(self):
        # nu0 = N(0,4) is log-concave; FI rows along the heat flow must be
        # non-increasing (grid functionals, not the closed form)
        ts = [0.0, 0.3, 1.0, 3.0]
        vals = []
        for t in ts:
            grid = EvalGrid(-50.0, 50.0, 4e-3)
            fi, _ = functionals(1.0, 1.0 + t, 0.0, 4.0 + t, grid)
            vals.append(fi.value)
        assert all(b <= a * (1 + 1e-9) for a, b in zip(vals, vals[1:]))


class TestTraceRefinement:
    def test_order_doubling_and_step_halving(self):
        sub = [0.0, 0.05, 0.5]
        a = fp.counterexample_trace(2, 2, sub, order=128, step=1e-3, threads=2)
        b = fp.counterexample_trace(2, 2, sub, order=256, step=5e-4, threads=2)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.fi == pytest.approx(rb.fi, rel=1e-6)
            assert ra.kl == pytest.approx(rb.kl, rel=1e-6)


def _well_kl_at_zero(m_big, halfwidth):
    """KL(N(0,1) || exp(-g)/Z) for the concave well g, by adaptive quadrature
    over the real line: exp(-g) holds nearly all its mass around +-(M+1)L."""
    g = fp.counterexample_potential(m_big, halfwidth)
    vertex = (m_big + 1.0) * halfwidth
    top = -g.value(vertex)
    mass = 2.0 * (integrate.quad(lambda x: math.exp(-g.value(x) - top), 0.0, halfwidth)[0]
                  + integrate.quad(lambda x: math.exp(-g.value(x) - top), halfwidth,
                                   vertex + 40.0, points=[vertex])[0])

    def integrand(x):  # rho (log rho + g)
        log_rho = -0.5 * x * x - 0.5 * math.log(2.0 * math.pi)
        return math.exp(log_rho) * (log_rho + g.value(x))

    cross = integrate.quad(integrand, -40.0, 40.0, points=[-halfwidth, halfwidth], limit=200)[0]
    return cross + math.log(mass) + top


@pytest.mark.parametrize("m_big, halfwidth", [(6.0, 2.0), (10.0, 2.0), (4.0, 3.0)])
def test_well_trace_kl_counts_the_mass_at_the_outer_vertices(m_big, halfwidth):
    # a grid that stops short of +-(M+1)L and normalizes the well density on
    # it misses the mass there (at M = 10, L = 2 the KL was 1.3% low).  The
    # trace's t = 0 row is in closed form; the oracle's Simpson row is on a
    # grid that reaches past +-(M+1)L
    kl = _well_kl_at_zero(m_big, halfwidth)
    (row,) = fp.counterexample_trace(m_big, halfwidth, [0.0]).rows
    assert row.kl == pytest.approx(kl, rel=1e-10)
    assert well_trace_row(m_big, halfwidth, 0.0).kl == pytest.approx(kl, rel=1e-10)


_SIMPSON_ZERO_PAIRS = [
    (2.0, 2.0), (3.0, 2.0), (2.5, 3.0), (2.0, 2.3), (10.0, 2.0), (6.0, 2.0), (4.0, 3.0)]


@pytest.mark.parametrize("m_big, halfwidth", _SIMPSON_ZERO_PAIRS + [
    (2.0, 20.0), (50.0, 2.0), (1e8, 2.0), (2.0, 1e5), (1e150, 1e3)])
def test_well_trace_at_zero_matches_its_closed_form(m_big, halfwidth):
    # the trace's t = 0 row is the closed form in double precision; 50-digit
    # closed forms of FI and KL (Dawson's function in Z) hold it to the
    # rounding bound it reports as its error estimates, out to wells whose
    # grids would pass MAX_GRID_STEPS
    (row,) = fp.counterexample_trace(m_big, halfwidth, [0.0]).rows
    fi, kl = well_trace_at_zero(m_big, halfwidth)
    assert (row.rule, row.points, row.smoothed_points) == ("closed-form", 0, 0)
    assert row.fi_err == 1e-15 * row.fi and row.kl_err == 1e-15 * row.kl
    assert abs(row.fi - fi) <= row.fi_err
    assert abs(row.kl - kl) <= row.kl_err


_README_PAIRS = [(2.0, 2.0), (3.0, 2.0), (2.5, 3.0), (2.0, 2.3), (10.0, 2.0), (2.0, 20.0)]


@pytest.mark.parametrize("m_big, halfwidth", _README_PAIRS)
@pytest.mark.parametrize("t", [1e-3, 1.0, 50.0])
def test_well_log_mass_is_the_wide_grid_mass(m_big, halfwidth, t):
    # smoothing conserves mass: the closed-form log Z that normalizes every
    # row is the smoothed well's log mass on a grid that holds all of it
    log_z = _well_log_mass(m_big, halfwidth)
    assert abs(log_z - wide_grid_log_mass(m_big, halfwidth, t)) <= 1e-14 * abs(log_z)


def test_underestimated_log_mass_is_rejected():
    # nu divided by a mass e^0.1 too small integrates to more than 1 on any
    # grid that holds nearly all of it, which fi_kl_functional refuses
    grid = fp.quadrature.well_grid(1.0, 2.0, 1e-3, 2.0)
    lognu, nu_score = fp.smoothed_well_logdensity(2.0, 2.0, 1.0, grid.points)
    logrho = -0.25 * grid.points**2 - 0.5 * math.log(4.0 * math.pi)
    score_diff = -grid.points / 2.0 - nu_score
    fp.fi_kl_functional(logrho, score_diff, lognu - _well_log_mass(2.0, 2.0), grid)
    with pytest.raises(NormalizationError):
        fp.fi_kl_functional(logrho, score_diff, lognu - (_well_log_mass(2.0, 2.0) - 0.1), grid)


def test_t0_closed_form_refuses_what_leaves_the_float_range():
    for m_big, halfwidth in ((1e300, 2.0), (2.0, 1e300), (2.0, 1e155)):
        with pytest.raises(QuadratureError, match="leaves the float range"):
            fp.counterexample_trace(m_big, halfwidth, [0.0])


@pytest.mark.parametrize("m_big, halfwidth", _SIMPSON_ZERO_PAIRS)
def test_simpson_row_at_zero_matches_the_closed_form(m_big, halfwidth):
    # the Simpson row that the closed form replaced, on well_grid's kink-aligned
    # grid and the shared functionals, sits within 2e-14 relative of it
    row = well_trace_row(m_big, halfwidth, 0.0)
    fi, kl = well_trace_at_zero(m_big, halfwidth)
    assert row.rule == "simpson"
    assert abs(row.fi - fi) <= 2e-14 * fi
    assert abs(row.kl - kl) <= 2e-14 * kl


_DEFAULT_TIMES = fp.default_time_grid().tolist()


@pytest.mark.parametrize("m_big, halfwidth, ts, step", [
    (2.0, 2.0, _DEFAULT_TIMES, 1e-3), (10.0, 2.0, _DEFAULT_TIMES, 1e-3),
    (2.0, 20.0, _DEFAULT_TIMES, 1e-3),
    # Simpson rows below t = 1.6e-5, and rows around t = 1/M, where the well
    # piece's vertex leaves the interval
    (2.0, 2.0, [0.0, 1e-7, 1e-6, 1e-3, 0.5 * (1.0 - 1e-9), 0.5, 50.0], 1e-3),
    # at a coarse step Simpson and trapezoid rows share batches, and the
    # Simpson rows refine six to nine times
    (2.0, 2.0, [0.0, 1e-7, 1e-6, 1e-5, 1e-3, 0.1], 0.05),
    # Simpson rows that meet ROW_TOL on their first grid, whose middle point
    # has an odd index on the coarse grid (m/2 odd)
    (2.0, 2.25, [0.0, 1e-300, 1e-20, 1e-12], 1e-3),
], ids=["2.0-2.0", "10.0-2.0", "2.0-20.0", "2.0-2.0-simpson-rows", "2.0-2.0-mixed-batches",
        "2.0-2.25-first-grid-simpson"])
def test_batched_trace_is_the_per_row_evaluation_bit_for_bit(m_big, halfwidth, ts, step):
    # the trace evaluates batches of rows in one smoothed-density call, and a
    # halved grid only at its new midpoints; at (10, 2) and (2, 20) rows
    # refine, and some batches hold a single row
    rows = fp.counterexample_trace(m_big, halfwidth, ts, step=step).rows
    assert len(rows) == len(ts)
    for r in rows[1:]:
        ref = well_trace_row(m_big, halfwidth, r.t, step)
        assert [x.hex() for x in (r.fi, r.kl, r.fi_err, r.kl_err, r.nu_mass)] == \
            [x.hex() for x in (ref.fi, ref.kl, ref.fi_err, ref.kl_err, ref.nu_mass)], r.t
        assert (r.points, r.smoothed_points, r.rule) == (ref.points, ref.smoothed_points, ref.rule)


def test_default_trace_forms_its_rows_as_arrays(monkeypatch):
    # two smoothed-density calls for the 60 rows with t > 0 (8,160 and 4,898
    # half-grid points, the second holding the rows that refine), and no row
    # through the full-grid functional, which only the Gauss-Hermite route
    # takes
    calls = {"smoothed_well_logdensity": 0, "fi_kl_functional": 0, "_grid_row": 0}
    for name in calls:
        fn = getattr(fp.quadrature, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(fp.quadrature, name, counted)
    rows = fp.counterexample_trace(2, 2, fp.default_time_grid()).rows
    assert calls == {"smoothed_well_logdensity": 2, "fi_kl_functional": 0, "_grid_row": 0}
    assert sum(r.smoothed_points for r in rows) == 8160 + 4898


@pytest.mark.parametrize("m_big, halfwidth, evaluations, from_well_grid", [
    (2.0, 2.0, 13058, 18028), (3.0, 2.0, 14052, 18028), (2.5, 3.0, 16182, 20016),
    (2.0, 2.3, 13200, 18028), (10.0, 2.0, 32938, 33932), (2.0, 20.0, 44808, 49268)])
def test_default_trace_evaluations(m_big, halfwidth, evaluations, from_well_grid):
    # the trapezoid rows start one halving below well_grid's grids, whose
    # first halving is that grid, so no README pair evaluates the smoothed
    # density at more points than when every row started at well_grid's grid
    rows = fp.counterexample_trace(m_big, halfwidth, fp.default_time_grid()).rows
    assert all(r.converged() for r in rows)
    assert sum(r.smoothed_points for r in rows) == evaluations <= from_well_grid


def test_gauss_hermite_route_is_bit_for_bit():
    # the oracle route (_smoothing_grid, Simpson fi/kl functionals) that
    # bench/make_reference.py runs; any change to the shared functionals or
    # to the rule moves these hex digits
    rows = fp.counterexample_trace(2, 2, [0.0, 0.05, 0.5], order=64, step=4e-3).rows
    assert [(r.fi.hex(), r.kl.hex()) for r in rows] == [
        ("0x1.091d5511de719p+3", "0x1.66bc1ad776daep+3"),
        ("0x1.2074fd6f05837p+3", "0x1.5fd04ac023146p+3"),
        ("0x1.687a65a9b9b57p+3", "0x1.10ff2a95c41e3p+3"),  # scipy's rule: ...b55p+3, ...1e4p+3
    ]
    assert {r.rule for r in rows} == {"simpson"}


def _parent_rule_grid(t, halfwidth, step):
    """The step * sqrt(1+t) grid that the Gauss-Hermite route keeps."""
    half = max(20.0, 8.5 * math.sqrt(1.0 + t) + halfwidth + 10.0)
    return EvalGrid(-half, half, step * math.sqrt(1.0 + t))


class TestWellGrid:
    @pytest.mark.parametrize("step", [1e-3, 4e-3])
    @pytest.mark.parametrize("halfwidth", [2.0, 2.3, 3.0])
    @pytest.mark.parametrize("t", [0.0, 1e-6, 1e-5])
    def test_kinks_on_panel_boundaries(self, t, halfwidth, step):
        # a node index that is 0 mod 4 starts a coarse Simpson panel, so
        # neither the fine nor the coarse rule straddles +-L
        grid = fp.quadrature.well_grid(t, halfwidth, step, 2.0)
        assert grid.rule == "simpson" and (grid.points.size - 1) % 4 == 0
        # symmetric about 0, up to rounding: the trace mirrors its half
        assert np.max(np.abs(grid.points + grid.points[::-1])) <= 1e-13 * grid.hi
        for kink in (-halfwidth, halfwidth):
            i = int(np.argmin(np.abs(grid.points - kink)))
            assert abs(grid.points[i] - kink) <= 1e-12 and i % 4 == 0
        grid.require_covers(0.0, math.sqrt(1.0 + t))

    def test_zero_time_grid_is_the_parent_rule(self):
        # where step divides L the kink-aligned grid is the plain step grid,
        # reaching rho_0's 8.5 sd like the trapezoid rows
        for halfwidth in (2.0, 3.0):
            ours = fp.quadrature.well_grid(0.0, halfwidth, 1e-3, 2.0).points
            assert np.array_equal(ours, EvalGrid(-8.5, 8.5, 1e-3).points)

    @pytest.mark.parametrize("t", [0.0, 1e-6, 1e-5])
    def test_spacing_follows_the_rule(self, t):
        # the Simpson rows take step, shrunk to put the kinks on nodes (by
        # less than 2x), so halving step halves it
        for step in (1e-3, 2e-3, 4e-3):
            dx = fp.quadrature.well_grid(t, 2.3, step, 2.0).dx
            assert 0.5 * step < dx <= step

    def test_point_count_stays_bounded_at_late_times(self):
        # past sqrt(t) >> L the spacing keeps growing with the grid's width
        for t in (1e4, 1e8, 1e12):
            assert fp.quadrature.well_grid(t, 2.0, 1e-3, 2.0).points.size <= 2000

    def test_trace_names_the_row_without_a_grid(self):
        # at step 0.3 the Simpson grid of t = 1e-6 has fewer than 200 steps; the
        # later rows' trapezoid spacing is capped at width / 200, so none of
        # them is refused, and the t = 0 row takes no grid
        with pytest.raises(GridError, match="no grid at t=1e-06: grid too coarse") as info:
            fp.counterexample_trace(2, 2, [0.0, 1e-6, 31.6, 5623.41], step=0.3)
        assert info.value.t == 1e-6
        assert isinstance(info.value.__cause__, ValueError)
        rows = fp.counterexample_trace(2, 2, [0.0, 1e-6, 31.6, 5623.41], step=0.011).rows
        assert [r.rule for r in rows] == ["closed-form", "simpson", "trapezoid", "trapezoid"]

    def test_default_trace_point_budget(self):
        total = sum(fp.quadrature.well_grid(t, 2.0, 1e-3, 2.0).points.size
                    for t in fp.default_time_grid())
        assert total <= 300_000

    def test_gauss_hermite_route_keeps_the_parent_rule(self):
        ts = [0.0, 0.05, 0.5]
        trace = fp.counterexample_trace(2, 2.3, ts, order=64, step=4e-3, threads=2)
        assert [r.points for r in trace.rows] == [
            _parent_rule_grid(t, 2.3, 4e-3).points.size for t in ts]
        for t in ts:
            assert np.array_equal(fp.quadrature._smoothing_grid(t, 2.3, 4e-3, 2.0).points,
                                  _parent_rule_grid(t, 2.3, 4e-3).points)

    def test_matches_an_eighth_step_reference(self):
        # t where the smoothed kink is sharp (t < 1e-3), at the ladder's
        # start, at the concave/convex switch t = 1/M, and late.  Sharp-kink
        # rows carry the O(h^2) error of a kink narrower than the spacing
        # until they refine it away; the rest are analytic between nodes
        for m_big, halfwidth in ((2.0, 2.0), (3.0, 2.0), (2.5, 3.0), (2.0, 2.3)):
            ts = sorted([0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 3e-3, 1e-2, 0.1, 1.0 / m_big,
                         1.0, 10.0, 50.0])
            a = fp.counterexample_trace(m_big, halfwidth, ts)
            b = fp.counterexample_trace(m_big, halfwidth, ts, step=1e-3 / 8)
            for ra, rb in zip(a.rows, b.rows):
                assert abs(ra.fi - rb.fi) <= 1e-13 * rb.fi, (m_big, halfwidth, ra.t)
                assert abs(ra.kl - rb.kl) <= 1e-13 * rb.kl, (m_big, halfwidth, ra.t)

    @pytest.mark.parametrize("m_big, halfwidth", [(10.0, 2.0), (2.0, 20.0)])
    def test_steep_wells_match_a_quarter_step_reference(self, m_big, halfwidth):
        # past t = 1/M the smoothed score swings by +-L/t over a width of
        # about t/L, which the first grid's spacing does not follow: on it
        # alone fi was off by 2.9e-7 at (10, 2), t = 0.1414, and by 4.5e-4 at
        # (2, 20), t = 0.6131.  A quarter step, since at L = 20 an
        # eighth-step Simpson grid for t = 0 has more than MAX_GRID_STEPS steps
        ts = [0.0, *fp.default_time_grid()[[28, 36]]]
        assert ts[1:] == [pytest.approx(0.1414, abs=1e-4), pytest.approx(0.6131, abs=1e-4)]
        a = fp.counterexample_trace(m_big, halfwidth, ts)
        b = fp.counterexample_trace(m_big, halfwidth, ts, step=1e-3 / 4)
        for ra, rb in zip(a.rows, b.rows):
            assert abs(ra.fi - rb.fi) <= 1e-13 * rb.fi, ra.t
            assert abs(ra.kl - rb.kl) <= 1e-13 * rb.kl, ra.t
            assert ra.converged(), ra.t

    @pytest.mark.parametrize("m_big, t", [
        (2.0, fp.default_time_grid(1e-10)[3]), (2.0, fp.default_time_grid(1e-10)[6]),
        (10.0, fp.default_time_grid(1e-10)[3]), (200.0, 1e-8)])
    def test_sharp_kink_rows_match_gauss_legendre_panels(self, m_big, t):
        # kinks of width sqrt(t) = 1.6e-5 to 1e-4 against a spacing of 1e-3:
        # Simpson converges only algebraically here, and these rows meet
        # ROW_TOL within MAX_GRID_STEPS only on grids that stop at rho_t's
        # 8.5 sd.  Panels that break at the smoothed kink are the reference
        ref = well_row_by_panels(m_big, 2.0, t, order=30, width=0.125)
        coarse = well_row_by_panels(m_big, 2.0, t)
        for value, reference in zip(coarse, ref):
            assert abs(value - reference) <= 1e-14 * reference
        row = fp.counterexample_trace(m_big, 2.0, [0.0, t]).rows[1]
        assert row.rule == "simpson" and row.converged()
        assert abs(row.fi - ref[0]) <= max(row.fi_err, fp.quadrature.ROW_TOL * ref[0])
        assert abs(row.kl - ref[1]) <= max(row.kl_err, fp.quadrature.ROW_TOL * ref[1])


class TestTrapezoidGrid:
    @pytest.mark.parametrize("t", [1.6e-5, 1e-3, 0.5, 50.0, 1e6])
    @pytest.mark.parametrize("step", [1e-3, 4e-3, 1.1e-2])
    def test_spacing_follows_the_rule_up_to_the_cap(self, t, step):
        grid = fp.quadrature.well_grid(t, 2.3, step, 2.0)
        assert grid.rule == "trapezoid"
        # symmetric about 0 with a node there, up to rounding: the trace mirrors its half
        assert (grid.points.size - 1) % 4 == 0
        assert np.max(np.abs(grid.points + grid.points[::-1])) <= 1e-13 * grid.hi
        grid.require_covers(0.0, math.sqrt(1.0 + t))
        # at most sqrt(t)/2, the width over which smoothing rounds the kinks off
        h = min(step * min(30.0 * math.sqrt(1.0 + t), 500.0 * math.sqrt(t)), 0.5 * math.sqrt(t))
        steps = (grid.hi - grid.lo) / grid.dx
        assert steps >= 200 - 1e-9
        if (grid.hi - grid.lo) / h > 204:  # below the cap: h rounded to whole steps
            assert h / (1.0 + 4.0 / 200) <= grid.dx <= h * (1.0 + 0.5 / 200)

    def test_default_trace_points_per_rule(self):
        # the t = 0 row is in closed form; the Simpson row it replaced, on
        # the grid reaching rho_0's 8.5 sd, has 17,001.  The trapezoid grids reach rho_t's 8.5 sd and no further,
        # and most rows meet ROW_TOL one halving below well_grid's grids,
        # which hold 35,996 points in all
        rows = fp.counterexample_trace(2, 2, fp.default_time_grid()).rows
        closed = [r.points for r in rows if r.rule == "closed-form"]
        trapezoid = [r.points for r in rows if r.rule == "trapezoid"]
        assert closed == [0] and len(trapezoid) == 60 and sum(trapezoid) == 26056
        assert well_trace_row(2, 2, 0.0).points == 17001

    @pytest.mark.parametrize("step", [1e-3, 4e-3, 8e-3])
    def test_coarse_steps_resolve_the_smoothed_kink(self, step):
        # for 1e-3 <= t <= 1e-2 a spacing of 500 step sqrt(t) would outgrow
        # the smoothed kink's width sqrt(t) past the default step; capped at
        # sqrt(t)/2 these rows stay at the eighth-step reference.  At the
        # default step most rows start at twice well_grid's spacing.  From
        # t = 0.3 on the rows start at or near the 200-step floor, too wide
        # at a coarse step, and halve it until their estimates meet ROW_TOL
        ts = [0.0, 1e-3, 3e-3, 1e-2] + [t for t in fp.default_time_grid().tolist() if t > 0.3]
        for m_big, halfwidth in ((2.0, 2.0), (3.0, 2.0), (2.5, 3.0), (2.0, 2.3)):
            a = fp.counterexample_trace(m_big, halfwidth, ts, step=step)
            b = fp.counterexample_trace(m_big, halfwidth, ts, step=step / 8)
            for ra, rb in zip(a.rows[1:], b.rows[1:]):
                assert abs(ra.fi - rb.fi) <= 1e-13 * rb.fi, (m_big, halfwidth, ra.t)
                assert abs(ra.kl - rb.kl) <= 1e-13 * rb.kl, (m_big, halfwidth, ra.t)


def _full_grid_row(m_big, halfwidth, t, points):
    """(fi, kl, sizes, errors) of a closed-form trace row whose last grid has
    ``points`` points, with the smoothed well evaluated at every point of it:
    the oracle of the trace's half-grid weights.  ``sizes`` are the point
    counts of the row's grids, from the trace's first (``well_grid``'s, at
    twice its spacing for a trapezoid grid of 2m steps, m a multiple of 4
    and at least MIN_GRID_STEPS) halved down to that one, and ``errors`` the
    grid's estimates of fi's and kl's errors."""
    grid = fp.quadrature.well_grid(t, halfwidth, 1e-3, m_big)
    m = (grid.size - 1) // 2
    if grid.rule == "trapezoid" and m % 4 == 0 and m >= fp.quadrature.MIN_GRID_STEPS:
        grid = type(grid)(grid.lo, grid.hi, 2.0 * grid.dx)
        assert grid.size == m + 1
    sizes = [grid.points.size]
    while grid.points.size < points:
        grid = type(grid)(grid.lo, grid.hi, grid.dx / 2)
        sizes.append(grid.points.size)
    pts = grid.points
    assert pts.size == points
    lognu, nu_score = fp.smoothed_well_logdensity(m_big, halfwidth, t, pts)
    v = 1.0 + t
    logrho = -0.5 * math.log(2.0 * math.pi * v) - pts**2 / (2.0 * v)
    fi, kl, _ = fp.fi_kl_functional(logrho, -pts / v - nu_score,
                                    lognu - _well_log_mass(m_big, halfwidth), grid)
    return fi.value, kl.value, sizes, (fi.error, kl.error)


class TestMirroredTrace:
    # at (2, 2.25) the t = 0 row's Simpson grid has its middle point at an odd
    # index of the coarse grid
    @pytest.mark.parametrize("m_big, halfwidth",
                             [(2.0, 2.0), (3.0, 2.0), (2.5, 3.0), (2.0, 2.3), (2.0, 2.25)])
    def test_matches_full_grid_evaluation(self, m_big, halfwidth):
        # t = 1/M and its neighbours take the well piece's series path
        # t = 0 is the oracle's Simpson row: the trace's is in closed form
        t0 = 1.0 / m_big
        ts = sorted([0.0, 1e-7, 1e-3, t0 * (1.0 - 1e-9), t0, t0 * (1.0 + 1e-9), 50.0])
        rows = fp.counterexample_trace(m_big, halfwidth, ts).rows
        for r in (well_trace_row(m_big, halfwidth, 0.0),) + rows[1:]:
            fi, kl, sizes, (fi_err, kl_err) = _full_grid_row(m_big, halfwidth, r.t, r.points)
            assert abs(r.fi - fi) <= 1e-13 * fi, r.t
            assert abs(r.kl - kl) <= 1e-13 * kl, r.t
            # the coarse rule's weights, too: a wrong one moves an estimate by
            # about the integral itself
            assert abs(r.fi_err - fi_err) <= 1e-13 * fi, r.t
            assert abs(r.kl_err - kl_err) <= 1e-13 * kl, r.t
            # the first level evaluates the nonnegative half of its grid and
            # each halving only its new midpoints: the last half-grid in all
            assert r.smoothed_points == (sizes[-1] + 1) // 2


class TestChannelTraceContainer:
    def test_monotone_time_required(self):
        rows = (fp.TraceRow(0.0, 1.0, 1.0, None), fp.TraceRow(0.0, 1.0, 1.0, None))
        with pytest.raises(ValueError):
            fp.ChannelTrace(rows=rows)

    def test_noise_floor_enforced(self):
        rows = (fp.TraceRow(0.0, -1e-3, 1.0, None),)
        with pytest.raises(ValueError):
            fp.ChannelTrace(rows=rows)

    def test_csv_roundtrip(self, tmp_path):
        from fplab.svgplot import read_csv_columns

        rows = (
            fp.TraceRow(0.0, 1.0 / 3.0, 2.0 / 7.0, 1.0),
            fp.TraceRow(0.5, 0.25, 0.125, None),
        )
        trace = fp.ChannelTrace(rows=rows)
        path = tmp_path / "trace.csv"
        trace.write_csv(path, {"alpha": 1.0, "seed": 3})
        text = path.read_text().splitlines()
        assert text[0].startswith("# ") and "seed=3" in text[0]
        assert text[1] == "t,fi,kl,bound"
        cols = read_csv_columns(path)
        # 17 significant digits round-trip float64 exactly
        assert cols["fi"][0] == 1.0 / 3.0 and cols["kl"][0] == 2.0 / 7.0
        assert math.isnan(cols["bound"][1])
        # a column filter parses only the named columns the header has
        picked = read_csv_columns(path, ["bound", "t", "absent"])
        assert list(picked) == ["t", "bound"] and picked["t"] == cols["t"]
        assert picked["bound"][0] == 1.0 and math.isnan(picked["bound"][1])
