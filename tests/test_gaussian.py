import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fplab as fp
from oracles import fi_time_derivative, kl_time_derivative

# bounded parameter ranges keep finite-difference oracles well conditioned
variances = st.floats(0.3, 3.0)
means = st.floats(-3.0, 3.0)
times = st.floats(0.0, 5.0)


def make_pair(mp_, vp, mq, vq, d=1):
    return fp.IsoGaussian([mp_] * d, vp), fp.IsoGaussian([mq] * d, vq)


class TestIsoGaussian:
    def test_construction_invariants(self):
        g = fp.IsoGaussian([1.0, 2.0], 0.5)
        assert g.dim == 2 and g.var == 0.5

    @pytest.mark.parametrize("var", [0.0, -1.0, math.nan, math.inf])
    def test_bad_variance(self, var):
        with pytest.raises(ValueError):
            fp.IsoGaussian([0.0], var)

    def test_bad_mean(self):
        with pytest.raises(ValueError):
            fp.IsoGaussian([math.nan], 1.0)
        with pytest.raises(ValueError):
            fp.IsoGaussian([[0.0, 1.0], [2.0, 3.0]], 1.0)


class TestDivergences:
    def test_kl_identity(self):
        p, q = make_pair(0.0, 1.0, 0.0, 1.0)
        assert fp.kl_divergence(p, q) == 0.0

    def test_kl_variance_term(self):
        # 0.5 (2 - 1 - ln 2); cross-checked by Simpson in test_quadrature
        p, q = make_pair(0.0, 2.0, 0.0, 1.0)
        assert fp.kl_divergence(p, q) == pytest.approx(0.5 * (1.0 - math.log(2.0)), abs=1e-15)

    def test_kl_mean_term(self):
        p, q = make_pair(1.0, 1.0, 0.0, 1.0)
        assert fp.kl_divergence(p, q) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("ratio", [1.0 + 1e-9, 1.0 - 1e-6])
    def test_kl_near_equal_variances_matches_50_digits(self, ratio):
        # r - 1 - log(r) cancels here, to 1.6e-8 and 4.4e-11 relative
        mp = pytest.importorskip("mpmath")
        p, q = make_pair(0.0, 1.3 * ratio, 0.0, 1.3, d=2)
        with mp.workdps(50):
            r = mp.mpf(p.var) / mp.mpf(q.var)
            exact = r - 1 - mp.log(r)  # d/2 = 1
            assert abs((fp.kl_divergence(p, q) - exact) / exact) <= 1e-12

    def test_fi_identity(self):
        p, q = make_pair(0.7, 1.3, 0.7, 1.3)
        assert fp.fisher_information(p, q) == 0.0

    def test_fi_variance_term(self):
        p, q = make_pair(0.0, 2.0, 0.0, 1.0)
        assert fp.fisher_information(p, q) == pytest.approx(0.5, abs=1e-15)

    def test_fi_mean_term(self):
        # alpha^2 |m0|^2 with alpha = 1
        p, q = make_pair(1.0, 1.0, 0.0, 1.0)
        assert fp.fisher_information(p, q) == pytest.approx(1.0, abs=1e-15)

    def test_dimension_mismatch(self):
        p = fp.IsoGaussian([0.0], 1.0)
        q = fp.IsoGaussian([0.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            fp.kl_divergence(p, q)
        with pytest.raises(ValueError):
            fp.fisher_information(p, q)

    @given(mp_=means, vp=variances, mq=means, vq=variances)
    @settings(max_examples=60)
    def test_nonnegative_and_zero_iff_equal(self, mp_, vp, mq, vq):
        p, q = make_pair(mp_, vp, mq, vq)
        kl, fi = fp.kl_divergence(p, q), fp.fisher_information(p, q)
        assert kl >= 0.0 and fi >= 0.0
        if mp_ == mq and vp == vq:
            assert kl == 0.0 and fi == 0.0
        elif abs(mp_ - mq) > 1e-6 or abs(vp - vq) > 1e-6:
            assert kl > 0.0 and fi > 0.0


class TestChannels:
    def test_heat_map(self):
        g = fp.evolve(fp.IsoGaussian([1.0], 2.0), fp.Heat(), 3.0)
        assert g.mean[0] == 1.0 and g.var == 5.0

    def test_ou_stationary(self):
        p = fp.IsoGaussian([0.0], 1.0)
        for t in (0.1, 1.0, 7.0):
            g = fp.evolve(p, fp.OU(1.0), t)
            assert g.mean[0] == 0.0 and g.var == pytest.approx(1.0, abs=1e-15)

    def test_ou_solution_map(self):
        g = fp.evolve(fp.IsoGaussian([3.0], 4.0), fp.OU(1.0), math.log(2.0))
        assert g.mean[0] == pytest.approx(1.5, abs=1e-14)
        assert g.var == pytest.approx(1.75, abs=1e-14)

    def test_proximal_is_the_step_recursion(self):
        p = fp.IsoGaussian([1.5, -0.4], 2.5)
        chan = fp.Proximal(0.7, 0.3)
        for k, step in enumerate(fp.proximal_chain(p, 0.7, 0.3, 20)):
            g = fp.evolve(p, chan, k)
            assert np.allclose(g.mean, step.mean, rtol=1e-13, atol=0.0)
            assert g.var == pytest.approx(step.var, rel=1e-13)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            fp.evolve(fp.IsoGaussian([0.0], 1.0), fp.Heat(), -0.1)

    def test_bad_channel_params(self):
        with pytest.raises(ValueError):
            fp.OU(0.0)
        with pytest.raises(ValueError):
            fp.Proximal(0.0, 1.0)
        with pytest.raises(ValueError):
            fp.Proximal(1.0, -1.0)


class TestProximalStep:
    def test_one_step(self):
        out = fp.proximal_step(fp.IsoGaussian([1.0], 2.0), 1.0, 1.0)
        assert out.mean[0] == 0.5 and out.var == 1.25

    def test_stationarity_exact(self):
        p = fp.IsoGaussian([0.0, 0.0], 1.0 / 0.7)
        out = fp.proximal_step(p, 0.7, 0.3)
        assert out.var == p.var and np.all(out.mean == 0.0)

    def test_two_steps_mean(self):
        p = fp.IsoGaussian([2.0], 1.0)
        out = fp.proximal_step(fp.proximal_step(p, 1.0, 1.0), 1.0, 1.0)
        assert out.mean[0] == pytest.approx(0.5, abs=1e-15)

    def test_param_validation(self):
        p = fp.IsoGaussian([0.0], 1.0)
        with pytest.raises(ValueError):
            fp.proximal_step(p, 0.0, 1.0)
        with pytest.raises(ValueError):
            fp.proximal_step(p, 1.0, -1.0)


ENVELOPES = [
    fp.HeatSLC(0.8),
    fp.HeatSLCPoincare(0.8, 1.5),
    fp.HeatPerturbed(1.0, 6.0),
    fp.OuSLC(0.8, 1.0),
    fp.OuSLCPoincare(0.8, 1.5, 1.0),
    fp.ProxRate(1.0, 0.5),
]


class TestEnvelopes:
    @pytest.mark.parametrize("env", ENVELOPES, ids=lambda e: type(e).__name__)
    def test_unit_at_zero(self, env):
        assert env.factor(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_heat_slc_quarter(self):
        assert fp.HeatSLC(1.0).factor(1.0) == 0.25

    @pytest.mark.parametrize("alpha, eta, k, bound", [(0.3, 0.07, 3000, 2e-13),
                                                       (1.0, 1e-6, 10**6, 1e-12)])
    def test_prox_rate_matches_50_digits(self, alpha, eta, k, bound):
        # a power of the rounded 1 + alpha eta errs like k ulp: 5.5e-13 and
        # 1.6e-10 at these points
        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            exact = (1 + mp.mpf(alpha) * mp.mpf(eta)) ** (-2 * k)
            assert abs((fp.ProxRate(alpha, eta).factor(k) - exact) / exact) <= bound
        assert fp.ProxRate(alpha, eta).factor(k) == fp.Proximal(alpha, eta).contraction(k)

    def test_ou_alpha_equals_gamma(self):
        env = fp.OuSLC(1.3, 1.3)
        for t in (0.0, 0.5, 2.0, 10.0):
            assert env.factor(t) == pytest.approx(math.exp(-2.0 * 1.3 * t), rel=1e-14)

    def test_heat_envelopes_non_increasing(self):
        grid = np.linspace(0.0, 100.0, 400)
        for env in (fp.HeatSLC(0.5), fp.HeatSLCPoincare(0.5, 2.0)):
            vals = [env.factor(t) for t in grid]
            assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_ou_envelope_monotone_iff_two_alpha_at_least_gamma(self):
        grid = np.linspace(0.0, 10.0, 200)
        vals = [fp.OuSLC(0.6, 1.0).factor(t) for t in grid]  # 2 alpha >= gamma
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
        vals = [fp.OuSLC(0.1, 1.0).factor(t) for t in grid]  # 2 alpha < gamma
        assert max(vals) > 1.0  # rises above 1 before the eventual decay

    def test_perturbed_envelope_rises_then_eventually_contracts(self):
        env = fp.HeatPerturbed(1.0, 6.0)
        assert env.factor(0.05) > 1.0
        # exponent tends to 2 lip^2/alpha + 8 lip/sqrt(alpha) = 120; the
        # (1+t)^-2 prefactor only wins at astronomically large t
        assert env.factor(1e30) < 1.0

    def test_perturbed_envelope_past_the_float_range(self):
        # e^bump past e^709 and (1+t)^2 past 1e308 take the quotient in logs
        assert fp.HeatPerturbed(1.0, 1e3).factor(1.0) == math.inf  # e^(1e6 + 8000)
        env = fp.HeatPerturbed(1.0, 1.0)
        bump = 2.0 * 1e200 / (1e200 + 1.0) + 8.0 * math.sqrt(1e200 / (1e200 + 1.0))
        assert env.factor(1e200) == pytest.approx(math.exp(bump - 2.0 * math.log(1e200)),
                                                  rel=1e-13)
        assert env.factor(1e100) == pytest.approx(math.exp(bump) / 1e200, rel=1e-13)

    def test_negative_time_rejected(self):
        for env in ENVELOPES:
            with pytest.raises(ValueError):
                env.factor(-1e-9)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            fp.HeatSLC(0.0)
        with pytest.raises(ValueError):
            fp.OuSLCPoincare(1.0, -1.0, 1.0)


class TestTimeDerivatives:
    def test_identical_pair_is_flat(self):
        p, q = make_pair(0.3, 1.2, 0.3, 1.2)
        assert fi_time_derivative(p, q, fp.Heat()) == 0.0
        assert fi_time_derivative(p, q, fp.OU(1.0)) == 0.0

    def test_heat_closed_form(self):
        p, q = make_pair(0.0, 2.0, 0.0, 1.0)
        assert fi_time_derivative(p, q, fp.Heat()) == pytest.approx(-1.25, abs=1e-15)

    def test_ou_wide_narrow_pair(self):
        # p = N(0, 0.01), q = N(0, 10): the Hessian term -2(1/vq - 1/vp)^2
        # dwarfs the positively-weighted FI term, so FI is *decreasing*;
        # value verified by the finite-difference oracle below
        p, q = make_pair(0.0, 0.01, 0.0, 10.0)
        val = fi_time_derivative(p, q, fp.OU(1.0))
        assert val == pytest.approx(-19800.33984, rel=1e-9)
        h = 1e-7
        chan = fp.OU(1.0)

        def fi_at(t):
            return fp.fisher_information(fp.evolve(p, chan, t), fp.evolve(q, chan, t))

        s1 = (fi_at(h) - fi_at(0.0)) / h
        s2 = (fi_at(2 * h) - fi_at(0.0)) / (2 * h)
        assert 2 * s1 - s2 == pytest.approx(val, rel=1e-5)

    def test_unsupported_channel(self):
        p, q = make_pair(0.0, 1.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            fi_time_derivative(p, q, fp.Proximal(1.0, 0.5))
        with pytest.raises(ValueError):
            kl_time_derivative(p, q, fp.Proximal(1.0, 0.5))


def derivative_grid():
    cases = []
    for vp, vq in [(0.5, 1.0), (2.0, 1.0), (1.5, 0.8), (0.8, 1.6)]:
        for m in (0.0, 0.7, -1.3):
            for t in (0.1, 0.6):
                cases.append((m, vp, vq, t))
    return cases  # 24 triples


@pytest.mark.parametrize("channel", [fp.Heat(), fp.OU(0.7)], ids=["heat", "ou"])
def test_de_bruijn_and_fi_derivative_match_finite_differences(channel):
    h = 1e-4
    for m, vp, vq, t in derivative_grid():
        p, q = make_pair(m, vp, 0.0, vq)

        def kl_at(s):
            return fp.kl_divergence(fp.evolve(p, channel, s), fp.evolve(q, channel, s))

        def fi_at(s):
            return fp.fisher_information(fp.evolve(p, channel, s), fp.evolve(q, channel, s))

        pt, qt = fp.evolve(p, channel, t), fp.evolve(q, channel, t)
        fd_kl = (kl_at(t + h) - kl_at(t - h)) / (2 * h)
        fd_fi = (fi_at(t + h) - fi_at(t - h)) / (2 * h)
        assert fd_kl == pytest.approx(kl_time_derivative(pt, qt, channel), rel=1e-4)
        assert fd_fi == pytest.approx(fi_time_derivative(pt, qt, channel), rel=1e-4)


class TestFiCurve:
    @pytest.mark.parametrize(
        "channel", [fp.Heat(), fp.OU(1.3), fp.Proximal(0.8, 0.5)], ids=["heat", "ou", "prox"],
    )
    def test_matches_pointwise_route_at_moderate_times(self, channel):
        p = fp.IsoGaussian([1.2, -0.3], 2.1)
        q = fp.IsoGaussian([0.0, 0.0], 0.9)
        ts = np.linspace(0.0, 3.0, 13)
        fis, kls = fp.fi_curve(p, q, channel, ts), fp.kl_curve(p, q, channel, ts)
        for t, fi, kl in zip(ts, fis, kls):
            pt, qt = fp.evolve(p, channel, t), fp.evolve(q, channel, t)
            assert fi == pytest.approx(fp.fisher_information(pt, qt), rel=1e-12)
            assert kl == pytest.approx(fp.kl_divergence(pt, qt), rel=1e-12)

    def test_stable_where_subtraction_route_is_noise(self):
        # near-equal variances along OU: the transported difference keeps
        # full relative accuracy while evolve-then-subtract rounds away
        p = fp.IsoGaussian([0.0], 2.883110109536868)
        q = fp.IsoGaussian([0.0], 2.9011811429480727)
        gamma = 1.913963034073894
        t = 8.0
        (fi,) = fp.fi_curve(p, q, fp.OU(gamma), [t])
        decay = math.exp(-4.0 * gamma * t)
        vp = fp.evolve(p, fp.OU(gamma), t).var
        vq = fp.evolve(q, fp.OU(gamma), t).var
        expect = decay * (p.var - q.var) ** 2 / (vp * vq**2)
        assert fi == pytest.approx(expect, rel=1e-13)

    def test_negative_time_rejected(self):
        p = fp.IsoGaussian([0.0], 1.0)
        with pytest.raises(ValueError):
            fp.fi_curve(p, p, fp.Heat(), [-1.0])
        with pytest.raises(ValueError):
            fp.kl_curve(p, p, fp.Heat(), [0.0, -1.0])


def exact_fi_kl(mp, p, q, channel, t):
    """50-digit FI and KL of p_t against q_t from the channel's solution map."""
    with mp.workdps(50):
        t = mp.mpf(float(t))
        vp, vq = mp.mpf(p.var), mp.mpf(q.var)
        if isinstance(channel, fp.OU):
            gamma = mp.mpf(channel.gamma)
            dec2 = mp.exp(-2 * gamma * t)
            vp, vq = dec2 * vp + (1 - dec2) / gamma, dec2 * vq + (1 - dec2) / gamma
        else:
            dec2 = mp.mpf(1)
            vp, vq = vp + t, vq + t
        shift2 = dec2 * sum((mp.mpf(a) - mp.mpf(b)) ** 2 for a, b in zip(p.mean, q.mean))
        r = vp / vq
        fi = shift2 / vq**2 + p.dim * (vp - vq) ** 2 / (vp * vq**2)
        kl = p.dim * (r - 1 - mp.log(r)) / 2 + shift2 / (2 * vq)
        return fi, kl


def max_rel_err(mp, values, exact):
    with mp.workdps(50):
        return max(float(abs((mp.mpf(float(v)) - e) / e)) if e else abs(float(v))
                   for v, e in zip(values, exact))


# (p0, q0, channel, ts): the README's OU case to t = 40, where the evolved
# variances agree to ~1e-35; variance ratios 1 + 1e-9 and 1 + 1e-12 (tiny u
# from t = 0 on); a mean shift; the heat flow to t = 1e6
CURVE_CASES = {
    "ou-narrow-rho": (([0.0], 0.01), ([0.0], 10.0), fp.OU(1.0), np.linspace(0.0, 40.0, 201)),
    "ou-tiny-u": (([0.0], 1.0 + 1e-12), ([0.0], 1.0), fp.OU(1.0), np.linspace(0.0, 20.0, 41)),
    "ou-shifted-2d": (([0.5, -1.0], 3.0), ([0.0, 0.0], 2.0), fp.OU(0.7), np.linspace(0.0, 8.0, 33)),
    "heat": (([0.0], 2.0), ([0.0], 1.0), fp.Heat(), np.linspace(0.0, 10.0, 201)),
    "heat-tiny-u": (([0.0], 1.0), ([0.0], 1.0 + 1e-9), fp.Heat(), np.linspace(0.0, 10.0, 41)),
    "heat-shifted-long": (([-0.5], 0.8), ([0.0], 1.3), fp.Heat(),
                          np.concatenate([[0.0], np.geomspace(1e-3, 1e6, 40)])),
}


@pytest.mark.parametrize("case", sorted(CURVE_CASES))
def test_fi_and_kl_curves_match_50_digit_closed_form(case):
    mp = pytest.importorskip("mpmath")
    (mp0, vp), (mq0, vq), channel, ts = CURVE_CASES[case]
    p, q = fp.IsoGaussian(mp0, vp), fp.IsoGaussian(mq0, vq)
    exact = [exact_fi_kl(mp, p, q, channel, t) for t in ts]
    assert max_rel_err(mp, fp.fi_curve(p, q, channel, ts), [e[0] for e in exact]) <= 1e-12
    assert max_rel_err(mp, fp.kl_curve(p, q, channel, ts), [e[1] for e in exact]) <= 1e-12


class TestKlCurve:
    def test_series_and_direct_form_meet_at_the_cut(self):
        # u - log1p(u) on both sides of |u| = 0.1, and deep in each regime
        mp = pytest.importorskip("mpmath")
        from fplab.gaussian import _u_minus_log1p

        u = np.array([-0.9, -0.1 - 1e-12, -0.1, -0.1 + 1e-12, -1e-3, -1e-150, 0.0, 1e-300,
                      1e-8, 0.05, 0.1 - 1e-12, 0.1, 0.1 + 1e-12, 0.5, 3.0, 1e6])
        got = _u_minus_log1p(u, 1.0 + u)
        for ui, gi in zip(u, got):
            if ui == 0.0:
                assert gi == 0.0
                continue
            # the subtraction cancels ~ -log10|u| digits: carry that many more
            with mp.workdps(50 + max(0, int(-math.log10(abs(ui))))):
                exact = mp.mpf(ui) - mp.log1p(mp.mpf(ui))
                # u^2/2 underflows below |u| ~ 1.5e-154
                assert float(abs(mp.mpf(gi) - exact)) <= max(1e-15 * float(exact), 1e-323), ui

    def test_identical_pair_is_zero(self):
        p = fp.IsoGaussian([0.4], 2.0)
        assert np.all(fp.kl_curve(p, p, fp.OU(1.0), [0.0, 1.0, 30.0]) == 0.0)

    def test_rounded_u_of_minus_one_takes_the_log_of_the_ratio(self):
        # vp / vq = 2e-300 rounds u to -1, where log1p(u) would divide by zero
        from fplab.gaussian import _u_minus_log1p

        with np.errstate(all="raise"):
            got = _u_minus_log1p(np.array([-1.0, 0.5]), np.array([2e-300, 1.5]))
        assert got.tolist() == [-1.0 - math.log(2e-300), 0.5 - math.log1p(0.5)]


class TestOuCurves:
    """The OU rows of ``gaussian-rates --channel ou``: fi_curve, kl_curve and
    the OuSLC envelope for centered and shifted Gaussian pairs."""

    def test_identical_pair_flat_zero(self):
        p = fp.IsoGaussian([0.0], 2.0)
        ts = [0.0, 0.5, 1.0]
        assert np.all(fp.fi_curve(p, p, fp.OU(1.0), ts) == 0.0)
        assert np.all(fp.kl_curve(p, p, fp.OU(1.0), ts) == 0.0)
        assert fp.fisher_information(p, p) == 0.0  # so the CLI writes no bound

    def test_initial_rise_when_rho_flatter_than_threshold(self):
        # rise at t=0 iff beta < gamma - 2 alpha (precisions); here 0.25 < 0.8
        p0 = fp.IsoGaussian([0.0], 1.0 / 0.25)
        q0 = fp.IsoGaussian([0.0], 1.0 / 0.1)
        fi = fp.fi_curve(p0, q0, fp.OU(1.0), np.linspace(0.0, 6.0, 200))
        assert fi[1] > fi[0]
        assert fi[-1] < fi.max()  # eventual decay after the hump

    def test_narrow_rho_case_is_monotone_decreasing(self):
        # precisions (beta, alpha) = (100, 0.1): the Hessian term dominates
        # and FI decreases from t = 0 on
        p0 = fp.IsoGaussian([0.0], 0.01)
        q0 = fp.IsoGaussian([0.0], 10.0)
        fi = fp.fi_curve(p0, q0, fp.OU(1.0), np.linspace(0.0, 6.0, 200))
        assert np.all(np.diff(fi) < 0.0)

    def test_kl_column_cancellation_free(self):
        # both columns come from the transported-difference curves: at t = 40
        # the evolved variances agree to ~1e-35, yet KL keeps full accuracy
        mp = pytest.importorskip("mpmath")
        p0 = fp.IsoGaussian([0.0], 0.01)
        q0 = fp.IsoGaussian([0.0], 10.0)
        ts = np.linspace(0.0, 40.0, 81)
        fis, kls = fp.fi_curve(p0, q0, fp.OU(1.0), ts), fp.kl_curve(p0, q0, fp.OU(1.0), ts)
        with mp.workdps(50):
            for t, fi_t, kl_t in zip(ts, fis, kls):
                dec2 = mp.exp(-2 * mp.mpf(t))
                vp, vq = dec2 / 100 + (1 - dec2), dec2 * 10 + (1 - dec2)
                fi = (vp - vq) ** 2 / (vp * vq**2)
                kl = (vp / vq - 1 - mp.log(vp / vq)) / 2
                assert abs((fi_t - fi) / fi) <= 1e-12
                assert abs((kl_t - kl) / kl) <= 1e-12

    def test_quartic_decay_scale_converges(self):
        # the scale settles like (gamma/alpha) e^{-2 gamma t}, so the 1e-4
        # band opens up from t ~ 7 for these precisions
        gamma, beta, alpha = 1.0, 0.25, 0.1
        p0 = fp.IsoGaussian([0.0], 1.0 / beta)
        q0 = fp.IsoGaussian([0.0], 1.0 / alpha)
        ts = np.linspace(7.0, 12.0, 20)
        scaled = fp.fi_curve(p0, q0, fp.OU(gamma), ts) * np.exp(4.0 * gamma * ts)
        limit = gamma**3 * (1.0 / beta - 1.0 / alpha) ** 2
        assert np.all(np.abs(scaled / limit - 1.0) < 1e-4)

    def test_bound_dominates(self):
        p0 = fp.IsoGaussian([1.0], 3.0)
        q0 = fp.IsoGaussian([0.0], 2.0)
        ts = np.linspace(0.0, 8.0, 100)
        env, fi0 = fp.OuSLC(alpha=1.0 / q0.var, gamma=0.7), fp.fisher_information(p0, q0)
        for t, fi in zip(ts, fp.fi_curve(p0, q0, fp.OU(0.7), ts)):
            assert fi <= env.factor(t) * fi0 * (1 + 1e-12)


class TestContractionDomination:
    def test_heat_slc_dominates_gaussian_flow(self):
        rng = np.random.default_rng(11)
        grid = np.concatenate([[0.0], np.geomspace(1e-2, 100.0, 40)])
        for _ in range(25):
            vq = rng.uniform(0.3, 3.0)
            p = fp.IsoGaussian([rng.uniform(-3, 3)], rng.uniform(0.3, 3.0))
            q = fp.IsoGaussian([0.0], vq)
            env = fp.HeatSLC(1.0 / vq)
            fi0 = fp.fisher_information(p, q)
            for t in grid:
                fi = fp.fisher_information(fp.evolve(p, fp.Heat(), t), fp.evolve(q, fp.Heat(), t))
                assert fi <= env.factor(t) * fi0 * (1 + 1e-12) + 1e-300

    def test_ou_slc_dominates_gaussian_flow(self):
        rng = np.random.default_rng(12)
        grid = np.concatenate([[0.0], np.geomspace(1e-2, 10.0, 40)])
        chan = fp.OU(1.0)
        for _ in range(25):
            vq = rng.uniform(0.3, 3.0)
            p = fp.IsoGaussian([rng.uniform(-3, 3)], rng.uniform(0.3, 3.0))
            q = fp.IsoGaussian([0.0], vq)
            env = fp.OuSLC(1.0 / vq, 1.0)
            fi0 = fp.fisher_information(p, q)
            for t in grid:
                fi = fp.fisher_information(fp.evolve(p, chan, t), fp.evolve(q, chan, t))
                assert fi <= env.factor(t) * fi0 * (1 + 1e-12) + 1e-300

    def test_envelopes_tight_for_centered_gaussians(self):
        # with exact moduli the symmetric-pair envelopes are met with equality
        p, q = make_pair(0.0, 2.0, 0.0, 0.8)
        fi0 = fp.fisher_information(p, q)
        env_h = fp.HeatSLCPoincare(alpha=1.0 / q.var, beta=1.0 / p.var)
        for t in (0.3, 1.7, 9.0):
            fi = fp.fisher_information(fp.evolve(p, fp.Heat(), t), fp.evolve(q, fp.Heat(), t))
            assert fi == pytest.approx(env_h.factor(t) * fi0, rel=1e-12)
        env_o = fp.OuSLCPoincare(alpha=1.0 / q.var, beta=1.0 / p.var, gamma=1.3)
        chan = fp.OU(1.3)
        for t in (0.3, 1.7, 5.0):
            fi = fp.fisher_information(fp.evolve(p, chan, t), fp.evolve(q, chan, t))
            assert fi == pytest.approx(env_o.factor(t) * fi0, rel=1e-12)

    def test_proximal_chain_rate(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            alpha, eta = rng.uniform(0.2, 3.0), rng.uniform(0.1, 2.0)
            p0 = fp.IsoGaussian(rng.uniform(-3, 3, size=2), rng.uniform(0.2, 4.0))
            target = fp.IsoGaussian([0.0, 0.0], 1.0 / alpha)
            fi0 = fp.fisher_information(p0, target)
            shrink = (1.0 + alpha * eta) ** 2
            bound = fi0
            for p in fp.proximal_chain(p0, alpha, eta, 200):
                fi = fp.fisher_information(p, target)
                assert fi <= bound * (1 + 1e-12) + 1e-300
                bound /= shrink

    def test_centered_chain_has_squared_rate(self):
        # m0 = 0: fi_k (1+alpha eta)^{4k} stays bounded by the limiting constant
        alpha, eta, v0 = 1.0, 1.0, 2.0
        p0 = fp.IsoGaussian([0.0], v0)
        target = fp.IsoGaussian([0.0], 1.0)
        cap = (1 - alpha * v0) ** 2 * max(alpha, 1.0 / v0)
        rate = (1.0 + alpha * eta) ** 4
        scale = 1.0
        for p in fp.proximal_chain(p0, alpha, eta, 40):
            fi = fp.fisher_information(p, target)
            assert fi * scale <= cap * (1 + 1e-12)
            scale *= rate

    def test_forward_step_contraction(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            alpha, eta = rng.uniform(0.2, 3.0), rng.uniform(0.1, 2.0)
            p = fp.IsoGaussian([rng.uniform(-3, 3)], rng.uniform(0.2, 4.0))
            q = fp.IsoGaussian([0.0], 1.0 / alpha)
            # the forward half of a proximal step is the heat channel at t = eta
            fi_before = fp.fisher_information(p, q)
            pt, qt = fp.evolve(p, fp.Heat(), eta), fp.evolve(q, fp.Heat(), eta)
            fi_after = fp.fisher_information(pt, qt)
            assert fi_after <= fi_before / (1.0 + alpha * eta) ** 2 * (1 + 1e-12)


class TestIterationCount:
    def test_examples(self):
        assert fp.iteration_count(1, 1.0, 1.0, 1.0) == 0
        assert fp.iteration_count(2, 1.0, 0.5, 0.01) == 22
        assert fp.iteration_count(1, 2.0, 1.0, 2.0) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            fp.iteration_count(0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            fp.iteration_count(1, 1.0, 2.0, 1.0)  # alpha > L
        with pytest.raises(ValueError):
            fp.iteration_count(1, 1.0, 1.0, 0.0)

    def test_minimality(self):
        k = fp.iteration_count(3, 2.0, 0.7, 1e-4)
        target = (3 * 2.0 / 0.7) * math.log(3 * 2.0 / 1e-4)
        assert k >= target and k - 1 < target
