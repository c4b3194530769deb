"""Property tests: every Gaussian channel's ``evolve``, ``fi_curve`` and
``kl_curve`` against the closed forms at 50 digits, for inputs that
``gaussian-rates`` accepts: rates, variances and steps from 1e-6 to 1e6,
means up to 1e6 in size, t up to 1e6 and k up to 10^4, including times at
which the curves fall below 1e-300 and variance ratios within 1e-3 of the
0.1 cut of ``kl_curve``'s series; explicit examples reach variances of
1e150 and 1e300.

The bound is 1e-12 relative wherever the exact value is a normal double.
"""

import math

import mpmath as mp
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fplab as fp

BOUND = 1e-12
TINY = np.finfo(float).tiny
PROPERTY = settings(max_examples=150, derandomize=True, deadline=None)

scales = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)
means = st.one_of(st.just(0.0), st.floats(-1e6, 1e6))
# log10 of the target contraction: times at which the differences between
# the two laws have decayed anywhere from 1 to below 1e-300
decades = st.floats(0.0, 340.0)


@st.composite
def channels(draw):
    """(channel, times): Heat, OU or Proximal with 1 to 4 times, among them
    times calibrated so that the contraction is 10^-decade."""
    kind = draw(st.sampled_from(["heat", "ou", "prox"]))
    if kind == "heat":
        ts = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6), scales),
                           min_size=1, max_size=4))
        return fp.Heat(), ts
    if kind == "ou":
        chan = fp.OU(draw(scales))
        calibrated = decades.map(lambda dec: dec * math.log(10.0) / (2.0 * chan.gamma))
        ts = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6), calibrated),
                           min_size=1, max_size=4))
        return chan, ts
    chan = fp.Proximal(draw(scales), draw(scales))
    per_step = 2.0 * math.log1p(chan.alpha * chan.eta)
    calibrated = decades.map(lambda dec: min(10**4, round(dec * math.log(10.0) / per_step)))
    ks = draw(st.lists(st.one_of(st.integers(0, 10**4), calibrated), min_size=1, max_size=4))
    return chan, [float(k) for k in ks]


def exact_law(chan, var, t):
    """(mean factor, variance) of the channel at time t, at the working precision."""
    t, var = mp.mpf(t), mp.mpf(var)
    if isinstance(chan, fp.Heat):
        return mp.mpf(1), var + t
    if isinstance(chan, fp.OU):
        gamma = mp.mpf(chan.gamma)
        dec = mp.exp(-gamma * t)
        return dec, dec**2 * var - mp.expm1(-2 * gamma * t) / gamma
    alpha = mp.mpf(chan.alpha)
    dec = (1 + alpha * mp.mpf(chan.eta)) ** -t
    return dec, 1 / alpha + (var - 1 / alpha) * dec**2


def exact_fi_kl(chan, p, q, t):
    """50-digit FI and KL of p_t against q_t.  The mean and variance
    differences are contracted exactly rather than subtracted; u - log1p(u)
    is summed at 30 more digits than it cancels, or by its series below 1e-30."""
    with mp.workdps(50):
        dec, vp = exact_law(chan, p.var, t)
        _, vq = exact_law(chan, q.var, t)
        shift2 = dec**2 * sum((mp.mpf(a) - mp.mpf(b)) ** 2 for a, b in zip(p.mean, q.mean))
        dv = dec**2 * (mp.mpf(p.var) - mp.mpf(q.var))
        u = dv / vq
        fi = shift2 / vq**2 + p.dim * dv**2 / (vp * vq**2)
        if abs(u) < mp.mpf(10) ** -30:
            u_minus_log1p = u**2 / 2 - u**3 / 3 + u**4 / 4
        else:
            with mp.workdps(80):
                u_minus_log1p = u - mp.log1p(u)
        kl = p.dim * u_minus_log1p / 2 + shift2 / (2 * vq)
    return fi, kl


def assert_close(got, exact, what):
    """|got - exact| <= BOUND |exact| where exact is a normal double; exact
    zeros must come out as zeros."""
    with mp.workdps(50):
        if exact == 0:
            assert got == 0.0, what
        elif abs(exact) >= TINY:
            err = abs((mp.mpf(float(got)) - exact) / exact)
            assert err <= BOUND, f"{what}: relative error {float(err):.3g}"


def pair(mp_, vp, mq, vq, d):
    return fp.IsoGaussian([mp_] * d, vp), fp.IsoGaussian([mq] * d, vq)


@PROPERTY
@given(case=channels(), m=means, v=scales)
# an OU contraction below the normal range times a large mean: FI is normal
@example(case=(fp.OU(1.0), [360.0]), m=1e3, v=1.0)
# prox from a variance far below 1/alpha, one step in
@example(case=(fp.Proximal(1e-3, 1e-3), [0.0, 1.0, 10.0]), m=0.0, v=1e-3)
def test_evolve_matches_closed_form(case, m, v):
    chan, ts = case
    g = fp.IsoGaussian([m, -m], v)
    for t in ts:
        out = fp.evolve(g, chan, t)
        with mp.workdps(50):
            dec, var = exact_law(chan, v, t)
            assert_close(out.mean[0], dec * mp.mpf(m), f"mean at t={t}")
            assert out.mean[1] == -out.mean[0]
            assert_close(out.var, var, f"variance at t={t}")


@PROPERTY
@given(case=channels(), mp_=means, mq=means, vp=scales, vq=scales, d=st.integers(1, 3))
# the squared mean distance times a subnormal OU contraction
@example(case=(fp.OU(1.0), [360.0]), mp_=1e3, mq=0.0, vp=1.0, vq=1.0, d=1)
# the squared variance difference is subnormal, its quotient by vp vq^2 normal
@example(case=(fp.OU(1e3), [0.184]), mp_=0.0, mq=0.0, vp=1e3, vq=1e-3, d=1)
# prox variances far below 1/alpha, where 1/alpha + (v - 1/alpha) s^-2k cancels
@example(case=(fp.Proximal(1e-3, 1e-3), [0.0, 1.0, 10.0]), mp_=0.0, mq=0.0, vp=1e-3,
         vq=2e-3, d=1)
# vp / vq = 1e-6: 1 + u, u = (vp - vq) / vq, keeps only 10 of its digits
@example(case=(fp.Heat(), [0.0]), mp_=0.0, mq=0.0, vp=1e-3, vq=1e3, d=1)
# variances past 1e154, where vq^2 and vp vq^2 overflow though FI is normal
@example(case=(fp.Heat(), [0.0, 1e6]), mp_=1e6, mq=0.0, vp=2e150, vq=1e150, d=2)
@example(case=(fp.OU(1e-3), [0.0, 1.0]), mp_=0.0, mq=0.0, vp=2e300, vq=1e300, d=1)
def test_fi_and_kl_curves_match_closed_form(case, mp_, mq, vp, vq, d):
    chan, ts = case
    p, q = pair(mp_, vp, mq, vq, d)
    fis, kls = fp.fi_curve(p, q, chan, ts), fp.kl_curve(p, q, chan, ts)
    for t, fi, kl in zip(ts, fis, kls):
        exact_fi, exact_kl = exact_fi_kl(chan, p, q, t)
        assert_close(fi, exact_fi, f"fi at t={t}")
        assert_close(kl, exact_kl, f"kl at t={t}")
    # the one-pair forms are the curves at t = 0
    exact_fi, exact_kl = exact_fi_kl(chan, p, q, 0.0)
    assert_close(fp.fisher_information(p, q), exact_fi, "fisher_information")
    assert_close(fp.kl_divergence(p, q), exact_kl, "kl_divergence")


@PROPERTY
@given(case=channels(), w=scales, u=st.floats(0.099, 0.101), sign=st.sampled_from([-1.0, 1.0]),
       d=st.integers(1, 3))
def test_kl_curve_across_the_series_cut(case, w, u, sign, d):
    # vp / vq - 1 within 1e-3 of +-0.1 at t = 0, where kl_curve switches
    # between the series and the direct form of u - log1p(u)
    chan, ts = case
    p, q = pair(0.0, w * (1.0 + sign * u), 0.0, w, d)
    ts = [0.0, *ts]
    for t, kl in zip(ts, fp.kl_curve(p, q, chan, ts)):
        assert_close(kl, exact_fi_kl(chan, p, q, t)[1], f"kl at t={t}")
