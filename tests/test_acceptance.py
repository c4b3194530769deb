"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with its key measurements and wall time (run with ``pytest -s`` to see
the lines for passing criteria too).

Criterion 5 is implemented exactly as specified and fails: with the stated
parameters the exact closed form makes the Fisher information strictly
decreasing from t = 0 (no initial rise; the time-derivative at 0 is about
-19800, confirmed by finite differences), and the e^{4 gamma t}-scaled
curve still varies by ~33% on [2, 10], far beyond the 5% budget.  The
assertion is kept faithful rather than loosened; the failure message
carries the measured numbers.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

import fplab as fp
from oracles import fi_time_derivative, kl_time_derivative


class _Timer:
    def __init__(self, budget_s):
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0
        return False


def _report(num, ok, detail, elapsed):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail} ({elapsed:.2f} s)")


def test_criterion_1_proximal_rate():
    """Closed-form Gaussian chain: fi_k = 4^-k exactly for the unit setup,
    and fi_k <= fi_0 (1+alpha eta)^{-2k} across random parameter draws."""
    with _Timer(1.0) as tm:
        p0, target = fp.IsoGaussian([1.0], 1.0), fp.IsoGaussian([0.0], 1.0)
        channel = fp.Proximal(1.0, 1.0)
        worst = 0.0
        for k in range(31):
            fi_k = float(fp.fi_curve(p0, target, channel, [k])[0])
            bound_k = fp.ProxRate(1.0, 1.0).factor(k) * fp.fisher_information(p0, target)
            worst = max(worst, abs(fi_k - 4.0 ** (-k)) / 4.0 ** (-k))
            assert fi_k <= bound_k * (1 + 1e-12)
        assert worst <= 1e-12

        # additive floor: once the true values decay below ~1e-30 the
        # variance recursion's subtraction leaves pure rounding noise of
        # order (eps)^2; 1e-25 sits far above that and 20 orders below any
        # meaningful fi scale in these draws
        rng = np.random.default_rng(2024)
        for _ in range(50):
            alpha = rng.uniform(0.2, 5.0)
            eta = rng.uniform(0.1, 2.0)
            d = int(rng.integers(1, 4))
            p = fp.IsoGaussian(rng.uniform(-3, 3, size=d), rng.uniform(0.2, 5.0))
            target = fp.IsoGaussian(np.zeros(d), 1.0 / alpha)
            fi0 = fp.fisher_information(p, target)
            shrink = (1.0 + alpha * eta) ** 2
            bound = fi0
            for q in fp.proximal_chain(p, alpha, eta, 200):
                fi = fp.fisher_information(q, target)
                assert fi <= bound * (1 + 1e-12) + 1e-25
                bound /= shrink
    _report(1, True, f"fi_k = 4^-k to rel {worst:.1e}; 50 random chains dominated", tm.elapsed)
    assert tm.elapsed < 1.0


def test_criterion_2_iteration_complexity():
    """k = ceil((dL/alpha) ln(dL/eps)) closed-form steps reach fi <= eps
    from a start whose fi is above eps."""
    with _Timer(1.0) as tm:
        checked = []
        for d in (1, 2, 5):
            # alpha < L: the start N(x*, I/L) is not the target N(x*, I/alpha)
            alpha, L = 0.5, 1.0
            eta = 1.0 / (d * L)
            p0 = fp.IsoGaussian(np.zeros(d), 1.0 / L)  # N(x*, I/L), x* = 0
            target = fp.IsoGaussian(np.zeros(d), 1.0 / alpha)
            for eps in (1e-2, 1e-6):
                k = fp.iteration_count(d, L, alpha, eps)
                fi_0, fi_k = fp.fi_curve(p0, target, fp.Proximal(alpha, eta), [0, k])
                assert fi_0 > eps
                assert fi_k <= eps
                checked.append((d, eps, k, fi_k))
    ks = ", ".join(f"d={d} eps={e:g}: k={k}" for d, e, k, _ in checked)
    _report(2, True, f"fi <= eps at the budgeted step counts ({ks})", tm.elapsed)
    assert tm.elapsed < 1.0


def test_criterion_3_rgo_quality():
    """d=5 quadratic target at eta = 1/(dL): trial count within the kappa
    bound and stationary moments within 3 standard errors."""
    with _Timer(30.0) as tm:
        d, alpha, L = 5, 1.0, 1.0
        eta = 1.0 / (d * L)
        g = fp.quadratic_potential(d, alpha)
        cfg = fp.SamplerConfig(eta=eta, iters=20_000, seed=7)
        x0 = fp.chain_rng(cfg.seed, 1).standard_normal(d) / math.sqrt(alpha)
        out = fp.run_chain(g, x0, cfg)

        kappa_bound = fp.expected_trials_bound(eta, L, d)
        se_trials = float(out.trial_counts.std(ddof=1)) / math.sqrt(cfg.iters)
        assert out.mean_trials <= kappa_bound + 3.0 * se_trials

        n = out.samples.shape[0]
        a = 1.0 / (1.0 + alpha * eta)  # lag-1 autocorrelation of the chain
        se_mean = math.sqrt((1.0 / alpha) / n * (1.0 + a) / (1.0 - a))
        se_var = math.sqrt(2.0 / (alpha**2 * n) * (1.0 + a * a) / (1.0 - a * a))
        assert np.all(np.abs(out.mean) <= 3.0 * se_mean)
        assert np.all(np.abs(out.var - 1.0 / alpha) <= 3.0 * se_var)
    _report(
        3, True,
        f"mean trials {out.mean_trials:.4f} <= {kappa_bound:.4f} + 3se; "
        f"max|mean| {np.max(np.abs(out.mean)):.4f} <= {3 * se_mean:.4f}; "
        f"max|var-1| {np.max(np.abs(out.var - 1)):.4f} <= {3 * se_var:.4f}",
        tm.elapsed,
    )
    assert tm.elapsed < 30.0


def _slope_quad_oracle(M, L):
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


def test_criterion_4_counterexample():
    """M = L = 2: FI rises at 0.05 and 0.1, the exact t=0 slope matches an
    independent quadrature oracle and exceeds (M-2)(M+1)^2 = 0, KL is
    non-increasing, and the perturbed envelope dominates every row."""
    with _Timer(120.0) as tm:
        t_grid = np.union1d(fp.default_time_grid(), [0.05, 0.1])
        trace = fp.perturbed_bound_check(2, 2, t_grid)

        fi = trace.column("fi")
        ts = trace.column("t")
        fi0 = fi[ts == 0.0][0]
        fi_005 = fi[np.isclose(ts, 0.05)][0]
        fi_01 = fi[np.isclose(ts, 0.1)][0]
        assert fi_005 > fi0 and fi_01 > fi0

        slope = fp.counterexample_initial_slope(2, 2)
        oracle = _slope_quad_oracle(2.0, 2.0)
        assert slope == pytest.approx(oracle, rel=1e-3)
        assert slope > 0.0  # (M-2)(M+1)^2 = 0 at M = 2

        kl = trace.column("kl")
        assert np.all(np.diff(kl) <= 1e-8)
        # every row carries its bound, and the bound dominates
        assert all(r.fi <= r.bound + 1e-6 for r in trace.rows)
    _report(
        4, True,
        f"fi(0)={fi0:.4f} < fi(0.05)={fi_005:.4f}, fi(0.1)={fi_01:.4f}; "
        f"slope {slope:.4f} vs oracle {oracle:.4f}; kl monotone; envelope holds",
        tm.elapsed,
    )
    assert tm.elapsed < 120.0


def test_criterion_5_ou_nonmonotonicity():
    """(gamma, beta, alpha, m) = (1, 100, 0.1, 0), i.e. rho0 = N(0, 1/100)
    and nu0 = N(0, 10): the criterion requires an initial FI rise and a
    <= 5% variation of FI e^{4 gamma t} on [2, 10].

    Both requirements contradict the exact closed form for these
    parameters (initial rise needs beta < gamma - 2 alpha, and the scaled
    curve still carries a ~33% transient on [2, 10]); the test is kept
    faithful to the stated criterion and fails with the measured values.
    """
    with _Timer(1.0) as tm:
        gamma, beta, alpha, m = 1.0, 100.0, 0.1, 0.0
        p0 = fp.IsoGaussian([m], 1.0 / beta)
        q0 = fp.IsoGaussian([0.0], 1.0 / alpha)
        chan = fp.OU(gamma)

        early = np.linspace(0.0, 2.0, 2001)
        fi_early = np.array(
            [fp.fisher_information(fp.evolve(p0, chan, t), fp.evolve(q0, chan, t)) for t in early]
        )
        rise = bool(np.any(fi_early[1:] > fi_early[0]))

        window = np.linspace(2.0, 10.0, 401)
        scaled = np.array(
            [
                fp.fisher_information(fp.evolve(p0, chan, t), fp.evolve(q0, chan, t))
                * math.exp(4.0 * gamma * t)
                for t in window
            ]
        )
        variation = float(scaled.max() / scaled.min() - 1.0)
        ok = rise and variation <= 0.05
    detail = (
        f"initial rise: {rise} (fi is strictly decreasing from fi(0)={fi_early[0]:.4f}); "
        f"fi e^(4gt) variation on [2,10]: {variation:.1%} (budget 5%)"
    )
    _report(5, ok, detail, tm.elapsed)
    assert tm.elapsed < 1.0
    assert ok, detail


def test_criterion_6_sdpi_envelopes():
    """>= 100 randomized Gaussian pairs: the exact FI curve never exceeds
    envelope * FI(0) for the four envelope families, tolerance 1e-9."""
    with _Timer(5.0) as tm:
        rng = np.random.default_rng(99)
        heat_ts = np.concatenate([[0.0], np.geomspace(1e-2, 100.0, 30)])
        ou_ts = np.concatenate([[0.0], np.geomspace(1e-2, 10.0, 30)])
        pairs = 0

        # the cancellation-free curve keeps the comparison meaningful at the
        # 1e-9 tolerance even where the values decay below double rounding
        def dominated(p, q, channel, env, ts):
            fi0 = fp.fisher_information(p, q)
            curve = fp.fi_curve(p, q, channel, ts)
            bounds = np.array([env.factor(t) for t in ts]) * fi0
            return bool(np.all(curve <= bounds * (1 + 1e-9) + 1e-300))

        for _ in range(40):  # heat, SLC, arbitrary means
            vq = rng.uniform(0.3, 3.0)
            p = fp.IsoGaussian([rng.uniform(-3, 3)], rng.uniform(0.3, 3.0))
            q = fp.IsoGaussian([0.0], vq)
            assert dominated(p, q, fp.Heat(), fp.HeatSLC(1.0 / vq), heat_ts)
            pairs += 1
        for _ in range(30):  # heat, SLC + symmetric Poincare
            vp, vq = rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
            p, q = fp.IsoGaussian([0.0], vp), fp.IsoGaussian([0.0], vq)
            assert dominated(p, q, fp.Heat(), fp.HeatSLCPoincare(1.0 / vq, 1.0 / vp), heat_ts)
            pairs += 1
        for _ in range(40):  # OU, SLC, arbitrary means
            gamma = rng.uniform(0.5, 2.0)
            vq = rng.uniform(0.3, 3.0)
            p = fp.IsoGaussian([rng.uniform(-3, 3)], rng.uniform(0.3, 3.0))
            q = fp.IsoGaussian([0.0], vq)
            assert dominated(p, q, fp.OU(gamma), fp.OuSLC(1.0 / vq, gamma), ou_ts)
            pairs += 1
        for _ in range(30):  # OU, SLC + symmetric Poincare
            gamma = rng.uniform(0.5, 2.0)
            vp, vq = rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
            p, q = fp.IsoGaussian([0.0], vp), fp.IsoGaussian([0.0], vq)
            assert dominated(p, q, fp.OU(gamma), fp.OuSLCPoincare(1.0 / vq, 1.0 / vp, gamma), ou_ts)
            pairs += 1
    _report(6, True, f"{pairs} randomized pairs dominated across 4 envelope families", tm.elapsed)
    assert tm.elapsed < 5.0


def test_criterion_7_derivative_identities():
    """Central finite differences of KL and FI along heat and OU match the
    closed-form derivative formulas to relative error 1e-4 on 24 cases."""
    with _Timer(1.0) as tm:
        h = 1e-4
        cases = 0
        worst = 0.0
        for vp, vq in [(0.5, 1.0), (2.0, 1.0), (1.5, 0.8), (0.8, 1.6)]:
            for m in (0.0, 0.7, -1.3):
                for channel, t in ((fp.Heat(), 0.3), (fp.OU(0.7), 0.3)):
                    p = fp.IsoGaussian([m], vp)
                    q = fp.IsoGaussian([0.0], vq)

                    def kl_at(s):
                        return fp.kl_divergence(fp.evolve(p, channel, s), fp.evolve(q, channel, s))

                    def fi_at(s):
                        return fp.fisher_information(
                            fp.evolve(p, channel, s), fp.evolve(q, channel, s)
                        )

                    pt, qt = fp.evolve(p, channel, t), fp.evolve(q, channel, t)
                    fd_kl = (kl_at(t + h) - kl_at(t - h)) / (2 * h)
                    fd_fi = (fi_at(t + h) - fi_at(t - h)) / (2 * h)
                    cl_kl = kl_time_derivative(pt, qt, channel)
                    cl_fi = fi_time_derivative(pt, qt, channel)
                    worst = max(
                        worst, abs(fd_kl - cl_kl) / abs(cl_kl), abs(fd_fi - cl_fi) / abs(cl_fi)
                    )
                    cases += 1
        assert worst <= 1e-4
    _report(7, True, f"{cases} cases, worst relative error {worst:.2e}", tm.elapsed)
    assert tm.elapsed < 1.0


def test_criterion_8_gap_lemma():
    """Spike construction certifies r_inf <= eps and fi >= floor for
    (0.5, 10) and (0.1, 100)."""
    with _Timer(10.0) as tm:
        results = []
        for eps, floor in [(0.5, 10.0), (0.1, 100.0)]:
            spec = fp.spike_spec(eps, floor)
            grid = fp.EvalGrid(-(spec.a + 12.0), spec.a + 12.0, 2e-4)
            r_inf, fi = fp.gap_check(spec, grid)
            assert r_inf <= eps + 1e-6 and fi >= floor - 1e-6
            results.append((eps, floor, r_inf, fi))
    detail = "; ".join(f"eps={e:g}: r_inf={r:.4f}, fi={f:.2f}>={fl:g}" for e, fl, r, f in results)
    _report(8, True, detail, tm.elapsed)
    assert tm.elapsed < 10.0


def test_criterion_9_optimization_analogue():
    """Quadratic preset: exact per-step ratio to 1e-12.  Quartic preset:
    gradient-flow and proximal-gradient envelopes with slack 1e-6."""
    with _Timer(5.0) as tm:
        eta = 1.0
        quad = fp.quadratic_potential(1, 1.0)
        trace = fp.prox_grad_run(quad, [1.0], eta, 25)
        gsq = trace.grad_sq_norms
        live = gsq[:-1] > 1e-280
        ratios = gsq[1:][live] / gsq[:-1][live]
        target = 1.0 / (1.0 + eta) ** 2
        worst_ratio = float(np.max(np.abs(ratios - target)))
        assert worst_ratio <= 1e-12

        quartic = fp.quartic_1d()
        ts, flow = fp.gradient_flow(quartic, [1.0], 5.0, 0.02)
        assert np.all(flow <= flow[0] * np.exp(-2.0 * quartic.alpha * ts) * (1 + 1e-6))
        qtrace = fp.prox_grad_run(quartic, [1.0], eta, 25)
        envelope = qtrace.grad_sq_norms[0] / (1.0 + quartic.alpha * eta) ** (2 * np.arange(26))
        assert np.all(qtrace.grad_sq_norms <= envelope * (1 + 1e-6) + 1e-300)
    _report(9, True, f"quadratic ratio dev {worst_ratio:.1e}; quartic envelopes hold", tm.elapsed)
    assert tm.elapsed < 5.0


def _gaussian_functionals(m, vp, vq, grid):
    """(fi, kl) of N(m, vp) against N(0, vq) through the grid functionals."""
    x = grid.points
    logrho = -0.5 * math.log(2.0 * math.pi * vp) - (x - m) ** 2 / (2.0 * vp)
    lognu = -0.5 * math.log(2.0 * math.pi * vq) - x**2 / (2.0 * vq)
    score_diff = -(x - m) / vp + x / vq
    fi, kl, _ = fp.fi_kl_functional(logrho, score_diff, lognu, grid)
    return fi.value, kl.value


def test_criterion_10_quadrature_oracle():
    """FI/KL functionals match the closed forms on 25 Gaussian pairs to
    1e-6, and grid/order refinement moves results by <= 1e-6 relative."""
    with _Timer(30.0) as tm:
        rng = np.random.default_rng(1234)
        grid = fp.EvalGrid(-42.0, 42.0, 2e-3)
        fine = fp.EvalGrid(grid.lo, grid.hi, grid.step / 2)
        worst_match = worst_refine = 0.0
        for _ in range(25):
            vq = rng.uniform(0.5, 2.0)
            vp = vq * 10.0 ** rng.uniform(-1.0, 1.0)  # ratios across [0.1, 10]
            m = rng.uniform(0.0, 3.0)
            p, q = fp.IsoGaussian([m], vp), fp.IsoGaussian([0.0], vq)
            fi, kl = _gaussian_functionals(m, vp, vq, grid)
            fi_exact = fp.fisher_information(p, q)
            kl_exact = fp.kl_divergence(p, q)
            worst_match = max(
                worst_match,
                abs(fi - fi_exact) / max(fi_exact, 1e-12),
                abs(kl - kl_exact) / max(kl_exact, 1e-12),
            )
            fi2, kl2 = _gaussian_functionals(m, vp, vq, fine)
            worst_refine = max(
                worst_refine,
                abs(fi - fi2) / max(fi2, 1e-12),
                abs(kl - kl2) / max(kl2, 1e-12),
            )
        assert worst_match <= 1e-6
        assert worst_refine <= 1e-6

        # smoothed-density route: the closed form the CLI runs, at its default
        # step, must stay within 1e-6 relative of Gauss-Hermite-256 at half the step
        a = fp.counterexample_trace(2, 2, [0.0, 0.5])
        b = fp.counterexample_trace(2, 2, [0.0, 0.5], order=256, step=5e-4, threads=2)
        for ra, rb in zip(a.rows, b.rows):
            worst_refine = max(
                worst_refine, abs(ra.fi - rb.fi) / rb.fi, abs(ra.kl - rb.kl) / rb.kl
            )
        assert worst_refine <= 1e-6
    _report(
        10, True,
        f"closed-form agreement {worst_match:.2e}; refinement drift {worst_refine:.2e}",
        tm.elapsed,
    )
    assert tm.elapsed < 30.0
