import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import fplab as fp
from fplab.sampler import AcceptanceExponentError, TrialCapExceeded


class AlwaysReject:
    """rng stand-in whose uniform draw (``random``) is 1, so log U = 0 never
    accepts (the acceptance exponent is strictly negative almost surely)."""

    def __init__(self, inner):
        self.inner = inner

    def standard_normal(self, n):
        return self.inner.standard_normal(n)

    def random(self):
        return 1.0


class TestConfig:
    def test_defaults_resolve(self):
        g = fp.quadratic_potential(2, 1.0)
        cfg = fp.SamplerConfig(eta=0.25, iters=100, seed=1)
        assert cfg.resolved_burn_in() == 25
        floor = 10 * math.ceil(fp.expected_trials_bound(0.25, 1.0, 2))
        assert cfg.resolved_max_trials(g) >= floor

    def test_step_size_validity_checked(self):
        g = fp.quadratic_potential(2, 1.0)
        cfg = fp.SamplerConfig(eta=1.5, iters=10, seed=0)
        with pytest.raises(ValueError, match="eta \\* smoothness < 1"):
            fp.run_chain(g, np.zeros(2), cfg)

    def test_field_validation(self):
        with pytest.raises(ValueError):
            fp.SamplerConfig(eta=0.0, iters=10, seed=0)
        with pytest.raises(ValueError):
            fp.SamplerConfig(eta=0.1, iters=0, seed=0)
        with pytest.raises(ValueError):
            fp.SamplerConfig(eta=0.1, iters=10, seed=0, burn_in=10)

    @pytest.mark.parametrize("seed", [1.5, "7", True, -1, 2**64])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError, match="seed"):
            fp.SamplerConfig(eta=0.1, iters=10, seed=seed)

    @pytest.mark.parametrize("burn_in", [2.5, "2", True, -1])
    def test_burn_in_must_be_an_integer(self, burn_in):
        with pytest.raises(ValueError, match="burn_in"):
            fp.SamplerConfig(eta=0.1, iters=10, seed=0, burn_in=burn_in)

    def test_numpy_integers_are_integers(self):
        cfg = fp.SamplerConfig(eta=0.1, iters=np.int64(10), seed=np.uint64(2**64 - 1),
                               burn_in=np.int32(2))
        assert cfg.resolved_burn_in() == 2

    def test_kappa(self):
        assert fp.rejection_kappa(0.2, 1.0) == pytest.approx(1.5, abs=1e-15)
        assert fp.expected_trials_bound(0.2, 1.0, 5) == pytest.approx(1.5**2.5, rel=1e-14)
        with pytest.raises(ValueError):
            fp.rejection_kappa(1.0, 1.0)


class TestForwardStep:
    def test_determinism(self):
        x = np.array([1.0, -2.0])
        a = fp.forward_step(x, 0.3, fp.chain_rng(9))
        b = fp.forward_step(x, 0.3, fp.chain_rng(9))
        assert np.all(a == b)

    def test_small_eta_limit(self):
        x = np.array([1.0, -2.0])
        out = fp.forward_step(x, 1e-30, fp.chain_rng(0))
        assert np.allclose(out, x, atol=1e-14)

    def test_moment_scaling(self):
        rng = fp.chain_rng(1)
        x = np.zeros(1)
        eta = 0.37
        n = 100_000
        draws = np.array([fp.forward_step(x, eta, rng)[0] for _ in range(n)])
        se_var = math.sqrt(2.0 / n) * eta
        assert abs(draws.var() - eta) <= 3 * se_var
        assert abs(draws.mean()) <= 3 * math.sqrt(eta / n)

    def test_eta_validated(self):
        with pytest.raises(ValueError):
            fp.forward_step(np.zeros(1), 0.0, fp.chain_rng(0))


class TestRgoSample:
    def test_minimizer_closed_form(self):
        d, alpha, eta = 3, 1.0, 0.25
        g = fp.quadratic_potential(d, alpha)
        cfg = fp.SamplerConfig(eta=eta, iters=10, seed=0)
        y = np.array([0.5, -1.0, 2.0])
        rng = fp.chain_rng(3)
        # the accepted draw is centered at y/(1+alpha eta): check via many draws
        n = 20_000
        draws = np.empty((n, d))
        for i in range(n):
            draws[i], _ = fp.rgo_sample(g, y, eta, cfg, rng)
        center = y / (1.0 + alpha * eta)
        cond_var = eta / (1.0 + alpha * eta)
        se_mean = math.sqrt(cond_var / n)
        se_var = math.sqrt(2.0 / n) * cond_var
        assert np.all(np.abs(draws.mean(axis=0) - center) <= 3 * se_mean)
        assert np.all(np.abs(draws.var(axis=0, ddof=1) - cond_var) <= 3 * se_var)

    def test_expected_trials_matches_kappa(self):
        # for a quadratic with alpha = L the per-proposal acceptance rate is
        # exactly kappa^{-d/2}, so mean trials converge to kappa^{d/2}
        d, eta = 2, 0.4
        g = fp.quadratic_potential(d, 1.0)
        cfg = fp.SamplerConfig(eta=eta, iters=10, seed=0)
        rng = fp.chain_rng(4)
        y = np.array([0.3, -0.6])
        n = 20_000
        counts = np.empty(n)
        for i in range(n):
            _, counts[i] = fp.rgo_sample(g, y, eta, cfg, rng)
        kappa_half_d = fp.expected_trials_bound(eta, 1.0, d)
        se = counts.std(ddof=1) / math.sqrt(n)
        assert abs(counts.mean() - kappa_half_d) <= 3 * se

    def test_exactness_kolmogorov_smirnov(self):
        # d=1 draws against the known conditional normal at significance 1e-3
        alpha, eta = 1.0, 0.5
        g = fp.quadratic_potential(1, alpha)
        cfg = fp.SamplerConfig(eta=eta, iters=10, seed=0)
        rng = fp.chain_rng(5)
        y = np.array([0.8])
        draws = np.array([fp.rgo_sample(g, y, eta, cfg, rng)[0][0] for _ in range(10_000)])
        loc = y[0] / (1.0 + alpha * eta)
        scale = math.sqrt(eta / (1.0 + alpha * eta))
        result = stats.kstest(draws, stats.norm(loc=loc, scale=scale).cdf)
        assert result.pvalue > 1e-3

    def test_trial_cap_raises(self):
        g = fp.quadratic_potential(1, 1.0)
        cfg = fp.SamplerConfig(eta=0.5, iters=10, seed=0)
        with pytest.raises(TrialCapExceeded):
            fp.rgo_sample(g, np.array([0.0]), 0.5, cfg, AlwaysReject(fp.chain_rng(6)))

    def test_positive_exponent_flags_bad_constants(self):
        # a potential whose value drops away from y while its declared
        # gradient is zero: domination is impossible, so the guard must trip
        lying = fp.SmoothPotential(
            dim=1,
            value=lambda x: -10.0 * float(np.abs(x).sum()),
            gradient=lambda x: np.zeros_like(x),
            alpha=1.0,
            smoothness=1.0,
        )
        cfg = fp.SamplerConfig(eta=0.5, iters=10, seed=0)
        with pytest.raises(AcceptanceExponentError):
            fp.rgo_sample(lying, np.array([0.0]), 0.5, cfg, fp.chain_rng(7))

    def test_eta_smoothness_product_validated(self):
        g = fp.quadratic_potential(1, 2.0)
        cfg = fp.SamplerConfig(eta=0.5, iters=10, seed=0)
        with pytest.raises(ValueError):
            fp.rgo_sample(g, np.array([0.0]), 0.5, cfg, fp.chain_rng(8))


class TestProxPoint:
    """The quadratic's closed-form prox point against gradient descent, the
    route every other target takes."""

    @staticmethod
    def plain(q):
        # the same value and gradient without the QuadraticPotential type, so
        # rgo_sample solves for the prox point with minimize
        return fp.SmoothPotential(dim=q.dim, value=q.value, gradient=q.gradient,
                                  alpha=q.alpha, smoothness=q.smoothness)

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_chain_matches_gradient_descent_route(self, d, monkeypatch):
        center = 3.0 + np.arange(d)
        q = fp.quadratic_potential(d, 1.0, center)
        cfg = fp.SamplerConfig(eta=1.0 / max(d, 2), iters=2000, seed=42)
        x0 = center + 0.5
        assert fp.sampler.prox_route(q) == "closed-form"
        assert fp.sampler.prox_route(self.plain(q)) == "gradient-descent"
        oracle = fp.run_chain(self.plain(q), x0, cfg)

        def no_minimize(*args, **kwargs):
            raise AssertionError("the quadratic's prox point went through minimize")

        monkeypatch.setattr(fp.sampler, "minimize", no_minimize)
        closed = fp.run_chain(q, x0, cfg)
        np.testing.assert_array_equal(closed.trial_counts, oracle.trial_counts)
        np.testing.assert_allclose(closed.samples, oracle.samples, rtol=1e-12, atol=0.0)

    def test_closed_form_is_prox_grad_step(self):
        rng = np.random.default_rng(5)
        q = fp.quadratic_potential(3, 2.5, [1.0, -2.0, 0.5])
        for y in 10.0 * rng.standard_normal((20, 3)):
            for eta in (1e-3, 0.3, 7.0):
                x = q.prox_point(y, eta)
                assert x.tobytes() == fp.optim.prox_grad_step(q, y, eta).tobytes()
                f_y = fp.potentials.prox_objective(q, y, eta)
                assert np.linalg.norm(f_y.gradient(x)) <= 1e-12 * (1.0 + np.linalg.norm(y)) / eta


class TestRunChain:
    def test_stationary_moments(self):
        d, alpha, L = 5, 1.0, 1.0
        eta = 1.0 / (d * L)
        g = fp.quadratic_potential(d, alpha)
        cfg = fp.SamplerConfig(eta=eta, iters=20_000, seed=7)
        x0 = fp.chain_rng(7, 1).standard_normal(d) / math.sqrt(alpha)
        out = fp.run_chain(g, x0, cfg)
        n = out.samples.shape[0]
        a = 1.0 / (1.0 + alpha * eta)
        se_mean = math.sqrt((1.0 / alpha) / n * (1.0 + a) / (1.0 - a))
        se_var = math.sqrt(2.0 / (alpha**2 * n) * (1.0 + a * a) / (1.0 - a * a))
        assert np.all(np.abs(out.mean) <= 3 * se_mean)
        assert np.all(np.abs(out.var - 1.0 / alpha) <= 3 * se_var)

    @pytest.mark.parametrize("d,eta,iters", [(5, 0.2, 20_000), (2, 0.3, 5_000)])
    def test_trial_count_bound(self, d, eta, iters):
        L = 1.0
        g = fp.quadratic_potential(d, L)
        cfg = fp.SamplerConfig(eta=eta, iters=iters, seed=7)
        out = fp.run_chain(g, np.zeros(d), cfg)
        bound = fp.expected_trials_bound(eta, L, d)
        assert out.mean_trials <= bound * (1.0 + 3.0 / math.sqrt(cfg.iters))
        assert np.all(out.trial_counts >= 1)

    def test_seed_determinism_byte_for_byte(self):
        g = fp.quadratic_potential(3, 1.0)
        cfg = fp.SamplerConfig(eta=0.2, iters=500, seed=42)
        a = fp.run_chain(g, np.ones(3), cfg)
        b = fp.run_chain(g, np.ones(3), cfg)
        assert a.samples.tobytes() == b.samples.tobytes()
        assert a.trial_counts.tobytes() == b.trial_counts.tobytes()
        assert a.x_final.tobytes() == b.x_final.tobytes()
        assert a.mean_trials == b.mean_trials

    def test_distinct_chains_differ(self):
        g = fp.quadratic_potential(2, 1.0)
        cfg = fp.SamplerConfig(eta=0.2, iters=50, seed=42)
        a = fp.run_chain(g, np.ones(2), cfg, chain=0)
        b = fp.run_chain(g, np.ones(2), cfg, chain=1)
        assert not np.array_equal(a.samples, b.samples)

    def test_stationarity_across_seeds(self):
        # x0 ~ nu for each of 200 seeds; pooled one-step marginals stay nu
        d, alpha, eta = 1, 1.0, 0.5
        g = fp.quadratic_potential(d, alpha)
        finals = []
        for seed in range(200):
            x0 = fp.chain_rng(seed, 1).standard_normal(d) / math.sqrt(alpha)
            cfg = fp.SamplerConfig(eta=eta, iters=5, seed=seed, burn_in=0)
            finals.append(fp.run_chain(g, x0, cfg).x_final[0])
        finals = np.array(finals)
        assert abs(finals.mean()) <= 3.0 / math.sqrt(200)
        assert abs(finals.var(ddof=1) - 1.0) <= 3.0 * math.sqrt(2.0 / 200)

    def test_dimension_mismatch(self):
        g = fp.quadratic_potential(2, 1.0)
        cfg = fp.SamplerConfig(eta=0.2, iters=10, seed=0)
        with pytest.raises(ValueError):
            fp.run_chain(g, np.zeros(3), cfg)


def quadratic(d, c, L, center):
    """c/2 |x - center|^2 as a QuadraticPotential declaring smoothness L,
    which may differ from its curvature c."""
    center = np.asarray(center, dtype=float)
    return fp.potentials.QuadraticPotential(
        dim=d, value=lambda x: 0.5 * c * float(np.dot(x - center, x - center)),
        gradient=lambda x: c * (x - center), alpha=L, smoothness=L,
        center=center, curvature=c,
    )


def per_step(q):
    """q's value, gradient and closed-form prox point without the
    QuadraticPotential type, so run_chain takes the per-step loop."""
    p = fp.SmoothPotential(dim=q.dim, value=q.value, gradient=q.gradient,
                           alpha=q.alpha, smoothness=q.smoothness)
    object.__setattr__(p, "prox_point", q.prox_point)
    return p


def assert_same_run(a, b):
    assert a.trial_counts.tobytes() == b.trial_counts.tobytes()
    assert a.samples.tobytes() == b.samples.tobytes()
    assert a.x_final.tobytes() == b.x_final.tobytes()


class TestStateFreeRoute:
    """The quadratic's pooled route against the per-step loop it replaces."""

    def test_routes(self):
        q = fp.quadratic_potential(2, 1.0)
        assert fp.sampler.acceptance_route(q) == "state-free"
        assert fp.sampler.acceptance_route(per_step(q)) == "per-step"
        assert fp.sampler.acceptance_route(fp.potentials.quartic_1d()) == "per-step"

    @pytest.mark.parametrize("d,eta", [(5, 0.2), (1, 0.5), (3, 1 / 3), (10, 0.05), (2, 0.45)])
    def test_matches_per_step_loop(self, d, eta):
        q = fp.quadratic_potential(d, 1.0, 2.0 - np.arange(d))
        cfg = fp.SamplerConfig(eta=eta, iters=5000, seed=2024)
        x0 = 3.0 + np.arange(d)
        assert_same_run(fp.run_chain(q, x0, cfg), fp.run_chain(per_step(q), x0, cfg))

    @pytest.mark.parametrize("d,iters", [(20, 4000), (30_000, 5), (3, 2)])
    def test_matches_across_pools_and_chunks(self, d, iters):
        # pools and forward chunks of 2^16 floats: the first two chains span
        # several of each, and (30_000, 5) carries a step's rejections over
        # pools of two proposals
        q = quadratic(d, 0.7, 1.0, np.linspace(-1.0, 2.0, d))
        cfg = fp.SamplerConfig(eta=1.0 / d if d > 3 else 0.3, iters=iters, seed=5, burn_in=0)
        x0 = np.full(d, 0.5)
        pooled = fp.run_chain(q, x0, cfg, chain=3)
        assert_same_run(pooled, fp.run_chain(per_step(q), x0, cfg, chain=3))
        rows = fp.sampler._BLOCK_FLOATS // d
        if d > 3:
            assert iters > rows and pooled.trial_counts.sum() > 2 * rows

    @pytest.mark.parametrize("c,L", [(0.3, 1.7), (2.5, 0.4), (-1.0, 1.5), (1.0, 1.0)])
    def test_exponent_is_state_free(self, c, L):
        # -(c + L) s^2 |xi|^2 / 2 is rgo_sample's exponent at every y
        rng = np.random.default_rng(17)
        d, eta = 4, 0.25
        q = quadratic(d, c, L, [1.0, -2.0, 0.5, 3.0])
        s2 = eta / (1.0 - eta * L)
        for _ in range(200):
            y, xi = 3.0 * rng.standard_normal(d), rng.standard_normal(d)
            f_y = fp.potentials.prox_objective(q, y, eta)
            x_star = q.prox_point(y, eta)
            z = x_star + math.sqrt(s2) * xi
            exponent = (-f_y.value(z) + f_y.value(x_star)
                        + (1.0 - eta * L) / (2.0 * eta) * float(np.dot(z - x_star, z - x_star)))
            assert exponent == pytest.approx(-0.5 * (c + L) * s2 * float(np.dot(xi, xi)),
                                             rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d", [1, 30_000])
    def test_curvature_below_minus_smoothness_trips_the_guard(self, d):
        q = quadratic(d, -3.0, 1.0, np.ones(d))
        cfg = fp.SamplerConfig(eta=0.1 / d, iters=10, seed=0)
        for g in (q, per_step(q)):
            with pytest.raises(AcceptanceExponentError):
                fp.run_chain(g, np.zeros(d), cfg)

    @pytest.mark.parametrize("d", [1, 30_000])
    def test_trial_cap_raises(self, d):
        # curvature far above the declared smoothness: acceptance near zero
        q = quadratic(d, 1e6, 1.0, np.zeros(d))
        cfg = fp.SamplerConfig(eta=0.5 / d, iters=10, seed=0)
        for g in (q, per_step(q)):
            with pytest.raises(TrialCapExceeded, match=f"within {cfg.resolved_max_trials(q)} "):
                fp.run_chain(g, np.zeros(d), cfg)

    @pytest.mark.parametrize("d,iters", [(3, 400), (30_000, 6)])
    def test_cap_is_exact_across_pools(self, d, iters, monkeypatch):
        # a cap of the longest step's trials passes and one less aborts, on
        # both routes; at d = 30_000 a pool holds two proposals
        q = quadratic(d, 1.0, 1.0, np.zeros(d))
        cfg = fp.SamplerConfig(eta=1.0 / d if d > 3 else 0.3, iters=iters, seed=8)
        longest = int(fp.run_chain(q, np.zeros(d), cfg).trial_counts.max())
        assert longest > (2 if d > 3 else 1)
        for cap in (longest, longest - 1):
            monkeypatch.setattr(fp.SamplerConfig, "resolved_max_trials", lambda self, g: cap)
            for g in (q, per_step(q)):
                if cap == longest:
                    assert fp.run_chain(g, np.zeros(d), cfg).trial_counts.max() == longest
                else:
                    with pytest.raises(TrialCapExceeded):
                        fp.run_chain(g, np.zeros(d), cfg)

    def test_rejection_runs_carried_across_small_pools(self, monkeypatch):
        # pools of three proposals at d = 5: most steps that reject start their
        # run in one pool and accept in a later one
        monkeypatch.setattr(fp.sampler, "_BLOCK_FLOATS", 15)
        d = 5
        q = quadratic(d, 1.0, 1.0, np.zeros(d))
        cfg = fp.SamplerConfig(eta=0.2, iters=2000, seed=8)
        pooled = fp.run_chain(q, np.zeros(d), cfg)
        assert_same_run(pooled, fp.run_chain(per_step(q), np.zeros(d), cfg))
        accepted = np.cumsum(pooled.trial_counts) - 1  # proposal index of each acceptance
        first = accepted - pooled.trial_counts + 1
        assert np.count_nonzero(first // 3 != accepted // 3) > 500
        longest = int(pooled.trial_counts.max())
        for cap in (longest, longest - 1):
            monkeypatch.setattr(fp.SamplerConfig, "resolved_max_trials", lambda self, g: cap)
            if cap == longest:
                assert fp.run_chain(q, np.zeros(d), cfg).trial_counts.max() == longest
            else:
                with pytest.raises(TrialCapExceeded):
                    fp.run_chain(q, np.zeros(d), cfg)

    def test_memory_is_bounded_across_many_pools(self):
        # about 17 pools of 32 proposals; the route holds a pool or two at a
        # time, where deciding every step's offsets up front would hold eight
        d = 2000
        cfg = fp.SamplerConfig(eta=1.0 / d, iters=200, seed=4, burn_in=198)
        q = fp.quadratic_potential(d, 1.0)
        # the first chain in a process imports what seeding needs, about 1 MB;
        # a short one first keeps that out of the peak
        fp.run_chain(fp.quadratic_potential(2, 1.0), np.zeros(2),
                     fp.SamplerConfig(eta=0.1, iters=2, seed=0))
        tracemalloc.start()
        try:
            run = fp.run_chain(q, np.zeros(d), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pool_bytes = fp.sampler._BLOCK_FLOATS * 8
        assert run.trial_counts.sum() > 15 * (fp.sampler._BLOCK_FLOATS // d)
        assert peak < 5 * pool_bytes

    def test_large_dimension_allocates_a_bounded_pool(self):
        # pools and chunks hold 2^16 floats: a pool of 4,096 rows would take 655 MB here
        d = 20_000
        cfg = fp.SamplerConfig(eta=1.0 / d, iters=3, seed=3)
        q = fp.quadratic_potential(d, 1.0)
        tracemalloc.start()
        try:
            fp.run_chain(q, np.zeros(d), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * d * 8

    def test_philox_draws_do_not_depend_on_block_size(self):
        # both routes consume identical numbers only while numpy draws the
        # same values one at a time as in a block
        def streams():
            return fp.chain_rng(99), fp.chain_rng(99)

        blocked, single = streams()
        rows = np.concatenate([blocked.standard_normal((n, 3)) for n in (1, 7, 64)])
        np.testing.assert_array_equal(rows, [single.standard_normal(3) for _ in range(72)])
        blocked, single = streams()
        u = np.concatenate([blocked.random(n) for n in (1, 5, 130)])
        np.testing.assert_array_equal(u, [single.random() for _ in range(136)])


def prox_fi(alpha, eta, p0, k):
    """(fi_k, bound_k) of the closed-form Gaussian chain to N(0, I/alpha), as
    ``gaussian-rates --channel prox`` has them: fi_k by ``fi_curve`` along
    ``Proximal``, bound_k = fi_0 / (1 + alpha eta)^(2k)."""
    target = fp.IsoGaussian(np.zeros(p0.dim), 1.0 / alpha)
    fi_k = float(fp.fi_curve(p0, target, fp.Proximal(alpha, eta), [k])[0])
    return fi_k, fp.ProxRate(alpha, eta).factor(k) * fp.fisher_information(p0, target)


class TestFiCertificate:
    def test_bound_factor_is_one_at_zero(self):
        p0 = fp.IsoGaussian([1.0], 1.0)
        fi0, bound0 = prox_fi(1.0, 1.0, p0, 0)
        assert fi0 == bound0

    def test_unit_setup_quarters_exactly(self):
        p0 = fp.IsoGaussian([1.0], 1.0)
        for k in range(31):
            fi_k, bound_k = prox_fi(1.0, 1.0, p0, k)
            assert fi_k == pytest.approx(4.0 ** (-k), rel=1e-12)
            assert fi_k <= bound_k * (1 + 1e-12)

    def test_centered_start_has_squared_rate(self):
        p0 = fp.IsoGaussian([0.0], 2.0)
        cap = (1.0 - 2.0) ** 2 * max(1.0, 0.5)  # limiting constant of fi_k 16^k
        for k in range(1, 20):
            fi_k, _ = prox_fi(1.0, 1.0, p0, k)
            assert fi_k * 16.0**k <= cap * (1 + 1e-12)

    def test_iteration_budget_reaches_eps(self):
        # non-degenerate start (alpha < L) through the closed-form chain
        alpha, L = 0.5, 1.0
        for d in (1, 2, 5):
            eta = 1.0 / (d * L)
            p0 = fp.IsoGaussian(np.zeros(d), 1.0 / L)
            for eps in (1e-2, 1e-6):
                k = fp.iteration_count(d, L, alpha, eps)
                fi_k, _ = prox_fi(alpha, eta, p0, k)
                assert fi_k <= eps
