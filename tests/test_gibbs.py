import ctypes
import math

import numpy as np
import pytest
from scipy import stats

from hetgibbs.design import Dataset, Hyperparams, ModelSpec
from hetgibbs.gibbs import (
    ChainState,
    GibbsConfig,
    GibbsError,
    beta2_conditional,
    concatenate_chains,
    eta2_conditional,
    fc_beta1,
    fc_beta2,
    fc_eta1,
    fc_eta2,
    fc_inv_sigma_eta2,
    fc_s,
    fc_sigma2_eta1,
    gaussian_conditional,
    initial_state,
    inv_sigma_eta2_conditional,
    inverse_gaussian_sample,
    run_gibbs,
)
from hetgibbs.mlg import cmlg_sample, log_gamma_sample


def loaded_openblas():
    """(get, set) thread-count functions of each OpenBLAS in this process.

    Found from the process's memory map, apart from the package's own lookup.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return []
    names = [(f"{p}_get_num_threads{w}", f"{p}_set_num_threads{w}")
             for w in ("64_", "") for p in ("scipy_openblas", "openblas")]
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        pairs = [(getattr(lib, g, None), getattr(lib, s, None)) for g, s in names]
        get, set_ = next((pair for pair in pairs if None not in pair), (None, None))
        if get is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            found.append((get, set_))
    return found


def make_spec(X1, X2, Psi1=None, Psi2=None, likelihood="gaussian", hyper=None):
    X1 = np.atleast_2d(np.asarray(X1, dtype=float))
    n = X1.shape[0]
    return ModelSpec(
        X1=X1,
        Psi1=np.empty((n, 0)) if Psi1 is None else Psi1,
        X2=np.asarray(X2, dtype=float).reshape(n, -1),
        Psi2=np.empty((n, 0)) if Psi2 is None else Psi2,
        likelihood=likelihood,
        hyper=hyper if hyper is not None else Hyperparams(),
    )


def state_for(spec, beta1=None, beta2=None, eta1=None, eta2=None, s=None,
              sigma2_eta1=1.0, sigma_eta2=1.0):
    return ChainState(
        beta1=np.zeros(spec.p1) if beta1 is None else np.asarray(beta1, dtype=float),
        eta1=np.zeros(spec.r1) if eta1 is None else np.asarray(eta1, dtype=float),
        beta2=np.zeros(spec.p2) if beta2 is None else np.asarray(beta2, dtype=float),
        eta2=np.zeros(spec.r2) if eta2 is None else np.asarray(eta2, dtype=float),
        sigma2_eta1=sigma2_eta1,
        sigma_eta2=sigma_eta2,
        s=s,
    )


class TestMeanBlocks:
    def test_scalar_conjugate_normal(self):
        # n=1, unit variance, y=2, prior variance 1: posterior N(1, 1/2)
        spec = make_spec([[1.0]], [[1.0]], hyper=Hyperparams(sigma2_beta1=1.0))
        data = Dataset(y=np.array([2.0]))
        state = state_for(spec)  # beta2 = 0 -> sigma2 = 1
        Q, b = gaussian_conditional(spec.X1, np.ones(1), data.y, 1.0)
        assert np.isclose(b[0] / Q[0, 0], 1.0) and np.isclose(1.0 / Q[0, 0], 0.5)
        rng = np.random.default_rng(0)
        draws = np.array([fc_beta1(state, spec, data, rng)[0] for _ in range(20_000)])
        assert abs(draws.mean() - 1.0) < 0.02
        assert abs(draws.var() - 0.5) < 0.02

    def test_diffuse_prior_approaches_gls(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(5, 2))
        y = rng.normal(size=5)
        w = rng.uniform(0.5, 2.0, size=5)
        Q, b = gaussian_conditional(X, w, y, 1e-8)
        mean = np.linalg.solve(Q, b)
        gls = np.linalg.solve(X.T @ (X * w[:, None]), X.T @ (w * y))
        assert np.allclose(mean, gls, rtol=1e-3)

    def test_fixed_seed_identical_draw(self):
        spec = make_spec(np.ones((10, 1)), np.ones((10, 1)))
        data = Dataset(y=np.arange(10.0))
        state = state_for(spec)
        a = fc_beta1(state, spec, data, np.random.default_rng(3))
        b = fc_beta1(state, spec, data, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_eta1_zero_width_noop(self):
        spec = make_spec(np.ones((4, 1)), np.ones((4, 1)))
        data = Dataset(y=np.zeros(4))
        out = fc_eta1(state_for(spec), spec, data, np.random.default_rng(0))
        assert out.shape == (0,)

    def test_eta1_identity_ridge_shrinkage(self):
        n = 6
        spec = make_spec(np.ones((n, 1)), np.ones((n, 1)), Psi1=np.eye(n))
        y = np.arange(1.0, n + 1.0)
        data = Dataset(y=y)
        state = state_for(spec, beta1=[0.0], sigma2_eta1=1.0)
        Q, b = gaussian_conditional(spec.Psi1, np.ones(n), y, 1.0)
        assert np.allclose(np.linalg.solve(Q, b), y / 2.0)

    def test_eta1_equals_beta1_under_block_renaming(self):
        rng = np.random.default_rng(2)
        M = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        data = Dataset(y=y)
        spec_a = make_spec(M, np.ones((12, 1)), hyper=Hyperparams(sigma2_beta1=2.0))
        spec_b = make_spec(np.zeros((12, 1)) + 1.0, np.ones((12, 1)), Psi1=M)
        sa = state_for(spec_a)
        sb = state_for(spec_b, beta1=[0.0], sigma2_eta1=2.0)
        # offset X1 beta1 is zero in spec_b, so the two conditionals coincide
        da = fc_beta1(sa, spec_a, data, np.random.default_rng(7))
        db = fc_eta1(sb, spec_b, data, np.random.default_rng(7))
        assert np.allclose(da, db, rtol=1e-12)


class TestVarianceBlockAssembly:
    def test_shapes(self):
        n, p2 = 8, 3
        rng = np.random.default_rng(0)
        spec = make_spec(np.ones((n, 1)), rng.normal(size=(n, p2)))
        data = Dataset(y=rng.normal(size=n))
        params = beta2_conditional(state_for(spec), spec, data)
        assert params.H.shape == (n + p2, p2)
        assert params.alpha.shape == (n + p2,)
        assert params.kappa.shape == (n + p2,)

    def test_gaussian_vs_laplace_data_blocks(self):
        n = 5
        rng = np.random.default_rng(1)
        X2 = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        s = np.abs(rng.normal(size=n)) + 0.1
        hyper = Hyperparams(alpha=100.0, sigma2_beta2=4.0)

        spec_g = make_spec(np.ones((n, 1)), X2, hyper=hyper)
        data = Dataset(y=y)
        st_g = state_for(spec_g, beta1=[0.0])
        pg = beta2_conditional(st_g, spec_g, data)
        assert np.allclose(pg.alpha[:n], 0.5)
        assert np.allclose(pg.kappa[:n], 0.5 * y**2)       # mu = 0, eta2 empty

        spec_l = make_spec(np.ones((n, 1)), X2, likelihood="laplace", hyper=hyper)
        st_l = state_for(spec_l, beta1=[0.0], s=s)
        pl = beta2_conditional(st_l, spec_l, data)
        assert np.allclose(pl.alpha[:n], 1.0)
        assert np.allclose(pl.kappa[:n], s)

        # prior rows are identical across modes
        for p in (pg, pl):
            assert np.allclose(p.alpha[n:], hyper.alpha)
            assert np.allclose(p.kappa[n:], hyper.alpha)
            assert np.allclose(
                p.H[n:], (hyper.alpha ** -0.5) / math.sqrt(hyper.sigma2_beta2) * np.eye(2)
            )

    def test_eta2_prior_block_uses_current_scale(self):
        n = 4
        rng = np.random.default_rng(2)
        spec = make_spec(np.ones((n, 1)), np.ones((n, 1)), Psi2=rng.normal(size=(n, 2)))
        data = Dataset(y=rng.normal(size=n))
        st = state_for(spec, sigma_eta2=0.25)
        pe = eta2_conditional(st, spec, data)
        expect = (spec.hyper.alpha ** -0.5) / 0.25 * np.eye(2)
        assert np.allclose(pe.H[n:], expect)

    def test_zero_residual_floored_not_raised(self):
        spec = make_spec(np.ones((3, 1)), np.ones((3, 1)))
        data = Dataset(y=np.zeros(3))
        st = state_for(spec, beta1=[0.0])  # exact zero residuals
        params = beta2_conditional(st, spec, data)
        assert np.all(params.kappa > 0.0)

    def test_swap_of_blocks_matches(self):
        # swapping the fixed and random variance blocks (with priors matched)
        # yields identical assembled conditionals, hence identical draws
        n = 10
        rng = np.random.default_rng(3)
        M = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        data = Dataset(y=y)
        hyper = Hyperparams(sigma2_beta2=4.0)
        spec_a = make_spec(np.ones((n, 1)), M, hyper=hyper)
        st_a = state_for(spec_a, beta1=[0.0])
        spec_b = make_spec(np.ones((n, 1)), np.empty((n, 0)), Psi2=M, hyper=hyper)
        st_b = state_for(spec_b, beta1=[0.0], sigma_eta2=2.0)  # matches sqrt(sigma2_beta2)
        da = fc_beta2(st_a, spec_a, data, np.random.default_rng(11))
        db = fc_eta2(st_b, spec_b, data, np.random.default_rng(11))
        assert np.allclose(da, db, rtol=1e-12)


class TestVarianceBlockLaws:
    def test_intercept_only_matches_inverse_gamma(self):
        # conditional of exp(-beta2) given the mean is inverse-gamma
        rng = np.random.default_rng(4)
        n = 100
        y = rng.normal(0.0, 1.3, size=n)
        spec = make_spec(np.ones((n, 1)), np.ones((n, 1)),
                         hyper=Hyperparams(alpha=1000.0, sigma2_beta2=1000.0))
        data = Dataset(y=y)
        st = state_for(spec, beta1=[0.0])
        rng_d = np.random.default_rng(5)
        draws = np.array([fc_beta2(st, spec, data, rng_d)[0] for _ in range(4000)])
        sigma2 = np.exp(-draws)
        ig = stats.invgamma(n / 2.0, scale=0.5 * float(y @ y))
        assert stats.kstest(sigma2, ig.cdf).pvalue > 0.01
        qs = np.quantile(sigma2, [0.1, 0.25, 0.5, 0.75, 0.9])
        assert np.allclose(qs, ig.ppf([0.1, 0.25, 0.5, 0.75, 0.9]), rtol=0.05)

    def test_projection_mode_inflates_conditional_variance(self):
        # the projection recipe (mlg.cmlg_sample) is kept for study: its
        # conditional variance is about trigamma(1/2)/(n trigamma(n/2)) times
        # the exact one
        rng = np.random.default_rng(6)
        n = 100
        y = rng.normal(0.0, 1.0, size=n)
        spec = make_spec(np.ones((n, 1)), np.ones((n, 1)),
                         hyper=Hyperparams(alpha=1000.0, sigma2_beta2=1000.0))
        data = Dataset(y=y)
        st = state_for(spec, beta1=[0.0])
        rng_e = np.random.default_rng(7)
        rng_p = np.random.default_rng(8)
        exact = np.array([fc_beta2(st, spec, data, rng_e)[0] for _ in range(3000)])
        params = beta2_conditional(st, spec, data)
        proj = np.array([cmlg_sample(rng_p, params)[0] for _ in range(3000)])
        ratio = proj.var() / exact.var()
        assert 1.8 < ratio < 3.2

    def test_exact_scan_log_density_calls_per_draw(self, monkeypatch):
        # the current value's tangent comes from the curvature pass and the
        # two seeds from one Newton step: about 2 + 1.2 calls per draw
        # (5.7 with the five-probe walk from the current value)
        from hetgibbs import gibbs
        from hetgibbs.oracle import SyntheticShape, generate_synthetic, synthetic_model_spec

        counts = {"draws": 0, "calls": 0}
        inner = gibbs.sample_logconcave

        def counting(rng, fg, *args, **kwargs):
            def fg_counted(t):
                counts["calls"] += 1
                return fg(t)

            counts["draws"] += 1
            return inner(rng, fg_counted, *args, **kwargs)

        monkeypatch.setattr(gibbs, "sample_logconcave", counting)
        shape = SyntheticShape(p1=2, p2=2, r1=2, r2=4)
        data, _ = generate_synthetic(shape, seed=12, n=100)
        spec = synthetic_model_spec(data, shape, Hyperparams(trunc_lower=3.0))
        run_gibbs(spec, data, GibbsConfig(iterations=150, burn_in=50, seed=13))
        assert counts["draws"] == 150 * (2 + 4 + 1)
        assert counts["calls"] / counts["draws"] <= 3.6

    def test_hook_receives_assembled_params(self):
        seen = []

        def hook(name, params):
            seen.append((name, params.H.shape))
            return params

        spec = make_spec(np.ones((6, 1)), np.ones((6, 1)))
        data = Dataset(y=np.random.default_rng(0).normal(size=6))
        fc_beta2(state_for(spec, beta1=[0.0]), spec, data, np.random.default_rng(1), hook=hook)
        assert seen == [("beta2", (7, 1))]


class TestScaleBlocks:
    def test_sigma2_eta1_plugin_family(self):
        # a=b=0.5 and eta1=(1,1) give an IG(1.5, 1.5) conditional
        spec = make_spec(np.ones((3, 1)), np.ones((3, 1)),
                         Psi1=np.ones((3, 2)), hyper=Hyperparams(a=0.5, b=0.5))
        st = state_for(spec, eta1=[1.0, 1.0])
        rng = np.random.default_rng(9)
        draws = np.array([fc_sigma2_eta1(st, spec, rng) for _ in range(20_000)])
        assert stats.kstest(draws, stats.invgamma(1.5, scale=1.5).cdf).pvalue > 0.01

    def test_sigma2_eta1_mean_case(self):
        # a=2, b=1, eta1=(1,1): IG(3, 2) with mean 2/(3-1) = 1
        spec = make_spec(np.ones((3, 1)), np.ones((3, 1)),
                         Psi1=np.ones((3, 2)), hyper=Hyperparams(a=2.0, b=1.0))
        st = state_for(spec, eta1=[1.0, 1.0])
        rng = np.random.default_rng(10)
        draws = np.array([fc_sigma2_eta1(st, spec, rng) for _ in range(100_000)])
        assert abs(draws.mean() - 1.0) < 0.02

    def test_inv_sigma_eta2_assembly_and_bound(self):
        hyper = Hyperparams(omega=5.0, rho=5.0, trunc_lower=0.0)
        spec = make_spec(np.ones((4, 1)), np.ones((4, 1)), Psi2=np.ones((4, 3)))
        st = state_for(spec, eta2=[0.1, -0.2, 0.3])
        params = inv_sigma_eta2_conditional(st, hyper)
        assert params.H.shape == (4, 1)
        rng = np.random.default_rng(11)
        draws = np.array([fc_inv_sigma_eta2(st, hyper, rng) for _ in range(2000)])
        assert draws.min() > 0.0

    def test_inv_sigma_eta2_reduction_to_truncated_log_gamma(self):
        # with eta2 = 0 the conditional is log-Gamma(omega, rho) above the bound
        hyper = Hyperparams(omega=5.0, rho=5.0, trunc_lower=0.0)
        spec = make_spec(np.ones((4, 1)), np.ones((4, 1)), Psi2=np.ones((4, 2)))
        st = state_for(spec, eta2=[0.0, 0.0])
        rng = np.random.default_rng(12)
        draws = np.array([fc_inv_sigma_eta2(st, hyper, rng) for _ in range(5000)])
        rng_r = np.random.default_rng(13)
        ref = []
        while len(ref) < 5000:
            cand = log_gamma_sample(rng_r, 5.0, 5.0)
            if cand > 0.0:
                ref.append(cand)
        assert stats.ks_2samp(draws, np.array(ref)).pvalue > 0.01


class TestLaplaceAugmentation:
    def test_inverse_gaussian_moments(self):
        rng = np.random.default_rng(14)
        draws = inverse_gaussian_sample(rng, np.ones(10**6), np.ones(10**6))
        assert abs(draws.mean() - 1.0) < 0.005
        assert abs(draws.var() - 1.0) < 0.02  # var = mean^3 / lam

    def test_inverse_gaussian_law(self):
        rng = np.random.default_rng(15)
        mean, lam = 0.7, 2.3
        draws = inverse_gaussian_sample(rng, np.full(50_000, mean), np.full(50_000, lam))
        res = stats.kstest(draws, stats.invgauss(mean / lam, scale=lam).cdf)
        assert res.pvalue > 0.01

    def test_fc_s_parameter_plugin(self):
        # (y - mu)^2 = 1 and sigma2 = 2 give mu_s = 1, lam_s = 1
        spec = make_spec(np.ones((1, 1)), np.ones((1, 1)), likelihood="laplace")
        data = Dataset(y=np.array([1.0]))
        st = state_for(spec, beta1=[0.0], beta2=[-math.log(2.0)], s=np.array([1.0]))
        rng = np.random.default_rng(16)
        draws = np.array([fc_s(st, spec, data, rng)[0] for _ in range(100_000)])
        inv = 1.0 / draws
        assert abs(inv.mean() - 1.0) < 0.01
        assert abs(inv.var() - 1.0) < 0.05

    def test_fc_s_all_positive(self):
        rng = np.random.default_rng(17)
        n = 50
        spec = make_spec(np.ones((n, 1)), np.ones((n, 1)), likelihood="laplace")
        data = Dataset(y=rng.normal(size=n))
        st = state_for(spec, beta1=[0.0], s=np.ones(n))
        s = fc_s(st, spec, data, rng)
        assert np.all(s > 0.0)


class TestRunGibbs:
    def small_problem(self, n=40, seed=0, likelihood="gaussian"):
        rng = np.random.default_rng(seed)
        X1 = np.column_stack([np.ones(n), rng.normal(size=n)])
        X2 = np.column_stack([np.ones(n), rng.normal(size=n)])
        spec = ModelSpec(X1=X1, Psi1=np.empty((n, 0)), X2=X2, Psi2=np.empty((n, 0)),
                         likelihood=likelihood, hyper=Hyperparams())
        data = Dataset(y=rng.normal(size=n))
        return spec, data

    def test_stored_length(self):
        spec, data = self.small_problem()
        for iters, burn, thin in [(50, 10, 1), (50, 10, 4), (37, 7, 5)]:
            cfg = GibbsConfig(iterations=iters, burn_in=burn, thin=thin, seed=1)
            chain = run_gibbs(spec, data, cfg)[0]
            assert len(chain) == (iters - burn) // thin

    def test_bit_identical_chains_under_fixed_seed(self):
        spec, data = self.small_problem()
        cfg = GibbsConfig(iterations=80, burn_in=20, seed=123)
        a = run_gibbs(spec, data, cfg)[0]
        b = run_gibbs(spec, data, cfg)[0]
        assert np.array_equal(a.beta1, b.beta1)
        assert np.array_equal(a.beta2, b.beta2)

    def test_multiple_chains_distinct_seeds(self):
        spec, data = self.small_problem()
        cfg = GibbsConfig(iterations=40, burn_in=10, seed=5, chains=3)
        chains = run_gibbs(spec, data, cfg)
        assert [c.seed for c in chains] == [5, 6, 7]
        assert not np.array_equal(chains[0].beta1, chains[1].beta1)
        pooled = concatenate_chains(chains)
        assert len(pooled) == 3 * len(chains[0])

    def test_pooled_counters_sum_over_chains(self):
        spec, data = self.small_problem()
        chains = run_gibbs(spec, data, GibbsConfig(iterations=30, burn_in=10, seed=5, chains=3))
        # distinct per-chain events, so keeping any single chain's counters fails
        for k, c in enumerate(chains):
            c.counters.jitter_repairs += k + 1
            c.counters.exp_clamps += 10 * (k + 1)
        pooled = concatenate_chains(chains).counters.as_dict()
        per_chain = [c.counters.as_dict() for c in chains]
        assert pooled == {name: sum(d[name] for d in per_chain) for name in pooled}
        assert pooled["jitter_repairs"] >= 6 and pooled["exp_clamps"] >= 60

    def test_laplace_mode_states_positive(self):
        spec, data = self.small_problem(likelihood="laplace")
        cfg = GibbsConfig(iterations=60, burn_in=20, seed=2)
        chain = run_gibbs(spec, data, cfg)[0]
        assert chain.s is not None and np.all(chain.s > 0.0)

    def test_link_positivity_every_draw(self):
        spec, data = self.small_problem(seed=4)
        chain = run_gibbs(spec, data, GibbsConfig(iterations=60, burn_in=10, seed=3))[0]
        for beta2 in chain.beta2:
            lp = spec.X2 @ beta2
            assert np.all(np.exp(-lp) > 0.0)

    def test_initial_state_respects_truncation(self):
        spec, data = self.small_problem()
        spec.hyper = Hyperparams(trunc_lower=7.0)
        st = initial_state(spec, data)
        assert 1.0 / st.sigma_eta2 > 7.0

    def test_error_carries_iteration_index(self):
        spec, data = self.small_problem()

        def bad_hook(name, params):
            raise RuntimeError("synthetic failure")

        with pytest.raises(GibbsError, match="iteration 0, block beta2: synthetic failure"):
            run_gibbs(spec, data, GibbsConfig(iterations=10, burn_in=2, seed=0), hook=bad_hook)

    def test_chain_pins_blas_to_one_thread_and_restores(self):
        libs = loaded_openblas()
        if not libs:
            pytest.skip("no OpenBLAS loaded")
        spec, data = self.small_problem()
        cfg = GibbsConfig(iterations=4, burn_in=1, seed=0)
        counts = lambda: [get() for get, _ in libs]  # noqa: E731
        saved = counts()
        seen = []

        def spy(name, params):
            seen.append(counts())
            return params

        def failing(name, params):
            raise GibbsError("synthetic failure")

        try:
            for _, set_ in libs:
                set_(2)  # more than one thread even on a one-core machine
            before = counts()
            run_gibbs(spec, data, cfg, hook=spy)
            assert seen and all(c == [1] * len(libs) for c in seen)
            assert counts() == before
            with pytest.raises(GibbsError, match="synthetic failure"):
                run_gibbs(spec, data, cfg, hook=failing)
            assert counts() == before
        finally:
            for (_, set_), n in zip(libs, saved):
                set_(n)

    def test_dimension_mismatch_rejected(self):
        spec, data = self.small_problem()
        short = Dataset(y=data.y[:-1])
        with pytest.raises(ValueError):
            run_gibbs(spec, short, GibbsConfig(iterations=10, burn_in=2, seed=0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GibbsConfig(iterations=10, burn_in=10)
        with pytest.raises(ValueError):
            GibbsConfig(thin=0)
