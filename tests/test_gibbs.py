import ctypes
import math

import numpy as np
import pytest
from scipy import stats

from hetgibbs import gibbs
from hetgibbs.design import Dataset, Hyperparams, ModelSpec
from hetgibbs.gibbs import (
    ChainState,
    GibbsConfig,
    GibbsError,
    RotatedDesign,
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
    inv_sigma_eta2_block,
    inv_sigma_eta2_conditional,
    inverse_gaussian_sample,
    run_gibbs,
)
from hetgibbs.design import RunCounters
from hetgibbs.oracle import cmlg_sample, log_gamma_sample


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

    def test_precision_is_the_weighted_gram_matrix_and_symmetric(self):
        # Q is built as A'A with A = diag(sqrt w) M (one BLAS syrk)
        rng = np.random.default_rng(4)
        M = rng.normal(size=(300, 40))
        w = rng.gamma(2.0, size=300)
        Q, _ = gaussian_conditional(M, w, rng.normal(size=300), 0.5)
        expected = M.T @ (M * w[:, None]) + 0.5 * np.eye(40)
        assert np.max(np.abs(Q - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert np.array_equal(Q, Q.T)

    def test_fixed_seed_identical_draw(self):
        spec = make_spec(np.ones((10, 1)), np.ones((10, 1)))
        data = Dataset(y=np.arange(10.0))
        state = state_for(spec)
        a = fc_beta1(state, spec, data, np.random.default_rng(3))
        b = fc_beta1(state, spec, data, np.random.default_rng(3))
        assert np.array_equal(a, b)

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
    # a chain keeps each variance block's whole conditional in the scan
    # kernel's layout: HT = [M V; c V]' for the principal axes V of M, with
    # the shapes and prior rates fixed; a builder rewrites only the data
    # rates and the prior columns
    def test_rotated_layout(self):
        n, p2 = 8, 3
        rng = np.random.default_rng(0)
        X2 = rng.normal(size=(n, p2))
        hyper = Hyperparams(alpha=100.0, sigma2_beta2=4.0)
        spec = make_spec(np.ones((n, 1)), X2, hyper=hyper)
        data = Dataset(y=rng.normal(size=n))
        axes = RotatedDesign(X2, spec)
        V = axes.V
        assert np.allclose(V.T @ V, np.eye(p2), atol=1e-12)
        params = beta2_conditional(state_for(spec), spec, data, None, axes)
        assert params.HT.shape == (p2, n + p2)
        assert params.HT.flags.c_contiguous
        assert params.alpha.shape == params.kappa.shape == (n + p2,)
        assert np.array_equal(params.HT[:, :n], (X2 @ V).T)
        c = (hyper.alpha ** -0.5) / math.sqrt(hyper.sigma2_beta2)
        assert np.array_equal(params.HT[:, n:], c * V.T)

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
        pg = beta2_conditional(st_g, spec_g, data, None, RotatedDesign(X2, spec_g))
        assert np.array_equal(pg.alpha[:n], np.full(n, 0.5))
        assert np.allclose(pg.kappa[:n], 0.5 * y**2)       # mu = 0, eta2 empty

        spec_l = make_spec(np.ones((n, 1)), X2, likelihood="laplace", hyper=hyper)
        st_l = state_for(spec_l, beta1=[0.0], s=s)
        pl = beta2_conditional(st_l, spec_l, data, None, RotatedDesign(X2, spec_l))
        assert np.array_equal(pl.alpha[:n], np.ones(n))
        assert np.allclose(pl.kappa[:n], s)

        # prior rows are identical across modes
        for p in (pg, pl):
            assert np.array_equal(p.alpha[n:], [hyper.alpha] * 2)
            assert np.array_equal(p.kappa[n:], [hyper.alpha] * 2)
        assert np.array_equal(pg.HT, pl.HT)

    def test_eta2_prior_block_uses_current_scale(self):
        n = 4
        rng = np.random.default_rng(2)
        spec = make_spec(np.ones((n, 1)), np.ones((n, 1)), Psi2=rng.normal(size=(n, 2)))
        data = Dataset(y=rng.normal(size=n))
        axes = RotatedDesign(spec.Psi2, spec)
        c = spec.hyper.alpha ** -0.5
        for sigma_eta2 in (0.25, 2.0):
            pe = eta2_conditional(state_for(spec, sigma_eta2=sigma_eta2), spec, data, None, axes)
            assert np.allclose(pe.HT[:, n:], c / sigma_eta2 * axes.V.T)
            assert np.array_equal(pe.HT[:, :n], (spec.Psi2 @ axes.V).T)

    def test_builder_returns_the_chain_block(self, monkeypatch):
        # one conditional object per block and chain, rewritten in place
        seen = {"eta2_conditional": [], "inv_sigma_eta2_conditional": []}

        def spy(name):
            builder = getattr(gibbs, name)

            def spied(*args, **kwargs):
                params = builder(*args, **kwargs)
                seen[name].append(params)
                return params

            return spied

        for name in seen:
            monkeypatch.setattr(gibbs, name, spy(name))
        rng = np.random.default_rng(5)
        n = 20
        spec = make_spec(np.ones((n, 1)), np.ones((n, 1)), Psi2=rng.normal(size=(n, 3)))
        run_gibbs(spec, Dataset(y=rng.normal(size=n)), GibbsConfig(iterations=6, burn_in=1, seed=2))
        for name, objects in seen.items():
            assert len(objects) == 6, name
            assert all(p is objects[0] for p in objects), name

    def test_zero_residual_floored_not_raised(self):
        spec = make_spec(np.ones((3, 1)), np.ones((3, 1)))
        data = Dataset(y=np.zeros(3))
        st = state_for(spec, beta1=[0.0])  # exact zero residuals
        params = beta2_conditional(st, spec, data, None, RotatedDesign(spec.X2, spec))
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
        da = fc_beta2(st_a, spec_a, data, np.random.default_rng(11), None, RotatedDesign(M, spec_a))
        db = fc_eta2(st_b, spec_b, data, np.random.default_rng(11), None, RotatedDesign(M, spec_b))
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
        axes = RotatedDesign(spec.X2, spec)
        draws = np.array([fc_beta2(st, spec, data, rng_d, None, axes)[0] for _ in range(4000)])
        sigma2 = np.exp(-draws)
        ig = stats.invgamma(n / 2.0, scale=0.5 * float(y @ y))
        assert stats.kstest(sigma2, ig.cdf).pvalue > 0.01
        qs = np.quantile(sigma2, [0.1, 0.25, 0.5, 0.75, 0.9])
        assert np.allclose(qs, ig.ppf([0.1, 0.25, 0.5, 0.75, 0.9]), rtol=0.05)

    def test_projection_mode_inflates_conditional_variance(self):
        # the projection recipe (oracle.cmlg_sample) is kept for study: its
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
        axes = RotatedDesign(spec.X2, spec)
        exact = np.array([fc_beta2(st, spec, data, rng_e, None, axes)[0] for _ in range(3000)])
        params = beta2_conditional(st, spec, data, None, axes)
        proj = np.array([cmlg_sample(rng_p, params)[0] for _ in range(3000)])
        ratio = proj.var() / exact.var()
        assert 1.8 < ratio < 3.2

    def test_exact_scan_log_density_calls_per_draw(self):
        # the current value's tangent comes from the curvature pass and the
        # two seeds from one Newton step: about 2 + 1.2 evaluations per draw
        # (5.7 with the five-probe walk from the current value); the scan
        # kernel counts both into the chain's counters
        from hetgibbs.oracle import SyntheticShape, generate_synthetic, synthetic_model_spec

        shape = SyntheticShape(p1=2, p2=2, r1=2, r2=4)
        data, _ = generate_synthetic(shape, seed=12, n=100)
        spec = synthetic_model_spec(data, shape, Hyperparams(trunc_lower=3.0))
        chain = run_gibbs(spec, data, GibbsConfig(iterations=150, burn_in=50, seed=13))[0]
        counters = chain.counters
        assert counters.scan_draws == 150 * (2 + 4 + 1)
        assert counters.scan_evals / counters.scan_draws <= 3.6

    def test_hook_receives_assembled_params(self, monkeypatch):
        # the builder is looked up per call, so a rebinding (a negative
        # control, a tracer) sees the assembled conditional the scan draws
        seen = []
        builder = gibbs.beta2_conditional

        def spy(*args, **kwargs):
            params = builder(*args, **kwargs)
            seen.append(params.HT.shape)
            return params

        monkeypatch.setattr(gibbs, "beta2_conditional", spy)
        spec = make_spec(np.ones((6, 1)), np.ones((6, 1)))
        data = Dataset(y=np.random.default_rng(0).normal(size=6))
        fc_beta2(state_for(spec, beta1=[0.0]), spec, data, np.random.default_rng(1), None,
                 RotatedDesign(spec.X2, spec))
        assert seen == [(1, 7)]


class TestRotatedScan:
    @pytest.mark.parametrize("turn", ["as_computed", "proper_rotation"])
    def test_rotated_scan_matches_grid_conditional(self, turn, monkeypatch):
        # two nearly collinear columns make the beta2 conditional a ridge
        # (posterior correlation about -0.97); a scan along the principal
        # axes of X2 must still draw it exactly.  A 2x2 reflection is
        # symmetric, so V and V' coincide; with one axis flipped to make V a
        # proper rotation (by turning what eigh returns), a V used where V'
        # belongs would show
        rng = np.random.default_rng(20)
        n = 30
        x = rng.standard_normal(n)
        X2 = np.column_stack([x, x + 0.05 * rng.standard_normal(n)])
        y = rng.standard_normal(n) * np.exp(-0.15 * x)
        al, sd = 5.0, 1.0
        spec = make_spec(np.ones((n, 1)), X2, hyper=Hyperparams(alpha=al, sigma2_beta2=sd**2))
        data = Dataset(y=y)
        if turn == "proper_rotation":
            eigh = np.linalg.eigh

            def turned(a):
                w, V = eigh(a)
                return w, V * [np.linalg.det(V), 1.0]

            monkeypatch.setattr(np.linalg, "eigh", turned)
        axes = RotatedDesign(X2, spec)
        V0 = axes.V.copy()
        if turn == "proper_rotation":
            assert not np.allclose(V0, V0.T) and np.linalg.det(V0) > 0.0
        assert np.allclose(V0.T @ V0, np.eye(2), atol=1e-12)

        # successive scans are nearly independent along these axes (lag-1
        # autocorrelation about 0.03), so the draws are used unthinned
        st = state_for(spec, beta1=[0.0])
        rng_d = np.random.default_rng(22)
        draws = []
        for i in range(100 + 6000):
            st.beta2 = fc_beta2(st, spec, data, rng_d, None, axes)
            if i >= 100:
                draws.append(st.beta2)
        draws = np.array(draws)
        assert np.array_equal(axes.V, V0)

        # reference: the conditional written from the model on a 2-D grid,
        # sum_i [lp_i/2 - y_i^2 exp(lp_i)/2] + sum_j [al c b_j - al exp(c b_j)]
        c = al ** -0.5 / sd
        g = np.linspace(-5.0, 5.0, 1001)
        B1, B2 = np.meshgrid(g, g, indexing="ij")
        logp = al * c * (B1 + B2) - al * (np.exp(c * B1) + np.exp(c * B2))
        for i in range(n):
            lp = B1 * X2[i, 0] + B2 * X2[i, 1]
            logp += 0.5 * lp - 0.5 * y[i] ** 2 * np.exp(lp)
        dens = np.exp(logp - logp.max())
        edge = dens[[0, -1], :].sum() + dens[:, [0, -1]].sum()
        assert edge < 1e-12 * dens.sum()
        for j, marginal in enumerate((dens.sum(axis=1), dens.sum(axis=0))):
            cdf = np.cumsum(marginal) / marginal.sum()
            p = stats.kstest(draws[:, j], lambda v: np.interp(v, g, cdf)).pvalue
            assert p > 0.01, (j, p)


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
        block = inv_sigma_eta2_block(hyper, 3)
        params = inv_sigma_eta2_conditional(st, hyper, block)
        assert params.HT.shape == (1, 4)
        rng = np.random.default_rng(11)
        draws = np.array([fc_inv_sigma_eta2(st, hyper, rng, None, block) for _ in range(2000)])
        assert draws.min() > 0.0

    def test_inv_sigma_eta2_reduction_to_truncated_log_gamma(self):
        # with eta2 = 0 the conditional is log-Gamma(omega, rho) above the bound
        hyper = Hyperparams(omega=5.0, rho=5.0, trunc_lower=0.0)
        spec = make_spec(np.ones((4, 1)), np.ones((4, 1)), Psi2=np.ones((4, 2)))
        st = state_for(spec, eta2=[0.0, 0.0])
        rng = np.random.default_rng(12)
        block = inv_sigma_eta2_block(hyper, 2)
        draws = np.array([fc_inv_sigma_eta2(st, hyper, rng, None, block) for _ in range(5000)])
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

    def test_inverse_gaussian_law_at_floored_residual(self):
        # fc_s reaches mean 1e15 when a residual is floored; numpy's
        # Generator.wald returns about 270 non-positive or infinite draws of
        # 200,000 here, which is why the package keeps its own sampler
        rng = np.random.default_rng(0)
        mean, lam = 1e15, 2.0
        draws = inverse_gaussian_sample(rng, np.full(200_000, mean), np.full(200_000, lam))
        assert np.all(np.isfinite(draws)) and np.all(draws > 0.0)
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


# every sampled block, as the fc_* update names it and errors name it
FC_BLOCKS = ("s", "beta1", "eta1", "beta2", "eta2", "sigma2_eta1", "inv_sigma_eta2")


class TestRunGibbs:
    def small_problem(self, n=40, seed=0, likelihood="gaussian", p2=2, r1=0, r2=0):
        rng = np.random.default_rng(seed)
        X1 = np.column_stack([np.ones(n), rng.normal(size=n)])
        X2 = np.column_stack([np.ones(n), rng.normal(size=n)])[:, :p2]
        data = Dataset(y=rng.normal(size=n))
        spec = ModelSpec(X1=X1, Psi1=rng.normal(size=(n, r1)), X2=X2, Psi2=rng.normal(size=(n, r2)),
                         likelihood=likelihood, hyper=Hyperparams())
        return spec, data

    @pytest.mark.parametrize("shape, order", [
        (dict(likelihood="laplace", r1=2, r2=3),
         ["s", "beta1", "eta1", "beta2", "eta2", "sigma2_eta1", "inv_sigma_eta2"]),
        (dict(p2=0, r2=3), ["beta1", "eta2", "inv_sigma_eta2"]),
        (dict(r1=2), ["beta1", "eta1", "beta2", "sigma2_eta1"]),
    ], ids=["laplace_full", "esvm_shape", "no_variance_random_effects"])
    def test_update_order_skips_absent_blocks(self, monkeypatch, shape, order):
        spec, data = self.small_problem(**shape)
        calls = []

        def spy(block, update):
            def traced(*args, **kwargs):
                calls.append(block)
                return update(*args, **kwargs)
            return traced

        for block in FC_BLOCKS:
            monkeypatch.setattr(gibbs, f"fc_{block}", spy(block, getattr(gibbs, f"fc_{block}")))
        run_gibbs(spec, data, GibbsConfig(iterations=2, burn_in=1, seed=0))
        assert calls == order * 2

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

    @pytest.mark.parametrize("lp", [800.0, -800.0])
    @pytest.mark.parametrize("likelihood", ["gaussian", "laplace"])
    def test_variance_clip_counted(self, lp, likelihood):
        # the weights (Gaussian) or the scales' law (Laplace) need the
        # variance, whose linear predictor is clipped at +-700 on every row
        spec, data = self.small_problem(n=6, likelihood=likelihood)
        st = state_for(spec, beta1=[0.0, 0.0], beta2=[lp, 0.0], s=np.ones(6))
        counters = RunCounters()
        with np.errstate(over="ignore", invalid="ignore"):
            if likelihood == "laplace":
                fc_s(st, spec, data, np.random.default_rng(0), counters)
            else:
                fc_beta1(st, spec, data, np.random.default_rng(0), counters)
        assert counters.exp_clamps == 6

    @pytest.mark.parametrize("block", FC_BLOCKS)
    def test_error_carries_iteration_index(self, monkeypatch, block):
        spec, data = self.small_problem(likelihood="laplace", r1=2, r2=3)

        def failing(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(gibbs, f"fc_{block}", failing)
        with pytest.raises(GibbsError, match=f"iteration 0, block {block}: synthetic failure"):
            run_gibbs(spec, data, GibbsConfig(iterations=10, burn_in=2, seed=0))

    def test_chain_pins_blas_to_one_thread_and_restores(self, monkeypatch):
        libs = loaded_openblas()
        if not libs:
            pytest.skip("no OpenBLAS loaded")
        spec, data = self.small_problem()
        cfg = GibbsConfig(iterations=4, burn_in=1, seed=0)
        counts = lambda: [get() for get, _ in libs]  # noqa: E731
        saved = counts()
        seen = []
        builder = gibbs.beta2_conditional

        def spy(*args, **kwargs):
            seen.append(counts())
            return builder(*args, **kwargs)

        def failing(*args, **kwargs):
            raise GibbsError("synthetic failure")

        try:
            for _, set_ in libs:
                set_(2)  # more than one thread even on a one-core machine
            before = counts()
            monkeypatch.setattr(gibbs, "beta2_conditional", spy)
            run_gibbs(spec, data, cfg)
            assert seen and all(c == [1] * len(libs) for c in seen)
            assert counts() == before
            monkeypatch.setattr(gibbs, "beta2_conditional", failing)
            with pytest.raises(GibbsError, match="synthetic failure"):
                run_gibbs(spec, data, cfg)
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
        # a run that would store no draw
        with pytest.raises(ValueError, match=r"thin \(10\).*iterations - burn_in \(10 - 5\)"):
            GibbsConfig(iterations=10, burn_in=5, thin=10)
