import contextlib
import math

import numpy as np
import pytest
from scipy import stats

from hetgibbs import _scan, gibbs
from hetgibbs.design import Hyperparams
from hetgibbs.gibbs import ChainState, GibbsConfig
from hetgibbs.oracle import (
    GridOracle,
    MassEscapeError,
    SyntheticShape,
    SyntheticTruth,
    chi_square_uniformity,
    cmlg_scalar_tv,
    draw_prior_coefficients,
    generate_synthetic,
    grid_normalize,
    invgauss_conditional_check,
    kappa_doubling,
    laplace_mixture_check,
    sbc_run,
    synthetic_model_spec,
)


class TestGridOracle:
    def norm_oracle(self, points=10_001):
        return grid_normalize(lambda x: -0.5 * x * x - 0.5 * math.log(2 * math.pi), -10.0, 10.0, points)

    def test_known_normalizer(self):
        orc = self.norm_oracle()
        assert abs(orc.normalizer - 1.0) <= 1e-6

    def test_quantile_symmetry(self):
        orc = self.norm_oracle()
        spacing = orc.grid[1] - orc.grid[0]
        assert abs(orc.quantile(0.5)) <= spacing
        assert np.isclose(orc.quantile(0.975), 1.959964, atol=5e-3)

    def test_tv_against_exact_sampler(self):
        orc = self.norm_oracle()
        draws = np.random.default_rng(0).normal(size=100_000)
        assert orc.tv_vs_histogram(draws) < 0.01

    def test_mass_escape_detected(self):
        with pytest.raises(MassEscapeError):
            grid_normalize(lambda x: -0.5 * x * x, -1.0, 1.0, points=2000)

    def test_point_budget_enforced(self):
        with pytest.raises(ValueError):
            grid_normalize(lambda x: -x * x, -5.0, 5.0, points=100)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            GridOracle(grid=np.array([0.0, 0.0, 1.0]), logpdf=np.zeros(3))


class TestSyntheticData:
    def test_intercept_truth_gives_unit_variance(self):
        shape = SyntheticShape(p1=1, p2=1)
        truth = SyntheticTruth(
            beta1=np.array([0.0]), eta1=np.empty(0),
            beta2=np.array([0.0]), eta2=np.empty(0),
            seed=0, likelihood="gaussian",
        )
        data, _ = generate_synthetic(shape, seed=1, n=200_000, truth=truth)
        assert abs(np.var(data.y) - 1.0) < 3.0 * math.sqrt(2.0 / 200_000)

    def test_constant_variance_level(self):
        shape = SyntheticShape(p1=1, p2=1)
        truth = SyntheticTruth(
            beta1=np.array([0.0]), eta1=np.empty(0),
            beta2=np.array([-math.log(4.0)]), eta2=np.empty(0),
            seed=0, likelihood="gaussian",
        )
        data, _ = generate_synthetic(shape, seed=2, n=200_000, truth=truth)
        assert abs(np.var(data.y) - 4.0) < 3.0 * 4.0 * math.sqrt(2.0 / 200_000)

    def test_binned_variance_tracks_link(self):
        shape = SyntheticShape(p1=1, p2=2)
        truth = SyntheticTruth(
            beta1=np.array([0.0]), eta1=np.empty(0),
            beta2=np.array([0.3, -0.8]), eta2=np.empty(0),
            seed=0, likelihood="gaussian",
        )
        data, _ = generate_synthetic(shape, seed=3, n=100_000, truth=truth)
        x = data.columns["xv1"]
        edges = np.quantile(x, np.linspace(0, 1, 11))
        for k in range(10):
            sel = (x >= edges[k]) & (x <= edges[k + 1])
            model = np.exp(-(truth.beta2[0] + truth.beta2[1] * x[sel])).mean()
            assert abs(np.var(data.y[sel]) / model - 1.0) < 0.05

    def test_laplace_mode_heavier_tails(self):
        shape = SyntheticShape(p1=1, p2=1, likelihood="laplace")
        truth = SyntheticTruth(
            beta1=np.array([0.0]), eta1=np.empty(0),
            beta2=np.array([0.0]), eta2=np.empty(0),
            seed=0, likelihood="laplace",
        )
        data, _ = generate_synthetic(shape, seed=4, n=200_000, truth=truth)
        assert stats.kurtosis(data.y) > 2.0  # Laplace excess kurtosis is 3

    def test_prior_draw_dimensions(self):
        shape = SyntheticShape(p1=3, p2=2, r1=2, r2=2)
        hyper = Hyperparams(sigma2_beta1=1.0, sigma2_beta2=1.0, alpha=100.0,
                            omega=5.0, rho=5.0)
        truth = draw_prior_coefficients(shape, hyper, np.random.default_rng(5))
        assert truth.beta1.shape == (3,) and truth.beta2.shape == (2,)
        assert truth.eta1.shape == (2,) and truth.eta2.shape == (2,)
        assert truth.sigma2_eta1 > 0.0 and truth.sigma_eta2 > 0.0

    def test_collinear_columns_share_a_factor(self):
        shape = SyntheticShape(p1=1, p2=1, r1=2, r2=3, collinear=0.9)
        data, _ = generate_synthetic(shape, seed=6, n=20_000)
        for prefix, r in (("zm", 2), ("zv", 3)):
            corr = np.corrcoef([data.columns[f"{prefix}{j + 1}"] for j in range(r)])
            off = corr[~np.eye(r, dtype=bool)]
            assert np.allclose(off, 0.9, atol=0.02)
        with pytest.raises(ValueError):
            SyntheticShape(r2=2, collinear=1.0)


class TestDistributionIdentities:
    def test_laplace_mixture(self):
        stat, p = laplace_mixture_check(2.0, draws=100_000, seed=0)
        assert p > 0.01

    def test_mixture_variance_identity(self):
        rng = np.random.default_rng(1)
        s = rng.exponential(2.0, size=200_000)
        y = rng.normal(0.0, np.sqrt(s))
        assert abs(y.var() - 2.0) < 3.0 * 2.0 * math.sqrt(12.0 / 200_000)

    def test_mixture_excess_kurtosis(self):
        rng = np.random.default_rng(2)
        s = rng.exponential(1.0, size=10**6)
        y = rng.normal(0.0, np.sqrt(s))
        assert abs(stats.kurtosis(y) - 3.0) < 0.2

    def test_invgauss_completing_the_square(self):
        chk = invgauss_conditional_check(resid2=1.3, sigma2=0.7)
        assert chk["derived_l1"] < 1e-4
        assert chk["variant_l1"] > 0.05

    def test_invgauss_check_other_parameters(self):
        chk = invgauss_conditional_check(resid2=0.2, sigma2=3.0)
        assert chk["derived_l1"] < 1e-4
        assert chk["variant_l1"] > 0.05


class TestRankMachinery:
    def test_uniform_ranks_pass(self):
        rng = np.random.default_rng(3)
        ranks = rng.integers(0, 101, size=2000)
        assert chi_square_uniformity(ranks, n_levels=101) > 0.005

    def test_center_piled_ranks_fail(self):
        rng = np.random.default_rng(4)
        u = stats.norm.cdf(rng.normal(size=2000) / 1.5)  # overdispersed posterior
        ranks = np.clip((u * 101).astype(int), 0, 100)
        assert chi_square_uniformity(ranks, n_levels=101) < 1e-3

    def test_fewer_rank_values_than_bins(self):
        ranks = np.random.default_rng(5).integers(0, 6, size=600)
        assert np.isfinite(chi_square_uniformity(ranks, n_levels=6))

    def test_rank_range_validated(self):
        with pytest.raises(ValueError):
            chi_square_uniformity(np.array([0, 5, 101]), n_levels=101)

    def test_sbc_ranks_independent_of_worker_count(self, monkeypatch):
        # also under a negative control: worker processes forked inside
        # kappa_doubling draw from the rebound builder, as the serial run does
        shape = SyntheticShape(p1=1, p2=1, r1=1, r2=2)

        def run(workers, control):
            monkeypatch.setenv("HETGIBBS_THREADS", workers)
            with kappa_doubling("eta2") if control else contextlib.nullcontext():
                return sbc_run(shape, Hyperparams(), replicates=100, iterations=30, n=15,
                               thin_to=20, seed=730)

        plain = [run(workers, False) for workers in ("1", "2")]
        doubled = [run(workers, True) for workers in ("1", "2")]
        assert plain[0].param_names == plain[1].param_names == doubled[1].param_names
        assert np.array_equal(plain[0].ranks, plain[1].ranks)
        assert np.array_equal(doubled[0].ranks, doubled[1].ranks)
        assert not np.array_equal(plain[1].ranks, doubled[1].ranks)

    def test_kappa_doubling_rebinds_and_restores_builder(self):
        state = ChainState(beta1=np.zeros(1), eta1=np.empty(0), beta2=np.zeros(1),
                           eta2=np.array([0.3, -0.2]), sigma2_eta1=1.0, sigma_eta2=0.2)
        hyper = Hyperparams()
        builder = gibbs.inv_sigma_eta2_conditional
        block = gibbs.inv_sigma_eta2_block(hyper, 2)
        with pytest.raises(RuntimeError, match="inside"):
            with kappa_doubling("inv_sigma_eta2"):
                doubled = gibbs.inv_sigma_eta2_conditional(state, hyper, block)
                raise RuntimeError("inside")
        assert gibbs.inv_sigma_eta2_conditional is builder
        assert np.array_equal(doubled.kappa, 2.0 * builder(state, hyper, block).kappa)
        with pytest.raises(ValueError, match="sigma2_eta1"):
            with kappa_doubling("sigma2_eta1"):
                pass


    def test_kappa_doubling_leaves_the_chain_block(self, monkeypatch):
        # each call doubles the rates the chain's block holds, never the
        # rates a previous call doubled, and the block itself keeps them
        shape = SyntheticShape(p1=1, p2=2, r2=3)
        data, _ = generate_synthetic(shape, seed=8, n=30)
        hyper = Hyperparams(alpha=50.0)
        spec = synthetic_model_spec(data, shape, hyper)
        config = GibbsConfig(iterations=10, burn_in=2, seed=4)

        def digest():
            return gibbs.run_gibbs(spec, data, config)[0].to_matrix().tobytes()

        def doubled_run(block, dim):
            # the chain's blocks, and the rates of every scan of dimension dim
            blocks, rates = [], []
            builder, scan = getattr(gibbs, f"{block}_conditional"), _scan.scan_cmlg

            def keep_block(*args, **kwargs):
                blocks.append(builder(*args, **kwargs))
                return blocks[-1]

            def record(rng, params, *args, **kwargs):
                if params.dim == dim:
                    rates.append(params.kappa.copy())
                return scan(rng, params, *args, **kwargs)

            with monkeypatch.context() as m:
                m.setattr(gibbs, f"{block}_conditional", keep_block)
                m.setattr(_scan, "scan_cmlg", record)
                with kappa_doubling(block):
                    digest()
            assert len(rates) == config.iterations
            return blocks, rates

        plain = digest()
        blocks, rates = doubled_run("eta2", 3)
        for r in rates:
            assert np.array_equal(r[-3:], np.full(3, 2.0 * hyper.alpha))
        assert np.array_equal(blocks[-1].kappa[-3:], np.full(3, hyper.alpha))
        tau_rates = np.append(np.full(3, hyper.alpha), hyper.rho)
        blocks, rates = doubled_run("inv_sigma_eta2", 1)
        for r in rates:
            assert np.array_equal(r, 2.0 * tau_rates)
        assert all(b is blocks[0] for b in blocks)
        assert np.array_equal(blocks[-1].kappa, tau_rates)
        assert digest() == plain


class TestSbcVarianceRandomEffects:
    # eta1 and eta2 are ranked; the prior on 1/sigma_eta2 is log-gamma
    # centred at 3 and truncated at 3, so its exact draw runs with a finite
    # lower bound that the envelope seeding often moves a tangent to
    SHAPE = SyntheticShape(p1=2, p2=2, r1=2, r2=3)
    HYPER = Hyperparams(sigma2_beta1=1.0, sigma2_beta2=1.0, alpha=1000.0,
                        omega=1000.0, rho=1000.0 * math.exp(-3.0), trunc_lower=3.0)

    def test_ranks_uniform(self, monkeypatch):
        # about 1 ms per replicate iteration on one core: 150 s, halved on
        # two worker processes (the ranks do not depend on the worker count)
        monkeypatch.setenv("HETGIBBS_THREADS", "2")
        res = sbc_run(self.SHAPE, self.HYPER, replicates=300, iterations=500, n=50, seed=700)
        assert res.failures == 0
        assert {"eta1_2", "eta2_3", "sigma2_eta1", "sigma_eta2"} <= res.p_values.keys()
        assert min(res.p_values.values()) > 0.005, res.p_values

    def test_eta2_kappa_doubling_control_fails(self, monkeypatch):
        monkeypatch.setenv("HETGIBBS_THREADS", "2")
        with kappa_doubling("eta2"):
            res = sbc_run(self.SHAPE, self.HYPER, replicates=100, iterations=200, n=50, seed=701)
        assert min(res.p_values[f"eta2_{j}"] for j in (1, 2, 3)) < 1e-3

    def test_inv_sigma_eta2_kappa_doubling_control_fails(self, monkeypatch):
        monkeypatch.setenv("HETGIBBS_THREADS", "2")
        with kappa_doubling("inv_sigma_eta2"):
            res = sbc_run(self.SHAPE, self.HYPER, replicates=100, iterations=200, n=50, seed=701)
        assert res.p_values["sigma_eta2"] < 1e-3


class TestSbcCollinearLaplace:
    # Laplace data and three variance random-effect columns that share a
    # factor (correlation 0.95 with it): the eta2 conditional is a ridge, so
    # the principal axes of Psi2 are far from arbitrary, and a scan that
    # applies V where V' belongs fails here (as failed replicates or as
    # non-uniform ranks)
    SHAPE = SyntheticShape(p1=2, p2=2, r2=3, likelihood="laplace", collinear=0.95)
    HYPER = TestSbcVarianceRandomEffects.HYPER

    def test_ranks_uniform(self, monkeypatch):
        monkeypatch.setenv("HETGIBBS_THREADS", "2")
        res = sbc_run(self.SHAPE, self.HYPER, replicates=200, iterations=400, n=50, seed=720)
        assert res.failures == 0
        assert {"eta2_3", "sigma_eta2"} <= res.p_values.keys()
        assert min(res.p_values.values()) > 0.005, res.p_values

    def test_eta2_kappa_doubling_control_fails(self, monkeypatch):
        monkeypatch.setenv("HETGIBBS_THREADS", "2")
        with kappa_doubling("eta2"):
            res = sbc_run(self.SHAPE, self.HYPER, replicates=100, iterations=200, n=50, seed=721)
        assert min(res.p_values[f"eta2_{j}"] for j in (1, 2, 3)) < 1e-3


class TestCmlgTv:
    def test_axis_selection_is_exact(self):
        tv = cmlg_scalar_tv(
            np.array([0.0, 0.0, 1.0]),
            np.array([2.0, 2.0, 1.5]),
            np.array([1.0, 1.0, 2.0]),
            draws=30_000,
            seed=0,
        )
        assert tv < 0.02

    def test_general_map_has_recordable_discrepancy(self):
        tv = cmlg_scalar_tv(
            np.array([1.0, 1.0]),
            np.array([1.0, 1.0]),
            np.array([1.0, 1.0]),
            draws=30_000,
            seed=1,
        )
        assert 0.0 <= tv <= 1.0
        assert tv > 0.05  # the projection law differs from the density here
