import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import digamma, polygamma

from hetgibbs.design import RunCounters
from hetgibbs.gibbs import CmlgParams
from hetgibbs.oracle import (
    ConditioningError,
    MlgParams,
    cmlg_sample,
    grid_normalize,
    log_gamma_sample,
    mlg_gaussian_limit_params,
    mlg_log_density,
    mlg_sample,
)


class TestDensity:
    def test_univariate_unit_case(self):
        p = MlgParams(mu=[0.0], V=[[1.0]], alpha=[1.0], kappa=[1.0])
        assert np.isclose(mlg_log_density([0.0], p), -1.0, atol=1e-12)

    def test_univariate_shape_rate_case(self):
        p = MlgParams(mu=[0.0], V=[[1.0]], alpha=[2.0], kappa=[3.0])
        assert np.isclose(mlg_log_density([0.0], p), math.log(9.0) - 3.0, atol=1e-12)

    def test_independence_factorization(self):
        p = MlgParams(mu=[0.0, 0.0], V=np.eye(2), alpha=[1.0, 1.0], kappa=[1.0, 1.0])
        assert np.isclose(mlg_log_density([0.0, 0.0], p), -2.0, atol=1e-12)

    def test_singular_scale_matrix_rejected(self):
        import warnings

        p = MlgParams(mu=[0.0, 0.0], V=[[1.0, 1.0], [1.0, 1.0]], alpha=[1.0, 1.0], kappa=[1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # LAPACK flags the zero pivot
            with pytest.raises(ConditioningError):
                mlg_log_density([0.0, 0.0], p)

    def test_ill_conditioned_rejected(self):
        p = MlgParams(mu=[0.0, 0.0], V=[[1.0, 0.0], [0.0, 1e-14]], alpha=[1.0, 1.0], kappa=[1.0, 1.0])
        with pytest.raises(ConditioningError):
            mlg_log_density([0.0, 0.0], p)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MlgParams(mu=[0.0], V=[[1.0]], alpha=[-1.0], kappa=[1.0])
        with pytest.raises(ValueError):
            MlgParams(mu=[0.0], V=[[1.0]], alpha=[1.0], kappa=[0.0])
        with pytest.raises(ValueError):
            mlg_log_density([0.0, 1.0], MlgParams([0.0], [[1.0]], [1.0], [1.0]))

    def test_exponent_clamp_counted(self):
        p = MlgParams(mu=[0.0], V=[[1.0]], alpha=[1.0], kappa=[1.0])
        counters = RunCounters()
        val = mlg_log_density([800.0], p, counters=counters)
        assert counters.exp_clamps == 1
        assert np.isfinite(val)

    @pytest.mark.parametrize("a,k", [(0.5, 1.0), (1.0, 1.0), (4.0, 0.3)])
    def test_density_normalizes(self, a, k):
        p = MlgParams(mu=[0.0], V=[[1.0]], alpha=[a], kappa=[k])
        orc = grid_normalize(lambda x: mlg_log_density([x], p), -60.0, 12.0, points=40_001)
        assert abs(orc.normalizer - 1.0) <= 1e-4


class TestLogGammaSampling:
    def test_mean_matches_digamma(self):
        rng = np.random.default_rng(0)
        draws = log_gamma_sample(rng, 1.0, 1.0, size=10**6)
        assert abs(draws.mean() - digamma(1.0)) < 0.005

    def test_variance_matches_trigamma(self):
        rng = np.random.default_rng(1)
        draws = log_gamma_sample(rng, 1.0, 1.0, size=10**6)
        assert abs(draws.var() - polygamma(1, 1.0)) < 0.02

    def test_exp_is_gamma(self):
        rng = np.random.default_rng(2)
        draws = log_gamma_sample(rng, 0.5, 2.0, size=50_000)
        res = stats.kstest(np.exp(draws), stats.gamma(0.5, scale=0.5).cdf)
        assert res.pvalue > 0.01

    def test_extreme_rate_no_underflow(self):
        rng = np.random.default_rng(3)
        draws = log_gamma_sample(rng, 0.5, 1e300, size=100)
        assert np.all(np.isfinite(draws))

    def test_domain_errors(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            log_gamma_sample(rng, 0.0, 1.0)
        with pytest.raises(ValueError):
            log_gamma_sample(rng, 1.0, -2.0)


class TestMlgSampling:
    def test_unit_case_mean(self):
        rng = np.random.default_rng(4)
        p = MlgParams(mu=[0.0], V=[[1.0]], alpha=[1.0], kappa=[1.0])
        draws = np.array([mlg_sample(rng, p)[0] for _ in range(200_000)])
        assert abs(draws.mean() - digamma(1.0)) < 0.005

    def test_shifted_mean_digamma_identity(self):
        rng = np.random.default_rng(5)
        p = MlgParams(mu=[5.0, 5.0], V=np.eye(2), alpha=[2.0, 2.0], kappa=[2.0, 2.0])
        draws = np.array([mlg_sample(rng, p) for _ in range(200_000)])
        expected = 5.0 + digamma(2.0) - math.log(2.0)
        assert np.allclose(draws.mean(axis=0), expected, atol=0.006)

    def test_determinism_under_fixed_seed(self):
        p = MlgParams(mu=[1.0, -1.0], V=[[2.0, 0.3], [0.0, 1.0]], alpha=[0.7, 3.0], kappa=[1.0, 0.5])
        a = mlg_sample(np.random.default_rng(42), p)
        b = mlg_sample(np.random.default_rng(42), p)
        assert np.array_equal(a, b)

    def test_affine_consistency_exact(self):
        # V z + mu with z ~ MLG(0, I, a, k) consumes the same gamma stream
        mu = np.array([1.0, -2.0])
        V = np.array([[1.5, 0.2], [-0.4, 0.8]])
        a = np.array([0.5, 2.0])
        k = np.array([1.2, 0.6])
        direct = mlg_sample(np.random.default_rng(9), MlgParams(mu, V, a, k))
        z = mlg_sample(np.random.default_rng(9), MlgParams(np.zeros(2), np.eye(2), a, k))
        assert np.allclose(direct, V @ z + mu, rtol=1e-12)

    def test_identity_scale_coordinates_are_gamma(self):
        rng = np.random.default_rng(6)
        a = np.array([0.5, 1.0, 3.0])
        k = np.array([1.0, 2.0, 0.5])
        p = MlgParams(np.zeros(3), np.eye(3), a, k)
        draws = np.array([mlg_sample(rng, p) for _ in range(50_000)])
        for j in range(3):
            res = stats.kstest(np.exp(draws[:, j]), stats.gamma(a[j], scale=1.0 / k[j]).cdf)
            assert res.pvalue > 0.01


class TestCmlgSampling:
    def test_two_row_projection_mean(self):
        # projection of two unit log-gammas: mean is digamma(1), not the
        # density-normalized conditional's mean
        c = CmlgParams(HT=[[1.0, 1.0]], alpha=[1.0, 1.0], kappa=[1.0, 1.0])
        rng = np.random.default_rng(7)
        draws = np.array([cmlg_sample(rng, c)[0] for _ in range(100_000)])
        assert abs(draws.mean() - digamma(1.0)) < 0.01

    def test_identity_map_equals_mlg_sample(self):
        a = np.array([0.5, 2.0, 1.0])
        k = np.array([1.0, 0.3, 2.0])
        c = CmlgParams(HT=np.eye(3), alpha=a, kappa=k)
        p = MlgParams(np.zeros(3), np.eye(3), a, k)
        x = cmlg_sample(np.random.default_rng(8), c)
        y = mlg_sample(np.random.default_rng(8), p)
        assert np.allclose(x, y, rtol=1e-12)

    def test_rank_deficient_names_columns(self):
        c = CmlgParams(HT=[[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]], alpha=np.ones(3), kappa=np.ones(3))
        with pytest.raises(ValueError, match="2 columns"):
            cmlg_sample(np.random.default_rng(0), c)

    def test_wide_h_rejected(self):
        with pytest.raises(ValueError):
            CmlgParams(HT=[[1.0], [2.0]], alpha=[1.0], kappa=[1.0])


class TestTruncatedSampling:
    def test_acceptance_probability_exp_tail(self):
        # P(log Gamma(1,1) > 0) = exp(-1)
        c = CmlgParams(HT=[[1.0]], alpha=[1.0], kappa=[1.0])
        rng = np.random.default_rng(12)
        draws = np.array([cmlg_sample(rng, c)[0] for _ in range(30_000)])
        assert abs((draws > 0).mean() - math.exp(-1.0)) < 0.01


class TestGaussianLimit:
    def test_parameter_plumbing_at_one(self):
        p = mlg_gaussian_limit_params([1.0], [[2.0]], 1.0)
        assert np.allclose(p.V, [[2.0]])
        assert np.allclose(p.alpha, [1.0]) and np.allclose(p.kappa, [1.0])

    def test_scalar_limit_ks(self):
        rng = np.random.default_rng(14)
        p = mlg_gaussian_limit_params([0.0], [[1.0]], 1e4)
        draws = np.array([mlg_sample(rng, p)[0] for _ in range(50_000)])
        assert stats.kstest(draws, "norm").pvalue > 0.01

    def test_bivariate_covariance(self):
        rng = np.random.default_rng(15)
        F = np.array([[1.0, 0.0], [0.7, 0.5]])
        p = mlg_gaussian_limit_params([0.0, 0.0], F, 1e4)
        draws = np.array([mlg_sample(rng, p) for _ in range(50_000)])
        target = F @ F.T
        assert np.allclose(np.cov(draws.T), target, rtol=0.05, atol=0.01)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            mlg_gaussian_limit_params([0.0], [[1.0]], 0.0)
