import math

import numpy as np
import pytest

from hetgibbs.design import Dataset, Hyperparams, ModelSpec
from hetgibbs.gibbs import GibbsConfig, PosteriorChain, run_gibbs
from hetgibbs.metrics import (
    CvScheme,
    PointwiseLogLik,
    dic,
    effective_sample_size,
    kfold_cv,
    loglik_pointwise,
    msev,
    predict_posterior_means,
    summarize,
    waic,
)
from hetgibbs.oracle import SyntheticShape, SyntheticTruth, generate_synthetic, synthetic_model_spec


def manual_chain(beta1, beta2, likelihood="gaussian", n=1):
    """Chain with explicit coefficient draws and empty random-effect blocks."""
    beta1 = np.atleast_2d(np.asarray(beta1, dtype=float))
    beta2 = np.atleast_2d(np.asarray(beta2, dtype=float))
    S = beta1.shape[0]
    return PosteriorChain(
        beta1=beta1,
        eta1=np.empty((S, 0)),
        beta2=beta2,
        eta2=np.empty((S, 0)),
        sigma2_eta1=np.ones(S),
        sigma_eta2=np.ones(S),
        s=None,
        seed=0,
    )


def unit_spec(n=1, likelihood="gaussian"):
    return ModelSpec(
        X1=np.ones((n, 1)),
        Psi1=np.empty((n, 0)),
        X2=np.ones((n, 1)),
        Psi2=np.empty((n, 0)),
        likelihood=likelihood,
        hyper=Hyperparams(),
    )


class TestLoglikPointwise:
    def test_gaussian_at_mode(self):
        chain = manual_chain([[0.0]], [[0.0]])
        ll = loglik_pointwise(chain, unit_spec(), Dataset(y=np.array([0.0])))
        assert np.isclose(ll.values[0, 0], -0.9189385332046727, atol=1e-12)

    def test_laplace_at_mode(self):
        # sigma2 = 2 gives scale b = 1 and density 1/2 at the mode
        chain = manual_chain([[0.0]], [[-math.log(2.0)]])
        spec = unit_spec(likelihood="laplace")
        ll = loglik_pointwise(chain, spec, Dataset(y=np.array([0.0])))
        assert np.isclose(ll.values[0, 0], math.log(0.5), atol=1e-12)

    def test_matrix_shape(self):
        n = 7
        chain = manual_chain(np.zeros((5, 1)), np.zeros((5, 1)))
        spec = unit_spec(n)
        ll = loglik_pointwise(chain, spec, Dataset(y=np.zeros(n)))
        assert ll.values.shape == (5, n)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            PointwiseLogLik(values=np.array([[np.inf]]), mode="gaussian")


class TestWaic:
    def test_identical_draws_zero_penalty(self):
        ll = PointwiseLogLik(values=np.full((4, 3), -1.3), mode="gaussian")
        assert np.isclose(waic(ll), -2.0 * 3 * (-1.3), atol=1e-12)

    def test_hand_case(self):
        # draws -1 and -3 for one observation; unbiased variance divisor
        ll = PointwiseLogLik(values=np.array([[-1.0], [-3.0]]), mode="gaussian")
        w = waic(ll)
        assert np.isclose(w, 7.1324383390339456, rtol=1e-12)
        lppd = -0.5 * w - 2.0 * -1.0  # reverse: w = -2(lppd - p), p = 2
        assert np.isclose(lppd, -1.5662191695169728, rtol=1e-12)

    def test_draw_order_invariance(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(-2.0, 1.0, size=(20, 6))
        a = waic(PointwiseLogLik(values=vals, mode="gaussian"))
        b = waic(PointwiseLogLik(values=vals[::-1], mode="gaussian"))
        assert np.isclose(a, b, rtol=1e-14)

    def test_duplicate_draws_keep_lppd_change_penalty(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(-2.0, 0.5, size=(10, 4))
        dup = np.vstack([vals, vals])
        from scipy.special import logsumexp

        lppd = lambda v: float(np.sum(logsumexp(v, axis=0) - math.log(v.shape[0])))
        assert np.isclose(lppd(vals), lppd(dup), rtol=1e-14)
        # S-1 divisor: duplication rescales each point variance by 2(S-1)/(2S-1)
        S = vals.shape[0]
        expect = np.var(vals, axis=0, ddof=1) * 2 * (S - 1) / (2 * S - 1)
        assert np.allclose(np.var(dup, axis=0, ddof=1), expect, rtol=1e-12)
        assert not np.isclose(
            waic(PointwiseLogLik(values=vals, mode="gaussian")),
            waic(PointwiseLogLik(values=dup, mode="gaussian")),
        )

    def test_single_draw_rejected(self):
        with pytest.raises(ValueError):
            waic(PointwiseLogLik(values=np.array([[-1.0]]), mode="gaussian"))


class TestDic:
    def test_single_repeated_draw(self):
        chain = manual_chain([[0.3], [0.3]], [[0.1], [0.1]])
        data = Dataset(y=np.array([0.5]))
        spec = unit_spec()
        ll = loglik_pointwise(chain, spec, data)
        d = dic(ll, chain, spec, data)
        assert np.isclose(d, -2.0 * ll.values[0, 0], rtol=1e-12)

    def test_duplicate_augmentation_invariance(self):
        chain = manual_chain([[0.2], [0.4]], [[0.0], [-0.7]])
        dup = manual_chain([[0.2], [0.4], [0.2], [0.4]], [[0.0], [-0.7], [0.0], [-0.7]])
        data = Dataset(y=np.array([0.5]))
        spec = unit_spec()
        a = dic(loglik_pointwise(chain, spec, data), chain, spec, data)
        b = dic(loglik_pointwise(dup, spec, data), dup, spec, data)
        assert np.isclose(a, b, rtol=1e-12)

    def test_hand_case(self):
        # y = 0.5; draws (0.2, 0.0) and (0.4, -log 2); plug-in at coefficient means
        chain = manual_chain([[0.2], [0.4]], [[0.0], [-math.log(2.0)]])
        data = Dataset(y=np.array([0.5]))
        spec = unit_spec()
        d = dic(loglik_pointwise(chain, spec, data), chain, spec, data)
        assert np.isclose(d, 2.2511663854418562, rtol=1e-12)

    def test_single_draw_warns(self):
        chain = manual_chain([[0.3]], [[0.1]])
        data = Dataset(y=np.array([0.5]))
        spec = unit_spec()
        with pytest.warns(UserWarning):
            dic(loglik_pointwise(chain, spec, data), chain, spec, data)


class TestMsev:
    def test_perfect_calibration(self):
        assert msev([1.0, -1.0], [0.0, 0.0], [1.0, 1.0]) == 0.0

    def test_arithmetic_case(self):
        assert np.isclose(msev([2.0, 0.0], [0.0, 0.0], [1.0, 1.0]), 5.0, rtol=1e-15)

    def test_single_zero_case(self):
        assert msev([0.0], [0.0], [0.0]) == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=9)
        mu = rng.normal(size=9)
        s2 = rng.uniform(0.5, 2.0, size=9)
        perm = rng.permutation(9)
        assert np.isclose(msev(y, mu, s2), msev(y[perm], mu[perm], s2[perm]), rtol=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            msev([1.0], [1.0, 2.0], [1.0])


class TestSummarize:
    def test_constant_chain(self):
        chain = manual_chain(np.full((10, 1), 2.5), np.zeros((10, 1)))
        rows = {s.name: s for s in summarize(chain)}
        s = rows["beta1_1"]
        assert s.sd == 0.0 and s.q025 == s.q50 == s.q975 == 2.5

    def test_median_interpolation(self):
        chain = manual_chain(np.array([[1.0], [2.0], [3.0]]), np.zeros((3, 1)))
        rows = {s.name: s for s in summarize(chain)}
        assert rows["beta1_1"].q50 == 2.0

    def test_symmetric_chain_mean_near_median(self):
        rng = np.random.default_rng(3)
        draws = rng.normal(0.0, 1.0, size=(20_000, 1))
        chain = manual_chain(draws, np.zeros((20_000, 1)))
        rows = {s.name: s for s in summarize(chain)}
        assert abs(rows["beta1_1"].mean - rows["beta1_1"].q50) < 0.03


class TestEffectiveSampleSize:
    def test_iid_near_full(self):
        x = np.random.default_rng(4).normal(size=4000)
        assert effective_sample_size(x) > 2500

    def test_correlated_much_smaller(self):
        rng = np.random.default_rng(5)
        x = np.empty(4000)
        x[0] = 0.0
        for t in range(1, 4000):
            x[t] = 0.97 * x[t - 1] + rng.normal()
        assert effective_sample_size(x) < 400

    def test_constant_defined(self):
        assert effective_sample_size(np.ones(50)) == 50.0


class TestCrossValidation:
    def test_scheme_partition_and_determinism(self):
        a = CvScheme.make(23, folds=5, seed=9)
        b = CvScheme.make(23, folds=5, seed=9)
        assert np.array_equal(a.assignment, b.assignment)
        counts = np.bincount(a.assignment, minlength=5)
        assert counts.sum() == 23 and counts.min() >= 1

    def test_fold_too_small_rejected(self):
        shape = SyntheticShape(p1=2, p2=2)
        data, _ = generate_synthetic(shape, seed=1, n=8)
        spec = synthetic_model_spec(data, shape)
        scheme = CvScheme.make(8, folds=4, seed=0)
        cfg = GibbsConfig(iterations=20, burn_in=5, seed=0)
        with pytest.raises(ValueError, match="fold"):
            # 6 training rows < p1+p2 = 4 is fine; shrink to force failure
            kfold_cv(spec.subset_rows(np.arange(5)), data.subset(np.arange(5)),
                     cfg, CvScheme.make(5, folds=2, seed=0))

    def test_predictions_use_mean_of_exp(self):
        # two-draw chain with a skewed variance coefficient: the held-out
        # variance prediction must average exp(-lp) over draws, not exponentiate
        # the averaged lp
        shape = SyntheticShape(p1=1, p2=1)
        data, _ = generate_synthetic(shape, seed=2, n=12)
        spec = synthetic_model_spec(data, shape)
        chain = manual_chain(np.zeros((2, 1)), np.array([[0.0], [-4.0]]))
        _, s2 = predict_posterior_means(chain, spec)
        jensen = math.exp(-chain.beta2.mean())  # wrong path
        expect = 0.5 * (1.0 + math.exp(4.0))
        assert np.allclose(s2, expect, rtol=1e-12)
        assert not np.allclose(s2, jensen)

    def test_homoskedastic_no_harm(self):
        # on constant-variance data, modeling the variance costs < 10% MSEV
        rng = np.random.default_rng(6)
        n = 300
        x = rng.normal(size=n)
        y = 0.5 + 0.8 * x + rng.normal(0.0, 1.0, size=n)
        data = Dataset(y=y, columns={"xm1": x, "xv1": x})
        shape_het = SyntheticShape(p1=2, p2=2)
        shape_con = SyntheticShape(p1=2, p2=1)
        spec_het = synthetic_model_spec(data, shape_het)
        spec_con = synthetic_model_spec(data, shape_con)
        cfg = GibbsConfig(iterations=500, burn_in=150, seed=4)
        scheme = CvScheme.make(n, folds=5, seed=3)
        m_het = kfold_cv(spec_het, data, cfg, scheme).msev_pooled
        m_con = kfold_cv(spec_con, data, cfg, scheme).msev_pooled
        assert m_het < 1.10 * m_con

    def test_assignment_alignment_checked(self):
        shape = SyntheticShape(p1=1, p2=1)
        data, _ = generate_synthetic(shape, seed=0, n=30)
        spec = synthetic_model_spec(data, shape)
        with pytest.raises(ValueError):
            kfold_cv(spec, data, GibbsConfig(iterations=20, burn_in=5, seed=0),
                     CvScheme.make(29, folds=5, seed=0))
