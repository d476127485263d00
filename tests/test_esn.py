import numpy as np
import pytest

from hetgibbs.design import Dataset, Hyperparams
from hetgibbs.esn import (
    EsvmSpec,
    Reservoir,
    build_reservoir,
    dominant_eigen_magnitude,
    esvm_inputs,
    esvm_to_spec,
    reservoir_states,
)
from hetgibbs.gibbs import GibbsConfig, run_gibbs


class TestDominantEigen:
    def test_diagonal_double(self):
        W = np.diag([5.0, 1.0, -2.0])
        assert np.isclose(dominant_eigen_magnitude(W), 5.0, atol=1e-10)

    def test_complex_pair(self):
        W = np.array([[0.0, -2.0], [2.0, 0.0]])  # eigenvalues +-2i
        assert np.isclose(dominant_eigen_magnitude(W), 2.0, atol=1e-9)

    def test_random_matrices_match_eigvals(self):
        for seed in range(5):
            W = np.random.default_rng(seed).normal(0, 0.1, size=(40, 40))
            truth = np.abs(np.linalg.eigvals(W)).max()
            assert np.isclose(dominant_eigen_magnitude(W), truth, rtol=1e-9)

    def test_nearly_tied_moduli(self):
        # top moduli 2.3081 (a complex pair) and 2.3033: a power iteration
        # did not converge on this reservoir draw
        W = np.random.default_rng(113919905).normal(0.0, 0.3, size=(50, 50))
        moduli = np.sort(np.abs(np.linalg.eigvals(W)))[::-1]
        assert moduli[0] - moduli[2] < 0.01
        assert dominant_eigen_magnitude(W) == moduli[0]
        res = build_reservoir(50, 2, seed=113919905, weight_sd=0.3, delta=0.9)
        assert abs(np.abs(np.linalg.eigvals(res.W)).max() - 0.9) <= 1e-10


class TestBuildReservoir:
    def test_scaling_by_dominant_eigenvalue(self):
        # |lambda| = 5 with delta 0.1 means scale factor 0.02
        res = build_reservoir(20, 2, seed=0, delta=0.1)
        radius = np.abs(np.linalg.eigvals(res.W)).max()
        assert abs(radius - 0.1) <= 1e-10

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_spectral_radius_invariant(self, seed):
        res = build_reservoir(50, 3, seed=seed, delta=0.3)
        radius = np.abs(np.linalg.eigvals(res.W)).max()
        assert abs(radius - 0.3) <= 1e-10

    def test_determinism(self):
        a = build_reservoir(10, 2, seed=7)
        b = build_reservoir(10, 2, seed=7)
        assert np.array_equal(a.W, b.W) and np.array_equal(a.U, b.U)

    def test_weight_scale_before_scaling(self):
        # reconstruct the pre-scaling draw from the seed convention
        res = build_reservoir(200, 2, seed=11, weight_sd=0.1)
        W0 = np.random.default_rng(11).normal(0.0, 0.1, size=(200, 200))
        lam = np.abs(np.linalg.eigvals(W0)).max()
        assert np.allclose(res.W * lam / res.delta, W0, rtol=1e-8)
        assert abs(W0.std() - 0.1) < 0.005

    def test_validation(self):
        with pytest.raises(ValueError):
            build_reservoir(0, 1, seed=0)
        with pytest.raises(ValueError):
            build_reservoir(5, 1, seed=0, delta=1.5)


class TestReservoirStates:
    def test_zero_weights_zero_states(self):
        res = Reservoir(W=np.zeros((3, 3)), U=np.zeros((3, 2)), n_h=3, delta=0.1, seed=0)
        st = reservoir_states(res, np.ones((5, 2)))
        assert np.all(st == 0.0)

    def test_states_strictly_inside_unit_interval(self):
        res = build_reservoir(10, 2, seed=1)
        X = np.random.default_rng(2).normal(0, 2.0, size=(20, 2))
        st = reservoir_states(res, X)
        assert np.all(np.abs(st) < 1.0)

    def test_saturating_inputs_stay_bounded(self):
        # float64 tanh rounds to exactly 1 under extreme drive
        res = build_reservoir(10, 2, seed=1)
        X = np.random.default_rng(2).normal(0, 50.0, size=(20, 2))
        st = reservoir_states(res, X)
        assert np.all(np.abs(st) <= 1.0)

    def test_fading_memory(self):
        res = build_reservoir(30, 2, seed=3, delta=0.1)
        X = np.random.default_rng(4).normal(size=(101, 2))
        a = reservoir_states(res, X, h0=np.zeros(30))
        b = reservoir_states(res, X, h0=np.full(30, 0.5))
        assert np.linalg.norm(a[100] - b[100]) < 1e-6

    def test_nonfinite_input_rejected(self):
        res = build_reservoir(3, 1, seed=0)
        with pytest.raises(ValueError):
            reservoir_states(res, np.array([[np.inf]]))


class TestEsvmInputs:
    def test_lag_alignment_and_values(self):
        y = np.array([1.0, 2.0, 0.0, 3.0])
        X = esvm_inputs(y)
        assert X.shape == (3, 2)
        assert np.allclose(X[:, 0], 1.0)
        assert np.isclose(X[0, 1], 0.0)                 # log(1^2)
        assert np.isclose(X[1, 1], np.log(4.0))
        assert np.isclose(X[2, 1], np.log(1e-12))       # clamped zero return

    def test_extra_columns_aligned(self):
        y = np.arange(1.0, 6.0)
        extra = np.arange(10.0, 15.0)  # length T, trimmed to t = 2..T
        X = esvm_inputs(y, extra=extra)
        assert X.shape == (4, 3)
        assert np.allclose(X[:, 2], [11.0, 12.0, 13.0, 14.0])

    def test_lag_feature_can_be_disabled(self):
        y = np.arange(1.0, 6.0)
        X = esvm_inputs(y, extra=np.arange(5.0), include_lag=False)
        assert X.shape == (4, 2)

    def test_too_short_series(self):
        with pytest.raises(ValueError):
            esvm_inputs(np.array([1.0]))


class TestEsvmReduction:
    def make(self, T=40, seed=0, n_h=6):
        rng = np.random.default_rng(seed)
        y = rng.normal(size=T)
        inputs = esvm_inputs(y)
        res = build_reservoir(n_h, inputs.shape[1], seed=seed)
        es = EsvmSpec(reservoir=res, inputs=inputs, mean_prior_var=100.0)
        return es, y

    def test_shapes_and_defaults(self):
        es, y = self.make()
        spec, data = esvm_to_spec(es, y)
        assert spec.Psi2.shape == (39, 6)
        assert spec.p1 == 1 and spec.p2 == 0 and spec.r1 == 0
        assert spec.hyper.trunc_lower == 7.0
        assert data.n == 39

    def test_zero_hidden_units_rejected(self):
        es, y = self.make()
        es.reservoir = Reservoir(W=np.zeros((0, 0)), U=np.zeros((0, 2)), n_h=0, delta=0.1, seed=0)
        with pytest.raises(ValueError):
            esvm_to_spec(es, y)

    def test_return_length_mismatch_rejected(self):
        es, y = self.make()
        with pytest.raises(ValueError):
            esvm_to_spec(es, y[:-2])

    def test_end_to_end_bit_reproducible(self):
        es, y = self.make(T=60, seed=5)
        spec, data = esvm_to_spec(es, y)
        cfg = GibbsConfig(iterations=60, burn_in=20, seed=9)
        a = run_gibbs(spec, data, cfg)[0]
        b = run_gibbs(spec, data, cfg)[0]
        assert np.array_equal(a.eta2, b.eta2)
        assert np.array_equal(a.sigma_eta2, b.sigma_eta2)

    def test_truncation_respected_in_run(self):
        es, y = self.make(T=60, seed=6)
        spec, data = esvm_to_spec(es, y)
        chain = run_gibbs(spec, data, GibbsConfig(iterations=80, burn_in=20, seed=1))[0]
        assert np.all(1.0 / chain.sigma_eta2 > 7.0)
