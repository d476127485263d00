import numpy as np
import pytest

from hetgibbs.design import (
    BasisConfig,
    Dataset,
    Hyperparams,
    ModelSpec,
    bisquare_basis,
    build_design,
    multiresolution_grid,
)


def toy_dataset(n=40, seed=0, with_coords=False):
    rng = np.random.default_rng(seed)
    cols = {
        "temp": rng.normal(10.0, 3.0, n),
        "precip": rng.normal(0.0, 1.0, n),
        "soil": np.array(["loam", "clay", "sand"], dtype=object)[rng.integers(0, 3, n)],
    }
    coords = rng.uniform(0, 1, size=(n, 2)) if with_coords else None
    return Dataset(y=rng.normal(size=n), columns=cols, coords=coords)


class TestHyperparams:
    def test_defaults(self):
        h = Hyperparams()
        assert h.sigma2_beta1 == 1000.0 and h.alpha == 1000.0 and h.a == 0.5
        assert h.trunc_lower == 0.0

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            Hyperparams(alpha=0.0)
        with pytest.raises(ValueError):
            Hyperparams(b=-1.0)

    @pytest.mark.parametrize("value", [-2.0, -1e-300, float("inf"), float("nan")])
    def test_trunc_lower_finite_and_nonnegative(self, value):
        # below 0 the truncated draw of 1/sigma_eta2 can return tau <= 0
        with pytest.raises(ValueError, match="trunc_lower"):
            Hyperparams(trunc_lower=value)


class TestBuildDesign:
    def test_intercept_only_variance_block(self):
        spec = build_design(toy_dataset(), ["temp"], [])
        assert spec.p2 == 1 and spec.r2 == 0
        assert np.all(spec.X2 == 1.0)

    def test_categorical_expansion_count(self):
        spec = build_design(toy_dataset(), [], ["soil"])
        assert spec.p2 == 3  # intercept + 2 treatment columns
        assert spec.x2_names == ["intercept", "soil[loam]", "soil[sand]"]

    def test_reference_level_is_alphabetical_first(self):
        data = toy_dataset()
        spec = build_design(data, ["soil"], [])
        labels = np.array([str(v) for v in data.columns["soil"]])
        # clay rows (the reference) have zeros in both indicator columns
        clay = labels == "clay"
        assert np.all(spec.X1[clay][:, 1:] == 0.0)

    def test_identical_formulas_identical_blocks(self):
        spec = build_design(toy_dataset(), ["temp", "soil"], ["temp", "soil"])
        assert np.array_equal(spec.X1, spec.X2)

    def test_byte_identical_rebuild(self):
        a = build_design(toy_dataset(), ["temp", "precip"], ["soil"])
        b = build_design(toy_dataset(), ["temp", "precip"], ["soil"])
        assert a.X1.tobytes() == b.X1.tobytes()
        assert a.X2.tobytes() == b.X2.tobytes()

    def test_standardization_recorded_and_invertible(self):
        data = toy_dataset()
        spec = build_design(data, ["temp"], [])
        (scale,) = spec.scales1
        raw = spec.X1[:, 1] * scale.sd + scale.mean
        assert np.allclose(raw, data.columns["temp"], rtol=1e-12)
        assert abs(spec.X1[:, 1].mean()) < 1e-12
        assert np.isclose(spec.X1[:, 1].std(ddof=0), 1.0)

    def test_unknown_column_named_in_error(self):
        with pytest.raises(KeyError, match="tempp"):
            build_design(toy_dataset(), ["tempp"], [])

    def test_single_level_categorical_rejected(self):
        data = toy_dataset()
        data.columns["region"] = np.array(["north"] * data.n, dtype=object)
        with pytest.raises(ValueError, match="region"):
            build_design(data, ["region"], [])

    def test_constant_numeric_rejected(self):
        data = toy_dataset()
        data.columns["one"] = np.ones(data.n)
        with pytest.raises(ValueError, match="one"):
            build_design(data, ["one"], [])

    def test_basis_requires_coords(self):
        with pytest.raises(ValueError, match="coords"):
            build_design(toy_dataset(), [], [], basis_var=BasisConfig([2]))

    def test_basis_blocks_built(self):
        spec = build_design(
            toy_dataset(with_coords=True), ["temp"], ["temp"],
            basis_mean=BasisConfig([2]), basis_var=BasisConfig([2, 3]),
        )
        assert spec.r1 == 4 and spec.r2 == 13


class TestModelSpec:
    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(X1=np.ones((5, 1)), Psi1=np.empty((5, 0)),
                      X2=np.ones((4, 1)), Psi2=np.empty((5, 0)))

    def test_zero_width_variance_block_allowed(self):
        spec = ModelSpec(X1=np.ones((5, 1)), Psi1=np.empty((5, 0)),
                         X2=np.empty((5, 0)), Psi2=np.ones((5, 2)))
        assert spec.p2 == 0 and spec.r2 == 2

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("block", ["X1", "Psi1", "X2", "Psi2"])
    def test_nonfinite_design_entry_named(self, block, value):
        blocks = {name: np.ones((6, 3)) for name in ("X1", "Psi1", "X2", "Psi2")}
        blocks[block][4, 2] = value
        with pytest.raises(ValueError, match=f"design block {block} has a non-finite entry at row 4, column 2"):
            ModelSpec(**blocks)

    def test_subset_rows(self):
        spec = build_design(toy_dataset(), ["temp"], ["soil"])
        sub = spec.subset_rows(np.arange(10))
        assert sub.n == 10 and sub.p1 == spec.p1 and sub.p2 == spec.p2


class TestLinearPredictors:
    # (p1, r1, p2, r2): every block, r1 = 0, and the ESVM shape with zero-width X2
    DIMS = [(3, 4, 2, 5), (2, 0, 3, 0), (1, 0, 0, 6)]

    @staticmethod
    def spec_and_draws(dims, n=40, draws=7):
        rng = np.random.default_rng(sum(dims))
        p1, r1, p2, r2 = dims
        spec = ModelSpec(X1=rng.normal(size=(n, p1)), Psi1=rng.normal(size=(n, r1)),
                         X2=rng.normal(size=(n, p2)), Psi2=rng.normal(size=(n, r2)))
        return spec, [rng.normal(0.0, 0.5, size=(draws, k)) for k in dims]

    @pytest.mark.parametrize("dims", DIMS)
    def test_one_draw_is_matrix_vector_product(self, dims):
        spec, (b1, e1, b2, e2) = self.spec_and_draws(dims)
        mu = spec.X1 @ b1[0]
        if spec.r1:
            mu = mu + spec.Psi1 @ e1[0]
        lp = spec.X2 @ b2[0]
        if spec.r2:
            lp = lp + spec.Psi2 @ e2[0]
        assert spec.mean(b1[0], e1[0]).tobytes() == mu.tobytes()
        assert spec.variance(b2[0], e2[0]).tobytes() == np.exp(-lp).tobytes()

    @pytest.mark.parametrize("dims", DIMS)
    def test_stack_matches_per_draw_rows(self, dims):
        spec, (b1, e1, b2, e2) = self.spec_and_draws(dims)
        mu, sigma2 = spec.mean(b1, e1), spec.variance(b2, e2)
        assert mu.shape == sigma2.shape == (b1.shape[0], spec.n)
        for i in range(b1.shape[0]):
            np.testing.assert_allclose(mu[i], spec.mean(b1[i], e1[i]), rtol=1e-12)
            np.testing.assert_allclose(sigma2[i], spec.variance(b2[i], e2[i]), rtol=1e-12)

    def test_variance_exponent_clipped(self):
        spec = ModelSpec(X1=np.ones((2, 1)), Psi1=np.empty((2, 0)),
                         X2=np.array([[1.0], [-1.0]]), Psi2=np.empty((2, 0)))
        sigma2 = spec.variance(np.array([1e6]), np.empty(0))
        assert np.array_equal(sigma2, np.exp([-700.0, 700.0]))


class TestDataset:
    def test_drop_missing_counts(self):
        y = np.array([1.0, np.nan, 3.0, 4.0])
        cols = {"x": np.array([1.0, 2.0, np.nan, 4.0]),
                "c": np.array(["a", "b", "a", None], dtype=object)}
        data = Dataset(y=y, columns=cols)
        kept, dropped = data.drop_missing(["x"])
        assert dropped == 2 and kept.n == 2
        kept2, dropped2 = data.drop_missing(["x", "c"])
        assert dropped2 == 3 and kept2.n == 1

    def test_all_rows_dropped_is_error(self):
        data = Dataset(y=np.array([np.nan, np.nan]), columns={})
        with pytest.raises(ValueError):
            data.drop_missing([])


class TestBisquare:
    def test_kernel_values(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0], [3.0, 0.0]])
        centers = np.array([[0.0, 0.0]])
        radii = np.array([1.0])
        phi = bisquare_basis(coords, centers, radii)
        assert np.isclose(phi[0, 0], 1.0)          # at the center
        assert np.isclose(phi[1, 0], 0.0)          # on the boundary
        assert np.isclose(phi[2, 0], 0.5625)       # half radius: (1 - 1/4)^2
        assert phi[3, 0] == 0.0                    # outside support

    def test_range_and_far_field(self):
        rng = np.random.default_rng(3)
        coords = rng.uniform(0, 1, size=(50, 2))
        coords[0] = [50.0, 50.0]  # far outside every kernel
        centers, radii = multiresolution_grid(coords[1:], [2, 3])
        phi = bisquare_basis(coords, centers, radii)
        assert phi.min() >= 0.0 and phi.max() <= 1.0
        assert np.all(phi[0] == 0.0)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            bisquare_basis(np.zeros((2, 2)), np.zeros((1, 2)), [0.0])

    def test_nonfinite_coords_rejected(self):
        # a NaN distance fails every support test and would give a zero row
        with pytest.raises(ValueError, match="coords must be finite"):
            bisquare_basis([[np.nan, 0.5], [0.5, 0.5]], [[0.5, 0.5]], [1.0])


class TestMultiresolutionGrid:
    def test_counts(self):
        coords = np.array([[0.0, 0.0], [1.0, 1.0]])
        centers, radii = multiresolution_grid(coords, [2])
        assert centers.shape == (4, 2)
        centers, radii = multiresolution_grid(coords, [2, 3])
        assert centers.shape == (13, 2)
        assert np.all(radii > 0.0)

    def test_bounding_box_expansion(self):
        coords = np.array([[0.0, 0.0], [1.0, 1.0]])
        centers, _ = multiresolution_grid(coords, [2])
        assert np.isclose(centers.min(), -0.025)
        assert np.isclose(centers.max(), 1.025)

    def test_empty_coords_rejected(self):
        with pytest.raises(ValueError):
            multiresolution_grid(np.empty((0, 2)), [2])

    def test_nonfinite_coords_rejected(self):
        coords = np.array([[0.0, 0.0], [np.nan, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            multiresolution_grid(coords, [2])
