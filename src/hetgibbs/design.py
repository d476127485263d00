"""Declarative model specification: design matrices and hyperparameters.

Mean and variance predictors are each described by a list of column names
plus an optional spatial basis.  Categorical columns expand to
treatment-coded indicators (alphabetical reference level); continuous
columns are centered and scaled to unit standard deviation, with the scaling
constants persisted so raw values are recoverable.  An intercept column is
always prepended to both fixed-effect blocks.

``RunCounters`` and ``CLAMP_LIMIT`` live here beside ``ModelSpec.variance``,
which clamps and counts; the sampler and the oracle's MLG density count
their repairs into the same type.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

__all__ = [
    "CLAMP_LIMIT",
    "RunCounters",
    "Hyperparams",
    "Dataset",
    "BasisConfig",
    "ColumnScale",
    "ModelSpec",
    "build_design",
    "bisquare_basis",
    "multiresolution_grid",
]

# Exponent ceiling applied inside density evaluation before exponentiation.
# Saturation is counted, never silent.
CLAMP_LIMIT = 700.0


@dataclass
class RunCounters:
    """Observable numerical events and scan work accumulated during one chain.

    ``scan_draws`` counts the exact coordinate draws of the cMLG scans,
    ``scan_evals`` the log-density evaluations they made, not counting the
    pass at each coordinate's current value, and ``scan_proposals`` the
    candidates they drew from their envelopes.
    """

    jitter_repairs: int = 0
    exp_clamps: int = 0
    scan_draws: int = 0
    scan_evals: int = 0
    scan_proposals: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class Hyperparams:
    """Prior constants for the heteroskedastic model.

    Defaults follow the weakly informative setting used throughout:
    variances and shape constants at 1000, inverse-gamma constants at 0.5.
    ``trunc_lower`` is the lower truncation point of the prior on the
    reciprocal variance-coefficient scale, finite and at least 0 (0 for the
    plain model; raised, e.g. to 7, by the echo-state volatility
    configuration).
    """

    sigma2_beta1: float = 1000.0
    sigma2_beta2: float = 1000.0
    alpha: float = 1000.0
    a: float = 0.5
    b: float = 0.5
    omega: float = 1000.0
    rho: float = 1000.0
    trunc_lower: float = 0.0

    def __post_init__(self):
        for name in ("sigma2_beta1", "sigma2_beta2", "alpha", "a", "b", "omega", "rho"):
            v = float(getattr(self, name))
            if not (v > 0.0) or not np.isfinite(v):
                raise ValueError(f"{name} must be a positive finite number")
            setattr(self, name, v)
        self.trunc_lower = float(self.trunc_lower)
        # below 0 the truncated draw of 1/sigma_eta2 can return a non-positive value
        if not (self.trunc_lower >= 0.0 and np.isfinite(self.trunc_lower)):
            raise ValueError(f"trunc_lower must be a finite number >= 0, got {self.trunc_lower!r}")


@dataclass
class Dataset:
    """Observed response plus named covariate columns.

    ``columns`` maps names to float arrays (continuous) or object arrays
    (categorical).  ``coords`` holds n x 2 spatial locations when a spatial
    basis is wanted.
    """

    y: np.ndarray
    columns: dict = field(default_factory=dict)
    coords: np.ndarray | None = None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float).reshape(-1)
        if self.y.shape[0] < 1:
            raise ValueError("dataset must contain at least one row")
        for name, col in self.columns.items():
            col = np.asarray(col)
            if col.shape[0] != self.y.shape[0]:
                raise ValueError(f"column {name!r} has {col.shape[0]} rows, expected {self.y.shape[0]}")
            self.columns[name] = col
        if self.coords is not None:
            self.coords = np.asarray(self.coords, dtype=float)
            if self.coords.shape != (self.y.shape[0], 2):
                raise ValueError("coords must be an n x 2 array")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def subset(self, rows: np.ndarray) -> "Dataset":
        return Dataset(
            y=self.y[rows],
            columns={k: v[rows] for k, v in self.columns.items()},
            coords=None if self.coords is None else self.coords[rows],
        )

    def complete_cases(self, referenced: list[str]) -> np.ndarray:
        """Boolean mask of the rows with a response and every referenced value."""
        keep = np.isfinite(self.y)
        for name in referenced:
            if name not in self.columns:
                raise KeyError(f"unknown column {name!r}")
            col = self.columns[name]
            if col.dtype.kind == "f":
                keep &= np.isfinite(col)
            else:
                keep &= np.array([v is not None and v == v and str(v) != "" for v in col])
        return keep

    def drop_missing(self, referenced: list[str]) -> tuple["Dataset", int]:
        """Drop rows with a missing response or missing referenced value.

        Returns the cleaned dataset and the number of rows removed.
        """
        keep = self.complete_cases(referenced)
        dropped = int(self.n - keep.sum())
        if keep.all():
            return self, 0
        if keep.sum() == 0:
            raise ValueError("all rows were dropped: no complete cases")
        return self.subset(np.nonzero(keep)[0]), dropped


@dataclass
class BasisConfig:
    """Multiresolution bisquare basis request: grid sizes per resolution."""

    resolutions: list[int]

    def __post_init__(self):
        self.resolutions = [int(r) for r in self.resolutions]
        if not self.resolutions or any(r < 1 for r in self.resolutions):
            raise ValueError("each resolution must be a positive integer")


@dataclass
class ColumnScale:
    """Persisted standardization constants for one continuous column."""

    name: str
    mean: float
    sd: float


@dataclass
class ModelSpec:
    """Design blocks and likelihood mode for one model fit.

    ``X1``/``X2`` are the fixed-effect blocks for mean and variance;
    ``Psi1``/``Psi2`` the (possibly zero-width) random-effect blocks.
    ``build_design`` always produces ``p2 >= 1``; a zero-width ``X2`` is
    permitted for directly constructed specs whose variance predictor lives
    entirely in ``Psi2`` (the echo-state reduction).  Every block must be
    finite; the first non-finite entry is named by block and by its
    (0-based) row and column.
    """

    X1: np.ndarray
    Psi1: np.ndarray
    X2: np.ndarray
    Psi2: np.ndarray
    likelihood: str = "gaussian"
    hyper: Hyperparams = field(default_factory=Hyperparams)
    x1_names: list = field(default_factory=list)
    x2_names: list = field(default_factory=list)
    scales1: list = field(default_factory=list)
    scales2: list = field(default_factory=list)

    def __post_init__(self):
        self.X1 = np.atleast_2d(np.asarray(self.X1, dtype=float))
        self.X2 = np.asarray(self.X2, dtype=float)
        n = self.X1.shape[0]
        if self.X2.size == 0:
            self.X2 = self.X2.reshape(n, -1)
        self.X2 = np.atleast_2d(self.X2)
        self.Psi1 = np.asarray(self.Psi1, dtype=float).reshape(n, -1)
        self.Psi2 = np.asarray(self.Psi2, dtype=float).reshape(n, -1)
        if self.X1.shape[1] < 1:
            raise ValueError("X1 must contain at least an intercept column")
        for name in ("X1", "Psi1", "X2", "Psi2"):
            block = getattr(self, name)
            if block.shape[0] != n:
                raise ValueError(f"{name} has {block.shape[0]} rows, expected {n}")
            bad = np.argwhere(~np.isfinite(block))
            if bad.size:
                i, j = bad[0]
                raise ValueError(f"design block {name} has a non-finite entry at row {i}, column {j}")
        if self.likelihood not in ("gaussian", "laplace"):
            raise ValueError("likelihood must be 'gaussian' or 'laplace'")
        if not self.x1_names:
            self.x1_names = [f"x1_{j}" for j in range(self.X1.shape[1])]
        if not self.x2_names:
            self.x2_names = [f"x2_{j}" for j in range(self.X2.shape[1])]

    @property
    def n(self) -> int:
        return self.X1.shape[0]

    @property
    def p1(self) -> int:
        return self.X1.shape[1]

    @property
    def r1(self) -> int:
        return self.Psi1.shape[1]

    @property
    def p2(self) -> int:
        return self.X2.shape[1]

    @property
    def r2(self) -> int:
        return self.Psi2.shape[1]

    def mean(self, beta1: np.ndarray, eta1: np.ndarray) -> np.ndarray:
        """Mean linear predictor ``X1 beta1 + Psi1 eta1``.

        Takes one draw (vectors) or a stack of draws (one draw per row).
        """
        mu = beta1 @ self.X1.T
        if self.r1:
            mu = mu + eta1 @ self.Psi1.T
        return mu

    def variance(self, beta2: np.ndarray, eta2: np.ndarray, counters: RunCounters | None = None) -> np.ndarray:
        """Model variances ``exp(-(X2 beta2 + Psi2 eta2))``, positive by construction.

        The linear predictor is clipped to +-CLAMP_LIMIT before the
        exponential; ``counters.exp_clamps`` counts the clipped entries on
        either side.  Takes one draw or a stack of draws, like ``mean``.
        """
        lp = beta2 @ self.X2.T
        if self.r2:
            lp = lp + eta2 @ self.Psi2.T
        if counters is not None:
            counters.exp_clamps += int(np.count_nonzero(np.abs(lp) > CLAMP_LIMIT))
        return np.exp(-np.clip(lp, -CLAMP_LIMIT, CLAMP_LIMIT))

    def subset_rows(self, rows: np.ndarray) -> "ModelSpec":
        return replace(
            self,
            X1=self.X1[rows],
            Psi1=self.Psi1[rows],
            X2=self.X2[rows],
            Psi2=self.Psi2[rows],
        )


def _expand_term(dataset: Dataset, name: str):
    """Columns, names and scale records for one model term."""
    if name not in dataset.columns:
        raise KeyError(f"unknown column {name!r}")
    col = dataset.columns[name]
    if col.dtype.kind == "f":
        mean = float(col.mean())
        sd = float(col.std(ddof=0))
        if sd == 0.0:
            raise ValueError(f"column {name!r} is constant; cannot standardize")
        return [(col - mean) / sd], [name], [ColumnScale(name, mean, sd)]
    levels = sorted({str(v) for v in col})
    if len(levels) < 2:
        raise ValueError(f"categorical column {name!r} has fewer than 2 levels")
    cols, names = [], []
    labels = np.array([str(v) for v in col])
    for level in levels[1:]:  # first level is the reference
        cols.append((labels == level).astype(float))
        names.append(f"{name}[{level}]")
    return cols, names, []


def _build_block(dataset: Dataset, terms, basis: BasisConfig | None, label: str):
    cols = [np.ones(dataset.n)]
    names = ["intercept"]
    scales = []
    for term in terms:
        c, nm, sc = _expand_term(dataset, term)
        cols.extend(c)
        names.extend(nm)
        scales.extend(sc)
    X = np.column_stack(cols)
    if basis is not None:
        if dataset.coords is None:
            raise ValueError(f"{label} basis requested but the dataset has no coords")
        centers, radii = multiresolution_grid(dataset.coords, basis.resolutions)
        Psi = bisquare_basis(dataset.coords, centers, radii)
    else:
        Psi = np.empty((dataset.n, 0))
    return X, names, scales, Psi


def build_design(
    dataset: Dataset,
    formula_mean,
    formula_var,
    basis_mean: BasisConfig | None = None,
    basis_var: BasisConfig | None = None,
    likelihood: str = "gaussian",
    hyper: Hyperparams | None = None,
) -> ModelSpec:
    """Assemble a ModelSpec from term lists and optional basis requests.

    ``formula_mean``/``formula_var`` are lists of column names; an intercept
    is always prepended, so an empty list gives an intercept-only block
    (the constant-variance special case for the variance side).
    """
    X1, n1, s1, Psi1 = _build_block(dataset, list(formula_mean), basis_mean, "mean")
    X2, n2, s2, Psi2 = _build_block(dataset, list(formula_var), basis_var, "variance")
    return ModelSpec(
        X1=X1,
        Psi1=Psi1,
        X2=X2,
        Psi2=Psi2,
        likelihood=likelihood,
        hyper=hyper if hyper is not None else Hyperparams(),
        x1_names=n1,
        x2_names=n2,
        scales1=s1,
        scales2=s2,
    )


def bisquare_basis(coords, centers, radii) -> np.ndarray:
    """Bisquare kernel matrix: entry (i, k) is (1 - (d_ik/r_k)^2)^2, 0 outside.

    ``d_ik`` is the Euclidean distance from location i to center k.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    radii = np.asarray(radii, dtype=float).reshape(-1)
    if not np.all(np.isfinite(coords)):
        raise ValueError("coords must be finite")
    if np.any(radii <= 0.0):
        raise ValueError("radii must be strictly positive")
    if centers.shape[0] != radii.shape[0]:
        raise ValueError("one radius per center is required")
    d2 = ((coords[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    u = d2 / radii[None, :] ** 2
    out = np.where(u <= 1.0, (1.0 - u) ** 2, 0.0)
    return out


def multiresolution_grid(coords, resolutions) -> tuple[np.ndarray, np.ndarray]:
    """Regular m x m center grids over the 5%-expanded bounding box.

    For each resolution m the kernel radius is 1.5 times that grid's
    spacing (the larger of the two axis spacings; the full box width when
    m = 1).  Grids are concatenated across resolutions.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if coords.size == 0:
        raise ValueError("coords is empty")
    if not np.all(np.isfinite(coords)):
        raise ValueError("coords must be finite")
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    lo = lo - 0.025 * span
    hi = hi + 0.025 * span
    centers, radii = [], []
    for m in resolutions:
        m = int(m)
        if m < 1:
            raise ValueError("resolutions must be >= 1")
        gx = np.linspace(lo[0], hi[0], m) if m > 1 else np.array([(lo[0] + hi[0]) / 2.0])
        gy = np.linspace(lo[1], hi[1], m) if m > 1 else np.array([(lo[1] + hi[1]) / 2.0])
        if m > 1:
            spacing = max((hi[0] - lo[0]) / (m - 1), (hi[1] - lo[1]) / (m - 1))
        else:
            spacing = max(hi[0] - lo[0], hi[1] - lo[1])
        xx, yy = np.meshgrid(gx, gy, indexing="ij")
        grid = np.column_stack([xx.ravel(), yy.ravel()])
        centers.append(grid)
        radii.append(np.full(grid.shape[0], 1.5 * spacing))
    return np.vstack(centers), np.concatenate(radii)
