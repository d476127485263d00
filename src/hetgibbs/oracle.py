"""Independent verification machinery for the samplers.

The verdict tools here (grid quadrature, total-variation comparison,
chi-square uniformity, Kolmogorov-Smirnov checks) depend only on primitive
RNG and quadrature, never on the code they judge.  The experiment drivers
(rank calibration, synthetic-data generation) exercise the samplers as
subjects and feed the verdict tools.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats
from scipy.integrate import trapezoid

from .design import Dataset, Hyperparams, ModelSpec
from .gibbs import GibbsConfig, run_gibbs
from .mlg import MlgParams, mlg_sample, log_gamma_sample, cmlg_sample, CmlgParams
from ._parallel import parallel_map

__all__ = [
    "GridOracle",
    "MassEscapeError",
    "grid_normalize",
    "SyntheticShape",
    "SyntheticTruth",
    "generate_synthetic",
    "synthetic_model_spec",
    "simulate_response",
    "draw_prior_coefficients",
    "SbcResult",
    "sbc_run",
    "chi_square_uniformity",
    "laplace_mixture_check",
    "invgauss_conditional_check",
    "cmlg_scalar_tv",
    "kappa_doubling_hook",
]


class MassEscapeError(ValueError):
    """The quadrature grid fails the tail-mass check."""


@dataclass
class GridOracle:
    """Trapezoid-normalized density on a uniform grid with CDF queries."""

    grid: np.ndarray
    logpdf: np.ndarray
    normalizer: float = field(default=0.0)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.logpdf = np.asarray(self.logpdf, dtype=float)
        if self.grid.ndim != 1 or self.grid.shape != self.logpdf.shape:
            raise ValueError("grid and logpdf must be equal-length vectors")
        if np.any(np.diff(self.grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if np.any(np.isnan(self.logpdf)):
            raise ValueError("log density contains NaN")
        top = self.logpdf.max()
        if not np.isfinite(top):
            raise ValueError("log density has no finite maximum")
        for end in (0, -1):
            if np.exp(self.logpdf[end] - top) > 1e-8:
                raise MassEscapeError(
                    "density at a grid endpoint exceeds 1e-8 of the maximum; "
                    "widen the grid"
                )
        dens = np.exp(self.logpdf - top)
        raw = trapezoid(dens, self.grid)
        if not (raw > 0.0) or not np.isfinite(raw):
            raise ValueError("density does not integrate to a positive finite value")
        self.normalizer = float(raw * np.exp(top))
        pdf = dens / raw
        cdf = np.concatenate([[0.0], np.cumsum(
            0.5 * (pdf[1:] + pdf[:-1]) * np.diff(self.grid)
        )])
        self._cdf = cdf / cdf[-1]

    def cdf(self, x) -> np.ndarray:
        return np.interp(x, self.grid, self._cdf, left=0.0, right=1.0)

    def quantile(self, q: float) -> float:
        if not (0.0 <= q <= 1.0):
            raise ValueError("q must lie in [0, 1]")
        return float(np.interp(q, self._cdf, self.grid))

    def tv_vs_histogram(self, samples: np.ndarray, bins: int = 200) -> float:
        """Total-variation distance between a sample histogram and the oracle."""
        samples = np.asarray(samples, dtype=float)
        edges = np.linspace(self.grid[0], self.grid[-1], bins + 1)
        counts, _ = np.histogram(np.clip(samples, edges[0], edges[-1]), bins=edges)
        p_hat = counts / counts.sum()
        p_orc = np.diff(self.cdf(edges))
        return 0.5 * float(np.abs(p_hat - p_orc).sum())


def grid_normalize(logdensity, lo: float, hi: float, points: int = 10_001) -> GridOracle:
    """Tabulate and normalize a log density over [lo, hi]."""
    if points < 1000:
        raise ValueError("at least 1000 grid points are required")
    grid = np.linspace(lo, hi, points)
    vals = np.array([float(logdensity(x)) for x in grid])
    return GridOracle(grid=grid, logpdf=vals)


# ---------------------------------------------------------------------------
# synthetic data


@dataclass
class SyntheticShape:
    """Block dimensions and likelihood of a synthetic model."""

    p1: int = 2
    p2: int = 1
    r1: int = 0
    r2: int = 0
    likelihood: str = "gaussian"

    def __post_init__(self):
        if self.p1 < 1 or self.p2 < 1 or self.r1 < 0 or self.r2 < 0:
            raise ValueError("p1, p2 must be >= 1 and r1, r2 >= 0")
        if self.likelihood not in ("gaussian", "laplace"):
            raise ValueError("likelihood must be 'gaussian' or 'laplace'")


@dataclass
class SyntheticTruth:
    """Coefficients used to generate a synthetic dataset."""

    beta1: np.ndarray
    eta1: np.ndarray
    beta2: np.ndarray
    eta2: np.ndarray
    seed: int
    likelihood: str


def _shape_columns(shape: SyntheticShape, n: int, rng: np.random.Generator) -> dict:
    cols = {}
    for j in range(shape.p1 - 1):
        cols[f"xm{j + 1}"] = rng.standard_normal(n)
    for j in range(shape.p2 - 1):
        cols[f"xv{j + 1}"] = rng.standard_normal(n)
    for j in range(shape.r1):
        cols[f"zm{j + 1}"] = rng.standard_normal(n)
    for j in range(shape.r2):
        cols[f"zv{j + 1}"] = rng.standard_normal(n)
    return cols


def synthetic_model_spec(
    dataset: Dataset,
    shape: SyntheticShape,
    hyper: Hyperparams | None = None,
) -> ModelSpec:
    """Raw (unstandardized) design blocks for a synthetic dataset.

    Columns enter exactly as generated, so true coefficients live on the
    same scale the sampler sees.
    """
    n = dataset.n
    X1 = np.column_stack(
        [np.ones(n)] + [dataset.columns[f"xm{j + 1}"] for j in range(shape.p1 - 1)]
    )
    X2 = np.column_stack(
        [np.ones(n)] + [dataset.columns[f"xv{j + 1}"] for j in range(shape.p2 - 1)]
    )
    Psi1 = (
        np.column_stack([dataset.columns[f"zm{j + 1}"] for j in range(shape.r1)])
        if shape.r1
        else np.empty((n, 0))
    )
    Psi2 = (
        np.column_stack([dataset.columns[f"zv{j + 1}"] for j in range(shape.r2)])
        if shape.r2
        else np.empty((n, 0))
    )
    return ModelSpec(
        X1=X1,
        Psi1=Psi1,
        X2=X2,
        Psi2=Psi2,
        likelihood=shape.likelihood,
        hyper=hyper if hyper is not None else Hyperparams(),
    )


def simulate_response(spec: ModelSpec, truth: SyntheticTruth, rng: np.random.Generator) -> np.ndarray:
    """Draw a response vector from the generative model at given coefficients."""
    mu = spec.mean(truth.beta1, truth.eta1)
    sigma2 = spec.variance(truth.beta2, truth.eta2)
    if truth.likelihood == "laplace":
        return mu + rng.laplace(0.0, np.sqrt(sigma2 / 2.0))
    return mu + rng.normal(0.0, np.sqrt(sigma2))


def generate_synthetic(
    shape: SyntheticShape,
    seed: int,
    n: int,
    truth: SyntheticTruth | None = None,
) -> tuple[Dataset, SyntheticTruth]:
    """Standard-normal covariates plus a response drawn at true coefficients.

    When ``truth`` is omitted, mean coefficients are drawn N(0, 1) and
    variance coefficients N(0, 0.5^2), all reproducibly from ``seed``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    cols = _shape_columns(shape, n, rng)
    if truth is None:
        truth = SyntheticTruth(
            beta1=rng.normal(0.0, 1.0, size=shape.p1),
            eta1=rng.normal(0.0, 0.5, size=shape.r1),
            beta2=rng.normal(0.0, 0.5, size=shape.p2),
            eta2=rng.normal(0.0, 0.5, size=shape.r2),
            seed=seed,
            likelihood=shape.likelihood,
        )
    data = Dataset(y=np.zeros(n), columns=cols)
    spec = synthetic_model_spec(data, shape)
    y = simulate_response(spec, truth, rng)
    data = Dataset(y=y, columns=cols)
    return data, truth


# ---------------------------------------------------------------------------
# prior draws and rank calibration


def draw_prior_coefficients(
    shape: SyntheticShape, hyper: Hyperparams, rng: np.random.Generator
) -> SyntheticTruth:
    """Draw every sampled block from its prior (used by rank calibration)."""
    al = hyper.alpha
    beta1 = rng.normal(0.0, math.sqrt(hyper.sigma2_beta1), size=shape.p1)
    sd_b2 = math.sqrt(hyper.sigma2_beta2)
    beta2 = mlg_sample(
        rng,
        MlgParams(
            mu=np.zeros(shape.p2),
            V=math.sqrt(al) * sd_b2 * np.eye(shape.p2),
            alpha=np.full(shape.p2, al),
            kappa=np.full(shape.p2, al),
        ),
    )
    if shape.r1:
        sigma2_eta1 = hyper.b / rng.gamma(hyper.a, 1.0)
        eta1 = rng.normal(0.0, math.sqrt(sigma2_eta1), size=shape.r1)
    else:
        eta1 = np.empty(0)
    if shape.r2:
        inv = None
        for _ in range(10**6):
            cand = log_gamma_sample(rng, hyper.omega, hyper.rho)
            if cand > hyper.trunc_lower:
                inv = cand
                break
        if inv is None:
            raise RuntimeError("prior truncation rejection failed")
        sigma_eta2 = 1.0 / inv
        eta2 = mlg_sample(
            rng,
            MlgParams(
                mu=np.zeros(shape.r2),
                V=math.sqrt(al) * sigma_eta2 * np.eye(shape.r2),
                alpha=np.full(shape.r2, al),
                kappa=np.full(shape.r2, al),
            ),
        )
    else:
        eta2 = np.empty(0)
    return SyntheticTruth(
        beta1=beta1,
        eta1=eta1,
        beta2=beta2,
        eta2=eta2,
        seed=-1,
        likelihood=shape.likelihood,
    )


def chi_square_uniformity(ranks: np.ndarray, n_levels: int, bins: int = 20) -> float:
    """Chi-square goodness-of-fit p-value of ranks against uniform {0..L}.

    Bin probabilities account for unequal numbers of rank values per bin
    when ``n_levels`` is not a multiple of ``bins``.
    """
    ranks = np.asarray(ranks, dtype=int)
    if np.any(ranks < 0) or np.any(ranks >= n_levels):
        raise ValueError("ranks outside [0, n_levels)")
    idx = (ranks * bins) // n_levels
    observed = np.bincount(idx, minlength=bins).astype(float)
    values_per_bin = np.bincount((np.arange(n_levels) * bins) // n_levels, minlength=bins)
    expected = ranks.shape[0] * values_per_bin / n_levels
    stat = float(((observed - expected) ** 2 / expected).sum())
    return float(stats.chi2.sf(stat, df=bins - 1))


@dataclass
class SbcResult:
    """Rank table plus per-parameter uniformity p-values."""

    param_names: list
    ranks: np.ndarray          # (replicates, n_params)
    n_levels: int              # ranks take values 0..n_levels-1
    p_values: dict
    failures: int


def _sbc_replicate_safe(args):
    try:
        return "ok", _sbc_replicate(args)
    except Exception as exc:  # reported through SbcResult.failures
        return "fail", f"{type(exc).__name__}: {exc}"


def _sbc_replicate(args):
    shape, hyper, n, iterations, burn_in, thin_to, seed, hook = args
    rng = np.random.default_rng(seed)
    cols = _shape_columns(shape, n, rng)
    data = Dataset(y=np.zeros(n), columns=cols)
    spec = synthetic_model_spec(data, shape, hyper)
    truth = draw_prior_coefficients(shape, hyper, rng)
    y = simulate_response(spec, truth, rng)
    data = Dataset(y=y, columns=cols)
    post = iterations - burn_in
    thin = max(1, post // thin_to)
    config = GibbsConfig(
        iterations=iterations,
        burn_in=burn_in,
        thin=thin,
        seed=seed + 1,
        chains=1,
    )
    chain = run_gibbs(spec, data, config, hook=hook)[0]
    names, ranks = [], []
    for block in ("beta1", "beta2", "eta1", "eta2"):
        true, draws = getattr(truth, block), getattr(chain, block)[-thin_to:]
        for j in range(true.shape[0]):
            names.append(f"{block}_{j + 1}")
            ranks.append(int(np.sum(draws[:, j] < true[j])))
    return names, ranks, len(chain.beta1[-thin_to:])


def sbc_run(
    shape: SyntheticShape,
    hyper: Hyperparams,
    replicates: int,
    iterations: int,
    n: int = 50,
    burn_in: int | None = None,
    thin_to: int = 100,
    seed: int = 0,
    hook=None,
) -> SbcResult:
    """Rank-calibration run: prior draws, synthetic data, refit, rank truth.

    If the sampler targets the exact posterior, each true coefficient's rank
    among its thinned posterior draws is uniform on {0..L}; per-parameter
    chi-square p-values quantify departures.  Chain failures are counted and
    reported, never swallowed silently.
    """
    if replicates < 100:
        raise ValueError("at least 100 replicates are required for a rank histogram")
    if burn_in is None:
        burn_in = max(iterations // 5, 1)
    jobs = [
        (shape, hyper, n, iterations, burn_in, thin_to, seed + 104729 * (r + 1), hook)
        for r in range(replicates)
    ]
    if hook is not None:
        outcomes = [_sbc_replicate_safe(job) for job in jobs]
    else:
        outcomes = parallel_map(_sbc_replicate_safe, jobs)
    results = [payload for status, payload in outcomes if status == "ok"]
    failures = sum(1 for status, _ in outcomes if status != "ok")
    if not results:
        raise RuntimeError("every rank-calibration replicate failed")
    names = results[0][0]
    L = results[0][2]
    ranks = np.array([r[1] for r in results], dtype=int)
    p_values = {
        name: chi_square_uniformity(ranks[:, j], n_levels=L + 1)
        for j, name in enumerate(names)
    }
    return SbcResult(
        param_names=names,
        ranks=ranks,
        n_levels=L + 1,
        p_values=p_values,
        failures=failures,
    )


def kappa_doubling_hook(block: str = "beta2"):
    """Deliberate corruption for negative controls: doubles a block's rates."""

    def hook(name, params):
        if name == block:
            return CmlgParams(H=params.H, alpha=params.alpha, kappa=2.0 * params.kappa)
        return params

    return hook


# ---------------------------------------------------------------------------
# distribution identities


def laplace_mixture_check(sigma2: float, draws: int, seed: int = 0):
    """KS test of the exponential scale mixture against the Laplace law.

    Simulates s ~ Exp(mean sigma2), y | s ~ N(0, s) and compares with
    Laplace(0, b) where b = sqrt(sigma2 / 2).
    """
    if sigma2 <= 0.0:
        raise ValueError("sigma2 must be positive")
    rng = np.random.default_rng(seed)
    s = rng.exponential(sigma2, size=draws)
    y = rng.normal(0.0, np.sqrt(s))
    b = math.sqrt(sigma2 / 2.0)
    res = stats.kstest(y, stats.laplace(loc=0.0, scale=b).cdf)
    return float(res.statistic), float(res.pvalue)


def invgauss_conditional_check(resid2: float = 1.3, sigma2: float = 0.7, points: int = 20_001) -> dict:
    """Completing-the-square check for the augmentation conditional.

    The unnormalized conditional of u = 1/s is
    u^{-3/2} exp(-resid2 u / 2 - 1 / (u sigma2)).  Matching it to an
    inverse-Gaussian density forces lam = 2 / sigma2 and
    mean = sqrt(2 / (resid2 sigma2)); the variant with mean
    sqrt(1 / (resid2 sigma2)) does not match.  Returns the L1 distances of
    both candidates from the grid-normalized conditional.
    """
    lam = 2.0 / sigma2
    mu_match = math.sqrt(2.0 / (resid2 * sigma2))
    mu_variant = math.sqrt(1.0 / (resid2 * sigma2))
    hi = mu_match + 60.0 * math.sqrt(mu_match**3 / lam) + 5.0
    grid = np.linspace(1e-9, hi, points)

    def target_log(u):
        return -1.5 * np.log(u) - 0.5 * resid2 * u - 1.0 / (u * sigma2)

    lp = target_log(grid)
    lp -= lp.max()
    dens = np.exp(lp)
    dens /= trapezoid(dens, grid)

    out = {}
    for label, mu0 in (("derived_l1", mu_match), ("variant_l1", mu_variant)):
        cand = stats.invgauss(mu=mu0 / lam, scale=lam).pdf(grid)
        out[label] = 0.5 * float(trapezoid(np.abs(cand - dens), grid))
    return out


def cmlg_scalar_tv(
    H_col: np.ndarray,
    alpha: np.ndarray,
    kappa: np.ndarray,
    draws: int = 100_000,
    seed: int = 0,
    span: float = 14.0,
) -> float:
    """Total variation between projection draws and the scalar cMLG density.

    The density oracle is written from the definition, independent of the
    sampler: log f(x) = sum_i alpha_i H_i x - sum_i kappa_i exp(H_i x).
    """
    H_col = np.asarray(H_col, dtype=float).reshape(-1)
    alpha = np.asarray(alpha, dtype=float).reshape(-1)
    kappa = np.asarray(kappa, dtype=float).reshape(-1)

    def logf(x):
        t = H_col * x
        return float(alpha @ t - kappa @ np.exp(np.minimum(t, 700.0)))

    params = CmlgParams(H=H_col[:, None], alpha=alpha, kappa=kappa)
    rng = np.random.default_rng(seed)
    samples = np.array([cmlg_sample(rng, params)[0] for _ in range(draws)])
    center = np.median(samples)
    spread = max(samples.std(), 1e-3)
    lo, hi = center - span * spread, center + span * spread
    # widen until the oracle's tail check passes
    for _ in range(12):
        try:
            oracle = grid_normalize(logf, lo, hi, points=8001)
            break
        except MassEscapeError:
            lo -= span * spread
            hi += span * spread
    else:
        raise MassEscapeError("could not bracket the density mass")
    return oracle.tv_vs_histogram(samples, bins=120)
