"""Model comparison and predictive assessment.

Pointwise log-likelihood matrices feed the information criteria; variance
calibration is scored by the mean squared error between squared residuals
and estimated variances (MSEV), in sample or through k-fold cross
validation.  Laplace-mode criteria use the marginal Laplace likelihood with
scale b = sqrt(sigma2/2), putting Gaussian and Laplace fits on one scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import logsumexp

from .design import Dataset, ModelSpec
from .gibbs import GibbsConfig, PosteriorChain, concatenate_chains, run_gibbs
from ._parallel import parallel_map

__all__ = [
    "PointwiseLogLik",
    "CvScheme",
    "CvResult",
    "ParamSummary",
    "loglik_pointwise",
    "predict_posterior_means",
    "dic",
    "waic",
    "msev",
    "kfold_cv",
    "summarize",
    "effective_sample_size",
]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class PointwiseLogLik:
    """log p(y_i | draw s) for every stored draw and observation."""

    values: np.ndarray  # (S, n)
    mode: str

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if not np.all(np.isfinite(self.values)):
            raise ValueError("pointwise log-likelihood contains non-finite entries")
        if self.mode not in ("gaussian", "laplace"):
            raise ValueError("mode must be 'gaussian' or 'laplace'")


def _loglik_values(y: np.ndarray, mu: np.ndarray, sigma2: np.ndarray, mode: str) -> np.ndarray:
    if mode == "laplace":
        b = np.sqrt(sigma2 / 2.0)
        return -np.log(2.0 * b) - np.abs(y[None, :] - mu) / b
    return -0.5 * (_LOG_2PI + np.log(sigma2)) - (y[None, :] - mu) ** 2 / (2.0 * sigma2)


def predict_posterior_means(chain: PosteriorChain, spec: ModelSpec):
    """Posterior-mean predictions: coefficient means for the mean function,
    the mean over draws of exp(-linear predictor) for the variance."""
    mu = spec.mean(chain.beta1, chain.eta1)
    sigma2 = spec.variance(chain.beta2, chain.eta2)
    return mu.mean(axis=0), sigma2.mean(axis=0)


def loglik_pointwise(chain: PosteriorChain, spec: ModelSpec, data: Dataset) -> PointwiseLogLik:
    """Pointwise log-likelihood matrix for a fitted chain."""
    if len(chain) < 1:
        raise ValueError("chain is empty")
    if data.n != spec.n:
        raise ValueError("dataset and design disagree on the number of rows")
    mu = spec.mean(chain.beta1, chain.eta1)
    sigma2 = spec.variance(chain.beta2, chain.eta2)
    return PointwiseLogLik(values=_loglik_values(data.y, mu, sigma2, spec.likelihood), mode=spec.likelihood)


def waic(ll: PointwiseLogLik) -> float:
    """Widely applicable information criterion: -2 (lppd - p_waic).

    lppd uses log-sum-exp over draws; the penalty is the sum of per-point
    draw variances with divisor S - 1.
    """
    v = ll.values
    S = v.shape[0]
    if S < 2:
        raise ValueError("WAIC requires at least two draws")
    lppd = float(np.sum(logsumexp(v, axis=0) - math.log(S)))
    p_waic = float(np.sum(np.var(v, axis=0, ddof=1)))
    return -2.0 * (lppd - p_waic)


def _plugin_loglik(chain: PosteriorChain, spec: ModelSpec, data: Dataset) -> float:
    """Total log-likelihood at the posterior-mean coefficients.

    Variances are recomputed from the mean coefficients (not averaged
    directly), matching the conventional plug-in.  The posterior means enter
    as one-row stacks of draws, the form ``loglik_pointwise`` passes.
    """
    def bar(draws):
        return draws.mean(axis=0, keepdims=True)

    mu = spec.mean(bar(chain.beta1), bar(chain.eta1))
    sigma2 = spec.variance(bar(chain.beta2), bar(chain.eta2))
    return float(np.sum(_loglik_values(data.y, mu, sigma2, spec.likelihood)))


def dic(ll: PointwiseLogLik, chain: PosteriorChain, spec: ModelSpec, data: Dataset) -> float:
    """Deviance information criterion with the posterior-mean plug-in.

    DIC = -2 log p(y | theta_bar) + 2 p_dic where
    p_dic = 2 [log p(y | theta_bar) - mean_s log p(y | theta_s)].
    """
    if ll.values.shape[0] != len(chain):
        raise ValueError("log-likelihood matrix and chain disagree on draw count")
    ll_bar = _plugin_loglik(chain, spec, data)
    ll_mean = float(ll.values.sum(axis=1).mean())
    if len(chain) == 1:
        warnings.warn("single-draw chain: p_dic is 0 by construction", stacklevel=2)
    p_dic = 2.0 * (ll_bar - ll_mean)
    return -2.0 * ll_bar + 2.0 * p_dic


def msev(y, mu_hat, sigma2_hat) -> float:
    """Mean squared error between squared residuals and estimated variances."""
    y = np.asarray(y, dtype=float).reshape(-1)
    mu_hat = np.asarray(mu_hat, dtype=float).reshape(-1)
    sigma2_hat = np.asarray(sigma2_hat, dtype=float).reshape(-1)
    if not (y.shape == mu_hat.shape == sigma2_hat.shape):
        raise ValueError("y, mu_hat and sigma2_hat must have equal lengths")
    return float(np.mean(((y - mu_hat) ** 2 - sigma2_hat) ** 2))


@dataclass
class CvScheme:
    """Seeded fold assignment: a partition of the rows."""

    folds: int
    assignment: np.ndarray
    seed: int

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=int).reshape(-1)
        if self.folds < 2:
            raise ValueError("at least two folds are required")
        labels = np.unique(self.assignment)
        if not np.array_equal(labels, np.arange(self.folds)):
            raise ValueError("assignment must use every fold label exactly 0..folds-1")

    @classmethod
    def make(cls, n: int, folds: int = 5, seed: int = 0) -> "CvScheme":
        if n < folds:
            raise ValueError("need at least one row per fold")
        perm = np.random.default_rng(seed).permutation(n)
        assignment = np.empty(n, dtype=int)
        assignment[perm] = np.arange(n) % folds
        return cls(folds=folds, assignment=assignment, seed=seed)


@dataclass
class CvResult:
    """Held-out predictions in original row order plus the pooled score."""

    mu_hat: np.ndarray
    sigma2_hat: np.ndarray
    fold_msev: list
    msev_pooled: float
    scheme: CvScheme


def _cv_fold_worker(args):
    spec, data, config, scheme, fold = args
    train = np.nonzero(scheme.assignment != fold)[0]
    held = np.nonzero(scheme.assignment == fold)[0]
    if train.shape[0] < spec.p1 + spec.p2:
        raise ValueError(
            f"fold {fold} leaves {train.shape[0]} training rows; "
            f"need at least {spec.p1 + spec.p2}"
        )
    cfg = replace(config, seed=config.seed + 7919 * (fold + 1))
    chains = run_gibbs(spec.subset_rows(train), data.subset(train), cfg)
    chain = concatenate_chains(chains)
    mu, sigma2 = predict_posterior_means(chain, spec.subset_rows(held))
    return fold, held, mu, sigma2


def kfold_cv(spec: ModelSpec, data: Dataset, config: GibbsConfig, scheme: CvScheme) -> CvResult:
    """Out-of-sample mean and variance predictions by k-fold refitting.

    Each fold refits on the remaining rows; held-out predictions use the
    posterior mean coefficients for the mean and the posterior mean of
    exp(-linear predictor) for the variance.
    """
    if scheme.assignment.shape[0] != data.n:
        raise ValueError("fold assignment length must match the data")
    jobs = [(spec, data, config, scheme, k) for k in range(scheme.folds)]
    results = parallel_map(_cv_fold_worker, jobs)
    mu_hat = np.empty(data.n)
    sigma2_hat = np.empty(data.n)
    fold_msev = []
    for fold, held, mu, sigma2 in results:
        mu_hat[held] = mu
        sigma2_hat[held] = sigma2
        fold_msev.append(msev(data.y[held], mu, sigma2))
    pooled = msev(data.y, mu_hat, sigma2_hat)
    return CvResult(
        mu_hat=mu_hat,
        sigma2_hat=sigma2_hat,
        fold_msev=fold_msev,
        msev_pooled=pooled,
        scheme=scheme,
    )


def effective_sample_size(x: np.ndarray) -> float:
    """Effective draw count from the initial positive autocorrelation sum."""
    x = np.asarray(x, dtype=float).reshape(-1)
    S = x.shape[0]
    if S < 4:
        return float(S)
    xc = x - x.mean()
    var0 = float(xc @ xc) / S
    if var0 <= 0.0 or not np.isfinite(var0):
        return float(S)
    m = 1 << (2 * S - 1).bit_length()
    f = np.fft.rfft(xc, m)
    acov = np.fft.irfft(f * np.conj(f), m)[:S].real / S
    rho = acov / acov[0]
    total = 0.0
    t = 1
    while t + 1 < S:
        pair = rho[t] + rho[t + 1]
        if pair <= 0.0:
            break
        total += pair
        t += 2
    ess = S / (1.0 + 2.0 * total)
    return float(min(max(ess, 1.0), S))


@dataclass
class ParamSummary:
    name: str
    mean: float
    sd: float
    q025: float
    q50: float
    q975: float
    ess: float


def summarize(chain: PosteriorChain) -> list:
    """Per-parameter mean, sd, central quantiles and effective draw count."""
    if len(chain) < 1:
        raise ValueError("chain is empty")
    mat = chain.to_matrix()
    names = chain.param_names()
    out = []
    for j, name in enumerate(names):
        col = mat[:, j]
        q = np.quantile(col, [0.025, 0.5, 0.975])
        sd = float(col.std(ddof=1)) if col.shape[0] > 1 else 0.0
        out.append(
            ParamSummary(
                name=name,
                mean=float(col.mean()),
                sd=sd,
                q025=float(q[0]),
                q50=float(q[1]),
                q975=float(q[2]),
                ess=effective_sample_size(col),
            )
        )
    return out
