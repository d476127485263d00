"""Gibbs sampler for the heteroskedastic Gaussian/Laplace mixed model.

The model places mixed-model linear predictors on both the mean and the
negative log variance.  All full conditionals are available in closed form:
Normal for the mean-side blocks, inverse-Gamma for the mean-side random
effect variance, conditional multivariate log-gamma (cMLG) for the
variance-side blocks, and inverse-Gaussian for the Laplace-mode
augmentation scales.

Each cMLG conditional is drawn by a systematic scan of the block's
one-dimensional coordinate conditionals, each drawn exactly by adaptive
rejection sampling (they are log-concave), so the chain's stationary
distribution is the exact posterior.  The least-squares projection recipe
once offered beside it inflates the conditional variance of these
data-augmented maps (about 2.5x for an intercept-only variance block); it
survives only as ``mlg.cmlg_sample``, the subject of the total-variation
study in ``oracle.cmlg_scalar_tv``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sla

from .design import Dataset, Hyperparams, ModelSpec
from .logconcave import sample_logconcave
from .mlg import CLAMP_LIMIT, CmlgParams, RunCounters
from ._parallel import parallel_map, single_blas_thread

__all__ = [
    "BLOCKS",
    "ChainState",
    "GibbsConfig",
    "PosteriorChain",
    "RunCounters",
    "GibbsError",
    "fc_beta1",
    "fc_eta1",
    "fc_beta2",
    "fc_eta2",
    "fc_sigma2_eta1",
    "fc_inv_sigma_eta2",
    "fc_s",
    "beta2_conditional",
    "eta2_conditional",
    "inv_sigma_eta2_conditional",
    "gaussian_conditional",
    "inverse_gaussian_sample",
    "initial_state",
    "run_gibbs",
    "concatenate_chains",
]

RESID2_FLOOR = 1e-30   # squared residuals entering rate vectors
RATE_FLOOR = 1e-300    # any rate entry must stay inside the gamma domain
JITTER_REL = 1e-10

# every sampled block, in draw-matrix column order ("s" only in Laplace mode)
BLOCKS = ("beta1", "eta1", "beta2", "eta2", "sigma2_eta1", "sigma_eta2", "s")


class GibbsError(RuntimeError):
    """A conditional update failed; names the iteration and the block."""


@dataclass
class ChainState:
    """Current values of every sampled block (one Gibbs iteration)."""

    beta1: np.ndarray
    eta1: np.ndarray
    beta2: np.ndarray
    eta2: np.ndarray
    sigma2_eta1: float
    sigma_eta2: float
    s: np.ndarray | None = None


@dataclass
class GibbsConfig:
    """Sampler run settings."""

    iterations: int = 5000
    burn_in: int = 1000
    thin: int = 1
    seed: int = 0
    chains: int = 1

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if not (0 <= self.burn_in < self.iterations):
            raise ValueError("burn_in must satisfy 0 <= burn_in < iterations")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.chains < 1:
            raise ValueError("chains must be >= 1")

    @property
    def n_stored(self) -> int:
        return (self.iterations - self.burn_in) // self.thin


@dataclass
class PosteriorChain:
    """Post-burn-in, thinned draws of one chain, stored column-wise."""

    beta1: np.ndarray
    eta1: np.ndarray
    beta2: np.ndarray
    eta2: np.ndarray
    sigma2_eta1: np.ndarray
    sigma_eta2: np.ndarray
    s: np.ndarray | None
    seed: int
    counters: RunCounters = field(default_factory=RunCounters)

    def __len__(self) -> int:
        return self.beta1.shape[0]

    def _stored(self) -> list:
        """(name, draws) of every stored block, in ``BLOCKS`` order."""
        return [(name, getattr(self, name)) for name in BLOCKS if getattr(self, name) is not None]

    def param_names(self) -> list:
        names = []
        for name, draws in self._stored():
            if draws.ndim == 1:
                names.append(name)
            else:
                names += [f"{name}_{j + 1}" for j in range(draws.shape[1])]
        return names

    def to_matrix(self) -> np.ndarray:
        return np.hstack([draws[:, None] if draws.ndim == 1 else draws for _, draws in self._stored()])


def concatenate_chains(chains) -> PosteriorChain:
    """Pool several chains of the same model into one draw collection.

    The pooled ``counters`` are the sums of every chain's counters.
    """
    chains = list(chains)
    if not chains:
        raise ValueError("no chains to concatenate")
    first = chains[0]
    totals = [c.counters.as_dict() for c in chains]
    pooled = {name: np.concatenate([getattr(c, name) for c in chains]) for name, _ in first._stored()}
    return PosteriorChain(
        **{name: pooled.get(name) for name in BLOCKS},
        seed=first.seed,
        counters=RunCounters(**{k: sum(t[k] for t in totals) for k in totals[0]}),
    )


def _precision_weights(state: ChainState, spec: ModelSpec) -> np.ndarray:
    if spec.likelihood == "laplace":
        if state.s is None:
            raise GibbsError("Laplace mode requires augmentation scales s in the state")
        return 1.0 / state.s
    return 1.0 / spec.variance(state.beta2, state.eta2)


# ---------------------------------------------------------------------------
# Normal blocks (mean side)


def gaussian_conditional(M: np.ndarray, w: np.ndarray, resp: np.ndarray, prior_prec: float):
    """Precision matrix and shift vector of a Normal block conditional.

    The conditional is N(Q^{-1} b, Q^{-1}) with Q = M' diag(w) M +
    prior_prec * I and b = M' (w * resp).
    """
    k = M.shape[1]
    Q = M.T @ (M * w[:, None])
    Q[np.diag_indices(k)] += prior_prec
    b = M.T @ (w * resp)
    return Q, b


def _draw_gaussian_block(
    rng: np.random.Generator,
    Q: np.ndarray,
    b: np.ndarray,
    counters: RunCounters | None,
) -> np.ndarray:
    try:
        cf = sla.cho_factor(Q, lower=True)
    except (np.linalg.LinAlgError, sla.LinAlgError):
        cf = None
    if cf is None:
        jit = JITTER_REL * float(np.mean(np.diag(Q)))
        Q = Q + jit * np.eye(Q.shape[0])
        if counters is not None:
            counters.jitter_repairs += 1
        try:
            cf = sla.cho_factor(Q, lower=True)
        except (np.linalg.LinAlgError, sla.LinAlgError) as exc:
            raise GibbsError("precision matrix not positive definite after jitter") from exc
    mean = sla.cho_solve(cf, b)
    z = rng.standard_normal(Q.shape[0])
    return mean + sla.solve_triangular(cf[0], z, lower=True, trans="T")


def _mean_block(
    M: np.ndarray,
    other: np.ndarray,
    prior_prec: float,
    state: ChainState,
    spec: ModelSpec,
    data: Dataset,
    rng: np.random.Generator,
    counters: RunCounters | None,
) -> np.ndarray:
    """Normal draw of the mean-side block with design ``M``.

    ``other`` is the linear predictor of the other mean-side block and
    ``prior_prec`` the block's prior precision.
    """
    Q, b = gaussian_conditional(M, _precision_weights(state, spec), data.y - other, prior_prec)
    return _draw_gaussian_block(rng, Q, b, counters)


def fc_beta1(
    state: ChainState,
    spec: ModelSpec,
    data: Dataset,
    rng: np.random.Generator,
    counters: RunCounters | None = None,
) -> np.ndarray:
    """Draw the mean-side fixed effects from their Normal conditional."""
    return _mean_block(
        spec.X1,
        state.eta1 @ spec.Psi1.T,
        1.0 / spec.hyper.sigma2_beta1,
        state, spec, data, rng, counters,
    )


def fc_eta1(
    state: ChainState,
    spec: ModelSpec,
    data: Dataset,
    rng: np.random.Generator,
    counters: RunCounters | None = None,
) -> np.ndarray:
    """Draw the mean-side random effects; no-op for a zero-width block."""
    if spec.r1 == 0:
        return np.empty(0)
    return _mean_block(
        spec.Psi1,
        state.beta1 @ spec.X1.T,
        1.0 / state.sigma2_eta1,
        state, spec, data, rng, counters,
    )


# ---------------------------------------------------------------------------
# cMLG blocks (variance side)


def _clipped_exp(x: np.ndarray, counters: RunCounters | None) -> np.ndarray:
    if counters is not None:
        counters.exp_clamps += int(np.count_nonzero(x > CLAMP_LIMIT))
    return np.exp(np.minimum(x, CLAMP_LIMIT))


def _variance_conditional(
    M: np.ndarray,
    other: np.ndarray,
    prior_sd: float,
    state: ChainState,
    spec: ModelSpec,
    data: Dataset,
    counters: RunCounters | None,
) -> CmlgParams:
    """cMLG parameters of the variance-side block with design ``M``.

    ``other`` is the linear predictor of the other variance-side block and
    ``prior_sd`` the block's prior scale.  Gaussian mode uses data shape 1/2
    and rates from the floored squared residuals; Laplace mode uses data
    shape 1 and rates from the augmentation scales.
    """
    e_other = _clipped_exp(other, counters)
    alpha = spec.hyper.alpha
    if spec.likelihood == "laplace":
        rate = state.s * e_other
        shape = 1.0
    else:
        resid2 = np.maximum((data.y - spec.mean(state.beta1, state.eta1)) ** 2, RESID2_FLOOR)
        rate = 0.5 * resid2 * e_other
        shape = 0.5
    n, k = M.shape
    H = np.vstack([M, (alpha ** -0.5) / prior_sd * np.eye(k)])
    a = np.concatenate([np.full(n, shape), np.full(k, alpha)])
    kap = np.concatenate([np.maximum(rate, RATE_FLOOR), np.full(k, alpha)])
    return CmlgParams(H=H, alpha=a, kappa=kap)


def beta2_conditional(
    state: ChainState,
    spec: ModelSpec,
    data: Dataset,
    counters: RunCounters | None = None,
) -> CmlgParams:
    """Assembled cMLG parameters of the variance fixed-effect conditional."""
    return _variance_conditional(
        spec.X2,
        state.eta2 @ spec.Psi2.T,
        math.sqrt(spec.hyper.sigma2_beta2),
        state, spec, data, counters,
    )


def eta2_conditional(
    state: ChainState,
    spec: ModelSpec,
    data: Dataset,
    counters: RunCounters | None = None,
) -> CmlgParams:
    """Assembled cMLG parameters of the variance random-effect conditional."""
    return _variance_conditional(
        spec.Psi2,
        state.beta2 @ spec.X2.T,
        state.sigma_eta2,
        state, spec, data, counters,
    )


def inv_sigma_eta2_conditional(state: ChainState, hyper: Hyperparams) -> CmlgParams:
    """Scalar cMLG parameters for the reciprocal variance-coefficient scale."""
    al = hyper.alpha
    r2 = state.eta2.shape[0]
    H = np.concatenate([al ** -0.5 * state.eta2, [1.0]])[:, None]
    a = np.concatenate([np.full(r2, al), [hyper.omega]])
    kap = np.concatenate([np.full(r2, al), [hyper.rho]])
    return CmlgParams(H=H, alpha=a, kappa=kap)


# exp overflows to inf far in a coordinate's tails, where fg reports a -inf
# log density; the flag is set once per scan, not once per evaluation
@np.errstate(over="ignore")
def _scan_cmlg_exact(
    rng: np.random.Generator,
    params: CmlgParams,
    x0: np.ndarray,
    lower: float = -math.inf,
) -> np.ndarray:
    """One systematic scan of exact coordinate draws from a cMLG density.

    Each coordinate's conditional is proportional to
    exp(c_j t - sum_i u_i exp(H_ij t)), which is log-concave; draws use
    adaptive rejection sampling warm-started at the current value, whose
    log density, slope and curvature come from one pass over the rows.
    """
    HT = np.ascontiguousarray(params.H.T)  # column j of H as a contiguous row
    HT2 = HT * HT
    a = params.alpha
    x = np.array(x0, dtype=float).reshape(-1)
    logk = np.log(params.kappa)
    zeta = x @ HT
    lin = HT @ a
    exp, add_reduce = np.exp, np.add.reduce
    for j in range(x.shape[0]):
        hj = HT[j]
        t0 = float(x[j])
        lam = logk + zeta - hj * t0
        cj = float(lin[j])

        def fg(t, lam=lam, hj=hj, cj=cj):
            e = exp(lam + hj * t)
            ssum = float(add_reduce(e))
            if not math.isfinite(ssum):
                return -math.inf, -math.inf
            return cj * t - ssum, cj - float(e @ hj)

        e0 = exp(lam + hj * t0)
        s0 = float(add_reduce(e0))
        curv = float(e0 @ HT2[j])
        scale = 1.0 / math.sqrt(curv) if (math.isfinite(curv) and curv > 0.0) else 1.0
        first = (cj * t0 - s0, cj - float(e0 @ hj)) if math.isfinite(s0) else None
        t_new = sample_logconcave(
            rng, fg, lower=lower, x0=t0, scale=min(scale, 1e3), first=first
        )
        zeta += hj * (t_new - t0)
        x[j] = t_new
    return x


def fc_beta2(
    state: ChainState,
    spec: ModelSpec,
    data: Dataset,
    rng: np.random.Generator,
    hook=None,
    counters: RunCounters | None = None,
) -> np.ndarray:
    """Draw the variance fixed effects from their cMLG conditional."""
    if spec.p2 == 0:
        return np.empty(0)
    params = beta2_conditional(state, spec, data, counters)
    if hook is not None:
        params = hook("beta2", params)
    return _scan_cmlg_exact(rng, params, state.beta2)


def fc_eta2(
    state: ChainState,
    spec: ModelSpec,
    data: Dataset,
    rng: np.random.Generator,
    hook=None,
    counters: RunCounters | None = None,
) -> np.ndarray:
    """Draw the variance random effects; no-op for a zero-width block."""
    if spec.r2 == 0:
        return np.empty(0)
    params = eta2_conditional(state, spec, data, counters)
    if hook is not None:
        params = hook("eta2", params)
    return _scan_cmlg_exact(rng, params, state.eta2)


def fc_sigma2_eta1(state: ChainState, spec: ModelSpec, rng: np.random.Generator) -> float:
    """Inverse-Gamma draw for the mean-side random-effect variance."""
    hyper = spec.hyper
    shape = hyper.a + 0.5 * state.eta1.shape[0]
    scale = hyper.b + 0.5 * float(state.eta1 @ state.eta1)
    return scale / float(rng.gamma(shape, 1.0))


def fc_inv_sigma_eta2(
    state: ChainState,
    hyper: Hyperparams,
    rng: np.random.Generator,
    hook=None,
) -> float:
    """Truncated scalar cMLG draw of the reciprocal variance-block scale."""
    params = inv_sigma_eta2_conditional(state, hyper)
    if hook is not None:
        params = hook("inv_sigma_eta2", params)
    current = np.array([max(1.0 / state.sigma_eta2, hyper.trunc_lower)])
    out = _scan_cmlg_exact(rng, params, current, lower=hyper.trunc_lower)
    return float(out[0])


# ---------------------------------------------------------------------------
# Laplace-mode augmentation


def inverse_gaussian_sample(rng: np.random.Generator, mean, lam):
    """Inverse-Gaussian draws via the root-transform-with-uniform-choice method.

    ``mean`` and ``lam`` broadcast elementwise.
    """
    mean = np.asarray(mean, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if np.any(mean <= 0.0) or np.any(lam <= 0.0):
        raise ValueError("mean and lam must be strictly positive")
    shape = np.broadcast(mean, lam).shape
    nu = rng.standard_normal(shape)
    y = nu * nu
    A = mean * y
    B = np.sqrt(A * (A + 4.0 * lam))
    # smaller root of the quadratic, written without cancellation
    x = mean * np.where(A + B > 0.0, (B - A) / (A + B + (A + B == 0.0)), 1.0)
    x = np.where(y == 0.0, mean, x)
    u = rng.uniform(size=shape)
    out = np.where(u <= mean / (mean + x), x, mean * mean / np.maximum(x, 1e-300))
    if out.ndim == 0:
        return float(out)
    return out


def fc_s(
    state: ChainState,
    spec: ModelSpec,
    data: Dataset,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw Laplace augmentation scales: 1/s_i is inverse-Gaussian."""
    sigma2 = spec.variance(state.beta2, state.eta2)
    resid2 = np.maximum((data.y - spec.mean(state.beta1, state.eta1)) ** 2, RESID2_FLOOR)
    mu_s = np.sqrt(2.0 / (resid2 * sigma2))
    lam_s = 2.0 / sigma2
    inv_s = inverse_gaussian_sample(rng, mu_s, lam_s)
    return 1.0 / np.maximum(inv_s, 1e-300)


# ---------------------------------------------------------------------------
# chain driver


def initial_state(spec: ModelSpec, data: Dataset) -> ChainState:
    """Deterministic starting point in a region of nonnegligible mass.

    Mean coefficients start at the least-squares fit; the leading variance
    coefficient matches the sample variance of the response; everything
    else starts at zero (scales at one, adjusted to respect truncation).
    """
    beta1, *_ = np.linalg.lstsq(spec.X1, data.y, rcond=None)
    eta1 = np.zeros(spec.r1)
    beta2 = np.zeros(spec.p2)
    if spec.p2:
        s2y = float(np.var(data.y, ddof=1)) if data.n > 1 else 1.0
        beta2[0] = -math.log(max(s2y, 1e-12))
    eta2 = np.zeros(spec.r2)
    inv0 = max(1.0, spec.hyper.trunc_lower + 1.0)
    state = ChainState(
        beta1=beta1,
        eta1=eta1,
        beta2=beta2,
        eta2=eta2,
        sigma2_eta1=1.0,
        sigma_eta2=1.0 / inv0,
    )
    if spec.likelihood == "laplace":
        state.s = np.abs(data.y - spec.mean(beta1, eta1)) + 1e-6
    return state


def _run_single_chain(spec: ModelSpec, data: Dataset, config: GibbsConfig, seed: int, hook=None) -> PosteriorChain:
    rng = np.random.default_rng(seed)
    state = initial_state(spec, data)
    counters = RunCounters()
    draws = {
        name: np.empty((config.n_stored,) + np.shape(getattr(state, name)))
        for name in BLOCKS
        if getattr(state, name) is not None
    }

    laplace = spec.likelihood == "laplace"
    k = 0
    for it in range(config.iterations):
        # the fc_* names are looked up per call so they can be rebound from outside
        try:
            if laplace:
                block = "s"
                state.s = fc_s(state, spec, data, rng)
            block = "beta1"
            state.beta1 = fc_beta1(state, spec, data, rng, counters)
            if spec.r1:
                block = "eta1"
                state.eta1 = fc_eta1(state, spec, data, rng, counters)
            if spec.p2:
                block = "beta2"
                state.beta2 = fc_beta2(state, spec, data, rng, hook, counters)
            if spec.r2:
                block = "eta2"
                state.eta2 = fc_eta2(state, spec, data, rng, hook, counters)
            if spec.r1:
                block = "sigma2_eta1"
                state.sigma2_eta1 = fc_sigma2_eta1(state, spec, rng)
            if spec.r2:
                block = "inv_sigma_eta2"
                state.sigma_eta2 = 1.0 / fc_inv_sigma_eta2(state, spec.hyper, rng, hook)
        except Exception as exc:
            raise GibbsError(f"iteration {it}, block {block}: {exc}") from exc
        if it >= config.burn_in and (it - config.burn_in) % config.thin == config.thin - 1:
            for name, stored in draws.items():
                stored[k] = getattr(state, name)
            k += 1
    return PosteriorChain(**{name: draws.get(name) for name in BLOCKS}, seed=seed, counters=counters)


def _chain_worker(args):
    spec, data, config, seed, hook = args
    with single_blas_thread():
        return _run_single_chain(spec, data, config, seed, hook)


def run_gibbs(spec: ModelSpec, data: Dataset, config: GibbsConfig, hook=None) -> list:
    """Run the Gibbs sampler; returns one PosteriorChain per configured chain.

    Chain c uses seed ``config.seed + c``.  Update order within an
    iteration is fixed: augmentation scales (Laplace mode), mean fixed
    effects, mean random effects, variance fixed effects, variance random
    effects, mean-side variance component, variance-side scale.
    """
    if data.n != spec.n:
        raise ValueError(f"dataset has {data.n} rows but the design has {spec.n}")
    if not np.all(np.isfinite(data.y)):
        raise ValueError("response contains non-finite values")
    jobs = [(spec, data, config, config.seed + c, hook) for c in range(config.chains)]
    if hook is not None:
        # local callables do not survive process boundaries
        return [_chain_worker(j) for j in jobs]
    return parallel_map(_chain_worker, jobs)
