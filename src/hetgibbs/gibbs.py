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
distribution is the exact posterior.  The whole scan is one call into a
small C kernel (``_scan``), compiled on the first scan; its Python twin,
``oracle.scan_cmlg_reference``, is the reference it is tested against.

The beta2 and eta2 blocks are scanned along the principal axes of their
designs: with ``V`` the eigenvectors of ``M'M`` (``M`` is ``X2`` or
``Psi2``), the scan draws the coordinates of ``u = V'b`` and returns
``b = V u``.  Collinear columns make the conditional of ``b`` a ridge that a
scan along the original coordinates crawls along; along the principal axes
the coordinates are close to independent.  Along any fixed direction the
conditional keeps the form exp(c t - sum_i k_i exp((HV)_i t)), log-concave
as before, so each coordinate draw stays exact.  ``V`` is computed once per
chain (``RotatedDesign``) from the design alone and never from the chain's
state, so every scan is a Gibbs update of the exact block conditional and
the stationary law is unchanged.  The ``fc_*`` updates and the builders of
their conditionals (``eta2_conditional`` builds the rotated one, with map
``[M V; c V]``) are module globals looked up per call, so a negative control
(``oracle.kappa_doubling``) or a tracer can rebind them from outside.

The least-squares projection recipe once offered beside the exact scan
inflates the conditional variance of these data-augmented maps (about 2.5x
for an intercept-only variance block); it survives only as
``oracle.cmlg_sample``, the subject of the total-variation study in
``oracle.cmlg_scalar_tv``.

``CmlgParams`` is the form every variance-side builder returns: a cMLG
density proportional to ``exp(alpha' H x - kappa' exp(H x))`` for a tall map
``H``.  The MLG law itself lives in ``hetgibbs.oracle``, which the sampler
never imports.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np
from scipy import linalg as sla

from . import _scan
from .design import CLAMP_LIMIT, Dataset, Hyperparams, ModelSpec, RunCounters
# no longer called here: the benchmark's tracer rebinds gibbs.sample_logconcave
# and tests/test_bench_contract.py checks that the name resolves, until the
# program reports its own scan counts to it (ROADMAP item 4)
from .logconcave import sample_logconcave  # noqa: F401
from ._parallel import parallel_map, single_blas_thread

__all__ = [
    "BLOCKS",
    "ChainState",
    "CmlgParams",
    "GibbsConfig",
    "PosteriorChain",
    "RotatedDesign",
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


def _as_vector(x, name: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return v


@dataclass
class CmlgParams:
    """Parameters of a conditional MLG: tall linear map, shapes, rates.

    Any location offset is assumed absorbed into ``kappa`` (the form in
    which every model conditional arrives), so no separate offset is kept.
    ``H`` must have at least as many rows as columns; full column rank is
    verified where it is available for free (``oracle.cmlg_sample``'s solve).
    ``h_checked=True`` skips the pass that checks ``H`` is finite, for a
    builder that has already checked every entry it writes into ``H``.
    """

    H: np.ndarray
    alpha: np.ndarray
    kappa: np.ndarray
    h_checked: InitVar[bool] = False

    def __post_init__(self, h_checked):
        self.H = np.atleast_2d(np.asarray(self.H, dtype=float))
        if self.H.ndim != 2:
            raise ValueError("H must be a matrix")
        self.alpha = _as_vector(self.alpha, "alpha")
        self.kappa = _as_vector(self.kappa, "kappa")
        m, r = self.H.shape
        if m < r:
            raise ValueError(f"H must have at least as many rows as columns; got {m}x{r}")
        if r < 1:
            raise ValueError("H must have at least one column")
        if self.alpha.shape[0] != m or self.kappa.shape[0] != m:
            raise ValueError("alpha and kappa must have one entry per row of H")
        if np.any(self.alpha <= 0.0) or np.any(self.kappa <= 0.0):
            raise ValueError("alpha and kappa must be strictly positive")
        if not h_checked and not np.all(np.isfinite(self.H)):
            raise ValueError("H must be finite")

    @property
    def dim(self) -> int:
        return self.H.shape[1]


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


def _precision_weights(state: ChainState, spec: ModelSpec, counters: RunCounters | None) -> np.ndarray:
    if spec.likelihood == "laplace":
        if state.s is None:
            raise GibbsError("Laplace mode requires augmentation scales s in the state")
        return 1.0 / state.s
    return 1.0 / spec.variance(state.beta2, state.eta2, counters)


# ---------------------------------------------------------------------------
# Normal blocks (mean side)


def gaussian_conditional(M: np.ndarray, w: np.ndarray, resp: np.ndarray, prior_prec: float):
    """Precision matrix and shift vector of a Normal block conditional.

    The conditional is N(Q^{-1} b, Q^{-1}) with Q = M' diag(w) M +
    prior_prec * I and b = M' (w * resp).  M' diag(w) M is formed as A'A
    with A = diag(sqrt w) M, which numpy hands to BLAS as one symmetric
    rank-k update (syrk), so Q comes out exactly symmetric.
    """
    k = M.shape[1]
    A = M * np.sqrt(w)[:, None]
    Q = A.T @ A
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
    Q, b = gaussian_conditional(M, _precision_weights(state, spec, counters), data.y - other, prior_prec)
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


class RotatedDesign:
    """A variance block's design turned to fixed axes, built once per chain.

    ``V`` is orthonormal: by default the eigenvectors of ``M'M``, the
    principal axes of the design ``M``.  In the coordinates ``u = V'b`` the
    block's cMLG map is ``H V = [M V; c V]``, where ``c`` is the scale of the
    isotropic prior rows ``c I``.  ``HT`` holds ``(H V)'`` and ``HT2`` its
    elementwise square, each ``k x (n + k)``; only their last ``k`` columns,
    the prior rows, change from call to call (``set_prior``).  ``V`` depends
    on the design alone, never on the chain's state, and is read-only.
    """

    def __init__(self, M: np.ndarray, V: np.ndarray | None = None):
        M = np.asarray(M, dtype=float)
        if not np.all(np.isfinite(M)):
            raise ValueError("variance-side design contains non-finite values")
        n, k = M.shape
        if V is None:
            _, V = np.linalg.eigh(M.T @ M)
        self.n = n
        self.V = np.array(V, dtype=float)
        self.V.flags.writeable = False
        self._VT = np.ascontiguousarray(self.V.T)
        self._VT2 = self._VT * self._VT
        self.HT = np.zeros((k, n + k))
        self.HT[:, :n] = (M @ self.V).T
        self.HT2 = self.HT * self.HT

    def set_prior(self, c: float) -> None:
        """Write the prior columns ``c V'`` of ``HT`` and their squares."""
        if not math.isfinite(c):
            raise ValueError(f"prior scale of the variance block is not finite: {c!r}")
        np.multiply(self._VT, c, out=self.HT[:, self.n:])
        np.multiply(self._VT2, c * c, out=self.HT2[:, self.n:])


def _variance_conditional(
    axes: RotatedDesign,
    other: np.ndarray,
    prior_sd: float,
    state: ChainState,
    spec: ModelSpec,
    data: Dataset,
    counters: RunCounters | None,
) -> CmlgParams:
    """cMLG parameters of a variance-side block in the coordinates of ``axes``.

    ``other`` is the linear predictor of the other variance-side block and
    ``prior_sd`` the block's prior scale.  Gaussian mode uses data shape 1/2
    and rates from the floored squared residuals; Laplace mode uses data
    shape 1 and rates from the augmentation scales.  The returned ``H`` is a
    view of ``axes.HT``, rewritten by the block's next conditional.
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
    axes.set_prior((alpha ** -0.5) / prior_sd)
    n, k = axes.n, axes.HT.shape[0]
    a = np.concatenate([np.full(n, shape), np.full(k, alpha)])
    kap = np.concatenate([np.maximum(rate, RATE_FLOOR), np.full(k, alpha)])
    return CmlgParams(H=axes.HT.T, alpha=a, kappa=kap, h_checked=True)


def beta2_conditional(
    state: ChainState,
    spec: ModelSpec,
    data: Dataset,
    counters: RunCounters | None = None,
    axes: RotatedDesign | None = None,
) -> CmlgParams:
    """Assembled cMLG parameters of the variance fixed-effect conditional.

    The parameters are those of ``u = V'beta2`` for the axes ``V`` of
    ``axes``, a ``RotatedDesign`` of ``X2``; of ``beta2`` itself when
    ``axes`` is None.
    """
    return _variance_conditional(
        axes if axes is not None else RotatedDesign(spec.X2, np.eye(spec.p2)),
        state.eta2 @ spec.Psi2.T,
        math.sqrt(spec.hyper.sigma2_beta2),
        state, spec, data, counters,
    )


def eta2_conditional(
    state: ChainState,
    spec: ModelSpec,
    data: Dataset,
    counters: RunCounters | None = None,
    axes: RotatedDesign | None = None,
) -> CmlgParams:
    """Assembled cMLG parameters of the variance random-effect conditional.

    In the coordinates of ``axes`` (a ``RotatedDesign`` of ``Psi2``), like
    ``beta2_conditional``.
    """
    return _variance_conditional(
        axes if axes is not None else RotatedDesign(spec.Psi2, np.eye(spec.r2)),
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


def _scan_cmlg_exact(
    rng: np.random.Generator,
    params: CmlgParams,
    x0: np.ndarray,
    lower: float = -math.inf,
    squares: np.ndarray | None = None,
    counters: RunCounters | None = None,
) -> np.ndarray:
    """One systematic scan of exact coordinate draws from a cMLG density.

    Each coordinate's conditional is proportional to
    exp(c_j t - sum_i u_i exp(H_ij t)), which is log-concave; draws use
    adaptive rejection sampling warm-started at the current value, whose
    log density, slope and curvature come from one pass over the rows.
    ``squares``, when given, is ``H' * H'``, already computed by the caller.
    The whole scan is one call into the compiled kernel (``_scan``);
    ``oracle.scan_cmlg_reference`` is the same scan in Python.
    """
    HT = np.ascontiguousarray(params.H.T)  # column j of H as a contiguous row
    HT2 = HT * HT if squares is None else squares
    return _scan.scan_cmlg(rng, HT, HT2, params.alpha, params.kappa, x0, lower, counters)


def _scan_rotated(
    rng: np.random.Generator,
    params: CmlgParams,
    axes: RotatedDesign,
    current: np.ndarray,
    counters: RunCounters | None,
) -> np.ndarray:
    """Scan ``u = V'b`` from the current ``b`` along the axes; return ``V u``.

    The envelope seeds use the squares cached in ``axes``.  A rebound
    builder whose map differed from ``axes.HT`` would only mis-scale those
    seeds; each draw stays exact.
    """
    u = _scan_cmlg_exact(rng, params, axes.V.T @ current, squares=axes.HT2, counters=counters)
    return axes.V @ u


def fc_beta2(
    state: ChainState,
    spec: ModelSpec,
    data: Dataset,
    rng: np.random.Generator,
    counters: RunCounters | None = None,
    axes: RotatedDesign | None = None,
) -> np.ndarray:
    """Draw the variance fixed effects along the principal axes of ``X2``.

    ``axes`` is the chain's ``RotatedDesign`` of ``X2``, built here when
    not given.
    """
    if spec.p2 == 0:
        return np.empty(0)
    if axes is None:
        axes = RotatedDesign(spec.X2)
    params = beta2_conditional(state, spec, data, counters, axes)
    return _scan_rotated(rng, params, axes, state.beta2, counters)


def fc_eta2(
    state: ChainState,
    spec: ModelSpec,
    data: Dataset,
    rng: np.random.Generator,
    counters: RunCounters | None = None,
    axes: RotatedDesign | None = None,
) -> np.ndarray:
    """Draw the variance random effects along the principal axes of ``Psi2``.

    No-op for a zero-width block; ``axes`` as in ``fc_beta2``.
    """
    if spec.r2 == 0:
        return np.empty(0)
    if axes is None:
        axes = RotatedDesign(spec.Psi2)
    params = eta2_conditional(state, spec, data, counters, axes)
    return _scan_rotated(rng, params, axes, state.eta2, counters)


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
    counters: RunCounters | None = None,
) -> float:
    """Truncated scalar cMLG draw of the reciprocal variance-block scale."""
    params = inv_sigma_eta2_conditional(state, hyper)
    current = np.array([max(1.0 / state.sigma_eta2, hyper.trunc_lower)])
    out = _scan_cmlg_exact(rng, params, current, lower=hyper.trunc_lower, counters=counters)
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
    counters: RunCounters | None = None,
) -> np.ndarray:
    """Draw Laplace augmentation scales: 1/s_i is inverse-Gaussian."""
    sigma2 = spec.variance(state.beta2, state.eta2, counters)
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


def _run_single_chain(spec: ModelSpec, data: Dataset, config: GibbsConfig, seed: int) -> PosteriorChain:
    rng = np.random.default_rng(seed)
    state = initial_state(spec, data)
    counters = RunCounters()
    # fixed for the whole chain, so every block draw stays an exact Gibbs update
    beta2_axes = RotatedDesign(spec.X2) if spec.p2 else None
    eta2_axes = RotatedDesign(spec.Psi2) if spec.r2 else None
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
                state.s = fc_s(state, spec, data, rng, counters)
            block = "beta1"
            state.beta1 = fc_beta1(state, spec, data, rng, counters)
            if spec.r1:
                block = "eta1"
                state.eta1 = fc_eta1(state, spec, data, rng, counters)
            if spec.p2:
                block = "beta2"
                state.beta2 = fc_beta2(state, spec, data, rng, counters, beta2_axes)
            if spec.r2:
                block = "eta2"
                state.eta2 = fc_eta2(state, spec, data, rng, counters, eta2_axes)
            if spec.r1:
                block = "sigma2_eta1"
                state.sigma2_eta1 = fc_sigma2_eta1(state, spec, rng)
            if spec.r2:
                block = "inv_sigma_eta2"
                state.sigma_eta2 = 1.0 / fc_inv_sigma_eta2(state, spec.hyper, rng, counters)
        except Exception as exc:
            raise GibbsError(f"iteration {it}, block {block}: {exc}") from exc
        if it >= config.burn_in and (it - config.burn_in) % config.thin == config.thin - 1:
            for name, stored in draws.items():
                stored[k] = getattr(state, name)
            k += 1
    return PosteriorChain(**{name: draws.get(name) for name in BLOCKS}, seed=seed, counters=counters)


def _chain_worker(args):
    with single_blas_thread():
        return _run_single_chain(*args)


def run_gibbs(spec: ModelSpec, data: Dataset, config: GibbsConfig) -> list:
    """Run the Gibbs sampler; returns one PosteriorChain per configured chain.

    Chain c uses seed ``config.seed + c``.  Update order within an
    iteration is fixed: augmentation scales (Laplace mode), mean fixed
    effects, mean random effects, variance fixed effects, variance random
    effects, mean-side variance component, variance-side scale.  A rebound
    ``fc_*`` name or builder reaches every chain, also in forked workers.
    """
    if data.n != spec.n:
        raise ValueError(f"dataset has {data.n} rows but the design has {spec.n}")
    if not np.all(np.isfinite(data.y)):
        raise ValueError("response contains non-finite values")
    jobs = [(spec, data, config, config.seed + c) for c in range(config.chains)]
    return parallel_map(_chain_worker, jobs)
