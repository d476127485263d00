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
chain from the design alone and never from the chain's state, so every scan
is a Gibbs update of the exact block conditional and the stationary law is
unchanged.  The chain keeps each block's whole rotated conditional, with map
``[M V; c V]``, in the kernel's layout (``RotatedDesign``); each call of its
builder (``beta2_conditional``, ``eta2_conditional``) rewrites only the
``n`` data rates and the ``k`` prior columns and hands that object to the
kernel.  The scalar block of the reciprocal scale ``1/sigma_eta2`` is kept
the same way (``inv_sigma_eta2_block``); its builder rewrites only the map
entries of ``eta2``.

A chain's sweep is one table, built once per chain by ``_chain_blocks``: the
model's blocks in update order, each with the conditional the chain keeps
for it.  The ``fc_*`` updates and the builders are module globals looked up
per call, so a negative control (``oracle.kappa_doubling``) or a tracer can
rebind them from outside.

``CmlgParams`` is the form every variance-side builder returns and the
kernel reads: a cMLG density proportional to
``exp(alpha' H x - kappa' exp(H x))`` for a tall map ``H``, held as
``(HT, alpha, kappa)`` with ``HT = H'``; the kernel squares ``HT`` itself.
The MLG law itself lives in ``hetgibbs.oracle``, which the sampler never
imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    "inv_sigma_eta2_block",
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
    """A conditional MLG in the scan kernel's layout: ``(HT, alpha, kappa)``.

    The density is proportional to ``exp(alpha' H x - kappa' exp(H x))`` for
    the tall map ``H = HT'``; ``HT`` is ``k x m`` with ``m >= k``, and the
    kernel derives the squares of ``HT`` that its curvature pass needs.  Any
    location offset is assumed absorbed into ``kappa`` (the form in which
    every model conditional arrives), so no separate offset is kept.
    Everything is validated once, here; a builder that later rewrites entries
    in place (``RotatedDesign.update``, ``inv_sigma_eta2_conditional``) keeps
    them valid itself.  Full column rank of ``H`` is verified where it is
    available for free (``oracle.cmlg_sample``'s solve).
    """

    HT: np.ndarray
    alpha: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        self.HT = np.ascontiguousarray(np.atleast_2d(np.asarray(self.HT, dtype=float)))
        if self.HT.ndim != 2:
            raise ValueError("HT must be a matrix")
        self.alpha = _as_vector(self.alpha, "alpha")
        self.kappa = _as_vector(self.kappa, "kappa")
        k, m = self.HT.shape
        if m < k:
            raise ValueError(f"H = HT' must have at least as many rows as columns; got {m}x{k}")
        if k < 1:
            raise ValueError("H must have at least one column")
        if self.alpha.shape[0] != m or self.kappa.shape[0] != m:
            raise ValueError("alpha and kappa must have one entry per row of H")
        if np.any(self.alpha <= 0.0) or np.any(self.kappa <= 0.0):
            raise ValueError("alpha and kappa must be strictly positive")
        if not np.all(np.isfinite(self.HT)):
            raise ValueError("HT must be finite")

    @property
    def dim(self) -> int:
        return self.HT.shape[0]


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
        if self.n_stored == 0:
            raise ValueError(
                f"thin ({self.thin}) exceeds iterations - burn_in "
                f"({self.iterations} - {self.burn_in}): no draw would be stored"
            )
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
    """Draw the mean-side random effects (r1 >= 1)."""
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
    """A variance block's whole cMLG conditional, built once per chain.

    ``V`` holds the eigenvectors of ``M'M``, the principal axes of the design
    ``M`` (``n x k``), and is read-only.  In the coordinates ``u = V'b`` the
    block's cMLG map is ``[M V; c V]``, where ``c`` is the scale of the
    isotropic prior rows ``c I``.  ``params`` holds the conditional in the
    scan kernel's layout ``(HT, alpha, kappa)``: ``HT = [M V; c V]'``,
    ``k x (n + k)``; the shapes, 1/2 (Gaussian ``spec``) or 1 (Laplace) for
    the data rows and alpha for the prior rows; and the rates, alpha for the
    prior rows.  ``update`` rewrites only the ``n`` data rates and the ``k``
    prior columns.  ``V`` depends on the design alone, never on the chain's
    state.
    """

    def __init__(self, M: np.ndarray, spec: ModelSpec):
        M = np.asarray(M, dtype=float)
        n, k = M.shape
        _, V = np.linalg.eigh(M.T @ M)
        V.flags.writeable = False
        self.n, self.V = n, V
        HT = np.empty((k, n + k))
        HT[:, :n] = (M @ V).T
        HT[:, n:] = V.T  # prior scale 1 until the first update
        alpha = spec.hyper.alpha
        shape = 1.0 if spec.likelihood == "laplace" else 0.5
        self.params = CmlgParams(
            HT, np.concatenate([np.full(n, shape), np.full(k, alpha)]), np.full(n + k, alpha)
        )

    def update(self, rate: np.ndarray, c: float) -> CmlgParams:
        """Write the floored data ``rate`` and the prior columns ``c V'``; return ``params``."""
        if not math.isfinite(c):
            raise ValueError(f"prior scale of the variance block is not finite: {c!r}")
        p, n = self.params, self.n
        np.maximum(rate, RATE_FLOOR, out=p.kappa[:n])
        np.multiply(self.V.T, c, out=p.HT[:, n:])
        return p


def _data_rates(
    other: np.ndarray,
    state: ChainState,
    spec: ModelSpec,
    data: Dataset,
    counters: RunCounters | None,
) -> np.ndarray:
    """Rates of a variance-side block's data rows, before the floor.

    ``other`` is the linear predictor of the other variance-side block.
    Gaussian mode takes them from the floored squared residuals, Laplace
    mode from the augmentation scales.
    """
    e_other = _clipped_exp(other, counters)
    if spec.likelihood == "laplace":
        return state.s * e_other
    resid2 = np.maximum((data.y - spec.mean(state.beta1, state.eta1)) ** 2, RESID2_FLOOR)
    return 0.5 * resid2 * e_other


def beta2_conditional(
    state: ChainState,
    spec: ModelSpec,
    data: Dataset,
    counters: RunCounters | None,
    axes: RotatedDesign,
) -> CmlgParams:
    """The variance fixed-effect conditional, in ``u = V'beta2``.

    ``axes`` is the chain's ``RotatedDesign`` of ``X2``; the returned object
    is its ``params``, rewritten by the block's next conditional.
    """
    rate = _data_rates(state.eta2 @ spec.Psi2.T, state, spec, data, counters)
    return axes.update(rate, (spec.hyper.alpha ** -0.5) / math.sqrt(spec.hyper.sigma2_beta2))


def eta2_conditional(
    state: ChainState,
    spec: ModelSpec,
    data: Dataset,
    counters: RunCounters | None,
    axes: RotatedDesign,
) -> CmlgParams:
    """The variance random-effect conditional, in ``u = V'eta2``.

    ``axes`` is the chain's ``RotatedDesign`` of ``Psi2``, as in
    ``beta2_conditional``; the prior scale is the current ``sigma_eta2``.
    """
    rate = _data_rates(state.beta2 @ spec.X2.T, state, spec, data, counters)
    return axes.update(rate, (spec.hyper.alpha ** -0.5) / state.sigma_eta2)


def inv_sigma_eta2_block(hyper: Hyperparams, r2: int) -> CmlgParams:
    """The scalar cMLG block of ``1/sigma_eta2``, built once per chain.

    ``HT`` is ``1 x (r2 + 1)``, all ones until ``inv_sigma_eta2_conditional``
    writes ``alpha^{-1/2} eta2`` into its first ``r2`` entries; the last, the
    prior row's, stays 1.  The shapes are ``[alpha..., omega]`` and the rates
    ``[alpha..., rho]``.
    """
    prior = np.full(r2, hyper.alpha)
    return CmlgParams(np.ones((1, r2 + 1)), np.append(prior, hyper.omega), np.append(prior, hyper.rho))


def inv_sigma_eta2_conditional(state: ChainState, hyper: Hyperparams, block: CmlgParams) -> CmlgParams:
    """Scalar cMLG conditional of the reciprocal variance-coefficient scale.

    Writes ``alpha^{-1/2} eta2`` into the chain's ``block``
    (``inv_sigma_eta2_block``) and returns it.
    """
    np.multiply(state.eta2, hyper.alpha ** -0.5, out=block.HT[0, :-1])
    return block


def fc_beta2(
    state: ChainState,
    spec: ModelSpec,
    data: Dataset,
    rng: np.random.Generator,
    counters: RunCounters | None,
    axes: RotatedDesign,
) -> np.ndarray:
    """Draw the variance fixed effects along the principal axes of ``X2``.

    One scan of ``u = V'beta2`` from the current value, returned as ``V u``;
    ``axes`` is the chain's ``RotatedDesign`` of ``X2``.
    """
    params = beta2_conditional(state, spec, data, counters, axes)
    return axes.V @ _scan.scan_cmlg(rng, params, axes.V.T @ state.beta2, counters=counters)


def fc_eta2(
    state: ChainState,
    spec: ModelSpec,
    data: Dataset,
    rng: np.random.Generator,
    counters: RunCounters | None,
    axes: RotatedDesign,
) -> np.ndarray:
    """Draw the variance random effects along the principal axes of ``Psi2``.

    As ``fc_beta2``, with ``axes`` the chain's ``RotatedDesign`` of ``Psi2``.
    """
    params = eta2_conditional(state, spec, data, counters, axes)
    return axes.V @ _scan.scan_cmlg(rng, params, axes.V.T @ state.eta2, counters=counters)


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
    counters: RunCounters | None,
    block: CmlgParams,
) -> float:
    """Truncated scalar cMLG draw of the reciprocal variance-block scale.

    ``block`` is the chain's ``inv_sigma_eta2_block``.
    """
    params = inv_sigma_eta2_conditional(state, hyper, block)
    current = np.array([max(1.0 / state.sigma_eta2, hyper.trunc_lower)])
    return float(_scan.scan_cmlg(rng, params, current, hyper.trunc_lower, counters)[0])


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


def _chain_blocks(spec: ModelSpec, data: Dataset) -> list:
    """One chain's sweep: the model's blocks in update order.

    Each entry is ``(name, attr, draw)``: ``draw(state, rng, counters)``
    returns the new value of ``state.<attr>``, and ``name`` names the block
    in errors.  Blocks the model does not have are left out.  The
    conditionals a chain keeps are built here, once, from the design alone,
    so every draw stays an exact Gibbs update.  Each draw calls its ``fc_*``
    module global when it runs, so a name rebound from outside reaches it.
    """
    blocks = []
    if spec.likelihood == "laplace":
        blocks.append(("s", "s", lambda st, rng, ct: fc_s(st, spec, data, rng, ct)))
    blocks.append(("beta1", "beta1", lambda st, rng, ct: fc_beta1(st, spec, data, rng, ct)))
    if spec.r1:
        blocks.append(("eta1", "eta1", lambda st, rng, ct: fc_eta1(st, spec, data, rng, ct)))
    if spec.p2:
        x2_axes = RotatedDesign(spec.X2, spec)
        blocks.append(("beta2", "beta2", lambda st, rng, ct: fc_beta2(st, spec, data, rng, ct, x2_axes)))
    if spec.r2:
        psi2_axes = RotatedDesign(spec.Psi2, spec)
        blocks.append(("eta2", "eta2", lambda st, rng, ct: fc_eta2(st, spec, data, rng, ct, psi2_axes)))
    if spec.r1:
        blocks.append(("sigma2_eta1", "sigma2_eta1", lambda st, rng, ct: fc_sigma2_eta1(st, spec, rng)))
    if spec.r2:
        tau_block = inv_sigma_eta2_block(spec.hyper, spec.r2)
        blocks.append(("inv_sigma_eta2", "sigma_eta2",
                       lambda st, rng, ct: 1.0 / fc_inv_sigma_eta2(st, spec.hyper, rng, ct, tau_block)))
    return blocks


def _run_single_chain(spec: ModelSpec, data: Dataset, config: GibbsConfig, seed: int) -> PosteriorChain:
    rng = np.random.default_rng(seed)
    state = initial_state(spec, data)
    counters = RunCounters()
    blocks = _chain_blocks(spec, data)
    draws = {
        name: np.empty((config.n_stored,) + np.shape(getattr(state, name)))
        for name in BLOCKS
        if getattr(state, name) is not None
    }
    k = 0
    for it in range(config.iterations):
        try:
            for name, attr, draw in blocks:
                setattr(state, attr, draw(state, rng, counters))
        except Exception as exc:
            raise GibbsError(f"iteration {it}, block {name}: {exc}") from exc
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

    Chain c uses seed ``config.seed + c``; each iteration sweeps the blocks
    of ``_chain_blocks`` in its fixed order.  A rebound ``fc_*`` name or
    builder reaches every chain, also in forked workers.
    """
    if data.n != spec.n:
        raise ValueError(f"dataset has {data.n} rows but the design has {spec.n}")
    if not np.all(np.isfinite(data.y)):
        raise ValueError("response contains non-finite values")
    jobs = [(spec, data, config, config.seed + c) for c in range(config.chains)]
    return parallel_map(_chain_worker, jobs)
