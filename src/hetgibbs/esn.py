"""Echo-state reservoir construction and the volatility-model reduction.

A reservoir is a fixed random recurrent network: hidden states evolve as
``h_t = tanh(W h_{t-1} + U x_t)`` with W scaled so its spectral radius is a
target ``delta`` below one (fading memory).  The volatility model places the
hidden states as the variance-side random-effect design of the
heteroskedastic sampler, with a single constant mean; the reduction returns
an ordinary ``ModelSpec`` that ``run_gibbs`` consumes unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import Dataset, Hyperparams, ModelSpec

__all__ = [
    "Reservoir",
    "EsvmSpec",
    "build_reservoir",
    "reservoir_states",
    "esvm_inputs",
    "esvm_to_spec",
    "dominant_eigen_magnitude",
]

LAG_EPS = 1e-12
DEFAULT_TRUNC = 7.0


def dominant_eigen_magnitude(W: np.ndarray) -> float:
    """Largest eigenvalue magnitude (spectral radius) of a square matrix W.

    Computed from the full spectrum (LAPACK ``geev``), which stays accurate
    when the two largest moduli almost coincide, where a power iteration
    fails to converge.
    """
    return float(np.abs(np.linalg.eigvals(np.asarray(W, dtype=float))).max())


@dataclass
class Reservoir:
    """Fixed random reservoir weights with a scaled spectral radius."""

    W: np.ndarray
    U: np.ndarray
    n_h: int
    delta: float
    seed: int
    weight_sd: float = 0.1

    @property
    def p(self) -> int:
        return self.U.shape[1]


def build_reservoir(
    n_h: int,
    p: int,
    seed: int,
    weight_sd: float = 0.1,
    delta: float = 0.1,
) -> Reservoir:
    """Draw N(0, weight_sd^2) weights and rescale W to spectral radius delta."""
    if n_h < 1 or p < 1:
        raise ValueError("n_h and p must be at least 1")
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    if weight_sd <= 0.0:
        raise ValueError("weight_sd must be positive")
    rng = np.random.default_rng(seed)
    W = rng.normal(0.0, weight_sd, size=(n_h, n_h))
    U = rng.normal(0.0, weight_sd, size=(n_h, p))
    lam = dominant_eigen_magnitude(W)
    if lam == 0.0:
        raise ValueError("W has zero spectral radius; cannot scale")
    W = W * (delta / lam)
    return Reservoir(
        W=W, U=U, n_h=n_h, delta=delta, seed=seed, weight_sd=weight_sd,
    )


def reservoir_states(res: Reservoir, X: np.ndarray, h0: np.ndarray | None = None) -> np.ndarray:
    """Hidden-state matrix: row t is tanh(W h_{t-1} + U x_t)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not np.all(np.isfinite(X)):
        raise ValueError("reservoir inputs must be finite")
    if X.shape[1] != res.p:
        raise ValueError(f"input has {X.shape[1]} columns, reservoir expects {res.p}")
    T = X.shape[0]
    h = np.zeros(res.n_h) if h0 is None else np.asarray(h0, dtype=float).copy()
    out = np.empty((T, res.n_h))
    for t in range(T):
        h = np.tanh(res.W @ h + res.U @ X[t])
        out[t] = h
    return out


def esvm_inputs(
    returns: np.ndarray,
    extra: np.ndarray | None = None,
    include_lag: bool = True,
) -> np.ndarray:
    """Input rows (1, log max(y_{t-1}^2, eps), extra_t) for t = 2..T.

    The first observation is consumed as a lag only, so T returns yield
    T - 1 usable rows.  Zero returns are clamped inside the log; the lag
    feature can be switched off, leaving the intercept and extras.
    """
    returns = np.asarray(returns, dtype=float).reshape(-1)
    if returns.shape[0] < 2:
        raise ValueError("at least two observations are required")
    if not np.all(np.isfinite(returns)):
        raise ValueError("returns must be finite")
    lag = np.log(np.maximum(returns[:-1] ** 2, LAG_EPS))
    cols = [np.ones(lag.shape[0])]
    if include_lag:
        cols.append(lag)
    if extra is not None:
        extra = np.asarray(extra, dtype=float)
        if extra.ndim == 1:
            extra = extra[:, None]
        if extra.shape[0] == returns.shape[0]:
            extra = extra[1:]
        if extra.shape[0] != lag.shape[0]:
            raise ValueError("extra columns must align with the return series")
        if not np.all(np.isfinite(extra)):
            raise ValueError("extra inputs must be finite")
        cols.extend(extra.T)
    return np.column_stack(cols)


@dataclass
class EsvmSpec:
    """Volatility-model assembly: reservoir, inputs and prior constants."""

    reservoir: Reservoir
    inputs: np.ndarray
    mean_prior_var: float = 1000.0
    hyper: Hyperparams | None = None

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        if self.inputs.shape[0] < 1:
            raise ValueError("at least one input row is required")
        if self.mean_prior_var <= 0.0:
            raise ValueError("mean_prior_var must be positive")
        if self.hyper is None:
            self.hyper = Hyperparams(trunc_lower=DEFAULT_TRUNC)


def _standardize_inputs(X: np.ndarray) -> np.ndarray:
    """Center and scale non-constant columns; constant columns pass through."""
    X = X.copy()
    for j in range(X.shape[1]):
        sd = X[:, j].std(ddof=0)
        if sd > 0.0:
            X[:, j] = (X[:, j] - X[:, j].mean()) / sd
    return X


def esvm_to_spec(es: EsvmSpec, returns: np.ndarray) -> tuple[ModelSpec, Dataset]:
    """Reduce the volatility model to a heteroskedastic-model spec.

    The mean block is a single intercept (the constant mean); the variance
    predictor is entirely the hidden-state matrix, so the variance
    fixed-effect block is zero-width.  The returned spec runs through
    ``run_gibbs`` unchanged.
    """
    returns = np.asarray(returns, dtype=float).reshape(-1)
    if es.reservoir.n_h < 1:
        raise ValueError("the reservoir must have at least one hidden unit")
    T1 = es.inputs.shape[0]
    if returns.shape[0] != T1 + 1:
        raise ValueError(
            f"expected {T1 + 1} returns for {T1} input rows, got {returns.shape[0]}"
        )
    states = reservoir_states(es.reservoir, _standardize_inputs(es.inputs))
    hyper = Hyperparams(
        sigma2_beta1=es.mean_prior_var,
        sigma2_beta2=es.hyper.sigma2_beta2,
        alpha=es.hyper.alpha,
        a=es.hyper.a,
        b=es.hyper.b,
        omega=es.hyper.omega,
        rho=es.hyper.rho,
        trunc_lower=es.hyper.trunc_lower,
    )
    spec = ModelSpec(
        X1=np.ones((T1, 1)),
        Psi1=np.empty((T1, 0)),
        X2=np.empty((T1, 0)),
        Psi2=states,
        likelihood="gaussian",
        hyper=hyper,
        x1_names=["mean"],
        x2_names=[],
    )
    data = Dataset(y=returns[1:])
    return spec, data
