"""Multivariate log-gamma distribution kernels.

The multivariate log-gamma (MLG) law is the distribution of an affine
transform ``V log(g) + mu`` of independent Gamma variates ``g_i`` with shape
``alpha_i`` and rate ``kappa_i``.  This module provides density evaluation
and random-variate generation for that family and for the univariate
log-gamma building block, and the parameters of its conditional variant
(cMLG, parameterized by a tall linear map).

The Gibbs engine draws its cMLG conditionals exactly by coordinate scan
(see ``hetgibbs.gibbs``).  The least-squares projection recipe
``oracle.cmlg_sample``, kept for the total-variation study, lives with the
oracle.

``RunCounters`` lives here, beside ``CLAMP_LIMIT``, so that the density
kernels and the Gibbs engine count numerical repairs into one type.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, asdict, dataclass, field

import numpy as np
from scipy import linalg as sla
from scipy.special import gammaln

__all__ = [
    "CLAMP_LIMIT",
    "RunCounters",
    "ConditioningError",
    "MlgParams",
    "CmlgParams",
    "log_gamma_sample",
    "mlg_log_density",
    "mlg_sample",
    "mlg_gaussian_limit_params",
]

# Exponent ceiling applied inside density evaluation before exponentiation.
# Saturation is counted, never silent.
CLAMP_LIMIT = 700.0

# Reciprocal condition numbers below this make V effectively singular.
RCOND_FLOOR = 1e-12


class ConditioningError(ValueError):
    """Scale matrix is singular or too ill-conditioned to invert."""


@dataclass
class RunCounters:
    """Observable numerical events accumulated during one chain."""

    jitter_repairs: int = 0
    exp_clamps: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def _as_vector(x, name: str) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return v


@dataclass
class MlgParams:
    """Parameters of an MLG law: location, scale matrix, shapes, rates.

    ``V`` must be square and invertible with reciprocal condition number at
    least 1e-12; ``alpha`` and ``kappa`` must be strictly positive and agree
    in length with ``mu``.
    """

    mu: np.ndarray
    V: np.ndarray
    alpha: np.ndarray
    kappa: np.ndarray
    _lu: tuple = field(default=None, repr=False, compare=False)
    _logdet_vinv: float = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.mu = _as_vector(self.mu, "mu")
        self.alpha = _as_vector(self.alpha, "alpha")
        self.kappa = _as_vector(self.kappa, "kappa")
        self.V = np.atleast_2d(np.asarray(self.V, dtype=float))
        n = self.mu.shape[0]
        if self.V.shape != (n, n):
            raise ValueError(
                f"V must be {n}x{n} to match mu; got {self.V.shape}"
            )
        if self.alpha.shape[0] != n or self.kappa.shape[0] != n:
            raise ValueError("alpha and kappa must match the dimension of mu")
        if not np.all(np.isfinite(self.mu)) or not np.all(np.isfinite(self.V)):
            raise ValueError("mu and V must be finite")
        if np.any(self.alpha <= 0.0) or not np.all(np.isfinite(self.alpha)):
            raise ValueError("alpha must be strictly positive")
        if np.any(self.kappa <= 0.0) or not np.all(np.isfinite(self.kappa)):
            raise ValueError("kappa must be strictly positive")

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    def _factorization(self):
        """Pivoted LU of V with a one-time conditioning check."""
        if self._lu is None:
            lu, piv = sla.lu_factor(self.V)
            diag = np.abs(np.diag(lu))
            if np.any(diag == 0.0):
                raise ConditioningError("V is singular")
            anorm = np.linalg.norm(self.V, 1)
            gecon = sla.get_lapack_funcs(("gecon",), (lu,))[0]
            rcond, _ = gecon(lu, anorm, norm="1")
            if not np.isfinite(rcond) or rcond < RCOND_FLOOR:
                raise ConditioningError(
                    f"V has reciprocal condition number {rcond:.3e} "
                    f"(below {RCOND_FLOOR:.0e})"
                )
            logdet = float(np.sum(np.log(diag)))
            object.__setattr__(self, "_lu", (lu, piv))
            object.__setattr__(self, "_logdet_vinv", -logdet)
        return self._lu

    def solve_v(self, rhs: np.ndarray) -> np.ndarray:
        """V^{-1} rhs via the cached pivoted factorization."""
        return sla.lu_solve(self._factorization(), rhs)

    @property
    def logdet_vinv(self) -> float:
        self._factorization()
        return self._logdet_vinv


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


def log_gamma_sample(rng: np.random.Generator, shape, rate, size=None):
    """Log of a Gamma(shape, rate) draw.

    Computed as ``log(standard gamma) - log(rate)`` so that extreme rates
    cannot underflow the variate before the log is taken.  ``shape`` and
    ``rate`` broadcast; scalar inputs yield a scalar.
    """
    shape = np.asarray(shape, dtype=float)
    rate = np.asarray(rate, dtype=float)
    if np.any(shape <= 0.0) or np.any(rate <= 0.0):
        raise ValueError("shape and rate must be strictly positive")
    if not (np.all(np.isfinite(shape)) and np.all(np.isfinite(rate))):
        raise ValueError("shape and rate must be finite")
    g = rng.gamma(shape, 1.0, size=size)
    out = np.log(g) - np.log(rate)
    if out.ndim == 0:
        return float(out)
    return out


def mlg_log_density(y, p: MlgParams, counters: RunCounters | None = None) -> float:
    """Log density of the MLG law at ``y``.

    Exponent arguments are clamped at +700 before exponentiation; clamp
    events are added to ``counters.exp_clamps`` when one is supplied.
    """
    y = _as_vector(y, "y")
    if y.shape[0] != p.dim:
        raise ValueError(f"y has length {y.shape[0]}, expected {p.dim}")
    w = p.solve_v(y - p.mu)
    clamped = np.minimum(w, CLAMP_LIMIT)
    if counters is not None:
        counters.exp_clamps += int(np.count_nonzero(w > CLAMP_LIMIT))
    val = (
        p.logdet_vinv
        + float(np.sum(p.alpha * np.log(p.kappa) - gammaln(p.alpha)))
        + float(p.alpha @ w)
        - float(p.kappa @ np.exp(clamped))
    )
    return val


def mlg_sample(rng: np.random.Generator, p: MlgParams) -> np.ndarray:
    """One draw from the MLG law: ``V log(g) + mu`` with independent gammas."""
    g = rng.gamma(p.alpha, 1.0)
    logg = np.log(g) - np.log(p.kappa)
    return p.V @ logg + p.mu


def mlg_gaussian_limit_params(center, cov_factor, alpha_scalar: float) -> MlgParams:
    """MLG parameters whose law approaches N(center, cov_factor cov_factor').

    Returns ``MLG(center, sqrt(alpha) * cov_factor, alpha * 1, alpha * 1)``;
    the approach is in distribution as ``alpha_scalar`` grows.
    """
    if not (alpha_scalar > 0.0) or not math.isfinite(alpha_scalar):
        raise ValueError("alpha_scalar must be a positive finite number")
    center = _as_vector(center, "center")
    cov_factor = np.atleast_2d(np.asarray(cov_factor, dtype=float))
    n = center.shape[0]
    if cov_factor.shape != (n, n):
        raise ValueError("cov_factor must be square and match center")
    ones = np.full(n, float(alpha_scalar))
    return MlgParams(
        mu=center,
        V=math.sqrt(alpha_scalar) * cov_factor,
        alpha=ones,
        kappa=ones.copy(),
    )
