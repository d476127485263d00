"""What the Gibbs engine uses of the multivariate log-gamma (MLG) family.

A conditional MLG (cMLG) density is proportional to
``exp(alpha' H x - kappa' exp(H x))`` for a tall map ``H``; the engine's
variance-side conditionals take this form and are drawn exactly by
coordinate scan (``hetgibbs.gibbs``).  The MLG law itself lives in
``hetgibbs.oracle``, used only by criteria 1-2 and rank calibration.
``RunCounters`` sits beside ``CLAMP_LIMIT`` so that the engine and the
oracle's MLG density count numerical repairs into one type.
"""

from __future__ import annotations

from dataclasses import InitVar, asdict, dataclass

import numpy as np

__all__ = ["CLAMP_LIMIT", "RunCounters", "CmlgParams"]

# Exponent ceiling applied inside density evaluation before exponentiation.
# Saturation is counted, never silent.
CLAMP_LIMIT = 700.0


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
