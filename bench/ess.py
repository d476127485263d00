"""The benchmark's own effective-sample-size estimator.

It is kept apart from ``hetgibbs.metrics.effective_sample_size`` so that
changes to the program's summaries do not move the benchmark's yardstick.
The estimator is the multi-chain form of Vehtari, Gelman, Simpson,
Carpenter & Buerkner (2021, Bayesian Analysis, "Rank-normalization, folding,
and localization"): autocorrelations are pooled over independent chains
against the combined within- and between-chain variance, then summed with
Geyer's initial positive and monotone sequence rules.  No rank
normalisation or chain splitting is applied.
"""

from __future__ import annotations

import numpy as np


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row of x, lags 0..N-1, via FFT."""
    N = x.shape[1]
    xc = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * N - 1).bit_length()
    f = np.fft.rfft(xc, size, axis=1)
    return np.fft.irfft(f * np.conj(f), size, axis=1)[:, :N] / N


def ess(chains: np.ndarray) -> float:
    """Effective sample size of one scalar from M chains of N draws each.

    ``chains`` has shape (M, N) or (N,).  A constant quantity returns M*N.
    """
    x = np.atleast_2d(np.asarray(chains, dtype=float))
    M, N = x.shape
    if N < 4:
        return float(M * N)
    acov = _autocovariance(x)
    W = acov[:, 0].mean() * N / (N - 1)
    var_plus = W * (N - 1) / N
    if M > 1:
        var_plus += x.mean(axis=1).var(ddof=1)
    if not var_plus > 0.0:
        return float(M * N)
    rho = 1.0 - (W - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # Geyer: sums of adjacent pairs, cut at the first non-positive pair and
    # forced to be non-increasing
    K = N // 2
    pairs = rho[0:2 * K:2] + rho[1:2 * K:2]
    nonpos = np.nonzero(pairs <= 0.0)[0]
    if nonpos.size:
        pairs = pairs[: nonpos[0]]
    pairs = np.minimum.accumulate(pairs)
    tau = max(-1.0 + 2.0 * pairs.sum(), 1.0 / np.log10(M * N))
    return float(M * N / tau)


def ess_columns(chains: np.ndarray) -> np.ndarray:
    """ESS of every column of an (M, N, P) draw array."""
    return np.array([ess(chains[:, :, j]) for j in range(chains.shape[2])])
