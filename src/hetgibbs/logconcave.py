"""Exact rejection sampling from one-dimensional log-concave densities.

The sampler builds a piecewise-linear upper hull of the log density from
tangent lines (adaptive rejection sampling).  Each rejected candidate adds a
tangent at the rejection point, so the hull tightens as the draw proceeds.
Accepted draws are exact: the target may be known only up to an additive
constant on the log scale.

The caller supplies ``fg(x) -> (logpdf, dlogpdf)``.  Concavity of ``logpdf``
is assumed, not checked; a non-concave target silently breaks the envelope
bound and is the caller's bug.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

__all__ = ["LogConcaveError", "sample_logconcave"]

_MAX_REJECTIONS = 200
_MAX_BRACKET_STEPS = 200


class LogConcaveError(RuntimeError):
    """Envelope construction or rejection loop failed to make progress."""


def _log_segment_mass(ua: float, ub: float, width: float) -> float:
    """log of the integral of exp(linear) over a segment of given width.

    The linear function runs from ``ua`` at the left edge to ``ub`` at the
    right edge.  Stable for slopes of any sign, including nearly flat.
    """
    if width <= 0.0:
        return -math.inf
    d = ub - ua
    top = max(ua, ub)
    ad = abs(d)
    if ad < 1e-12:
        # flat segment: exp(top) * width, second-order slope correction
        return top + math.log(width) + math.log1p(-ad / 2.0)
    # integral = width * exp(top) * (1 - exp(-|d|)) / |d|
    return top + math.log(width) + math.log(-math.expm1(-ad)) - math.log(ad)


class _Hull:
    """Piecewise-exponential upper envelope built from tangent lines."""

    def __init__(self, lower: float):
        self.lower = lower
        self.x: list[float] = []   # tangent abscissae, sorted
        self.h: list[float] = []   # log density at x
        self.g: list[float] = []   # gradient at x
        self._stale = True

    def insert(self, x: float, h: float, g: float) -> None:
        if not (math.isfinite(x) and math.isfinite(h) and math.isfinite(g)):
            return
        xs = self.x
        i = bisect.bisect_left(xs, x)
        tol = 1e-14 * (1.0 + abs(x))
        if i < len(xs) and abs(xs[i] - x) < tol:
            return
        if i > 0 and abs(x - xs[i - 1]) < tol:
            return
        xs.insert(i, x)
        self.h.insert(i, h)
        self.g.insert(i, g)
        self._stale = True

    def _refresh(self) -> None:
        """Recompute breakpoints and per-segment log masses."""
        xs, hs, gs = self.x, self.h, self.g
        k = len(xs)
        inf = math.inf
        # z[i] separates the region served by tangent i-1 from tangent i;
        # segment i runs from za = z[i] to zb = z[i + 1]
        za = self.lower
        z = [za]
        logmass = []
        for i in range(k):
            xi, hi, gi = xs[i], hs[i], gs[i]
            if i + 1 < k:
                xn, gn = xs[i + 1], gs[i + 1]
                dg = gi - gn
                if dg <= 1e-13 * (abs(gi) + abs(gn) + 1.0):
                    zb = 0.5 * (xi + xn)  # numerically parallel tangents
                else:
                    zb = (hs[i + 1] - hi - xn * gn + xi * gi) / dg
                zb = min(max(zb, xi), xn)
            else:
                zb = inf
            z.append(zb)
            if za >= zb:
                logmass.append(-inf)
            elif za == -inf:
                if gi <= 0.0:
                    raise LogConcaveError("unbounded envelope on the left tail")
                logmass.append(hi + gi * (zb - xi) - math.log(gi))
            elif zb == inf:
                if gi >= 0.0:
                    raise LogConcaveError("unbounded envelope on the right tail")
                logmass.append(hi + gi * (za - xi) - math.log(-gi))
            else:
                ua = hi + gi * (za - xi)
                ub = hi + gi * (zb - xi)
                logmass.append(_log_segment_mass(ua, ub, zb - za))
            za = zb
        self._z = z
        self._logmass = logmass
        self._stale = False

    def sample(self, rng: np.random.Generator) -> tuple[float, float]:
        """Draw x from the normalized envelope; return (x, envelope log pdf)."""
        if self._stale:
            self._refresh()
        w = np.array(self._logmass)
        top = np.maximum.reduce(w)
        if not math.isfinite(top):
            raise LogConcaveError("empty envelope")
        w -= top
        np.exp(w, out=w)
        w /= np.add.reduce(w)
        # the index Generator.choice(len(w), p=w) picks, from the same uniform
        cdf = np.add.accumulate(w)
        cdf /= cdf[-1]
        i = int(cdf.searchsorted(rng.random(), "right"))
        za, zb = self._z[i], self._z[i + 1]
        xt, h, g = self.x[i], self.h[i], self.g[i]
        r = min(max(rng.random(), 1e-300), 1.0 - 1e-16)
        if za == -math.inf:
            x = zb + math.log(r) / g                      # g > 0, x <= zb
        elif zb == math.inf:
            x = za + math.log(r) / g                      # g < 0, x >= za
        else:
            d = g * (zb - za)
            if abs(d) < 1e-12:
                x = za + r * (zb - za)
            elif d > 0.0:
                # log1p(r expm1(d)) = d + log(r + (1-r) exp(-d)), overflow-free
                x = za + (d + math.log(r + (1.0 - r) * math.exp(-d))) / g
            else:
                # inverse CDF of x -> exp(g x) restricted to [za, zb]
                x = za + math.log1p(r * math.expm1(d)) / g
            x = min(max(x, za), zb)
        return x, h + g * (x - xt)


def _initial_points(fg, lower: float, x0: float, scale: float):
    """Seed tangent points.

    A tangent sloping toward each unbounded tail is required for the
    envelope to integrate; walk outward geometrically until one is found.
    Probes where the density underflows to -inf are pulled back toward x0.
    """

    def probe_finite(x: float) -> tuple[float, float, float]:
        for _ in range(120):
            h, g = fg(x)
            h, g = float(h), float(g)
            if math.isfinite(h) and math.isfinite(g):
                return x, h, g
            x = x0 + 0.5 * (x - x0)
            if abs(x - x0) < 1e-300:
                break
        raise LogConcaveError("could not locate a finite region of the density")

    if x0 <= lower:
        x0 = lower + scale

    pts = []
    xc, hc, gc = probe_finite(x0)
    pts.append((xc, hc, gc))

    if lower == -math.inf:
        x, g = xc, gc
        step = scale
        for n in range(_MAX_BRACKET_STEPS + 1):
            if g > 0.0:
                break
            if n == _MAX_BRACKET_STEPS:
                raise LogConcaveError("no positive-slope tangent found on the left")
            x, h, g = probe_finite(x - step)
            step *= 2.0
        if x != xc:
            pts.append((x, h, g))
        span = max(abs(x - xc), scale)
        try:
            pts.append(probe_finite(x - 4.0 * span))
        except LogConcaveError:
            pass
    else:
        x, h, g = probe_finite(lower)
        pts.append((x, h, g))

    x, g = xc, gc
    step = scale
    for n in range(_MAX_BRACKET_STEPS + 1):
        if g < 0.0:
            break
        if n == _MAX_BRACKET_STEPS:
            raise LogConcaveError("no negative-slope tangent found on the right")
        x, h, g = probe_finite(x + step)
        step *= 2.0
    if x != xc:
        pts.append((x, h, g))
    # an outboard anchor steepens the tail bound when g is nearly flat
    # (concavity makes any farther slope at least as negative)
    span = max(abs(x - xc), scale)
    try:
        pts.append(probe_finite(x + 4.0 * span))
    except LogConcaveError:
        pass
    return pts


def sample_logconcave(
    rng: np.random.Generator,
    fg,
    lower: float = -math.inf,
    x0: float = 0.0,
    scale: float = 1.0,
) -> float:
    """Draw one exact sample from a log-concave density on (lower, inf).

    Parameters
    ----------
    rng : numpy Generator
    fg : callable
        ``fg(x) -> (log density + const, derivative)``.
    lower : float
        Lower support bound; may be -inf.  The support is unbounded above.
    x0 : float
        Starting probe, ideally near the mode (e.g. the previous value of a
        Markov chain coordinate).
    scale : float
        Initial step used when walking out to bracket the mode.

    Returns
    -------
    float
        An exact draw from the normalized restriction of the density.
    """
    if not (lower < math.inf):
        raise ValueError("lower must be below +inf")
    if not (scale > 0.0) or not math.isfinite(scale):
        scale = 1.0

    hull = _Hull(lower)
    for x, h, g in _initial_points(fg, lower, x0, scale):
        hull.insert(x, h, g)
    if not hull.x:
        raise LogConcaveError("no usable tangent points")

    for _ in range(_MAX_REJECTIONS):
        x, env = hull.sample(rng)
        h, g = fg(x)
        h, g = float(h), float(g)
        if math.isfinite(h) and math.isfinite(g):
            if math.log(max(rng.random(), 1e-300)) <= h - env:
                return float(x)
            hull.insert(x, h, g)
            continue
        # candidate in an underflowed region: walk back toward the nearest
        # tangent until the density is finite and anchor the tail there
        xn = min(hull.x, key=lambda t: abs(t - x))
        xx = x
        added = False
        for _ in range(200):
            xx = xn + 0.5 * (xx - xn)
            if abs(xx - xn) < 1e-12 * (1.0 + abs(xn)):
                break
            h2, g2 = fg(xx)
            h2, g2 = float(h2), float(g2)
            if math.isfinite(h2) and math.isfinite(g2):
                hull.insert(xx, h2, g2)
                added = True
                break
        if not added:
            raise LogConcaveError("could not anchor the envelope near an underflowed region")
    raise LogConcaveError(
        f"rejection loop exceeded {_MAX_REJECTIONS} iterations; "
        "target may not be log-concave"
    )
