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
from itertools import accumulate

import numpy as np

__all__ = ["LogConcaveError", "sample_logconcave"]

_MAX_REJECTIONS = 200
_MAX_BRACKET_STEPS = 200
_NEWTON_CAP = 3.0   # largest Newton step from x0, in curvature scales
_SEED_GAP = 0.3     # a seed this close to x0 (in scales) adds little to its tangent


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
        logmass = self._logmass
        top = max(logmass)
        if not math.isfinite(top):
            raise LogConcaveError("empty envelope")
        # a handful of segments: plain floats beat numpy calls here
        cdf = list(accumulate([math.exp(v - top) for v in logmass]))
        i = bisect.bisect_right(cdf, rng.random() * cdf[-1])
        if i == len(cdf):  # the product rounded up to the total
            i = bisect.bisect_left(cdf, cdf[-1])
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


def _probe_finite(fg, x: float, x0: float) -> tuple[float, float, float]:
    """Tangent at x, pulled back toward x0 while the density underflows."""
    for _ in range(120):
        h, g = fg(x)
        h, g = float(h), float(g)
        if math.isfinite(h) and math.isfinite(g):
            return x, h, g
        x = x0 + 0.5 * (x - x0)
        if abs(x - x0) < 1e-300:
            break
    raise LogConcaveError("could not locate a finite region of the density")


def _walk_out(fg, pt, direction: float, scale: float, x0: float) -> list:
    """Double the step from ``pt`` until the slope points back toward x0.

    Returns the bracketing tangent and an outboard anchor beyond it, which
    steepens the tail bound when that slope is nearly flat (concavity makes
    any farther slope at least as steep).
    """
    x, h, g = pt
    step = scale
    for _ in range(_MAX_BRACKET_STEPS):
        x, h, g = _probe_finite(fg, x + direction * step, x0)
        step *= 2.0
        if direction * g < 0.0:
            break
    else:
        side = "left" if direction < 0.0 else "right"
        raise LogConcaveError(f"no tangent sloping back toward the mode found on the {side}")
    pts = [(x, h, g)]
    span = max(abs(x - pt[0]), scale)
    try:
        pts.append(_probe_finite(fg, x + direction * 4.0 * span, x0))
    except LogConcaveError:
        pass
    return pts


def _initial_points(fg, lower: float, x0: float, scale: float, first) -> list:
    """Seed tangent points from one Newton step at x0.

    With ``scale`` the curvature scale at x0, the step goes to
    m = x0 + g0 scale^2 (at most ``_NEWTON_CAP`` scales) and the seeds sit
    at m - scale and m + scale, the left one moved to ``lower`` when it
    falls at or below it; a seed within ``_SEED_GAP`` scales of x0 is not
    evaluated.  The envelope integrates only with a tangent sloping up from
    each unbounded tail; should the outermost tangent slope the wrong way,
    the walk-out doubles the step from it until one does.
    """
    if x0 < lower:
        x0, first = lower + scale, None
    if first is not None and math.isfinite(first[0]) and math.isfinite(first[1]):
        pts = [(x0, float(first[0]), float(first[1]))]
    else:
        pts = [_probe_finite(fg, x0, x0)]
    xc, _, gc = pts[0]
    cap = _NEWTON_CAP * scale
    m = xc + min(max(gc * scale * scale, -cap), cap)
    left, right = m - scale, m + scale
    if left <= lower:
        left, right = lower, max(right, lower + scale)
    for x in (left, right):
        if abs(x - xc) > _SEED_GAP * scale:
            pts.append(_probe_finite(fg, x, xc))
    leftmost, rightmost = min(pts), max(pts)
    if lower == -math.inf and not leftmost[2] > 0.0:
        pts += _walk_out(fg, leftmost, -1.0, scale, xc)
    if not rightmost[2] < 0.0:
        pts += _walk_out(fg, rightmost, 1.0, scale, xc)
    return pts


def sample_logconcave(
    rng: np.random.Generator,
    fg,
    lower: float = -math.inf,
    x0: float = 0.0,
    scale: float = 1.0,
    first: tuple[float, float] | None = None,
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
        First tangent point, ideally near the mode (e.g. the previous value
        of a Markov chain coordinate).
    scale : float
        Curvature scale at x0, ``1 / sqrt(-d2 logpdf)``: the Newton step and
        the spacing of the seed tangents are measured in it.
    first : (float, float), optional
        ``fg(x0)`` when the caller has already computed it; it is then not
        evaluated again.

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
    for x, h, g in _initial_points(fg, lower, x0, scale, first):
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
