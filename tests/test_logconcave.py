import math

import numpy as np
import pytest
from scipy import stats

from hetgibbs.logconcave import LogConcaveError, sample_logconcave


def draw_many(fg, n, seed=0, **kw):
    rng = np.random.default_rng(seed)
    return np.array([sample_logconcave(rng, fg, **kw) for _ in range(n)])


def test_standard_normal():
    fg = lambda x: (-0.5 * x * x, -x)
    xs = draw_many(fg, 12000, seed=5, x0=0.3)
    assert stats.kstest(xs, "norm").pvalue > 0.01


@pytest.mark.parametrize("a,k", [(0.5, 0.7), (3.0, 2.0), (1000.0, 1000.0)])
def test_log_gamma_family(a, k):
    def fg(x, a=a, k=k):
        e = math.exp(min(x, 700.0))
        return a * x - k * e, a - k * e

    xs = draw_many(fg, 12000, seed=2, x0=math.log(a / k))
    res = stats.kstest(np.exp(xs), stats.gamma(a, scale=1.0 / k).cdf)
    assert res.pvalue > 0.01


def test_truncated_support_and_law():
    # exp(x) ~ Gamma(1,1) conditioned on exp(x) > 1
    def fg(x):
        e = math.exp(min(x, 700.0))
        return x - e, 1 - e

    xs = draw_many(fg, 12000, seed=3, lower=0.0, x0=0.1)
    assert xs.min() > 0.0
    cond = lambda t: (stats.expon.cdf(t) - stats.expon.cdf(1)) / stats.expon.sf(1)
    assert stats.kstest(np.exp(xs), cond).pvalue > 0.01


def test_far_tail_truncation_matches_exponential_approximation():
    # log Gamma(1000,1000) truncated at 7: locally Exp(rate k e^7 - a)
    a = k = 1000.0

    def fg(x):
        e = math.exp(min(x, 700.0))
        return a * x - k * e, a - k * e

    xs = draw_many(fg, 4000, seed=4, lower=7.0, x0=7.0, scale=0.03)
    rate = k * math.exp(7.0) - a
    assert xs.min() > 7.0
    assert np.isclose(xs.mean() - 7.0, 1.0 / rate, rtol=0.1)


def test_mixed_sign_exponents_against_grid():
    rng = np.random.default_rng(11)
    h = rng.normal(size=150)
    w = np.abs(rng.normal(size=150)) * 0.4
    c = 25.0

    def fg(x):
        t = np.minimum(h * x, 700.0)
        e = w * np.exp(t)
        return c * x - e.sum(), c - e @ h

    xs = draw_many(fg, 6000, seed=6, x0=0.0)
    grid = np.linspace(xs.mean() - 8 * xs.std(), xs.mean() + 8 * xs.std(), 4001)
    lp = np.array([fg(x)[0] for x in grid])
    p = np.exp(lp - lp.max())
    cdf = np.cumsum(np.concatenate([[0.0], 0.5 * (p[1:] + p[:-1]) * np.diff(grid)]))
    cdf /= cdf[-1]
    res = stats.kstest(xs, lambda v: np.interp(v, grid, cdf))
    assert res.pvalue > 0.01


def test_flat_tail_anchor_regression():
    # near-zero slope at the mode with an overflow cliff far to the right;
    # the envelope must learn the cliff instead of spinning
    def fg(x):
        t1 = 1e-6 * math.exp(min(0.02 * x, 700.0))
        t2 = 1e-280 * math.exp(min(0.9 * x, 700.0))
        val = 0.5 * x - t1 * 5e4 - t2
        grad = 0.5 - 1e-6 * 0.02 * math.exp(min(0.02 * x, 700.0)) * 5e4 - 0.9 * t2
        if not (math.isfinite(val) and math.isfinite(grad)):
            return -math.inf, -math.inf
        return val, grad

    xs = draw_many(fg, 300, seed=7, x0=0.0, scale=0.1)
    assert np.all(np.isfinite(xs))


def counted(fg):
    """fg that counts its own calls in ``.calls``."""

    def wrapped(x):
        wrapped.calls += 1
        return fg(x)

    wrapped.calls = 0
    return wrapped


def log_gamma_fg(a, k):
    def fg(x):
        e = math.exp(min(x, 700.0))
        return a * x - k * e, a - k * e

    return fg


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_supplied_first_tangent_far_from_mode(side):
    # N(2, 0.5^2) from 4 SD out: the capped Newton step stops 1 SD short of
    # the mode, so a seed lands on the mode with zero slope and the walk-out runs
    mu, sd = 2.0, 0.5
    fg = counted(lambda x: (-0.5 * ((x - mu) / sd) ** 2, -(x - mu) / sd**2))
    x0 = mu + side * 4.0 * sd
    first = fg(x0)
    fg.calls = 0
    xs = draw_many(fg, 6000, seed=8, x0=x0, scale=sd, first=first)
    assert fg.calls / xs.size > 4.0  # two seeds, a walk-out step, its anchor
    assert stats.kstest(xs, stats.norm(mu, sd).cdf).pvalue > 0.01


@pytest.mark.parametrize("where", ["above", "at_lower"])
def test_supplied_first_tangent_truncated_near_mode(where):
    # log of Gamma(3, rate 2) truncated just below its mode log(1.5)
    a, k = 3.0, 2.0
    fg = log_gamma_fg(a, k)
    lower = math.log(a / k) - 0.05
    x0 = lower + 4.0 / math.sqrt(a) if where == "above" else lower
    scale = 1.0 / math.sqrt(k * math.exp(x0))
    xs = draw_many(fg, 6000, seed=9, lower=lower, x0=x0, scale=scale, first=fg(x0))
    assert xs.min() > lower
    law = stats.gamma(a, scale=1.0 / k)
    cond = lambda t: (law.cdf(t) - law.cdf(math.exp(lower))) / law.sf(math.exp(lower))
    assert stats.kstest(np.exp(xs), cond).pvalue > 0.01


def test_curvature_scale_too_small_walks_out():
    # seeds 1e-3 apart on one side of the mode: the doubling walk-out brackets it
    fg = counted(log_gamma_fg(2.0, 1.0))
    xs = draw_many(fg, 3000, seed=10, x0=-3.0, scale=1e-3)
    assert fg.calls / xs.size > 10.0
    assert stats.kstest(np.exp(xs), stats.gamma(2.0).cdf).pvalue > 0.01


def test_invalid_bounds():
    with pytest.raises(ValueError):
        sample_logconcave(np.random.default_rng(0), lambda x: (-x * x, -2 * x), lower=math.inf)


def test_not_concave_detected_eventually():
    # convex target: envelope never dominates, rejection budget must trip
    fg = lambda x: (0.1 * x * x, 0.2 * x)
    with pytest.raises(LogConcaveError):
        sample_logconcave(np.random.default_rng(0), fg)
