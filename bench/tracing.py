"""Tracing from outside the program: wrappers installed by rebinding module
attributes, so the program's source stays untouched.

Every wrapped name accumulates a call count and inclusive seconds.  Coarse
names (set-up, sampling, post-processing) also keep one span each, with the
enclosing span as parent; the per-draw and per-evaluation names are only
aggregated, since a span per log-density evaluation would cost more than
the evaluation.  Everything stays in memory until the run writes it out.
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from time import perf_counter

# (module attribute path, trace name, keep spans)
SETUP_TARGETS = [
    ("cli", "load_csv", True),
    ("design", "build_design", True),
    ("esn", "build_reservoir", True),
    ("esn", "esvm_to_spec", True),
]
GIBBS_TARGETS = [
    ("gibbs", "run_gibbs", True),
    ("gibbs", "fc_s", False),
    ("gibbs", "fc_beta1", False),
    ("gibbs", "fc_eta1", False),
    ("gibbs", "fc_beta2", False),
    ("gibbs", "fc_eta2", False),
    ("gibbs", "fc_sigma2_eta1", False),
    ("gibbs", "fc_inv_sigma_eta2", False),
    ("gibbs", "beta2_conditional", False),
    ("gibbs", "eta2_conditional", False),
]
POST_TARGETS = [
    ("metrics", "summarize", True),
    ("metrics", "loglik_pointwise", True),
    ("metrics", "waic", True),
    ("metrics", "dic", True),
    ("persist", "write_chain_csv", True),
    ("persist", "write_summary_csv", True),
]
FG = "logconcave.fg"
DRAW = "gibbs.sample_logconcave"


class Tracer:
    def __init__(self, hg):
        self.hg = hg
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.spans = []      # [name, start, end, parent index]
        self._stack = []

    def _timed(self, name, fn, keep_span):
        calls, seconds, spans, stack = self.calls, self.seconds, self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keep_span:
                spans.append([name, perf_counter(), None, stack[-1] if stack else None])
                stack.append(len(spans) - 1)
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                calls[name] += 1
                seconds[name] += end - t
                if keep_span:
                    spans[stack.pop()][2] = end

        return wrapper

    def _sample_logconcave(self, fn):
        """Wrap the envelope sampler and, per draw, the log density it is given."""
        calls, seconds = self.calls, self.seconds

        @functools.wraps(fn)
        def wrapper(rng, fg, *args, **kwargs):
            def timed_fg(x):
                t = perf_counter()
                try:
                    return fg(x)
                finally:
                    seconds[FG] += perf_counter() - t
                    calls[FG] += 1

            t = perf_counter()
            try:
                return fn(rng, timed_fg, *args, **kwargs)
            finally:
                seconds[DRAW] += perf_counter() - t
                calls[DRAW] += 1

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets, draws: bool = False):
        """Rebind the named module attributes to timing wrappers, then restore."""
        saved = []
        try:
            for mod_name, attr, keep in targets:
                mod = getattr(self.hg, mod_name)
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self._timed(f"{mod_name}.{attr}", orig, keep))
            if draws:
                mod = self.hg.gibbs
                saved.append((mod, "sample_logconcave", mod.sample_logconcave))
                mod.sample_logconcave = self._sample_logconcave(mod.sample_logconcave)
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def total(self, name: str) -> float:
        return self.seconds.get(name, 0.0)

    def called(self, name: str) -> bool:
        return self.calls.get(name, 0) > 0

    def record(self, t0: float) -> dict:
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "spans": [
                {"name": n, "start_s": s - t0, "end_s": e - t0, "parent": p}
                for n, s, e, p in self.spans
            ],
        }
