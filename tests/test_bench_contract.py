"""The benchmark's tracer must find every name it rebinds.

``bench/tracing.py`` times the program from outside by rebinding module
attributes of ``hetgibbs`` (``SETUP_TARGETS``, ``GIBBS_TARGETS``,
``POST_TARGETS`` and ``gibbs.sample_logconcave``) with a plain ``getattr``.
A rename in the package would break ``run_bench.py --trace 1``; this test
makes it fail here first.  The tracer is imported by path and not edited.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_names():
    tracing = load_tracing()
    targets = tracing.SETUP_TARGETS + tracing.GIBBS_TARGETS + tracing.POST_TARGETS
    return [(mod, attr) for mod, attr, _ in targets] + [("gibbs", "sample_logconcave")]


@pytest.mark.parametrize("mod, attr", traced_names(), ids=lambda v: v)
def test_traced_name_resolves(mod, attr):
    module = importlib.import_module(f"hetgibbs.{mod}")
    assert callable(getattr(module, attr, None)), f"hetgibbs.{mod}.{attr} is gone"
