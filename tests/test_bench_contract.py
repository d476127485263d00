"""The benchmark must find every module it loads and every name it rebinds.

``bench/tracing.py`` times the program from outside by rebinding module
attributes of ``hetgibbs`` (``SETUP_TARGETS``, ``GIBBS_TARGETS``,
``POST_TARGETS`` and ``gibbs.sample_logconcave``) with a plain ``getattr``.
A rename in the package would break ``run_bench.py --trace 1``; this test
makes it fail here first.  The tracer is imported by path and not edited.
``bench/run_bench.py`` imports each name in its ``MODULES`` as
``hetgibbs.<name>``; that tuple is read from the file's source, so a moved
module fails here too.  A short chain also runs under the installed
wrappers, as ``run_bench.py --trace 1`` runs one, so a changed signature or
call pattern of a traced name fails here as well.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import hetgibbs.gibbs
from hetgibbs.oracle import SyntheticShape, generate_synthetic, synthetic_model_spec

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


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


def bench_modules():
    tree = ast.parse((BENCH / "run_bench.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "MODULES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run_bench.py defines no MODULES")


@pytest.mark.parametrize("mod", bench_modules())
def test_bench_module_imports(mod):
    importlib.import_module(f"hetgibbs.{mod}")


def test_traced_chain_keeps_its_draws():
    tracing = load_tracing()
    shape = SyntheticShape(p1=2, p2=2, r1=2, r2=3)
    data, _ = generate_synthetic(shape, seed=3, n=40)
    spec = synthetic_model_spec(data, shape)
    config = hetgibbs.gibbs.GibbsConfig(iterations=12, burn_in=2, seed=5)
    plain = hetgibbs.gibbs.run_gibbs(spec, data, config)[0].to_matrix()
    tracer = tracing.Tracer(hetgibbs)
    with tracer.installed(tracing.GIBBS_TARGETS, draws=True):
        traced = hetgibbs.gibbs.run_gibbs(spec, data, config)[0].to_matrix()
    assert traced.tobytes() == plain.tobytes()
    for name in ("beta2_conditional", "eta2_conditional", "fc_beta2", "fc_eta2", "fc_inv_sigma_eta2"):
        assert tracer.calls[f"gibbs.{name}"] == config.iterations, name
