"""The compiled cMLG coordinate scan: its law, its stream and its build.

``_scan.scan_cmlg`` runs the whole scan in ``_scan.c``;
``oracle.scan_cmlg_reference`` is the same scan in Python, with the same
arguments.  From the same seed both take the same uniforms in the same order
and make the same evaluations, so on the same conditional their draws
differ only by the rounding of the kernel's serial sums and its own ``exp``
(``hg_exp``, within an ulp of numpy's) against numpy's.  ``TOL`` was set from a measurement: over the three conditionals
below the largest difference was 9.7e-12 and 3.7e-12 (the Gaussian and
Laplace η2 blocks) and 0 (the truncated scale).  The exponential is checked
against ``np.exp`` on its own, and the build without vector-width clones
(``-DHG_NO_CLONES``) against the dispatched one, bit for bit.
"""

import ast
import ctypes
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hetgibbs import _scan, gibbs, logconcave
from hetgibbs.design import Hyperparams, RunCounters
from hetgibbs.gibbs import CmlgParams, GibbsConfig, RotatedDesign, run_gibbs
from hetgibbs.logconcave import LogConcaveError
from hetgibbs.oracle import SyntheticShape, generate_synthetic, scan_cmlg_reference, synthetic_model_spec

SRC = Path(__file__).resolve().parent.parent / "src"
TOL = 1e-10
SCANS = 2000


def state_at_truth(shape, hyper):
    data, truth = generate_synthetic(shape, seed=5, n=80)
    spec = synthetic_model_spec(data, shape, hyper)
    state = gibbs.initial_state(spec, data)
    state.beta1, state.eta1, state.beta2, state.eta2 = truth.beta1, truth.eta1, truth.beta2, truth.eta2
    return spec, data, state


def eta2_case(likelihood):
    shape = SyntheticShape(p1=2, p2=2, r1=2, r2=6, likelihood=likelihood, collinear=0.8)
    spec, data, state = state_at_truth(shape, Hyperparams())
    axes = RotatedDesign(spec.Psi2, spec)
    params = gibbs.eta2_conditional(state, spec, data, None, axes)
    return params, axes.V.T @ state.eta2, -np.inf


def tau_case():
    shape = SyntheticShape(p1=1, p2=1, r2=4)
    hyper = Hyperparams(trunc_lower=7.0)
    _, _, state = state_at_truth(shape, hyper)
    params = gibbs.inv_sigma_eta2_conditional(state, hyper, gibbs.inv_sigma_eta2_block(hyper, 4))
    return params, np.array([max(1.0 / state.sigma_eta2, 7.0)]), 7.0


CASES = {
    "rotated_eta2": lambda: eta2_case("gaussian"),
    "laplace_eta2": lambda: eta2_case("laplace"),
    "truncated_tau": tau_case,
}


@pytest.mark.parametrize("case", list(CASES))
def test_kernel_matches_python_reference(case):
    params, x0, lower = CASES[case]()
    worst = 0.0
    for seed in range(SCANS):
        rng_k, rng_r = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _scan.scan_cmlg(rng_k, params, x0, lower)
        ref = scan_cmlg_reference(rng_r, params, x0, lower)
        worst = max(worst, float(np.max(np.abs(got - ref))))
        # the same uniforms were taken: both streams stand at the same place
        assert rng_k.bit_generator.state == rng_r.bit_generator.state
        assert np.all(got >= lower)
    assert worst <= TOL


@pytest.mark.parametrize("case", list(CASES))
def test_kernel_and_reference_count_the_same_work(case):
    # both count each coordinate draw and each evaluation past the current
    # value's pass
    params, x0, lower = CASES[case]()
    kernel, reference = RunCounters(), RunCounters()
    for seed in range(200):
        _scan.scan_cmlg(np.random.default_rng(seed), params, x0, lower, kernel)
        scan_cmlg_reference(np.random.default_rng(seed), params, x0, lower, reference)
    assert kernel.scan_draws == reference.scan_draws == 200 * x0.shape[0]
    assert kernel.scan_evals == reference.scan_evals > 0


def test_kernel_failure_raises_the_reference_error():
    # exp overflows at the current value and at every point pulled back
    # toward it, so neither scan finds a finite tangent
    params = CmlgParams([[1000.0]], [1.0], [1.0])
    x0 = np.array([1.0])
    with pytest.raises(LogConcaveError, match="could not locate a finite region"):
        scan_cmlg_reference(np.random.default_rng(0), params, x0)
    with pytest.raises(LogConcaveError, match=r"could not locate a finite region .*coordinate 0"):
        _scan.scan_cmlg(np.random.default_rng(0), params, x0)


def test_argtypes_match_the_kernel_signature():
    # ctypes trusts argtypes: an argument missing on either side would let
    # the kernel read past an array instead of failing
    params = re.search(r"\bint hg_scan_cmlg\(([^)]*)\)", _scan.SOURCE.read_text()).group(1)
    kinds = {"long": ctypes.c_long, "double": ctypes.c_double}
    declared = [ctypes.c_void_p if "*" in p else kinds[p.split()[0]] for p in params.split(",")]
    assert len(declared) == 9
    assert _scan.load().hg_scan_cmlg.argtypes == declared


def test_kernel_messages_are_the_reference_messages():
    # every kernel status but out-of-memory names a failure of the Python
    # envelope sampler, in its words; an f-string field takes the value of
    # the module constant it names, and any other field stands for one word
    def pattern(part):
        if isinstance(part, ast.Constant):
            return re.escape(part.value)
        value = getattr(logconcave, getattr(part.value, "id", ""), None)
        return r"\S+" if value is None else re.escape(str(value))

    patterns = []
    for node in ast.walk(ast.parse(Path(logconcave.__file__).read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "LogConcaveError":
            arg = node.args[0]
            patterns.append("".join(map(pattern, arg.values if isinstance(arg, ast.JoinedStr) else [arg])))
    for status, message in _scan._MESSAGES.items():
        if status != 10:
            assert any(re.fullmatch(pat, message) for pat in patterns), (status, message)


def test_flags_keep_the_draws_deterministic():
    # the golden digests rest on every sum and product rounding as written:
    # no contraction into FMAs, no reassociation, no host-specific code
    assert "-ffp-contract=off" in _scan.FLAGS
    for flag in ("-ffast-math", "-Ofast", "-march=native", "-funsafe-math-optimizations",
                 "-fassociative-math", "-ffp-contract=fast"):
        assert flag not in _scan.FLAGS


def kernel_exp(x):
    x = np.ascontiguousarray(x, dtype=np.float64)
    out = np.empty_like(x)
    _scan.load().hg_exp_array(x.size, x.ctypes.data, out.ctypes.data)
    return out


def test_exp_within_one_ulp_of_numpy():
    x = np.concatenate([np.linspace(-745.2, 709.78, 2_000_001),
                        np.random.default_rng(0).uniform(-2.0, 2.0, 200_000)])
    got, want = kernel_exp(x), np.exp(x)
    # both are finite and non-negative, so their bit patterns order like their values
    assert np.max(np.abs(got.view(np.int64) - want.view(np.int64))) <= 1


def test_exp_special_values():
    top = 709.782712893384  # log(DBL_MAX), rounded down
    x = np.array([np.inf, -np.inf, np.nan, top, np.nextafter(top, np.inf), np.nextafter(top, 0.0),
                  -745.13, -745.2, np.nextafter(-745.2, -np.inf), 0.0, -0.0])
    got = kernel_exp(x)
    assert got[0] == np.inf and got[1] == 0.0 and np.isnan(got[2])
    with np.errstate(over="ignore"):
        ulps = np.abs(got.view(np.int64) - np.exp(x).view(np.int64))
    assert np.isfinite(got[[3, 5]]).all() and ulps[3] <= 1 and ulps[5] <= 1
    assert got[4] == np.inf
    assert got[6] == 5e-324  # the smallest subnormal
    assert got[7] == 0.0 and got[8] == 0.0
    assert got[9] == 1.0 and got[10] == 1.0


def test_clones_off_give_the_same_bits(tmp_path, monkeypatch):
    # the dispatched build runs the exp loop at the widest vector width the
    # CPU has; the build without clones runs the plain loop
    params, x0, lower = eta2_case("gaussian")
    x = np.linspace(-745.2, 709.78, 100_001)

    def run():
        draws = [_scan.scan_cmlg(np.random.default_rng(seed), params, x0, lower) for seed in range(200)]
        return b"".join(d.tobytes() for d in draws), kernel_exp(x).tobytes()

    dispatched = run()
    monkeypatch.setattr(_scan, "cache_dirs", lambda: [tmp_path])
    monkeypatch.setattr(_scan, "_lib", None)
    monkeypatch.setenv("CC", (os.environ.get("CC") or "cc") + " -DHG_NO_CLONES")
    plain = run()
    assert [p.name for p in tmp_path.iterdir() if p.suffix == ".so"]  # a second build ran
    assert plain == dispatched


def small_problem():
    shape = SyntheticShape(p1=2, p2=2, r2=3)
    data, _ = generate_synthetic(shape, seed=4, n=40)
    return synthetic_model_spec(data, shape), data


def test_forked_chains_publish_one_kernel(tmp_path, monkeypatch):
    monkeypatch.setattr(_scan, "cache_dirs", lambda: [tmp_path])
    monkeypatch.setattr(_scan, "_lib", None)
    monkeypatch.setenv("HETGIBBS_THREADS", "2")
    spec, data = small_problem()
    config = GibbsConfig(iterations=20, burn_in=5, seed=1, chains=2)
    run_gibbs(spec, data, config)
    # the parent never scanned, so each forked chain built the kernel itself
    assert _scan._lib is None
    published = [p.name for p in tmp_path.iterdir()]
    assert len(published) == 1 and published[0].endswith(".so")

    def no_compile(*args, **kwargs):
        raise AssertionError("the kernel was compiled again")

    monkeypatch.setattr(_scan, "_compile", no_compile)
    run_gibbs(spec, data, config)
    assert [p.name for p in tmp_path.iterdir()] == published


FIT_WITHOUT_COMPILER = """
import sys
from pathlib import Path
import hetgibbs.cli
from hetgibbs import _scan
cache = Path(sys.argv[1])
_scan.cache_dirs = lambda: [cache]
# importing built nothing and loaded nothing
assert _scan._lib is None and not any(cache.iterdir())
sys.exit(hetgibbs.cli.main(["fit", "--config", sys.argv[2]]))
"""


def test_fit_without_compiler_names_it(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.standard_normal(30)
    np.savetxt(tmp_path / "data.csv", np.column_stack([x + rng.standard_normal(30), x]),
               delimiter=",", header="y,x", comments="")
    cfg = tmp_path / "fit.ini"
    cfg.write_text(
        f"[data]\npath = {tmp_path / 'data.csv'}\nresponse = y\nmean_terms = x\nvar_terms = x\n"
        f"[sampler]\niterations = 20\nburn_in = 5\n[output]\ndir = {tmp_path / 'out'}\n"
    )
    cache = tmp_path / "cache"
    cache.mkdir()
    env = {k: v for k, v in os.environ.items() if k != "HETGIBBS_THREADS"}
    env.update(CC=str(tmp_path / "no-such-cc"),
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", FIT_WITHOUT_COMPILER, str(cache), str(cfg)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode != 0
    assert "AssertionError" not in proc.stderr
    assert str(tmp_path / "no-such-cc") in proc.stderr
    assert "needs a C compiler" in proc.stderr
    assert "block beta2" in proc.stderr
    assert not any(cache.iterdir())  # the temporary output was removed
