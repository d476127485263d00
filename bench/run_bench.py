#!/usr/bin/env python3
"""Effective draws per second on three fixed workloads, end to end and per layer.

Usage (from the root of a checkout):

    python3 bench/run_bench.py --workload dense_re --seed 1 --seconds 45 --trace 0
    python3 bench/run_bench.py                      # every workload, one child each

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs round 0 once
untraced and once with wrappers around every layer, checks that both give the
same draws byte for byte, and reports the per-layer metrics.  Human-readable
lines go first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with the environment, goes to ``bench/out/``.
"""

from time import perf_counter

_T_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MODULES = ("cli", "design", "esn", "gibbs", "logconcave", "metrics", "persist")
POST_REPEATS = 11


def import_program():
    """Import hetgibbs from this checkout's ``src`` only; fail if it is absent."""
    init = ROOT / "src" / "hetgibbs" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no program source at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(ROOT / "src"))
    pkg = importlib.import_module("hetgibbs")
    if Path(pkg.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported hetgibbs from {pkg.__file__}, not from this checkout")
    return types.SimpleNamespace(**{m: importlib.import_module(f"hetgibbs.{m}") for m in MODULES})


# ---------------------------------------------------------------------------
# environment record


def _openblas_threads() -> dict:
    """Thread count of every OpenBLAS loaded in this process, via ctypes."""
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return out
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                out[Path(lib).name] = fn()
                break
    return out


def environment() -> dict:
    import scipy

    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    env_keys = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "HETGIBBS_THREADS")
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "openblas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in env_keys},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# one workload


def _draws(chain) -> dict:
    out = {"beta1": chain.beta1, "eta1": chain.eta1, "beta2": chain.beta2, "eta2": chain.eta2,
           "sigma2_eta1": chain.sigma2_eta1, "sigma_eta2": chain.sigma_eta2}
    if chain.s is not None:
        out["s"] = chain.s
    return out


def _model_params(chain, spec):
    """Draw matrix and names of the sampled model parameters; ``s`` is left out."""
    blocks, names = [chain.beta1], [f"beta1_{j + 1}" for j in range(spec.p1)]
    if spec.r1:
        blocks += [chain.eta1, chain.sigma2_eta1[:, None]]
        names += [f"eta1_{j + 1}" for j in range(spec.r1)] + ["sigma2_eta1"]
    if spec.p2:
        blocks.append(chain.beta2)
        names += [f"beta2_{j + 1}" for j in range(spec.p2)]
    if spec.r2:
        blocks += [chain.eta2, chain.sigma_eta2[:, None]]
        names += [f"eta2_{j + 1}" for j in range(spec.r2)] + ["sigma_eta2"]
    return np.hstack(blocks), names


def _postprocess(hg, chain, fit, tmpdir: Path):
    summaries = hg.metrics.summarize(chain)
    ll = hg.metrics.loglik_pointwise(chain, fit.spec, fit.data)
    w = hg.metrics.waic(ll)
    hg.metrics.dic(ll, chain, fit.spec, fit.data)
    chain_path = tmpdir / "chain.csv"
    hg.persist.write_chain_csv(chain_path, chain, {"seed": chain.seed})
    hg.persist.write_summary_csv(tmpdir / "summary.csv", summaries, {"seed": chain.seed})
    return ll, w, chain_path.stat().st_size


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    hg = import_program()
    t_import = perf_counter() - _T_START
    sys.path.insert(0, str(HERE))
    import workloads as W
    from ess import ess_columns
    from tracing import GIBBS_TARGETS, POST_TARGETS, SETUP_TARGETS, Tracer

    wl = W.WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    tracer = Tracer(hg) if trace else None

    def traced(targets, draws=False):
        return tracer.installed(targets, draws) if trace else contextlib.nullcontext()

    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=OUT) as tmp:
        tmpdir = Path(tmp)
        info = wl.make_inputs(seed, tmpdir / "input.csv")

        t_fit = perf_counter()
        with traced(SETUP_TARGETS):
            fit = wl.setup(hg, tmpdir / "input.csv", info)
        setup_s = t_import + (perf_counter() - t_fit)

        n_rounds = 1 if trace else max(1, seconds // wl.round_seconds)
        chains, times, failed, errors = [], [], 0, []
        for r in range(n_rounds):
            cfg = hg.gibbs.GibbsConfig(iterations=wl.iterations, burn_in=wl.burn_in,
                                       seed=W.chain_seed(name, seed, r))
            try:
                t = perf_counter()
                with traced(GIBBS_TARGETS, draws=True):
                    chains.append(hg.gibbs.run_gibbs(fit.spec, fit.data, cfg)[0])
                times.append(perf_counter() - t)
            except hg.gibbs.GibbsError as exc:
                failed += 1
                errors.append(f"round {r}: {exc}")

        # post-processing of the pooled rounds, as `hetgibbs fit --chains` does;
        # one pass lasts under a second, so repeats give a median
        post_times = []
        if chains:
            posterior = hg.gibbs.concatenate_chains(chains)
            for i in range(1 if trace else POST_REPEATS):
                t = perf_counter()
                with traced(POST_TARGETS):
                    ll, w, chain_bytes = _postprocess(hg, posterior, fit, tmpdir)
                post_times.append(perf_counter() - t)
                if i == 0:
                    fit_s = t_import + (perf_counter() - t_fit)

        if trace and chains:
            # the same round without wrappers: tracing must not touch the stream
            t = perf_counter()
            plain = hg.gibbs.run_gibbs(fit.spec, fit.data, cfg)[0]
            plain_s = perf_counter() - t
            same = plain.to_matrix().tobytes() == chains[0].to_matrix().tobytes()

    # ---- checks, computed apart from the program
    checks = []
    if chains:
        draws = _draws(posterior)
        checks += W.draw_checks(draws, fit.spec.hyper.trunc_lower)
        checks += W.loglik_checks(fit, draws, ll.values, w)
        checks += wl.checks(fit, info, draws)
        if trace:
            checks.append(("traced draws identical", same, f"traced == untraced bytes: {same}"))
    else:
        checks.append(("any round completed", False, "; ".join(errors)))
    correct = all(ok for _, ok, _ in checks)

    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "rounds": n_rounds, "iterations": wl.iterations, "burn_in": wl.burn_in,
              "round_seconds": times, "postprocess_seconds": post_times,
              "errors": errors,
              "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks]}
    metrics = {}
    if chains and not trace:
        mats = [_model_params(c, fit.spec) for c in chains]
        names = mats[0][1]
        per_param = ess_columns(np.stack([m for m, _ in mats]))
        sample_s = statistics.median(times)
        # ESS of all rounds over rounds x the median round: one round slowed
        # by another process on the machine does not move the figure
        total = len(chains) * sample_s
        metrics = {
            "setup_s": (setup_s, "s"),
            "sample_s": (sample_s, "s"),
            "p5_ess_per_s": (float(np.percentile(per_param, 5)) / total, "1/s"),
            "median_ess_per_s": (float(np.median(per_param)) / total, "1/s"),
            "postprocess_s": (statistics.median(post_times), "s"),
            "fit_s": (fit_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        order = np.argsort(per_param)
        result["ess"] = {"min": float(per_param.min()), "median": float(np.median(per_param)),
                         "lowest": {names[j]: float(per_param[j]) for j in order[:5]},
                         "draws": int(sum(len(c) for c in chains)),
                         "per_param": dict(zip(names, per_param.tolist()))}
    elif chains:
        metrics, not_measured = layer_metrics(tracer, wl.iterations, chains[0], chain_bytes)
        metrics["gibbs.min_ess"] = (float(ess_columns(_model_params(chains[0], fit.spec)[0][None]).min()), "count")
        metrics["trace.overhead_s"] = (times[0] - plain_s, "s")
        result["not_measured"] = not_measured
        result["trace"] = tracer.record(_T_START)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result["environment"] = environment()
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    for n, ok, d in checks:
        print(f"[{name}] check {'PASS' if ok else 'FAIL'} {n}: {d}")
    for k, (v, u) in metrics.items():
        note = "  (not measured)" if k in result.get("not_measured", []) else ""
        print(f"[{name}] {k} = {v:.6g} {u}{note}")
    env = result["environment"]
    print(f"[{name}] environment: {env['cpu_count']} CPUs, OpenBLAS threads {env['openblas_threads']}, "
          f"thread env {env['thread_env']}, Python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}")
    return {"correct": correct, "attempted": n_rounds, "failed": failed,
            "metrics": result["metrics"]}


def layer_metrics(tracer, iterations: int, chain, chain_bytes: int):
    """Per-layer figures of the traced round; names never called read 0."""
    sec, calls = tracer.total, tracer.calls
    ms_iter = lambda s: 1000.0 * s / iterations  # noqa: E731
    fc = ["fc_beta1", "fc_eta1", "fc_beta2", "fc_eta2", "fc_sigma2_eta1", "fc_inv_sigma_eta2", "fc_s"]
    fc_total = sum(sec(f"gibbs.{f}") for f in fc)
    draws = calls.get("gibbs.sample_logconcave", 0)
    evals = calls.get("logconcave.fg", 0)
    m = {
        "cli.load_csv_s": (sec("cli.load_csv"), "s", "cli.load_csv"),
        "design.build_s": (sec("design.build_design"), "s", "design.build_design"),
        "esn.reservoir_s": (sec("esn.build_reservoir"), "s", "esn.build_reservoir"),
        "esn.to_spec_s": (sec("esn.esvm_to_spec"), "s", "esn.esvm_to_spec"),
    }
    for f in fc:
        m[f"gibbs.{f[3:]}_ms"] = (ms_iter(sec(f"gibbs.{f}")), "ms", f"gibbs.{f}")
    m.update({
        "gibbs.conditional_ms": (ms_iter(sec("gibbs.beta2_conditional") + sec("gibbs.eta2_conditional")),
                                 "ms", "gibbs.eta2_conditional"),
        "gibbs.driver_ms": (ms_iter(sec("gibbs.run_gibbs") - fc_total), "ms", "gibbs.run_gibbs"),
        "gibbs.jitter_repairs": (chain.counters.jitter_repairs, "count", "gibbs.run_gibbs"),
        "gibbs.exp_clamps": (chain.counters.exp_clamps, "count", "gibbs.run_gibbs"),
        "logconcave.draws_per_iter": (draws / iterations, "count", "gibbs.sample_logconcave"),
        "logconcave.evals_per_draw": (evals / draws if draws else 0.0, "ratio", "logconcave.fg"),
        "logconcave.eval_us": (1e6 * sec("logconcave.fg") / evals if evals else 0.0, "us", "logconcave.fg"),
        "logconcave.eval_ms": (ms_iter(sec("logconcave.fg")), "ms", "logconcave.fg"),
        "logconcave.hull_ms": (ms_iter(sec("gibbs.sample_logconcave") - sec("logconcave.fg")),
                               "ms", "gibbs.sample_logconcave"),
        "metrics.summarize_s": (sec("metrics.summarize"), "s", "metrics.summarize"),
        "metrics.loglik_s": (sec("metrics.loglik_pointwise"), "s", "metrics.loglik_pointwise"),
        "metrics.waic_s": (sec("metrics.waic"), "s", "metrics.waic"),
        "metrics.dic_s": (sec("metrics.dic"), "s", "metrics.dic"),
        "persist.write_chain_s": (sec("persist.write_chain_csv"), "s", "persist.write_chain_csv"),
        "persist.chain_mb": (chain_bytes / 1e6, "MB", "persist.write_chain_csv"),
    })
    not_measured = [k for k, (_, _, src) in m.items() if not tracer.called(src)]
    return {k: (v, u) for k, (v, u, _) in m.items()}, not_measured


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.workload != "all":
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(out))
        return 0

    # every workload in its own child, so each set-up is a cold one
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
