"""Acceptance suite: one criterion per test, printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Expected values come
from analytic identities or from independent oracles (grid quadrature,
closed-form conjugate posteriors, rank-calibration), never from the code
under test.  The parameters, draw counts and bounds of criteria 1-4 and 6
live in their ``oracle.check_*`` functions, which ``hetgibbs validate``
also runs: changing a bound there changes an acceptance bound.  Those
tests keep only their seeds and wall-time bounds; every other tolerance is
stated inline.
"""

import math
import time

import numpy as np

from hetgibbs.design import Dataset, Hyperparams, ModelSpec
from hetgibbs.esn import EsvmSpec, build_reservoir, esvm_inputs, esvm_to_spec
from hetgibbs.gibbs import GibbsConfig, concatenate_chains, run_gibbs
from hetgibbs.metrics import (
    CvScheme,
    PointwiseLogLik,
    dic,
    effective_sample_size,
    kfold_cv,
    loglik_pointwise,
    msev,
    waic,
)
from hetgibbs.oracle import (
    SyntheticShape,
    SyntheticTruth,
    check_gaussian_limit,
    check_laplace_augmentation,
    check_mlg_law,
    check_projection_tv,
    check_rank_calibration,
    generate_synthetic,
    synthetic_model_spec,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def run_criterion(num: int, limit_s: float, check, *args) -> None:
    """Report an oracle check's records as one criterion line, within a wall-time bound."""
    t0 = time.perf_counter()
    records = check(*args)
    elapsed = time.perf_counter() - t0
    ok = all(passed for _, passed, _ in records) and elapsed < limit_s
    details = "; ".join(detail for _, _, detail in records)
    report(num, ok, f"{details}; {elapsed:.1f}s (< {limit_s:.0f}s)")


def test_criterion_01_mlg_law_correctness():
    run_criterion(1, 30.0, check_mlg_law, 101)


def test_criterion_02_gaussian_limit():
    run_criterion(2, 60.0, check_gaussian_limit, 200)


def test_criterion_03_cmlg_projection_vs_grid_oracle():
    run_criterion(3, 120.0, check_projection_tv, 301)


def test_criterion_04_sbc_uniformity_and_negative_control():
    run_criterion(4, 1800.0, check_rank_calibration, 400, 500)


def test_criterion_05_constant_variance_conjugacy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(500)
    n = 200
    x = rng.normal(size=n)
    y = 0.7 + 1.1 * x + rng.normal(0.0, 1.3, size=n)
    data = Dataset(y=y, columns={"xm1": x})
    shape = SyntheticShape(p1=2, p2=1)
    spec = synthetic_model_spec(data, shape, Hyperparams(alpha=1000.0))
    chain = concatenate_chains(
        run_gibbs(spec, data, GibbsConfig(iterations=6000, burn_in=1000, seed=501))
    )
    sigma2 = np.exp(-chain.beta2[:, 0])
    # flat-prior oracle: sigma2 | y ~ IG((n - p1)/2, RSS/2) at the OLS fit
    X = spec.X1
    bhat, *_ = np.linalg.lstsq(X, y, rcond=None)
    rss = float(((y - X @ bhat) ** 2).sum())
    ig_shape, ig_scale = (n - spec.p1) / 2.0, rss / 2.0
    target_mean = ig_scale / (ig_shape - 1.0)
    target_var = ig_scale**2 / ((ig_shape - 1.0) ** 2 * (ig_shape - 2.0))
    ess = effective_sample_size(sigma2)
    mean_err = abs(sigma2.mean() - target_mean)
    mcse_mean = sigma2.std(ddof=1) / math.sqrt(ess)
    v = sigma2.var(ddof=1)
    m4 = np.mean((sigma2 - sigma2.mean()) ** 4)
    var_err = abs(v - target_var)
    mcse_var = math.sqrt(max(m4 - v**2, 1e-300) / ess)
    elapsed = time.perf_counter() - t0
    ok = mean_err <= 3.0 * mcse_mean and var_err <= 3.0 * mcse_var and elapsed < 120.0
    report(5, ok, f"sigma2 mean err {mean_err:.5f} <= 3*MCSE {3 * mcse_mean:.5f}; "
                  f"var err {var_err:.6f} <= 3*MCSE {3 * mcse_var:.6f} "
                  f"(ESS {ess:.0f}); {elapsed:.1f}s (< 2min)")


def test_criterion_06_laplace_augmentation():
    run_criterion(6, 60.0, check_laplace_augmentation, 600)


def test_criterion_07_parameter_recovery_and_msev_ordering():
    t0 = time.perf_counter()
    shape = SyntheticShape(p1=2, p2=3)
    truth = SyntheticTruth(
        beta1=np.array([1.0, 0.8]), eta1=np.empty(0),
        beta2=np.array([0.3, -0.5, 0.4]), eta2=np.empty(0),
        seed=-1, likelihood="gaussian",
    )
    cfg = GibbsConfig(iterations=1200, burn_in=300, thin=3, seed=700)
    hits = 0
    reps = 50
    for r in range(reps):
        data, _ = generate_synthetic(shape, seed=7000 + r, n=2000, truth=truth)
        spec = synthetic_model_spec(data, shape)
        chain = run_gibbs(spec, data, cfg)[0]
        mean = chain.beta2.mean(axis=0)
        sd = chain.beta2.std(axis=0, ddof=1)
        if np.all(np.abs(mean - truth.beta2) <= 3.0 * sd):
            hits += 1
    # variance-calibration ordering on one replicate's data
    data0, _ = generate_synthetic(shape, seed=7000, n=2000, truth=truth)
    spec_het = synthetic_model_spec(data0, shape)
    spec_con = ModelSpec(
        X1=spec_het.X1, Psi1=spec_het.Psi1,
        X2=np.ones((2000, 1)), Psi2=spec_het.Psi2,
        likelihood="gaussian", hyper=spec_het.hyper,
    )
    scheme = CvScheme.make(2000, folds=5, seed=701)
    cv_cfg = GibbsConfig(iterations=600, burn_in=200, seed=702)
    msev_het = kfold_cv(spec_het, data0, cv_cfg, scheme).msev_pooled
    msev_con = kfold_cv(spec_con, data0, cv_cfg, scheme).msev_pooled
    elapsed = time.perf_counter() - t0
    ok = hits >= math.ceil(0.95 * reps) and msev_het < msev_con and elapsed < 1200.0
    report(7, ok, f"recovery within 3 posterior SDs in {hits}/{reps} replicates (>= 48); "
                  f"pooled MSEV heteroskedastic {msev_het:.4f} < constant-variance "
                  f"{msev_con:.4f}; {elapsed / 60.0:.1f}min (< 20min)")


def test_criterion_08_esvm_radius_truncation_regime_recovery():
    t0 = time.perf_counter()
    radius_errs = []
    for seed in (7, 8):
        res = build_reservoir(50, 3, seed=seed, delta=0.9, weight_sd=0.3)
        radius = np.abs(np.linalg.eigvals(res.W)).max()
        radius_errs.append(abs(radius - 0.9))
    # regime-shift series; inputs follow the covariate-augmented pattern with a
    # trailing volatility proxy alongside the lagged squared return
    rng = np.random.default_rng(42)
    T = 1000
    sig2_true = np.where(np.arange(T) < T // 2, 1.0, 9.0)
    y = rng.normal(0.0, np.sqrt(sig2_true))
    ell = np.log(np.maximum(y**2, 1e-12))
    W = 80
    csum = np.concatenate([[0.0], np.cumsum(ell)])
    proxy = np.empty(T)
    proxy[0] = ell[0]
    for t in range(1, T):
        a = max(0, t - W)
        proxy[t] = (csum[t] - csum[a]) / (t - a)
    inputs = esvm_inputs(y, extra=proxy)
    res = build_reservoir(50, inputs.shape[1], seed=7, delta=0.9, weight_sd=0.3)
    es = EsvmSpec(reservoir=res, inputs=inputs, mean_prior_var=1000.0,
                  hyper=Hyperparams(trunc_lower=7.0))
    spec, data = esvm_to_spec(es, y)
    chain = concatenate_chains(
        run_gibbs(spec, data, GibbsConfig(iterations=3000, burn_in=800, seed=3))
    )
    lp = chain.eta2 @ spec.Psi2.T
    s2 = np.exp(-np.clip(lp, -700, 700)).mean(axis=0)
    r1 = float(s2[: T // 2 - 1].mean())
    r2 = float(s2[T // 2 - 1 :].mean())
    err1, err2 = abs(r1 - 1.0), abs(r2 - 9.0) / 9.0
    trunc_ok = bool(np.all(1.0 / chain.sigma_eta2 > 7.0))
    elapsed = time.perf_counter() - t0
    ok = (max(radius_errs) <= 1e-10 and err1 <= 0.25 and err2 <= 0.25
          and trunc_ok and elapsed < 600.0)
    report(8, ok, f"spectral radius err max {max(radius_errs):.1e} (<= 1e-10); regime "
                  f"means {r1:.2f}/{r2:.2f} vs 1/9 (errors {err1:.1%}, {err2:.1%}, "
                  f"<= 25%); all 1/sigma_eta draws > 7: {trunc_ok}; "
                  f"{elapsed / 60.0:.1f}min (< 10min)")


def test_criterion_09_metric_hand_arithmetic():
    t0 = time.perf_counter()
    checks = []
    checks.append(np.isclose(msev([1.0, -1.0], [0.0, 0.0], [1.0, 1.0]), 0.0, atol=1e-12))
    checks.append(np.isclose(msev([2.0, 0.0], [0.0, 0.0], [1.0, 1.0]), 5.0, rtol=1e-12))
    checks.append(np.isclose(msev([0.0], [0.0], [0.0]), 0.0, atol=1e-12))
    ll = PointwiseLogLik(values=np.array([[-1.0], [-3.0]]), mode="gaussian")
    checks.append(np.isclose(waic(ll), 7.1324383390339456, rtol=1e-12))
    # plug-in DIC on a two-draw, one-observation chain (hand-computed value)
    from hetgibbs.gibbs import PosteriorChain

    chain = PosteriorChain(
        beta1=np.array([[0.2], [0.4]]), eta1=np.empty((2, 0)),
        beta2=np.array([[0.0], [-math.log(2.0)]]), eta2=np.empty((2, 0)),
        sigma2_eta1=np.ones(2), sigma_eta2=np.ones(2), s=None, seed=0,
    )
    spec = ModelSpec(X1=np.ones((1, 1)), Psi1=np.empty((1, 0)),
                     X2=np.ones((1, 1)), Psi2=np.empty((1, 0)))
    data = Dataset(y=np.array([0.5]))
    d = dic(loglik_pointwise(chain, spec, data), chain, spec, data)
    checks.append(np.isclose(d, 2.2511663854418562, rtol=1e-12))
    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 1.0
    report(9, ok, f"{sum(checks)}/5 hand cases at 1e-12 relative error; "
                  f"{elapsed * 1000.0:.0f}ms (< 1s)")


def test_criterion_10_default_fit_performance():
    rng = np.random.default_rng(1000)
    n, p, r = 1000, 5, 150
    X1 = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    X2 = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    Psi1 = rng.normal(0.0, 0.1, size=(n, r))
    Psi2 = rng.normal(0.0, 0.1, size=(n, r))
    beta1 = rng.normal(0.0, 1.0, size=p)
    beta2 = np.concatenate([[0.2], rng.normal(0.0, 0.3, size=p - 1)])
    sigma2 = np.exp(-np.clip(X2 @ beta2, -20, 20))
    y = X1 @ beta1 + rng.normal(0.0, np.sqrt(sigma2))
    spec = ModelSpec(X1=X1, Psi1=Psi1, X2=X2, Psi2=Psi2, hyper=Hyperparams())
    data = Dataset(y=y)

    t0 = time.perf_counter()
    chain = run_gibbs(spec, data, GibbsConfig(iterations=5000, burn_in=1000, seed=1001))[0]
    elapsed = time.perf_counter() - t0
    ok = elapsed < 600.0 and len(chain) == 4000
    report(10, ok, f"5000-iteration fit (n=1000, p1=p2=5, r1=r2=150) in "
                   f"{elapsed / 60.0:.2f}min (< 10min), 4000 stored draws")
