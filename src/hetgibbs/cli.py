"""Command-line interface: fit, cv, validate, simulate.

Configuration lives in a flat key-value file with section headers (INI
syntax); every key is schema-checked and unknown keys are errors, so typos
fail loudly.  Command-line flags override file keys.  The HETGIBBS_THREADS
environment variable caps concurrent chains, folds and replicates.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .design import BasisConfig, Dataset, Hyperparams, build_design
from .esn import EsvmSpec, build_reservoir, esvm_inputs, esvm_to_spec
from .gibbs import GibbsConfig, concatenate_chains, run_gibbs
from .metrics import (
    CvScheme,
    dic,
    kfold_cv,
    loglik_pointwise,
    msev,
    predict_posterior_means,
    summarize,
    waic,
)
from .persist import (
    format_float,
    write_chain_csv,
    write_metadata,
    write_summary_csv,
    write_table_csv,
)

__all__ = ["ConfigError", "load_csv", "load_config", "cmd_fit", "cmd_cv", "cmd_validate", "cmd_simulate", "main"]


class ConfigError(ValueError):
    """Configuration file or flag problem."""


def _parse_bool(v: str) -> bool:
    low = v.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {v!r}")


def _parse_list(v: str) -> list:
    return [item.strip() for item in v.split(",") if item.strip()]


def _parse_intlist(v: str) -> list:
    return [int(x) for x in _parse_list(v)]


_SCHEMA = {
    "data": {
        "path": str,
        "response": str,
        "mean_terms": _parse_list,
        "var_terms": _parse_list,
        "coords": _parse_list,
        "time_index": str,
    },
    "model": {
        "likelihood": str,
        "mean_basis_resolutions": _parse_intlist,
        "var_basis_resolutions": _parse_intlist,
        "sigma2_beta1": float,
        "sigma2_beta2": float,
        "alpha": float,
        "a": float,
        "b": float,
        "omega": float,
        "rho": float,
        "trunc_lower": float,
    },
    "sampler": {
        "iterations": int,
        "burn_in": int,
        "thin": int,
        "seed": int,
        "chains": int,
    },
    "esvm": {
        "enabled": _parse_bool,
        "n_h": int,
        "delta": float,
        "weight_sd": float,
        "c": float,
        "lag_feature": _parse_bool,
        "extra_columns": _parse_list,
        "reservoir_seed": int,
        "mean_prior_var": float,
    },
    "cv": {"folds": int, "cv_seed": int},
    "output": {"dir": str},
    "simulate": {
        "n": int,
        "p1": int,
        "p2": int,
        "r1": int,
        "r2": int,
        "likelihood": str,
        "truth_seed": int,
    },
}


def load_config(path: str | None) -> dict:
    """Read and schema-check a config file into {section: {key: value}}."""
    cfg: dict = {section: {} for section in _SCHEMA}
    if path is None:
        return cfg
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            conv = _SCHEMA[section][key]
            try:
                cfg[section][key] = conv(raw)
            except ConfigError:
                raise
            except Exception as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {raw!r} ({exc})")
    return cfg


def _get(cfg: dict, section: str, key: str, default):
    return cfg.get(section, {}).get(key, default)


def load_csv(path: str) -> tuple[Dataset, dict]:
    """Parse a UTF-8 header CSV into a Dataset plus a load report.

    Columns whose non-empty cells all parse as numbers become float columns
    (empty cells become NaN); everything else becomes categorical (empty
    cells become missing).  A row of empty cells is a row of missing values;
    lines starting with ``#`` before the header (provenance comments) and
    blank lines are skipped.  Header names are stripped as cells are.  Ragged
    rows, reported by their line in the file, a column name repeated in the
    header, and header-only files are errors.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = None
        for row in reader:
            if row and row[0].lstrip().startswith("#"):
                continue  # provenance comment lines from this package's writers
            header = [name.strip() for name in row]
            break
        if header is None:
            raise ValueError(f"{path} is empty")
        seen = set()
        for name in header:
            if name in seen:
                raise ValueError(f"{path}: column {name!r} appears more than once in the header")
            seen.add(name)
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: ragged row at line {reader.line_num} "
                    f"({len(row)} fields, expected {len(header)})"
                )
            rows.append(row)
    if not rows:
        raise ValueError(f"{path} contains a header but zero data rows")
    columns: dict = {}
    for j, name in enumerate(header):
        cells = [r[j].strip() for r in rows]
        try:
            values = [float(c) if c != "" else np.nan for c in cells]
        except ValueError:
            values = None
        if values is not None and any(c != "" for c in cells):
            columns[name] = np.array(values, dtype=float)
        else:
            columns[name] = np.array(
                [c if c != "" else None for c in cells], dtype=object
            )
    report = {"rows": len(rows), "columns": len(header)}
    # the response is extracted later; park columns in a y-less dataset shell
    dataset = Dataset(y=np.zeros(len(rows)), columns=columns)
    return dataset, report


def _resolved_flat(cfg: dict) -> dict:
    flat = {}
    for section, kv in cfg.items():
        for key, val in kv.items():
            if isinstance(val, list):
                val = ",".join(str(v) for v in val)
            flat[f"{section}.{key}"] = val
    return flat


def _extract_response(dataset: Dataset, response: str) -> Dataset:
    if response not in dataset.columns:
        raise KeyError(f"unknown response column {response!r}")
    y = dataset.columns[response]
    if y.dtype.kind != "f":
        raise ValueError(f"response column {response!r} is not numeric")
    columns = {k: v for k, v in dataset.columns.items() if k != response}
    return Dataset(y=y, columns=columns, coords=dataset.coords)


def _attach_coords(dataset: Dataset, coord_names: list) -> Dataset:
    if len(coord_names) != 2:
        raise ConfigError("coords must name exactly two numeric columns")
    cols = []
    for name in coord_names:
        if name not in dataset.columns:
            raise KeyError(f"unknown coordinate column {name!r}")
        col = dataset.columns[name]
        if col.dtype.kind != "f":
            raise ValueError(f"coordinate column {name!r} is not numeric")
        cols.append(col)
    return Dataset(
        y=dataset.y,
        columns=dataset.columns,
        coords=np.column_stack(cols),
    )


def _build_from_config(cfg: dict):
    """Shared fit/cv assembly: returns (spec, data, gibbs config, report, rows).

    ``rows`` holds the 1-based data row of the input file of each modeled
    observation (for an ESVM fit, of each modeled return).
    """
    data_path = _get(cfg, "data", "path", None)
    response = _get(cfg, "data", "response", None)
    if data_path is None or response is None:
        raise ConfigError("data.path and data.response are required")
    esvm = _get(cfg, "esvm", "enabled", False)
    t_name = _get(cfg, "data", "time_index", None)
    if t_name is not None and not esvm:
        raise ConfigError("[data] time_index applies only to ESVM fits ([esvm] enabled = true)")
    if esvm and _get(cfg, "model", "trunc_lower", None) is not None:
        raise ConfigError("[model] trunc_lower does not apply to ESVM fits; set [esvm] c instead")
    if esvm and _get(cfg, "model", "likelihood", "gaussian") != "gaussian":
        raise ConfigError("[model] likelihood must be gaussian for ESVM fits (the reduction is Gaussian)")
    for section, key in (("data", "mean_terms"), ("data", "var_terms"), ("data", "coords"),
                         ("model", "mean_basis_resolutions"), ("model", "var_basis_resolutions")):
        if esvm and _get(cfg, section, key, None) is not None:
            raise ConfigError(f"[{section}] {key} does not apply to ESVM fits "
                              "(the mean is one intercept, the variance design the reservoir)")
    config = GibbsConfig(**cfg.get("sampler", {}))
    hyper_keys = {f.name for f in fields(Hyperparams)}
    hyper = Hyperparams(**{k: v for k, v in cfg.get("model", {}).items() if k in hyper_keys})
    if esvm:
        try:
            hyper = replace(hyper, trunc_lower=_get(cfg, "esvm", "c", 7.0))
        except ValueError as exc:
            raise ConfigError(f"[esvm] c: {exc}") from exc
    dataset, report = load_csv(data_path)
    dataset = _extract_response(dataset, response)
    file_row = np.arange(1, dataset.n + 1)  # 1-based data rows of the input file

    if esvm:
        if t_name is not None:
            if t_name not in dataset.columns:
                raise KeyError(f"unknown time_index column {t_name!r}")
            order = np.argsort(dataset.columns[t_name], kind="stable")
            dataset = dataset.subset(order)
            file_row = file_row[order]
        returns = dataset.y
        keep = np.isfinite(returns)
        dropped = int(returns.shape[0] - keep.sum())
        if dropped:
            returns = returns[keep]
        report["dropped_rows"] = dropped
        extra_names = _get(cfg, "esvm", "extra_columns", [])
        extra = None
        if extra_names:
            cols = []
            for name in extra_names:
                if name not in dataset.columns:
                    raise KeyError(f"unknown column {name!r}")
                col = dataset.columns[name]
                if col.dtype.kind != "f":
                    raise ValueError(f"extra input column {name!r} is not numeric")
                bad = keep & ~np.isfinite(col)
                if bad.any():
                    raise ValueError(
                        f"extra input column {name!r} is not finite in data row {int(file_row[bad].min())}"
                    )
                cols.append(col[keep])
            extra = np.column_stack(cols)
        include_lag = _get(cfg, "esvm", "lag_feature", True)
        inputs = esvm_inputs(returns, extra=extra, include_lag=include_lag)
        seed_res = _get(cfg, "esvm", "reservoir_seed", config.seed)
        reservoir = build_reservoir(
            n_h=_get(cfg, "esvm", "n_h", 50),
            p=inputs.shape[1],
            seed=seed_res,
            weight_sd=_get(cfg, "esvm", "weight_sd", 0.1),
            delta=_get(cfg, "esvm", "delta", 0.1),
        )
        es = EsvmSpec(
            reservoir=reservoir,
            inputs=inputs,
            mean_prior_var=_get(cfg, "esvm", "mean_prior_var", hyper.sigma2_beta1),
            hyper=hyper,
        )
        spec, gdata = esvm_to_spec(es, returns)
        # the first kept return enters only as the lag of the second
        return spec, gdata, config, report, file_row[keep][1:]

    mean_terms = _get(cfg, "data", "mean_terms", [])
    var_terms = _get(cfg, "data", "var_terms", [])
    coord_names = _get(cfg, "data", "coords", [])
    if coord_names:
        dataset = _attach_coords(dataset, coord_names)
    referenced = list(dict.fromkeys(mean_terms + var_terms + coord_names))
    file_row = file_row[dataset.complete_cases(referenced)]
    dataset, dropped = dataset.drop_missing(referenced)
    report["dropped_rows"] = dropped
    basis_mean = _get(cfg, "model", "mean_basis_resolutions", None)
    basis_var = _get(cfg, "model", "var_basis_resolutions", None)
    spec = build_design(
        dataset,
        mean_terms,
        var_terms,
        basis_mean=BasisConfig(basis_mean) if basis_mean else None,
        basis_var=BasisConfig(basis_var) if basis_var else None,
        likelihood=_get(cfg, "model", "likelihood", "gaussian"),
        hyper=hyper,
    )
    return spec, dataset, config, report, file_row


def _out_dir(cfg: dict) -> Path:
    out = Path(_get(cfg, "output", "dir", "hetgibbs_out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_fit(cfg: dict) -> int:
    """Fit the model, write chains, summary, metrics and metadata."""
    out = _out_dir(cfg)
    spec, data, config, report, rows = _build_from_config(cfg)
    resolved = _resolved_flat(cfg)
    resolved["sampler.resolved_seed"] = config.seed
    t0 = time.perf_counter()
    chains = run_gibbs(spec, data, config)
    elapsed = time.perf_counter() - t0
    pooled = concatenate_chains(chains)
    for k, chain in enumerate(chains):
        write_chain_csv(out / f"chain_{k}.csv", chain, resolved)
    write_summary_csv(out / "summary.csv", summarize(pooled), resolved)
    ll = loglik_pointwise(pooled, spec, data)
    mu_hat, sigma2_hat = predict_posterior_means(pooled, spec)
    metrics = {
        "dic": format_float(dic(ll, pooled, spec, data)),
        "waic": format_float(waic(ll)),
        "msev_insample": format_float(msev(data.y, mu_hat, sigma2_hat)),
        "draws": len(pooled),
    }
    if _get(cfg, "esvm", "enabled", False):
        sig_draws = spec.variance(pooled.beta2, pooled.eta2)
        write_table_csv(
            out / "volatility.csv",
            ["t", "sigma2_mean", "sigma2_q2.5", "sigma2_q97.5"],
            [
                rows,
                sig_draws.mean(axis=0),
                np.quantile(sig_draws, 0.025, axis=0),
                np.quantile(sig_draws, 0.975, axis=0),
            ],
            resolved,
        )
    counters = {f"chain_{k}.{name}": v for k, c in enumerate(chains) for name, v in c.counters.as_dict().items()}
    counters.update({f"total.{name}": v for name, v in pooled.counters.as_dict().items()})
    scales = {}
    for label, entries in (("mean", spec.scales1), ("variance", spec.scales2)):
        for sc in entries:
            scales[f"{label}.{sc.name}"] = f"{format_float(sc.mean)},{format_float(sc.sd)}"
    sections = {
        "config": resolved,
        "load_report": report,
        "metrics": metrics,
        "timings": {"run_gibbs_seconds": f"{elapsed:.3f}"},
        "counters": counters,
    }
    if scales:
        sections["standardization"] = scales
    write_metadata(out / "metadata.txt", sections)
    print(f"fit complete: {len(chains)} chain(s), {len(pooled)} pooled draws -> {out}")
    return 0


def cmd_cv(cfg: dict) -> int:
    """K-fold cross validation; writes held-out predictions and pooled MSEV."""
    out = _out_dir(cfg)
    spec, data, config, report, rows = _build_from_config(cfg)
    folds = _get(cfg, "cv", "folds", 5)
    cv_seed = _get(cfg, "cv", "cv_seed", _get(cfg, "sampler", "seed", 0))
    scheme = CvScheme.make(data.n, folds=folds, seed=cv_seed)
    resolved = _resolved_flat(cfg)
    t0 = time.perf_counter()
    result = kfold_cv(spec, data, config, scheme)
    elapsed = time.perf_counter() - t0
    write_table_csv(
        out / "cv_predictions.csv",
        ["row", "fold", "y", "mu_hat", "sigma2_hat"],
        [
            rows,
            scheme.assignment,
            data.y,
            result.mu_hat,
            result.sigma2_hat,
        ],
        resolved,
    )
    metrics = {"msev_pooled": format_float(result.msev_pooled)}
    for k, v in enumerate(result.fold_msev):
        metrics[f"msev_fold_{k}"] = format_float(v)
    write_metadata(
        out / "cv_metadata.txt",
        {
            "config": resolved,
            "load_report": report,
            "metrics": metrics,
            "timings": {"kfold_cv_seconds": f"{elapsed:.3f}"},
        },
    )
    print(f"cv complete: pooled MSEV {result.msev_pooled:.6g} -> {out}")
    return 0


def cmd_validate(suite: str, seed: int, out_dir: str, replicates: int = 150) -> int:
    """Run a suite's acceptance checks (``oracle.check_*``) at ``seed``; write a report.

    ``mlg`` runs criteria 1-3, ``laplace`` 6, ``sbc`` 4 over ``replicates`` replicates.
    """
    from . import oracle

    suites = {
        "mlg": {1: lambda: oracle.check_mlg_law(seed), 2: lambda: oracle.check_gaussian_limit(seed),
                3: lambda: oracle.check_projection_tv(seed)},
        "laplace": {6: lambda: oracle.check_laplace_augmentation(seed)},
        "sbc": {4: lambda: oracle.check_rank_calibration(seed, replicates)},
    }
    if suite not in (*suites, "all"):
        print(f"error: unknown suite {suite!r}; choose from {(*suites, 'all')}", file=sys.stderr)
        return 2
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sections: dict = {"run": {"suite": suite, "seed": seed}}
    chosen = {c: run for name, runs in suites.items() if suite in (name, "all") for c, run in runs.items()}
    any_fail = False
    for criterion, run in chosen.items():
        group = sections[f"criterion_{criterion:02d}"] = {}
        for check, ok, detail in run():
            group[check] = f"{'pass' if ok else 'FAIL'} ({detail})"
            print(f"[criterion {criterion:02d}] {check}: {group[check]}")
            any_fail |= not ok
    write_metadata(out / "validation_report.txt", sections)
    return 1 if any_fail else 0


def cmd_simulate(cfg: dict) -> int:
    """Write a synthetic dataset CSV plus the generating truth."""
    from . import oracle

    out = _out_dir(cfg)
    shape = oracle.SyntheticShape(
        p1=_get(cfg, "simulate", "p1", 2),
        p2=_get(cfg, "simulate", "p2", 2),
        r1=_get(cfg, "simulate", "r1", 0),
        r2=_get(cfg, "simulate", "r2", 0),
        likelihood=_get(cfg, "simulate", "likelihood", "gaussian"),
    )
    seed = _get(cfg, "simulate", "truth_seed", _get(cfg, "sampler", "seed", 0))
    n = _get(cfg, "simulate", "n", 500)
    data, truth = oracle.generate_synthetic(shape, seed=seed, n=n)
    names = ["y"] + list(data.columns)
    cols = [data.y] + [data.columns[k] for k in data.columns]
    resolved = _resolved_flat(cfg)
    write_table_csv(out / "synthetic.csv", names, cols, resolved)
    truth_kv = {"seed": seed, "likelihood": truth.likelihood}
    for label, vec in (
        ("beta1", truth.beta1),
        ("eta1", truth.eta1),
        ("beta2", truth.beta2),
        ("eta2", truth.eta2),
    ):
        for j, v in enumerate(vec):
            truth_kv[f"{label}_{j + 1}"] = format_float(v)
    write_metadata(out / "truth.txt", {"truth": truth_kv, "config": resolved})
    print(f"simulated {n} rows -> {out}")
    return 0


def _apply_overrides(cfg: dict, args: argparse.Namespace) -> None:
    pairs = [
        ("data", "path", "data"),
        ("data", "response", "response"),
        ("output", "dir", "output"),
        ("sampler", "seed", "seed"),
        ("sampler", "chains", "chains"),
        ("sampler", "iterations", "iterations"),
        ("sampler", "burn_in", "burn_in"),
        ("sampler", "thin", "thin"),
        ("cv", "folds", "folds"),
    ]
    for section, key, attr in pairs:
        val = getattr(args, attr, None)
        if val is not None:
            cfg.setdefault(section, {})[key] = val


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hetgibbs",
        description="Heteroskedastic Gaussian/Laplace regression by conjugate Gibbs sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="config file (key = value with [section] headers)")
        p.add_argument("--data", help="override data.path")
        p.add_argument("--response", help="override data.response")
        p.add_argument("--output", help="override output.dir")
        p.add_argument("--seed", type=int, help="override sampler.seed")
        p.add_argument("--chains", type=int, help="override sampler.chains")
        p.add_argument("--iterations", type=int, help="override sampler.iterations")
        p.add_argument("--burn-in", dest="burn_in", type=int, help="override sampler.burn_in")
        p.add_argument("--thin", type=int, help="override sampler.thin")

    p_fit = sub.add_parser("fit", help="fit the model and persist the posterior")
    add_common(p_fit)

    p_cv = sub.add_parser("cv", help="k-fold cross validation")
    add_common(p_cv)
    p_cv.add_argument("--folds", type=int, help="override cv.folds")

    p_val = sub.add_parser("validate", help="run sampler validation suites")
    p_val.add_argument("--suite", default="all", help="mlg, laplace, sbc or all")
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--replicates", type=int, default=150,
                       help="rank-calibration replicates for the sbc suite")
    p_val.add_argument("--output", default="hetgibbs_out")

    p_sim = sub.add_parser("simulate", help="write a synthetic dataset and its truth")
    add_common(p_sim)

    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args.suite, args.seed, args.output, args.replicates)
        cfg = load_config(args.config)
        _apply_overrides(cfg, args)
        if args.command == "fit":
            return cmd_fit(cfg)
        if args.command == "cv":
            return cmd_cv(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, KeyError, ValueError, OSError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
