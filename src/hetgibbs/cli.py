"""Command-line interface: fit, cv, validate, simulate.

Configuration lives in a flat key-value file with section headers (INI
syntax); every key is schema-checked and unknown keys are errors, so typos
fail loudly.  The ``[sampler]`` keys and the prior keys of ``[model]`` are the
fields of ``GibbsConfig`` and ``Hyperparams``.  Each command-line flag is
declared with the config key it overrides.  The HETGIBBS_THREADS environment
variable caps concurrent chains, folds and replicates.
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
from .esn import DEFAULT_TRUNC, EsvmSpec, build_reservoir, esvm_inputs, esvm_to_spec
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


_OUTPUT_DIR = "hetgibbs_out"  # [output] dir, and validate's --output, when unset


class ConfigError(ValueError):
    """Configuration file or flag problem."""


def _parse_bool(v: str) -> bool:
    low = v.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean")


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
        # the prior constants; each dataclass field is typed by its default
        **{f.name: type(f.default) for f in fields(Hyperparams)},
    },
    "sampler": {f.name: type(f.default) for f in fields(GibbsConfig)},
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
    try:
        read = parser.read(path)
    except configparser.Error as exc:  # a repeated key or section, a line outside any section
        raise ConfigError(str(exc)) from exc
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
            except Exception as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {raw!r} ({exc})")
    return cfg


def _given(kv: dict, **params: str) -> dict:
    """Keyword arguments ``{param: kv[key]}`` for each ``param=key`` set in ``kv``.

    A key left unset falls to the default of the function it is passed to.
    """
    return {param: kv[key] for param, key in params.items() if key in kv}


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
    data_cfg, model_cfg, esvm_cfg = cfg["data"], cfg["model"], cfg["esvm"]
    if "path" not in data_cfg or "response" not in data_cfg:
        raise ConfigError("data.path and data.response are required")
    esvm = esvm_cfg.get("enabled", False)
    t_name = data_cfg.get("time_index")
    if t_name is not None and not esvm:
        raise ConfigError("[data] time_index applies only to ESVM fits ([esvm] enabled = true)")
    if esvm and "trunc_lower" in model_cfg:
        raise ConfigError("[model] trunc_lower does not apply to ESVM fits; set [esvm] c instead")
    if esvm and model_cfg.get("likelihood", "gaussian") != "gaussian":
        raise ConfigError("[model] likelihood must be gaussian for ESVM fits (the reduction is Gaussian)")
    for section, key in (("data", "mean_terms"), ("data", "var_terms"), ("data", "coords"),
                         ("model", "mean_basis_resolutions"), ("model", "var_basis_resolutions")):
        if esvm and key in cfg[section]:
            raise ConfigError(f"[{section}] {key} does not apply to ESVM fits "
                              "(the mean is one intercept, the variance design the reservoir)")
    config = GibbsConfig(**cfg["sampler"])
    hyper_keys = {f.name for f in fields(Hyperparams)}
    hyper = Hyperparams(**{k: v for k, v in model_cfg.items() if k in hyper_keys})
    if esvm:
        try:
            hyper = replace(hyper, trunc_lower=esvm_cfg.get("c", DEFAULT_TRUNC))
        except ValueError as exc:
            raise ConfigError(f"[esvm] c: {exc}") from exc
    dataset, report = load_csv(data_cfg["path"])
    dataset = _extract_response(dataset, data_cfg["response"])
    file_row = np.arange(1, dataset.n + 1)  # 1-based data rows of the input file
    if t_name is not None:
        if t_name not in dataset.columns:
            raise KeyError(f"unknown time_index column {t_name!r}")
        order = np.argsort(dataset.columns[t_name], kind="stable")
        dataset, file_row = dataset.subset(order), file_row[order]
    mean_terms = data_cfg.get("mean_terms", [])
    var_terms = data_cfg.get("var_terms", [])
    coord_names = data_cfg.get("coords", [])
    if coord_names:
        dataset = _attach_coords(dataset, coord_names)
    # an ESVM fit references no column: it drops rows with a missing return only
    referenced = list(dict.fromkeys(mean_terms + var_terms + coord_names))
    file_row = file_row[dataset.complete_cases(referenced)]
    dataset, report["dropped_rows"] = dataset.drop_missing(referenced)

    if esvm:
        cols = []
        for name in esvm_cfg.get("extra_columns", []):
            if name not in dataset.columns:
                raise KeyError(f"unknown column {name!r}")
            col = dataset.columns[name]
            if col.dtype.kind != "f":
                raise ValueError(f"extra input column {name!r} is not numeric")
            bad = ~np.isfinite(col)
            if bad.any():
                raise ValueError(
                    f"extra input column {name!r} is not finite in data row {int(file_row[bad].min())}"
                )
            cols.append(col)
        inputs = esvm_inputs(dataset.y, extra=np.column_stack(cols) if cols else None,
                             **_given(esvm_cfg, include_lag="lag_feature"))
        reservoir = build_reservoir(
            n_h=esvm_cfg.get("n_h", 50),
            p=inputs.shape[1],
            seed=esvm_cfg.get("reservoir_seed", config.seed),
            **_given(esvm_cfg, weight_sd="weight_sd", delta="delta"),
        )
        es = EsvmSpec(
            reservoir=reservoir,
            inputs=inputs,
            mean_prior_var=esvm_cfg.get("mean_prior_var", hyper.sigma2_beta1),
            hyper=hyper,
        )
        spec, gdata = esvm_to_spec(es, dataset.y)
        # the first kept return enters only as the lag of the second
        return spec, gdata, config, report, file_row[1:]

    basis_mean = model_cfg.get("mean_basis_resolutions")
    basis_var = model_cfg.get("var_basis_resolutions")
    spec = build_design(
        dataset,
        mean_terms,
        var_terms,
        basis_mean=BasisConfig(basis_mean) if basis_mean else None,
        basis_var=BasisConfig(basis_var) if basis_var else None,
        hyper=hyper,
        **_given(model_cfg, likelihood="likelihood"),
    )
    return spec, dataset, config, report, file_row


def _out_dir(cfg: dict) -> Path:
    """Create the output directory; called once a command's inputs are accepted."""
    out = Path(cfg["output"].get("dir", _OUTPUT_DIR))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_fit(cfg: dict) -> int:
    """Fit the model, write chains, summary, metrics and metadata."""
    spec, data, config, report, rows = _build_from_config(cfg)
    out = _out_dir(cfg)
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
    if cfg["esvm"].get("enabled", False):
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
    spec, data, config, report, rows = _build_from_config(cfg)
    cv_seed = cfg["cv"].get("cv_seed", config.seed)
    scheme = CvScheme.make(data.n, seed=cv_seed, **_given(cfg["cv"], folds="folds"))
    out = _out_dir(cfg)
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


def cmd_validate(suite: str = "all", seed: int = 0, out_dir: str = _OUTPUT_DIR, replicates: int = 150) -> int:
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

    sim_cfg = cfg["simulate"]
    shape_keys = {f.name for f in fields(oracle.SyntheticShape)}
    # two variance columns, where SyntheticShape has one
    shape = oracle.SyntheticShape(**{"p2": 2, **{k: v for k, v in sim_cfg.items() if k in shape_keys}})
    seed = sim_cfg.get("truth_seed", cfg["sampler"].get("seed", GibbsConfig.seed))
    n = sim_cfg.get("n", 500)
    data, truth = oracle.generate_synthetic(shape, seed=seed, n=n)
    out = _out_dir(cfg)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hetgibbs",
        description="Heteroskedastic Gaussian/Laplace regression by conjugate Gibbs sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, summary, *flags):
        """A config-driven subcommand: ``--config`` and one flag per overridden config key."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="config file (key = value with [section] headers)")
        for flag, dest in flags:
            section, key = dest.split(".")
            p.add_argument(flag, dest=dest, type=_SCHEMA[section][key], metavar=key.upper(),
                           help=f"override {dest}")

    run_flags = (("--data", "data.path"), ("--response", "data.response"), ("--output", "output.dir"),
                 ("--seed", "sampler.seed"), ("--chains", "sampler.chains"),
                 ("--iterations", "sampler.iterations"), ("--burn-in", "sampler.burn_in"),
                 ("--thin", "sampler.thin"))
    add_command("fit", "fit the model and persist the posterior", *run_flags)
    add_command("cv", "k-fold cross validation", *run_flags, ("--folds", "cv.folds"))

    # unset flags stay out of the namespace, so cmd_validate's defaults apply
    p_val = sub.add_parser("validate", help="run sampler validation suites", argument_default=argparse.SUPPRESS)
    p_val.add_argument("--suite", help="mlg, laplace, sbc or all")
    p_val.add_argument("--seed", type=int)
    p_val.add_argument("--replicates", type=int, help="rank-calibration replicates for the sbc suite")
    p_val.add_argument("--output", dest="out_dir", metavar="DIR")

    add_command("simulate", "write a synthetic dataset and its truth",
                ("--output", "output.dir"), ("--seed", "sampler.seed"))

    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(**{k: v for k, v in vars(args).items() if k != "command"})
        cfg = load_config(args.config)
        for dest, value in vars(args).items():  # flags override the file
            section, _, key = dest.partition(".")
            if key and value is not None:
                cfg[section][key] = value
        return {"fit": cmd_fit, "cv": cmd_cv, "simulate": cmd_simulate}[args.command](cfg)
    except (KeyError, ValueError, OSError) as exc:  # ConfigError is a ValueError
        msg = exc.args[0] if exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
