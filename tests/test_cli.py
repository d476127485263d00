import re

import numpy as np
import pytest

from hetgibbs import cli, oracle
from hetgibbs.cli import ConfigError, cmd_validate, load_config, load_csv, main
from hetgibbs.design import Dataset
from hetgibbs.gibbs import GibbsConfig, run_gibbs
from hetgibbs.oracle import SyntheticShape, generate_synthetic, synthetic_model_spec
from hetgibbs.persist import read_chain_csv, write_chain_csv


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


class TestLoadCsv:
    def test_numeric_and_scientific(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, "y,x", ["1.5,1e3", "2.5,-2"])
        data, report = load_csv(str(p))
        assert report["rows"] == 2
        assert np.allclose(data.columns["x"], [1000.0, -2.0])

    def test_categorical_levels(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, "y,c", ["1,a", "2,b", "3,a"])
        data, _ = load_csv(str(p))
        assert data.columns["c"].dtype.kind == "O"
        assert sorted(set(data.columns["c"])) == ["a", "b"]

    def test_header_only_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, "y,x", [])
        with pytest.raises(ValueError, match="zero data rows"):
            load_csv(str(p))

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, "y,x", ["1,2", "3"])
        with pytest.raises(ValueError, match="ragged"):
            load_csv(str(p))

    def test_empty_cells_become_missing(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, "y,x,c", ["1,,a", "2,3,"])
        data, _ = load_csv(str(p))
        assert np.isnan(data.columns["x"][0])
        assert data.columns["c"][1] is None

    def test_all_empty_row_kept_as_missing(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, "y,x", ["1,2", ",", "", "3,4"])  # the blank line is skipped
        data, report = load_csv(str(p))
        assert report["rows"] == 3
        assert np.isnan(data.columns["y"][1]) and np.isnan(data.columns["x"][1])
        kept, dropped = Dataset(y=data.columns["y"], columns=data.columns).drop_missing(["x"])
        assert dropped == 1 and kept.n == 2

    def test_hash_value_after_header_is_data(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, "c,y", ["a,1", "#2,2", "a,3"])
        data, report = load_csv(str(p))
        assert report["rows"] == 3
        assert list(data.columns["c"]) == ["a", "#2", "a"]

    def test_duplicate_header_rejected(self, tmp_path):
        # a dict of columns would keep only the last 'x' and still report 3
        p = tmp_path / "d.csv"
        write_csv(p, "y,x,x", ["1,2,3", "4,5,6"])
        with pytest.raises(ValueError, match="column 'x' appears more than once"):
            load_csv(str(p))

    def test_header_names_stripped(self, tmp_path):
        # names are stripped as cells are, also before the repeated-name check
        p = tmp_path / "d.csv"
        write_csv(p, "y, x", ["1, 2", "3, 4"])
        data, _ = load_csv(str(p))
        assert sorted(data.columns) == ["x", "y"]
        assert np.array_equal(data.columns["x"], [2.0, 4.0])
        write_csv(p, "x, x", ["1, 2"])
        with pytest.raises(ValueError, match="column 'x' appears more than once"):
            load_csv(str(p))

    def test_ragged_row_names_file_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("# provenance\n# more provenance\ny,x\n1,2\n3\n")
        with pytest.raises(ValueError, match="ragged row at line 5 "):
            load_csv(str(p))


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[sampler]\niterationz = 10\n")
        with pytest.raises(ConfigError, match="iterationz"):
            load_config(str(p))
        # there is one variance sampler, so no key selects it
        p.write_text("[sampler]\nvariance_sampler = exact\n")
        with pytest.raises(ConfigError, match="variance_sampler"):
            load_config(str(p))

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[samplers]\niterations = 10\n")
        with pytest.raises(ConfigError, match="samplers"):
            load_config(str(p))

    def test_type_conversion(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text(
            "[sampler]\niterations = 50\nseed = 3\n"
            "[model]\nalpha = 500\n"
            "[data]\nmean_terms = a, b\n"
            "[esvm]\nenabled = true\n"
        )
        cfg = load_config(str(p))
        assert cfg["sampler"]["iterations"] == 50
        assert cfg["model"]["alpha"] == 500.0
        assert cfg["data"]["mean_terms"] == ["a", "b"]
        assert cfg["esvm"]["enabled"] is True

    @pytest.mark.parametrize("body, named", [("[esvm]\nenabled = maybe\n", "[esvm] enabled: 'maybe'"),
                                             ("[sampler]\nseed = x\n", "[sampler] seed: 'x'")],
                             ids=["boolean", "integer"])
    def test_bad_value_named(self, tmp_path, body, named):
        p = tmp_path / "c.ini"
        p.write_text(body)
        with pytest.raises(ConfigError, match=re.escape(named)):
            load_config(str(p))

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.ini")

    @pytest.mark.parametrize("text, named", [("[sampler]\nseed = 1\nseed = 2\n", "line  3"),
                                             ("seed = 1\n", "line: 1")],
                             ids=["repeated_key", "no_section_header"])
    def test_malformed_file_named(self, tmp_path, capsys, text, named):
        p = tmp_path / "c.ini"
        p.write_text(text)
        with pytest.raises(ConfigError, match=named):
            load_config(str(p))
        assert main(["fit", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "c.ini" in err and named in err


class TestChainRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        shape = SyntheticShape(p1=2, p2=2)
        data, _ = generate_synthetic(shape, seed=0, n=30)
        spec = synthetic_model_spec(data, shape)
        chain = run_gibbs(spec, data, GibbsConfig(iterations=40, burn_in=10, seed=1))[0]
        path = tmp_path / "chain.csv"
        write_chain_csv(path, chain, {"sampler.seed": 1})
        header, names, mat = read_chain_csv(path)
        assert header["sampler.seed"] == "1"
        assert names == chain.param_names()
        assert np.array_equal(mat, chain.to_matrix())


def simulate_then_fit(tmp_path, extra_cfg="", seed=3):
    data_csv = tmp_path / "data.csv"
    rng = np.random.default_rng(9)
    n = 120
    x = rng.normal(size=n)
    group = np.where(rng.uniform(size=n) < 0.5, "a", "b")
    sig = np.where(group == "a", 0.5, 2.0)
    y = 1.0 + 0.5 * x + rng.normal(0, sig)
    with open(data_csv, "w") as fh:
        fh.write("y,x,grp\n")
        for i in range(n):
            fh.write(f"{y[i]},{x[i]},{group[i]}\n")
    cfg = tmp_path / "fit.ini"
    cfg.write_text(
        f"[data]\npath = {data_csv}\nresponse = y\nmean_terms = x, grp\nvar_terms = grp\n"
        f"[sampler]\niterations = 120\nburn_in = 40\nseed = {seed}\n"
        f"[output]\ndir = {tmp_path / 'out'}\n" + extra_cfg
    )
    return cfg


class TestCommands:
    def test_fit_end_to_end(self, tmp_path, capsys, monkeypatch):
        real_run_gibbs = cli.run_gibbs

        def run_with_events(*args, **kwargs):
            chains = real_run_gibbs(*args, **kwargs)
            for k, c in enumerate(chains):  # distinct per-chain events
                c.counters.jitter_repairs += k + 1
                c.counters.exp_clamps += 10 * (k + 1)
            return chains

        monkeypatch.setattr(cli, "run_gibbs", run_with_events)
        cfg = simulate_then_fit(tmp_path)
        assert main(["fit", "--config", str(cfg), "--chains", "2"]) == 0
        out = tmp_path / "out"
        for name in ("chain_0.csv", "chain_1.csv", "summary.csv", "metadata.txt"):
            assert (out / name).exists()
        meta = (out / "metadata.txt").read_text()
        assert "dic" in meta and "waic" in meta and "msev_insample" in meta
        section = meta.split("[counters]\n")[1].split("\n\n")[0]
        counters = dict(line.split(" = ") for line in section.splitlines())
        for name in ("jitter_repairs", "exp_clamps", "scan_draws", "scan_evals", "scan_proposals"):
            per_chain = [int(counters[f"chain_{k}.{name}"]) for k in range(2)]
            assert int(counters[f"total.{name}"]) == sum(per_chain)
        assert int(counters["total.jitter_repairs"]) >= 3
        assert int(counters["total.exp_clamps"]) >= 30
        assert int(counters["total.scan_evals"]) > int(counters["total.scan_draws"]) > 0
        # each draw takes one proposal at least, and each proposal one evaluation
        assert (int(counters["total.scan_evals"]) >= int(counters["total.scan_proposals"])
                >= int(counters["total.scan_draws"]))

    def test_fit_deterministic_chain_files(self, tmp_path):
        cfg = simulate_then_fit(tmp_path)
        assert main(["fit", "--config", str(cfg)]) == 0
        first = (tmp_path / "out" / "chain_0.csv").read_bytes()
        assert main(["fit", "--config", str(cfg)]) == 0
        second = (tmp_path / "out" / "chain_0.csv").read_bytes()
        assert first == second

    def test_fit_misspelled_column_named(self, tmp_path, capsys):
        cfg = simulate_then_fit(tmp_path)
        text = cfg.read_text().replace("mean_terms = x, grp", "mean_terms = xx, grp")
        cfg.write_text(text)
        assert main(["fit", "--config", str(cfg)]) == 1
        assert "xx" in capsys.readouterr().err

    def test_fit_flag_overrides(self, tmp_path):
        cfg = simulate_then_fit(tmp_path)
        assert main(["fit", "--config", str(cfg), "--iterations", "60",
                     "--burn-in", "20", "--seed", "11"]) == 0
        header, _, mat = read_chain_csv(tmp_path / "out" / "chain_0.csv")
        assert header["sampler.seed"] == "11"
        assert mat.shape[0] == 40

    def test_every_flag_sets_its_key(self, tmp_path):
        # each flag's value reaches the provenance lines under its own config key
        cfg = simulate_then_fit(tmp_path)
        lines = (tmp_path / "data.csv").read_text().splitlines()
        (tmp_path / "data2.csv").write_text("\n".join(["resp" + lines[0][1:]] + lines[1:]) + "\n")
        run = {"--data": ("data.path", str(tmp_path / "data2.csv")), "--response": ("data.response", "resp"),
               "--seed": ("sampler.seed", "8"), "--chains": ("sampler.chains", "2"),
               "--iterations": ("sampler.iterations", "50"), "--burn-in": ("sampler.burn_in", "10"),
               "--thin": ("sampler.thin", "2")}
        commands = {"fit": ("chain_1.csv", run),
                    "cv": ("cv_predictions.csv", {**run, "--folds": ("cv.folds", "3")}),
                    "simulate": ("synthetic.csv", {"--seed": ("sampler.seed", "8")})}
        for command, (output, flags) in commands.items():
            flags = {**flags, "--output": ("output.dir", str(tmp_path / command))}
            argv = [command, "--config", str(cfg)] + [a for flag, (_, v) in flags.items() for a in (flag, v)]
            assert main(argv) == 0
            header, _, _ = read_chain_csv(tmp_path / command / output)
            for flag, (key, value) in flags.items():
                assert header[key] == value, flag
        # simulate's truth seed is inherited from sampler.seed
        assert "\nseed = 8\n" in (tmp_path / "simulate" / "truth.txt").read_text()

    @pytest.mark.parametrize("flag", ["--data", "--response", "--chains", "--iterations", "--burn-in", "--thin"])
    def test_simulate_rejects_sampler_flags(self, tmp_path, flag):
        # simulate draws no chain and reads no data, so these flags are not offered
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--output", str(tmp_path), flag, "1"])
        assert exit_info.value.code == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command, body", [
        ("fit", "[data]\npath = absent.csv\nresponse = y\n"),
        ("cv", "[data]\npath = absent.csv\nresponse = y\n"),
        ("simulate", "[simulate]\np1 = 0\n"),
    ], ids=["fit", "cv", "simulate"])
    def test_rejected_run_creates_nothing(self, tmp_path, monkeypatch, capsys, command, body):
        # the default output directory is made only once the inputs are accepted
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.ini").write_text(body)
        assert main([command, "--config", "c.ini"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini"]

    def test_cv_end_to_end(self, tmp_path):
        cfg = simulate_then_fit(tmp_path)
        assert main(["cv", "--config", str(cfg), "--folds", "4",
                     "--iterations", "80", "--burn-in", "20"]) == 0
        pred = (tmp_path / "out" / "cv_predictions.csv").read_text()
        body = [l for l in pred.splitlines() if not l.startswith("#")]
        assert len(body) == 1 + 120
        assert "msev_pooled" in (tmp_path / "out" / "cv_metadata.txt").read_text()

    def test_simulate_writes_data_and_truth(self, tmp_path):
        cfg = tmp_path / "sim.ini"
        cfg.write_text(
            f"[simulate]\nn = 50\np1 = 2\np2 = 2\ntruth_seed = 5\n"
            f"[output]\ndir = {tmp_path / 'sim_out'}\n"
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        out = tmp_path / "sim_out"
        data, report = load_csv(str(out / "synthetic.csv"))
        assert report["rows"] == 50
        truth = (out / "truth.txt").read_text()
        assert "beta2_1" in truth

    def test_esvm_fit(self, tmp_path):
        rng = np.random.default_rng(1)
        T = 80
        y = rng.normal(0, 1.0, size=T)
        data_csv = tmp_path / "ret.csv"
        with open(data_csv, "w") as fh:
            fh.write("ret\n")
            for v in y:
                fh.write(f"{v}\n")
        cfg = tmp_path / "esvm.ini"
        cfg.write_text(
            f"[data]\npath = {data_csv}\nresponse = ret\n"
            f"[esvm]\nenabled = true\nn_h = 8\n"
            f"[sampler]\niterations = 60\nburn_in = 20\nseed = 2\n"
            f"[output]\ndir = {tmp_path / 'esvm_out'}\n"
        )
        assert main(["fit", "--config", str(cfg)]) == 0
        assert (tmp_path / "esvm_out" / "volatility.csv").exists()

    def fit_esvm_with_row3(self, tmp_path, ret3, vix3):
        """Fit an ESVM series whose data row 3 is (ret3, vix3) and row 6 has vix = inf."""
        rng = np.random.default_rng(2)
        T = 30
        ret = rng.normal(size=T).astype(str)
        vix = rng.normal(size=T).astype(str)
        ret[2], vix[2] = ret3, vix3
        vix[5] = "inf"
        data_csv = tmp_path / "ret.csv"
        write_csv(data_csv, "ret,vix", [f"{r},{v}" for r, v in zip(ret, vix)])
        cfg = tmp_path / "esvm.ini"
        cfg.write_text(
            f"[data]\npath = {data_csv}\nresponse = ret\n"
            f"[esvm]\nenabled = true\nn_h = 4\nextra_columns = vix\n"
            f"[sampler]\niterations = 20\nburn_in = 5\n"
            f"[output]\ndir = {tmp_path / 'esvm_out'}\n"
        )
        return main(["fit", "--config", str(cfg)])

    def test_esvm_nonfinite_extra_column_named(self, tmp_path, capsys):
        # a dropped return hides its missing input
        assert self.fit_esvm_with_row3(tmp_path, "", "nan") == 1
        assert "'vix' is not finite in data row 6" in capsys.readouterr().err

    def test_esvm_all_empty_row_keeps_row_numbers(self, tmp_path, capsys):
        # the row is "," and still counts as data row 3
        assert self.fit_esvm_with_row3(tmp_path, "", "") == 1
        assert "'vix' is not finite in data row 6" in capsys.readouterr().err

    @pytest.mark.parametrize("line, named", [("trunc_lower = 3", "[esvm] c"),
                                             ("likelihood = laplace", "likelihood")])
    def test_esvm_ignored_model_key_rejected(self, tmp_path, capsys, line, named):
        cfg = tmp_path / "esvm.ini"
        cfg.write_text(f"[data]\npath = {tmp_path / 'absent.csv'}\nresponse = ret\n"
                       f"[esvm]\nenabled = true\n[model]\n{line}\n")
        assert main(["fit", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert line.split()[0] in err and named in err

    @pytest.mark.parametrize("body, named", [("[esvm]\nenabled = true\nc = -2\n", "[esvm] c"),
                                             ("[model]\ntrunc_lower = -2\n", "trunc_lower")],
                             ids=["esvm_c", "model_trunc_lower"])
    def test_negative_truncation_rejected(self, tmp_path, capsys, body, named):
        # below 0 the truncated scale draw returns sigma_eta2 <= 0; the key is
        # named before the (absent) data file is read
        cfg = tmp_path / "fit.ini"
        cfg.write_text(f"[data]\npath = {tmp_path / 'absent.csv'}\nresponse = ret\n{body}")
        assert main(["fit", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert named in err and ">= 0" in err

    @pytest.mark.parametrize("section, line", [("data", "mean_terms = nosuchcol"),
                                               ("model", "var_basis_resolutions = 3")])
    def test_esvm_design_key_rejected(self, tmp_path, capsys, section, line):
        # the reservoir makes the design, so a design key would be ignored;
        # it is named before the (absent) data file is read
        cfg = tmp_path / "esvm.ini"
        body = {"data": f"path = {tmp_path / 'absent.csv'}\nresponse = ret\n", "model": ""}
        body[section] += f"{line}\n"
        cfg.write_text(f"[data]\n{body['data']}[esvm]\nenabled = true\n[model]\n{body['model']}")
        assert main(["fit", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"[{section}] {line.split()[0]}" in err and "ESVM" in err

    @pytest.mark.parametrize("side", ["mean", "var"])
    def test_missing_coordinate_row_dropped(self, tmp_path, side):
        # an empty lon used to leave every bisquare column zero
        rng = np.random.default_rng(4)
        n = 60
        lon, lat, y = rng.uniform(size=n).astype(str), rng.uniform(size=n), rng.normal(size=n)
        lon[7] = ""
        data_csv = tmp_path / "sp.csv"
        write_csv(data_csv, "y,lon,lat", [f"{a},{b},{c}" for a, b, c in zip(y, lon, lat)])
        cfg = load_config(None)
        cfg["data"].update(path=str(data_csv), response="y", coords=["lon", "lat"])
        cfg["model"][f"{side}_basis_resolutions"] = [2]
        spec, data, _, report, rows = cli._build_from_config(cfg)
        psi = spec.Psi1 if side == "mean" else spec.Psi2
        assert report["dropped_rows"] == 1 and data.n == n - 1 and 8 not in rows
        assert psi.shape == (n - 1, 4) and np.count_nonzero(psi.sum(axis=1)) == n - 1

    def test_time_index_outside_esvm_rejected(self, tmp_path, capsys):
        cfg = simulate_then_fit(tmp_path)
        cfg.write_text(cfg.read_text().replace("var_terms = grp", "var_terms = grp\ntime_index = x"))
        assert main(["fit", "--config", str(cfg)]) == 1
        assert "time_index" in capsys.readouterr().err

    def test_volatility_rows_are_data_rows(self, tmp_path):
        # a shuffled time index and a missing return: t names the data row of
        # each modeled return, in time order, after the first kept return
        rng = np.random.default_rng(5)
        T = 24
        day = rng.permutation(T)
        ret = rng.normal(size=T).astype(str)
        ret[day == 3] = ""
        data_csv = tmp_path / "ret.csv"
        write_csv(data_csv, "day,ret", [f"{d},{r}" for d, r in zip(day, ret)])
        cfg = tmp_path / "esvm.ini"
        cfg.write_text(
            f"[data]\npath = {data_csv}\nresponse = ret\ntime_index = day\n"
            f"[esvm]\nenabled = true\nn_h = 4\n"
            f"[sampler]\niterations = 20\nburn_in = 5\n"
            f"[output]\ndir = {tmp_path / 'esvm_out'}\n"
        )
        assert main(["fit", "--config", str(cfg)]) == 0
        _, names, table = read_chain_csv(tmp_path / "esvm_out" / "volatility.csv")
        rows_in_time_order = 1 + np.argsort(day)
        expect = [r for r in rows_in_time_order if day[r - 1] != 3][1:]
        assert names[0] == "t" and table[:, 0].tolist() == expect

    def test_cv_rows_are_data_rows(self, tmp_path):
        # data row 3 has no x and is dropped: each prediction's row label
        # names the input row whose y it carries
        rng = np.random.default_rng(6)
        n = 20
        y = rng.normal(size=n)
        x = rng.normal(size=n).astype(str)
        x[2] = ""
        data_csv = tmp_path / "d.csv"
        write_csv(data_csv, "y,x", [f"{a:.17g},{b}" for a, b in zip(y, x)])
        cfg = tmp_path / "cv.ini"
        cfg.write_text(
            f"[data]\npath = {data_csv}\nresponse = y\nmean_terms = x\n"
            f"[sampler]\niterations = 30\nburn_in = 10\n"
            f"[cv]\nfolds = 2\n"
            f"[output]\ndir = {tmp_path / 'cv_out'}\n"
        )
        assert main(["cv", "--config", str(cfg)]) == 0
        _, names, table = read_chain_csv(tmp_path / "cv_out" / "cv_predictions.csv")
        assert names[:3] == ["row", "fold", "y"]
        assert table[:, 0].tolist() == [r for r in range(1, n + 1) if r != 3]
        assert np.array_equal(table[:, 2], y[table[:, 0].astype(int) - 1])

    def test_validate_laplace_suite(self, tmp_path, capsys):
        rc = cmd_validate("laplace", seed=0, out_dir=str(tmp_path / "val"))
        assert rc == 0
        report = (tmp_path / "val" / "validation_report.txt").read_text()
        assert "scale_mixture_ks" in report
        assert "pass" in report

    def test_validate_unknown_suite(self, capsys, tmp_path):
        assert cmd_validate("nope", seed=0, out_dir=str(tmp_path)) == 2

    def test_validate_exit_code_and_report(self, tmp_path, monkeypatch):
        calls = {}

        def stub(name, ok=True):
            def check(*args):  # (seed,) or (seed, replicates)
                calls[name] = args
                return [(name, ok, "stub")]
            return check

        for name in ("check_mlg_law", "check_gaussian_limit", "check_projection_tv",
                     "check_laplace_augmentation", "check_rank_calibration"):
            monkeypatch.setattr(oracle, name, stub(name))
        assert main(["validate", "--seed", "5", "--output", str(tmp_path)]) == 0
        assert len(calls) == 5 and calls["check_mlg_law"] == (5,)
        monkeypatch.setattr(oracle, "check_rank_calibration", stub("check_rank_calibration", ok=False))
        assert main(["validate", "--suite", "sbc", "--seed", "7", "--replicates", "123",
                     "--output", str(tmp_path)]) == 1
        assert calls["check_rank_calibration"] == (7, 123)
        report = (tmp_path / "validation_report.txt").read_text()
        assert "[criterion_04]\ncheck_rank_calibration = FAIL (stub)" in report
        assert "criterion_01" not in report
