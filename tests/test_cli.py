import csv
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from rerand.cli import (
    _ALLOCATE_SCHEMA, _DIAGNOSE_SCHEMA, _GRID_KEYS, _SIMULATE_SCHEMA, _grid_from_config,
    _parse_config, build_parser, main,
)
from rerand.simharness import FactorGrid

_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _cov_csv(path, n=20, d=3, seed=0):
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow([f"x{i + 1}" for i in range(d)])
        for row in rng.standard_normal((n, d)):
            out.writerow([f"{v:.10f}" for v in row])
    return str(path)


def _read(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def _help(command, capsys):
    """What `rerand <command> --help` prints; it exits 0."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


class TestAllocate:
    def test_pca_happy_path(self, tmp_path, capsys):
        cov = _cov_csv(tmp_path / "cov.csv")
        out = tmp_path / "run"
        assert main(["allocate", "--input", cov, "--seed", "7", "--out", str(out)]) == 0
        assert "accepted" in capsys.readouterr().out

        alloc = _read(out / "allocation.csv")
        assert alloc[0] == ["unit_index", "assignment"]
        flags = [int(r[1]) for r in alloc[1:]]
        assert len(flags) == 20 and sum(flags) == 10

        diag = _read(out / "diagnostics.csv")
        assert diag[0] == ["covariate", "smd_before", "smd_after"]
        assert len(diag) == 4

        report = json.loads((out / "report.json").read_text())
        assert report["scheme"] == "pca"
        assert report["accepted"] is True
        assert report["seed"] == 7
        assert report["criterion_value"] <= report["threshold"]
        assert report["k"] >= 1
        assert "elapsed_seconds" not in report

    def test_byte_identical_reruns(self, tmp_path):
        cov = _cov_csv(tmp_path / "cov.csv")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["allocate", "--input", cov, "--seed", "11", "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("allocation.csv", "diagnostics.csv", "report.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_timings_flag_adds_elapsed(self, tmp_path):
        cov = _cov_csv(tmp_path / "cov.csv")
        out = tmp_path / "run"
        main(["allocate", "--input", cov, "--seed", "7", "--out", str(out), "--timings"])
        report = json.loads((out / "report.json").read_text())
        assert report["elapsed_seconds"] > 0

    def test_cr_scheme(self, tmp_path):
        cov = _cov_csv(tmp_path / "cov.csv")
        out = tmp_path / "run"
        main(["allocate", "--input", cov, "--scheme", "cr", "--seed", "7", "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert report["criterion_value"] is None
        assert report["draws_attempted"] == 1

    def test_cr_needs_no_spectral_basis(self, tmp_path, capsys):
        # cr skips the SVD, so it allocates an all-constant design, which
        # has no spectral basis; the balance schemes still reject it
        cov = tmp_path / "flat.csv"
        cov.write_text("a,b\n" + "1.5,-2\n" * 20)
        out = tmp_path / "run"
        args = ["allocate", "--input", str(cov), "--seed", "7", "--out", str(out)]
        assert main(args + ["--scheme", "cr"]) == 0
        assert sum(int(r[1]) for r in _read(out / "allocation.csv")[1:]) == 10
        assert _read(out / "diagnostics.csv")[1] == ["a", "0.0", "0.0"]
        capsys.readouterr()
        for scheme in ("rer", "pca", "ridge"):
            assert main(args + ["--scheme", scheme]) == 1
            assert "no spectral basis" in capsys.readouterr().err

    def test_cr_keeps_the_gamma_range_error(self, tmp_path, capsys):
        cov = _cov_csv(tmp_path / "cov.csv")
        for scheme in ("cr", "pca"):
            assert main(["allocate", "--input", cov, "--scheme", scheme, "--gamma", "1.5",
                         "--seed", "7", "--out", str(tmp_path / "run")]) == 1
            assert "gamma must lie strictly inside (0, 1)" in capsys.readouterr().err

    def test_ridge_with_explicit_lambda(self, tmp_path):
        cov = _cov_csv(tmp_path / "cov.csv")
        out = tmp_path / "run"
        main([
            "allocate", "--input", cov, "--scheme", "ridge", "--lambda", "0.5",
            "--seed", "7", "--out", str(out),
        ])
        report = json.loads((out / "report.json").read_text())
        assert report["lambda"] == 0.5
        assert report["accepted"] is True

    def test_zero_lambda_ridge_is_rejected(self, tmp_path, capsys):
        # at rank n-1 it accepted on rounding noise (criterion value equal to
        # its threshold) and reported "degenerate": false; lambda = 0 is rer
        cov = _cov_csv(tmp_path / "wide.csv", n=12, d=11)
        out = tmp_path / "run"
        assert main(["allocate", "--input", cov, "--scheme", "ridge", "--lambda", "0",
                     "--seed", "3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: ridge needs a positive lambda that is not negligible against the spectrum;"
            " at lambda = 0 every ridge weight is 1 and it is the 'rer' scheme\n"
        )
        assert not out.exists()

    def test_negligible_lambda_ridge_is_rejected(self, tmp_path, capsys):
        # every ridge weight rounds to 1.0, so the rule was rer's constant and
        # accepted on rounding noise (threshold and criterion value both
        # 10.999999999999988) with "degenerate": false
        cov = _cov_csv(tmp_path / "wide.csv", n=12, d=11)
        out = tmp_path / "run"
        assert main(["allocate", "--input", cov, "--scheme", "ridge", "--lambda", "1e-300",
                     "--seed", "3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: ridge needs a positive lambda that is not negligible against the spectrum;"
            " at lambda = 1e-300 every ridge weight is 1 and it is the 'rer' scheme\n"
        )
        assert not out.exists()

    def test_degenerate_rule_reports_no_shrinkage(self, tmp_path, capfd):
        # 10 units, 20 covariates: rank n-1, so rer accepts every draw and its
        # chi-square v_a (0.286 here) is not the shrinkage of the allocation
        cov = _cov_csv(tmp_path / "wide.csv", n=10, d=20)
        out = tmp_path / "run"
        assert main(["allocate", "--input", cov, "--scheme", "rer", "--seed", "7",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["degenerate"] is True and report["draws_attempted"] == 1
        assert report["v_ak"] is None
        # an operator message on stderr: no source path, no code line
        assert "degenerates" in report["note"]
        assert capfd.readouterr().err == f"note: {report['note']}\n"

    def test_odd_n_needs_flag(self, tmp_path, capsys):
        cov = _cov_csv(tmp_path / "cov.csv", n=21)
        out = tmp_path / "run"
        assert main(["allocate", "--input", cov, "--seed", "7", "--out", str(out)]) == 1
        assert "near-equal" in capsys.readouterr().err
        with pytest.warns(UserWarning):
            code = main([
                "allocate", "--input", cov, "--seed", "7", "--out", str(out),
                "--near-equal",
            ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["near_equal"] is True

    def test_entropy_seed_is_printed(self, tmp_path, capsys):
        cov = _cov_csv(tmp_path / "cov.csv")
        out = tmp_path / "run"
        assert main(["allocate", "--input", cov, "--out", str(out)]) == 0
        assert "seed:" in capsys.readouterr().out

    def test_errors(self, tmp_path, capsys):
        cov = _cov_csv(tmp_path / "cov.csv")
        out = str(tmp_path / "run")
        assert main(["allocate", "--out", out, "--seed", "1"]) == 1
        assert main(["allocate", "--input", cov, "--scheme", "ridge",
                     "--lambda", "nope", "--out", out, "--seed", "1"]) == 1
        assert main(["allocate", "--input", str(tmp_path / "absent.csv"),
                     "--out", out, "--seed", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_lambda_fails_before_drawing(self, tmp_path, capsys, text):
        cov = _cov_csv(tmp_path / "cov.csv")
        out = tmp_path / "run"
        assert main(["allocate", "--input", cov, "--scheme", "ridge", f"--lambda={text}",
                     "--out", str(out), "--seed", "1"]) == 1
        assert capsys.readouterr().err == "error: lambda must be a finite nonnegative number\n"
        assert not out.exists()

    def test_one_unit_csv_names_the_file(self, tmp_path, capsys):
        cov = _cov_csv(tmp_path / "one.csv", n=1)
        assert main(["allocate", "--input", cov, "--out", str(tmp_path / "run"),
                     "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert f"{cov}: need a header row and at least two units" in err

    def test_undecodable_csv_names_the_file_and_row(self, tmp_path, capsys):
        cov = tmp_path / "bad.csv"
        data = bytearray(Path(_cov_csv(cov, n=2000)).read_bytes())
        data[15000] = 0xFF
        cov.write_bytes(data)
        row = data.count(b"\n", 0, 15000) + 1
        assert main(["allocate", "--input", str(cov), "--out", str(tmp_path / "run"),
                     "--seed", "1"]) == 1
        assert capsys.readouterr().err == (
            f"error: {cov}: row {row}: bytes that do not decode as UTF-8 (offset 15000)\n"
        )

    def test_schema_flag(self, capsys):
        assert "allocation.csv" in _help("allocate", capsys)


def _config(path, extra="", seed="seed = 99\n"):
    path.write_text(
        "# desk-size study\n"
        "n = 16\n"
        "d = 3\n"
        "rho = 0.5\n"
        "schemes = pca\n"
        "replications = 8\n"
        "groups = 2\n" + seed + extra
    )
    return str(path)


class TestSimulate:
    def test_outputs(self, tmp_path, capsys):
        cfg = _config(tmp_path / "study.cfg")
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert "2 records" in capsys.readouterr().out
        for fname in ("metrics.csv", "summary.json", "anova_r_sigma.csv", "anova_r_mse.csv"):
            assert (out / fname).exists()
        assert not (out / "timings.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["master_seed"] == 99
        metrics = _read(out / "metrics.csv")
        assert len(metrics) == 3  # header + cr + pca
        assert all(set(r) == set(metrics[0]) for r in summary["records"])
        cr = next(r for r in summary["records"] if r["scheme"] == "cr")
        assert (cr["mean_draws"], cr["accept_rate"]) == (1.0, 1.0)
        schema = _help("simulate", capsys).split("simulate writes into --out:", 1)[1]
        schema = schema.split("summary.json", 1)[0]
        assert set(metrics[0]) <= set(re.findall(r"\w+", schema))

    def test_degenerate_cell_prints_one_note(self, tmp_path, capfd):
        # every replication of the n = 10, d = 12 cell has rank n-1, so each
        # calibrates a degenerate rer rule with the same message
        cfg = tmp_path / "study.cfg"
        cfg.write_text("n = 10\nd = 12\nrho = 0.5\nschemes = rer\nreplications = 4\n"
                       "groups = 2\nseed = 3\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        err = capfd.readouterr().err
        assert err.startswith("note: distance is the constant n-1 = 9 ")
        assert err.endswith("degenerates to complete randomization\n")
        assert err.count("\n") == 1

    def test_summary_counts_each_run_once(self, tmp_path, capsys):
        # the four degenerate rer runs (rank n-1 = 15, whose constant lies
        # above the threshold) end without an acceptance; both outcome
        # models' records repeat them, and the summary counts them once
        cfg = tmp_path / "study.cfg"
        cfg.write_text("n = 16\nd = 16\nrho = 0.5\nschemes = rer\nsurfaces = linear, exp\n"
                       "replications = 4\ngroups = 2\nseed = 3\n")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert f"4 records, 4 exhausted rejection run(s), outputs in {out}" in printed
        records = json.loads((out / "summary.json").read_text())["records"]
        assert [(r["surface"], r["exhausted"], r["mean_draws"]) for r in records
                if r["scheme"] == "rer"] == [("linear", 4, 1.0), ("exp", 4, 1.0)]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _config(tmp_path / "study.cfg")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("metrics.csv", "summary.json", "anova_r_sigma.csv", "anova_r_mse.csv"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_cli_seed_overrides_config(self, tmp_path):
        cfg = _config(tmp_path / "study.cfg")
        out = tmp_path / "run"
        main(["simulate", "--config", cfg, "--seed", "123", "--out", str(out)])
        assert json.loads((out / "summary.json").read_text())["master_seed"] == 123

    def test_entropy_seed_is_printed_and_used(self, tmp_path, capsys):
        cfg = _config(tmp_path / "study.cfg", seed="")
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        printed = re.search(r"^seed: (\d+) \(drawn from system entropy", capsys.readouterr().out, re.M)
        assert printed is not None
        summary = json.loads((out / "summary.json").read_text())
        assert summary["master_seed"] == int(printed.group(1))

    def test_timings_flag(self, tmp_path):
        cfg = _config(tmp_path / "study.cfg")
        out = tmp_path / "run"
        main(["simulate", "--config", cfg, "--out", str(out), "--timings"])
        assert (out / "timings.csv").exists()

    def test_single_group_skips_anova(self, tmp_path, capsys):
        cfg = _config(tmp_path / "study.cfg", extra="", seed="seed = 5\n")
        cfg_text = (tmp_path / "study.cfg").read_text().replace("groups = 2", "groups = 1")
        (tmp_path / "study.cfg").write_text(cfg_text)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert "skipping ANOVA" in capsys.readouterr().out
        assert not (out / "anova_r_sigma.csv").exists()

    def test_config_errors(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        bad_key = tmp_path / "bad.cfg"
        bad_key.write_text("n = 16\nd = 3\nrho = 0.5\nwidgets = 4\n")
        assert main(["simulate", "--config", str(bad_key), "--out", out]) == 1
        assert "widgets" in capsys.readouterr().err

        missing = tmp_path / "missing.cfg"
        missing.write_text("n = 16\nd = 3\n")
        assert main(["simulate", "--config", str(missing), "--out", out]) == 1

        # the study always nests cells in max(n) x max(d), so there is no
        # master-size key
        master = tmp_path / "master.cfg"
        master.write_text("n = 16, 32\nd = 3\nrho = 0.5\nmaster_n = 24\n")
        assert main(["simulate", "--config", str(master), "--out", out]) == 1
        assert "unknown key 'master_n'" in capsys.readouterr().err

        # a setting the grid or the study rejects names the file, and the line
        # of the one key it is about; a rule over two keys names the file alone
        for extra, where, why in (
            ("tau = nan\n", ":4", "tau must be finite"),
            ("max_draws = 0\n", ":4", "max_draws must be at least 1"),
            ("resid_vars = inf\n", ":4", "residual variances must be finite and nonnegative"),
            ("pa = 1.5\n", ":4", "p_a and gamma must lie strictly inside (0, 1)"),
            ("gamma = 0\n", ":4", "p_a and gamma must lie strictly inside (0, 1)"),
            ("schemes = pca, cr\n", ":4", "unknown schemes: ['cr']"),
            ("schemes = pca, pca\n", ":4",
             "schemes must be nonempty, each level once: ('pca', 'pca')"),
            ("resid_vars = 1.0, 1\n", ":4",
             "resid_vars must be nonempty, each level once: (1.0, 1.0)"),
            ("betas = ones, odd\n", ":4", "unknown beta choices: ['odd']"),
            ("schemes = ridge\nlambda = 0\n", ":5",
             "ridge needs a positive lambda that is not negligible against the spectrum; at "
             "lambda = 0 every ridge weight is 1 and it is the 'rer' scheme"),
            # negligible on every basis, found at the first ridge calibration
            ("schemes = ridge\nlambda = 1e-300\n", ":5",
             "ridge needs a positive lambda that is not negligible against the spectrum; at "
             "lambda = 1e-300 every ridge weight is 1 and it is the 'rer' scheme"),
            ("replications = 7\ngroups = 5\n", ":4", "replications must be divisible by groups"),
            ("groups = 5\nreplications = 7\n", ":5", "replications must be divisible by groups"),
            ("replications = 0\n", ":4", "replications and groups must be positive"),
            ("replications = 4\ngroups = 0\n", ":5", "replications and groups must be positive"),
            ("groups = -1\nreplications = 0\n", ":5", "replications and groups must be positive"),
        ):
            cfg = tmp_path / "grid.cfg"
            cfg.write_text("n = 16\nd = 3\nrho = 0.5\n" + extra)
            assert main(["simulate", "--config", str(cfg), "--out", out]) == 1
            assert capsys.readouterr().err == f"error: {cfg}{where}: {why}\n"
        cfg.write_text("# a comment\n\nn = 16, 15\nd = 3\nrho = 0.5\n")
        assert main(["simulate", "--config", str(cfg), "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:3: n levels must be even and at least 2\n"
        # a repeated level is rejected, not collapsed into phantom cells
        cfg.write_text("n = 20, 20\nd = 3\nrho = 0.5\nschemes = pca, pca\n"
                       "replications = 4\ngroups = 2\n")
        assert main(["simulate", "--config", str(cfg), "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:1: n_levels must be nonempty, each level once: (20, 20)\n"
        )

        cfg.write_text("n = 16\nd = 3\nrho 0.5\n")
        assert main(["simulate", "--config", str(cfg), "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:3: expected 'key = value'\n"

        assert main(["simulate", "--out", out]) == 1

    def test_bad_value_names_the_file_line_and_key(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        for extra, line, key, why in (
            ("pa = 0.o5\n", 9, "pa", "could not convert string to float: '0.o5'"),
            ("lambda = -x\n", 9, "lambda", "lambda must be a number or 'auto', got '-x'"),
            ("lambda = nan\n", 9, "lambda", "lambda must be a finite nonnegative number"),
            ("lambda = inf\n", 9, "lambda", "lambda must be a finite nonnegative number"),
        ):
            cfg = _config(tmp_path / "bad.cfg", extra)
            assert main(["simulate", "--config", cfg, "--out", out]) == 1
            err = capsys.readouterr().err
            assert err == f"error: {cfg}:{line}: bad value for {key!r}: {why}\n"
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n = 100, 10x\nd = 3\nrho = 0.5\n")
        assert main(["simulate", "--config", str(cfg), "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:1: bad value for 'n': invalid literal for int() with base 10: '10x'\n"
        )
        cfg = _config(tmp_path / "seed.cfg", seed="seed = 9.5\n")
        assert main(["simulate", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:8: bad value for 'seed': "
            "invalid literal for int() with base 10: '9.5'\n"
        )
        cfg = _config(tmp_path / "seed.cfg", seed="seed = -4\n")
        assert main(["simulate", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:8: bad value for 'seed': seed must be nonnegative, got -4\n"
        )

    def test_repeated_key_rejected(self, tmp_path, capsys):
        # the last value silently won
        cfg = _config(tmp_path / "twice.cfg", "\n# again\nd = 5\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:11: key 'd' repeats line 3\n"

    def test_schema_flag(self, capsys):
        assert "metrics.csv" in _help("simulate", capsys)

    @pytest.mark.parametrize("flag, value", [("--pa", "0.01"), ("--gamma", "0.5")])
    def test_rule_flags_are_config_keys_only(self, tmp_path, flag, value):
        # simulate reads pa and gamma from its config; the flags were
        # accepted and then ignored
        cfg = _config(tmp_path / "study.cfg")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", cfg, flag, value, "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        assert not (tmp_path / "run").exists()

    def test_declared_options(self):
        commands = build_parser()._subparsers._group_actions[0].choices
        declared = {a.dest for a in commands["simulate"]._actions} - {"help"}
        assert declared == {"config", "seed", "out", "timings"}
        for name in ("allocate", "diagnose"):
            assert {"pa", "gamma"} <= {a.dest for a in commands[name]._actions}


class TestStudyConfig:
    def test_shipped_presets_parse(self):
        desk = _parse_config(_CONFIGS / "desk_study.cfg")
        assert desk["seed"] == "20260826"
        assert _grid_from_config(desk) == FactorGrid(
            n_levels=(100,), d_levels=(10,), rho_levels=(0.1, 0.9),
            schemes=("rer", "pca"), replications=500, groups=5,
            p_a=0.05, gamma=0.95, tau=1.0,
        )
        full = _parse_config(_CONFIGS / "full_factorial.cfg")
        assert full["seed"] == "20260826"
        assert _grid_from_config(full) == FactorGrid(
            n_levels=(100, 200, 500, 1000), d_levels=(10, 50, 90, 180),
            rho_levels=(0.1, 0.5, 0.9), schemes=("rer", "ridge", "pca"),
            surfaces=("linear", "exp"), beta_choices=("ones", "half_doubled"),
            resid_vars=(0.5, 1.0), replications=2000, groups=10,
            p_a=0.05, gamma=0.95, lam=None, tau=1.0,
        )

    def test_schema_lists_exactly_the_accepted_keys(self, tmp_path, capsys):
        text = _help("simulate", capsys)
        keys_text = re.sub(r"\([^)]*\)", "", text.split("Keys:", 1)[1]).rstrip().rstrip(".")
        listed = {key.strip() for key in keys_text.split(",")}
        assert listed == set(_GRID_KEYS) | {"seed"}
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{key} = 1\n" for key in sorted(listed)))
        assert set(_parse_config(cfg)) == listed


class TestDiagnose:
    def test_synthetic_outputs(self, tmp_path):
        out = tmp_path / "run"
        assert main([
            "diagnose", "--n", "40", "--d", "5", "--rho", "0.5",
            "--seed", "3", "--out", str(out),
        ]) == 0
        spectrum = _read(out / "spectrum.csv")
        assert spectrum[0] == ["component_index", "sigma", "explained_cumulative"]
        report = json.loads((out / "report.json").read_text())
        assert report["p"] == 5
        assert len(spectrum) == 1 + report["p"]
        # cumulative share crosses gamma exactly at the reported k
        explained = [float(r[2]) for r in spectrum[1:]]
        k = report["k_selected"]
        assert explained[k - 1] >= 0.95
        if k > 1:
            assert explained[k - 2] < 0.95

    def test_shrinkage_table_values(self, tmp_path):
        out = tmp_path / "run"
        main(["diagnose", "--n", "40", "--d", "5", "--rho", "0.5",
              "--seed", "3", "--out", str(out)])
        rows = _read(out / "shrinkage.csv")
        assert rows[0] == ["k", "a_k", "v_ak", "v_full", "reduction_pct"]
        by_k = {int(r[0]): r for r in rows[1:]}
        # frozen reference values for the k = 2 row at p_a = 0.05
        assert float(by_k[2][1]) == pytest.approx(0.10258658877510106, rel=1e-10)
        assert float(by_k[2][2]) == pytest.approx(0.025427406636539876, rel=1e-9)
        # the full-rank row shrinks by definition to the reference value
        last = by_k[5]
        assert float(last[2]) == pytest.approx(float(last[3]), rel=1e-12)
        assert float(last[4]) == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_full_rank_rule(self, tmp_path, capfd):
        # 10 units and 20 covariates give p = 9 = n-1: the full-rank rule runs
        # as complete randomization, so it shrinks nothing and the reductions
        # are measured against complete randomization
        cov = _cov_csv(tmp_path / "cov.csv", n=10, d=20, seed=6)
        out = tmp_path / "run"
        assert main(["diagnose", "--input", cov, "--out", str(out)]) == 0
        err = capfd.readouterr().err
        assert err.startswith("note: distance is the constant n-1 = 9 ")
        assert err.endswith("degenerates to complete randomization\n")
        assert err.count("\n") == 1
        report = json.loads((out / "report.json").read_text())
        assert report["p"] == 9 and report["v_full"] is None
        rows = _read(out / "shrinkage.csv")[1:]
        assert [int(r[0]) for r in rows] == list(range(1, 10))
        assert all(r[3] == "" for r in rows)
        assert rows[-1][2] == "" and rows[-1][4] == "0.0"
        for r in rows[:-1]:
            assert float(r[4]) == 100.0 * (1.0 - float(r[2]))

    def test_prv_from_input_file(self, tmp_path):
        cov = _cov_csv(tmp_path / "cov.csv", n=30, d=4, seed=5)
        out = tmp_path / "run"
        assert main(["diagnose", "--input", cov, "--out", str(out)]) == 0
        prv = _read(out / "prv.csv")
        assert [r[1] for r in prv[1:]] == ["x1", "x2", "x3", "x4"]
        for row in prv[1:]:
            assert -1e-9 <= float(row[2]) <= 1.0

    @pytest.mark.parametrize("n, message", [
        (1, "need at least two rows to standardize"),
        (0, "covariate matrix must be a nonempty 2-d array"),
    ])
    def test_too_few_units(self, tmp_path, capsys, n, message):
        # the size check runs before any numpy reduction could warn
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["diagnose", "--n", str(n), "--d", "3", "--rho", "0.5",
                         "--seed", "1", "--out", str(tmp_path)]) == 1
        assert not caught
        assert capsys.readouterr().err.endswith(f"error: {message}\n")

    def test_needs_input_or_dims(self, tmp_path, capsys):
        assert main(["diagnose", "--out", str(tmp_path), "--seed", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_input_excludes_the_synthetic_flags(self, tmp_path, capsys):
        # they were accepted and ignored; --seed stays allowed with --input
        cov = _cov_csv(tmp_path / "cov.csv", n=30, d=4, seed=5)
        out = tmp_path / "run"
        for flags in (["--n", "500"], ["--d", "40"], ["--rho", "0.3"],
                      ["--n", "500", "--d", "40", "--rho", "0.3"]):
            assert main(["diagnose", "--input", cov, *flags, "--out", str(out)]) == 1
            assert capsys.readouterr().err == (
                "error: diagnose: --input excludes --n, --d and --rho\n"
            )
        assert not out.exists()
        assert main(["diagnose", "--input", cov, "--seed", "4", "--out", str(out)]) == 0

    def test_schema_flag(self, capsys):
        assert "spectrum.csv" in _help("diagnose", capsys)


class TestUsage:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["allocate", "simulate", "diagnose"])
    def test_help_is_the_one_way_to_the_schema(self, capsys, command):
        schema = {"allocate": _ALLOCATE_SCHEMA, "simulate": _SIMULATE_SCHEMA,
                  "diagnose": _DIAGNOSE_SCHEMA}[command]
        assert _help(command, capsys).endswith("\n\n" + schema)
        with pytest.raises(SystemExit) as exc:
            main([command, "--schema"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --schema" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["allocate", "--input"], ["simulate", "--config"], ["diagnose", "--input"],
    ])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, command):
        # numpy rejected it only at the first draw, after the input was read
        # and calibrated, and without naming the flag; here the input
        # path does not exist, so any work before the check would fail
        missing = str(tmp_path / "missing")
        with pytest.raises(SystemExit) as exc:
            main([*command, missing, "--seed", "-4", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "argument --seed: seed must be nonnegative, got -4" in capsys.readouterr().err
