"""Command-line interface: subcommands, exit codes, and report stability."""

import argparse
import ast
import dataclasses
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import causalkit
from causalkit import McConfig, ObsDgpConfig, cli, cross_fit, eif_engine, nuisance
from causalkit.cli import _jsonable, emit_report, main, parse_args
from causalkit.errors import ConfigError
from causalkit.methods import CROSSFIT_KEYS, METHODS
from causalkit.montecarlo import MC_METHODS
from causalkit.rng import stream

REPORT_KEYS = ["method", "psi_hat", "se", "ci_low", "ci_high", "n", "diagnostics", "config", "version"]


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def obs_csv(tmp_path):
    path = tmp_path / "obs.csv"
    code = run_cli(
        "simulate", "--dgp", "obs", "--n", "300", "--d", "2",
        "--confounding", "0.8", "--tau", "2.0", "--seed", "11",
        "--out", str(path),
    )
    assert code == 0
    return str(path)


@pytest.fixture()
def panel_csv(tmp_path):
    path = tmp_path / "panel.csv"
    code = run_cli(
        "simulate", "--dgp", "panel", "--n-units", "30", "--n-periods", "3",
        "--group-effect", "1.0", "--time-trend", "0.5", "--effect", "2.0",
        "--seed", "5", "--out", str(path),
    )
    assert code == 0
    return str(path)


@pytest.fixture()
def iv_csv(tmp_path):
    path = tmp_path / "iv.csv"
    code = run_cli(
        "simulate", "--dgp", "iv", "--n", "800", "--p-complier", "0.6",
        "--p-always", "0.2", "--p-never", "0.2", "--complier-effect", "1.5",
        "--seed", "9", "--out", str(path),
    )
    assert code == 0
    return str(path)


class TestSimulate:
    def test_summary_on_stdout(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        truth = tmp_path / "t.csv"
        code = run_cli(
            "simulate", "--dgp", "obs", "--n", "50", "--seed", "3",
            "--out", str(out), "--truth-out", str(truth),
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["rows"] == 50
        assert summary["seed"] == 3
        assert out.exists()
        assert truth.read_text().splitlines()[0] == "y1,y0,pi"

    def test_missing_out_is_usage_error(self, capsys):
        assert run_cli("simulate", "--dgp", "obs") == 1
        assert "--out" in capsys.readouterr().err

    def test_bad_tau_x_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert run_cli("simulate", "--dgp", "obs", "--d", "2", "--tau-x", "abc", "--out", str(out)) == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == "causalkit simulate: error: argument --tau-x: expected comma-separated numbers, got 'abc'"
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (("--dgp", "obs", "--n", "5", "--jump", "3"), "--jump"),
        (("--dgp", "panel", "--n", "5"), "--n"),
        (("--dgp", "iv", "--n-units", "5"), "--n-units"),
        (("--dgp", "rd", "--allow-defiers"), "--allow-defiers"),
    ])
    def test_flag_the_dgp_does_not_read_is_usage_error(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "d.csv"
        assert run_cli("simulate", *argv, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"causalkit: error: {flag} is not read by {argv[0]} {argv[1]}\n"
        assert not out.exists()

    def test_sizes_default_when_unset(self, tmp_path, capsys):
        for dgp, key, default in (("obs", "n", 100), ("panel", "n_units", 20)):
            assert run_cli("simulate", "--dgp", dgp, "--out", str(tmp_path / "d.csv")) == 0
            assert json.loads(capsys.readouterr().out)["config"][key] == default

    def test_rd_simulation(self, tmp_path):
        out = tmp_path / "rd.csv"
        code = run_cli(
            "simulate", "--dgp", "rd", "--n", "200", "--jump", "1.5", "--seed", "2",
            "--out", str(out),
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == "x,a,y"

    def test_iv_truth_sidecar_has_types(self, tmp_path):
        out = tmp_path / "iv.csv"
        truth = tmp_path / "ivt.csv"
        code = run_cli(
            "simulate", "--dgp", "iv", "--n", "40", "--seed", "1",
            "--out", str(out), "--truth-out", str(truth),
        )
        assert code == 0
        assert truth.read_text().splitlines()[0] == "y1,y0,type"


class TestEstimate:
    def test_report_key_order_and_content(self, obs_csv, capsys):
        code = run_cli(
            "estimate", "--method", "aipw", "--input", obs_csv,
            "--covariates", "x1,x2", "--seed", "3",
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report.keys()) == REPORT_KEYS
        assert report["method"] == "aipw"
        assert report["n"] == 300
        assert report["ci_low"] < report["psi_hat"] < report["ci_high"]
        assert report["config"]["crossfit.k"] == 5
        assert report["diagnostics"]["k"] == 5

    def test_all_cross_sectional_methods(self, obs_csv, capsys):
        for method in ("naive", "ipw", "gformula", "psm", "aipw"):
            code = run_cli(
                "estimate", "--method", method, "--input", obs_csv,
                "--covariates", "x1,x2",
            )
            assert code == 0, method
            report = json.loads(capsys.readouterr().out)
            assert list(report.keys()) == REPORT_KEYS
            if method != "naive":
                assert report["diagnostics"]["irls_converged"] is True
                assert len(report["diagnostics"]["irls_iterations"]) == 5
            if method == "psm":
                diag = report["diagnostics"]
                assert 0.0 <= diag["mean_match_distance"] <= diag["max_match_distance"]

    def test_reports_irls_non_convergence(self, obs_csv, capsys, monkeypatch):
        monkeypatch.setattr(nuisance, "_MAX_ITER", 1)
        code = run_cli(
            "estimate", "--method", "aipw", "--input", obs_csv,
            "--covariates", "x1,x2", "--k", "3",
        )
        assert code == 0
        diag = json.loads(capsys.readouterr().out)["diagnostics"]
        assert diag["irls_converged"] is False
        assert diag["irls_iterations"] == [1, 1, 1]

    def test_quasi_methods(self, panel_csv, iv_csv, capsys):
        assert run_cli("estimate", "--method", "did", "--input", panel_csv) == 0
        did_report = json.loads(capsys.readouterr().out)
        assert list(did_report.keys()) == REPORT_KEYS
        assert len(did_report["diagnostics"]["cell_means"]) == 4

        assert run_cli("estimate", "--method", "fe", "--input", panel_csv) == 0
        fe_report = json.loads(capsys.readouterr().out)
        assert fe_report["diagnostics"]["n_units"] == 30

        assert run_cli("estimate", "--method", "iv", "--input", iv_csv) == 0
        iv_report = json.loads(capsys.readouterr().out)
        assert iv_report["diagnostics"]["weak_flag"] is False
        assert iv_report["psi_hat"] == pytest.approx(1.5, abs=0.5)

        assert run_cli("estimate", "--method", "tsls", "--input", iv_csv) == 0
        tsls_report = json.loads(capsys.readouterr().out)
        assert tsls_report["psi_hat"] == pytest.approx(iv_report["psi_hat"], abs=1e-9)

    def test_rd_requires_cutoff(self, tmp_path, capsys):
        rd = tmp_path / "rd.csv"
        run_cli("simulate", "--dgp", "rd", "--n", "100", "--jump", "1.0", "--out", str(rd))
        capsys.readouterr()
        assert run_cli("estimate", "--method", "rd", "--input", str(rd)) == 1
        assert "--cutoff" in capsys.readouterr().err
        assert run_cli(
            "estimate", "--method", "rd", "--input", str(rd), "--cutoff", "0",
        ) == 0

    def test_rd_reads_only_running_and_outcome(self, tmp_path, capsys):
        """A file with only x and y gives the report of the full simulated file."""
        rd = tmp_path / "rd.csv"
        run_cli("simulate", "--dgp", "rd", "--n", "200", "--jump", "1.0", "--seed", "4", "--out", str(rd))
        xy = tmp_path / "xy.csv"
        xy.write_text(
            "".join(f"{x},{y}\n" for x, _, y in (line.split(",") for line in rd.read_text().splitlines()))
        )
        assert xy.read_text().splitlines()[0] == "x,y"
        capsys.readouterr()
        reports = []
        for path in (rd, xy):
            assert run_cli("estimate", "--method", "rd", "--input", str(path), "--cutoff", "0") == 0
            report = json.loads(capsys.readouterr().out)
            del report["config"]["input"]
            reports.append(report)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_treatment_is_validation_error(self, tmp_path, capsys, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"a,y\n1,1.0\n{cell},2.0\n0,0.5\n")
        assert run_cli("estimate", "--method", "naive", "--input", str(path)) == 2
        assert capsys.readouterr().err == (
            f"error: ValidationError: row 2, column 'a': treatment must be 0 or 1, found {cell}\n"
        )

    def test_config_file_and_flag_precedence(self, obs_csv, tmp_path, capsys):
        conf = tmp_path / "est.conf"
        conf.write_text(
            "# settings\n"
            "method = aipw\n"
            f"input = {obs_csv}\n"
            "covariates = x1,x2\n"
            "crossfit.k = 4\n"
            "crossfit.clip = 0.02,0.98\n"
            "propensity.lambda = 1e-5\n"
            "seed = 42\n"
        )
        assert run_cli("estimate", "--config", str(conf)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["crossfit.k"] == 4
        assert report["config"]["crossfit.clip"] == [0.02, 0.98]
        assert report["config"]["seed"] == 42

        assert run_cli("estimate", "--config", str(conf), "--k", "3") == 0
        override = json.loads(capsys.readouterr().out)
        assert override["config"]["crossfit.k"] == 3

    def test_unknown_config_key_is_input_error(self, obs_csv, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("method = aipw\ncrossfit.kk = 3\n")
        assert run_cli("estimate", "--config", str(conf), "--input", obs_csv) == 2
        assert "crossfit.kk" in capsys.readouterr().err

    def test_malformed_config_line_is_input_error(self, obs_csv, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("method aipw\n")
        assert run_cli("estimate", "--config", str(conf), "--input", obs_csv) == 2

    def test_missing_method_is_usage_error(self, obs_csv, capsys):
        assert run_cli("estimate", "--input", obs_csv) == 1
        assert "--method" in capsys.readouterr().err

    @pytest.mark.parametrize("method, flags", [
        ("naive", ("--placebo",)),
        ("did", ("--covariates", "x1")),
        ("rd", ("--cutoff", "0", "--with-replacement")),
        ("aipw", ("--covariates", "x1,x2", "--bandwidth", "0.5")),
    ])
    def test_flag_the_method_does_not_read_is_usage_error(self, obs_csv, capsys, method, flags):
        assert run_cli("estimate", "--method", method, "--input", obs_csv, *flags) == 1
        unread = [f for f in flags if f.startswith("--")][-1]
        assert capsys.readouterr().err == f"causalkit: error: {unread} is not read by --method {method}\n"

    def test_config_file_keys_of_other_methods_are_accepted(self, obs_csv, tmp_path, capsys):
        conf = tmp_path / "run.cfg"
        conf.write_text("placebo = true\nbandwidth = 0.5\n")
        assert run_cli("estimate", "--method", "naive", "--input", obs_csv, "--config", str(conf)) == 0

    def test_missing_input_file_is_input_error(self, capsys):
        assert run_cli("estimate", "--method", "naive", "--input", "/nonexistent.csv") == 2

    @pytest.mark.parametrize("content", [b"a,y\n1,1.0\n0,caf\xe9\n", b"a,y\xe9\n1,1.0\n0,2.0\n"])
    def test_non_utf8_file_is_schema_error(self, tmp_path, capsys, content):
        path = tmp_path / "latin1.csv"
        path.write_bytes(content)
        assert run_cli("estimate", "--method", "naive", "--input", str(path)) == 2
        assert capsys.readouterr().err == f"error: SchemaError: {path}: not UTF-8 text (byte 0xe9)\n"

    # a cell past csv's field limit (131072 characters): in the header, and in a
    # row of a file that takes the row scan (the 1_0 cell sends it there)
    @pytest.mark.parametrize("content", ["a,y," + "x" * 140000 + "\n1,2,3\n0,1,2\n",
                                         "a,y\n1," + "1" * 140000 + "\n0,1_0\n"],
                             ids=["header", "row_scan"])
    def test_oversized_cell_is_schema_error(self, tmp_path, capsys, content):
        path = tmp_path / "huge.csv"
        path.write_text(content)
        assert run_cli("estimate", "--method", "naive", "--input", str(path)) == 2
        assert capsys.readouterr().err == (
            f"error: SchemaError: {path}: not readable as CSV: field larger than field limit (131072)\n"
        )

    def test_estimation_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "onearm.csv"
        path.write_text("a,y\n1,3.0\n1,4.0\n")
        assert run_cli("estimate", "--method", "naive", "--input", str(path)) == 3

    def test_byte_identical_reports(self, obs_csv, tmp_path):
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        for out in (r1, r2):
            code = run_cli(
                "estimate", "--method", "aipw", "--input", obs_csv,
                "--covariates", "x1,x2", "--seed", "3", "--out", str(out),
            )
            assert code == 0
        assert r1.read_bytes() == r2.read_bytes()


class TestConfigValues:
    """How config-file text becomes each key's value, and the text it rejects."""

    @staticmethod
    def run_with_config(tmp_path, text, *argv):
        conf = tmp_path / "run.cfg"
        conf.write_text(text)
        return run_cli(*argv, "--config", str(conf))

    @pytest.mark.parametrize("method, text, key, value", [
        ("psm", "with_replacement = yes\n", "with_replacement", True),
        ("psm", "with_replacement = 0\n", "with_replacement", False),
        ("did", "placebo = off\n", "placebo", False),
        ("did", "placebo = On\n", "placebo", True),
    ])
    def test_booleans_from_the_file(self, obs_csv, panel_csv, tmp_path, capsys, method, text, key, value):
        data = obs_csv if method == "psm" else panel_csv
        assert self.run_with_config(tmp_path, text, "estimate", "--method", method, "--input", data) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"][key] is value
        if method == "did":
            assert report["diagnostics"]["placebo"] is value

    @pytest.mark.parametrize("method, text, message", [
        ("did", "placebo = maybe\n", "config key 'placebo' must be a boolean, got 'maybe'"),
        ("aipw", "crossfit.k = 2.5\n", "config key 'crossfit.k' must be an integer, got '2.5'"),
        ("naive", "level = high\n", "config key 'level' must be a number, got 'high'"),
        ("aipw", "crossfit.clip = 0.1\n", "config key 'crossfit.clip' must be 'lo,hi', got '0.1'"),
        ("aipw", "crossfit.clip = 0.1,0.5,0.9\n", "config key 'crossfit.clip' must be 'lo,hi', got '0.1,0.5,0.9'"),
        ("aipw", "crossfit.clip = 0.1,abc\n", "config key 'crossfit.clip' must be 'lo,hi', got '0.1,abc'"),
    ])
    def test_bad_values_are_input_errors(self, obs_csv, tmp_path, capsys, method, text, message):
        assert self.run_with_config(tmp_path, text, "estimate", "--method", method, "--input", obs_csv) == 2
        assert capsys.readouterr().err == f"error: ConfigError: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ("placebo = maybe\n", "config key 'placebo' must be a boolean, got 'maybe'"),
        ("crossfit.k = many\n", "config key 'crossfit.k' must be an integer, got 'many'"),
        ("kernel = gaussian\n", "'kernel' must be one of ('rectangular', 'triangular'), got 'gaussian'"),
    ])
    def test_bad_values_of_keys_the_method_does_not_read(self, obs_csv, tmp_path, capsys, text, message):
        assert self.run_with_config(tmp_path, text, "estimate", "--method", "naive", "--input", obs_csv) == 2
        assert capsys.readouterr().err == f"error: ConfigError: {message}\n"

    def test_a_bad_file_value_comes_before_a_missing_input(self, tmp_path, capsys):
        assert self.run_with_config(tmp_path, "placebo = maybe\n", "estimate", "--method", "naive") == 2
        assert capsys.readouterr().err == "error: ConfigError: config key 'placebo' must be a boolean, got 'maybe'\n"

    def test_a_text_flag_is_cast_like_a_file_value(self, obs_csv, capsys):
        assert run_cli("estimate", "--method", "aipw", "--input", obs_csv, "--clip", "0.1") == 2
        assert capsys.readouterr().err == "error: ConfigError: config key 'crossfit.clip' must be 'lo,hi', got '0.1'\n"

    def test_empty_key(self, obs_csv, tmp_path, capsys):
        assert self.run_with_config(tmp_path, "# k\n = 3\n", "estimate", "--method", "naive", "--input", obs_csv) == 2
        assert capsys.readouterr().err == f"error: ConfigError: {tmp_path / 'run.cfg'}:2: empty key\n"

    def test_a_key_set_twice_is_rejected(self, obs_csv, tmp_path, capsys):
        text = "seed = 1\n# again\nlevel = 0.9\nseed = 2\n"
        assert self.run_with_config(tmp_path, text, "estimate", "--method", "naive", "--input", obs_csv) == 2
        assert capsys.readouterr().err == (
            f"error: ConfigError: {tmp_path / 'run.cfg'}:4: key 'seed' is already set on line 1\n"
        )

    def test_unreadable_file(self, obs_csv, tmp_path, capsys):
        path = tmp_path / "absent.cfg"
        assert run_cli("estimate", "--method", "naive", "--input", obs_csv, "--config", str(path)) == 2
        assert capsys.readouterr().err == (
            f"error: ConfigError: cannot read config file {path}: [Errno 2] No such file or directory: '{path}'\n"
        )

    def test_unknown_method_in_the_file(self, obs_csv, tmp_path, capsys):
        assert self.run_with_config(tmp_path, "method = bogus\n", "estimate", "--input", obs_csv) == 2
        assert capsys.readouterr().err == "error: ConfigError: unknown method 'bogus'\n"

    def test_missing_input(self, capsys):
        assert run_cli("estimate", "--method", "naive") == 1
        assert capsys.readouterr().err == "causalkit: error: --input is required\n"


class TestOptionTable:
    """The option table agrees with every reader of its keys and dests."""

    def test_every_key_read_is_in_the_table_and_every_key_is_read(self):
        read = {key for method in METHODS.values() for key in method.keys} | set(cli._MONTECARLO_KEYS)
        assert read <= set(cli._OPTIONS)
        assert set(cli._OPTIONS) <= read

    def test_cross_fit_keys_are_cross_fit_keywords(self):
        keywords = inspect.signature(cross_fit).parameters
        for key in (*CROSSFIT_KEYS, "seed"):
            assert cli._OPTIONS[key][0] in keywords, key

    def test_each_mc_config_field_is_set_by_one_montecarlo_key(self):
        dests = [cli._OPTIONS[key][0] for key in cli._MONTECARLO_KEYS]
        for f in dataclasses.fields(McConfig):
            if f.name not in ("dgp", "replications"):
                assert dests.count(f.name) == 1, f.name

    def test_estimators_help_names_the_obs_readers(self):
        readers = ast.literal_eval(cli._HELP["estimators"].split("subset of ", 1)[1])
        assert set(readers) == {name for name, method in MC_METHODS.items() if method.kind == "obs"}
        with pytest.raises(ConfigError) as exc:
            McConfig(dgp=ObsDgpConfig(n=10), estimators=("did",))
        assert str(exc.value).endswith(f"expected a subset of {readers}")


def _load_golden_script(name):
    """Import tests/golden/<name>.py, a golden regeneration script, as a module."""
    path = Path(__file__).parent / "golden" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GOLDEN_REPORTS = _load_golden_script("regenerate_estimate_reports")
GOLDEN_SIMULATE = _load_golden_script("regenerate_simulate_outputs")
GOLDEN_EIF_CHECK = _load_golden_script("regenerate_eif_check_reports")
GOLDEN_CLI_TEXT = _load_golden_script("regenerate_cli_text")


@pytest.mark.parametrize("case", sorted(GOLDEN_CLI_TEXT.CASES))
def test_cli_text_matches_golden(case):
    """Help, usage and error text and the exit code of `causalkit` are as frozen."""
    frozen = json.loads(GOLDEN_CLI_TEXT.GOLDEN.read_text(encoding="utf-8"))
    assert GOLDEN_CLI_TEXT.run_case(GOLDEN_CLI_TEXT.CASES[case]) == frozen[case]


@pytest.fixture(scope="module")
def cli_reports():
    return GOLDEN_REPORTS.build_reports()


@pytest.mark.parametrize("case", sorted(GOLDEN_REPORTS.CASES))
def test_estimate_report_matches_golden_bytes(case, cli_reports):
    """Every `causalkit estimate` report is byte-identical to its frozen form."""
    assert cli_reports["estimate"][case] == GOLDEN_REPORTS.frozen_text("estimate", case)


@pytest.mark.parametrize("case", GOLDEN_REPORTS.case_names("simulate"))
def test_simulate_summary_matches_golden_bytes(case, cli_reports):
    """Every `causalkit simulate` stdout summary is byte-identical to its frozen form."""
    assert cli_reports["simulate"][case] == GOLDEN_REPORTS.frozen_text("simulate", case)


@pytest.mark.parametrize("case", GOLDEN_REPORTS.case_names("montecarlo"))
def test_montecarlo_output_matches_golden_bytes(case, cli_reports):
    """Every `causalkit montecarlo` JSON report and CSV table is byte-identical to its frozen form."""
    assert cli_reports["montecarlo"][case] == GOLDEN_REPORTS.frozen_text("montecarlo", case)


@pytest.fixture(scope="module")
def simulate_outputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("simulate")
    GOLDEN_SIMULATE.write_outputs(directory)
    return directory


@pytest.mark.parametrize("name", GOLDEN_SIMULATE.file_names())
def test_simulate_files_match_golden_bytes(name, simulate_outputs):
    """Every data and truth file `causalkit simulate` writes is byte-identical to its frozen form."""
    frozen = GOLDEN_SIMULATE.GOLDEN_DIR / name
    assert (simulate_outputs / name).read_bytes() == frozen.read_bytes()


@pytest.fixture(scope="module")
def eif_check_reports():
    return GOLDEN_EIF_CHECK.build_reports()


@pytest.mark.parametrize("case", sorted(GOLDEN_EIF_CHECK.CASES))
def test_eif_check_report_matches_golden_bytes(case, eif_check_reports):
    """Every `causalkit eif-check` report is byte-identical to its frozen form."""
    frozen = json.loads(GOLDEN_EIF_CHECK.GOLDEN.read_text(encoding="utf-8"))
    assert eif_check_reports[case] == json.dumps(frozen[case], indent=2) + "\n"


def test_eif_check_builds_the_ate_forms_once_per_measure(tmp_path, monkeypatch, capsys):
    """One `eif-check --functional ate --estimated` run builds the Ate forms once
    on its measure, and once more for the remainder, on the stacked supports."""
    calls, build = [], eif_engine._arm_forms
    monkeypatch.setattr(eif_engine, "_arm_forms", lambda *args: calls.append(args[2]) or build(*args))
    GOLDEN_EIF_CHECK.write_measures(tmp_path)
    measure, estimated = str(tmp_path / "measure.csv"), str(tmp_path / "estimated.csv")
    assert main(["eif-check", "--measure", measure, "--functional", "ate", "--estimated", estimated]) == 0
    assert json.loads(capsys.readouterr().out)["r2_check"]["satisfied"]
    assert calls == [(1, 0), (1, 0)]


def _walk(value):
    """The element-by-element coercion an array went through before it became one ``tolist``."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        value = float(value)
    if isinstance(value, float):
        return value if np.isfinite(value) else None
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [_walk(v) for v in value.tolist()]
    if isinstance(value, list):
        return [_walk(v) for v in value]
    if isinstance(value, dict):
        return {k: _walk(v) for k, v in value.items()}
    return value


ARRAYS = {
    "float_1d": np.array([0.1, -2.5, 1e300, 5e-324, -0.0]),
    "float_2d": stream(5).normal(scale=1e3, size=(4, 5)),
    "float32_1d": np.array([0.1, 2.5], dtype=np.float32),
    "float_1d_non_finite": np.array([np.inf, 0.5, np.nan, -np.inf]),
    "float_2d_non_finite": np.array([[1.0, np.nan], [-np.inf, 2.0]]),
    "int_1d": np.array([0, -3, 2**62]),
    "int_2d": np.array([[1, 2], [3, 4]], dtype=np.int32),
    "bool_1d": np.array([True, False]),
    "bool_2d": np.array([[True], [False]]),
}


@pytest.mark.parametrize("name", sorted(ARRAYS))
def test_arrays_encode_as_the_element_walk_did(name):
    report = {"a": ARRAYS[name], "b": [ARRAYS[name], 1.0]}
    text = json.dumps(_jsonable(report), indent=2, allow_nan=False)
    assert text == json.dumps(_walk(report), indent=2, allow_nan=False)


def test_non_finite_array_entries_are_null():
    array = np.array([[np.inf, 1.5], [np.nan, -np.inf]])
    assert json.dumps(_jsonable(array)) == "[[null, 1.5], [null, null]]"


def test_csv_report_cells_as_written_today(tmp_path):
    """CSV cells are numbers as ``format_number`` writes them: a bool as an
    integer, an integer of 1e16 or more as a float."""
    out = tmp_path / "rows.csv"
    emit_report({"rows": [{"estimator": "x", "n_ok": 2**60, "coverage": True}]}, "csv", str(out))
    header, row = out.read_text(encoding="utf-8").splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["n_ok"] == "1.152921504606847e+18"
    assert cells["coverage"] == "1"
    assert cells["estimator"] == "x" and cells["bias"] == ""


class TestMontecarlo:
    def test_json_and_csv_outputs(self, tmp_path, capsys):
        out = tmp_path / "mc.json"
        csv_out = tmp_path / "mc.csv"
        code = run_cli(
            "montecarlo", "--reps", "5", "--n", "150", "--d", "2",
            "--confounding", "0.8", "--tau", "2.0", "--seed", "1",
            "--estimators", "naive,aipw",
            "--out", str(out), "--csv", str(csv_out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["true_ate"] == 2.0
        assert [r["estimator"] for r in report["rows"]] == ["naive", "aipw"]
        assert report["failures"] == [] and report["failures_by_class"] == {}
        assert report["nonconverged_folds"] == 0 and report["irls_iterations"] >= 5 * 5
        header = csv_out.read_text().splitlines()[0]
        assert header == (
            "estimator,n_ok,n_failed,mean_estimate,bias,mc_se_mean,variance,"
            "mse,coverage,mean_se,mean_clip_count,mean_unmatched"
        )
        naive_cells = csv_out.read_text().splitlines()[1].split(",")
        assert naive_cells[0] == "naive"
        assert naive_cells[-1] == ""  # no unmatched column for naive

    def test_deterministic_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = run_cli(
                "montecarlo", "--reps", "3", "--n", "100", "--seed", "7",
                "--estimators", "naive", "--out", str(out),
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_scenario_flag(self, tmp_path, capsys):
        code = run_cli(
            "montecarlo", "--reps", "3", "--n", "120",
            "--outcome-form", "linear_plus_quadratic",
            "--propensity-form", "linear_plus_quadratic",
            "--scenario", "both_wrong", "--estimators", "aipw",
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scenario"] == "both_wrong"

    def test_invalid_level_rejected_before_any_replication(self, capsys):
        argv = ("montecarlo", "--reps", "2", "--n", "50", "--estimators", "naive", "--level", "1.5")
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == "error: ConfigError: confidence level must lie in (0, 1), got 1.5\n"

    def test_config_file_and_flag_precedence(self, tmp_path, capsys):
        conf = tmp_path / "mc.conf"
        conf.write_text(
            "scenario = pi_wrong\nreps = 3\nn = 150\nestimators = naive , aipw\n"
            "crossfit.clip = 0.02,0.98\npropensity.lambda = 1e-5\nseed = 11\n"
        )
        assert run_cli("montecarlo", "--config", str(conf), "--reps", "2", "--k", "3") == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config == {
            "subcommand": "montecarlo", "scenario": "pi_wrong", "reps": 2, "n": 150, "seed": 11,
            "estimators": ["naive", "aipw"], "level": 0.95, "d": 1, "confounding": 0.0,
            "tau": 0.0, "noise_sd": 1.0, "outcome_form": "linear", "propensity_form": "linear",
            "crossfit.k": 3, "crossfit.clip": [0.02, 0.98], "propensity.lambda": 1e-5,
            "outcome.lambda": 1e-8,
        }
        conf.write_text("outcome_form = cubic\n")
        assert run_cli("montecarlo", "--config", str(conf)) == 2
        assert "'outcome_form' must be one of" in capsys.readouterr().err

    def test_repeated_estimator_rejected(self, capsys):
        assert run_cli("montecarlo", "--reps", "3", "--n", "200", "--estimators", "naive,naive") == 2
        assert capsys.readouterr().err == (
            "error: ConfigError: estimator list ['naive', 'naive'] names a method more than once\n")

    def test_empty_estimator_list_rejected(self, capsys):
        assert run_cli("montecarlo", "--reps", "3", "--n", "200", "--estimators", ",") == 2
        assert capsys.readouterr().err == "error: ConfigError: estimator list must be non-empty\n"

    @pytest.mark.parametrize("flags, message", [
        (("--k", "1"), "k must satisfy 2 <= k <= n, got k=1 with n=200"),
        (("--clip", "0.5,0.4"), "clip bounds must satisfy 0 < lo < hi < 1, got (0.5, 0.4)"),
    ])
    def test_bad_fold_settings_are_config_errors(self, flags, message, capsys):
        argv = ("montecarlo", "--reps", "3", "--n", "200", "--estimators", "naive,aipw", *flags)
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"error: ConfigError: {message}\n"


MEASURE = (
    "x,a,y,prob\n"
    "0,0,0,0.15\n0,0,1,0.1\n0,1,0,0.1\n0,1,1,0.15\n"
    "1,0,0,0.1\n1,0,1,0.15\n1,1,0,0.05\n1,1,1,0.2\n"
)

ESTIMATED = (
    "x,a,y,prob\n"
    "0,0,0,0.1\n0,0,1,0.1\n0,1,0,0.15\n0,1,1,0.15\n"
    "1,0,0,0.15\n1,0,1,0.15\n1,1,0,0.05\n1,1,1,0.15\n"
)


class TestEifCheck:
    def test_report_structure(self, tmp_path, capsys):
        m = tmp_path / "m.csv"
        m.write_text(MEASURE)
        code = run_cli(
            "eif-check", "--measure", str(m), "--functional", "ate",
            "--scores", "10", "--seed", "0",
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["psi"] == pytest.approx(0.2, abs=1e-12)
        assert report["max_abs_diff"] < 1e-9
        assert abs(report["numerical_mean"]) < 1e-10
        assert report["central_identity"]["max_gap"] < 1e-6
        assert report["r2_check"] is None

    def test_r2_block_with_estimated_measure(self, tmp_path, capsys):
        m = tmp_path / "m.csv"
        m.write_text(MEASURE)
        e = tmp_path / "e.csv"
        e.write_text(ESTIMATED)
        code = run_cli(
            "eif-check", "--measure", str(m), "--functional", "ate",
            "--estimated", str(e), "--scores", "2",
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["r2_check"]["satisfied"] is True
        assert abs(report["r2_check"]["r2"]) <= report["r2_check"]["bound"]

    def test_r2_check_rejects_a_non_arm_functional(self, tmp_path, capsys):
        m, e = tmp_path / "m.csv", tmp_path / "e.csv"
        m.write_text(MEASURE)
        e.write_text(ESTIMATED)
        argv = ("eif-check", "--measure", str(m), "--functional", "mean(y)", "--estimated", str(e))
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == (
            "error: ConfigError: second_order_remainder supports 'ate' and "
            "'counterfactual_mean(a)', got 'mean(y)'\n"
        )

    def test_bad_functional_is_input_error(self, tmp_path, capsys):
        m = tmp_path / "m.csv"
        m.write_text(MEASURE)
        assert run_cli("eif-check", "--measure", str(m), "--functional", "median(y)") == 2

    def test_non_utf8_measure_is_schema_error(self, tmp_path, capsys):
        m = tmp_path / "m.csv"
        m.write_bytes(MEASURE.replace("1,1,1,0.2", "1,1,1,0.2\xe9").encode("latin-1"))
        assert run_cli("eif-check", "--measure", str(m), "--functional", "ate") == 2
        assert capsys.readouterr().err == f"error: SchemaError: {m}: not UTF-8 text (byte 0xe9)\n"

    def test_report_records_the_step(self, tmp_path, capsys):
        # arm-by-cell (x=1, a=1) holds mass 1e-3, so the default step shrinks to 1e-3/50
        m = tmp_path / "m.csv"
        m.write_text(
            "x,a,y,prob\n"
            "0,0,0,0.15\n0,0,1,0.1\n0,1,0,0.1\n0,1,1,0.15\n"
            "1,0,0,0.2\n1,0,1,0.299\n1,1,0,0.0005\n1,1,1,0.0005\n"
        )
        assert run_cli("eif-check", "--measure", str(m), "--functional", "ate", "--scores", "3") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["eps_schedule"] == pytest.approx([2e-5, 1e-5, 5e-6], rel=1e-9)
        assert report["max_error_estimate"] == max(report["phi_error_estimates"])
        assert report["max_abs_diff"] < 1e-9

    def test_unresolvable_cell_exits_3(self, tmp_path, capsys):
        # arm-by-cell (x=1, a=1) holds mass 1e-13: rounding swamps any usable step
        m = tmp_path / "m.csv"
        m.write_text(
            "x,a,y,prob\n"
            "0,0,0,0.15\n0,0,1,0.1\n0,1,0,0.1\n0,1,1,0.15\n"
            "1,0,0,0.2\n1,0,1,0.3\n1,1,0,1e-13\n1,1,1,0.0\n"
        )
        assert run_cli("eif-check", "--measure", str(m), "--functional", "ate") == 3
        assert capsys.readouterr().err.startswith("error: EpsError: ")

    def test_negative_scores_rejected_before_any_work(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert run_cli("eif-check", "--measure", str(missing), "--functional", "ate", "--scores", "-3") == 2
        assert capsys.readouterr().err == "error: ConfigError: scores must be a non-negative integer, got -3\n"

    def test_invalid_probabilities_rejected(self, tmp_path, capsys):
        m = tmp_path / "m.csv"
        m.write_text("x,a,y,prob\n0,0,0,0.9\n0,0,1,0.2\n")
        assert run_cli("eif-check", "--measure", str(m), "--functional", "ate") == 2

    def test_nan_probability_rejected_as_probs(self, tmp_path, capsys):
        m = tmp_path / "m.csv"
        m.write_text(MEASURE.replace("0.15", "nan", 1))
        assert run_cli("eif-check", "--measure", str(m), "--functional", "ate") == 2
        assert capsys.readouterr().err == "error: ValidationError: probs must sum to 1 within 1e-12, got nan\n"


class TestNegativeSeed:
    """A negative seed is a ConfigError (exit 2) from the one check in rng, flag or config file,
    also where no random stream is drawn."""

    ERR = "error: ConfigError: seed must be a non-negative integer\n"

    def test_simulate(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert run_cli("simulate", "--dgp", "obs", "--n", "20", "--seed", "-1", "--out", str(out)) == 2
        assert capsys.readouterr().err == self.ERR
        assert not out.exists()

    def test_estimate_aipw(self, obs_csv, tmp_path, capsys):
        argv = ("estimate", "--method", "aipw", "--input", obs_csv, "--covariates", "x1,x2")
        assert run_cli(*argv, "--seed", "-1") == 2
        assert capsys.readouterr().err == self.ERR
        conf = tmp_path / "est.conf"
        conf.write_text("seed = -1\n")
        assert run_cli(*argv, "--config", str(conf)) == 2
        assert capsys.readouterr().err == self.ERR

    def test_estimate_without_random_stream(self, obs_csv, tmp_path, capsys):
        argv = ("estimate", "--method", "naive", "--input", obs_csv)
        assert run_cli(*argv, "--seed", "-1") == 2
        assert capsys.readouterr().err == self.ERR
        conf = tmp_path / "est.conf"
        conf.write_text("seed = -1\n")
        assert run_cli(*argv, "--config", str(conf)) == 2
        assert capsys.readouterr().err == self.ERR

    def test_montecarlo(self, tmp_path, capsys):
        argv = ("montecarlo", "--reps", "2", "--n", "50", "--estimators", "naive")
        assert run_cli(*argv, "--seed", "-1") == 2
        assert capsys.readouterr().err == self.ERR
        conf = tmp_path / "mc.conf"
        conf.write_text("seed = -1\n")
        assert run_cli(*argv, "--config", str(conf)) == 2
        assert capsys.readouterr().err == self.ERR

    def test_eif_check(self, tmp_path, capsys):
        m = tmp_path / "m.csv"
        m.write_text(MEASURE)
        assert run_cli("eif-check", "--measure", str(m), "--functional", "ate", "--seed", "-1") == 2
        assert capsys.readouterr().err == self.ERR
        argv = ("eif-check", "--measure", str(m), "--functional", "ate", "--scores", "0", "--seed", "-1")
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == self.ERR


class TestSeedType:
    """The one seed check in rng takes Python and NumPy integers >= 0, nothing else."""

    @pytest.mark.parametrize("seed", [float("nan"), 1.5])
    def test_stream_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ConfigError) as exc:
            stream(seed)
        assert str(exc.value) == "seed must be a non-negative integer"

    def test_numpy_integer_seed_gives_the_same_stream(self):
        assert stream(np.int64(7), 2).random() == stream(7, 2).random()


class TestNonFiniteParameters:
    """NaN or +-inf in a parameter is a ConfigError (exit 2) that names its config field,
    raised when the config is built, before any draw or fit."""

    @pytest.mark.parametrize("flags, message", [
        (("--dgp", "obs", "--tau", "inf"), "tau must be finite, got inf"),
        (("--dgp", "obs", "--noise-sd", "nan"), "outcome_noise_sd must be finite, got nan"),
        (("--dgp", "panel", "--time-trend", "nan"), "time_trend must be finite, got nan"),
        (("--dgp", "rd", "--half-width", "nan"), "half_width must be finite, got nan"),
    ])
    def test_simulate(self, tmp_path, capsys, flags, message):
        out = tmp_path / "d.csv"
        assert run_cli("simulate", *flags, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: ConfigError: {message}\n"
        assert not out.exists()

    def test_estimate_rd_cutoff(self, tmp_path, capsys):
        rd = tmp_path / "rd.csv"
        assert run_cli("simulate", "--dgp", "rd", "--n", "100", "--out", str(rd)) == 0
        capsys.readouterr()
        assert run_cli("estimate", "--method", "rd", "--input", str(rd), "--cutoff", "nan") == 2
        assert capsys.readouterr().err == "error: ConfigError: cutoff must be finite, got nan\n"

    def test_montecarlo_propensity_lambda(self, capsys):
        argv = ("montecarlo", "--reps", "2", "--n", "50", "--estimators", "naive", "--propensity-lambda", "nan")
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == "error: ConfigError: propensity_lambda must be finite, got nan\n"


class TestTopLevel:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert run_cli() == 1

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli("frobnicate") == 1

    @staticmethod
    def registered_subparsers(monkeypatch):
        """The names passed to ``add_parser`` from now on, in call order."""
        names, add_parser = [], argparse._SubParsersAction.add_parser
        monkeypatch.setattr(
            argparse._SubParsersAction, "add_parser",
            lambda self, name, **kwargs: names.append(name) or add_parser(self, name, **kwargs),
        )
        return names

    def test_a_leading_subcommand_registers_only_its_subparser(self, monkeypatch):
        names = self.registered_subparsers(monkeypatch)
        args = parse_args(["eif-check", "--measure", "m.csv", "--functional", "ate"])
        assert (args.subcommand, args.measure) == ("eif-check", "m.csv")
        assert names == ["eif-check"]

    @pytest.mark.parametrize("argv, code", [(["--help", "eif-check"], 0), (["frobnicate", "eif-check"], 1)])
    def test_a_later_subcommand_registers_and_lists_all_four(self, monkeypatch, capsys, argv, code):
        names = self.registered_subparsers(monkeypatch)
        assert run_cli(*argv) == code
        assert names == ["simulate", "estimate", "montecarlo", "eif-check"]
        printed = "".join(capsys.readouterr())
        assert all(name in printed for name in names)

    def test_version_flag(self, capsys):
        assert run_cli("--version") == 0
        assert "causalkit" in capsys.readouterr().out

    @staticmethod
    def modules_loaded_by_import():
        """Every module a fresh interpreter loads for ``import causalkit.cli``."""
        probe = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import causalkit, causalkit.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n"
        )
        src = str(Path(causalkit.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env={"PYTHONPATH": src}
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_import_loads_no_third_party_module_but_numpy(self):
        # NumPy is the only runtime dependency; scipy is installed but must stay unused
        loaded = {m.split(".")[0] for m in self.modules_loaded_by_import()}
        assert {"causalkit", "numpy"} <= loaded
        assert loaded - set(sys.stdlib_module_names) == {"causalkit", "numpy"}

    def test_import_loads_the_same_package_modules(self):
        # every command pays for what importing the CLI loads
        loaded = [m for m in self.modules_loaded_by_import() if m.split(".")[0] == "causalkit"]
        assert loaded == [
            "causalkit", "causalkit.ate_estimators", "causalkit.cli", "causalkit.data_model",
            "causalkit.dgp", "causalkit.eif_engine", "causalkit.errors", "causalkit.methods",
            "causalkit.montecarlo", "causalkit.nuisance", "causalkit.quasi_experimental", "causalkit.rng",
        ]

    @pytest.mark.parametrize("module", ["ate_estimators", "quasi_experimental"])
    def test_estimators_import_no_generator_or_harness(self, module):
        # estimators read data: drawing it belongs to dgp, replicating draws to montecarlo
        source = Path(causalkit.__file__).with_name(f"{module}.py").read_text(encoding="utf-8")
        imported = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                imported.update([node.module or ""] + [alias.name for alias in node.names])
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        parts = {part for name in imported for part in name.split(".")}
        assert not parts & {"dgp", "montecarlo"}

    def test_console_script_entry_point(self, tmp_path):
        out = tmp_path / "d.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "causalkit", "simulate", "--dgp", "obs",
             "--n", "20", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()
        assert json.loads(proc.stdout)["rows"] == 20
