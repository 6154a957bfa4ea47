"""Regenerate the frozen CLI reports: simulate_summaries.json,
estimate_reports.json and montecarlo_reports.json.

Run from the repository root:

    PYTHONPATH=src python3 tests/golden/regenerate_estimate_reports.py

Inside a scratch directory, each input is drawn with `causalkit simulate`
(whose stdout summary is frozen too), every estimate case runs `causalkit
estimate` on those inputs, and every montecarlo case runs `causalkit
montecarlo` with `--csv`, so the paths the reports echo are bare file names.
A simulate summary is frozen under the stem of its input's name, and a
montecarlo case freezes its JSON report under its name and its CSV text under
its name plus ``.csv``.  tests/test_cli.py re-runs every case and
compares a report's bytes with ``json.dumps(frozen, indent=2) + "\\n"``, the
exact form the CLI writes, and CSV text with the frozen string.  Regenerate
only when an output changes on purpose, and quote the old and new values of
what changed in CHANGES.md; the script prints each of them (see
number_changes.py).
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from causalkit.cli import main as cli_main

GOLDEN_DIR = Path(__file__).parent
GOLDEN = GOLDEN_DIR / "estimate_reports.json"
GROUPS = {
    "simulate": GOLDEN_DIR / "simulate_summaries.json",
    "estimate": GOLDEN,
    "montecarlo": GOLDEN_DIR / "montecarlo_reports.json",
}

INPUTS = {
    "obs.csv": ["--dgp", "obs", "--n", "300", "--d", "2", "--confounding", "0.5",
                "--tau", "2.0", "--seed", "11"],
    "panel.csv": ["--dgp", "panel", "--n-units", "30", "--n-periods", "4",
                  "--group-effect", "1.0", "--time-trend", "0.5", "--effect", "2.0",
                  "--unit-effect-sd", "2.0", "--first-treated-period", "2", "--seed", "5"],
    "iv.csv": ["--dgp", "iv", "--n", "400", "--p-complier", "0.6", "--p-always", "0.2",
               "--p-never", "0.2", "--complier-effect", "1.5", "--seed", "9"],
    "rd.csv": ["--dgp", "rd", "--n", "400", "--jump", "1.0", "--slope-left", "0.5",
               "--slope-right", "1.0", "--seed", "2"],
    # drawn for their summaries only: a truth sidecar, heterogeneous effects,
    # and every IV effect flag with defiers allowed
    "obs_tau_x.csv": ["--dgp", "obs", "--n", "40", "--d", "2", "--tau-x", "0.5,-1",
                      "--outcome-form", "linear_plus_quadratic", "--truth-out", "obs_truth.csv",
                      "--seed", "3"],
    "iv_defiers.csv": ["--dgp", "iv", "--n", "60", "--p-complier", "0.5", "--p-always", "0.2",
                       "--p-never", "0.2", "--p-defier", "0.1", "--allow-defiers",
                       "--complier-effect", "1.5", "--always-effect", "3", "--never-effect", "-1",
                       "--defier-effect", "0.5", "--instrument-prob", "0.4", "--seed", "7"],
    "panel_default.csv": ["--dgp", "panel", "--truth-out", "panel_truth.csv"],
}

CASES = {
    "naive": ["--method", "naive", "--input", "obs.csv", "--covariates", "x1,x2"],
    "ipw": ["--method", "ipw", "--input", "obs.csv", "--covariates", "x1,x2"],
    "gformula": ["--method", "gformula", "--input", "obs.csv", "--covariates", "x1,x2"],
    "psm": ["--method", "psm", "--input", "obs.csv", "--covariates", "x1,x2"],
    "aipw": ["--method", "aipw", "--input", "obs.csv", "--covariates", "x1,x2"],
    "did": ["--method", "did", "--input", "panel.csv"],
    "did_placebo": ["--method", "did", "--input", "panel.csv", "--placebo"],
    "fe": ["--method", "fe", "--input", "panel.csv"],
    "iv": ["--method", "iv", "--input", "iv.csv"],
    "tsls": ["--method", "tsls", "--input", "iv.csv"],
    "rd": ["--method", "rd", "--input", "rd.csv", "--cutoff", "0", "--bandwidth", "0.5"],
    "rd_triangular": ["--method", "rd", "--input", "rd.csv", "--cutoff", "0",
                      "--bandwidth", "0.5", "--kernel", "triangular"],
}

# written into the scratch directory for the config_and_flags case
MC_CONFIG = (
    "scenario = pi_wrong\nreps = 4\nn = 150\nseed = 11\nestimators = naive , aipw\n"
    "outcome_form = linear_plus_quadratic\nlevel = 0.9\ncrossfit.clip = 0.02,0.98\n"
    "propensity.lambda = 1e-5\n"
)

MC_CASES = {
    "all_estimators": ["--reps", "3", "--n", "120", "--d", "2", "--confounding", "0.5",
                       "--tau", "1.0", "--estimators", "naive,ipw,ipw_oracle,gformula,psm,aipw",
                       "--seed", "5"],
    "config_and_flags": ["--config", "mc.conf", "--reps", "3", "--k", "3", "--clip", "0.05,0.95",
                         "--tau", "0.5"],
    "both_wrong": ["--scenario", "both_wrong", "--outcome-form", "linear_plus_quadratic",
                   "--propensity-form", "linear_plus_quadratic", "--reps", "3", "--n", "150",
                   "--estimators", "ipw,gformula,aipw", "--noise-sd", "0.5", "--seed", "2"],
}


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"causalkit {' '.join(argv)} exited with {code}")
    return out.getvalue()


def build_reports() -> dict[str, dict[str, str]]:
    """The text of every case, keyed by group ("simulate", "estimate",
    "montecarlo") and case name."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            simulate = {
                Path(name).stem: _run(["simulate", *argv, "--out", name]) for name, argv in INPUTS.items()
            }
            estimate = {case: _run(["estimate", *argv]) for case, argv in CASES.items()}
            Path("mc.conf").write_text(MC_CONFIG, encoding="utf-8")
            montecarlo = {}
            for case, argv in MC_CASES.items():
                montecarlo[case] = _run(["montecarlo", *argv, "--csv", f"{case}.csv"])
                montecarlo[f"{case}.csv"] = Path(f"{case}.csv").read_text(encoding="utf-8")
            return {"simulate": simulate, "estimate": estimate, "montecarlo": montecarlo}
        finally:
            os.chdir(cwd)


def case_names(group: str) -> list[str]:
    """The case names of one group, as build_reports() keys them."""
    if group == "simulate":
        return [Path(name).stem for name in INPUTS]
    if group == "estimate":
        return list(CASES)
    return [name for case in MC_CASES for name in (case, f"{case}.csv")]


def frozen_text(group: str, case: str) -> str:
    """The frozen text of one case, in the form the CLI writes it."""
    frozen = json.loads(GROUPS[group].read_text(encoding="utf-8"))[case]
    return frozen if case.endswith(".csv") else json.dumps(frozen, indent=2) + "\n"


def main() -> None:
    # imported here: tests/test_cli.py loads this file without tests/golden on sys.path
    from number_changes import print_changes

    for group, texts in build_reports().items():
        frozen = {c: t if c.endswith(".csv") else json.loads(t) for c, t in texts.items()}
        path = GROUPS[group]
        old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        path.write_text(json.dumps(frozen, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {len(frozen)} {group} cases to {path}")
        print_changes(path.name, old, frozen)


if __name__ == "__main__":
    main()
