"""Regenerate estimate_reports.json, the frozen `causalkit estimate` reports.

Run from the repository root:

    PYTHONPATH=src python3 tests/golden/regenerate_estimate_reports.py

Each case simulates a small input with `causalkit simulate` and runs
`causalkit estimate` on it inside a scratch directory, so the input paths the
reports echo are the bare file names.  tests/test_cli.py re-runs every case
and compares the report bytes with ``json.dumps(frozen, indent=2) + "\\n"``,
the exact form the CLI writes.  Regenerate only when a report changes on
purpose, and quote the old and new values of what changed in CHANGES.md.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from causalkit.cli import main as cli_main

GOLDEN = Path(__file__).with_name("estimate_reports.json")

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


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"causalkit {' '.join(argv)} exited with {code}")
    return out.getvalue()


def build_reports() -> dict[str, str]:
    """The report text of every case, keyed by case name."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for name, argv in INPUTS.items():
                _run(["simulate", *argv, "--out", name])
            return {case: _run(["estimate", *argv]) for case, argv in CASES.items()}
        finally:
            os.chdir(cwd)


def main() -> None:
    reports = {case: json.loads(text) for case, text in build_reports().items()}
    GOLDEN.write_text(json.dumps(reports, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(reports)} reports to {GOLDEN}")


if __name__ == "__main__":
    main()
