"""Regenerate eif_check_reports.json, the frozen `causalkit eif-check` reports.

Run from the repository root:

    PYTHONPATH=src python3 tests/golden/regenerate_eif_check_reports.py

Each case runs `causalkit eif-check` inside a scratch directory on measure
CSVs this script writes there from fixed Philox seeds, so the paths the
reports echo are the bare file names.  The measures share the 64-point
support x1 x x2 x a x y = 4 x 4 x 2 x 2; one of them holds a total mass of
1e-3 on the arm-by-cell (x1=0, x2=0, a=1), which shrinks the step schedule.
tests/test_cli.py re-runs every case and compares the report bytes with
``json.dumps(frozen, indent=2) + "\\n"``, the exact form the CLI writes.
Regenerate only when a report changes on purpose, and quote the old and new
values of what changed in CHANGES.md; the script prints each of them (see
number_changes.py).
"""

import contextlib
import io
import itertools
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from causalkit.cli import main as cli_main

GOLDEN = Path(__file__).with_name("eif_check_reports.json")

NAMES = ("x1", "x2", "a", "y")
SUPPORT = np.array(list(itertools.product(range(4), range(4), (0, 1), (0, 1))), dtype=float)
SMALL_MASS = 1e-3

CASES = {
    "ate": ["--measure", "measure.csv", "--functional", "ate", "--seed", "3"],
    "mean_y": ["--measure", "measure.csv", "--functional", "mean(y)", "--seed", "3"],
    "cond_mean_y_a1": ["--measure", "measure.csv", "--functional", "cond_mean(y|a=1)", "--seed", "3"],
    "counterfactual_mean_0": ["--measure", "measure.csv", "--functional", "counterfactual_mean(0)",
                              "--seed", "3"],
    "ate_estimated": ["--measure", "measure.csv", "--functional", "ate", "--estimated", "estimated.csv",
                      "--seed", "3"],
    "ate_small_mass": ["--measure", "small_mass.csv", "--functional", "ate", "--seed", "5"],
    "scores_0": ["--measure", "measure.csv", "--functional", "ate", "--scores", "0"],
    "scores_1": ["--measure", "measure.csv", "--functional", "ate", "--scores", "1", "--seed", "8"],
    "scores_20": ["--measure", "measure.csv", "--functional", "ate", "--scores", "20", "--seed", "9"],
}


def _measures() -> dict[str, np.ndarray]:
    """The probabilities of every measure file, keyed by file name."""
    m = len(SUPPORT)
    gen = np.random.Generator(np.random.Philox(20240611))
    probs = 0.6 / m + 0.4 * gen.dirichlet(np.ones(m))
    probs /= probs.sum()
    estimated = probs * np.exp(0.5 * gen.standard_normal(m))
    small = (SUPPORT[:, 0] == 0) & (SUPPORT[:, 1] == 0) & (SUPPORT[:, 2] == 1)
    small_mass = np.where(small, SMALL_MASS / small.sum(), probs * (1 - SMALL_MASS) / probs[~small].sum())
    return {
        "measure.csv": probs,
        "estimated.csv": estimated / estimated.sum(),
        "small_mass.csv": small_mass,
    }


def write_measures(directory: Path) -> None:
    """Write every measure CSV into ``directory``, probabilities as exact reprs."""
    for name, probs in _measures().items():
        lines = [",".join(NAMES + ("prob",))]
        lines += [",".join([*(str(int(v)) for v in point), repr(float(q))]) for point, q in zip(SUPPORT, probs)]
        (directory / name).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
        write_measures(Path(workdir))
        os.chdir(workdir)
        try:
            return {case: _run(["eif-check", *argv]) for case, argv in CASES.items()}
        finally:
            os.chdir(cwd)


def main() -> None:
    # imported here: tests/test_cli.py loads this file without tests/golden on sys.path
    from number_changes import print_changes

    reports = {case: json.loads(text) for case, text in build_reports().items()}
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    GOLDEN.write_text(json.dumps(reports, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(reports)} reports to {GOLDEN}")
    print_changes(GOLDEN.name, old, reports)


if __name__ == "__main__":
    main()
