"""Regenerate simulate/, the frozen data and truth files of `causalkit simulate`.

Run from the repository root:

    PYTHONPATH=src python3 tests/golden/regenerate_simulate_outputs.py

Each case runs `causalkit simulate --out <case>.csv --truth-out
<case>_truth.csv` with small sizes and fixed seeds.  The cases cover every
writer: the observational table and its truth with true propensities, the IV
table and its truth with the compliance-type label column, the panel table
and its unit-effect sidecar, and the RD table.  tests/test_cli.py writes
every case again into a scratch directory and compares the files byte for
byte.  Regenerate only when the written bytes change on purpose, and say why
in CHANGES.md; the script prints every changed CSV cell (see number_changes.py).
"""

import contextlib
import io
from pathlib import Path

from causalkit.cli import main as cli_main

GOLDEN_DIR = Path(__file__).with_name("simulate")

CASES = {
    "obs": ["--dgp", "obs", "--n", "150", "--d", "3", "--confounding", "0.8",
            "--tau", "1.5", "--tau-x", "0.5,-0.25,0", "--noise-sd", "1e-3",
            "--outcome-form", "linear_plus_quadratic", "--seed", "17"],
    "iv": ["--dgp", "iv", "--n", "120", "--p-complier", "0.5", "--p-always", "0.2",
           "--p-never", "0.3", "--complier-effect", "2.0", "--always-effect", "-1.0",
           "--seed", "4"],
    "panel": ["--dgp", "panel", "--n-units", "12", "--n-periods", "5",
              "--group-effect", "1.0", "--time-trend", "-0.5", "--effect", "2.5",
              "--unit-effect-sd", "1e17", "--first-treated-period", "3", "--seed", "8"],
    "rd": ["--dgp", "rd", "--n", "100", "--cutoff", "0.25", "--jump", "1.0",
           "--slope-left", "0.5", "--slope-right", "-2.0", "--half-width", "1e-5",
           "--noise-sd", "1e-6", "--seed", "6"],
}


def file_names() -> list[str]:
    """The file every case writes, data then truth."""
    return [f"{case}{suffix}.csv" for case in CASES for suffix in ("", "_truth")]


def write_outputs(directory: Path) -> None:
    """Run every case, writing its data and truth files into ``directory``."""
    for case, argv in CASES.items():
        out = directory / f"{case}.csv"
        truth = directory / f"{case}_truth.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["simulate", *argv, "--out", str(out), "--truth-out", str(truth)])
        if code != 0:
            raise RuntimeError(f"causalkit simulate {' '.join(argv)} exited with {code}")


def read_outputs(directory: Path) -> dict[str, str]:
    """The text of every file the cases write that exists in ``directory``."""
    paths = (directory / name for name in file_names())
    return {path.name: path.read_text(encoding="utf-8") for path in paths if path.exists()}


def main() -> None:
    # imported here: tests/test_cli.py loads this file without tests/golden on sys.path
    from number_changes import print_changes

    GOLDEN_DIR.mkdir(exist_ok=True)
    old = read_outputs(GOLDEN_DIR)
    write_outputs(GOLDEN_DIR)
    print(f"wrote {len(file_names())} files to {GOLDEN_DIR}")
    print_changes(GOLDEN_DIR.name, old, read_outputs(GOLDEN_DIR))


if __name__ == "__main__":
    main()
