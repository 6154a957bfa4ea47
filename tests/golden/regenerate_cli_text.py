"""Regenerate cli_text.json, the frozen help, usage and error text of `causalkit`.

Run from the repository root:

    PYTHONPATH=src python3 tests/golden/regenerate_cli_text.py

Each case runs `causalkit` in process with COLUMNS=80 and records its
stdout, its stderr and its exit code: top-level help, version and no
arguments; the help of every subcommand; an invalid subcommand; for each
subcommand a missing or incomplete flag and a value argparse rejects; and
flags that are unknown or belong to another subcommand.  No case gets as far
as reading a file.  tests/test_cli.py re-runs every case and compares the
three values with the frozen ones.  Regenerate only when the text changes on
purpose, and say why in CHANGES.md; the script prints every changed value
(see number_changes.py).
"""

import contextlib
import io
import json
import os
from pathlib import Path

from causalkit.cli import main as cli_main

GOLDEN = Path(__file__).with_name("cli_text.json")
COLUMNS = "80"

CASES = {
    "help": ["--help"],
    "version": ["--version"],
    "no_arguments": [],
    "help_before_subcommand": ["--help", "estimate"],
    "simulate_help": ["simulate", "--help"],
    "estimate_help": ["estimate", "--help"],
    "montecarlo_help": ["montecarlo", "--help"],
    "eif_check_help": ["eif-check", "--help"],
    "invalid_subcommand": ["frobnicate"],
    "simulate_missing_dgp": ["simulate", "--out", "x.csv"],
    "simulate_bad_dgp": ["simulate", "--dgp", "bogus", "--out", "x.csv"],
    "estimate_missing_method": ["estimate", "--input", "x.csv"],
    "estimate_bad_method": ["estimate", "--method", "bogus", "--input", "x.csv"],
    "estimate_abbreviated_bad_kernel": ["estimate", "--method", "rd", "--kern", "bogus"],
    "montecarlo_missing_value": ["montecarlo", "--reps"],
    "montecarlo_bad_scenario": ["montecarlo", "--scenario", "bogus"],
    "eif_check_missing_measure": ["eif-check", "--functional", "ate"],
    "eif_check_bad_scores": ["eif-check", "--measure", "m.csv", "--functional", "ate", "--scores", "many"],
    "eif_check_montecarlo_flag": ["eif-check", "--measure", "m.csv", "--functional", "ate", "--reps", "3"],
    "bogus_flag_before_subcommand": ["--bogus", "estimate", "--input", "x.csv"],
}


def run_case(argv: list[str]) -> dict:
    """Stdout, stderr and exit code of one in-process run with COLUMNS=80."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = COLUMNS
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(argv))
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


def build_texts() -> dict[str, dict]:
    """The recorded output of every case, keyed by case name."""
    return {case: run_case(argv) for case, argv in CASES.items()}


def main() -> None:
    # imported here: tests/test_cli.py loads this file without tests/golden on sys.path
    from number_changes import print_changes

    texts = build_texts()
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    GOLDEN.write_text(json.dumps(texts, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(texts)} cases to {GOLDEN}")
    print_changes(GOLDEN.name, old, texts)


if __name__ == "__main__":
    main()
