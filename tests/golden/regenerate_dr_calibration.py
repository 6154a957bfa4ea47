"""Regenerate dr_calibration.json, the frozen Monte Carlo calibration results.

Run from the repository root:

    python3 tests/golden/regenerate_dr_calibration.py

The acceptance tests compare fresh runs with the same seeds against these
frozen numbers, and check the scientific claims (double robustness, coverage,
weak-instrument monotonicity) against thresholds derived from them.  Keep the
seeds below in sync with tests/test_acceptance.py.  Every value that changes
is printed with its old and new form (see number_changes.py).  A run that
changes no value keeps the old provenance stamps, so the file stays
byte-identical.
"""

import json
import platform
from datetime import date, datetime, timezone
from pathlib import Path

import numpy as np

import causalkit
from causalkit import McConfig, ObsDgpConfig, dr_suite, run_mc, weak_iv_study
from number_changes import print_changes

SUITE_SEED = 20260819
COVERAGE_SEED = 20260820
WEAK_IV_SEED = 7
WEAK_IV_STRENGTHS = (0.1, 0.2, 0.4, 0.8)

# Confounding of 0.5 keeps true propensities inside the estimator's default
# clipping band (at 0.8 about 3.5% of units have pi > 0.99, and capped weights
# leave a wrong outcome model under-corrected) while still producing a naive
# bias of ~2, i.e. as large as the effect itself.
BASE_DGP = dict(
    n=2000,
    d=2,
    confounding_strength=0.5,
    tau=2.0,
    outcome_form="linear_plus_quadratic",
    propensity_form="linear_plus_quadratic",
)


# the provenance keys read from the clock
STAMPS = ("generated", "date")


def _unstamped(payload):
    """``payload`` without its clock stamps."""
    provenance = {key: value for key, value in payload["provenance"].items() if key not in STAMPS}
    return {**payload, "provenance": provenance}


def summarize(report):
    return {
        row.estimator: {
            "bias": row.bias,
            "mc_se_mean": row.mc_se_mean,
            "coverage": row.coverage,
            "mean_estimate": row.mean_estimate,
            "n_ok": row.n_ok,
        }
        for row in report.rows
    }


def main() -> None:
    base = ObsDgpConfig(**BASE_DGP)

    suite = dr_suite(
        base,
        replications=500,
        n=2000,
        seed=SUITE_SEED,
        estimators=("naive", "ipw", "gformula", "aipw"),
    )

    coverage = run_mc(
        McConfig(
            dgp=base,
            estimators=("aipw", "ipw_oracle"),
            replications=1000,
            seed=COVERAGE_SEED,
            scenario="both_correct",
        )
    )

    weak_iv = weak_iv_study(WEAK_IV_STRENGTHS, n=2000, reps=200, seed=WEAK_IV_SEED)

    payload = {
        "provenance": {
            "command": "python3 tests/golden/regenerate_dr_calibration.py",
            "generated": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
            "date": str(date.today()),
            "package_version": causalkit.__version__,
            "numpy_version": np.__version__,
            "python_version": platform.python_version(),
            "suite_seed": SUITE_SEED,
            "coverage_seed": COVERAGE_SEED,
            "weak_iv_seed": WEAK_IV_SEED,
        },
        "base_dgp": BASE_DGP,
        "dr_suite": {
            "replications": 500,
            "n": 2000,
            "seed": SUITE_SEED,
            "true_ate": suite["both_correct"].true_ate,
            "scenarios": {name: summarize(rep) for name, rep in suite.items()},
        },
        "coverage_run": {
            "replications": 1000,
            "n": 2000,
            "seed": COVERAGE_SEED,
            "scenario": "both_correct",
            "rows": summarize(coverage),
        },
        "weak_iv": {
            "n": 2000,
            "reps": 200,
            "seed": WEAK_IV_SEED,
            "rows": [
                {
                    "first_stage_strength": r.first_stage_strength,
                    "median_late": r.median_late,
                    "median_ci_width": r.median_ci_width,
                    "median_bias": r.median_bias,
                    "n_failed": r.n_failed,
                }
                for r in weak_iv
            ],
        },
    }

    out = Path(__file__).with_name("dr_calibration.json")
    old = json.loads(out.read_text()) if out.exists() else {}
    if old and _unstamped(old) == _unstamped(json.loads(json.dumps(payload))):
        # no value changed, so the old stamps stay and the file keeps its bytes
        payload["provenance"].update({key: old["provenance"][key] for key in STAMPS})
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    print_changes(out.name, old, json.loads(out.read_text()))
    for name, rep in suite.items():
        aipw_row = next(r for r in rep.rows if r.estimator == "aipw")
        naive_row = next(r for r in rep.rows if r.estimator == "naive")
        print(
            f"{name:13s} aipw bias {aipw_row.bias:+.4f} (mc se {aipw_row.mc_se_mean:.4f})"
            f"  naive bias {naive_row.bias:+.4f}"
        )
    aipw_cov = next(r for r in coverage.rows if r.estimator == "aipw")
    oracle = next(r for r in coverage.rows if r.estimator == "ipw_oracle")
    print(f"aipw coverage {aipw_cov.coverage:.3f}")
    print(f"ipw_oracle bias {oracle.bias:+.4f} (mc se {oracle.mc_se_mean:.4f})")
    for r in weak_iv:
        print(
            f"strength {r.first_stage_strength:.1f}: median width {r.median_ci_width:.4f}"
            f"  median bias {r.median_bias:+.4f}"
        )


if __name__ == "__main__":
    main()
