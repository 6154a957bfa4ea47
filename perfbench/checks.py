"""Correctness checks and independent oracles for the benchmark workloads.

Nothing here imports causalkit: each check compares a report of the program
against a computation made apart from it (Python's csv and float, plain NumPy)
or against a property the method must have.  A check raises CheckFailed with
the reason; it returns nothing when the output is correct.
"""

from __future__ import annotations

import bisect
import csv
import math

import numpy as np


class CheckFailed(Exception):
    """A program output disagrees with its oracle or a required property."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# mc_dr

MC_SCENARIOS = ("both_correct", "pi_wrong", "mu_wrong", "both_wrong")
MC_BIAS_LIMIT = 0.05
MC_BOTH_WRONG_FACTOR = 3.0
MC_LEVEL = 0.95
# Half-width of the coverage band in binomial standard errors.
MC_COVERAGE_Z = 4.0


def check_mc_op(reports: dict, replications: int, estimators: tuple[str, ...]) -> None:
    """Every estimator in every scenario succeeded in every replication."""
    require(tuple(reports) == MC_SCENARIOS, f"scenarios {tuple(reports)}")
    for scenario, report in reports.items():
        require(not report["failures"], f"{scenario}: failures {report['failures']}")
        names = tuple(row["estimator"] for row in report["rows"])
        require(names == estimators, f"{scenario}: estimators {names}")
        for row in report["rows"]:
            require(
                row["n_ok"] == replications and row["n_failed"] == 0,
                f"{scenario}/{row['estimator']}: n_ok={row['n_ok']} n_failed={row['n_failed']}",
            )


class AipwPool:
    """AIPW estimates and interval hits pooled over every replication of a run."""

    def __init__(self) -> None:
        self.total = {s: 0.0 for s in MC_SCENARIOS}
        self.hits = {s: 0.0 for s in MC_SCENARIOS}
        self.count = {s: 0 for s in MC_SCENARIOS}

    def add(self, reports: dict) -> None:
        for scenario, report in reports.items():
            row = next(r for r in report["rows"] if r["estimator"] == "aipw")
            self.total[scenario] += row["mean_estimate"] * row["n_ok"]
            self.hits[scenario] += row["coverage"] * row["n_ok"]
            self.count[scenario] += row["n_ok"]

    def check(self, true_ate: float) -> None:
        """Bias small unless both nuisances are wrong; coverage in a binomial band."""
        bias = {s: self.total[s] / self.count[s] - true_ate for s in MC_SCENARIOS}
        single = max(abs(bias[s]) for s in MC_SCENARIOS[:3])
        for s in MC_SCENARIOS[:3]:
            require(abs(bias[s]) <= MC_BIAS_LIMIT, f"aipw bias {bias[s]:.4f} in {s}")
        require(
            abs(bias["both_wrong"]) >= MC_BOTH_WRONG_FACTOR * single,
            f"aipw bias {bias['both_wrong']:.4f} in both_wrong is not {MC_BOTH_WRONG_FACTOR}x {single:.4f}",
        )
        n = self.count["both_correct"]
        coverage = self.hits["both_correct"] / n
        half = MC_COVERAGE_Z * math.sqrt(MC_LEVEL * (1 - MC_LEVEL) / n)
        require(
            abs(coverage - MC_LEVEL) <= half,
            f"aipw coverage {coverage:.4f} over {n} replications outside {MC_LEVEL}+-{half:.4f}",
        )


# ---------------------------------------------------------------------------
# CSV files


def read_columns(path: str) -> dict[str, list[float]]:
    """Parse a numeric CSV with the csv module and float()."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader)
        columns = [[] for _ in header]
        for row in reader:
            require(len(row) == len(header), f"{path}: row with {len(row)} cells")
            for column, cell in zip(columns, row):
                column.append(float(cell))
    return dict(zip(header, columns))


def check_simulated_files(data: dict, truth: dict, n: int) -> None:
    """n rows in both files, and y is the potential outcome of the arm received."""
    require(len(data["y"]) == n, f"data file has {len(data['y'])} rows, expected {n}")
    require(len(truth["y1"]) == n, f"truth file has {len(truth['y1'])} rows, expected {n}")
    for i, (a, y, y1, y0) in enumerate(zip(data["a"], data["y"], truth["y1"], truth["y0"])):
        require(a in (0.0, 1.0), f"row {i + 1}: treatment {a}")
        require(y == (y1 if a == 1.0 else y0), f"row {i + 1}: y={y!r} is not y{int(a)}")


def check_interval(report: dict, n: int) -> None:
    """An estimate report over n rows with a positive se and an interval around psi_hat."""
    require(report["n"] == n, f"report n={report['n']}, expected {n}")
    require(report["se"] is not None and report["se"] > 0, f"se {report['se']}")
    require(report["ci_low"] <= report["psi_hat"] <= report["ci_high"], "interval excludes psi_hat")


def check_naive_report(report: dict, a: list[float], y: list[float]) -> None:
    """The difference in arm means and its two-sample standard error, recomputed."""
    a_arr, y_arr = np.asarray(a), np.asarray(y)
    y1, y0 = y_arr[a_arr == 1.0], y_arr[a_arr == 0.0]
    psi = float(y1.mean()) - float(y0.mean())
    se = math.sqrt(float(y1.var(ddof=1)) / y1.size + float(y0.var(ddof=1)) / y0.size)
    check_interval(report, y_arr.size)
    require(math.isclose(report["psi_hat"], psi, rel_tol=1e-12, abs_tol=1e-12),
            f"psi_hat {report['psi_hat']!r} != difference in means {psi!r}")
    require(math.isclose(report["se"], se, rel_tol=1e-9), f"se {report['se']!r} != two-sample se {se!r}")


# ---------------------------------------------------------------------------
# propensity matching


def greedy_match(pi: np.ndarray, a: np.ndarray) -> list[tuple[int, int]]:
    """Greedy 1:1 nearest-propensity matching without replacement or caliper.

    Treated units in index order take the available control with the
    smallest |pi_c - pi_t|, ties to the lowest control index.  Available
    controls are kept sorted by (propensity, index); the nearest ones sit
    next to the treated unit's insertion point, and equal distances form a
    run on each side of it.
    """
    controls = sorted((float(pi[c]), int(c)) for c in np.flatnonzero(a == 0))
    keys = [p for p, _ in controls]
    matches = []
    for t in np.flatnonzero(a == 1):
        if not controls:
            break
        p_t = float(pi[t])
        at = bisect.bisect_left(keys, p_t)
        dist = lambda j: abs(keys[j] - p_t)  # noqa: E731
        best = min(dist(j) for j in (at - 1, at) if 0 <= j < len(keys))
        candidates = []
        j = at - 1
        while j >= 0 and dist(j) == best:
            candidates.append(j)
            j -= 1
        j = at
        while j < len(keys) and dist(j) == best:
            candidates.append(j)
            j += 1
        pick = min(candidates, key=lambda j: controls[j][1])
        matches.append((int(t), controls[pick][1]))
        del controls[pick], keys[pick]
    return matches


def check_psm_report(report: dict, n_treated: int, n_control: int) -> None:
    """Greedy 1:1 matching without caliper matches min(treated, controls) pairs."""
    diag = report["diagnostics"]
    pairs = min(n_treated, n_control)
    require(diag["n_pairs"] == pairs, f"n_pairs {diag['n_pairs']} != {pairs}")
    require(diag["unmatched_count"] == n_treated - pairs,
            f"unmatched_count {diag['unmatched_count']} != {n_treated - pairs}")
    check_interval(report, n_treated + n_control)


def check_match_table(matches: list, oracle: list, y: np.ndarray, psi_hat: float) -> None:
    """The program's match table is the greedy rule's, and psi_hat its mean pair difference."""
    table = [(int(t), int(c)) for t, c in matches]
    require(len(table) == len(oracle), f"{len(table)} pairs, oracle has {len(oracle)}")
    for k, (got, want) in enumerate(zip(table, oracle)):
        require(got == want, f"pair {k}: program {got}, oracle {want}")
    t, c = np.array([p[0] for p in oracle]), np.array([p[1] for p in oracle])
    mean_diff = float(np.mean(y[t] - y[c]))
    require(psi_hat == mean_diff, f"psi_hat {psi_hat!r} != mean pair difference {mean_diff!r}")


# ---------------------------------------------------------------------------
# influence functions

EIF_PSI_TOL = 1e-12
EIF_PHI_TOL = 1e-6
EIF_MEAN_TOL = 1e-8
EIF_GAP_TOL = 1e-6


def ate_oracle(names, support, probs) -> tuple[float, np.ndarray]:
    """ATE and its closed-form influence function from exact cell sums.

    Covariate cells are the distinct values of every coordinate except a and
    y; pi(x) = P(a=1|x), mu_a(x) = E[y|a,x], and
    phi = a(y-mu1)/pi - (1-a)(y-mu0)/(1-pi) + mu1 - mu0 - psi.
    """
    support, probs = np.asarray(support, dtype=float), np.asarray(probs, dtype=float)
    a = support[:, names.index("a")]
    y = support[:, names.index("y")]
    x_cols = [i for i, n in enumerate(names) if n not in ("a", "y")]
    _, cell = np.unique(support[:, x_cols], axis=0, return_inverse=True)
    cell = cell.ravel()
    cells = cell.max() + 1
    p_x = np.bincount(cell, probs, cells)
    p_1x = np.bincount(cell, probs * a, cells)
    p_0x = p_x - p_1x
    mu1 = np.bincount(cell, probs * a * y, cells) / p_1x
    mu0 = np.bincount(cell, probs * (1 - a) * y, cells) / p_0x
    pi = p_1x / p_x
    psi = float(p_x @ (mu1 - mu0))
    phi = (
        a * (y - mu1[cell]) / pi[cell]
        - (1 - a) * (y - mu0[cell]) / (1 - pi[cell])
        + mu1[cell] - mu0[cell] - psi
    )
    return psi, phi


def check_eif_report(report: dict, probs: np.ndarray, psi: float, phi: np.ndarray) -> None:
    """An eif-check report for the ATE against the oracle's psi and phi."""
    require(report["support_size"] == probs.size, f"support_size {report['support_size']}")
    require(abs(report["psi"] - psi) <= EIF_PSI_TOL, f"psi {report['psi']!r} != oracle {psi!r}")
    phi_num = np.asarray(report["phi_numerical"], dtype=float)
    err = float(np.max(np.abs(phi_num - phi)))
    require(err <= EIF_PHI_TOL, f"max |phi_numerical - oracle| = {err:.3g} > {EIF_PHI_TOL}")
    mean = float(probs @ phi_num)
    require(abs(mean) <= EIF_MEAN_TOL, f"p-weighted mean of phi_numerical {mean:.3g}")
    gap = report["central_identity"]["max_gap"]
    require(gap is not None and gap <= EIF_GAP_TOL, f"central identity gap {gap}")
    r2 = report["r2_check"]
    require(r2 is not None and abs(r2["r2"]) <= r2["bound"] + 1e-12, f"|r2| exceeds its bound: {r2}")
