"""Self-tests of the benchmark's oracles and checks.

    python3 -m pytest perfbench

They need NumPy and pytest, not causalkit, and are not part of the package's
test suite.
"""

import copy
import json
import math
import os

import numpy as np
import pytest

import checks
from checks import CheckFailed
from run import WORKLOADS
from spans import layer_metric_names

HERE = os.path.dirname(os.path.abspath(__file__))

# The 8-point measure on (x, a, y) in {0,1}^3 from the causalkit README.
HAND_NAMES = ("x", "a", "y")
HAND_SUPPORT = np.array([[x, a, y] for x in (0, 1) for a in (0, 1) for y in (0, 1)], dtype=float)
HAND_PROBS = np.array([0.15, 0.10, 0.10, 0.15, 0.10, 0.15, 0.05, 0.20])


def corrupted(report: dict, edit) -> dict:
    bad = copy.deepcopy(report)
    edit(bad)
    return bad


def test_oracle_reproduces_hand_values():
    psi, phi = checks.ate_oracle(HAND_NAMES, HAND_SUPPORT, HAND_PROBS)
    assert psi == pytest.approx(0.2, abs=1e-15)
    assert phi[0] == pytest.approx(0.8, abs=1e-15)  # point (0,0,0)
    assert phi[7] == pytest.approx(0.4, abs=1e-15)  # point (1,1,1)
    assert float(HAND_PROBS @ phi) == pytest.approx(0.0, abs=1e-15)


def eif_report(psi, phi):
    return {
        "support_size": len(phi),
        "psi": psi,
        "phi_numerical": list(phi),
        "central_identity": {"n_scores": 20, "max_gap": 1e-12},
        "r2_check": {"r2": 0.001, "bound": 0.002, "rate_product": 0.001, "satisfied": True},
    }


def test_eif_check_rejects_corrupted_reports():
    psi, phi = checks.ate_oracle(HAND_NAMES, HAND_SUPPORT, HAND_PROBS)
    good = eif_report(psi, phi)
    checks.check_eif_report(good, HAND_PROBS, psi, phi)
    edits = [
        lambda r: r.update(psi=psi + 1e-9),
        lambda r: r["phi_numerical"].__setitem__(3, r["phi_numerical"][3] + 1e-4),
        lambda r: r.update(phi_numerical=[v + 1e-7 for v in r["phi_numerical"]]),
        lambda r: r["central_identity"].update(max_gap=1e-3),
        lambda r: r["r2_check"].update(r2=0.003),
        lambda r: r.update(support_size=7),
    ]
    for edit in edits:
        with pytest.raises(CheckFailed):
            checks.check_eif_report(corrupted(good, edit), HAND_PROBS, psi, phi)


def mc_reports(replications=4, bias=None, coverage=0.95):
    bias = bias or {"both_correct": 0.0, "pi_wrong": 0.01, "mu_wrong": -0.01, "both_wrong": 1.6}
    reports = {}
    for scenario in checks.MC_SCENARIOS:
        rows = [
            {"estimator": name, "n_ok": replications, "n_failed": 0,
             "mean_estimate": 2.0 + bias[scenario], "coverage": coverage}
            for name in ("naive", "ipw", "gformula", "aipw")
        ]
        reports[scenario] = {"rows": rows, "failures": ()}
    return reports


def test_mc_op_check_rejects_corrupted_reports():
    estimators = ("naive", "ipw", "gformula", "aipw")
    good = mc_reports()
    checks.check_mc_op(good, 4, estimators)
    edits = [
        lambda r: r["pi_wrong"]["rows"][3].update(n_ok=3),
        lambda r: r["mu_wrong"]["rows"][1].update(n_failed=1),
        lambda r: r["both_wrong"].update(failures=("rep 0 aipw: singular",)),
        lambda r: r["both_correct"]["rows"].pop(),
        lambda r: r.pop("both_wrong"),
    ]
    for edit in edits:
        with pytest.raises(CheckFailed):
            checks.check_mc_op(corrupted(good, edit), 4, estimators)


def pooled(reports, copies=100):
    pool = checks.AipwPool()
    for _ in range(copies):
        pool.add(reports)
    return pool


def test_mc_pooled_check_rejects_wrong_bias_and_coverage():
    pooled(mc_reports()).check(2.0)
    bad = [
        mc_reports(bias={"both_correct": 0.0, "pi_wrong": 0.06, "mu_wrong": 0.0, "both_wrong": 1.6}),
        mc_reports(bias={"both_correct": 0.02, "pi_wrong": 0.0, "mu_wrong": 0.0, "both_wrong": 0.05}),
        mc_reports(coverage=0.90),
        mc_reports(coverage=0.995),
    ]
    for reports in bad:
        with pytest.raises(CheckFailed):
            pooled(reports).check(2.0)


def simulated(n=50, seed=0):
    gen = np.random.default_rng(seed)
    a = gen.integers(0, 2, n).astype(float)
    y0 = gen.standard_normal(n)
    y1 = y0 + 2.0
    y = np.where(a == 1, y1, y0)
    return {"a": list(a), "y": list(y)}, {"y1": list(y1), "y0": list(y0)}


def test_file_check_rejects_corrupted_files():
    data, truth = simulated()
    checks.check_simulated_files(data, truth, 50)
    with pytest.raises(CheckFailed):
        checks.check_simulated_files(data, truth, 51)
    swapped = copy.deepcopy(data)
    i = swapped["a"].index(1.0)
    swapped["y"][i] = truth["y0"][i]
    with pytest.raises(CheckFailed):
        checks.check_simulated_files(swapped, truth, 50)


def test_read_columns_parses_with_float(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,y\n1,0.1\n0,-2e-3\n")
    assert checks.read_columns(str(path)) == {"a": [1.0, 0.0], "y": [0.1, -0.002]}


def test_naive_check_rejects_corrupted_reports():
    data, _ = simulated()
    a, y = np.array(data["a"]), np.array(data["y"])
    psi = float(y[a == 1].mean()) - float(y[a == 0].mean())
    se = math.sqrt(y[a == 1].var(ddof=1) / (a == 1).sum() + y[a == 0].var(ddof=1) / (a == 0).sum())
    good = {"psi_hat": psi, "se": se, "ci_low": psi - 2 * se, "ci_high": psi + 2 * se, "n": 50}
    checks.check_naive_report(good, data["a"], data["y"])
    edits = [
        lambda r: r.update(psi_hat=psi + 1e-6),
        lambda r: r.update(se=se * 1.01),
        lambda r: r.update(ci_high=psi - se),
        lambda r: r.update(n=49),
    ]
    for edit in edits:
        with pytest.raises(CheckFailed):
            checks.check_naive_report(corrupted(good, edit), data["a"], data["y"])


def brute_force_greedy(pi, a):
    """The rule as psm_att states it, one argmin per treated unit."""
    treated, controls = np.flatnonzero(a == 1), np.flatnonzero(a == 0)
    free = np.ones(controls.size, dtype=bool)
    matches = []
    for t in treated:
        if not free.any():
            break
        dist = np.where(free, np.abs(pi[controls] - pi[t]), np.inf)
        best = int(np.argmin(dist))
        matches.append((int(t), int(controls[best])))
        free[best] = False
    return matches


@pytest.mark.parametrize("seed", range(20))
def test_greedy_match_equals_brute_force(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(5, 80))
    # coarse propensities force ties within and across sides
    pi = gen.integers(1, 12, n) / 12.0 if seed % 2 else gen.uniform(0.05, 0.95, n)
    a = (gen.uniform(size=n) < gen.uniform(0.2, 0.8)).astype(int)
    assert checks.greedy_match(pi, a) == brute_force_greedy(pi, a)


def test_psm_checks_reject_corrupted_reports():
    good = {"psi_hat": 1.0, "se": 0.1, "ci_low": 0.8, "ci_high": 1.2, "n": 30,
            "diagnostics": {"n_pairs": 10, "unmatched_count": 0}}
    checks.check_psm_report(good, 10, 20)
    checks.check_psm_report(corrupted(good, lambda r: r["diagnostics"].update(n_pairs=12, unmatched_count=6)), 18, 12)
    edits = [
        lambda r: r["diagnostics"].update(n_pairs=9),
        lambda r: r["diagnostics"].update(unmatched_count=1),
        lambda r: r.update(se=0.0),
        lambda r: r.update(ci_low=1.1),
    ]
    for edit in edits:
        with pytest.raises(CheckFailed):
            checks.check_psm_report(corrupted(good, edit), 10, 20)

    gen = np.random.default_rng(1)
    pi, a, y = gen.uniform(0.1, 0.9, 40), (np.arange(40) % 3 == 0).astype(int), gen.standard_normal(40)
    table = checks.greedy_match(pi, a)
    t, c = np.array(table).T
    psi = float(np.mean(y[t] - y[c]))
    checks.check_match_table(table, table, y, psi)
    swapped = [table[1], table[0], *table[2:]]
    with pytest.raises(CheckFailed):
        checks.check_match_table(swapped, table, y, psi)
    with pytest.raises(CheckFailed):
        checks.check_match_table(table[:-1], table, y, psi)
    with pytest.raises(CheckFailed):
        checks.check_match_table(table, table, y, psi + 1e-12)


def test_benchmark_json_names_every_metric_the_runs_print():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == layer_metric_names()
    assert [m["name"] for m in spec["end_to_end"]] == [
        "op_p50_ms", "units_per_s", "cpu_ms_per_op", "peak_rss_mb", "setup_s"
    ]
