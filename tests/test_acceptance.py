"""Acceptance gate: one pass/fail test per top-level acceptance criterion.

The seven criteria, each with pinned tolerances:

1. Exact finite-sample identities (algebra, not statistics) in under a second.
2. Numerical influence functions match closed forms on an 8-point measure
   (1e-5 pointwise), are mean-zero (1e-8), satisfy the derivative/covariance
   identity for 100 random scores (gap < 1e-5), and factorize additively
   (1e-6).
3. Double robustness at scale: 500 replications of n=2000 with a true effect
   of 2.0 — the cross-fitted doubly robust estimator stays within 0.05 of the
   truth when either nuisance model is correct, degrades by at least a factor
   of 3 when both are wrong, and the naive estimator's bias is explained by
   the ground-truth error decomposition to within 3 Monte Carlo standard
   errors.
4. Inference: 95% CI coverage of the doubly robust estimator lies in
   [0.92, 0.97] over 1000 replications, and oracle-weighted IPW is unbiased
   to within 3 Monte Carlo standard errors.
5. The second-order remainder vanishes exactly under single robustness and
   never exceeds its Cauchy-Schwarz bound across 1000 randomized measure
   pairs.
6. Weak instruments: median CI width strictly decreases and median absolute
   bias weakly decreases (up to a small Monte Carlo band) as first-stage
   strength grows.
7. Determinism: every CLI subcommand, re-run with the same configuration and
   seed, emits byte-identical reports.

Criteria 3, 4, and 6 re-run the exact studies whose results are frozen in
tests/golden/dr_calibration.json and additionally assert bit-for-bit
agreement with the frozen numbers.  If estimator internals change on
purpose, regenerate that file with tests/golden/regenerate_dr_calibration.py
and include the regenerated output in the same commit.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from causalkit import (
    Ate,
    CondMean,
    CounterfactualMean,
    DiscreteMeasure,
    GroundTruth,
    IvDataset,
    Mean,
    McConfig,
    NuisanceFit,
    ObsDgpConfig,
    ObservationalDataset,
    PanelDataset,
    RdSpec,
    aipw,
    central_identity_check,
    closed_form_eif,
    did,
    eif_table,
    error_decomposition,
    factorize_score,
    fe_within,
    generate_observational,
    g_formula,
    ipw,
    iv_wald,
    make_folds,
    naive_dim,
    pathwise_derivative,
    random_score,
    rd_local_linear,
    run_mc,
    second_order_remainder,
    dr_suite,
    tsls,
    weak_iv_study,
)
from causalkit.rng import child_seed, stream

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "dr_calibration.json").read_text()
)

NAMES = ("x", "a", "y")
GRID = np.array(
    [[x, a, y] for x in (0.0, 1.0) for a in (0.0, 1.0) for y in (0.0, 1.0)]
)
PROBS = np.array([0.15, 0.10, 0.10, 0.15, 0.10, 0.15, 0.05, 0.20])


def hand_measure() -> DiscreteMeasure:
    return DiscreteMeasure(names=NAMES, support=GRID, probs=PROBS)


def random_measure(seed: int, floor_weight: float = 0.4) -> DiscreteMeasure:
    rng = stream(seed)
    probs = floor_weight / 8.0 + (1.0 - floor_weight) * rng.dirichlet(np.ones(8))
    return DiscreteMeasure(names=NAMES, support=GRID, probs=probs)


def test_criterion_1_exact_finite_sample_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)

    # (a) The doubly robust estimator with an all-zero outcome model is the
    # Horvitz-Thompson IPW estimator, unit by unit.
    n = 40
    ds = ObservationalDataset(
        x=rng.normal(size=(n, 2)),
        a=np.r_[1, 0, rng.integers(0, 2, n - 2)],
        y=rng.normal(size=n) * 3.0,
    )
    pi_hat = rng.uniform(0.2, 0.8, size=n)
    zero_fit = NuisanceFit(
        pi_hat=pi_hat,
        mu0_hat=np.zeros(n),
        mu1_hat=np.zeros(n),
        folds=make_folds(n, 2, 0),
        clip_lo=0.01,
        clip_hi=0.99,
    )
    dr = aipw(ds, zero_fit)
    ht = ipw(ds, pi_hat, "horvitz_thompson")
    np.testing.assert_allclose(
        dr.eif + dr.psi_hat, ht.eif + ht.psi_hat, rtol=1e-12, atol=1e-12
    )
    assert dr.psi_hat == pytest.approx(ht.psi_hat, rel=1e-12)

    # (b) Hajek IPW with constant weights collapses to the naive difference
    # in means.
    const_pi = np.full(n, 0.37)
    assert ipw(ds, const_pi, "hajek").psi_hat == pytest.approx(
        naive_dim(ds).psi_hat, rel=1e-12
    )

    # (c) The Wald ratio equals just-identified two-stage least squares.
    z = np.r_[0, 1, rng.integers(0, 2, 198)]
    complier = rng.random(200) < 0.6
    a_iv = np.where(complier, z, rng.integers(0, 2, 200))
    y_iv = 2.0 * a_iv + rng.normal(size=200)
    iv_ds = IvDataset(z=z, a=a_iv, y=y_iv)
    assert iv_wald(iv_ds).psi_hat == pytest.approx(tsls(iv_ds).psi_hat, abs=1e-10)

    # (d) The within transform reproduces dummy-variable OLS (estimate and
    # standard error) on a 6-unit panel with one never-treated unit.
    n_units, n_periods = 6, 4
    unit = np.repeat(np.arange(n_units), n_periods)
    period = np.tile(np.arange(n_periods), n_units)
    a_fe = (rng.random(n_units * n_periods) < 0.5).astype(int)
    a_fe[unit == 5] = 0
    a_fe[0], a_fe[1] = 0, 1  # guarantee within-unit variation somewhere
    alpha = rng.normal(size=n_units)
    y_fe = alpha[unit] + 1.7 * a_fe + rng.normal(size=n_units * n_periods)
    panel = PanelDataset(
        unit_id=unit,
        period_id=period,
        a=a_fe,
        y=y_fe,
        group=np.ones(n_units * n_periods, dtype=int),
    )
    est_fe = fe_within(panel)
    dummies = np.equal.outer(unit, np.arange(n_units)).astype(float)
    design = np.column_stack([dummies, a_fe.astype(float)])
    beta, *_ = np.linalg.lstsq(design, y_fe, rcond=None)
    resid = y_fe - design @ beta
    df = len(y_fe) - n_units - 1
    cov = (resid @ resid / df) * np.linalg.inv(design.T @ design)
    assert est_fe.psi_hat == pytest.approx(beta[-1], abs=1e-8)
    assert est_fe.se == pytest.approx(np.sqrt(cov[-1, -1]), abs=1e-8)

    # (e) The difference-in-differences estimate is recomputable from its own
    # reported cell means, bit for bit.
    did_panel = PanelDataset(
        unit_id=np.repeat(np.arange(10), 2),
        period_id=np.tile([0, 1], 10),
        a=(np.repeat(np.arange(10), 2) % 2 == 1) & (np.tile([0, 1], 10) == 1),
        y=rng.normal(size=20),
        group=np.repeat(np.arange(10) % 2, 2),
    )
    est_did = did(did_panel)
    m00, m01, m10, m11 = est_did.diagnostics["cell_means"]
    assert est_did.psi_hat == (m11 - m10) - (m01 - m00)

    # (f) Rectangular-kernel local-linear RD equals two windowed OLS fits.
    x_rd = rng.uniform(-1, 1, size=200)
    y_rd = np.where(x_rd >= 0, 2.0 + x_rd, 0.5 * x_rd) + rng.normal(size=200)
    rd_ds = ObservationalDataset(
        x=x_rd.reshape(-1, 1), a=(x_rd >= 0).astype(int), y=y_rd
    )
    h = 0.4
    est_rd = rd_local_linear(rd_ds, RdSpec(cutoff=0.0, bandwidth=h))
    jumps = []
    for side in (x_rd < 0, x_rd >= 0):
        mask = side & (np.abs(x_rd) <= h)
        dmat = np.column_stack([np.ones(mask.sum()), x_rd[mask]])
        beta_rd, *_ = np.linalg.lstsq(dmat, y_rd[mask], rcond=None)
        jumps.append(beta_rd[0])
    assert est_rd.psi_hat == pytest.approx(jumps[1] - jumps[0], abs=1e-10)

    # (g) The naive-gap decomposition is additive on the 4-unit hand dataset.
    ds4 = ObservationalDataset(
        x=np.zeros((4, 0)), a=[1, 1, 0, 0], y=[3.0, 3.0, 0.0, 0.0]
    )
    truth4 = GroundTruth(y1=[3.0, 3.0, 2.0, 2.0], y0=[1.0, 1.0, 0.0, 0.0])
    dec = error_decomposition(ds4, truth4)
    assert dec.total_gap == pytest.approx(
        dec.baseline_diff + dec.het_term, abs=1e-10
    )
    assert dec.total_gap == pytest.approx(1.0, abs=1e-10)

    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_influence_functions_match_closed_forms():
    t0 = time.perf_counter()
    p = hand_measure()
    assert p.probs.min() >= 0.05

    functionals = (
        Mean("y"),
        CondMean("y", (("a", 1.0),)),
        CounterfactualMean(1),
        CounterfactualMean(0),
        Ate(),
    )
    for f in functionals:
        phi_num, _ = eif_table(f, p)
        phi_closed = closed_form_eif(f, p)
        assert np.max(np.abs(phi_num - phi_closed)) < 1e-5
        assert abs(float(p.probs @ phi_num)) < 1e-8

    # Derivative/covariance identity for 100 random scores on the contrast.
    f = Ate()
    for seed in range(100):
        rep = central_identity_check(f, p, random_score(p, stream(seed)))
        assert rep.gap < 1e-5

    # Factorizing a score must split its derivative additively.
    for seed in range(10):
        s = random_score(p, stream(1000 + seed))
        marg, resid = factorize_score(p, s, given=("x",))
        whole = pathwise_derivative(f, p, s)
        parts = pathwise_derivative(f, p, marg) + pathwise_derivative(f, p, resid)
        assert whole == pytest.approx(parts, abs=1e-6)

    assert time.perf_counter() - t0 < 10.0


def test_criterion_3_double_robustness_at_scale():
    run = GOLDEN["dr_suite"]
    base = ObsDgpConfig(**GOLDEN["base_dgp"])
    suite = dr_suite(
        base,
        replications=run["replications"],
        n=run["n"],
        seed=run["seed"],
        estimators=("naive", "aipw"),
    )
    biases = {
        name: next(r for r in rep.rows if r.estimator == "aipw").bias
        for name, rep in suite.items()
    }

    # Fresh runs must reproduce the frozen calibration bit for bit.
    for name, rep in suite.items():
        frozen = run["scenarios"][name]
        for row in rep.rows:
            assert row.bias == frozen[row.estimator]["bias"], (name, row.estimator)

    # Double robustness: fine when either nuisance is right, broken when
    # both are wrong.
    for scenario in ("both_correct", "pi_wrong", "mu_wrong"):
        assert abs(biases[scenario]) < 0.05, scenario
    assert abs(biases["both_wrong"]) >= 3.0 * abs(biases["both_correct"])

    # The naive estimator's bias is what the ground-truth decomposition says
    # it must be: regenerate the identical replication datasets and compare.
    naive_row = next(
        r for r in suite["both_correct"].rows if r.estimator == "naive"
    )
    predicted = []
    for r in range(run["replications"]):
        ds, truth = generate_observational(base, seed=child_seed(run["seed"], r))
        dec = error_decomposition(ds, truth)
        predicted.append(dec.sample_ate + dec.total_gap)
    predicted_bias = float(np.mean(predicted)) - suite["both_correct"].true_ate
    assert abs(predicted_bias - naive_row.bias) < 3.0 * naive_row.mc_se_mean


def test_criterion_4_coverage_and_oracle_unbiasedness():
    run = GOLDEN["coverage_run"]
    base = ObsDgpConfig(**GOLDEN["base_dgp"])
    report = run_mc(
        McConfig(
            dgp=replace(base, n=run["n"]),
            estimators=("aipw", "ipw_oracle"),
            replications=run["replications"],
            seed=run["seed"],
            scenario=run["scenario"],
        )
    )
    rows = {r.estimator: r for r in report.rows}

    for name, row in rows.items():
        assert row.bias == run["rows"][name]["bias"], name
        assert row.coverage == run["rows"][name]["coverage"], name

    assert 0.92 <= rows["aipw"].coverage <= 0.97
    oracle = rows["ipw_oracle"]
    assert abs(oracle.bias) <= 3.0 * oracle.mc_se_mean


def test_criterion_5_second_order_remainder_bound():
    t0 = time.perf_counter()

    # Exactly zero when the propensity is exact...
    p_true = hand_measure()
    exact_pi = DiscreteMeasure(
        names=NAMES,
        support=GRID,
        probs=np.array([0.20, 0.05, 0.05, 0.20, 0.05, 0.20, 0.10, 0.15]),
    )
    assert second_order_remainder(p_true, exact_pi).r2 == 0.0

    # ... and when the outcome model is exact (propensity tilted by scaling
    # an (a, x) block uniformly over y).
    probs = PROBS.copy()
    probs[2:4] *= 0.6
    probs[0:2] += 0.4 * PROBS[2:4].sum() * PROBS[0:2] / PROBS[0:2].sum()
    probs /= probs.sum()
    exact_mu = DiscreteMeasure(names=NAMES, support=GRID, probs=probs)
    assert abs(second_order_remainder(p_true, exact_mu).r2) < 1e-12

    # The Cauchy-Schwarz bound must hold with zero violations across 1000
    # randomized measure pairs (masses down to 0.02).
    violations = 0
    for i in range(1000):
        pt = random_measure(2 * i, floor_weight=0.16)
        pe = random_measure(2 * i + 1, floor_weight=0.16)
        res = second_order_remainder(pt, pe)
        if abs(res.r2) > res.bound + 1e-12:
            violations += 1
    assert violations == 0

    assert time.perf_counter() - t0 < 10.0


def test_criterion_6_weak_instrument_monotonicity():
    run = GOLDEN["weak_iv"]
    strengths = tuple(r["first_stage_strength"] for r in run["rows"])
    rows = weak_iv_study(strengths, n=run["n"], reps=run["reps"], seed=run["seed"])

    for row, frozen in zip(rows, run["rows"]):
        assert row.median_ci_width == frozen["median_ci_width"]
        assert row.median_bias == frozen["median_bias"]

    widths = [r.median_ci_width for r in rows]
    assert all(w2 < w1 for w1, w2 in zip(widths, widths[1:]))

    # Median absolute bias may wiggle within Monte Carlo noise but must not
    # grow with instrument strength beyond that band.
    MC_BAND = 0.01
    abs_bias = [abs(r.median_bias) for r in rows]
    assert all(b2 <= b1 + MC_BAND for b1, b2 in zip(abs_bias, abs_bias[1:]))


MEASURE_CSV = (
    "x,a,y,prob\n"
    "0,0,0,0.15\n0,0,1,0.1\n0,1,0,0.1\n0,1,1,0.15\n"
    "1,0,0,0.1\n1,0,1,0.15\n1,1,0,0.05\n1,1,1,0.2\n"
)


def test_criterion_7_cli_reports_are_deterministic(tmp_path, capsys):
    from causalkit.cli import main

    def run(*argv):
        code = main(list(argv))
        assert code == 0, argv
        return capsys.readouterr().out.encode()

    measure = tmp_path / "m.csv"
    measure.write_text(MEASURE_CSV)
    config = tmp_path / "run.cfg"
    config.write_text("crossfit.k = 3\ncrossfit.clip = 0.02,0.98\n")

    # Both attempts use the same file paths (the second overwrites the
    # first), so every byte of every report must match, path echoes included.
    data = tmp_path / "obs.csv"
    truth = tmp_path / "truth.csv"
    est_out = tmp_path / "est.json"
    mc_out = tmp_path / "mc.json"
    mc_csv = tmp_path / "mc.csv"
    eif_out = tmp_path / "eif.json"

    outputs: dict[str, list[tuple[bytes, ...]]] = {}
    for attempt in ("first", "second"):
        stdout_sim = run(
            "simulate", "--dgp", "obs", "--n", "120", "--d", "2",
            "--confounding", "0.5", "--tau", "2.0", "--seed", "9",
            "--out", str(data), "--truth-out", str(truth),
        )

        stdout_est = run(
            "estimate", "--input", str(data), "--method", "aipw",
            "--config", str(config), "--seed", "4", "--out", str(est_out),
        )

        stdout_mc = run(
            "montecarlo", "--reps", "6", "--n", "80", "--seed", "3",
            "--estimators", "naive,aipw", "--k", "3",
            "--out", str(mc_out), "--csv", str(mc_csv),
        )

        stdout_eif = run(
            "eif-check", "--measure", str(measure), "--functional", "ate",
            "--scores", "5", "--seed", "2", "--out", str(eif_out),
        )

        outputs[attempt] = [
            (data.read_bytes(), truth.read_bytes(), stdout_sim),
            (est_out.read_bytes(), stdout_est),
            (mc_out.read_bytes(), mc_csv.read_bytes(), stdout_mc),
            (eif_out.read_bytes(), stdout_eif),
        ]

    assert outputs["first"] == outputs["second"]
