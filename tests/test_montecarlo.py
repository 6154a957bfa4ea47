"""Replicated-simulation harness: aggregation identities and reproducibility.

The 4-unit decomposition oracle: treated units have (y1, y0) = (3, 1) twice,
controls have (2, 0) twice.  Arm-conditional potential-outcome means are
a1=3, a2=2, a3=1, a4=0 with treated share 0.5; the sample effect is
mean(y1) - mean(y0) = 2.  Hence observed gap 3 - 0 = 3 overshoots by 1,
entirely from the baseline difference a3 - a4 = 1; the heterogeneity term
(1 - 0.5) * ((3-1) - (2-0)) is zero.
"""

import dataclasses

import numpy as np
import pytest

from causalkit import (
    GroundTruth,
    IvDgpConfig,
    MatchSpec,
    McConfig,
    ObsDgpConfig,
    ObservationalDataset,
    PanelDgpConfig,
    RdDgpConfig,
    cross_fit,
    dr_suite,
    error_decomposition,
    generate_observational,
    make_folds,
    naive_dim,
    psm_att,
    run_mc,
    scenario_feature_maps,
    summarize_estimator,
    weak_iv_study,
)
from causalkit import dgp, methods, montecarlo, nuisance
from causalkit.errors import CausalKitError, ConfigError, EstimationError, IdentificationError
from causalkit.rng import child_seed


class TestSummarizeEstimator:
    def test_two_value_oracle(self):
        s = summarize_estimator("e", values=[1.0, 3.0], true_value=2.0)
        assert s.mean_estimate == 2.0
        assert s.bias == 0.0
        assert s.variance == 1.0
        assert s.mse == 1.0
        assert s.mc_se_mean == 1.0

    def test_mse_identity_exact(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=101) * 3 + 1
        s = summarize_estimator("e", values=values, true_value=0.7)
        assert s.mse == s.variance + s.bias**2

    def test_identical_values_have_zero_variance(self):
        s = summarize_estimator("e", values=[2.5] * 8, true_value=2.0)
        assert s.variance == 0.0
        assert s.bias == 0.5
        assert s.mse == 0.25

    def test_coverage_fraction(self):
        s = summarize_estimator(
            "e", values=[1.0, 2.0], true_value=1.5, covered=[True, False, True, True]
        )
        assert s.coverage == 0.75

    def test_empty_values_rejected(self):
        with pytest.raises(EstimationError):
            summarize_estimator("e", values=[], true_value=0.0)


class TestErrorDecomposition:
    def test_four_unit_oracle(self):
        ds = ObservationalDataset(
            x=np.zeros((4, 0)), a=[1, 1, 0, 0], y=[3.0, 3.0, 0.0, 0.0]
        )
        truth = GroundTruth(y1=[3.0, 3.0, 2.0, 2.0], y0=[1.0, 1.0, 0.0, 0.0])
        dec = error_decomposition(ds, truth)
        assert dec.alpha1 == 3.0
        assert dec.alpha2 == 2.0
        assert dec.alpha3 == 1.0
        assert dec.alpha4 == 0.0
        assert dec.rho == 0.5
        assert dec.sample_ate == 2.0
        assert dec.total_gap == pytest.approx(1.0, abs=1e-12)
        assert dec.baseline_diff == pytest.approx(1.0, abs=1e-12)
        assert dec.het_term == pytest.approx(0.0, abs=1e-12)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            n = 40
            y1 = rng.normal(size=n) + 2
            y0 = rng.normal(size=n)
            a = rng.integers(0, 2, size=n)
            if a.sum() in (0, n):
                a[0] = 1 - a[0]
            ds = ObservationalDataset(
                x=np.zeros((n, 0)), a=a, y=np.where(a == 1, y1, y0)
            )
            truth = GroundTruth(y1=y1, y0=y0)
            dec = error_decomposition(ds, truth)
            assert dec.total_gap == pytest.approx(
                dec.baseline_diff + dec.het_term, abs=1e-12
            )

    def test_observed_gap_matches_naive(self):
        cfg = ObsDgpConfig(n=300, d=2, confounding_strength=1.0, tau=2.0)
        from causalkit import generate_observational

        ds, truth = generate_observational(cfg, 4)
        dec = error_decomposition(ds, truth)
        naive = naive_dim(ds).psi_hat
        assert naive == pytest.approx(dec.sample_ate + dec.total_gap, abs=1e-10)


class TestScenarioFeatureMaps:
    def test_table(self):
        lin = ObsDgpConfig(n=10, propensity_form="linear", outcome_form="linear")
        quad = ObsDgpConfig(
            n=10,
            propensity_form="linear_plus_quadratic",
            outcome_form="linear_plus_quadratic",
        )
        assert scenario_feature_maps(lin, "both_correct") == ("linear", "linear")
        assert scenario_feature_maps(lin, "pi_wrong") == ("linear_plus_quadratic", "linear")
        assert scenario_feature_maps(quad, "both_correct") == (
            "linear_plus_quadratic",
            "linear_plus_quadratic",
        )
        assert scenario_feature_maps(quad, "mu_wrong") == (
            "linear_plus_quadratic",
            "linear",
        )
        assert scenario_feature_maps(quad, "both_wrong") == ("linear", "linear")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            scenario_feature_maps(ObsDgpConfig(n=10), "sideways")


BASE = ObsDgpConfig(n=200, d=1, confounding_strength=0.5, tau=1.0)


class TestRunMc:
    def test_deterministic(self):
        cfg = McConfig(dgp=BASE, estimators=("naive", "aipw"), replications=4, seed=9)
        r1 = run_mc(cfg)
        r2 = run_mc(cfg)
        assert r1 == r2

    def test_estimator_subsets_share_replication_streams(self):
        full = McConfig(dgp=BASE, estimators=("naive", "aipw"), replications=4, seed=3)
        solo = dataclasses.replace(full, estimators=("naive",))
        row_full = next(r for r in run_mc(full).rows if r.estimator == "naive")
        row_solo = run_mc(solo).rows[0]
        assert row_full.mean_estimate == row_solo.mean_estimate

    def test_report_shape(self):
        cfg = McConfig(
            dgp=dataclasses.replace(BASE, n=150, tau=2.0),
            estimators=("naive", "ipw", "ipw_oracle", "gformula", "aipw"),
            replications=3,
            seed=0,
        )
        report = run_mc(cfg)
        assert report.true_ate == 2.0
        assert report.n == 150
        assert [r.estimator for r in report.rows] == list(cfg.estimators)
        aipw_row = next(r for r in report.rows if r.estimator == "aipw")
        assert aipw_row.n_ok == 3
        assert aipw_row.mean_clip_count is not None
        naive_row = next(r for r in report.rows if r.estimator == "naive")
        assert naive_row.mean_clip_count is None

    def test_psm_runs_and_reports_unmatched(self):
        cfg = McConfig(dgp=dataclasses.replace(BASE, n=120), estimators=("psm",), replications=3, seed=2)
        report = run_mc(cfg)
        assert report.n == 120
        assert report.rows[0].mean_unmatched is not None

    def test_psm_is_scored_against_the_att(self):
        # with tau_x set the treated units' mean effect exceeds tau, so the ATT
        # psm estimates differs from the ATE the other rows are scored against
        obs = ObsDgpConfig(n=1000, d=1, confounding_strength=0.2, tau=2.0, tau_x=(1.0,))
        report = run_mc(McConfig(dgp=obs, estimators=("psm", "aipw"), replications=20, seed=1))
        atts, hits = [], []
        for r in range(20):
            data, truth = generate_observational(obs, child_seed(1, r))
            atts.append(float(np.mean((truth.y1 - truth.y0)[data.a == 1])))
            fit = cross_fit(data, seed=child_seed(1, r, 1))
            est, _ = psm_att(data, fit.pi_hat, MatchSpec())
            hits.append(est.ci_low <= atts[-1] <= est.ci_high)
        psm, aipw_row = report.rows
        assert np.mean(atts) > 2.05
        assert report.true_ate == 2.0
        assert psm.bias == pytest.approx(psm.mean_estimate - np.mean(atts), abs=1e-12)
        # each replication against its own ATT: 16 of 20 intervals cover it, 6 cover tau
        assert psm.coverage == np.mean(hits) == 0.8
        assert aipw_row.bias == aipw_row.mean_estimate - 2.0

    def test_failure_ceiling_enforced(self):
        # at n=4 with 2 folds most draws leave a training half single-armed,
        # so cross-fitting fails in well over a tenth of replications
        bad = ObsDgpConfig(n=4, d=1, confounding_strength=0.0, tau=0.0)
        cfg = McConfig(dgp=bad, estimators=("aipw",), replications=5, k=2, seed=0)
        with pytest.raises(EstimationError, match="fail"):
            run_mc(cfg)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            McConfig(dgp=BASE, estimators=("nope",), replications=3)
        with pytest.raises(ConfigError):
            McConfig(dgp=BASE, replications=1)
        with pytest.raises(ConfigError):
            McConfig(dgp=BASE, replications=3, scenario="weird")
        with pytest.raises(ConfigError, match=r"confidence level must lie in \(0, 1\), got 1.5"):
            McConfig(dgp=BASE, replications=3, level=1.5)
        with pytest.raises(ConfigError, match="n must be >= 2"):
            McConfig(dgp=dataclasses.replace(BASE, n=1), replications=3)

    def test_a_fractional_seed_is_rejected_not_truncated(self):
        with pytest.raises(ConfigError, match=r"^seed must be an integer, got 1\.5$"):
            run_mc(McConfig(dgp=BASE, estimators=("naive",), replications=2, seed=1.5))

    @pytest.mark.parametrize("bad", [dict(k=1), dict(clip=(0.5, 0.4))])
    def test_bad_fold_settings_raise_in_the_first_replication(self, bad, monkeypatch):
        draws = []
        draw = dgp.generate_observational

        def counted(*args):
            draws.append(args)
            return draw(*args)

        monkeypatch.setattr(dgp, "generate_observational", counted)
        cfg = McConfig(dgp=BASE, estimators=("naive", "aipw"), replications=3, **bad)
        with pytest.raises(ConfigError, match="k must satisfy|clip bounds"):
            run_mc(cfg)
        assert len(draws) == 1

    def test_repeated_estimator_is_rejected_before_any_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a dataset was drawn")

        monkeypatch.setattr(dgp, "generate_observational", no_draw)
        # accepted, it would report two identical naive rows
        with pytest.raises(ConfigError, match=r"estimator list \['naive', 'naive'\] names a method more than once"):
            run_mc(McConfig(dgp=ObsDgpConfig(n=200), estimators=("naive", "naive"), replications=3))


class TestDrSuite:
    def test_scenarios_share_data_streams(self):
        base = ObsDgpConfig(
            n=100,
            d=1,
            confounding_strength=0.5,
            tau=1.0,
            outcome_form="linear_plus_quadratic",
            propensity_form="linear_plus_quadratic",
        )
        suite = dr_suite(base, replications=3, n=100, seed=7, estimators=("naive", "aipw"))
        assert set(suite) == {"both_correct", "pi_wrong", "mu_wrong", "both_wrong"}
        naive_rows = {
            k: next(r for r in rep.rows if r.estimator == "naive")
            for k, rep in suite.items()
        }
        # naive ignores the nuisance models, so its row is identical across
        # scenarios precisely because the data streams are shared
        means = {r.mean_estimate for r in naive_rows.values()}
        assert len(means) == 1

    # (base DGP, dr_suite arguments): a clean run, and a small unpenalized one
    # in which the quadratic outcome fits (both_correct's and pi_wrong's) are
    # rank deficient in some replications while mu_wrong's fit succeeds
    SUITES = {
        "clean": (
            ObsDgpConfig(n=300, d=2, confounding_strength=0.5, tau=2.0,
                         outcome_form="linear_plus_quadratic",
                         propensity_form="linear_plus_quadratic"),
            dict(replications=4, n=300, seed=3),
        ),
        "failing": (
            ObsDgpConfig(n=30, d=2, confounding_strength=1.5, tau=1.0,
                         outcome_form="linear_plus_quadratic",
                         propensity_form="linear_plus_quadratic"),
            dict(replications=40, n=30, seed=1, propensity_lambda=0.0, outcome_lambda=0.0,
                 estimators=("naive", "ipw", "gformula", "aipw", "psm")),
        ),
    }

    @pytest.mark.parametrize("suite", SUITES)
    def test_equals_four_run_mc_calls(self, suite):
        base, kwargs = self.SUITES[suite]
        reports = dr_suite(base, **kwargs)
        options = {k: v for k, v in kwargs.items() if k not in ("replications", "n")}
        for scenario, report in reports.items():
            alone = run_mc(McConfig(dgp=dataclasses.replace(base, n=kwargs["n"]),
                                    replications=kwargs["replications"], scenario=scenario, **options))
            assert report.rows == alone.rows
            assert report.failures == alone.failures
            assert report == alone
        failed = {s: sum(r.n_failed for r in rep.rows) for s, rep in reports.items()}
        if suite == "failing":
            assert failed["both_correct"] > 0 and failed["mu_wrong"] == 0
        else:
            assert set(failed.values()) == {0}

    def test_one_draw_and_one_fold_shuffle_per_replication(self, monkeypatch):
        results = {name: [] for name in ("generate_observational", "make_folds", "_irls", "_ridge", "naive_dim",
                                         "ipw", "g_formula", "aipw")}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                results[name].append(original(*args, **kwargs))
                return results[name][-1]

            monkeypatch.setattr(module, name, wrapper)

        counted(dgp, "generate_observational")
        # the harness makes the folds and hands them to cross_fit_pairs
        counted(montecarlo, "make_folds")
        for name in ("_irls", "_ridge"):
            counted(nuisance, name)
        for name in ("naive_dim", "ipw", "g_formula", "aipw"):
            counted(methods, name)
        base, kwargs = self.SUITES["clean"]
        dr_suite(base, k=4, **kwargs)
        reps = kwargs["replications"]
        # one fold shuffle, one IRLS per propensity map and one solve per
        # outcome map; each distinct estimate once: naive reads no fit, ipw one
        # propensity map of two, gformula one outcome map of two, aipw both
        assert {name: len(r) for name, r in results.items()} == {
            "generate_observational": reps,
            "make_folds": reps,
            "_irls": 2 * reps,
            "_ridge": 2 * reps,
            "naive_dim": reps,
            "ipw": 2 * reps,
            "g_formula": 2 * reps,
            "aipw": 4 * reps,
        }
        # each IRLS fits one propensity problem per fold, each solve one outcome problem per fold and arm
        assert [len(beta) for beta, _, _ in results["_irls"]] == [4] * (2 * reps)
        assert [len(coef) for coef in results["_ridge"]] == [8] * (2 * reps)

    # 2 failed replications of 20 are within the 10% ceiling, 3 are beyond it
    @pytest.mark.parametrize("failing", [(1, 4), (1, 4, 7)])
    def test_a_raised_error_is_shared_by_the_scenarios_that_read_its_fit(self, failing, monkeypatch):
        draws, calls = [], []
        g_formula = methods.g_formula

        def flaky(data, *args, **kwargs):
            if not draws or draws[-1] is not data:
                draws.append(data)
            r = len(draws) - 1
            calls.append(r)
            # the first call of a replication is for both_correct's outcome map
            if r in failing and calls.count(r) == 1:
                raise IdentificationError("injected")
            return g_formula(data, *args, **kwargs)

        monkeypatch.setattr(methods, "g_formula", flaky)
        base, _ = self.SUITES["clean"]
        kwargs = dict(replications=20, n=200, seed=3, estimators=("naive", "gformula"))
        if len(failing) > 2:
            with pytest.raises(EstimationError, match=r"estimator 'gformula' failed in 3 of 20 replications \(>10%\)"):
                dr_suite(base, **kwargs)
        else:
            suite = dr_suite(base, **kwargs)
            # pi_wrong shares both_correct's outcome map, so it shares the error
            shared = {"both_correct", "pi_wrong"}
            for scenario, report in suite.items():
                naive, gformula = report.rows
                assert naive.n_failed == 0
                if scenario in shared:
                    assert (gformula.n_ok, gformula.n_failed) == (18, 2)
                    assert report.failures_by_class == {"IdentificationError": 2}
                    assert report.failures == ("rep 1 gformula: injected", "rep 4 gformula: injected")
                else:
                    assert (gformula.n_ok, gformula.n_failed) == (20, 0)
                    assert (report.failures_by_class, report.failures) == ({}, ())
        # once per outcome map per replication, a failing one included
        assert calls == [r for r in range(20) for _ in range(2)]

    # the data of each suite's replications, and a binary covariate whose
    # square is itself: unpenalized, the quadratic map's IRLS is singular and
    # its outcome design rank deficient
    @pytest.mark.parametrize("suite", [*SUITES, "collinear"])
    def test_each_pair_fits_as_its_own_cross_fit(self, suite):
        if suite == "collinear":
            g = np.random.default_rng(5)
            x = np.column_stack([g.integers(0, 2, 60), g.normal(size=60)]).astype(float)
            draws = [ObservationalDataset(x=x, a=g.random(60) < 0.5, y=g.normal(size=60))]
            cfg = McConfig(dgp=ObsDgpConfig(n=60), propensity_lambda=0.0, outcome_lambda=0.0, k=3, replications=2)
        else:
            base, kwargs = self.SUITES[suite]
            cfg = McConfig(dgp=dataclasses.replace(base, n=kwargs["n"]),
                           **{k: v for k, v in kwargs.items() if k != "n"})
            draws = [generate_observational(cfg.dgp, child_seed(cfg.seed, r))[0] for r in range(cfg.replications)]
        pairs = [("linear", "linear"), ("linear_plus_quadratic", "linear"), ("linear", "linear_plus_quadratic"),
                 ("linear_plus_quadratic", "linear_plus_quadratic")]
        failed = []
        for r, ds in enumerate(draws):
            seed = child_seed(cfg.seed, r, 1)
            settings = dict(clip=cfg.clip, propensity_lambda=cfg.propensity_lambda, outcome_lambda=cfg.outcome_lambda)
            for pair, got in zip(pairs, nuisance.cross_fit_pairs(ds, pairs, make_folds(ds.n, cfg.k, seed), **settings)):
                try:
                    want = cross_fit(ds, cfg.k, propensity_features=pair[0], outcome_features=pair[1], seed=seed,
                                     **settings)
                except CausalKitError as exc:
                    assert (type(got), str(got)) == (type(exc), str(exc))
                    failed.append((pair, str(exc).split(";")[0]))
                    continue
                for name in ("pi_hat", "mu0_hat", "mu1_hat"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), (pair, name)
                assert np.array_equal(got.folds.fold_index, want.folds.fold_index)
                assert (got.clip_count, got.irls_converged, got.irls_iterations) == (
                    want.clip_count, want.irls_converged, want.irls_iterations)
        singular, deficient = "singular IRLS system", "design matrix is rank deficient"
        quadratic = "linear_plus_quadratic"
        expected = {
            "clean": set(),
            "failing": {(("linear", quadratic), deficient), ((quadratic, quadratic), deficient)},
            # the propensity half fails first, then the outcome half
            "collinear": {((quadratic, "linear"), singular), (("linear", quadratic), deficient),
                          ((quadratic, quadratic), singular)},
        }
        assert set(failed) == expected[suite]


class TestNuisanceCounts:
    def test_irls_counts_once_per_replication_fit(self, monkeypatch):
        monkeypatch.setattr(nuisance, "_MAX_ITER", 1)
        cfg = McConfig(dgp=BASE, estimators=("naive", "ipw", "aipw"), replications=3, k=4)
        report = run_mc(cfg)
        # one IRLS step leaves every fold unconverged, whatever uses the fit
        assert report.nonconverged_folds == 3 * 4
        assert report.irls_iterations == 3 * 4
        assert report.failures_by_class == {}

    def test_converged_fits_and_no_nuisance(self):
        cfg = McConfig(dgp=BASE, estimators=("naive", "aipw"), replications=3, k=4)
        report = run_mc(cfg)
        assert report.nonconverged_folds == 0
        assert report.irls_iterations >= 3 * 4
        naive_only = run_mc(dataclasses.replace(cfg, estimators=("naive",)))
        assert (naive_only.nonconverged_folds, naive_only.irls_iterations) == (0, 0)

    def test_failures_counted_by_error_class(self):
        base, kwargs = TestDrSuite.SUITES["failing"]
        report = run_mc(McConfig(dgp=base, **{k: v for k, v in kwargs.items() if k != "n"}))
        n_failed = sum(r.n_failed for r in report.rows)
        assert report.failures_by_class == {"RankDeficiencyError": n_failed}
        assert len(report.failures) == min(10, n_failed)


# a small DGP of each kind
KIND_DGPS = {
    "obs": ObsDgpConfig(n=200, d=1, confounding_strength=0.5, tau=1.0, tau_x=(0.5,)),
    "iv": IvDgpConfig(n=300, p_always=0.2, p_complier=0.6, p_never=0.2,
                      effect_by_type={"complier": 1.5, "always": 3.0}),
    "panel": PanelDgpConfig(n_units=40, n_periods=3, time_trend=0.5, treatment_effect=1.0),
    "rd": RdDgpConfig(n=300, jump=1.0, slope_left=0.5, slope_right=1.0),
}


class TestOneHarness:
    @pytest.mark.parametrize("name", list(montecarlo.MC_METHODS))
    def test_every_method_runs_on_a_dgp_of_its_kind(self, name):
        method = montecarlo.MC_METHODS[name]
        cfg = McConfig(dgp=KIND_DGPS[method.kind], estimators=(name,), replications=4, seed=3)
        row = run_mc(cfg).rows[0]
        assert (row.estimator, row.n_ok, row.n_failed) == (name, 4, 0)
        # the row is scored against the truth of its own estimand in each draw
        kind = dgp.DGPS[method.kind]
        truths = [kind.estimands[method.estimand](cfg.dgp, kind.generate(cfg.dgp, child_seed(3, r)))
                  for r in range(4)]
        assert row.bias == pytest.approx(row.mean_estimate - np.mean(truths), abs=1e-12)

    def test_rd_estimates_the_jump_at_its_dgps_cutoff(self):
        cfg = McConfig(dgp=RdDgpConfig(n=2000, cutoff=0.5, jump=1.0, slope_left=0.5, slope_right=1.0),
                       estimators=("rd",), replications=50, seed=0)
        # at rd's default cutoff 0 the bias is -1.30
        assert abs(run_mc(cfg).rows[0].bias) <= 0.05

    def test_all_ten_methods_and_the_oracle_are_in_the_table(self):
        assert set(montecarlo.MC_METHODS) == {
            "naive", "ipw", "gformula", "psm", "aipw", "did", "rd", "iv", "tsls", "fe", "ipw_oracle",
        }

    def test_report_truth_is_the_dgps_first_estimand(self):
        report = run_mc(McConfig(dgp=KIND_DGPS["iv"], estimators=("iv", "tsls"), replications=3))
        assert report.true_ate == 1.5
        assert report.n == 300
        panel = run_mc(McConfig(dgp=KIND_DGPS["panel"], estimators=("did", "fe"), replications=3))
        assert (panel.true_ate, panel.n) == (1.0, 40)

    @pytest.mark.parametrize("kind, name", [("obs", "did"), ("iv", "aipw")])
    def test_method_of_another_kind_is_rejected_before_any_draw(self, kind, name, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a dataset was drawn")

        for generator in ("generate_observational", "generate_iv", "generate_panel", "generate_rd"):
            monkeypatch.setattr(dgp, generator, no_draw)
        with pytest.raises(ConfigError, match=f"estimators \\['{name}'\\] are not methods that read {kind} data"):
            run_mc(McConfig(dgp=KIND_DGPS[kind], estimators=(name,), replications=3))

    def test_scenario_needs_feature_map_forms(self):
        with pytest.raises(ConfigError, match="needs feature-map forms"):
            McConfig(dgp=KIND_DGPS["panel"], estimators=("did",), replications=3, scenario="pi_wrong")

    def test_config_of_no_dgp_is_rejected(self):
        with pytest.raises(ConfigError, match="is not the config of a DGP"):
            McConfig(dgp=object(), replications=3)


# the NuisanceFit fields of each half a Method.nuisance names
HALF_FIELDS = {"propensity": ("pi_hat", "clip_count"), "outcome": ("mu0_hat", "mu1_hat")}


def _same_estimate(e, f):
    if (e.psi_hat, e.se, e.ci_low, e.ci_high) != (f.psi_hat, f.se, f.ci_low, f.ci_high):
        return False
    if (e.eif is None) != (f.eif is None) or (e.eif is not None and not np.array_equal(e.eif, f.eif)):
        return False
    return e.diagnostics.keys() == f.diagnostics.keys() and all(
        np.array_equal(e.diagnostics[k], f.diagnostics[k]) for k in e.diagnostics
    )


class TestNuisanceHalves:
    """The harness shares an estimate between fits that agree on the halves its
    method declares, which is sound only if the method reads no other half."""

    @pytest.mark.parametrize("name", [name for name, m in methods.METHODS.items() if m.nuisance])
    def test_estimate_reads_only_the_declared_halves(self, name):
        method = methods.METHODS[name]
        ds, _ = generate_observational(
            ObsDgpConfig(n=400, d=2, confounding_strength=1.0, tau=1.0, outcome_form="linear_plus_quadratic",
                         propensity_form="linear_plus_quadratic"), 5)
        fit = cross_fit(ds, seed=2)
        other = cross_fit(ds, seed=2, propensity_features="linear_plus_quadratic",
                          outcome_features="linear_plus_quadratic")
        want = method.run(ds, fit, 0.95)
        undeclared = [f for half, fields in HALF_FIELDS.items() if half not in method.nuisance for f in fields]
        hybrid = dataclasses.replace(fit, **{f: getattr(other, f) for f in undeclared})
        assert _same_estimate(method.run(ds, hybrid, 0.95), want)
        # and each declared half is read
        for half in method.nuisance:
            swapped = dataclasses.replace(fit, **{f: getattr(other, f) for f in HALF_FIELDS[half]})
            assert method.run(ds, swapped, 0.95).psi_hat != want.psi_hat, half


class TestWeakIvStudy:
    def test_rows_cover_grid_in_order(self):
        rows = weak_iv_study((0.2, 0.8), n=400, reps=20, seed=0)
        assert [r.first_stage_strength for r in rows] == [0.2, 0.8]
        assert rows[1].median_ci_width < rows[0].median_ci_width

    def test_deterministic(self):
        r1 = weak_iv_study((0.5,), n=300, reps=10, seed=4)
        r2 = weak_iv_study((0.5,), n=300, reps=10, seed=4)
        assert r1[0].median_late == r2[0].median_late

    def test_invalid_grid_rejected(self):
        with pytest.raises(ConfigError):
            weak_iv_study((), n=100, reps=5)
        with pytest.raises(ConfigError):
            weak_iv_study((0.0, 0.5), n=100, reps=5)
