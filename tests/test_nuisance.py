"""Nuisance learners and cross-fitting: hand oracles and structural checks.

Oracle values are frozen from hand derivations:
- least squares on (0,0),(1,1),(2,3): normal equations [[3,3],[3,5]]b=[4,7]
  give intercept -1/6, slope 3/2;
- two-point exact interpolation (0,1),(1,3) gives (1, 2);
- intercept-only logistic with mean(a)=1/4 has MLE logit(1/4) = -log 3.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from causalkit import (
    ObsDgpConfig,
    ObservationalDataset,
    apply_feature_map,
    cross_fit,
    fit_linear,
    fit_logistic,
    generate_observational,
    make_folds,
    nuisance,
)
from causalkit.errors import (
    ConfigError,
    FoldError,
    RankDeficiencyError,
    SeparationError,
    ValidationError,
)
from causalkit.nuisance import FoldAssignment, NuisanceFit


class TestFeatureMaps:
    def test_linear_is_identity(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(apply_feature_map(x, "linear"), x)

    def test_quadratic_appends_squares(self):
        x = np.array([[2.0], [-3.0]])
        out = apply_feature_map(x, "linear_plus_quadratic")
        assert np.array_equal(out, np.array([[2.0, 4.0], [-3.0, 9.0]]))

    def test_unknown_map_rejected(self):
        with pytest.raises(ConfigError):
            apply_feature_map(np.zeros((1, 1)), "cubic")


class TestFitLinear:
    def test_three_point_hand_oracle(self):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0.0, 1.0, 3.0])
        model = fit_linear(x, y)
        assert model.coefficients[0] == pytest.approx(-1.0 / 6.0, abs=1e-12)
        assert model.coefficients[1] == pytest.approx(1.5, abs=1e-12)

    def test_two_point_interpolation_exact(self):
        model = fit_linear(np.array([[0.0], [1.0]]), np.array([1.0, 3.0]))
        assert model.coefficients == pytest.approx([1.0, 2.0], abs=1e-12)
        assert model.predict(np.array([[4.0]]))[0] == pytest.approx(9.0, abs=1e-12)

    def test_ridge_vanishing_penalty_matches_ols(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 3))
        y = x @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=50)
        b0 = fit_linear(x, y, ridge_lambda=0.0).coefficients
        b_eps = fit_linear(x, y, ridge_lambda=1e-10).coefficients
        assert np.max(np.abs(b0 - b_eps)) < 1e-6

    def test_penalty_excludes_intercept(self):
        y = np.full(10, 7.0)
        x = np.zeros((10, 0))
        model = fit_linear(x, y, ridge_lambda=100.0)
        assert model.coefficients[0] == pytest.approx(7.0, abs=1e-12)

    def test_ridge_shrinks_slope(self):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0.0, 1.0, 3.0])
        slope_big = fit_linear(x, y, ridge_lambda=10.0).coefficients[1]
        assert abs(slope_big) < 1.5

    def test_rank_deficiency_raises_with_advice(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(RankDeficiencyError, match="ridge_lambda"):
            fit_linear(x, np.array([1.0, 2.0, 3.0]))
        fit_linear(x, np.array([1.0, 2.0, 3.0]), ridge_lambda=1e-6)

    def test_quadratic_features_fit_quadratic_exactly(self):
        x = np.linspace(-2, 2, 9).reshape(-1, 1)
        y = 1.0 + 2.0 * x[:, 0] + 3.0 * x[:, 0] ** 2
        model = fit_linear(x, y, features="linear_plus_quadratic")
        assert np.allclose(model.predict(x), y, atol=1e-10)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigError):
            fit_linear(np.zeros((2, 1)), np.zeros(2), ridge_lambda=-1.0)


class TestFitLogistic:
    def test_intercept_only_hand_oracle(self):
        x = np.zeros((4, 0))
        a = np.array([1, 0, 0, 0])
        model = fit_logistic(x, a)
        assert model.converged
        assert model.coefficients[0] == pytest.approx(-np.log(3.0), abs=1e-8)

    def test_balanced_intercept_is_zero(self):
        model = fit_logistic(np.zeros((4, 0)), np.array([1, 0, 1, 0]))
        assert model.coefficients[0] == pytest.approx(0.0, abs=1e-8)

    def test_gradient_vanishes_at_solution(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(200, 2))
        a = (rng.random(200) < 1.0 / (1.0 + np.exp(-x[:, 0]))).astype(int)
        lam = 1e-3
        model = fit_logistic(x, a, ridge_lambda=lam)
        assert model.converged
        design = np.column_stack([np.ones(200), x])
        p = model.predict_proba(x)
        grad = design.T @ (a - p) - lam * np.concatenate([[0.0], model.coefficients[1:]])
        assert np.max(np.abs(grad)) < 1e-8

    def test_single_class_without_penalty_raises(self):
        with pytest.raises(SeparationError):
            fit_logistic(np.zeros((5, 1)), np.ones(5))

    def test_single_class_with_penalty_fits(self):
        model = fit_logistic(np.zeros((5, 1)), np.ones(5), ridge_lambda=1.0)
        assert np.all(model.predict_proba(np.zeros((3, 1))) > 0.5)

    def test_predictions_strictly_interior(self):
        x = np.array([[-1e6], [1e6], [-1e6], [1e6]], dtype=float)
        a = np.array([0, 1, 0, 1])
        model = fit_logistic(x, a, ridge_lambda=1e-8)
        p = model.predict_proba(np.array([[-1e9], [1e9]]))
        assert np.all(p > 0.0)
        assert np.all(p < 1.0)

    def test_recovers_known_coefficients(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(20000, 1))
        true_eta = 0.5 + 1.2 * x[:, 0]
        a = (rng.random(20000) < 1.0 / (1.0 + np.exp(-true_eta))).astype(int)
        model = fit_logistic(x, a, ridge_lambda=1e-8)
        assert model.coefficients[0] == pytest.approx(0.5, abs=0.08)
        assert model.coefficients[1] == pytest.approx(1.2, abs=0.08)

    def test_converges_at_large_n(self):
        # The summed log-likelihood of 160k units carries rounding noise above
        # any absolute threshold near 1e-12, so an absolute acceptance test
        # halved away every step near the optimum and ran to max_iter.
        ds, _ = generate_observational(ObsDgpConfig(n=200000, d=3, confounding_strength=0.5, tau=2.0), 4)
        train = np.flatnonzero(make_folds(ds.n, 5, seed=2).fold_index != 0)
        model = fit_logistic(ds.x[train], ds.a[train], ridge_lambda=1e-6, max_iter=40)
        assert model.converged
        assert model.iterations <= 10


class TestFolds:
    def test_sizes_differ_by_at_most_one(self):
        folds = make_folds(10, 3, seed=0)
        sizes = sorted(folds.indices(j).size for j in range(3))
        assert sizes == [3, 3, 4]

    def test_partition_is_exact(self):
        folds = make_folds(17, 4, seed=2)
        all_idx = np.concatenate([folds.indices(j) for j in range(4)])
        assert np.array_equal(np.sort(all_idx), np.arange(17))

    def test_deterministic_in_seed(self):
        f1 = make_folds(30, 5, seed=7)
        f2 = make_folds(30, 5, seed=7)
        f3 = make_folds(30, 5, seed=8)
        assert np.array_equal(f1.fold_index, f2.fold_index)
        assert not np.array_equal(f1.fold_index, f3.fold_index)

    def test_bounds_on_k(self):
        with pytest.raises(ConfigError):
            make_folds(10, 1, seed=0)
        with pytest.raises(ConfigError):
            make_folds(3, 4, seed=0)

    def test_fractional_k_is_a_config_error(self):
        # as McConfig(k=2.5) reports it, not a TypeError from np.array_split
        with pytest.raises(ConfigError, match=r"^k must be an integer, got 2\.5$"):
            make_folds(10, 2.5, seed=0)
        with pytest.raises(ConfigError, match=r"^k must be an integer, got 2\.5$"):
            cross_fit(_sim_dataset(), k=2.5)

    def test_negative_label_rejected(self):
        with pytest.raises(ValidationError, match=r"^fold labels must lie in \[0, k\)$"):
            FoldAssignment(fold_index=np.array([-1, 0, 1]), k=2)

    def test_fractional_label_rejected_not_truncated(self):
        with pytest.raises(ValidationError, match="^fold labels must be integers, got dtype float64$"):
            FoldAssignment(np.array([0.5, 1.0]), 2)

    def test_fractional_fold_count_rejected(self):
        with pytest.raises(ValidationError, match=r"^k must be an integer >= 1, got 2\.5$"):
            FoldAssignment(np.array([0, 1, 2]), 2.5)


def _sim_dataset(n=120, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    pi = 1.0 / (1.0 + np.exp(-(0.5 * x[:, 0])))
    a = (rng.random(n) < pi).astype(int)
    y = x @ np.array([1.0, -1.0]) + 2.0 * a + rng.normal(size=n)
    return ObservationalDataset(x=x, a=a, y=y)


class TestCrossFit:
    def test_output_shapes_and_bounds(self):
        ds = _sim_dataset()
        fit = cross_fit(ds, k=4, seed=0)
        assert fit.pi_hat.shape == (120,)
        assert np.all(fit.pi_hat >= 0.01)
        assert np.all(fit.pi_hat <= 0.99)
        assert fit.folds.k == 4

    def test_deterministic_in_seed(self):
        ds = _sim_dataset()
        f1 = cross_fit(ds, seed=5)
        f2 = cross_fit(ds, seed=5)
        assert np.array_equal(f1.pi_hat, f2.pi_hat)
        assert np.array_equal(f1.mu1_hat, f2.mu1_hat)

    def test_out_of_fold_purity(self):
        # Predictions on fold j come from models trained on the complement,
        # so changing outcomes inside fold j must not change fold j's
        # outcome predictions (propensities never see y at all).
        ds = _sim_dataset(seed=3)
        fit = cross_fit(ds, k=3, seed=11)
        j = 0
        idx = fit.folds.indices(j)
        y2 = ds.y.copy()
        y2[idx] += 50.0
        ds2 = ObservationalDataset(x=ds.x, a=ds.a, y=y2)
        fit2 = cross_fit(ds2, k=3, seed=11)
        assert np.array_equal(fit.folds.fold_index, fit2.folds.fold_index)
        assert np.array_equal(fit.mu0_hat[idx], fit2.mu0_hat[idx])
        assert np.array_equal(fit.mu1_hat[idx], fit2.mu1_hat[idx])
        assert np.array_equal(fit.pi_hat, fit2.pi_hat)
        other = np.flatnonzero(fit.folds.fold_index != j)
        assert not np.array_equal(fit.mu1_hat[other], fit2.mu1_hat[other])

    def test_records_irls_outcome_per_fold(self, monkeypatch):
        ds = _sim_dataset()
        fit = cross_fit(ds, k=4, seed=0)
        assert fit.irls_converged == (True,) * 4
        assert len(fit.irls_iterations) == 4
        assert all(it >= 1 for it in fit.irls_iterations)
        monkeypatch.setattr(nuisance, "_MAX_ITER", 1)
        capped = cross_fit(ds, k=4, seed=0)
        assert capped.irls_converged == (False,) * 4
        assert capped.irls_iterations == (1,) * 4

    def test_clipping_records_count(self):
        rng = np.random.default_rng(1)
        x = np.concatenate([np.full(30, -6.0), np.full(30, 6.0)])
        a = np.concatenate([np.zeros(28), np.ones(2), np.ones(28), np.zeros(2)]).astype(int)
        y = rng.normal(size=60)
        ds = ObservationalDataset(x=x.reshape(-1, 1), a=a, y=y)
        fit = cross_fit(ds, k=2, clip=(0.05, 0.95), seed=0)
        assert fit.clip_count > 0
        assert np.all(fit.pi_hat >= 0.05)
        assert np.all(fit.pi_hat <= 0.95)

    def test_missing_arm_in_training_fold_raises(self):
        # One treated unit among four: whichever fold holds it leaves the
        # other fold's training complement with a single class.
        ds = ObservationalDataset(
            x=np.array([[0.0], [1.0], [2.0], [3.0]]),
            a=np.array([1, 0, 0, 0]),
            y=np.array([1.0, 2.0, 3.0, 4.0]),
        )
        with pytest.raises(FoldError, match="fold"):
            cross_fit(ds, k=2, seed=0)

    @pytest.mark.parametrize("k, seed", [(2, 0), (5, 3), (7, 11)])
    def test_pairs_on_made_folds_equal_cross_fit(self, k, seed):
        ds = _sim_dataset(n=203, seed=seed)
        pairs = [(p, o) for p in nuisance.FEATURE_MAPS for o in nuisance.FEATURE_MAPS]
        settings = dict(clip=(0.02, 0.98), propensity_lambda=1e-6, outcome_lambda=1e-8)
        fits = nuisance.cross_fit_pairs(ds, pairs, make_folds(ds.n, k, seed), **settings)
        for pair, got in zip(pairs, fits):
            want = cross_fit(ds, k, seed=seed, propensity_features=pair[0], outcome_features=pair[1], **settings)
            assert np.array_equal(got.folds.fold_index, want.folds.fold_index)
            for name in ("pi_hat", "mu0_hat", "mu1_hat"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (pair, name)
            assert (got.clip_count, got.irls_converged, got.irls_iterations) == (
                want.clip_count, want.irls_converged, want.irls_iterations)

    def test_folds_of_another_length_rejected_before_any_fit(self, monkeypatch):
        monkeypatch.setattr(nuisance, "_irls", lambda *args: pytest.fail("a fit ran"))
        ds = _sim_dataset(n=120)
        with pytest.raises(ValidationError, match="^folds cover 119 units, dataset has 120$"):
            nuisance.cross_fit_pairs(ds, [("linear", "linear")], make_folds(119, 5, seed=0), clip=(0.01, 0.99),
                                     propensity_lambda=1e-6, outcome_lambda=1e-8)

    def test_a_bad_k_wins_over_a_bad_clip(self):
        # the folds are made before cross_fit_pairs reads the clip bounds
        with pytest.raises(ConfigError, match="^k must satisfy 2 <= k <= n, got k=1 with n=120$"):
            cross_fit(_sim_dataset(), k=1, clip=(0.5, 0.4))

    def test_invalid_clip_rejected(self):
        ds = _sim_dataset()
        with pytest.raises(ConfigError):
            cross_fit(ds, clip=(0.5, 0.4))
        with pytest.raises(ConfigError):
            cross_fit(ds, clip=(0.0, 0.99))

    def test_nuisance_fit_validates_bounds(self):
        folds = make_folds(4, 2, seed=0)
        with pytest.raises(ValidationError):
            NuisanceFit(
                pi_hat=np.array([0.5, 0.005, 0.5, 0.5]),
                mu0_hat=np.zeros(4),
                mu1_hat=np.zeros(4),
                folds=folds,
                clip_lo=0.01,
                clip_hi=0.99,
            )

    def test_nuisance_fit_rejects_nan_propensity(self):
        with pytest.raises(ValidationError) as exc:
            NuisanceFit(pi_hat=np.array([0.5, np.nan, 0.5, 0.5]), mu0_hat=np.zeros(4), mu1_hat=np.zeros(4),
                        folds=make_folds(4, 2, seed=0), clip_lo=0.01, clip_hi=0.99)
        assert str(exc.value) == "pi_hat outside clip bounds after clipping"

    @pytest.mark.parametrize("features", nuisance.FEATURE_MAPS)
    def test_memory_stays_bounded(self, features):
        # n = 20000, d = 3, k = 5: the input of perfbench's psm_match workload.
        # Stacking the k folds over all n units at once would hold k times the
        # per-fold temporaries (15 MB here); summing by row blocks keeps the
        # peak near that of fitting one fold at a time (3 MB).
        ds, _ = generate_observational(ObsDgpConfig(n=20000, d=3, confounding_strength=0.5, tau=2.0), 0)
        tracemalloc.start()
        try:
            cross_fit(ds, k=5, seed=1, propensity_features=features, outcome_features=features)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6e6

    def test_quadratic_features_reduce_misspecification(self):
        rng = np.random.default_rng(4)
        n = 2000
        x = rng.normal(size=(n, 1))
        a = (rng.random(n) < 0.5).astype(int)
        y = x[:, 0] ** 2 + 2.0 * a + 0.1 * rng.normal(size=n)
        ds = ObservationalDataset(x=x, a=a, y=y)
        lin = cross_fit(ds, outcome_features="linear", seed=0)
        quad = cross_fit(ds, outcome_features="linear_plus_quadratic", seed=0)
        err_lin = np.mean((np.where(ds.a == 1, lin.mu1_hat, lin.mu0_hat) - ds.y) ** 2)
        err_quad = np.mean((np.where(ds.a == 1, quad.mu1_hat, quad.mu0_hat) - ds.y) ** 2)
        assert err_quad < err_lin / 2

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key", ["propensity_lambda", "outcome_lambda"])
    def test_non_finite_lambda_rejected(self, key, lam):
        with pytest.raises(ConfigError) as exc:
            cross_fit(_sim_dataset(n=60), k=3, **{key: lam})
        assert str(exc.value) == f"ridge_lambda must be finite, got {lam!r}"


def _reference_design(x, features):
    """(n, p): the intercept, then the covariates, then their squares for the quadratic map."""
    columns = [np.ones((len(x), 1)), x] + ([x * x] if features == "linear_plus_quadratic" else [])
    return np.hstack(columns)


def _reference_logistic(design, a, lam, tol, max_iter):
    """Newton's method on the ridge-penalized Bernoulli log-likelihood, one problem.

    A step is halved while the log-likelihood falls below
    ll - 1e-12 max(1, |ll|), down to a scale of 1e-12; convergence is
    max |gradient| < tol.  Returns the coefficients, the convergence flag and
    the steps taken.
    """
    if lam < 0:
        raise ConfigError("ridge_lambda must be >= 0")
    pen = lam * (np.arange(design.shape[1]) > 0)

    def evaluate(beta):
        eta = np.clip(design @ beta, -30.0, 30.0)
        prob = 1.0 / (1.0 + np.exp(-eta))
        ll = a @ eta - np.sum(np.logaddexp(0.0, eta)) - 0.5 * pen @ beta**2
        return ll, design.T @ (a - prob) - pen * beta, prob

    beta = np.zeros(design.shape[1])
    ll, grad, prob = evaluate(beta)
    for it in range(max_iter + 1):
        converged = bool(np.max(np.abs(grad)) < tol)
        if converged or it == max_iter:
            return beta, converged, it
        weight = np.maximum(prob * (1.0 - prob), 1e-10)
        step = np.linalg.solve(design.T @ (weight[:, None] * design) + np.diag(pen), grad)
        floor, scale = ll - 1e-12 * max(1.0, abs(ll)), 1.0
        ll, grad, prob = evaluate(beta + step)
        while ll < floor and scale > 1e-12:
            scale *= 0.5
            ll, grad, prob = evaluate(beta + scale * step)
        beta = beta + scale * step


def _reference_ridge(design, y, lam):
    """Least squares on the design stacked over sqrt(lam) rows that penalize all but the intercept."""
    if lam < 0:
        raise ConfigError("ridge_lambda must be >= 0")
    p = design.shape[1]
    if lam == 0.0 and np.linalg.matrix_rank(design) < p:
        raise RankDeficiencyError("design matrix is rank deficient; set ridge_lambda > 0 or remove redundant columns")
    penalty = np.sqrt(lam) * np.eye(p)[1:]
    beta, *_ = np.linalg.lstsq(np.vstack([design, penalty]), np.concatenate([y, np.zeros(p - 1)]), rcond=None)
    return beta


def _cross_fit_reference(dataset, k=5, *, clip=(0.01, 0.99), propensity_lambda=1e-6, outcome_lambda=1e-8,
                         propensity_features="linear", outcome_features="linear", tol=1e-8, max_iter=100,
                         seed=0):
    """Fold by fold: the three models of fold j fitted on the other folds' rows.

    The oracle for cross_fit, which fits all folds in stacked calls; it
    fits with plain NumPy, not with the package's learners.
    """
    clip_lo, clip_hi = float(clip[0]), float(clip[1])
    n = dataset.n
    folds = make_folds(n, k, seed)
    prop_design = _reference_design(dataset.x, propensity_features)
    out_design = _reference_design(dataset.x, outcome_features)
    pi_raw, mu0, mu1 = np.empty(n), np.empty(n), np.empty(n)
    converged, iterations = [], []
    for j in range(k):
        test, train = folds.indices(j), np.flatnonzero(folds.fold_index != j)
        a_tr = dataset.a[train].astype(float)
        n_treated = int(a_tr.sum())
        if n_treated == 0 or n_treated == train.size:
            missing = "treated" if n_treated == 0 else "control"
            raise FoldError(f"training complement of fold {j} contains no {missing} units")
        beta, ok, steps = _reference_logistic(prop_design[train], a_tr, propensity_lambda, tol, max_iter)
        converged.append(ok)
        iterations.append(steps)
        pi_raw[test] = 1.0 / (1.0 + np.exp(-np.clip(prop_design[test] @ beta, -30.0, 30.0)))
        d_tr, y_tr = out_design[train], dataset.y[train]
        mu1[test] = out_design[test] @ _reference_ridge(d_tr[a_tr == 1], y_tr[a_tr == 1], outcome_lambda)
        mu0[test] = out_design[test] @ _reference_ridge(d_tr[a_tr == 0], y_tr[a_tr == 0], outcome_lambda)
    return NuisanceFit(
        pi_hat=np.clip(pi_raw, clip_lo, clip_hi),
        mu0_hat=mu0,
        mu1_hat=mu1,
        folds=folds,
        clip_lo=clip_lo,
        clip_hi=clip_hi,
        clip_count=int(np.sum((pi_raw < clip_lo) | (pi_raw > clip_hi))),
        irls_converged=tuple(converged),
        irls_iterations=tuple(iterations),
    )


def _heavy_tailed_dataset(n=97, seed=3):
    # Cauchy covariates with quadratic propensity features: Newton steps
    # overshoot, so some folds halve their steps.
    rng = np.random.default_rng(seed)
    x = rng.standard_cauchy(size=(n, 2))
    a = (rng.random(n) < 1.0 / (1.0 + np.exp(-np.clip(x @ np.array([3.0, -2.0]), -30, 30)))).astype(int)
    return ObservationalDataset(x=x, a=a, y=rng.normal(size=n))


class TestCrossFitAgainstReference:
    @staticmethod
    def assert_same_fit(ds, **kwargs):
        # the reference runs IRLS to the package's tolerance and iteration cap
        got = cross_fit(ds, **kwargs)
        want = _cross_fit_reference(ds, tol=nuisance._TOL, max_iter=nuisance._MAX_ITER, **kwargs)
        assert np.array_equal(got.folds.fold_index, want.folds.fold_index)
        assert got.irls_iterations == want.irls_iterations
        assert got.irls_converged == want.irls_converged
        assert got.clip_count == want.clip_count
        for name in ("pi_hat", "mu0_hat", "mu1_hat"):
            g, w = getattr(got, name), getattr(want, name)
            assert np.all(np.abs(g - w) <= 1e-10 * np.maximum(1.0, np.abs(w))), name
        return got

    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    @pytest.mark.parametrize("features", [("linear", "linear"), ("linear_plus_quadratic", "linear"),
                                          ("linear", "linear_plus_quadratic")])
    @pytest.mark.parametrize("outcome_lambda", [0.0, 1e-8])
    def test_folds_feature_maps_and_penalties(self, k, features, outcome_lambda):
        ds = _sim_dataset(n=203, seed=k)
        self.assert_same_fit(ds, k=k, seed=k, propensity_features=features[0],
                             outcome_features=features[1], outcome_lambda=outcome_lambda)

    def test_one_iteration(self, monkeypatch):
        monkeypatch.setattr(nuisance, "_MAX_ITER", 1)
        fit = self.assert_same_fit(_sim_dataset(n=203), k=5)
        assert fit.irls_iterations == (1,) * 5

    def test_step_halving(self, monkeypatch):
        evaluations = []
        one_pass = nuisance._logistic_pass
        monkeypatch.setattr(nuisance, "_logistic_pass", lambda *a: evaluations.append(1) or one_pass(*a))
        fit = self.assert_same_fit(_heavy_tailed_dataset(), k=3, propensity_features="linear_plus_quadratic")
        # one evaluation at the start and one per iteration, unless a step was halved
        assert len(evaluations) > 1 + max(fit.irls_iterations)

    def test_one_hessian_per_newton_step(self, monkeypatch):
        built = []
        grams = nuisance._grams

        def counted(w, d):
            if sys._getframe(1).f_code.co_name == "_irls":
                built.append(len(w))
            return grams(w, d)

        monkeypatch.setattr(nuisance, "_grams", counted)
        # the DGP of perfbench's mc_dr workload
        mc_dr = ObsDgpConfig(n=2000, d=2, confounding_strength=0.5, tau=2.0,
                             outcome_form="linear_plus_quadratic", propensity_form="linear_plus_quadratic")
        datasets = [_heavy_tailed_dataset()] + [generate_observational(mc_dr, seed)[0] for seed in range(3)]
        for ds in datasets:
            assert ds.n <= nuisance._BLOCK_ROWS  # one _grams call per Hessian build
            for features in nuisance.FEATURE_MAPS:
                for max_iter in (2, 100):
                    built.clear()
                    monkeypatch.setattr(nuisance, "_MAX_ITER", max_iter)
                    fit = cross_fit(ds, k=5, seed=1, propensity_features=features)
                    # a problem that converges or runs out of iterations builds no Hessian
                    assert sum(built) == sum(fit.irls_iterations)

    def test_many_row_blocks(self):
        self.assert_same_fit(_sim_dataset(n=20001, seed=5), k=5, seed=2,
                             propensity_features="linear_plus_quadratic")

    def test_same_fold_error(self):
        # two units of one arm among 12: whenever both fall in one fold of two,
        # that fold's training complement has none
        x = np.arange(12.0).reshape(-1, 1)
        messages = set()
        for a in (np.r_[1, 1, np.zeros(10)], np.r_[0, 0, np.ones(10)]):
            ds = ObservationalDataset(x=x, a=a, y=x[:, 0])
            for seed in range(30):
                try:
                    _cross_fit_reference(ds, k=6, seed=seed)
                except FoldError as want:
                    with pytest.raises(FoldError) as got:
                        cross_fit(ds, k=6, seed=seed)
                    assert str(got.value) == str(want)
                    messages.add(str(want))
                else:
                    cross_fit(ds, k=6, seed=seed)
        assert len({m.split()[4] for m in messages}) > 1
        assert {m.split()[-2] for m in messages} == {"treated", "control"}

    def test_same_rank_deficiency_and_config_errors(self):
        ds = _sim_dataset(n=60)
        collinear = ObservationalDataset(x=np.column_stack([ds.x[:, 0], 2.0 * ds.x[:, 0]]), a=ds.a, y=ds.y)
        for data, kwargs, error in [
            (collinear, {"outcome_lambda": 0.0}, RankDeficiencyError),
            (ds, {"propensity_lambda": -1.0}, ConfigError),
            (ds, {"outcome_lambda": -1.0}, ConfigError),
        ]:
            with pytest.raises(error) as want:
                _cross_fit_reference(data, k=3, **kwargs)
            with pytest.raises(error) as got:
                cross_fit(data, k=3, **kwargs)
            assert str(got.value) == str(want.value)
