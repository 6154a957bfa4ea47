"""Nuisance learners and cross-fitting: hand oracles and structural checks.

Oracle values are frozen from hand derivations:
- least squares on (0,0),(1,1),(2,3): normal equations [[3,3],[3,5]]b=[4,7]
  give intercept -1/6, slope 3/2;
- two-point exact interpolation (0,1),(1,3) gives (1, 2);
- intercept-only logistic with mean(a)=1/4 has MLE logit(1/4) = -log 3.
"""

import numpy as np
import pytest

from causalkit import (
    ObservationalDataset,
    apply_feature_map,
    cross_fit,
    fit_linear,
    fit_logistic,
    make_folds,
)
from causalkit.errors import (
    ConfigError,
    FoldError,
    RankDeficiencyError,
    SeparationError,
    ValidationError,
)
from causalkit.nuisance import NuisanceFit


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


class TestFolds:
    def test_sizes_differ_by_at_most_one(self):
        folds = make_folds(10, 3, seed=0)
        sizes = sorted(folds.indices(j).size for j in range(3))
        assert sizes == [3, 3, 4]

    def test_partition_is_exact(self):
        folds = make_folds(17, 4, seed=2)
        all_idx = np.concatenate([folds.indices(j) for j in range(4)])
        assert np.array_equal(np.sort(all_idx), np.arange(17))

    def test_complement_is_set_difference(self):
        folds = make_folds(12, 3, seed=1)
        for j in range(3):
            merged = np.sort(np.concatenate([folds.indices(j), folds.complement(j)]))
            assert np.array_equal(merged, np.arange(12))

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
        other = fit.folds.complement(j)
        assert not np.array_equal(fit.mu1_hat[other], fit2.mu1_hat[other])

    def test_records_irls_outcome_per_fold(self):
        ds = _sim_dataset()
        fit = cross_fit(ds, k=4, seed=0)
        assert fit.irls_converged == (True,) * 4
        assert len(fit.irls_iterations) == 4
        assert all(it >= 1 for it in fit.irls_iterations)
        capped = cross_fit(ds, k=4, seed=0, max_iter=1)
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
