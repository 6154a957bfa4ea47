"""Synthetic data generators: determinism, consistency, and known structure."""

import numpy as np
import pytest

from causalkit import (
    IvDgpConfig,
    ObsDgpConfig,
    PanelDgpConfig,
    RdDgpConfig,
    generate_iv,
    generate_observational,
    generate_panel,
    generate_rd,
)
from causalkit.errors import ConfigError


class TestObservational:
    def test_deterministic_in_seed(self):
        cfg = ObsDgpConfig(n=50, d=2, confounding_strength=0.5, tau=1.0)
        a1, t1 = generate_observational(cfg, 3)
        a2, t2 = generate_observational(cfg, 3)
        assert np.array_equal(a1.x, a2.x)
        assert np.array_equal(a1.a, a2.a)
        assert np.array_equal(a1.y, a2.y)
        assert np.array_equal(t1.y1, t2.y1)

    def test_different_seeds_differ(self):
        cfg = ObsDgpConfig(n=50, d=1)
        a1, _ = generate_observational(cfg, 0)
        a2, _ = generate_observational(cfg, 1)
        assert not np.array_equal(a1.y, a2.y)

    def test_consistency_exact(self):
        cfg = ObsDgpConfig(n=200, d=3, confounding_strength=1.0, tau=2.0)
        ds, truth = generate_observational(cfg, 11)
        expected = np.where(ds.a == 1, truth.y1, truth.y0)
        assert np.array_equal(expected, ds.y)

    def test_constant_effect_is_exact(self):
        cfg = ObsDgpConfig(n=100, d=2, tau=2.0)
        _, truth = generate_observational(cfg, 0)
        assert np.allclose(truth.y1 - truth.y0, 2.0, rtol=0, atol=1e-12)
        assert truth.true_ate == pytest.approx(2.0, abs=1e-12)

    def test_no_confounding_gives_constant_propensity(self):
        cfg = ObsDgpConfig(n=100, d=2, confounding_strength=0.0)
        _, truth = generate_observational(cfg, 0)
        assert np.all(truth.pi == 0.5)

    def test_propensity_strictly_interior(self):
        cfg = ObsDgpConfig(n=500, d=2, confounding_strength=3.0)
        _, truth = generate_observational(cfg, 7)
        assert np.all(truth.pi > 0.0)
        assert np.all(truth.pi < 1.0)

    def test_heterogeneous_effect_uses_tau_x(self):
        cfg = ObsDgpConfig(n=100, d=2, tau=1.0, tau_x=(0.5, -0.5))
        ds, truth = generate_observational(cfg, 2)
        expected = 1.0 + ds.x @ np.array([0.5, -0.5])
        assert np.allclose(truth.y1 - truth.y0, expected, atol=1e-12)

    def test_quadratic_outcome_changes_data(self):
        lin = ObsDgpConfig(n=50, d=1, outcome_form="linear")
        quad = ObsDgpConfig(n=50, d=1, outcome_form="linear_plus_quadratic")
        y_lin = generate_observational(lin, 5)[0].y
        y_quad = generate_observational(quad, 5)[0].y
        assert not np.allclose(y_lin, y_quad)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ObsDgpConfig(n=0)
        with pytest.raises(ConfigError):
            ObsDgpConfig(n=10, d=-1)
        with pytest.raises(ConfigError):
            ObsDgpConfig(n=10, outcome_form="cubic")
        with pytest.raises(ConfigError):
            ObsDgpConfig(n=10, d=2, tau_x=(1.0,))
        with pytest.raises(ConfigError):
            ObsDgpConfig(n=10, outcome_noise_sd=-1.0)


class TestIv:
    def test_treatment_follows_type_table(self):
        cfg = IvDgpConfig(
            n=500, p_always=0.2, p_complier=0.5, p_never=0.2, p_defier=0.1, allow_defiers=True
        )
        ds, truth, _ = generate_iv(cfg, 3)
        for i, label in enumerate(truth.labels):
            if label == "always":
                assert ds.a[i] == 1
            elif label == "never":
                assert ds.a[i] == 0
            elif label == "complier":
                assert ds.a[i] == ds.z[i]
            else:
                assert ds.a[i] == 1 - ds.z[i]

    def test_true_late_is_complier_effect(self):
        cfg = IvDgpConfig(
            n=100, p_always=0.3, p_complier=0.5, p_never=0.2,
            effect_by_type={"complier": 1.5, "always": 9.0, "never": -9.0},
        )
        _, _, true_late = generate_iv(cfg, 0)
        assert true_late == 1.5

    def test_defiers_require_opt_in(self):
        with pytest.raises(ConfigError, match="defier"):
            IvDgpConfig(n=10, p_complier=0.9, p_defier=0.1)

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="sum"):
            IvDgpConfig(n=10, p_always=0.5, p_complier=0.4)

    def test_nan_probability_rejected(self):
        with pytest.raises(ConfigError) as exc:
            IvDgpConfig(n=50, p_complier=float("nan"), p_never=0.0)
        assert str(exc.value) == (
            "compliance-type probabilities must be non-negative, "
            "got (p_always, p_complier, p_never, p_defier) = (0.0, nan, 0.0, 0.0)"
        )

    def test_first_stage_strength_cross_checked(self):
        # derived from the type shares, so it cannot be set apart from them
        with pytest.raises(TypeError):
            IvDgpConfig(n=10, p_complier=0.6, p_always=0.4, first_stage_strength=0.5)
        cfg = IvDgpConfig(n=10, p_complier=0.6, p_always=0.4)
        assert cfg.first_stage_strength == 0.6
        cfg = IvDgpConfig(n=10, p_complier=0.7, p_never=0.1, p_defier=0.2, allow_defiers=True)
        assert cfg.first_stage_strength == 0.7 - 0.2

    def test_type_shares_approximate_probabilities(self):
        cfg = IvDgpConfig(n=20000, p_always=0.25, p_complier=0.5, p_never=0.25)
        _, truth, _ = generate_iv(cfg, 1)
        labels = np.array(truth.labels)
        assert np.mean(labels == "complier") == pytest.approx(0.5, abs=0.02)
        assert np.mean(labels == "always") == pytest.approx(0.25, abs=0.02)

    def test_consistency_exact(self):
        cfg = IvDgpConfig(n=300, p_always=0.2, p_complier=0.6, p_never=0.2)
        ds, truth, _ = generate_iv(cfg, 9)
        expected = np.where(ds.a == 1, truth.y1, truth.y0)
        assert np.array_equal(expected, ds.y)


class TestPanel:
    def test_group_size_is_rounded_fraction(self):
        cfg = PanelDgpConfig(n_units=10, n_periods=2, treated_fraction=0.3)
        panel, _, _ = generate_panel(cfg, 0)
        treated_units = np.unique(panel.unit_id[panel.group == 1])
        assert treated_units.size == 3

    def test_treatment_timing(self):
        cfg = PanelDgpConfig(n_units=6, n_periods=4, first_treated_period=2)
        panel, _, _ = generate_panel(cfg, 0)
        on = (panel.group == 1) & (panel.period_id >= 2)
        assert np.all(panel.a[on] == 1)
        assert np.all(panel.a[~on] == 0)

    def test_noiseless_outcome_structure(self):
        cfg = PanelDgpConfig(
            n_units=4,
            n_periods=3,
            group_effect=1.0,
            time_trend=0.5,
            treatment_effect=2.0,
            noise_sd=0.0,
            unit_effect_sd=0.0,
            treated_fraction=0.5,
        )
        panel, true_effect, alpha = generate_panel(cfg, 0)
        assert true_effect == 2.0
        assert np.all(alpha == 0.0)
        expected = 1.0 * panel.group + 0.5 * panel.period_id + 2.0 * panel.a
        assert np.allclose(panel.y, expected, atol=1e-12)

    def test_record_count(self):
        cfg = PanelDgpConfig(n_units=7, n_periods=3)
        panel, _, _ = generate_panel(cfg, 0)
        assert panel.n == 21

    def test_validation(self):
        with pytest.raises(ConfigError):
            PanelDgpConfig(n_units=1, n_periods=2)
        with pytest.raises(ConfigError):
            PanelDgpConfig(n_units=4, n_periods=1)
        with pytest.raises(ConfigError):
            PanelDgpConfig(n_units=4, n_periods=2, treated_fraction=1.5)
        with pytest.raises(ConfigError):
            PanelDgpConfig(n_units=4, n_periods=3, first_treated_period=0)


class TestRd:
    def test_potential_outcome_gap_follows_both_lines(self):
        cfg = RdDgpConfig(n=100, cutoff=0.5, jump=1.5, slope_left=0.3, slope_right=0.7)
        ds, truth, true_jump = generate_rd(cfg, 4)
        assert true_jump == 1.5
        u = ds.x[:, 0] - 0.5
        assert np.allclose(truth.y1 - truth.y0, 1.5 + (0.7 - 0.3) * u, atol=1e-12)

    def test_running_variable_within_window(self):
        cfg = RdDgpConfig(n=200, cutoff=2.0, half_width=0.5)
        ds, _, _ = generate_rd(cfg, 0)
        assert ds.x.shape == (200, 1)
        assert np.all(np.abs(ds.x[:, 0] - 2.0) <= 0.5)

    def test_treatment_is_threshold_indicator(self):
        cfg = RdDgpConfig(n=150, cutoff=1.0, jump=2.0)
        ds, _, _ = generate_rd(cfg, 8)
        assert np.array_equal(ds.a, (ds.x[:, 0] >= 1.0).astype(int))

    def test_noiseless_lines(self):
        cfg = RdDgpConfig(
            n=50, cutoff=0.0, jump=2.0, slope_left=0.5, slope_right=1.0, noise_sd=0.0
        )
        ds, _, _ = generate_rd(cfg, 1)
        u = ds.x[:, 0]
        expected = np.where(u >= 0.0, 2.0 + 1.0 * u, 0.5 * u)
        assert np.allclose(ds.y, expected, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RdDgpConfig(n=10, half_width=0.0)
