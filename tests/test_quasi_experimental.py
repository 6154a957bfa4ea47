"""Panel, discontinuity, and instrument estimators: oracles and identities.

Oracle values frozen from hand derivations:
- 2x2 cell means (pre, post) x (control, treated) = (1, 2), (3, 6):
  (6 - 3) - (2 - 1) = 2;
- Wald with E[y|z=1]=3, E[y|z=0]=1, E[a|z=1]=0.8, E[a|z=0]=0.3:
  (3 - 1) / (0.8 - 0.3) = 4;
- two-unit within transform: unit A has a=(0,1), y=(0,2), unit B constant;
  demeaned products give slope (0.5 + 0.5) / (0.25 + 0.25) = 2.
"""

import numpy as np
import pytest
from statistics import NormalDist

from causalkit import (
    IvDataset,
    IvDgpConfig,
    McConfig,
    ObsDgpConfig,
    ObservationalDataset,
    PanelDataset,
    PanelDgpConfig,
    RdDgpConfig,
    RdSpec,
    cross_fit,
    did,
    did_placebo,
    eif_se,
    fe_within,
    generate_panel,
    generate_rd,
    iv_wald,
    rd_local_linear,
    run_mc,
    tsls,
)
from causalkit.errors import (
    BandwidthError,
    CellError,
    ConfigError,
    IdentificationError,
    InstrumentError,
    InsufficientDataError,
    RankDeficiencyError,
)
from causalkit.dgp import DGPS
from causalkit.methods import METHODS


def make_panel(unit, period, a, y, group):
    return PanelDataset(unit_id=unit, period_id=period, a=a, y=y, group=group)


class TestDid:
    def test_cell_oracle(self):
        panel = make_panel(
            unit=[0, 0, 1, 1],
            period=[0, 1, 0, 1],
            a=[0, 0, 0, 1],
            y=[1.0, 2.0, 3.0, 6.0],
            group=[0, 0, 1, 1],
        )
        est = did(panel)
        assert est.psi_hat == 2.0
        assert est.diagnostics["cell_means"] == [1.0, 2.0, 3.0, 6.0]
        assert est.diagnostics["cell_counts"] == [1, 1, 1, 1]
        assert est.se is None  # one unit per group carries no variance estimate

    def test_one_period_panel_rejected(self):
        panel = make_panel(unit=[0, 1, 2, 3], period=[0, 0, 0, 0], a=[0, 0, 1, 1], y=[1.0, 2.0, 3.0, 4.0],
                           group=[0, 0, 1, 1])
        with pytest.raises(InsufficientDataError, match="at least 2 periods"):
            did(panel)

    def test_estimate_recomputable_from_cell_means(self):
        cfg = PanelDgpConfig(
            n_units=30, n_periods=2, group_effect=1.0, time_trend=0.5, treatment_effect=2.0
        )
        panel, _, _ = generate_panel(cfg, 3)
        est = did(panel)
        m00, m01, m10, m11 = est.diagnostics["cell_means"]
        assert est.psi_hat == (m11 - m10) - (m01 - m00)

    def test_multi_period_uses_first_and_last(self):
        base = dict(
            unit=[0, 0, 0, 1, 1, 1],
            period=[0, 1, 2, 0, 1, 2],
            a=[0, 0, 0, 0, 0, 1],
            group=[0, 0, 0, 1, 1, 1],
        )
        panel = make_panel(y=[1.0, 99.0, 2.0, 3.0, -99.0, 6.0], **base)
        est = did(panel)
        assert est.psi_hat == 2.0
        assert (est.diagnostics["pre_period"], est.diagnostics["post_period"]) == (0, 2)

    def test_empty_cell_raises(self):
        panel = make_panel(
            unit=[0, 0, 1],
            period=[0, 1, 1],
            a=[0, 0, 1],
            y=[1.0, 2.0, 6.0],
            group=[0, 0, 1],
        )
        with pytest.raises(CellError, match="group=1, period=0"):
            did(panel)

    def test_cell_variance_se(self):
        panel = make_panel(
            unit=[0, 1, 2, 3, 0, 1, 2, 3],
            period=[0, 0, 0, 0, 1, 1, 1, 1],
            a=[0, 0, 0, 0, 0, 0, 1, 1],
            y=[1.0, 3.0, 2.0, 4.0, 2.0, 6.0, 6.0, 10.0],
            group=[0, 0, 1, 1, 0, 0, 1, 1],
        )
        est = did(panel)
        # cell means (2, 4) for controls and (3, 8) for treated give
        # (8 - 3) - (4 - 2) = 3.  The per-unit changes are (1, 3) and (4, 6):
        # each unit is 1 away from its group's mean change, so with U = 4
        # units and 2 units per group its influence value is 4 * (+-1) / 2 =
        # +-2.  Then se = sqrt(sum(phi^2) / (U - 1) / U) = sqrt(16/3/4) = 2/sqrt(3).
        assert est.psi_hat == 3.0
        np.testing.assert_allclose(est.eif, [2.0, -2.0, -2.0, 2.0], rtol=0, atol=1e-12)
        assert est.se == pytest.approx(2.0 / np.sqrt(3.0), abs=1e-12)

    def test_unit_clustered_coverage(self):
        # Unit effects make each unit's pre and post records move together; a
        # four-cell se that treats the cells as independent covers at 1.000 here.
        cfg = PanelDgpConfig(n_units=200, unit_effect_sd=2.0, treatment_effect=1.0)
        report = run_mc(McConfig(dgp=cfg, estimators=("did",), replications=1000, seed=0))
        assert report.rows[0].n_ok == 1000
        assert 0.92 <= report.rows[0].coverage <= 0.97

    def test_noiseless_violation_recovered_exactly(self):
        cfg = PanelDgpConfig(
            n_units=8,
            n_periods=2,
            group_effect=1.0,
            time_trend=0.25,
            treatment_effect=2.0,
            parallel_violation=0.5,
            noise_sd=0.0,
            unit_effect_sd=0.0,
        )
        panel, _, _ = generate_panel(cfg, 0)
        est = did(panel)
        # the trend break adds violation * (post - pre) on top of the effect
        assert est.psi_hat == pytest.approx(2.5, abs=1e-12)


class TestDidPlacebo:
    def test_uses_last_two_pretreatment_periods(self):
        cfg = PanelDgpConfig(
            n_units=6,
            n_periods=4,
            time_trend=0.3,
            treatment_effect=2.0,
            noise_sd=0.0,
            unit_effect_sd=0.0,
            first_treated_period=3,
        )
        panel, _, _ = generate_panel(cfg, 0)
        est = did_placebo(panel)
        assert (est.diagnostics["pre_period"], est.diagnostics["post_period"]) == (1, 2)
        assert est.diagnostics["placebo"] is True
        assert est.psi_hat == pytest.approx(0.0, abs=1e-12)

    def test_detects_trend_violation_exactly(self):
        cfg = PanelDgpConfig(
            n_units=6,
            n_periods=4,
            time_trend=0.3,
            treatment_effect=2.0,
            parallel_violation=0.4,
            noise_sd=0.0,
            unit_effect_sd=0.0,
            first_treated_period=3,
        )
        panel, _, _ = generate_panel(cfg, 0)
        est = did_placebo(panel)
        assert est.psi_hat == pytest.approx(0.4, abs=1e-12)

    def test_two_period_panel_has_no_placebo(self):
        cfg = PanelDgpConfig(n_units=6, n_periods=2, treatment_effect=1.0)
        panel, _, _ = generate_panel(cfg, 0)
        with pytest.raises(InsufficientDataError, match="pre-treatment"):
            did_placebo(panel)


def make_rd(x, y):
    x = np.asarray(x, dtype=float)
    return ObservationalDataset(
        x=x.reshape(-1, 1), a=(x >= 0).astype(int), y=np.asarray(y, dtype=float)
    )


class TestRd:
    def test_exact_line_recovery(self):
        x = np.array([-0.8, -0.6, -0.4, -0.2, 0.1, 0.3, 0.5, 0.7])
        y = np.where(x >= 0, 3.0 + 1.0 * x, 1.0 + 0.5 * x)
        est = rd_local_linear(make_rd(x, y), RdSpec(cutoff=0.0, bandwidth=1.0))
        assert est.psi_hat == pytest.approx(2.0, abs=1e-10)
        assert est.diagnostics["slope_left"] == pytest.approx(0.5, abs=1e-10)
        assert est.diagnostics["slope_right"] == pytest.approx(1.0, abs=1e-10)
        assert (est.diagnostics["n_left"], est.diagnostics["n_right"]) == (4, 4)

    def test_rectangular_equals_windowed_ols(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, size=200)
        y = np.where(x >= 0, 2.0 + x, 0.5 * x) + rng.normal(size=200)
        h = 0.4
        est = rd_local_linear(make_rd(x, y), RdSpec(cutoff=0.0, bandwidth=h))
        jumps = []
        for side in (x < 0, x >= 0):
            mask = side & (np.abs(x) <= h)
            design = np.column_stack([np.ones(mask.sum()), x[mask]])
            beta, *_ = np.linalg.lstsq(design, y[mask], rcond=None)
            jumps.append(beta[0])
        assert est.psi_hat == pytest.approx(jumps[1] - jumps[0], abs=1e-10)

    def test_bandwidth_boundary_inclusive(self):
        x = np.array([-0.5, -0.2, 0.2, 0.5])
        y = np.array([0.0, 0.3, 2.2, 2.5])
        est = rd_local_linear(make_rd(x, y), RdSpec(cutoff=0.0, bandwidth=0.5))
        assert (est.diagnostics["n_left"], est.diagnostics["n_right"]) == (2, 2)
        assert est.se is None  # two points fit each line exactly

    def test_coincident_running_values_on_one_side_rejected(self):
        # three left points at one running value: the local line is not identified
        x = np.array([-0.5, -0.5, -0.5, 0.2, 0.4, 0.5])
        y = np.array([0.0, 0.1, 0.2, 2.2, 2.4, 2.5])
        with pytest.raises(BandwidthError, match="degenerate local fit"):
            rd_local_linear(make_rd(x, y), RdSpec(cutoff=0.0, bandwidth=1.0))

    def test_triangular_downweights_far_points(self):
        # place an outlier near the edge: triangular deweights it, so the
        # two kernels must disagree
        x = np.array([-0.9, -0.5, -0.1, 0.1, 0.5, 0.9])
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 9.0])
        rect = rd_local_linear(make_rd(x, y), RdSpec(cutoff=0.0, bandwidth=1.0))
        tri = rd_local_linear(make_rd(x, y), RdSpec(cutoff=0.0, bandwidth=1.0, kernel="triangular"))
        assert rect.psi_hat != pytest.approx(tri.psi_hat, abs=1e-6)

    def test_triangular_sandwich_coverage(self):
        # Under the triangular kernel the homoskedastic se of the weighted fit
        # understates the spread of the jump and covers at 0.875 here.
        cfg = RdDgpConfig(n=2000, jump=1.0, slope_left=0.5, slope_right=1.0)
        spec = RdSpec(cutoff=0.0, bandwidth=0.5, kernel="triangular")
        hits = []
        for seed in range(1000):
            ds, _, true_jump = generate_rd(cfg, seed)
            est = rd_local_linear(ds, spec)
            hits.append(est.ci_low <= true_jump <= est.ci_high)
        assert 0.92 <= np.mean(hits) <= 0.97

    def test_triangular_zero_weight_at_bandwidth_excluded(self):
        x = np.array([-1.0, -0.5, -0.1, 0.1, 0.5, 1.0])
        y = np.zeros(6)
        est = rd_local_linear(
            make_rd(x, y), RdSpec(cutoff=0.0, bandwidth=1.0, kernel="triangular")
        )
        assert (est.diagnostics["n_left"], est.diagnostics["n_right"]) == (2, 2)

    def test_too_few_points_raises(self):
        x = np.array([-0.1, 0.1, 0.2])
        y = np.zeros(3)
        with pytest.raises(BandwidthError, match="left=1"):
            rd_local_linear(make_rd(x, y), RdSpec(cutoff=0.0, bandwidth=1.0))

    @pytest.mark.parametrize("kwargs, message", [
        ({"bandwidth": 0.0}, "bandwidth must be > 0"),
        ({"bandwidth": -1.0}, "bandwidth must be > 0"),
        ({"kernel": "gaussian"}, "unknown kernel 'gaussian', expected one of ('rectangular', 'triangular')"),
        ({"bandwidth": float("nan")}, "bandwidth must be > 0"),
    ])
    def test_bad_spec_rejected(self, kwargs, message):
        with pytest.raises(ConfigError) as exc:
            RdSpec(**kwargs)
        assert str(exc.value) == message

    def test_nonzero_cutoff(self):
        x = np.array([1.2, 1.4, 1.6, 1.8, 2.1, 2.3, 2.5, 2.7])
        a = (x >= 2.0).astype(int)
        y = np.where(x >= 2.0, 5.0, 1.0)
        ds = ObservationalDataset(x=x.reshape(-1, 1), a=a, y=y)
        est = rd_local_linear(ds, RdSpec(cutoff=2.0, bandwidth=1.0))
        assert est.psi_hat == pytest.approx(4.0, abs=1e-10)


def wald_dataset():
    z = np.array([1] * 5 + [0] * 10)
    a = np.array([1, 1, 1, 1, 0] + [1, 1, 1] + [0] * 7)
    y = np.array([3.0] * 5 + [1.0] * 10)
    return IvDataset(z=z, a=a, y=y)


# one draw of each kind of data, for the method table's rows
KIND_CONFIGS = {
    "obs": ObsDgpConfig(n=200, d=1, confounding_strength=0.5, tau=1.0),
    "iv": IvDgpConfig(n=300, p_always=0.2, p_complier=0.6, p_never=0.2),
    "panel": PanelDgpConfig(n_units=40, n_periods=3, time_trend=0.5, treatment_effect=1.0),
    "rd": RdDgpConfig(n=300, jump=1.0, slope_left=0.5, slope_right=1.0),
}
# the rows whose estimate stores no eif, each with the ROADMAP item that owns its fix:
# psm has no influence-vector variance for matching (item 1), and fe keeps the
# homoskedastic se of the dummy-variable regression (item 2)
NO_EIF = ("psm", "fe")
EIF_CASES = ["wald_dataset"] + [name for name in METHODS if name not in NO_EIF]


def method_estimate(name):
    """The data of one draw of the row's kind, and the row's estimate on it."""
    method = METHODS[name]
    data = DGPS[method.kind].generate(KIND_CONFIGS[method.kind], 1)[0]
    return data, method.run(data, cross_fit(data, seed=0) if method.nuisance else None, 0.95)


class TestIv:
    def test_wald_hand_oracle(self):
        est = iv_wald(wald_dataset())
        assert est.psi_hat == 4.0
        assert est.diagnostics["first_stage"] == pytest.approx(0.5, abs=1e-12)
        assert est.diagnostics["reduced_form"] == pytest.approx(2.0, abs=1e-12)
        assert not est.diagnostics["weak_flag"]

    def test_ratio_identity_is_exact(self):
        rng = np.random.default_rng(3)
        z = rng.integers(0, 2, size=100)
        a = np.where(rng.random(100) < 0.3, 1 - z, z)
        y = 1.5 * a + rng.normal(size=100)
        est = iv_wald(IvDataset(z=z, a=a, y=y))
        assert est.psi_hat == est.diagnostics["reduced_form"] / est.diagnostics["first_stage"]

    def test_weak_flag_threshold(self):
        rng = np.random.default_rng(4)
        n = 4000
        z = rng.integers(0, 2, size=n)
        complier = rng.random(n) < 0.02
        a = np.where(complier, z, rng.integers(0, 2, size=n))
        y = a + rng.normal(size=n)
        est = iv_wald(IvDataset(z=z, a=a, y=y))
        assert abs(est.diagnostics["first_stage"]) < 0.05
        assert est.diagnostics["weak_flag"]

    def test_constant_instrument_rejected(self):
        with pytest.raises(InstrumentError):
            iv_wald(IvDataset(z=[1, 1, 1], a=[0, 1, 0], y=[0.0, 1.0, 0.0]))

    def test_zero_first_stage_rejected(self):
        ds = IvDataset(z=[1, 1, 0, 0], a=[1, 0, 1, 0], y=[1.0, 0.0, 1.0, 0.0])
        with pytest.raises(InstrumentError, match="first stage"):
            iv_wald(ds)

    def test_se_present_and_positive(self):
        est = iv_wald(wald_dataset())
        assert est.se is not None
        assert est.se > 0

    @pytest.mark.parametrize("case", EIF_CASES)
    def test_eif_is_stored_and_gives_the_se(self, case):
        if case == "wald_dataset":
            data = wald_dataset()
            est = iv_wald(data)
        else:
            data, est = method_estimate(case)
        # did's influence values are one per panel unit
        assert est.eif.shape == ({"wald_dataset": 15, "did": 40}.get(case, est.n),)
        assert est.se is not None
        if case == "naive":
            # the one listed exception keeps its two-sample se
            y1, y0 = data.y[data.a == 1], data.y[data.a == 0]
            assert est.se == float(np.sqrt(np.var(y1, ddof=1) / y1.size + np.var(y0, ddof=1) / y0.size))
        else:
            assert est.se == eif_se(est.eif)

    @pytest.mark.parametrize("name", NO_EIF)
    def test_matching_and_within_rows_store_no_eif(self, name):
        _, est = method_estimate(name)
        assert est.eif is None and est.se is not None

    @pytest.mark.parametrize("complier_share", [0.3, 0.02])
    @pytest.mark.parametrize("seed", range(4))
    def test_eif_centering_allows_rounding_of_large_outcomes(self, seed, complier_share):
        # y near 1e8 with sd 1e-3: phi is small, but its mean carries the
        # rounding error of 1e8-sized arm means divided by the first stage
        rng = np.random.default_rng(seed)
        n = 4000
        z = rng.integers(0, 2, size=n)
        a = np.where(rng.random(n) < complier_share, z, rng.integers(0, 2, size=n))
        y = 1e8 + a + 1e-3 * rng.normal(size=n)
        est = iv_wald(IvDataset(z=z, a=a, y=y))
        assert abs(float(np.mean(est.eif))) > 0.0


def covariate_iv(seed, n, z_share=0.5, noise_sd=lambda x, z: 1.0):
    """x ~ N(0, 1) confounds a: 60% of units take a = z, the rest a = 1[x > 0];
    y = 1.5 a + x + noise_sd(x, z) * N(0, 1).  Returns x, z, a, y and the
    matrices Z = (1, z, x) and X = (1, a, x)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    z = (rng.random(n) < z_share).astype(int)
    a = np.where(rng.random(n) < 0.6, z, (x > 0).astype(int))
    y = 1.5 * a + x + noise_sd(x, z) * rng.normal(size=n)
    return x, z, a, y, np.column_stack([np.ones(n), z, x]), np.column_stack([np.ones(n), a, x])


class TestTsls:
    def test_matches_wald_when_just_identified(self):
        rng = np.random.default_rng(7)
        z = rng.integers(0, 2, size=300)
        a = np.where(rng.random(300) < 0.25, 1 - z, z)
        y = 2.0 * a + rng.normal(size=300)
        ds = IvDataset(z=z, a=a, y=y)
        w = iv_wald(ds)
        t = tsls(ds)
        assert t.psi_hat == pytest.approx(w.psi_hat, abs=1e-10)
        assert t.diagnostics["reduced_form"] == pytest.approx(
            t.psi_hat * t.diagnostics["first_stage"], abs=1e-12
        )
        assert np.max(np.abs(t.eif - w.eif)) <= 1e-12 * np.max(np.abs(w.eif))
        assert t.se == pytest.approx(w.se, rel=1e-12)

    def test_se_is_the_2sls_sandwich(self):
        n = 500
        x, z, a, y, zmat, xmat = covariate_iv(21, n, noise_sd=lambda x, z: 0.5 + np.abs(x))
        est = tsls(IvDataset(z=z, a=a, y=y, x=x.reshape(-1, 1)))
        # two least-squares stages, then A = Z'X and S = sum r_i^2 z_i z_i'
        a_hat = zmat @ np.linalg.lstsq(zmat, a.astype(float), rcond=None)[0]
        beta = np.linalg.lstsq(np.column_stack([np.ones(n), a_hat, x]), y, rcond=None)[0]
        r = y - xmat @ beta
        a_inv = np.linalg.inv(zmat.T @ xmat)
        s = (zmat * r[:, None] ** 2).T @ zmat
        assert est.psi_hat == pytest.approx(beta[1], rel=1e-10)
        assert est.se == pytest.approx(np.sqrt(n / (n - 1) * (a_inv @ s @ a_inv.T)[1, 1]), rel=1e-10)

    def test_affine_rescaled_covariate_changes_nothing(self):
        # (1, z, c + c x) spans the columns of (1, z, x), so late and se are the same;
        # Z'X itself is singular to working precision at c = 1e9
        x, z, a, y, _, _ = covariate_iv(5, 2000)
        plain = tsls(IvDataset(z=z, a=a, y=y, x=x.reshape(-1, 1)))
        scaled = tsls(IvDataset(z=z, a=a, y=y, x=(1e9 + 1e9 * x).reshape(-1, 1)))
        assert scaled.psi_hat == pytest.approx(plain.psi_hat, rel=1e-12)
        assert scaled.se == pytest.approx(plain.se, rel=1e-10)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_se_matches_jackknife_under_heteroskedasticity(self, seed):
        # a rare instrument whose arm is six times as noisy; the band is fixed
        # before the first run, and the homoskedastic 2SLS se reads about half here
        n = 400
        x, z, a, y, zmat, xmat = covariate_iv(seed, n, z_share=0.2, noise_sd=lambda x, z: 0.5 + 3.0 * z)
        est = tsls(IvDataset(z=z, a=a, y=y, x=x.reshape(-1, 1)))
        # delete-one estimates: unit i leaves Z'X and Z'y by a rank-one update
        cross = zmat.T @ xmat - zmat[:, :, None] * xmat[:, None, :]
        rhs = zmat.T @ y - zmat * y[:, None]
        loo = np.linalg.solve(cross, rhs[:, :, None])[:, 1, 0]
        jackknife_se = np.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2))
        assert 0.95 <= est.se / jackknife_se <= 1.05

    def test_exact_recovery_with_covariate(self):
        z = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        x = np.array([0.0, 1.0, 2.0, 3.0, 0.0, 1.0, 2.0, 3.0])
        a = z.copy()
        y = 2.0 * a + 3.0 * x
        ds = IvDataset(z=z, a=a, y=y, x=x.reshape(-1, 1))
        est = tsls(ds)
        assert est.psi_hat == pytest.approx(2.0, abs=1e-10)

    def test_covariate_shifts_estimate_when_confounded(self):
        rng = np.random.default_rng(12)
        n = 2000
        x = rng.normal(size=n)
        z = rng.integers(0, 2, size=n)
        complier = rng.random(n) < 0.6
        a = np.where(complier, z, (x > 0).astype(int))
        y = 1.0 * a + 2.0 * x + 0.1 * rng.normal(size=n)
        with_x = tsls(IvDataset(z=z, a=a, y=y, x=x.reshape(-1, 1)))
        without_x = tsls(IvDataset(z=z, a=a, y=y))
        assert abs(with_x.psi_hat - 1.0) < abs(without_x.psi_hat - 1.0)

    def test_collinear_first_stage(self):
        # the covariate repeats the instrument
        z = np.array([0, 1] * 4)
        ds = IvDataset(z=z, a=z, y=np.arange(8.0), x=z.reshape(-1, 1))
        with pytest.raises(RankDeficiencyError) as exc:
            tsls(ds)
        assert str(exc.value) == "collinear design in first stage"

    def test_collinear_second_stage(self):
        # the covariate is the treatment and independent of z, so fitted a is the covariate
        z = np.array([0, 0, 1, 1] * 2)
        x = np.array([0, 1] * 4)
        ds = IvDataset(z=z, a=x, y=np.arange(8.0), x=x.reshape(-1, 1))
        with pytest.raises(RankDeficiencyError) as exc:
            tsls(ds)
        assert str(exc.value) == "collinear second stage: fitted treatment is collinear with covariates"


class TestFeWithin:
    def test_two_unit_hand_oracle(self):
        panel = make_panel(
            unit=[0, 0, 1, 1],
            period=[0, 1, 0, 1],
            a=[0, 1, 0, 0],
            y=[0.0, 2.0, 1.0, 1.0],
            group=[1, 1, 0, 0],
        )
        est = fe_within(panel)
        assert est.psi_hat == pytest.approx(2.0, abs=1e-12)
        assert est.diagnostics["n_units"] == 2
        assert est.diagnostics["n_units_identifying"] == 1

    def test_equals_dummy_variable_ols(self):
        rng = np.random.default_rng(9)
        n_units, n_periods = 6, 4
        unit = np.repeat(np.arange(n_units), n_periods)
        period = np.tile(np.arange(n_periods), n_units)
        a = (rng.random(n_units * n_periods) < 0.5).astype(int)
        a[unit == 5] = 0  # one never-treated unit
        alpha = rng.normal(size=n_units)
        y = alpha[unit] + 1.7 * a + rng.normal(size=n_units * n_periods)
        group = np.ones(n_units * n_periods, dtype=int)
        panel = make_panel(unit=unit, period=period, a=a, y=y, group=group)
        est = fe_within(panel)

        dummies = np.equal.outer(unit, np.arange(n_units)).astype(float)
        design = np.column_stack([dummies, a.astype(float)])
        beta, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert est.psi_hat == pytest.approx(beta[-1], abs=1e-8)

        resid = y - design @ beta
        df = len(y) - n_units - 1
        sigma2 = resid @ resid / df
        cov = sigma2 * np.linalg.inv(design.T @ design)
        assert est.se == pytest.approx(np.sqrt(cov[-1, -1]), abs=1e-8)

    def test_no_within_variation_raises(self):
        panel = make_panel(
            unit=[0, 0, 1, 1],
            period=[0, 1, 0, 1],
            a=[1, 1, 0, 0],
            y=[1.0, 2.0, 3.0, 4.0],
            group=[1, 1, 0, 0],
        )
        with pytest.raises(IdentificationError):
            fe_within(panel)
