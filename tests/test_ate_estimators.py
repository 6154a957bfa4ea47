"""Cross-sectional ATE estimators: frozen hand oracles and identities.

Oracle values frozen from hand derivations:
- naive on a=(1,1,0,0), y=(3,5,1,1): means 4 and 1, gap 3; arm variances
  (ddof=1) are 2 and 0, so se = sqrt(2/2 + 0/2) = 1;
- Horvitz-Thompson with pi==0.5 on a=(1,0), y=(3,1): mean(2*3, 0) -
  mean(0, 2*1) = 3 - 1 = 2;
- greedy matching trace with treated (0.30, 0.50) -> y (5, 7) and controls
  (0.25, 0.41, 0.60) -> y (1, 2, 0), caliper 0.1: pairs give diffs 4 and 5,
  ATT 4.5, paired se sqrt(var(4,5)/2) = 0.5;
- single-unit influence value with a=1, y=3, mu1=2, mu0=1, pi=0.5 and
  reference point 1: (3-2)/0.5 + (2-1) - 1 = 2.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from statistics import NormalDist

from causalkit import (
    MatchSpec,
    ObservationalDataset,
    aipw,
    cross_fit,
    fit_linear,
    g_formula,
    generate_observational,
    ipw,
    make_folds,
    naive_dim,
    eif_se,
    psm_att,
)
from causalkit.data_model import Estimate
from causalkit.dgp import ObsDgpConfig
from causalkit.errors import (
    ConfigError,
    EmptyMatchError,
    InsufficientDataError,
    PositivityError,
    ValidationError,
)
from causalkit.nuisance import NuisanceFit

Z975 = NormalDist().inv_cdf(0.975)


def _psm_reference(dataset, pi_hat, spec=MatchSpec(), level=0.95):
    """Quadratic greedy matching: each treated unit scans every control.

    The oracle for psm_att: argmin of the computed |pi_c - pi_t| over the
    available controls, the first minimum (lowest control index) winning.
    Returns the estimate fields compared by the tests and the match table.
    """
    treated_idx = np.flatnonzero(dataset.a == 1)
    control_idx = np.flatnonzero(dataset.a == 0)
    caliper = np.inf if spec.caliper is None else float(spec.caliper)
    available = np.ones(control_idx.size, dtype=bool)
    matches = []
    for t in treated_idx:
        pool = available if not spec.with_replacement else np.ones(control_idx.size, dtype=bool)
        if not pool.any():
            continue
        dist = np.abs(pi_hat[control_idx] - pi_hat[t])
        dist = np.where(pool, dist, np.inf)
        best = int(np.argmin(dist))
        if dist[best] <= caliper:
            matches.append((int(t), int(control_idx[best])))
            if not spec.with_replacement:
                available[best] = False
    if not matches:
        return None, matches
    t_ids = np.array([m[0] for m in matches])
    c_ids = np.array([m[1] for m in matches])
    diffs = dataset.y[t_ids] - dataset.y[c_ids]
    gaps = np.abs(pi_hat[t_ids] - pi_hat[c_ids])
    psi = float(diffs.mean())
    if diffs.size >= 2:
        se = float(np.sqrt(np.var(diffs, ddof=1) / diffs.size))
        z = NormalDist().inv_cdf(0.5 + level / 2.0)
        ci = (psi - z * se, psi + z * se)
    else:
        se, ci = None, (None, None)
    fields = {
        "psi_hat": psi,
        "se": se,
        "ci_low": ci[0],
        "ci_high": ci[1],
        "diagnostics": {
            "estimand": "att",
            "n_pairs": len(matches),
            "unmatched_count": int(treated_idx.size - len(matches)),
            "with_replacement": spec.with_replacement,
            "mean_match_distance": float(gaps.mean()),
            "max_match_distance": float(gaps.max()),
        },
    }
    return fields, matches


def _assert_psm_equals_reference(dataset, pi_hat, spec):
    want, want_matches = _psm_reference(dataset, pi_hat, spec)
    if want is None:
        with pytest.raises(EmptyMatchError):
            psm_att(dataset, pi_hat, spec)
        return
    est, matches = psm_att(dataset, pi_hat, spec)
    assert matches == want_matches
    got = {
        "psi_hat": est.psi_hat,
        "se": est.se,
        "ci_low": est.ci_low,
        "ci_high": est.ci_high,
        "diagnostics": est.diagnostics,
    }
    assert got == want


# Propensity grids that make the greedy rule's ties matter.
_PROPENSITY_GRIDS = (
    # equal propensities and distances that differ only by rounding (k / 10)
    st.integers(0, 10).map(lambda k: k / 10),
    # large groups at the usual clip bounds
    st.sampled_from([0.01, 0.99, 0.01, 0.99, 0.5, 0.02, 0.98]),
    # neighbours one ulp apart
    st.sampled_from(
        [0.1, 0.2, 0.3, 0.30000000000000004, 0.19999999999999998, 0.7, 1.0 - 2**-53, 1.0]
    ),
    # distinct controls below 0.5 at the same rounded distance 0.5 from it,
    # and 1.0 at that distance above
    st.sampled_from([0.0, 1e-17, 2e-17, 0.5, 1.0]),
    # from 0.25 + 2**-54, controls 0.75 + k * 2**-53 for k = 2, 3 (and 4, 5)
    # round to one distance: distinct values tied above the treated unit
    st.sampled_from(
        [0.25 + 2**-54, 0.75 + 2 * 2**-53, 0.75 + 3 * 2**-53, 0.75 + 4 * 2**-53, 0.75 + 5 * 2**-53]
    ),
    st.floats(0.0, 1.0, allow_nan=False),
)


@st.composite
def _matching_problems(draw):
    n_treated = draw(st.integers(1, 12))
    n_control = draw(st.integers(1, 12))
    n = n_treated + n_control
    values = draw(
        st.lists(draw(st.sampled_from(_PROPENSITY_GRIDS)), min_size=n, max_size=n)
    )
    # one-sided arms: every control above (or below) every treated unit
    layout = draw(st.sampled_from(["mixed", "controls_above", "controls_below"]))
    if layout != "mixed":
        values = sorted(values, reverse=layout == "controls_below")
    arms = [1] * n_treated + [0] * n_control
    order = draw(st.permutations(range(n)))
    a = np.array([arms[i] for i in order])
    pi = np.array([values[i] for i in order])
    y = np.array(draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)), dtype=float)
    kind = draw(st.sampled_from(["none", "zero", "boundary"]))
    if kind == "none":
        caliper = None
    elif kind == "zero":
        caliper = 0.0
    else:
        # exactly one computed treated-control distance
        t = draw(st.sampled_from(list(np.flatnonzero(a == 1))))
        c = draw(st.sampled_from(list(np.flatnonzero(a == 0))))
        caliper = float(abs(pi[c] - pi[t]))
    spec = MatchSpec(caliper=caliper, with_replacement=draw(st.booleans()))
    return ObservationalDataset(x=np.zeros((n, 0)), a=a, y=y), pi, spec


def _nuisance(dataset, pi, mu0, mu1, k=2, seed=0):
    return NuisanceFit(
        pi_hat=np.asarray(pi, dtype=float),
        mu0_hat=np.asarray(mu0, dtype=float),
        mu1_hat=np.asarray(mu1, dtype=float),
        folds=make_folds(dataset.n, k, seed),
        clip_lo=0.01,
        clip_hi=0.99,
    )


class TestEifSe:
    def test_two_point_oracle(self):
        se = eif_se(np.array([-1.0, 1.0]))
        assert se == pytest.approx(1.0, abs=1e-15)
        est = Estimate(psi_hat=0.0, method="t", n=2, eif=np.array([-1.0, 1.0]), se=se)
        assert est.ci_low == pytest.approx(-Z975, abs=1e-12)
        assert est.ci_high == pytest.approx(Z975, abs=1e-12)

    def test_singleton_rejected(self):
        with pytest.raises(InsufficientDataError):
            eif_se(np.array([0.0]))


class TestNaive:
    def test_hand_oracle(self):
        ds = ObservationalDataset(
            x=np.zeros((4, 0)), a=[1, 1, 0, 0], y=[3.0, 5.0, 1.0, 1.0]
        )
        est = naive_dim(ds)
        assert est.psi_hat == 3.0
        assert est.se == pytest.approx(1.0, abs=1e-12)
        assert est.diagnostics["treated_mean"] == 4.0
        assert est.diagnostics["control_mean"] == 1.0
        assert abs(np.mean(est.eif)) < 1e-12

    def test_requires_both_arms(self):
        ds = ObservationalDataset(x=np.zeros((2, 0)), a=[1, 1], y=[1.0, 2.0])
        with pytest.raises(InsufficientDataError):
            naive_dim(ds)

    def test_ci_brackets_point(self):
        ds = ObservationalDataset(
            x=np.zeros((6, 0)), a=[1, 1, 1, 0, 0, 0], y=[3.0, 4.0, 5.0, 1.0, 0.0, 2.0]
        )
        est = naive_dim(ds)
        assert est.ci_low < est.psi_hat < est.ci_high


class TestIpw:
    def test_horvitz_thompson_hand_oracle(self):
        ds = ObservationalDataset(x=np.zeros((2, 0)), a=[1, 0], y=[3.0, 1.0])
        est = ipw(ds, np.array([0.5, 0.5]), normalization="horvitz_thompson")
        assert est.psi_hat == 2.0

    def test_hajek_equals_naive_under_constant_propensity(self):
        rng = np.random.default_rng(2)
        ds = ObservationalDataset(
            x=rng.normal(size=(40, 1)),
            a=rng.integers(0, 2, size=40),
            y=rng.normal(size=40),
        )
        pi = np.full(40, 0.37)
        hajek = ipw(ds, pi, normalization="hajek")
        naive = naive_dim(ds)
        assert hajek.psi_hat == pytest.approx(naive.psi_hat, abs=1e-12)

    def test_hajek_weights_are_self_normalizing(self):
        ds = ObservationalDataset(
            x=np.zeros((4, 0)), a=[1, 1, 0, 0], y=[2.0, 6.0, 1.0, 3.0]
        )
        pi = np.array([0.8, 0.2, 0.5, 0.5])
        est = ipw(ds, pi, normalization="hajek")
        w1 = np.array([1 / 0.8, 1 / 0.2])
        psi1 = (w1 @ np.array([2.0, 6.0])) / w1.sum()
        assert est.diagnostics["psi1_hat"] == pytest.approx(psi1, abs=1e-12)

    def test_positivity_enforced(self):
        ds = ObservationalDataset(x=np.zeros((2, 0)), a=[1, 0], y=[1.0, 0.0])
        with pytest.raises(PositivityError):
            ipw(ds, np.array([1.0, 0.5]))

    def test_nan_propensity_fails_positivity(self):
        ds = ObservationalDataset(x=np.zeros((2, 0)), a=[1, 0], y=[1.0, 0.0])
        with pytest.raises(PositivityError) as exc:
            ipw(ds, np.array([np.nan, 0.5]))
        assert str(exc.value) == "propensities must lie strictly inside (0, 1)"

    def test_unknown_normalization_rejected(self):
        ds = ObservationalDataset(x=np.zeros((2, 0)), a=[1, 0], y=[1.0, 0.0])
        with pytest.raises(ConfigError):
            ipw(ds, np.array([0.5, 0.5]), normalization="other")

    def test_eif_mean_zero_both_normalizations(self):
        rng = np.random.default_rng(5)
        ds = ObservationalDataset(
            x=rng.normal(size=(30, 1)),
            a=rng.integers(0, 2, size=30),
            y=rng.normal(size=30),
        )
        pi = np.clip(rng.random(30), 0.2, 0.8)
        for norm in ("horvitz_thompson", "hajek"):
            est = ipw(ds, pi, normalization=norm)
            assert abs(np.mean(est.eif)) < 1e-10


class TestGFormula:
    def test_plugin_contrast(self):
        ds = ObservationalDataset(x=np.zeros((3, 0)), a=[1, 0, 0], y=[1.0, 0.0, 0.0])
        est = g_formula(ds, mu0_hat=np.array([1.0, 2.0, 3.0]), mu1_hat=np.array([2.0, 4.0, 6.0]))
        assert est.psi_hat == pytest.approx((2 + 4 + 6) / 3 - (1 + 2 + 3) / 3, abs=1e-12)

    def test_saturated_fit_equals_naive(self):
        ds = ObservationalDataset(
            x=np.zeros((6, 0)), a=[1, 1, 1, 0, 0, 0], y=[3.0, 4.0, 5.0, 1.0, 0.0, 2.0]
        )
        m1 = fit_linear(ds.x[ds.a == 1], ds.y[ds.a == 1])
        m0 = fit_linear(ds.x[ds.a == 0], ds.y[ds.a == 0])
        est = g_formula(ds, m0.predict(ds.x), m1.predict(ds.x))
        assert est.psi_hat == pytest.approx(naive_dim(ds).psi_hat, abs=1e-12)


class TestPsm:
    def test_greedy_trace_oracle(self):
        ds = ObservationalDataset(
            x=np.zeros((5, 0)),
            a=[1, 1, 0, 0, 0],
            y=[5.0, 7.0, 1.0, 2.0, 0.0],
        )
        pi = np.array([0.30, 0.50, 0.25, 0.41, 0.60])
        est, matches = psm_att(ds, pi, MatchSpec(caliper=0.1))
        assert matches == [(0, 2), (1, 3)]
        assert est.psi_hat == 4.5
        assert est.se == pytest.approx(0.5, abs=1e-12)
        assert est.diagnostics["estimand"] == "att"
        assert est.diagnostics["n_pairs"] == 2
        assert est.diagnostics["unmatched_count"] == 0

    def test_tie_goes_to_lowest_control_index(self):
        ds = ObservationalDataset(
            x=np.zeros((3, 0)), a=[1, 0, 0], y=[5.0, 3.0, 7.0]
        )
        pi = np.array([0.5, 0.4, 0.6])
        est, matches = psm_att(ds, pi)
        assert matches == [(0, 1)]
        assert est.psi_hat == 2.0

    def test_nan_caliper_rejected_and_infinite_allowed(self):
        with pytest.raises(ConfigError) as exc:
            MatchSpec(caliper=float("nan"))
        assert str(exc.value) == "caliper must be >= 0"
        assert MatchSpec(caliper=float("inf")).caliper == float("inf")

    def test_caliper_boundary_inclusive(self):
        ds = ObservationalDataset(x=np.zeros((2, 0)), a=[1, 0], y=[4.0, 1.0])
        pi = np.array([0.5, 0.6])
        est, _ = psm_att(ds, pi, MatchSpec(caliper=0.1))
        assert est.psi_hat == 3.0
        with pytest.raises(EmptyMatchError):
            psm_att(ds, pi, MatchSpec(caliper=0.0999))

    def test_without_replacement_consumes_controls(self):
        ds = ObservationalDataset(
            x=np.zeros((3, 0)), a=[1, 1, 0], y=[5.0, 6.0, 1.0]
        )
        pi = np.array([0.5, 0.5, 0.5])
        est, matches = psm_att(ds, pi)
        assert matches == [(0, 2)]
        assert est.diagnostics["unmatched_count"] == 1

    def test_with_replacement_reuses_controls(self):
        ds = ObservationalDataset(
            x=np.zeros((3, 0)), a=[1, 1, 0], y=[5.0, 6.0, 1.0]
        )
        pi = np.array([0.5, 0.5, 0.5])
        est, matches = psm_att(ds, pi, MatchSpec(with_replacement=True))
        assert matches == [(0, 2), (1, 2)]
        assert est.psi_hat == 4.5


    def test_rejects_propensities_outside_unit_interval(self):
        ds = ObservationalDataset(x=np.zeros((2, 0)), a=[1, 0], y=[4.0, 1.0])
        for bad in (np.nan, 1.5, -0.1):
            with pytest.raises(ValidationError, match=r"\[0, 1\]"):
                psm_att(ds, np.array([0.5, bad]))

    def test_match_distance_diagnostics(self):
        ds = ObservationalDataset(
            x=np.zeros((5, 0)),
            a=[1, 1, 0, 0, 0],
            y=[5.0, 7.0, 1.0, 2.0, 0.0],
        )
        pi = np.array([0.30, 0.50, 0.25, 0.41, 0.60])
        est, _ = psm_att(ds, pi, MatchSpec(caliper=0.1))
        gaps = [abs(0.25 - 0.30), abs(0.41 - 0.50)]
        assert est.diagnostics["mean_match_distance"] == pytest.approx(np.mean(gaps), abs=1e-15)
        assert est.diagnostics["max_match_distance"] == max(gaps)

    @given(_matching_problems())
    @settings(max_examples=400, deadline=None)
    def test_equals_quadratic_reference(self, problem):
        _assert_psm_equals_reference(*problem)

    @pytest.mark.parametrize("with_replacement", [False, True])
    def test_equals_quadratic_reference_at_scale(self, with_replacement):
        cfg = ObsDgpConfig(n=20000, d=3, confounding_strength=0.5, tau=2.0)
        ds, _ = generate_observational(cfg, 11)
        pi = cross_fit(ds, seed=3).pi_hat
        _assert_psm_equals_reference(ds, pi, MatchSpec(with_replacement=with_replacement))


class TestAipw:
    def test_influence_value_hand_oracle(self):
        ds = ObservationalDataset(x=np.zeros((2, 0)), a=[1, 0], y=[3.0, 1.0])
        fit = _nuisance(ds, [0.5, 0.5], [1.0, 1.0], [2.0, 2.0])
        # per-unit terms: (3 - 2)/0.5 + 2 - 1 = 3 and -(1 - 1)/0.5 + 2 - 1 = 1,
        # so psi_hat = 2 and the centered influence values are [1, -1]
        est = aipw(ds, fit)
        assert est.psi_hat == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(est.eif, [1.0, -1.0], rtol=0, atol=1e-12)

    def test_zero_outcome_models_equal_ht_ipw_per_unit(self):
        rng = np.random.default_rng(8)
        n = 50
        ds = ObservationalDataset(
            x=rng.normal(size=(n, 1)),
            a=rng.integers(0, 2, size=n),
            y=rng.normal(size=n),
        )
        pi = np.clip(rng.random(n), 0.05, 0.95)
        fit = _nuisance(ds, pi, np.zeros(n), np.zeros(n))
        est_aipw = aipw(ds, fit)
        est_ht = ipw(ds, pi, normalization="horvitz_thompson")
        assert est_aipw.psi_hat == pytest.approx(est_ht.psi_hat, rel=1e-12)
        assert np.allclose(est_aipw.eif, est_ht.eif, rtol=1e-12, atol=1e-12)

    def test_recovers_effect_with_correct_models(self):
        cfg = ObsDgpConfig(n=4000, d=2, confounding_strength=0.8, tau=2.0)
        ds, _ = generate_observational(cfg, 21)
        fit = cross_fit(ds, seed=1)
        est = aipw(ds, fit)
        assert est.psi_hat == pytest.approx(2.0, abs=0.15)
        assert est.ci_low < est.psi_hat < est.ci_high
        assert abs(np.mean(est.eif)) < 1e-10

    def test_fold_mean_average_matches_estimate(self):
        cfg = ObsDgpConfig(n=500, d=1, confounding_strength=0.5, tau=1.0)
        ds, _ = generate_observational(cfg, 2)
        fit = cross_fit(ds, k=5, seed=0)
        est = aipw(ds, fit)
        assert est.diagnostics["psi_hat_fold_avg"] == pytest.approx(est.psi_hat, rel=1e-9)
        assert len(est.diagnostics["fold_means"]) == 5

    def test_size_mismatch_rejected(self):
        ds = ObservationalDataset(x=np.zeros((4, 0)), a=[1, 0, 1, 0], y=[1.0, 0.0, 2.0, 1.0])
        other = ObservationalDataset(x=np.zeros((6, 0)), a=[1, 0] * 3, y=np.zeros(6))
        fit = cross_fit(other, k=2, seed=0)
        with pytest.raises(ValidationError):
            aipw(ds, fit)


class TestCenteringFarFromZero:
    """The centering check allows the rounding error of means of large outcomes."""

    @staticmethod
    def large_outcomes(seed, n=1000):
        rng = np.random.default_rng(seed)
        a = np.r_[0, 1, rng.integers(0, 2, n - 2)]
        ds = ObservationalDataset(x=np.zeros((n, 0)), a=a, y=1e8 + rng.normal(0.0, 1.0, n))
        return ds, rng.uniform(0.1, 0.9, n)

    @pytest.mark.parametrize("seed", range(20))
    def test_naive_and_hajek_accept_large_outcomes(self, seed):
        ds, pi = self.large_outcomes(seed)
        for est in (naive_dim(ds), ipw(ds, pi), ipw(ds, pi, "horvitz_thompson")):
            assert est.se > 0
            assert est.ci_low <= est.psi_hat <= est.ci_high

    def test_off_centre_vector_still_raises(self):
        ds, _ = self.large_outcomes(0)
        est = naive_dim(ds)
        scale = max(1.0, float(np.max(np.abs(est.eif))))
        for input_scale in (0.0, 1e8):
            with pytest.raises(ValidationError, match="not centered"):
                Estimate(
                    psi_hat=est.psi_hat, method="naive", n=ds.n,
                    eif=est.eif + 1e-6 * scale, input_scale=input_scale,
                )
        with pytest.raises(ValidationError, match="not centered"):
            Estimate(psi_hat=0.0, method="t", n=3, eif=np.array([1.0, -1.0, 1e-6]))
