"""Property-based invariants across the package.

Random inputs are derived from a hypothesis-drawn integer seed so shrinking
works over a single dimension while numpy generates the actual arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalkit import (
    DiscreteMeasure,
    IvDataset,
    ObservationalDataset,
    aipw,
    cross_fit,
    factorize_score,
    fit_logistic,
    format_number,
    g_formula,
    ipw,
    iv_wald,
    load_csv,
    make_folds,
    mix,
    naive_dim,
    random_score,
    score_of_path,
    summarize_estimator,
    write_csv,
)
from causalkit.rng import child_seed, stream

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, allow_subnormal=False, width=64
)


@given(finite_floats)
def test_format_number_round_trips(v):
    assert float(format_number(v)) == v


@given(seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_csv_round_trip_bit_exact(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    d = int(rng.integers(0, 4))
    ds = ObservationalDataset(
        x=rng.normal(size=(n, d)) * 10.0 ** rng.integers(-6, 6),
        a=rng.integers(0, 2, size=n),
        y=rng.normal(size=n) * 10.0 ** rng.integers(-6, 6),
    )
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    write_csv(ds, str(path))
    back = load_csv(
        str(path),
        {"treatment": "a", "outcome": "y", "covariates": [f"x{j+1}" for j in range(d)]},
    )
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.a, ds.a)
    assert np.array_equal(back.y, ds.y)


def _mixed_arm_dataset(seed, n=60):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    a = rng.integers(0, 2, size=n)
    a[0], a[1] = 1, 0  # both arms present
    y = x @ np.array([1.0, -0.5]) + 1.5 * a + rng.normal(size=n)
    return ObservationalDataset(x=x, a=a, y=y)


@given(st.integers(0, 10**6), st.floats(-100.0, 100.0, allow_nan=False))
@settings(max_examples=20, deadline=None)
def test_ate_estimators_location_invariant(seed, c):
    ds = _mixed_arm_dataset(seed)
    shifted = ObservationalDataset(x=ds.x, a=ds.a, y=ds.y + c)
    fit = cross_fit(ds, k=3, seed=7)
    fit_shift = cross_fit(shifted, k=3, seed=7)
    pairs = [
        (naive_dim(ds).psi_hat, naive_dim(shifted).psi_hat),
        (
            ipw(ds, fit.pi_hat, "hajek").psi_hat,
            ipw(shifted, fit_shift.pi_hat, "hajek").psi_hat,
        ),
        (
            g_formula(ds, fit.mu0_hat, fit.mu1_hat).psi_hat,
            g_formula(shifted, fit_shift.mu0_hat, fit_shift.mu1_hat).psi_hat,
        ),
        (aipw(ds, fit).psi_hat, aipw(shifted, fit_shift).psi_hat),
    ]
    for base, moved in pairs:
        assert moved == pytest.approx(base, abs=1e-8 * max(1.0, abs(c)))


@given(st.integers(0, 10**6), st.floats(0.1, 50.0, allow_nan=False))
@settings(max_examples=20, deadline=None)
def test_ate_estimators_scale_equivariant(seed, s):
    ds = _mixed_arm_dataset(seed)
    scaled = ObservationalDataset(x=ds.x, a=ds.a, y=ds.y * s)
    fit = cross_fit(ds, k=3, seed=7)
    fit_scaled = cross_fit(scaled, k=3, seed=7)
    pairs = [
        (naive_dim(ds).psi_hat, naive_dim(scaled).psi_hat),
        (
            ipw(ds, fit.pi_hat, "horvitz_thompson").psi_hat,
            ipw(scaled, fit_scaled.pi_hat, "horvitz_thompson").psi_hat,
        ),
        (aipw(ds, fit).psi_hat, aipw(scaled, fit_scaled).psi_hat),
    ]
    for base, moved in pairs:
        assert moved == pytest.approx(s * base, rel=1e-9, abs=1e-9)


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_influence_vectors_are_centered(seed):
    ds = _mixed_arm_dataset(seed)
    fit = cross_fit(ds, k=3, seed=1)
    for est in (
        naive_dim(ds),
        ipw(ds, fit.pi_hat, "horvitz_thompson"),
        ipw(ds, fit.pi_hat, "hajek"),
        g_formula(ds, fit.mu0_hat, fit.mu1_hat),
        aipw(ds, fit),
    ):
        scale = max(1.0, float(np.max(np.abs(est.eif))))
        assert abs(float(np.mean(est.eif))) < 1e-10 * scale


@given(st.integers(0, 10**6), st.integers(2, 80), st.floats(-5, 5, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_mse_identity(seed, count, true_value):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=count) * 3.0
    s = summarize_estimator("e", values=values, true_value=true_value)
    assert s.mse == s.variance + s.bias**2


@given(st.integers(0, 10**6), st.integers(2, 40), st.integers(2, 12))
@settings(max_examples=50, deadline=None)
def test_make_folds_partitions(seed, n, k):
    if k > n:
        k = n
    folds = make_folds(n, k, seed)
    gathered = np.concatenate([folds.indices(j) for j in range(k)])
    assert np.array_equal(np.sort(gathered), np.arange(n))
    sizes = sorted(folds.indices(j).size for j in range(k))
    assert sizes[-1] - sizes[0] <= 1


def _random_measure(seed, m=8):
    rng = stream(seed)
    support = np.column_stack(
        [np.arange(m) % 2, (np.arange(m) // 2) % 2, np.arange(m) // 4]
    ).astype(float)
    probs = 0.05 + rng.dirichlet(np.ones(m)) * 0.6
    probs /= probs.sum()
    return DiscreteMeasure(names=("x", "a", "y"), support=support, probs=probs)


@given(st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_scores_are_mean_zero_and_factorization_additive(seed):
    p = _random_measure(seed)
    s = random_score(p, stream(seed, 1))
    assert abs(float(p.probs @ s)) < 1e-12
    marg, resid = factorize_score(p, s, given=("x",))
    assert np.allclose(marg + resid, s, atol=1e-12)
    assert abs(float(p.probs @ marg)) < 1e-12
    assert abs(float(p.probs @ resid)) < 1e-12


@given(st.integers(0, 10**6), st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_mix_is_a_measure_and_score_recovers_direction(seed, eps):
    p = _random_measure(seed)
    q = _random_measure(seed + 1)
    mixed = mix(p, q, eps)
    assert mixed.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(mixed.probs >= 0)
    if eps < 1.0:
        s = score_of_path(p, mixed)
        assert abs(float(p.probs @ s)) < 1e-10


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_wald_ratio_identity_bitwise(seed):
    rng = np.random.default_rng(seed)
    n = 200
    z = rng.integers(0, 2, size=n)
    z[0], z[1] = 0, 1
    complier = rng.random(n) < 0.6
    a = np.where(complier, z, rng.integers(0, 2, size=n))
    y = 2.0 * a + rng.normal(size=n)
    ds = IvDataset(z=z, a=a, y=y)
    try:
        est = iv_wald(ds)
    except Exception:
        return  # degenerate first stage; other tests cover the error path
    assert est.psi_hat == est.diagnostics["reduced_form"] / est.diagnostics["first_stage"]


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_logistic_gradient_vanishes(seed):
    rng = np.random.default_rng(seed)
    n = 150
    x = rng.normal(size=(n, 2))
    a = (rng.random(n) < 1.0 / (1.0 + np.exp(-x[:, 0] + 0.3))).astype(int)
    a[0], a[1] = 0, 1
    lam = 1e-2
    model = fit_logistic(x, a, ridge_lambda=lam)
    assert model.converged
    design = np.column_stack([np.ones(n), x])
    p = model.predict_proba(x)
    grad = design.T @ (a - p) - lam * np.concatenate([[0.0], model.coefficients[1:]])
    assert np.max(np.abs(grad)) < 1e-7


@given(st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_child_seed_streams_are_stable_and_distinct(seed):
    assert child_seed(seed, 0) == child_seed(seed, 0)
    assert child_seed(seed, 0) != child_seed(seed, 1)
    assert child_seed(seed, 0, 1) != child_seed(seed, 1, 0)
