"""Influence-function engine: closed forms vs numerical derivatives.

The canonical 8-point measure on (x, a, y) in {0,1}^3 used throughout:

    point (x,a,y):  000   001   010   011   100   101   110   111
    mass         :  .15   .10   .10   .15   .10   .15   .05   .20

Hand-derived facts frozen as oracles:
- pi(0) = pi(1) = 0.5, mu1(0) = 0.6, mu0(0) = 0.4, mu1(1) = 0.8,
  mu0(1) = 0.6, so the counterfactual means are 0.7 and 0.5 and their
  contrast is 0.2;
- E[y] = 0.6; E[y | a=1] = 0.7;
- the contrast influence value at (0,0,0) is -(0-0.4)/0.5 + 0.2 - 0.2 = 0.8
  and at (1,1,1) is (1-0.8)/0.5 + 0.2 - 0.2 = 0.4.
"""

import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from causalkit import (
    Ate,
    CondMean,
    CounterfactualMean,
    DiscreteMeasure,
    Functional,
    Mean,
    central_identity_check,
    closed_form_eif,
    eif_table,
    factorize_score,
    gateaux_if,
    make_functional,
    mix,
    one_step,
    pathwise_derivative,
    random_score,
    score_of_path,
    second_order_remainder,
)
from causalkit import eif_engine
from causalkit.eif_engine import EPS_SCHEDULE, RICHARDSON_RTOL, step_schedule
from causalkit.errors import (
    CausalKitError,
    ConfigError,
    EpsError,
    EvaluabilityError,
    PositivityError,
    SchemaError,
    SupportError,
    ValidationError,
)
from causalkit.rng import stream

NAMES = ("x", "a", "y")
GRID = np.array(
    [[x, a, y] for x in (0.0, 1.0) for a in (0.0, 1.0) for y in (0.0, 1.0)]
)
PROBS = np.array([0.15, 0.10, 0.10, 0.15, 0.10, 0.15, 0.05, 0.20])


def hand_measure() -> DiscreteMeasure:
    return DiscreteMeasure(names=NAMES, support=GRID, probs=PROBS)


def random_measure(seed: int, floor_weight: float = 0.4) -> DiscreteMeasure:
    """Mixture of the uniform grid measure and a Dirichlet draw.

    Every mass is at least floor_weight / 8 (0.05 at the default weight,
    0.02 at weight 0.16).
    """
    rng = stream(seed)
    probs = floor_weight / 8.0 + (1.0 - floor_weight) * rng.dirichlet(np.ones(8))
    return DiscreteMeasure(names=NAMES, support=GRID, probs=probs)


class TestDiscreteMeasure:
    def test_validation(self):
        with pytest.raises(ValidationError, match="sum"):
            DiscreteMeasure(names=("u",), support=np.array([[0.0], [1.0]]), probs=[0.5, 0.6])
        with pytest.raises(ValidationError, match="negative"):
            DiscreteMeasure(names=("u",), support=np.array([[0.0], [1.0]]), probs=[1.1, -0.1])
        with pytest.raises(ValidationError, match="distinct"):
            DiscreteMeasure(names=("u",), support=np.array([[1.0], [1.0]]), probs=[0.5, 0.5])

    def test_column_and_point_access(self):
        p = hand_measure()
        assert np.array_equal(p.column("a"), GRID[:, 1])
        assert p.point(7) == {"x": 1.0, "a": 1.0, "y": 1.0}
        assert p.m == 8

    def test_from_data_counts(self):
        u = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        v = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        p = DiscreteMeasure.from_data(("u", "v"), u, v)
        assert p.m == 4
        idx = {tuple(row): q for row, q in zip(p.support, p.probs)}
        assert idx[(1.0, 1.0)] == pytest.approx(0.4)
        assert idx[(0.0, 1.0)] == pytest.approx(0.2)


def random_grid(rng: np.random.Generator) -> np.ndarray:
    """1-4 columns, up to 200 rows, each column drawn from a few values between
    1e-300 and 1e300 in magnitude (and 0.0), so that rows repeat."""
    k, n = int(rng.integers(1, 5)), int(rng.integers(1, 201))
    columns = []
    for _ in range(k):
        pool = rng.choice([-1.0, 1.0], 4) * 10.0 ** rng.uniform(-300, 300, 4)
        columns.append(rng.choice(np.r_[pool, 0.0], n))
    return np.column_stack(columns)


class TestCells:
    """``_cells`` against ``np.unique(rows, axis=0, return_inverse=True)``, which it replaced."""

    def test_same_cells_and_inverse_as_unique(self):
        rng = stream(2024)
        for _ in range(300):
            rows = random_grid(rng)
            cells, inverse = eif_engine._cells(rows)
            ref_cells, ref_inverse = np.unique(rows, axis=0, return_inverse=True)
            assert cells.tobytes() == ref_cells.tobytes()
            assert inverse.tobytes() == ref_inverse.reshape(-1).tobytes()

    def test_from_data_gives_the_support_and_probs_of_unique(self):
        rng = stream(2025)
        for _ in range(50):
            rows = random_grid(rng)
            p = DiscreteMeasure.from_data([f"c{i}" for i in range(rows.shape[1])], *rows.T)
            points, counts = np.unique(rows, axis=0, return_counts=True)
            assert p.support.tobytes() == points.tobytes()
            assert p.probs.tobytes() == (counts / rows.shape[0]).tobytes()

    @pytest.mark.parametrize("support", [[[1.0, 2.0], [0.0, 1.0], [1.0, 2.0]], [[-0.0, 1.0], [0.0, 1.0]]])
    def test_repeated_point_is_rejected(self, support):
        probs = np.full(len(support), 1.0 / len(support))
        with pytest.raises(ValidationError, match="support points must be distinct"):
            DiscreteMeasure(names=("u", "v"), support=np.array(support), probs=probs)

    def test_signed_zeros_share_a_cell_labelled_by_its_first_row(self):
        rows = np.array([[1.0, 2.0], [-0.0, 1.0], [0.0, 1.0], [1.0, -0.0], [1.0, 0.0]])
        cells, inverse = eif_engine._cells(rows)
        assert cells.tolist() == [[0.0, 1.0], [1.0, 0.0], [1.0, 2.0]]
        assert np.signbit(cells).tolist() == [[True, False], [False, True], [False, False]]
        assert inverse.tolist() == [2, 0, 0, 1, 1]
        cells, _ = eif_engine._cells(rows[::-1])
        assert np.signbit(cells).tolist() == [[False, False], [False, False], [False, False]]
        rows = np.array([[0.0], [1.0], [-0.0]] * 200)  # long enough for an unstable sort to reorder
        assert np.signbit(eif_engine._cells(rows)[0]).tolist() == [[False], [False]]
        assert np.signbit(eif_engine._cells(rows[::-1])[0]).tolist() == [[True], [False]]


class TestFunctionalValues:
    def test_hand_measure_oracles(self):
        p = hand_measure()
        assert Mean("y").value(p) == pytest.approx(0.6, abs=1e-12)
        assert CondMean("y", (("a", 1.0),)).value(p) == pytest.approx(0.7, abs=1e-12)
        assert CounterfactualMean(1).value(p) == pytest.approx(0.7, abs=1e-12)
        assert CounterfactualMean(0).value(p) == pytest.approx(0.5, abs=1e-12)
        assert Ate().value(p) == pytest.approx(0.2, abs=1e-12)

    def test_contrast_vs_naive_gap_differ_under_confounding(self):
        # conditional gap E[y|a=1] - E[y|a=0] is 0.7 - 0.5 only because this
        # measure's propensity is flat; tilt it and the two quantities split
        probs = np.array([0.24, 0.16, 0.04, 0.06, 0.04, 0.06, 0.14, 0.26])
        p = DiscreteMeasure(names=NAMES, support=GRID, probs=probs)
        naive_gap = CondMean("y", (("a", 1.0),)).value(p) - CondMean(
            "y", (("a", 0.0),)
        ).value(p)
        assert Ate().value(p) != pytest.approx(naive_gap, abs=1e-3)

    def test_zero_mass_condition_raises(self):
        p = hand_measure()
        with pytest.raises(EvaluabilityError):
            CondMean("y", (("a", 2.0),)).value(p)

    def test_zero_arm_mass_raises(self):
        probs = np.array([0.25, 0.25, 0.0, 0.0, 0.1, 0.1, 0.15, 0.15])
        p = DiscreteMeasure(names=NAMES, support=GRID, probs=probs)
        with pytest.raises(EvaluabilityError, match="arm 1"):
            CounterfactualMean(1).value(p)

    def test_make_functional_round_trip(self):
        for label in ("ate", "mean(y)", "counterfactual_mean(0)", "counterfactual_mean(1)"):
            assert make_functional(label).label == label
        f = make_functional("cond_mean(y|a=1,x=0)")
        assert isinstance(f, CondMean)
        assert f.conditions == (("a", 1.0), ("x", 0.0))

    def test_make_functional_rejects_garbage(self):
        for bad in ("", "median(y)", "cond_mean(y|)", "cond_mean(y|a)", "counterfactual_mean(2)"):
            with pytest.raises(ConfigError):
                make_functional(bad)


class TestPathsAndScores:
    def test_mix_oracle(self):
        p = DiscreteMeasure(names=("u",), support=np.array([[0.0], [1.0]]), probs=[0.5, 0.5])
        g = DiscreteMeasure(names=("u",), support=np.array([[1.0]]), probs=[1.0])
        mixed = mix(p, g, 0.5)
        lookup = {row[0]: q for row, q in zip(mixed.support, mixed.probs)}
        assert lookup[0.0] == pytest.approx(0.25, abs=1e-15)
        assert lookup[1.0] == pytest.approx(0.75, abs=1e-15)

    def test_mix_eps_bounds(self):
        p = hand_measure()
        with pytest.raises(EpsError):
            mix(p, p, 1.5)

    def test_score_of_path_oracle(self):
        p = DiscreteMeasure(names=("u",), support=np.array([[0.0], [1.0]]), probs=[0.5, 0.5])
        tilted = DiscreteMeasure(
            names=("u",), support=np.array([[0.0], [1.0]]), probs=[0.25, 0.75]
        )
        s = score_of_path(p, tilted)
        assert s == pytest.approx([-0.5, 0.5], abs=1e-15)
        assert float(p.probs @ s) == pytest.approx(0.0, abs=1e-15)

    def test_score_requires_domination(self):
        p = DiscreteMeasure(names=("u",), support=np.array([[0.0], [1.0]]), probs=[1.0, 0.0])
        tilted = DiscreteMeasure(
            names=("u",), support=np.array([[0.0], [1.0]]), probs=[0.5, 0.5]
        )
        with pytest.raises(SupportError):
            score_of_path(p, tilted)

    def test_random_scores_are_centered(self):
        p = hand_measure()
        for i in range(20):
            s = random_score(p, stream(i))
            assert abs(float(p.probs @ s)) < 1e-12

    def test_factorization_is_additive_and_orthogonal(self):
        p = hand_measure()
        s = random_score(p, stream(5))
        marg, resid = factorize_score(p, s, given=("x",))
        assert np.allclose(marg + resid, s, atol=1e-12)
        # the marginal part is constant within x-groups
        for xv in (0.0, 1.0):
            rows = p.column("x") == xv
            assert np.ptp(marg[rows]) < 1e-12
            # the residual has zero conditional mean within each group
            assert abs(float(p.probs[rows] @ resid[rows])) < 1e-12

    def test_factorized_parts_are_valid_directions(self):
        p = hand_measure()
        f = Ate()
        s = random_score(p, stream(6))
        marg, resid = factorize_score(p, s, given=("x",))
        whole = pathwise_derivative(f, p, s)
        parts = pathwise_derivative(f, p, marg) + pathwise_derivative(f, p, resid)
        assert whole == pytest.approx(parts, abs=1e-6)


class TestGateaux:
    def test_matches_closed_form_on_hand_measure(self):
        p = hand_measure()
        for f in (Mean("y"), CondMean("y", (("a", 1.0),)), CounterfactualMean(1), Ate()):
            phi_num, err = eif_table(f, p)
            phi_cf = closed_form_eif(f, p)
            assert np.max(np.abs(phi_num - phi_cf)) < 1e-9
            assert np.all(err < 1e-8)

    def test_hand_influence_values(self):
        p = hand_measure()
        phi = closed_form_eif(Ate(), p)
        assert phi[0] == pytest.approx(0.8, abs=1e-12)  # point (0,0,0)
        assert phi[7] == pytest.approx(0.4, abs=1e-12)  # point (1,1,1)

    def test_numerical_eif_mean_zero(self):
        p = random_measure(3)
        for f in (Mean("y"), Ate()):
            phi, _ = eif_table(f, p)
            assert abs(float(p.probs @ phi)) < 1e-10

    def test_off_support_point(self):
        p = hand_measure()
        res = gateaux_if(Mean("y"), p, {"x": 0.0, "a": 1.0, "y": 5.0})
        # influence of mean at point z is z_y - E[y]
        assert res.value == pytest.approx(5.0 - 0.6, abs=1e-8)

    def test_pathwise_matches_mixture_chain_rule(self):
        # moving toward delta_z along the canonical path has score
        # s = 1[z]/p(z) - 1, and its pathwise derivative is the influence value
        p = hand_measure()
        f = Ate()
        j = 7
        s = np.zeros(8)
        s[j] = 1.0 / PROBS[j]
        s -= 1.0
        d = pathwise_derivative(f, p, s)
        phi = closed_form_eif(f, p)
        assert d == pytest.approx(phi[j], abs=1e-6)

    def test_pathwise_rejects_uncentered_score(self):
        p = hand_measure()
        with pytest.raises(ValidationError, match="mean"):
            pathwise_derivative(Mean("y"), p, np.ones(8))

    def test_pathwise_rejects_oversized_eps(self):
        p = hand_measure()
        s = np.array([4000.0, -4000.0, 0, 0, 0, 0, 0, 0], dtype=float)
        s -= float(PROBS @ s)
        with pytest.raises(EpsError):
            pathwise_derivative(Mean("y"), p, s)


class TestCentralIdentity:
    def test_gap_small_over_random_scores(self):
        p = hand_measure()
        for f in (Mean("y"), CounterfactualMean(0), Ate()):
            for i in range(10):
                rep = central_identity_check(f, p, random_score(p, stream(i)))
                assert rep.gap < 1e-6

    def test_lhs_rhs_reported(self):
        p = hand_measure()
        rep = central_identity_check(Ate(), p, random_score(p, stream(0)))
        assert rep.gap == pytest.approx(abs(rep.lhs - rep.rhs), abs=1e-15)


class TestOneStepAndRemainder:
    def test_one_step_error_equals_r2(self):
        # the defining property: one-step based at a wrong measure, averaged
        # over the true measure, misses the truth by exactly r2
        p_true = random_measure(11)
        p_est = random_measure(12)
        for label in ("counterfactual_mean(1)", "ate"):
            f = make_functional(label)
            est = one_step(f, p_est, sample=p_true)
            r2 = second_order_remainder(p_true, p_est, functional=f).r2
            assert est - f.value(p_true) == pytest.approx(r2, abs=1e-7)

    def test_r2_zero_when_propensity_exact(self):
        # same a-marginal per x-cell, different outcome law
        p_true = hand_measure()
        probs = np.array([0.20, 0.05, 0.05, 0.20, 0.05, 0.20, 0.10, 0.15])
        p_est = DiscreteMeasure(names=NAMES, support=GRID, probs=probs)
        res = second_order_remainder(p_true, p_est)
        assert res.r2 == 0.0

    def test_r2_zero_when_outcome_exact(self):
        # tilt the propensity but preserve mu_a(x) by scaling (a, x) blocks
        # uniformly over y, keeping each cell's outcome distribution
        probs = PROBS.copy()
        block = probs[2:4].sum()
        probs[2:4] *= 0.6 * block / block
        probs[0:2] += 0.4 * PROBS[2:4].sum() * PROBS[0:2] / PROBS[0:2].sum()
        probs /= probs.sum()
        p_est = DiscreteMeasure(names=NAMES, support=GRID, probs=probs)
        res = second_order_remainder(hand_measure(), p_est)
        assert abs(res.r2) < 1e-12

    def test_bound_holds_on_random_pairs(self):
        for i in range(50):
            p_true = random_measure(2 * i, floor_weight=0.16)
            p_est = random_measure(2 * i + 1, floor_weight=0.16)
            res = second_order_remainder(p_true, p_est)
            assert abs(res.r2) <= res.bound + 1e-12

    def test_missing_cell_in_estimate_raises(self):
        p_true = hand_measure()
        p_est = DiscreteMeasure(
            names=NAMES, support=GRID[:6], probs=PROBS[:6] / PROBS[:6].sum()
        )
        with pytest.raises((SupportError, PositivityError)):
            second_order_remainder(p_true, p_est)

    def test_unsupported_functional_rejected(self):
        with pytest.raises(ConfigError):
            second_order_remainder(hand_measure(), hand_measure(), functional=Mean("y"))


# ---------------------------------------------------------------------------
# The per-point engine that the batched one replaced, kept as a reference:
# one functional evaluation per perturbed mass vector, covariate cells found
# by a group loop, rows matched by exact coordinate tuples.


def _ref_key(row):
    return tuple(float(v) for v in row)


def _ref_value(f, names, support, probs):
    if isinstance(f, Ate):
        return _ref_value(CounterfactualMean(1), names, support, probs) - _ref_value(
            CounterfactualMean(0), names, support, probs
        )
    total = float(probs.sum())
    if isinstance(f, Mean):
        if total == 0.0:
            raise EvaluabilityError("total mass is zero")
        return float(probs @ support[:, names.index(f.coord)]) / total
    if isinstance(f, CondMean):
        mask = np.ones(support.shape[0], dtype=bool)
        for cname, cval in f.conditions:
            mask &= support[:, names.index(cname)] == cval
        denom = float(probs[mask].sum())
        if denom == 0.0:
            raise EvaluabilityError(f"conditioning event {dict(f.conditions)} has zero mass")
        return float(probs[mask] @ support[mask, names.index(f.coord)]) / denom
    # CounterfactualMean: one pass over the covariate cells
    a_idx, y_idx = names.index("a"), names.index("y")
    x_idx = [i for i in range(len(names)) if i not in (a_idx, y_idx)]
    if total == 0.0:
        raise EvaluabilityError("total mass is zero")
    _, inverse = np.unique(support[:, x_idx], axis=0, return_inverse=True)
    inverse = inverse.ravel()
    acc = 0.0
    for g in range(int(inverse.max()) + 1):
        rows = np.flatnonzero(inverse == g)
        px = float(probs[rows].sum())
        arm_rows = rows[support[rows, a_idx] == f.arm]
        pax = float(probs[arm_rows].sum())
        if pax == 0.0:
            if px == 0.0:
                continue
            raise EvaluabilityError(
                f"cell with covariates {support[rows[0], x_idx]} has zero mass on arm {f.arm}"
            )
        acc += px * float(probs[arm_rows] @ support[arm_rows, y_idx]) / pax
    return acc / total


def _ref_gateaux(f, p, z, eps):
    row = np.asarray(z, dtype=float)
    match = [i for i in range(p.m) if _ref_key(p.support[i]) == _ref_key(row)]
    support, j = (p.support, match[0]) if match else (np.vstack([p.support, row]), p.m)
    base = np.zeros(support.shape[0])
    base[: p.m] = p.probs

    def evaluate(e):
        probs = (1.0 - e) * base
        probs[j] += e
        return _ref_value(f, p.names, support, probs)

    d = [(evaluate(e) - evaluate(-e)) / (2.0 * e) for e in eps]
    r1 = (4.0 * d[1] - d[0]) / 3.0
    r1b = (4.0 * d[2] - d[1]) / 3.0
    return (16.0 * r1b - r1) / 15.0, abs(r1b - r1)


def _ref_one_step(f, p_est, sample, eps):
    correction = 0.0
    for j in range(sample.m):
        if sample.probs[j] == 0.0:
            continue
        correction += float(sample.probs[j]) * _ref_gateaux(f, p_est, sample.support[j], eps)[0]
    return _ref_value(f, p_est.names, p_est.support, p_est.probs) + correction


def _ref_score_of_path(p, ptilde):
    index = {_ref_key(row): i for i, row in enumerate(p.support)}
    ratio = np.zeros(p.m)
    for j, row in enumerate(ptilde.support):
        key = _ref_key(row)
        if key not in index:
            if ptilde.probs[j] > 0:
                raise SupportError(
                    f"domination violated: point {dict(zip(p.names, row))} has mass "
                    "under the target but is outside the base support"
                )
            continue
        i = index[key]
        if p.probs[i] == 0.0:
            if ptilde.probs[j] > 0:
                raise SupportError(
                    f"domination violated at {dict(zip(p.names, row))}: base mass is zero"
                )
            continue
        ratio[i] = ptilde.probs[j] / p.probs[i]
    return ratio - 1.0


REF_RTOL = 1e-9
FUNCTIONALS = (
    Mean("y"),
    CondMean("y", (("a", 1.0),)),
    CondMean("y", (("x", 1.0), ("a", 0.0))),
    CounterfactualMean(0),
    CounterfactualMean(1),
    Ate(),
)


def assert_close(batched, reference):
    batched, reference = np.asarray(batched, float), np.asarray(reference, float)
    assert np.all(np.abs(batched - reference) <= REF_RTOL * np.maximum(1.0, np.abs(reference)))


def outcome_measure(seed: int, cells: int = 3) -> DiscreteMeasure:
    """x in 0..cells-1, a in {0, 1}, two real outcomes per arm-by-cell."""
    rng = stream(seed)
    draws = rng.normal(0.0, 3.0, (cells, 2, 2)).round(3)
    rows = [
        [x, a, y]
        for x in range(cells)
        for a in (0, 1)
        for y in (draws[x, a, 0], draws[x, a, 0] + 1.0 + abs(draws[x, a, 1]))
    ]
    probs = 0.3 / len(rows) + 0.7 * rng.dirichlet(np.ones(len(rows)))
    return DiscreteMeasure(names=NAMES, support=np.array(rows, float), probs=probs / probs.sum())


def outcomes(call):
    """('ok', value) or (error type, message), to compare two engines."""
    try:
        return "ok", call()
    except (EvaluabilityError, SupportError, PositivityError, EpsError) as exc:
        return type(exc), str(exc)


def assert_same_outcome(batched, reference):
    got, want = outcomes(batched), outcomes(reference)
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        for g, w in zip(np.atleast_1d(got[1]), np.atleast_1d(want[1])):
            assert_close(g, w)
    else:
        assert got[1] == want[1]


MEASURES = [hand_measure(), random_measure(3), outcome_measure(1), outcome_measure(2, cells=5)]


class TestBatchedAgainstReference:
    @pytest.mark.parametrize("p", MEASURES, ids=["hand", "random", "outcomes", "five_cells"])
    @pytest.mark.parametrize("f", FUNCTIONALS, ids=lambda f: f.label)
    def test_values_and_eif_table(self, f, p):
        assert_close(f.value(p), _ref_value(f, p.names, p.support, p.probs))
        eps = step_schedule(f, p)
        phi, err = eif_table(f, p)
        ref = np.array([_ref_gateaux(f, p, row, eps) for row in p.support])
        assert_close(phi, ref[:, 0])
        assert_close(err, ref[:, 1])

    @pytest.mark.parametrize("p", MEASURES, ids=["hand", "random", "outcomes", "five_cells"])
    @pytest.mark.parametrize("f", FUNCTIONALS, ids=lambda f: f.label)
    def test_eif_table_is_gateaux_at_each_support_point(self, f, p):
        # eif_table targets p's own rows without matching them against the
        # support; gateaux_if matches its point first; the bits agree
        phi, err = eif_table(f, p)
        each = [gateaux_if(f, p, row) for row in p.support]
        assert phi.tolist() == [r.value for r in each]
        assert err.tolist() == [r.error_estimate for r in each]

    @pytest.mark.parametrize("f", FUNCTIONALS, ids=lambda f: f.label)
    def test_gateaux_on_and_off_support(self, f):
        p = outcome_measure(4)
        eps = step_schedule(f, p)
        points = [
            p.support[5],  # on the support
            [1.0, 1.0, 42.0],  # a new outcome in an existing arm-by-cell
            [2.0, 0.0, -0.0],  # a new outcome, y = -0.0
            [7.0, 1.0, 1.0],  # a new covariate cell, arm 1 only
            [7.0, 0.0, 1.0],  # a new covariate cell, arm 0 only
        ]
        for z in points:
            assert_same_outcome(
                lambda: gateaux_if(f, p, z).value, lambda: _ref_gateaux(f, p, z, eps)[0]
            )
            assert_same_outcome(
                lambda: gateaux_if(f, p, z).error_estimate, lambda: _ref_gateaux(f, p, z, eps)[1]
            )

    @pytest.mark.parametrize("f", FUNCTIONALS, ids=lambda f: f.label)
    def test_one_step_with_off_support_sample(self, f):
        p_est = outcome_measure(5)
        eps = step_schedule(f, p_est)
        extra = np.array([[0.0, 1.0, 9.5], [2.0, 0.0, -4.0], [1.0, 1.0, 0.25]])
        on_support = outcome_measure(6).support[:4]
        for support in (on_support, np.vstack([on_support, extra]), np.vstack([extra, [[9.0, 1.0, 0.0]]])):
            probs = stream(len(support)).dirichlet(np.ones(len(support)))
            probs[1] = 0.0  # zero-mass sample points are skipped
            sample = DiscreteMeasure(names=NAMES, support=support, probs=probs / probs.sum())
            assert_same_outcome(
                lambda: one_step(f, p_est, sample), lambda: _ref_one_step(f, p_est, sample, eps)
            )

    def test_zero_mass_cells(self):
        # cell x=1 has no arm-1 mass; cell x=2 has no mass at all
        support = np.array([[x, a, y] for x in (0.0, 1.0, 2.0) for a in (0.0, 1.0) for y in (0.0, 1.0)])
        probs = np.array([0.1, 0.2, 0.15, 0.15, 0.2, 0.2, 0.0, 0.0, 0, 0, 0, 0])
        no_arm = DiscreteMeasure(names=NAMES, support=support, probs=probs)
        empty_cell = DiscreteMeasure(
            names=NAMES, support=support, probs=np.r_[PROBS, 0, 0, 0, 0]
        )
        for p in (no_arm, empty_cell):
            for f in FUNCTIONALS:
                eps = step_schedule(f, p)
                assert_same_outcome(
                    lambda: f.value(p), lambda: _ref_value(f, p.names, p.support, p.probs)
                )
                assert_same_outcome(
                    lambda: eif_table(f, p)[0],
                    lambda: [_ref_gateaux(f, p, row, eps)[0] for row in p.support],
                )
        with pytest.raises(EvaluabilityError, match=r"covariates \[1.\] has zero mass on arm 1"):
            eif_table(Ate(), no_arm)
        with pytest.raises(EvaluabilityError, match=r"covariates \[2.\] has zero mass on arm 1"):
            eif_table(Ate(), empty_cell)
        with pytest.raises(EvaluabilityError, match="zero mass"):
            eif_table(CondMean("y", (("x", 2.0),)), empty_cell)

    def test_score_of_path(self):
        p = outcome_measure(7)
        for seed in range(5):
            probs = stream(seed).dirichlet(np.ones(p.m))
            tilted = DiscreteMeasure(names=NAMES, support=p.support[::-1], probs=probs)
            assert_close(score_of_path(p, tilted), _ref_score_of_path(p, tilted))
        # an off-support point is allowed only without mass
        off = np.vstack([p.support[:3], [[9.0, 0.0, 0.0]]])
        for last in (0.0, 0.1):
            probs = np.array([0.5, 0.3, 0.2 - last, last])
            tilted = DiscreteMeasure(names=NAMES, support=off, probs=probs)
            assert_same_outcome(
                lambda: score_of_path(p, tilted), lambda: _ref_score_of_path(p, tilted)
            )
        # a zero-mass base point may carry no target mass
        base = DiscreteMeasure(names=NAMES, support=GRID, probs=np.r_[PROBS[:7] / PROBS[:7].sum(), 0.0])
        for last in (0.0, 0.2):
            probs = np.r_[PROBS[:7] * (1.0 - last) / PROBS[:7].sum(), last]
            tilted = DiscreteMeasure(names=NAMES, support=GRID, probs=probs)
            assert_same_outcome(
                lambda: score_of_path(base, tilted), lambda: _ref_score_of_path(base, tilted)
            )

    def test_large_outcome_without_mass_leaves_other_points_alone(self):
        # a zero-mass support point, or an off-support sample point, with a huge
        # outcome sets the rounding scale of its own direction only
        p = outcome_measure(9)
        support = np.vstack([p.support, [[1.0, 1.0, 1e6]]])
        p = DiscreteMeasure(names=NAMES, support=support, probs=np.r_[p.probs, 0.0])
        for f in (Mean("y"), CondMean("y", (("a", 1.0),)), CounterfactualMean(1), Ate()):
            eps = step_schedule(f, p)
            phi, err = eif_table(f, p)
            ref = np.array([_ref_gateaux(f, p, row, eps) for row in p.support])
            assert_close(phi, ref[:, 0])
            assert_close(err[:-1], ref[:-1, 1])
            sample_support = np.vstack([p.support[:3], [[2.0, 0.0, 1e6]]])
            sample = DiscreteMeasure(names=NAMES, support=sample_support, probs=[0.3, 0.3, 0.3, 0.1])
            assert_same_outcome(lambda: one_step(f, p, sample), lambda: _ref_one_step(f, p, sample, eps))

    def test_large_empirical_measure(self):
        # 20000 distinct rows in 10000 continuous covariate cells, one per arm:
        # the cost of every evaluation grows with m, not with m times the cells
        rng = stream(10)
        x = np.repeat(rng.normal(size=10_000), 2)
        p = DiscreteMeasure.from_data(NAMES, x, np.tile([0.0, 1.0], 10_000), rng.normal(size=20_000))
        assert p.m == 20_000
        for f in (Mean("y"), CounterfactualMean(0), Ate()):
            phi_cf = closed_form_eif(f, p)
            assert abs(float(p.probs @ phi_cf)) < 1e-9
            phi, _ = eif_table(f, p)
            assert np.max(np.abs(phi - phi_cf)) < 1e-6
            for j in (0, 12_345):
                assert gateaux_if(f, p, p.support[j]).value == pytest.approx(phi_cf[j], abs=1e-6)
        assert Ate().value(p) == pytest.approx(_ref_value(Ate(), NAMES, p.support, p.probs), abs=1e-12)


class TestStepRule:
    def small_cell_measure(self, mass):
        """The hand measure with the (x=0, a=1) cell scaled to total mass `mass`."""
        small = (GRID[:, 0] == 0) & (GRID[:, 1] == 1)
        probs = np.where(small, PROBS * mass / PROBS[small].sum(), PROBS * (1 - mass) / PROBS[~small].sum())
        return DiscreteMeasure(names=NAMES, support=GRID, probs=probs)

    def test_default_schedule_scales_with_the_smallest_denominator(self):
        p = self.small_cell_measure(1e-3)
        assert step_schedule(Ate(), p) == pytest.approx((2e-5, 1e-5, 5e-6), rel=1e-12)
        assert step_schedule(Mean("y"), p) == EPS_SCHEDULE
        assert step_schedule(Ate(), hand_measure()) == EPS_SCHEDULE

    def test_small_cell_is_accurate_with_the_default(self):
        p = self.small_cell_measure(1e-3)
        phi, err = eif_table(Ate(), p)
        assert np.max(np.abs(phi - closed_form_eif(Ate(), p))) < 1e-9

    def test_rounding_swamping_the_stages_fails_loud(self):
        # at an arm-by-cell mass of 5.4e-8 the shrunk steps leave the stages
        # agreeing, and the rounding bound is what raises
        p = near_positivity_measure(463883, 10.0**-7.264710851554205, arm=0)
        for call in (lambda: eif_table(Ate(), p), lambda: gateaux_if(Ate(), p, p.support[2])):
            with pytest.raises(EpsError, match=r"error estimate \S+ exceeds 1e-06 \* max\(1, "):
                call()

    @given(seed=st.integers(0, 10**6), exponent=st.floats(0.5, 10.0), arm=st.sampled_from((0, 1)))
    @settings(max_examples=150, deadline=None)
    # rounding swamps the stage disagreement: the rounding bound must raise
    @example(seed=463883, exponent=7.264710851554205, arm=0)
    def test_near_positivity_is_accurate_or_loud(self, seed, exponent, arm):
        # one arm-by-cell of a 3-cell measure with real outcomes holds mass 10^-exponent
        p = near_positivity_measure(seed, 10.0**-exponent, arm)
        for f in (Ate(), CounterfactualMean(arm)):
            try:
                phi, _ = eif_table(f, p)
            except EpsError:
                continue
            phi_cf = closed_form_eif(f, p)
            assert np.all(np.abs(phi - phi_cf) <= RICHARDSON_RTOL * np.maximum(1.0, np.abs(phi_cf)))

    @given(seed=st.integers(0, 10**6), exponent=st.floats(0.5, 12.0), arm=st.sampled_from((0, 1)))
    @settings(max_examples=100, deadline=None)
    def test_no_mixture_step_moves_a_denominator_through_zero(self, seed, exponent, arm):
        # the shrunk steps are at most 1/50 of the smallest denominator mass, so a
        # mixture step leaves every positive one positive: each engine call at a
        # near-empty arm-by-cell returns, or fails its accuracy check
        p = near_positivity_measure(seed, 10.0**-exponent, arm)
        z = {"x": 0.0, "a": float(arm), "y": 42.0}  # off the support, in the small arm-by-cell
        sample = DiscreteMeasure(names=NAMES, support=np.vstack([p.support[:3], [[0.0, arm, 42.0]]]),
                                 probs=np.full(4, 0.25))
        for f in (Ate(), CounterfactualMean(arm)):
            # the step -e0 toward a unit of a cell takes its denominator mass m' to (1+e0) m' - e0 at least
            e0, masses = step_schedule(f, p)[0], eif_engine._forms_at(f, p)[1][:, 1::2]
            assert np.all((1.0 + e0) * masses[masses > 0.0] - e0 > 0.0)
            for call in (lambda: eif_table(f, p), lambda: gateaux_if(f, p, z), lambda: one_step(f, p, sample)):
                try:
                    call()
                except EpsError as exc:
                    assert re.search(r"error estimate \S+ exceeds", str(exc)), str(exc)


def near_positivity_measure(seed: int = 4, mass: float = 1e-3, arm: int = 1) -> DiscreteMeasure:
    """outcome_measure(seed) with its (x=0, a=arm) arm-by-cell scaled to total mass `mass`."""
    p = outcome_measure(seed)
    small = (p.support[:, 0] == 0) & (p.support[:, 1] == arm)
    probs = np.where(small, p.probs * mass / p.probs[small].sum(), p.probs * (1 - mass) / p.probs[~small].sum())
    return DiscreteMeasure(names=NAMES, support=p.support, probs=probs)


STACK_FUNCTIONALS = (Ate(), Mean("y"), CondMean("y", (("a", 1.0),)), CounterfactualMean(0))
STACK_MEASURES = [hand_measure(), random_measure(5), outcome_measure(1), near_positivity_measure()]
# the rows of a functional's denominators: one arm-by-cell, or the conditioning event
DENOMINATOR_ROWS = {
    "ate": lambda s: (s[:, 0] == 0) & (s[:, 1] == 0),
    "counterfactual_mean(0)": lambda s: (s[:, 0] == 0) & (s[:, 1] == 0),
    "cond_mean(y|a=1)": lambda s: s[:, 1] == 1,
}


def score_stack(p: DiscreteMeasure, b: int = 9) -> np.ndarray:
    return np.array([random_score(p, stream(31, i)) for i in range(b)])


def error_of(call) -> tuple[type, str]:
    with pytest.raises(CausalKitError) as info:
        call()
    return type(info.value), str(info.value)


class TestStackedScores:
    """pathwise_derivative on a (B, m) stack is its rows' single calls."""

    @pytest.mark.parametrize("p", STACK_MEASURES)
    @pytest.mark.parametrize("f", STACK_FUNCTIONALS, ids=lambda f: f.label)
    def test_stack_equals_its_rows_bit_for_bit(self, f, p):
        scores = score_stack(p)
        stacked = pathwise_derivative(f, p, scores)
        single = [pathwise_derivative(f, p, s) for s in scores]
        assert isinstance(stacked, np.ndarray) and stacked.shape == (len(scores),)
        assert stacked.tobytes() == np.array(single).tobytes()
        assert pathwise_derivative(f, p, scores[:1]).tobytes() == np.array(single[:1]).tobytes()

    @pytest.mark.parametrize("f", STACK_FUNCTIONALS, ids=lambda f: f.label)
    def test_one_score_is_a_float(self, f):
        p = near_positivity_measure()
        s = score_stack(p, 1)[0]
        assert type(pathwise_derivative(f, p, s)) is float

    def test_empty_stack(self):
        p = hand_measure()
        assert pathwise_derivative(Ate(), p, np.empty((0, p.m))).shape == (0,)
        with pytest.raises(ValidationError, match="length"):
            pathwise_derivative(Ate(), p, np.empty((0, p.m + 1)))

    @pytest.mark.parametrize("k", [0, 3, 8])
    @pytest.mark.parametrize("p", STACK_MEASURES)
    @pytest.mark.parametrize("f", STACK_FUNCTIONALS, ids=lambda f: f.label)
    def test_kth_row_with_nonzero_mean_or_oversized_step(self, f, p, k):
        for bad_row, kind in ((lambda s: s + 0.01, ValidationError), (lambda s: s * 3000.0, EpsError)):
            scores = score_stack(p)
            scores[k] = bad_row(scores[k])
            want = error_of(lambda: pathwise_derivative(f, p, scores[k]))
            assert want[0] is kind
            assert error_of(lambda: pathwise_derivative(f, p, scores)) == want

    @pytest.mark.parametrize("k", [0, 3, 8])
    @pytest.mark.parametrize("p", STACK_MEASURES)
    @pytest.mark.parametrize("label", sorted(DENOMINATOR_ROWS))
    def test_kth_row_stepping_through_a_zero_denominator(self, label, p, k):
        # s = -1/eps0 on a denominator's rows sends its mass to exactly zero at the step eps0
        f = make_functional(label)
        rows = DENOMINATOR_ROWS[label](p.support)
        scores = score_stack(p) * 0.1
        scores[k] = np.where(rows, -1000.0, 1000.0 * p.probs[rows].sum() / p.probs[~rows].sum())
        want = error_of(lambda: pathwise_derivative(f, p, scores[k]))
        assert want[0] is EpsError and "through zero" in want[1]
        assert error_of(lambda: pathwise_derivative(f, p, scores)) == want

    def test_first_failing_row_decides(self):
        # a row failing in the evaluation comes before a later row failing validation
        p, f = hand_measure(), Ate()
        rows = DENOMINATOR_ROWS["ate"](p.support)
        scores = score_stack(p) * 0.1
        scores[2] = np.where(rows, -1000.0, 1000.0 * p.probs[rows].sum() / p.probs[~rows].sum())
        scores[4] += 0.01
        scores[6] = np.where(rows, -1000.0, 500.0)
        scores[6] -= float(p.probs @ scores[6])
        want = error_of(lambda: pathwise_derivative(f, p, scores[2]))
        assert want[0] is EpsError and "through zero" in want[1]
        assert error_of(lambda: pathwise_derivative(f, p, scores)) == want
        assert error_of(lambda: pathwise_derivative(f, p, scores[3:]))[0] is ValidationError


def _ref_arm_closed_form(p: DiscreteMeasure, arm: int) -> np.ndarray:
    """The arm's closed form as computed before forms were kept on the measure:
    its own cell sums, and psi as CounterfactualMean(arm).value evaluates it."""
    forms = CounterfactualMean(arm).forms(p.names, p.support)
    table = forms.table(p.probs)
    px, pax, ny = table.T
    pi, mu = (pax / px)[forms.cell], (ny / pax)[forms.cell]
    psi = float(eif_engine._evaluate(forms, table[None])[0])
    return (p.column("a") == arm).astype(float) / pi * (p.column("y") - mu) + mu - psi


def fresh(p: DiscreteMeasure) -> DiscreteMeasure:
    """A new measure equal to p, with no forms kept on it."""
    return DiscreteMeasure(names=p.names, support=p.support, probs=p.probs)


# 2 to 150 covariate cells: numpy sums fewer than 8, up to 128 and more terms in different orders
BIT_MEASURES = [
    *MEASURES,
    outcome_measure(6, cells=12),
    outcome_measure(7, cells=150),
    random_measure(8, floor_weight=0.16),
    near_positivity_measure(),
]


class TestFormsKeptOnTheMeasure:
    """A functional's forms and base table are built once per measure."""

    @pytest.mark.parametrize("p", BIT_MEASURES)
    def test_ate_closed_form_is_its_arms_bit_for_bit(self, p):
        arms = {arm: closed_form_eif(CounterfactualMean(arm), p) for arm in (1, 0)}
        assert closed_form_eif(Ate(), p).tobytes() == (arms[1] - arms[0]).tobytes()
        assert closed_form_eif(Ate(), fresh(p)).tobytes() == (arms[1] - arms[0]).tobytes()
        for arm, phi in arms.items():
            assert phi.tobytes() == _ref_arm_closed_form(p, arm).tobytes()

    def test_one_measure_gives_each_functional_its_own_forms(self):
        p = outcome_measure(3)
        for f in FUNCTIONALS:
            forms, table = eif_engine._forms_at(f, p)
            alone = fresh(p)  # f is the only functional used on it
            assert forms.unit.shape[1] == 1 + 2 * max(1, len(forms.arms))
            assert forms.arms == getattr(f, "arms", ())
            assert table.tobytes() == forms.table(p.probs).tobytes()
            assert f.value(p) == f.value(alone)
            assert step_schedule(f, p) == step_schedule(f, alone)
            assert closed_form_eif(f, p).tobytes() == closed_form_eif(f, alone).tobytes()
            assert eif_table(f, p)[0].tobytes() == eif_table(f, alone)[0].tobytes()
        assert eif_engine._forms_at(Ate(), p) is eif_engine._forms_at(Ate(), p)

    def test_forms_are_built_once_per_functional_and_measure(self, monkeypatch):
        calls, build = [], eif_engine._arm_forms
        monkeypatch.setattr(eif_engine, "_arm_forms", lambda *args: calls.append(args[2]) or build(*args))
        p, f = outcome_measure(4), Ate()
        eif_table(f, p)
        closed_form_eif(f, p), f.value(p), pathwise_derivative(f, p, score_stack(p))
        assert calls == [(1, 0)]
        closed_form_eif(CounterfactualMean(0), p), Ate().value(p)
        assert calls == [(1, 0), (0,)]
        Ate().value(fresh(p))
        assert calls == [(1, 0), (0,), (1, 0)]

    def test_kept_table_is_read_only_and_a_measure_still_pickles(self):
        p = outcome_measure(5)
        phi = closed_form_eif(Ate(), p)
        with pytest.raises(ValueError, match="read-only"):
            eif_engine._forms_at(Ate(), p)[1][0, 0] = 1.0
        assert closed_form_eif(Ate(), pickle.loads(pickle.dumps(p))).tobytes() == phi.tobytes()


class Median(Functional):
    """A functional with no closed form in the engine."""

    label = "median(y)"


def lacking(rows) -> DiscreteMeasure:
    """The hand measure without the given support rows, renormalized."""
    keep = np.setdiff1d(np.arange(8), rows)
    return DiscreteMeasure(names=NAMES, support=GRID[keep], probs=PROBS[keep] / PROBS[keep].sum())


WIDE = "score must be a vector of length 8, the support size; got shape"


class TestRejectedInputs:
    """Each check on an engine input raises its own class and message."""

    @pytest.mark.parametrize("kwargs, message", [
        ({"names": ()}, "coordinate names must be non-empty and distinct"),
        ({"names": ("u", "u")}, "coordinate names must be non-empty and distinct"),
        ({"support": np.zeros(2)}, "support must have shape (m, 1), got (2,)"),
        ({"support": np.zeros((0, 1)), "probs": []}, "support must contain at least one point"),
        ({"support": [[0.0], [np.nan]]}, "support contains non-finite coordinates"),
        ({"probs": [1.0]}, "probs must have one entry per support point"),
        ({"probs": [np.nan, 1.0]}, "probs must sum to 1 within 1e-12, got nan"),
    ])
    def test_discrete_measure(self, kwargs, message):
        args = {"names": ("u",), "support": [[0.0], [1.0]], "probs": [0.5, 0.5], **kwargs}
        assert error_of(lambda: DiscreteMeasure(**args)) == (ValidationError, message)

    @pytest.mark.parametrize("columns, message", [
        ((np.zeros(2),), "one column per coordinate name required"),
        ((np.zeros(0), np.zeros(0)), "empirical measure needs at least one observation"),
    ])
    def test_from_data(self, columns, message):
        assert error_of(lambda: DiscreteMeasure.from_data(("u", "v"), *columns)) == (ValidationError, message)

    @pytest.mark.parametrize("text, message", [
        ("u,v\n0,1\n", "measure file {path} has no 'prob' column"),
        ("prob\n1\n", "measure file needs at least one coordinate column plus probabilities"),
    ])
    def test_from_csv(self, tmp_path, text, message):
        path = tmp_path / "measure.csv"
        path.write_text(text)
        assert error_of(lambda: DiscreteMeasure.from_csv(str(path))) == (SchemaError, message.format(path=path))

    @pytest.mark.parametrize("z, message", [
        ({"x": 0.0, "a": 1.0}, "point is missing coordinates ['y']"),
        ({"x": 0.0, "a": 1.0, "y": 0.0, "w": 1.0}, "point has unknown coordinates ['w']"),
        ([0.0, 1.0], "point must have 3 coordinates"),
        ({"x": 0.0, "a": 1.0, "y": np.inf}, "point contains non-finite coordinates"),
        ({"x": np.nan, "a": 1.0, "y": 0.0}, "point contains non-finite coordinates"),
        ([0.0, 1.0, -np.inf], "point contains non-finite coordinates"),
        ((np.nan, 1.0, 0.0), "point contains non-finite coordinates"),
    ])
    def test_gateaux_if_point(self, z, message):
        assert error_of(lambda: gateaux_if(Ate(), hand_measure(), z)) == (ValidationError, message)

    @pytest.mark.parametrize("call, kind, message", [
        (lambda: Mean("w").value(hand_measure()), ValidationError, "measure has no coordinate 'w'"),
        (lambda: CondMean("y").value(hand_measure()), ValidationError, "cond_mean requires at least one condition"),
        (lambda: CounterfactualMean(2), ConfigError, "arm must be 0 or 1"),
        (lambda: make_functional("cond_mean(y|a=x)"), ConfigError, "non-numeric condition value in 'cond_mean(y|a=x)'"),
    ])
    def test_functionals(self, call, kind, message):
        assert error_of(call) == (kind, message)

    @pytest.mark.parametrize("call, message", [
        (lambda p, q: mix(p, q, 0.5), "measures must share coordinate names to be mixed"),
        (score_of_path, "measures must share coordinate names"),
        (lambda p, q: one_step(Ate(), p, q), "estimate and sample must share coordinate names"),
        (second_order_remainder, "true and estimated measures must share covariate names"),
    ], ids=["mix", "score_of_path", "one_step", "second_order_remainder"])
    def test_mismatched_names(self, call, message):
        renamed = DiscreteMeasure(names=("w", "a", "y"), support=GRID, probs=PROBS)
        assert error_of(lambda: call(hand_measure(), renamed)) == (ValidationError, message)

    @pytest.mark.parametrize("s, message", [
        (np.zeros(7), f"{WIDE} (7,)"),
        (np.zeros((2, 8)), f"{WIDE} (2, 8)"),
        (np.r_[np.zeros(7), np.nan], "score values must be finite"),
    ])
    def test_factorize_score(self, s, message):
        assert error_of(lambda: factorize_score(hand_measure(), s, given=("x",))) == (ValidationError, message)

    @pytest.mark.parametrize("f, p, kind, message", [
        (Ate(), lacking([4, 5]), PositivityError, "cell with covariates [1.] has zero mass on arm 0"),
        (Median(), hand_measure(), ConfigError, "no closed form registered for functional 'median(y)'"),
    ])
    def test_closed_form_eif(self, f, p, kind, message):
        assert error_of(lambda: closed_form_eif(f, p)) == (kind, message)

    @pytest.mark.parametrize("p_est, f, kind, message", [
        (lacking([4, 5, 6, 7]), Ate(), SupportError, "estimated measure has no mass at covariates [1.0]"),
        (lacking([4, 5]), Ate(), PositivityError, "estimated measure has zero arm-0 mass at covariates [1.0]"),
        (hand_measure(), Mean("y"), ConfigError,
         "second_order_remainder supports 'ate' and 'counterfactual_mean(a)', got 'mean(y)'"),
    ])
    def test_second_order_remainder(self, p_est, f, kind, message):
        assert error_of(lambda: second_order_remainder(hand_measure(), p_est, functional=f)) == (kind, message)

    @pytest.mark.parametrize("f", STACK_FUNCTIONALS, ids=lambda f: f.label)
    def test_score_step_bound(self, f):
        # the first step of EPS_SCHEDULE may take a mass to zero but not below it:
        # max |eps*s| = 1 passes the bound, and a score a hair larger is refused
        p = hand_measure()
        rows = DENOMINATOR_ROWS.get(f.label, lambda s: s[:, 0] == 0)(p.support)
        s = np.where(rows, -1000.0, 1000.0 * p.probs[rows].sum() / p.probs[~rows].sum())
        assert EPS_SCHEDULE[0] * np.max(np.abs(s)) == 1.0
        try:
            pathwise_derivative(f, p, s)
        except EpsError as exc:
            assert "through zero" in str(exc), str(exc)
        kind, message = error_of(lambda: pathwise_derivative(f, p, s * (1.0 + 1e-9)))
        assert kind is EpsError
        assert re.fullmatch(r"perturbed mass would go negative: max \|eps\*s\| = 1\.00000000\d* exceeds 1; "
                            r"shrink the score", message), message

    def test_pathwise_derivative_score(self):
        p = hand_measure()
        scores = score_stack(p)
        scores[3, 5] = np.nan
        finite = (ValidationError, "score values must be finite")
        assert error_of(lambda: pathwise_derivative(Ate(), p, scores[3])) == finite
        assert error_of(lambda: pathwise_derivative(Ate(), p, scores)) == finite
        assert error_of(lambda: pathwise_derivative(Ate(), p, scores[3:, None])) == (
            ValidationError,
            "score must be a vector or a stack of rows of length 8, the support size; got shape (6, 1, 8)",
        )
        # the first failing row decides, as for the checks made after this one
        scores[1] += 0.01
        assert error_of(lambda: pathwise_derivative(Ate(), p, scores)) == error_of(
            lambda: pathwise_derivative(Ate(), p, scores[1])
        )

    @pytest.mark.parametrize("s, message", [
        (np.r_[np.zeros(7), np.nan], "score values must be finite"),
        (np.zeros((2, 8)), f"{WIDE} (2, 8)"),
        (np.zeros(9), f"{WIDE} (9,)"),
    ])
    def test_central_identity_check_score(self, s, message):
        assert error_of(lambda: central_identity_check(Ate(), hand_measure(), s)) == (ValidationError, message)
