"""Each method's standard error against a delete-one jackknife, on one dataset per row.

The jackknife (Efron & Stein 1981; Efron 1982) refits a method once per
left-out unit and reads nothing but its point estimate, so it checks any se
that is smooth in the data without sharing its derivation.  With psi_(i) the
estimate without unit i and psi_bar their mean over the n units, the
jackknife se is sqrt((n - 1) / n * sum_i (psi_(i) - psi_bar)^2).

Each row draws one dataset from its ``DGPS`` row: 400 units, or 200 panel
units.  A cross-fitted row refits ``cross_fit_pairs`` on the full sample's
folds minus unit i; 400 is divisible by k = 5, so the folds of the 399 left
stay within one unit of each other in size.  A panel row leaves out a whole
unit, all of its records.

A row is asserted when its se is honest today.  Its band is the min-max of
se / jackknife se over seeds 0-9 (``BAND_SEEDS``), widened by 0.02 on each
side and rounded outwards to 0.01; the test runs seed 0.  A row whose se is
wrong today is listed with the ROADMAP item that owns its fix; that fix
moves it to ``BANDS``, so the check fails at the fix's parent.
"""

import dataclasses
import functools

import numpy as np
import pytest

from causalkit import IvDgpConfig, ObsDgpConfig, PanelDataset, PanelDgpConfig, RdDgpConfig, make_folds
from causalkit.dgp import DGPS
from causalkit.methods import METHODS
from causalkit.nuisance import FoldAssignment, NuisanceFit, cross_fit_pairs

BAND_SEEDS = tuple(range(10))
SEED = 0

# se / jackknife se: the band, then the min-max over BAND_SEEDS it was fixed from
BANDS = {
    "naive": (0.97, 1.02),  # 0.9984-0.9988
    "aipw": (0.87, 1.11),  # 0.8944-1.0833
    "did": (0.97, 1.02),  # 0.9950-0.9950
    "iv": (0.97, 1.02),  # 0.9970-0.9978
    "tsls": (0.97, 1.02),  # 0.9970-0.9978
    "rd": (0.96, 1.02),  # 0.9887-0.9905
}

# rows that are not asserted, and why
NOT_ASSERTED = {
    "gformula": "ROADMAP item 1: its eif ignores outcome-model error; se / jackknife se 0.06-0.34",
    "ipw": "ROADMAP item 1: Hajek ipw omits the estimated propensity's term; conservative on the linear DGP",
    "fe": "ROADMAP item 2: one-way within estimator, wrong under a time trend; se / jackknife se 1.11-1.38",
    "psm": "excluded: the jackknife is not a consistent variance estimator for matching (Abadie & Imbens 2008)",
}

# one config per DGPS row; the obs row is the golden calibration DGP at n = 400
CONFIGS = {
    "obs": ObsDgpConfig(n=400, d=2, confounding_strength=0.5, tau=2.0,
                        outcome_form="linear_plus_quadratic", propensity_form="linear_plus_quadratic"),
    "panel": PanelDgpConfig(n_units=200, n_periods=6, treatment_effect=1.0, time_trend=0.5, unit_effect_sd=2.0,
                            first_treated_period=3),
    "iv": IvDgpConfig(n=400, p_always=0.25, p_complier=0.5, p_never=0.25, effect_by_type={"complier": 2.0}),
    "rd": RdDgpConfig(n=400, cutoff=0.5, jump=1.0, slope_left=0.5, slope_right=1.0),
}
K = 5
LEARNERS = ("linear", "linear")
CROSSFIT = dict(clip=(0.01, 0.99), propensity_lambda=1e-6, outcome_lambda=1e-8)


def jackknife_se(values) -> float:
    v = np.asarray(values, dtype=float)
    return float(np.sqrt((v.size - 1) / v.size * np.sum((v - v.mean()) ** 2)))


def _units(data) -> np.ndarray:
    return np.unique(data.unit_id) if isinstance(data, PanelDataset) else np.arange(data.n)


def _without(data, unit):
    """``data`` without one unit: one row, or every record of a panel unit."""
    keep = data.unit_id != unit if isinstance(data, PanelDataset) else np.arange(data.n) != unit
    columns = {f.name: getattr(data, f.name) for f in dataclasses.fields(data)}
    return type(data)(**{name: v if v is None else v[keep] for name, v in columns.items()})


@functools.lru_cache(maxsize=None)
def _ratios(kind: str) -> dict[str, float]:
    """se / jackknife se of each asserted row that reads ``kind`` data, on seed SEED's draw."""
    names = [name for name in BANDS if METHODS[name].kind == kind]
    config, row = CONFIGS[kind], DGPS[kind]
    data = row.generate(config, SEED)[0]
    options = {n: {o: getattr(config, f) for o, f in row.fixes.items() if o in METHODS[n].options} for n in names}
    fold_index = make_folds(data.n, K, SEED).fold_index if any(METHODS[n].nuisance for n in names) else None

    def estimates(d, labels):
        fit = None
        if labels is not None:
            (fit,) = cross_fit_pairs(d, [LEARNERS], FoldAssignment(labels, K), **CROSSFIT)
            assert isinstance(fit, NuisanceFit), fit
        return {n: METHODS[n].run(d, fit, 0.95, **options[n]) for n in names}

    full = estimates(data, fold_index)
    left_out = [estimates(_without(data, unit), None if fold_index is None else np.delete(fold_index, i))
                for i, unit in enumerate(_units(data))]
    return {n: full[n].se / jackknife_se([est[n].psi_hat for est in left_out]) for n in names}


def test_every_method_is_asserted_or_listed():
    assert not set(BANDS) & set(NOT_ASSERTED)
    assert set(BANDS) | set(NOT_ASSERTED) == set(METHODS)


def test_jackknife_of_a_mean_is_its_textbook_se():
    y = np.random.default_rng(1).normal(size=50)
    left_out = [np.delete(y, i).mean() for i in range(y.size)]
    assert jackknife_se(left_out) == pytest.approx(np.std(y, ddof=1) / np.sqrt(y.size), rel=1e-12)


@pytest.mark.parametrize("name", BANDS)
def test_se_agrees_with_the_jackknife(name):
    lo, hi = BANDS[name]
    assert lo <= _ratios(METHODS[name].kind)[name] <= hi
