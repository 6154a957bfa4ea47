"""Every estimate's interval is normal_ci of its point estimate, se and level.

Estimate sets the interval itself, so a confidence level is checked even on
a path where the estimator has no standard error, and no estimator can give
an interval of its own.
"""

import numpy as np
import pytest

from causalkit import (
    IvDataset,
    IvDgpConfig,
    ObsDgpConfig,
    ObservationalDataset,
    PanelDataset,
    PanelDgpConfig,
    RdDgpConfig,
    RdSpec,
    cross_fit,
    did,
    g_formula,
    normal_ci,
    rd_local_linear,
    tsls,
)
from causalkit.dgp import DGPS
from causalkit.errors import ConfigError
from causalkit.methods import METHODS

# one draw of each kind of data, for the method table's rows
KIND_CONFIGS = {
    "obs": ObsDgpConfig(n=200, d=1, confounding_strength=0.5, tau=1.0),
    "iv": IvDgpConfig(n=300, p_always=0.2, p_complier=0.6, p_never=0.2),
    "panel": PanelDgpConfig(n_units=40, n_periods=3, time_trend=0.5, treatment_effect=1.0),
    "rd": RdDgpConfig(n=300, jump=1.0, slope_left=0.5, slope_right=1.0),
}


def _gformula_one_unit(level):
    ds = ObservationalDataset(x=np.zeros((1, 0)), a=[1], y=[1.0])
    return g_formula(ds, mu0_hat=np.array([0.0]), mu1_hat=np.array([1.0]), level=level)


def _did_one_treated_unit(level):
    panel = PanelDataset(
        unit_id=[0, 0, 1, 1, 2, 2],
        period_id=[0, 1, 0, 1, 0, 1],
        a=[0, 1, 0, 0, 0, 0],
        y=[1.0, 3.0, 0.0, 1.0, 0.5, 1.0],
        group=[1, 1, 0, 0, 0, 0],
    )
    return did(panel, level=level)


def _rd_two_points_per_side(level):
    x = np.array([-0.5, -0.2, 0.2, 0.5])
    ds = ObservationalDataset(x=x.reshape(-1, 1), a=(x >= 0).astype(int), y=[0.0, 0.3, 2.2, 2.5])
    return rd_local_linear(ds, RdSpec(cutoff=0.0, bandwidth=0.5), level=level)


def _tsls_no_residual_df(level):
    # two units, two coefficients: the fit is exact and leaves no degrees of freedom
    return tsls(IvDataset(z=[0, 1], a=[0, 1], y=[1.0, 3.0]), level=level)


NO_SE = {
    "gformula_n1": _gformula_one_unit,
    "did_one_treated_unit": _did_one_treated_unit,
    "rd_two_points_per_side": _rd_two_points_per_side,
    "tsls_no_residual_df": _tsls_no_residual_df,
}


@pytest.mark.parametrize(
    "run, level",
    [(_gformula_one_unit, 2.0), (_did_one_treated_unit, 7.0), (_rd_two_points_per_side, -1.0),
     (_tsls_no_residual_df, 1.0)],
    ids=["gformula_n1", "did_one_treated_unit", "rd_two_points_per_side", "tsls_no_residual_df"],
)
def test_bad_level_is_rejected_without_an_se(run, level):
    assert run(0.95).se is None  # the path computes no se at a valid level
    with pytest.raises(ConfigError, match="confidence level must lie in"):
        run(level)


def _method_row(name, level):
    method = METHODS[name]
    data = DGPS[method.kind].generate(KIND_CONFIGS[method.kind], 1)[0]
    return method.run(data, cross_fit(data, seed=0) if method.nuisance else None, level)


@pytest.mark.parametrize("level", [0.8, 0.95])
@pytest.mark.parametrize("case", [*METHODS, *NO_SE])
def test_interval_is_normal_ci_of_the_se(case, level):
    est = NO_SE[case](level) if case in NO_SE else _method_row(case, level)
    assert (est.se is None) == (case in NO_SE)
    assert (est.ci_low, est.ci_high) == normal_ci(est.psi_hat, est.se, level)
    assert (est.ci_low is None) == (est.ci_high is None) == (est.se is None)
