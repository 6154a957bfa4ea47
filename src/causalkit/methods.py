"""The method table that `causalkit estimate` and `run_mc` both dispatch through.

Each row says which config keys a method's report echoes (in report order),
how its input file is read, whether it needs a cross-fitted NuisanceFit, which
of its keys are passed on as options, and the call that returns its
:class:`Estimate`.  ``run(data, fit, level, **options)`` falls back on the
estimator's own defaults for options it is not given, which is how `run_mc`
calls the cross-sectional methods.

Loaders and calls look the package functions up as module globals each time
they run, so a wrapper installed at those module attributes sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .ate_estimators import MatchSpec, aipw, g_formula, ipw, naive_dim, psm_att
from .data_model import Estimate, ObservationalDataset, _parse_columns
from .data_model import load_csv, load_iv_csv, load_panel_csv
from .quasi_experimental import RdSpec, did, did_placebo, fe_within, iv_wald, rd_local_linear, tsls

__all__ = ["Method", "METHODS"]

_CROSSFIT = (
    "crossfit.k",
    "crossfit.clip",
    "propensity.lambda",
    "outcome.lambda",
    "propensity.features",
    "outcome.features",
)
_OBS = ("treatment", "outcome", "covariates", "seed", "level")
_PANEL = ("unit", "period", "group", "treatment", "outcome", "seed", "level")
_IV = ("instrument", "treatment", "outcome", "covariates", "seed", "level")


@dataclass(frozen=True)
class Method:
    """One estimator as the CLI and the Monte Carlo harness run it.

    ``load(path, values)`` reads the input, with ``values`` mapping config
    keys to resolved values; ``run(data, fit, level, **options)`` returns the
    estimate, where ``fit`` is the NuisanceFit when ``nuisance`` is set and
    None otherwise.
    """

    keys: tuple[str, ...]
    load: Callable[[str, dict], object]
    run: Callable[..., Estimate]
    options: tuple[str, ...] = ()
    nuisance: bool = False


def _load_obs(path: str, values: dict):
    return load_csv(path, values)


def _load_panel(path: str, values: dict):
    return load_panel_csv(path, values)


def _load_iv(path: str, values: dict):
    return load_iv_csv(path, values)


def _load_rd(path: str, values: dict):
    # a sharp design: the running variable is the only covariate and the
    # treatment is x >= cutoff, so the file needs no treatment column
    cols, _ = _parse_columns(path, [values["running"], values["outcome"]])
    x = cols[values["running"]]
    return ObservationalDataset(x=x, a=x >= values["cutoff"], y=cols[values["outcome"]])


def _psm(data, fit, level: float, **options) -> Estimate:
    estimate, _ = psm_att(data, fit.pi_hat, MatchSpec(**options), level=level)
    return estimate


def _did(data, fit, level: float, placebo: bool = False) -> Estimate:
    return (did_placebo if placebo else did)(data, level=level)


METHODS: dict[str, Method] = {
    "naive": Method(_OBS, _load_obs, lambda data, fit, level: naive_dim(data, level=level)),
    "ipw": Method(
        _OBS + _CROSSFIT + ("normalization",),
        _load_obs,
        lambda data, fit, level, **options: ipw(data, fit.pi_hat, level=level, **options),
        options=("normalization",),
        nuisance=True,
    ),
    "gformula": Method(
        _OBS + _CROSSFIT,
        _load_obs,
        lambda data, fit, level: g_formula(data, fit.mu0_hat, fit.mu1_hat, level=level),
        nuisance=True,
    ),
    "psm": Method(
        _OBS + _CROSSFIT + ("caliper", "with_replacement"),
        _load_obs,
        _psm,
        options=("caliper", "with_replacement"),
        nuisance=True,
    ),
    "aipw": Method(
        _OBS + _CROSSFIT,
        _load_obs,
        lambda data, fit, level: aipw(data, fit, level=level),
        nuisance=True,
    ),
    "did": Method(
        _PANEL + ("placebo",),
        _load_panel,
        _did,
        options=("placebo",),
    ),
    "rd": Method(
        ("running", "outcome", "cutoff", "bandwidth", "kernel", "seed", "level"),
        _load_rd,
        lambda data, fit, level, **options: rd_local_linear(data, RdSpec(**options), level=level),
        options=("cutoff", "bandwidth", "kernel"),
    ),
    "iv": Method(
        _IV,
        _load_iv,
        lambda data, fit, level: iv_wald(data, level=level),
    ),
    "tsls": Method(
        _IV,
        _load_iv,
        lambda data, fit, level: tsls(data, level=level),
    ),
    "fe": Method(
        _PANEL,
        _load_panel,
        lambda data, fit, level: fe_within(data, level=level),
    ),
}
