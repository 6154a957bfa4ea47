"""The method table that `causalkit estimate` and `run_mc` both dispatch through.

Each row says which config keys a method's report echoes (in report order),
which kind of data it reads (a ``dgp.DGPS`` row, whose loader reads its input
file and whose draws feed it in a Monte Carlo study), the estimand it is
scored against, which halves of a cross-fitted NuisanceFit it reads, which of
its keys are passed on as options, and the call that returns its
:class:`Estimate`.
``run(data, fit, level, **options)`` falls back on the estimator's own
defaults for options it is not given, which is how `run_mc` calls every
method.

Calls look the package functions up as module globals each time they run, so
a wrapper installed at those module attributes sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .ate_estimators import MatchSpec, aipw, g_formula, ipw, naive_dim, psm_att
from .data_model import Estimate
from .quasi_experimental import RdSpec, did, did_placebo, fe_within, iv_wald, rd_local_linear, tsls

__all__ = ["CROSSFIT_KEYS", "Method", "METHODS"]

# the keys that set a cross-fit, whose flag dests are cross_fit's keywords
CROSSFIT_KEYS = (
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

    ``kind`` names the ``dgp.DGPS`` row whose data the method reads, which
    also loads its input file; ``estimand`` names the truth of that row it is
    scored against.  ``run(data, fit, level, **options)`` returns the
    estimate, where ``fit`` is the NuisanceFit when ``nuisance`` is not
    empty, the draw's GroundTruth when ``oracle`` is set, and None otherwise.
    ``nuisance`` names the halves of the fit that ``run`` reads:
    "propensity" (``pi_hat`` and its clip count) and "outcome" (``mu0_hat``
    and ``mu1_hat``); the folds are shared by every fit of one replication.
    The estimate depends on the fit through those halves only, so the Monte
    Carlo harness shares it between scenarios whose fits agree on them.
    """

    keys: tuple[str, ...]
    kind: str
    estimand: str
    run: Callable[..., Estimate]
    options: tuple[str, ...] = ()
    nuisance: tuple[str, ...] = ()
    oracle: bool = False


def _psm(data, fit, level: float, **options) -> Estimate:
    estimate, _ = psm_att(data, fit.pi_hat, MatchSpec(**options), level=level)
    return estimate


def _did(data, fit, level: float, placebo: bool = False) -> Estimate:
    return (did_placebo if placebo else did)(data, level=level)


METHODS: dict[str, Method] = {
    "naive": Method(_OBS, "obs", "ate", lambda data, fit, level: naive_dim(data, level=level)),
    "ipw": Method(
        _OBS + CROSSFIT_KEYS + ("normalization",),
        "obs",
        "ate",
        lambda data, fit, level, **options: ipw(data, fit.pi_hat, level=level, **options),
        options=("normalization",),
        nuisance=("propensity",),
    ),
    "gformula": Method(
        _OBS + CROSSFIT_KEYS,
        "obs",
        "ate",
        lambda data, fit, level: g_formula(data, fit.mu0_hat, fit.mu1_hat, level=level),
        nuisance=("outcome",),
    ),
    "psm": Method(
        _OBS + CROSSFIT_KEYS + ("caliper", "with_replacement"),
        "obs",
        "att",
        _psm,
        options=("caliper", "with_replacement"),
        nuisance=("propensity",),
    ),
    "aipw": Method(
        _OBS + CROSSFIT_KEYS,
        "obs",
        "ate",
        lambda data, fit, level: aipw(data, fit, level=level),
        nuisance=("propensity", "outcome"),
    ),
    "did": Method(
        _PANEL + ("placebo",),
        "panel",
        "effect",
        _did,
        options=("placebo",),
    ),
    "rd": Method(
        ("running", "outcome", "cutoff", "bandwidth", "kernel", "seed", "level"),
        "rd",
        "jump",
        lambda data, fit, level, **options: rd_local_linear(data, RdSpec(**options), level=level),
        options=("cutoff", "bandwidth", "kernel"),
    ),
    "iv": Method(_IV, "iv", "late", lambda data, fit, level: iv_wald(data, level=level)),
    "tsls": Method(_IV, "iv", "late", lambda data, fit, level: tsls(data, level=level)),
    "fe": Method(_PANEL, "panel", "effect", lambda data, fit, level: fe_within(data, level=level)),
}
