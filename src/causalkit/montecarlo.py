"""Replicated-simulation harness for the estimator family.

A run draws R independent datasets from a configured DGP (replication r uses
the substream keyed by r under the run seed), applies the requested
estimators to each, and aggregates bias, variance, MSE, CI coverage, and
diagnostics.  Estimator failures inside a replication are recorded and
excluded rather than fatal, up to a 10% failure ceiling.

The scenario label controls which nuisance learners use a feature map that
mismatches the DGP's functional form.  A mismatch only constitutes real
misspecification when the DGP form is linear_plus_quadratic (a quadratic
learner on a linear DGP nests the truth).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .ate_estimators import ipw
from .data_model import Estimate, GroundTruth, ObservationalDataset, require_both_arms
from .dgp import FORMS, ObsDgpConfig, generate_observational
from .errors import CausalKitError, ConfigError, EstimationError
from .methods import METHODS
from .nuisance import cross_fit
from .rng import child_seed

__all__ = [
    "SCENARIOS",
    "ESTIMATORS",
    "McConfig",
    "EstimatorSummary",
    "McReport",
    "ErrorDecomposition",
    "scenario_feature_maps",
    "error_decomposition",
    "summarize_estimator",
    "run_mc",
    "dr_suite",
]

SCENARIOS = ("both_correct", "pi_wrong", "mu_wrong", "both_wrong")

ESTIMATORS = ("naive", "ipw", "ipw_oracle", "gformula", "psm", "aipw")

# Share of failed replications (per estimator) beyond which a run aborts.
FAILURE_CEILING = 0.10


def _other_form(form: str) -> str:
    return FORMS[1] if form == FORMS[0] else FORMS[0]


def scenario_feature_maps(dgp: ObsDgpConfig, scenario: str) -> tuple[str, str]:
    """(propensity_features, outcome_features) for a scenario.

    "correct" means the learner's feature map can represent the DGP's form
    exactly; "wrong" swaps in the other map.
    """
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario '{scenario}', expected one of {SCENARIOS}")
    correct_p, correct_m = dgp.propensity_form, dgp.outcome_form
    table = {
        "both_correct": (correct_p, correct_m),
        "pi_wrong": (_other_form(correct_p), correct_m),
        "mu_wrong": (correct_p, _other_form(correct_m)),
        "both_wrong": (_other_form(correct_p), _other_form(correct_m)),
    }
    return table[scenario]


@dataclass(frozen=True)
class McConfig:
    dgp: ObsDgpConfig
    estimators: tuple[str, ...] = ("naive", "ipw", "gformula", "aipw")
    replications: int = 100
    n: int = 1000
    seed: int = 0
    scenario: str = "both_correct"
    k: int = 5
    clip: tuple[float, float] = (0.01, 0.99)
    propensity_lambda: float = 1e-6
    outcome_lambda: float = 1e-8
    level: float = 0.95

    def __post_init__(self) -> None:
        if self.replications < 2:
            raise ConfigError("replications must be >= 2")
        if self.n < 2:
            raise ConfigError("n must be >= 2")
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario '{self.scenario}', expected one of {SCENARIOS}")
        estimators = tuple(self.estimators)
        if not estimators:
            raise ConfigError("estimator list must be non-empty")
        unknown = [e for e in estimators if e not in ESTIMATORS]
        if unknown:
            raise ConfigError(f"unknown estimators {unknown}, expected a subset of {ESTIMATORS}")
        object.__setattr__(self, "estimators", estimators)


@dataclass(frozen=True)
class EstimatorSummary:
    """Aggregates over successful replications of one estimator."""

    estimator: str
    n_ok: int
    n_failed: int
    mean_estimate: float
    bias: float
    mc_se_mean: float
    variance: float
    mse: float
    coverage: float | None
    mean_se: float | None
    mean_clip_count: float | None = None
    mean_unmatched: float | None = None


@dataclass(frozen=True)
class McReport:
    scenario: str
    true_ate: float
    replications: int
    n: int
    seed: int
    rows: tuple[EstimatorSummary, ...]
    failures: tuple[str, ...] = ()


def summarize_estimator(
    estimator: str,
    values: Sequence[float],
    true_value: float,
    ses: Sequence[float | None] = (),
    covered: Sequence[bool] = (),
    n_failed: int = 0,
    mean_clip_count: float | None = None,
    mean_unmatched: float | None = None,
) -> EstimatorSummary:
    """Aggregate replication estimates against the true value.

    variance uses the population (n-divisor) form so that
    mse = variance + bias^2 holds as an arithmetic identity; mc_se_mean is
    the usual sample-sd-based standard error of the mean estimate.
    """
    v = np.asarray(list(values), dtype=float)
    if v.size == 0:
        raise EstimationError(f"estimator '{estimator}' produced no successful replications")
    mean_estimate = float(v.mean())
    bias = mean_estimate - true_value
    variance = float(np.var(v, ddof=0))
    mse = variance + bias**2
    mc_se_mean = float(np.sqrt(np.var(v, ddof=1) / v.size)) if v.size >= 2 else float("nan")
    se_vals = [s for s in ses if s is not None]
    mean_se = float(np.mean(se_vals)) if se_vals else None
    coverage = float(np.mean([1.0 if c else 0.0 for c in covered])) if len(covered) else None
    return EstimatorSummary(
        estimator=estimator,
        n_ok=int(v.size),
        n_failed=int(n_failed),
        mean_estimate=mean_estimate,
        bias=bias,
        mc_se_mean=mc_se_mean,
        variance=variance,
        mse=mse,
        coverage=coverage,
        mean_se=mean_se,
        mean_clip_count=mean_clip_count,
        mean_unmatched=mean_unmatched,
    )


@dataclass(frozen=True)
class ErrorDecomposition:
    """The observed-gap decomposition on one simulated dataset.

    total_gap = E[Y|A=1] - E[Y|A=0] - sample ATE splits exactly into
    baseline_diff (difference in untreated baselines across arms) plus
    het_term = (1 - rho) * (effect on treated - effect on controls).
    """

    total_gap: float
    baseline_diff: float
    het_term: float
    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float
    rho: float
    sample_ate: float


def error_decomposition(dataset: ObservationalDataset, truth: GroundTruth) -> ErrorDecomposition:
    """Decompose the naive gap on a dataset with known potential outcomes."""
    require_both_arms(dataset, "error_decomposition")
    if truth.y1.shape[0] != dataset.n:
        raise CausalKitError("ground truth and dataset sizes differ")
    treated = dataset.a == 1
    alpha1 = float(truth.y1[treated].mean())
    alpha2 = float(truth.y1[~treated].mean())
    alpha3 = float(truth.y0[treated].mean())
    alpha4 = float(truth.y0[~treated].mean())
    rho = float(treated.mean())
    sample_ate = float((truth.y1 - truth.y0).mean())
    total_gap = alpha1 - alpha4 - sample_ate
    baseline_diff = alpha3 - alpha4
    het_term = (1.0 - rho) * ((alpha1 - alpha3) - (alpha2 - alpha4))
    return ErrorDecomposition(
        total_gap=total_gap,
        baseline_diff=baseline_diff,
        het_term=het_term,
        alpha1=alpha1,
        alpha2=alpha2,
        alpha3=alpha3,
        alpha4=alpha4,
        rho=rho,
        sample_ate=sample_ate,
    )


def _ipw_oracle(dataset: ObservationalDataset, truth: GroundTruth, level: float) -> Estimate:
    """Horvitz-Thompson IPW with the true propensities, which only a simulation knows."""
    if truth.pi is None:
        raise EstimationError("ipw_oracle requires ground-truth propensities")
    return ipw(dataset, truth.pi, "horvitz_thompson", level=level)


def run_mc(config: McConfig) -> McReport:
    """Run the configured Monte Carlo study.

    Bias and coverage are measured against the population ATE (the
    configured tau; heterogeneous coefficients average out because the
    covariates are centered).  Replication r draws its dataset from
    substream (r,) and its fold shuffle from substream (r, 1), so reports
    are bit-identical across re-runs of the same config.
    """
    effective_dgp = replace(config.dgp, n=config.n)
    prop_feat, out_feat = scenario_feature_maps(effective_dgp, config.scenario)
    true_ate = float(config.dgp.tau)
    # every estimator but the simulation-only ipw_oracle runs from the method table
    methods = {e: METHODS.get(e) for e in config.estimators}
    needs_nuisance = any(m is not None and m.nuisance for m in methods.values())
    values: dict[str, list[float]] = {e: [] for e in config.estimators}
    ses: dict[str, list[float | None]] = {e: [] for e in config.estimators}
    covered: dict[str, list[bool]] = {e: [] for e in config.estimators}
    clip_counts: dict[str, list[float]] = {e: [] for e in config.estimators}
    unmatched: dict[str, list[float]] = {e: [] for e in config.estimators}
    failed: dict[str, int] = {e: 0 for e in config.estimators}
    failure_notes: list[str] = []

    for r in range(config.replications):
        dataset, truth = generate_observational(effective_dgp, child_seed(config.seed, r))
        nuisance = None
        nuisance_error: CausalKitError | None = None
        if needs_nuisance:
            try:
                nuisance = cross_fit(
                    dataset,
                    k=config.k,
                    clip=config.clip,
                    propensity_lambda=config.propensity_lambda,
                    outcome_lambda=config.outcome_lambda,
                    propensity_features=prop_feat,
                    outcome_features=out_feat,
                    seed=child_seed(config.seed, r, 1),
                )
            except CausalKitError as exc:
                nuisance_error = exc
        for name, method in methods.items():
            if method is not None and method.nuisance and nuisance_error is not None:
                failed[name] += 1
                if len(failure_notes) < 10:
                    failure_notes.append(f"rep {r} {name}: {nuisance_error}")
                continue
            try:
                if method is None:
                    est = _ipw_oracle(dataset, truth, config.level)
                else:
                    est = method.run(dataset, nuisance, config.level)
            except CausalKitError as exc:
                failed[name] += 1
                if len(failure_notes) < 10:
                    failure_notes.append(f"rep {r} {name}: {exc}")
                continue
            values[name].append(est.psi_hat)
            ses[name].append(est.se)
            if est.ci_low is not None:
                covered[name].append(bool(est.ci_low <= true_ate <= est.ci_high))
            if "clip_count" in est.diagnostics:
                clip_counts[name].append(float(est.diagnostics["clip_count"]))
            if "unmatched_count" in est.diagnostics:
                unmatched[name].append(float(est.diagnostics["unmatched_count"]))

    for name in config.estimators:
        if failed[name] > FAILURE_CEILING * config.replications:
            raise EstimationError(
                f"estimator '{name}' failed in {failed[name]} of "
                f"{config.replications} replications (>{FAILURE_CEILING:.0%})"
            )

    rows = tuple(
        summarize_estimator(
            name,
            values[name],
            true_ate,
            ses=ses[name],
            covered=covered[name],
            n_failed=failed[name],
            mean_clip_count=float(np.mean(clip_counts[name])) if clip_counts[name] else None,
            mean_unmatched=float(np.mean(unmatched[name])) if unmatched[name] else None,
        )
        for name in config.estimators
    )
    return McReport(
        scenario=config.scenario,
        true_ate=true_ate,
        replications=config.replications,
        n=config.n,
        seed=config.seed,
        rows=rows,
        failures=tuple(failure_notes),
    )


def dr_suite(
    base: ObsDgpConfig,
    replications: int = 500,
    n: int = 2000,
    seed: int = 0,
    estimators: tuple[str, ...] = ("naive", "ipw", "gformula", "aipw"),
    **kwargs,
) -> dict[str, McReport]:
    """Run all four misspecification scenarios on a shared dataset stream.

    The same seed drives every scenario, so the r-th replication sees the
    same dataset in all four; only the learners' feature maps differ.
    """
    reports = {}
    for scenario in SCENARIOS:
        config = McConfig(
            dgp=base,
            estimators=estimators,
            replications=replications,
            n=n,
            seed=seed,
            scenario=scenario,
            **kwargs,
        )
        reports[scenario] = run_mc(config)
    return reports
