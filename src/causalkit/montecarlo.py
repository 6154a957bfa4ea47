"""Replicated-simulation harness for every estimator on every DGP.

A run draws R independent datasets through the ``dgp.DGPS`` row of its DGP
config (replication r uses the substream keyed by r under the run seed),
applies the requested methods to each (rows of the method table that read
that kind of data, plus the simulation-only ``ipw_oracle``), and aggregates
bias, variance, MSE, CI coverage, and diagnostics, each method against the
truth of its own estimand.  Estimator failures inside a replication are
recorded and excluded rather than fatal, up to a 10% failure ceiling.  The
weak-instrument sweep runs on the same replication loop.

The scenario label controls which nuisance learners use a feature map that
mismatches the DGP's functional form, so it applies to the observational DGP
only.  A mismatch only constitutes real misspecification when the DGP form is
linear_plus_quadratic (a quadratic learner on a linear DGP nests the truth).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .ate_estimators import check_level, ipw, normal_quantile
from .data_model import Estimate, GroundTruth, ObservationalDataset, require_both_arms
from .dgp import DGPS, FORMS, IvDgpConfig, ObsDgpConfig, PanelDgpConfig, RdDgpConfig
from .errors import CausalKitError, ConfigError, EstimationError, InstrumentError
from .methods import METHODS, Method
from .nuisance import NuisanceFit, cross_fit
from .rng import child_seed

__all__ = [
    "SCENARIOS",
    "ESTIMATORS",
    "MC_METHODS",
    "McConfig",
    "EstimatorSummary",
    "McReport",
    "ErrorDecomposition",
    "WeakIvRow",
    "scenario_feature_maps",
    "error_decomposition",
    "summarize_estimator",
    "run_mc",
    "dr_suite",
    "weak_iv_study",
]

SCENARIOS = ("both_correct", "pi_wrong", "mu_wrong", "both_wrong")

# the methods that read observational data, which `causalkit montecarlo` runs
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


def _ipw_oracle(dataset: ObservationalDataset, truth: GroundTruth, level: float) -> Estimate:
    """Horvitz-Thompson IPW with the true propensities, which only a simulation knows."""
    return ipw(dataset, truth.pi, "horvitz_thompson", level=level)


# The method table plus ipw_oracle, which reads the draw's ground truth and so
# runs in simulations only.
MC_METHODS: dict[str, Method] = {**METHODS, "ipw_oracle": Method((), "obs", "ate", _ipw_oracle, oracle=True)}


# the DGPS row of each DGP config class
_KINDS = {row.config: kind for kind, row in DGPS.items()}


def _units(dgp) -> int:
    """Units per replication: a panel's n_units, any other DGP's n."""
    return dgp.n_units if isinstance(dgp, PanelDgpConfig) else dgp.n


@dataclass(frozen=True)
class McConfig:
    """A Monte Carlo study: each replication draws one dataset from ``dgp``.

    Every estimator must read the kind of data ``dgp`` draws, and a scenario
    other than both_correct needs the feature-map forms of ObsDgpConfig.
    """

    dgp: ObsDgpConfig | IvDgpConfig | PanelDgpConfig | RdDgpConfig
    estimators: tuple[str, ...] = ("naive", "ipw", "gformula", "aipw")
    replications: int = 100
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
        kind = _KINDS.get(type(self.dgp))
        if kind is None:
            raise ConfigError(f"{type(self.dgp).__name__} is not the config of a DGP in {tuple(DGPS)}")
        if _units(self.dgp) < 2:
            raise ConfigError("n must be >= 2")
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario '{self.scenario}', expected one of {SCENARIOS}")
        if self.scenario != SCENARIOS[0] and kind != "obs":
            raise ConfigError(f"scenario '{self.scenario}' needs feature-map forms, which a {kind} DGP has not")
        estimators = tuple(self.estimators)
        if not estimators:
            raise ConfigError("estimator list must be non-empty")
        readers = tuple(name for name, method in MC_METHODS.items() if method.kind == kind)
        unread = [e for e in estimators if e not in readers]
        if unread:
            raise ConfigError(
                f"estimators {unread} are not methods that read {kind} data, expected a subset of {readers}"
            )
        check_level(self.level)
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
    """One scenario's per-estimator summaries plus run-level counts.

    ``true_ate`` is the truth of the DGP's first estimand, which its config
    fixes: tau, the LATE, the panel effect or the jump.  Each row is scored
    against its method's own estimand (``psm`` against the ATT).  ``n`` is
    the number of units per replication.  ``failures`` keeps the first 10
    failure messages; ``failures_by_class`` counts every failed
    (replication, estimator) pair by error class, so its values sum to the
    rows' ``n_failed``.  ``nonconverged_folds`` and ``irls_iterations`` add
    up, once per replication whose cross-fit succeeded, the fold propensity
    fits that did not converge and their IRLS iterations.
    """

    scenario: str
    true_ate: float
    replications: int
    n: int
    seed: int
    rows: tuple[EstimatorSummary, ...]
    failures: tuple[str, ...] = ()
    nonconverged_folds: int = 0
    irls_iterations: int = 0
    failures_by_class: dict[str, int] = field(default_factory=dict)


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


def _mean_truth(truths: list[float]) -> float:
    """The mean of per-replication truths; a truth shared by every replication
    is returned as it is, free of the rounding of a mean."""
    return truths[0] if len(set(truths)) == 1 else float(np.mean(truths))


class _Tally:
    """One scenario's per-estimator results and nuisance counts, over replications."""

    def __init__(self, estimators: tuple[str, ...]) -> None:
        self.estimators = estimators
        self.values: dict[str, list[float]] = {e: [] for e in estimators}
        self.ses: dict[str, list[float | None]] = {e: [] for e in estimators}
        self.truths: dict[str, list[float]] = {e: [] for e in estimators}
        self.covered: dict[str, list[bool]] = {e: [] for e in estimators}
        self.clip_counts: dict[str, list[float]] = {e: [] for e in estimators}
        self.unmatched: dict[str, list[float]] = {e: [] for e in estimators}
        self.failed: dict[str, int] = {e: 0 for e in estimators}
        self.notes: list[str] = []
        self.by_class: dict[str, int] = {}
        self.nonconverged = 0
        self.iterations = 0

    def count_fit(self, fit: NuisanceFit) -> None:
        self.nonconverged += sum(not c for c in fit.irls_converged)
        self.iterations += sum(fit.irls_iterations)

    def fail(self, r: int, name: str, exc: CausalKitError) -> None:
        # no ConfigError depends on the drawn data, so every replication would raise it
        if isinstance(exc, ConfigError):
            raise exc
        self.failed[name] += 1
        kind = type(exc).__name__
        self.by_class[kind] = self.by_class.get(kind, 0) + 1
        if len(self.notes) < 10:
            self.notes.append(f"rep {r} {name}: {exc}")

    def add(self, name: str, est: Estimate, truth: float) -> None:
        self.values[name].append(est.psi_hat)
        self.ses[name].append(est.se)
        self.truths[name].append(truth)
        if est.ci_low is not None:
            self.covered[name].append(bool(est.ci_low <= truth <= est.ci_high))
        if "clip_count" in est.diagnostics:
            self.clip_counts[name].append(float(est.diagnostics["clip_count"]))
        if "unmatched_count" in est.diagnostics:
            self.unmatched[name].append(float(est.diagnostics["unmatched_count"]))

    def check_ceiling(self, replications: int) -> None:
        for name in self.estimators:
            if self.failed[name] > FAILURE_CEILING * replications:
                raise EstimationError(
                    f"estimator '{name}' failed in {self.failed[name]} of "
                    f"{replications} replications (>{FAILURE_CEILING:.0%})"
                )

    def report(self, config: McConfig, scenario: str, true_ate: float) -> McReport:
        rows = tuple(
            summarize_estimator(
                name,
                self.values[name],
                _mean_truth(self.truths[name]),
                ses=self.ses[name],
                covered=self.covered[name],
                n_failed=self.failed[name],
                mean_clip_count=float(np.mean(self.clip_counts[name])) if self.clip_counts[name] else None,
                mean_unmatched=float(np.mean(self.unmatched[name])) if self.unmatched[name] else None,
            )
            for name in self.estimators
        )
        return McReport(
            scenario=scenario,
            true_ate=true_ate,
            replications=config.replications,
            n=_units(config.dgp),
            seed=config.seed,
            rows=rows,
            failures=tuple(self.notes),
            nonconverged_folds=self.nonconverged,
            irls_iterations=self.iterations,
            failures_by_class=dict(sorted(self.by_class.items())),
        )


# Between them, these two scenarios' fits use every propensity map and every
# outcome map of the four, so the other two are assembled from their pieces.
_DIAGONAL = ("both_correct", "both_wrong")

# The fit halves a Method.nuisance names, in the order of scenario_feature_maps.
_HALVES = ("propensity", "outcome")


def _nuisance_for(
    fits: dict[tuple[str, str], NuisanceFit | CausalKitError],
    maps: tuple[str, str],
    fit: Callable[..., NuisanceFit],
) -> NuisanceFit | CausalKitError:
    """The cross-fit with feature maps (propensity, outcome), or the error it raises.

    A fit already in ``fits`` whose propensity map matches lends pi_hat, the
    clip count and the IRLS flags, one whose outcome map matches lends the
    outcome predictions; both come from the same folds.  Without a successful
    fit for each half, ``fit`` runs this pair's own cross-fit, so a scenario
    fails exactly where its own cross-fit would.
    """
    if maps not in fits:
        done = {m: f for m, f in fits.items() if isinstance(f, NuisanceFit)}
        prop = next((f for m, f in done.items() if m[0] == maps[0]), None)
        out = next((f for m, f in done.items() if m[1] == maps[1]), None)
        if prop is not None and out is not None:
            fits[maps] = replace(prop, mu0_hat=out.mu0_hat, mu1_hat=out.mu1_hat)
        else:
            try:
                fits[maps] = fit(propensity_features=maps[0], outcome_features=maps[1])
            except CausalKitError as exc:
                fits[maps] = exc
    return fits[maps]


def _run_scenarios(
    config: McConfig, scenarios: tuple[str, ...], key: tuple[int, ...] = ()
) -> tuple[dict[str, _Tally], float]:
    """The package's replication loop: each scenario's tally, and the truth of
    the DGP's first estimand.

    Replication r draws through the DGP's row from substream ``(*key, r)``
    and shuffles folds from ``(*key, r, 1)``.  Each replication draws its
    dataset once and cross-fits each distinct feature-map pair at most once
    (see ``_nuisance_for``), and only if a method needs a fit;
    ``config.scenario`` itself is not read.  Each distinct estimate is
    computed once per replication: a method's result, estimate or raised
    CausalKitError, is keyed by its name and the feature map of each fit half
    its ``Method.nuisance`` names, and every scenario with that key shares
    it.  So ``naive`` runs once per replication, ``ipw`` once per propensity
    map, ``gformula`` once per outcome map and ``aipw`` once per scenario.  A
    scenario whose fit failed fails its nuisance methods with that error.  A
    method runs with the options its DGP's row fixes (``Dgp.fixes``) and its
    estimator's defaults for the rest.  A truth is computed only for a
    method that returned an estimate.  No failure ceiling is applied here.
    """
    dgp = DGPS[_KINDS[type(config.dgp)]]
    methods = {e: MC_METHODS[e] for e in config.estimators}
    options = {
        e: {o: getattr(config.dgp, f) for o, f in dgp.fixes.items() if o in m.options} for e, m in methods.items()
    }
    needs_nuisance = any(m.nuisance for m in methods.values())
    maps = (
        {s: dict(zip(_HALVES, scenario_feature_maps(config.dgp, s))) for s in scenarios} if needs_nuisance else {}
    )
    tallies = {s: _Tally(config.estimators) for s in scenarios}
    order = sorted(scenarios, key=lambda s: s not in _DIAGONAL)

    for r in range(config.replications):
        draw = dgp.generate(config.dgp, child_seed(config.seed, *key, r))
        fit = partial(
            cross_fit,
            draw[0],
            k=config.k,
            clip=config.clip,
            propensity_lambda=config.propensity_lambda,
            outcome_lambda=config.outcome_lambda,
            seed=child_seed(config.seed, *key, r, 1),
        )
        fits: dict[tuple[str, str], NuisanceFit | CausalKitError] = {}
        results: dict[tuple[str, ...], tuple[Estimate, float] | CausalKitError] = {}
        for scenario in order:
            tally = tallies[scenario]
            nuisance = _nuisance_for(fits, tuple(maps[scenario].values()), fit) if needs_nuisance else None
            if isinstance(nuisance, NuisanceFit):
                tally.count_fit(nuisance)
            for name, method in methods.items():
                if method.nuisance and isinstance(nuisance, CausalKitError):
                    tally.fail(r, name, nuisance)
                    continue
                inputs = (name, *(maps[scenario][half] for half in method.nuisance))
                if inputs not in results:
                    try:
                        est = method.run(draw[0], draw[1] if method.oracle else nuisance, config.level,
                                         **options[name])
                    except CausalKitError as exc:
                        results[inputs] = exc
                    else:
                        results[inputs] = est, dgp.estimands[method.estimand](config.dgp, draw)
                result = results[inputs]
                if isinstance(result, CausalKitError):
                    tally.fail(r, name, result)
                else:
                    tally.add(name, *result)
        # free this replication's fits and estimates before the next draw, so
        # that at most two sets are alive at a time
        del fits, results, nuisance

    return tallies, next(iter(dgp.estimands.values()))(config.dgp, draw)


def _reports(config: McConfig, scenarios: tuple[str, ...]) -> dict[str, McReport]:
    """Each scenario's report of ``config``, after the failure ceiling."""
    tallies, true_ate = _run_scenarios(config, scenarios)
    for scenario in scenarios:
        tallies[scenario].check_ceiling(config.replications)
    return {s: tallies[s].report(config, s, true_ate) for s in scenarios}


def run_mc(config: McConfig) -> McReport:
    """Run the configured Monte Carlo study, each replication on one draw of ``config.dgp``.

    Each estimator's bias and coverage are measured against the truth of its
    estimand: the population ATE (the configured tau; heterogeneous
    coefficients average out because the covariates are centered), the
    replication's sample ATT for ``psm`` (its bias is against the mean ATT
    over the replications it succeeded in), the LATE, the panel effect or
    the jump.  A method runs with the options its DGP's config fixes, so
    ``rd`` estimates the jump at ``RdDgpConfig.cutoff``, and with its
    estimator's defaults for the rest.  Replication r draws its dataset from
    substream (r,) and its fold shuffle from substream (r, 1), so reports
    are bit-identical across re-runs of the same config.  A ConfigError, such as a fold count outside [2, n], is
    raised at once rather than counted as a replication failure.
    """
    return _reports(config, (config.scenario,))[config.scenario]


def dr_suite(
    base: ObsDgpConfig,
    replications: int = 500,
    n: int = 2000,
    seed: int = 0,
    estimators: tuple[str, ...] = ("naive", "ipw", "gformula", "aipw"),
    **kwargs,
) -> dict[str, McReport]:
    """Run all four misspecification scenarios on a shared dataset stream.

    ``n`` replaces ``base.n`` as the sample size.  The same seed drives
    every scenario, so the r-th replication sees the same dataset and the
    same folds in all four; only the learners' feature maps differ.  Each
    report equals ``run_mc`` on that scenario, but a replication draws its
    dataset once and cross-fits twice, for ``both_correct`` and
    ``both_wrong``.  ``pi_wrong`` takes its propensity fit (pi_hat, clip
    count, IRLS flags) from ``both_wrong`` and its outcome fits from
    ``both_correct``; ``mu_wrong`` the other way round.  A scenario whose
    donor fit failed runs its own cross-fit instead.  Each distinct estimate
    is computed once per replication and shared by the scenarios that agree
    on the fit halves it reads: ``naive`` runs once, ``ipw`` and ``psm``
    once per propensity map, ``gformula`` once per outcome map and ``aipw``
    in every scenario.
    """
    config = McConfig(
        dgp=replace(base, n=n),
        estimators=estimators,
        replications=replications,
        seed=seed,
        **kwargs,
    )
    return _reports(config, SCENARIOS)


@dataclass(frozen=True)
class WeakIvRow:
    first_stage_strength: float
    median_late: float
    median_ci_width: float
    median_bias: float
    n_failed: int = 0


def weak_iv_study(
    strengths: tuple[float, ...],
    n: int = 2000,
    reps: int = 200,
    seed: int = 0,
) -> list[WeakIvRow]:
    """Monte Carlo sweep of the Wald estimator over first-stage strength.

    Each strength s draws `reps` datasets with complier share s (the rest
    split evenly between always- and never-takers), a complier effect of 2
    and unit-variance noise, and summarizes ``iv`` by median estimate,
    median normal-CI width (2 z se) and median bias against the LATE.
    Replication r of grid point i draws from substream (i, r) of `seed`, so
    rows are reproducible and order-independent.  Failed replications are
    counted, with no ceiling; a grid point where every one fails is an
    InstrumentError.
    """
    if not strengths:
        raise ConfigError("strengths grid must be non-empty")
    if any(not (0.0 < s <= 1.0) for s in strengths):
        raise ConfigError("each strength must lie in (0, 1]; zero is instrument irrelevance")
    rows = []
    for i, s in enumerate(strengths):
        rest = (1.0 - s) / 2.0
        dgp = IvDgpConfig(n=n, p_always=rest, p_complier=s, p_never=rest, effect_by_type={"complier": 2.0})
        config = McConfig(dgp=dgp, estimators=("iv",), replications=reps, seed=seed)
        tallies, true_late = _run_scenarios(config, (config.scenario,), key=(i,))
        tally = tallies[config.scenario]
        if not tally.values["iv"]:
            raise InstrumentError(f"every replication failed at strength {s}; grid point unusable")
        z = normal_quantile(config.level)
        widths = [2.0 * z * se if se is not None else np.inf for se in tally.ses["iv"]]
        med = float(np.median(tally.values["iv"]))
        rows.append(
            WeakIvRow(
                first_stage_strength=float(s),
                median_late=med,
                median_ci_width=float(np.median(widths)),
                median_bias=med - true_late,
                n_failed=tally.failed["iv"],
            )
        )
    return rows
