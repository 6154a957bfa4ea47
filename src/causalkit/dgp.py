"""Synthetic data-generating processes with analytically known ground truth.

Each generator is a pure function of (config, seed): the same pair always
reproduces the same dataset bit-for-bit (see :mod:`causalkit.rng`).  Every
generated dataset satisfies consistency exactly — the observed outcome is
the potential outcome of the received treatment — and, where a propensity
exists, positivity strictly.

The observational DGP:

    X ~ N(0, I_d)
    P(A=1|X) = logistic(confounding_strength * g_pi(X))
    Y(0) = g_mu(X) + noise,   noise ~ N(0, outcome_noise_sd^2)
    Y(1) = Y(0) + tau(X),     tau(X) = tau + <tau_x, X>

where g(X) is sum_j x_j for the "linear" form and
sum_j [x_j + (x_j^2 - 1)] for "linear_plus_quadratic" (centred so the
population baseline mean is 0 and the population ATE is tau).  The two form
fields are independent misspecification hooks: a learner using the wrong
feature map for one of them is wrong in a controlled way while the other
stays right.

``DGPS`` is the table `causalkit simulate` draws through, one row per DGP.
`run_mc` draws through it too, and scores each method against the truth of
the estimand its ``methods.METHODS`` row names; `causalkit estimate` reads
its input with the loader of the row whose kind of data the method reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .data_model import GroundTruth, IvDataset, ObservationalDataset, PanelDataset, _parse_columns, _write_table
from .data_model import load_csv, load_iv_csv, load_panel_csv
from .data_model import write_csv, write_ground_truth_csv, write_iv_csv, write_panel_csv
from .errors import ConfigError, check_fields
from .rng import stream

__all__ = [
    "FORMS",
    "ObsDgpConfig",
    "IvDgpConfig",
    "PanelDgpConfig",
    "RdDgpConfig",
    "COMPLIANCE_TYPES",
    "baseline_form",
    "generate_observational",
    "generate_iv",
    "generate_panel",
    "generate_rd",
    "Dgp",
    "DGPS",
]

FORMS = ("linear", "linear_plus_quadratic")

# Weight of the quadratic piece in the linear_plus_quadratic form.  Fixed by
# design: it sets how wrong a purely linear learner is in the
# misspecification scenarios.
QUAD_COEF = 1.0

# Logit magnitudes beyond this would round the propensity to exactly 0 or 1
# in double precision; clamping keeps positivity strict in floating point.
_MAX_LOGIT = 30.0


def baseline_form(x: np.ndarray, form: str) -> np.ndarray:
    """Evaluate a named baseline form row-wise on an (n, d) matrix."""
    if form not in FORMS:
        raise ConfigError(f"unknown form '{form}', expected one of {FORMS}")
    linear = x.sum(axis=1)
    if form == "linear":
        return linear
    return linear + QUAD_COEF * (x * x - 1.0).sum(axis=1)


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    eta = np.clip(eta, -_MAX_LOGIT, _MAX_LOGIT)
    return np.where(eta >= 0, 1.0 / (1.0 + np.exp(-eta)), np.exp(eta) / (1.0 + np.exp(eta)))


@dataclass(frozen=True)
class ObsDgpConfig:
    n: int
    d: int = 1
    confounding_strength: float = 0.0
    tau: float = 0.0
    tau_x: tuple[float, ...] | None = None
    outcome_noise_sd: float = 1.0
    outcome_form: str = "linear"
    propensity_form: str = "linear"

    def __post_init__(self) -> None:
        check_fields(self, n=">= 1", d=">= 0", outcome_noise_sd=">= 0", outcome_form=FORMS, propensity_form=FORMS)
        if self.tau_x is not None and len(self.tau_x) != self.d:
            raise ConfigError(f"tau_x has {len(self.tau_x)} coefficients, d={self.d}")


def generate_observational(config: ObsDgpConfig, seed: int) -> tuple[ObservationalDataset, GroundTruth]:
    """Draw a confounded observational dataset and its ground truth.

    Draw order (fixed for reproducibility): covariates, treatment uniforms,
    outcome noise.
    """
    rng = stream(seed)
    n, d = config.n, config.d
    x = rng.standard_normal((n, d))
    pi = _sigmoid(config.confounding_strength * baseline_form(x, config.propensity_form))
    a = (rng.random(n) < pi).astype(np.int64)
    noise = config.outcome_noise_sd * rng.standard_normal(n)
    y0 = baseline_form(x, config.outcome_form) + noise
    tau = np.full(n, config.tau)
    if config.tau_x is not None and d > 0:
        tau = tau + x @ np.asarray(config.tau_x, dtype=float)
    y1 = y0 + tau
    y = np.where(a == 1, y1, y0)
    dataset = ObservationalDataset(x=x, a=a, y=y)
    truth = GroundTruth(y1=y1, y0=y0, pi=pi)
    truth.check_consistency(dataset)
    return dataset, truth


COMPLIANCE_TYPES = ("always", "complier", "never", "defier")

# Type-specific baseline outcome levels.  Non-zero always/never baselines make
# treatment endogenous (naive comparisons biased) without touching the LATE,
# which is the complier effect by construction.
_TYPE_BASELINE = {"always": 1.0, "complier": 0.0, "never": -1.0, "defier": 0.0}


@dataclass(frozen=True)
class IvDgpConfig:
    n: int
    p_always: float = 0.0
    p_complier: float = 1.0
    p_never: float = 0.0
    p_defier: float = 0.0
    effect_by_type: Mapping[str, float] | None = None
    instrument_prob: float = 0.5
    allow_defiers: bool = False
    noise_sd: float = 1.0

    def __post_init__(self) -> None:
        probs = (self.p_always, self.p_complier, self.p_never, self.p_defier)
        if not all(p >= 0 for p in probs):  # NaN fails too
            raise ConfigError(
                "compliance-type probabilities must be non-negative, "
                f"got (p_always, p_complier, p_never, p_defier) = {probs}"
            )
        check_fields(self, n=">= 1", instrument_prob="in (0, 1)", noise_sd=">= 0")
        if not abs(sum(probs) - 1.0) <= 1e-12:
            raise ConfigError(f"compliance-type probabilities must sum to 1, got {sum(probs)!r}")
        if self.p_defier > 0 and not self.allow_defiers:
            raise ConfigError("p_defier > 0 requires allow_defiers=True (monotonicity violation study)")
        effects = dict(self.effect_by_type or {})
        for t in COMPLIANCE_TYPES:
            effects.setdefault(t, 0.0)
        unknown = set(effects) - set(COMPLIANCE_TYPES)
        if unknown:
            raise ConfigError(f"unknown compliance types in effect_by_type: {sorted(unknown)}")
        object.__setattr__(self, "effect_by_type", effects)

    @property
    def first_stage_strength(self) -> float:
        """E[a | z=1] - E[a | z=0], the complier share less the defier share."""
        return self.p_complier - self.p_defier

    @property
    def type_probs(self) -> tuple[float, float, float, float]:
        return (self.p_always, self.p_complier, self.p_never, self.p_defier)


def generate_iv(config: IvDgpConfig, seed: int) -> tuple[IvDataset, GroundTruth, float]:
    """Draw instrument, latent compliance types, and outcomes.

    Returns (dataset, ground truth with latent type labels, true LATE).
    The true LATE is the configured complier effect; because effects are
    constant within type it equals the mean of y1 - y0 over units whose
    latent label is "complier".
    """
    rng = stream(seed)
    n = config.n
    z = (rng.random(n) < config.instrument_prob).astype(np.int64)
    type_idx = rng.choice(len(COMPLIANCE_TYPES), size=n, p=np.asarray(config.type_probs))
    labels = tuple(COMPLIANCE_TYPES[i] for i in type_idx)
    a = np.empty(n, dtype=np.int64)
    a[type_idx == 0] = 1
    a[type_idx == 1] = z[type_idx == 1]
    a[type_idx == 2] = 0
    a[type_idx == 3] = 1 - z[type_idx == 3]
    baseline = np.asarray([_TYPE_BASELINE[t] for t in labels])
    effect = np.asarray([config.effect_by_type[t] for t in labels])
    y0 = baseline + config.noise_sd * rng.standard_normal(n)
    y1 = y0 + effect
    y = np.where(a == 1, y1, y0)
    dataset = IvDataset(z=z, a=a, y=y)
    truth = GroundTruth(y1=y1, y0=y0, labels=labels)
    return dataset, truth, float(config.effect_by_type["complier"])


@dataclass(frozen=True)
class PanelDgpConfig:
    n_units: int
    n_periods: int = 2
    group_effect: float = 0.0
    time_trend: float = 0.0
    treatment_effect: float = 0.0
    parallel_violation: float = 0.0
    noise_sd: float = 1.0
    unit_effect_sd: float = 1.0
    treated_fraction: float = 0.5
    first_treated_period: int | None = None

    def __post_init__(self) -> None:
        check_fields(self, n_units=">= 2", n_periods=">= 2", noise_sd=">= 0", unit_effect_sd=">= 0",
                     treated_fraction="in (0, 1)")
        first = self.first_treated_period
        if first is None:
            object.__setattr__(self, "first_treated_period", self.n_periods - 1)
        elif not (1 <= first <= self.n_periods - 1):
            raise ConfigError(
                f"first_treated_period must lie in [1, {self.n_periods - 1}], got {first}"
            )
        n_treated = int(round(self.n_units * self.treated_fraction))
        if n_treated < 1 or n_treated >= self.n_units:
            raise ConfigError("treated_fraction leaves a group empty")


def generate_panel(config: PanelDgpConfig, seed: int) -> tuple[PanelDataset, float, np.ndarray]:
    """Draw a balanced two-group panel.

    Outcome model per record:

        y_it = alpha_i + group_effect*g_i + time_trend*t
               + parallel_violation*t*g_i + treatment_effect*a_it + noise

    with a_it = 1 when unit i is in the treated group and t is at or past
    first_treated_period.  Unit effects alpha_i ~ N(0, unit_effect_sd^2) are
    drawn once per dataset and returned for the ground-truth sidecar.
    Returns (panel, true treatment effect, unit effects).
    """
    rng = stream(seed)
    n_u, n_t = config.n_units, config.n_periods
    n_treated = int(round(n_u * config.treated_fraction))
    group_u = (np.arange(n_u) < n_treated).astype(np.int64)
    alpha = config.unit_effect_sd * rng.standard_normal(n_u)
    unit = np.repeat(np.arange(n_u), n_t)
    period = np.tile(np.arange(n_t), n_u)
    g = group_u[unit]
    a = ((g == 1) & (period >= config.first_treated_period)).astype(np.int64)
    noise = config.noise_sd * rng.standard_normal(n_u * n_t)
    y = (
        alpha[unit]
        + config.group_effect * g
        + config.time_trend * period
        + config.parallel_violation * period * g
        + config.treatment_effect * a
        + noise
    )
    panel = PanelDataset(unit_id=unit, period_id=period, a=a, y=y, group=g)
    return panel, float(config.treatment_effect), alpha


@dataclass(frozen=True)
class RdDgpConfig:
    n: int
    cutoff: float = 0.0
    jump: float = 0.0
    slope_left: float = 0.0
    slope_right: float = 0.0
    noise_sd: float = 1.0
    half_width: float = 1.0

    def __post_init__(self) -> None:
        check_fields(self, n=">= 1", noise_sd=">= 0", half_width="> 0")


def generate_rd(config: RdDgpConfig, seed: int) -> tuple[ObservationalDataset, GroundTruth, float]:
    """Draw a sharp regression-discontinuity dataset.

    The running variable is uniform on cutoff +/- half_width and is the sole
    covariate column; treatment is its indicator a = 1[x >= cutoff].  Both
    potential-outcome lines share the unit's noise draw, so consistency is
    exact.  The discontinuity at the cutoff is `jump` regardless of slopes.
    Returns (dataset, ground truth, true jump).
    """
    rng = stream(seed)
    c = config.cutoff
    x = c + config.half_width * (2.0 * rng.random(config.n) - 1.0)
    a = (x >= c).astype(np.int64)
    noise = config.noise_sd * rng.standard_normal(config.n)
    y0 = config.slope_left * (x - c) + noise
    y1 = config.jump + config.slope_right * (x - c) + noise
    y = np.where(a == 1, y1, y0)
    dataset = ObservationalDataset(x=x.reshape(-1, 1), a=a, y=y)
    truth = GroundTruth(y1=y1, y0=y0)
    truth.check_consistency(dataset)
    return dataset, truth, float(config.jump)


@dataclass(frozen=True)
class Dgp:
    """One DGP as `causalkit simulate`, `causalkit estimate` and `run_mc` use it.

    ``flags`` maps each flag to the config field it sets, in the order the
    summary echoes them; a field ``effect_by_type.<type>`` is one entry of
    that mapping.  ``generate(config, seed)`` is the draw that simulate and
    the harness share: the generator's tuple, data first, then its truth.
    ``write(draw, out, truth_out)`` writes a draw's data to ``out`` and its
    truth to ``truth_out`` (when given), and returns the summary's row count
    plus its true-effect item, if any.  ``load(path, values)`` reads a
    dataset of this kind, with ``values`` mapping config keys to resolved
    values.  ``estimands`` maps each estimand the DGP defines to
    ``f(config, draw)``, its true value in a draw; the first is fixed by the
    config, and each is computed only when asked for.  ``derived`` names the
    config fields the class works out itself, echoed after the flags.
    ``fixes`` maps each method option that describes the design, not a
    tuning choice, to the config field that fixes it; the harness passes it
    to every method that takes that option.
    """

    config: type
    flags: dict[str, str]
    generate: Callable[[object, int], tuple]
    write: Callable[[tuple, str, str | None], dict]
    load: Callable[[str, dict], object]
    estimands: dict[str, Callable[[object, tuple], float]]
    derived: tuple[str, ...] = ()
    fixes: dict[str, str] = field(default_factory=dict)

    def make(self, values: Mapping[str, object]):
        """The config from flag values; a field whose flag is absent or None keeps its default."""
        kwargs: dict = {}
        for flag, field in self.flags.items():
            if values.get(flag) is not None:
                name, _, key = field.partition(".")
                if key:
                    kwargs.setdefault(name, {})[key] = values[flag]
                else:
                    kwargs[name] = values[flag]
        return self.config(**kwargs)

    def echo(self, config) -> dict:
        """Each flag with the value of its field in ``config``, then the derived fields."""
        out = {}
        for flag, field in self.flags.items():
            name, _, key = field.partition(".")
            out[flag] = getattr(config, name)[key] if key else getattr(config, name)
        out.update((name, getattr(config, name)) for name in self.derived)
        return out


# The rows' steps look the generators, writers and loaders up as module
# globals each time they run (a lambda in a row too), so a wrapper installed
# at those module attributes sees every call.


def _write_obs(draw: tuple, out: str, truth_out: str | None) -> dict:
    dataset, truth = draw
    write_csv(dataset, out)
    if truth_out:
        write_ground_truth_csv(truth, truth_out)
    return {"rows": dataset.n}


def _write_iv(draw: tuple, out: str, truth_out: str | None) -> dict:
    dataset, truth, true_late = draw
    write_iv_csv(dataset, out)
    if truth_out:
        write_ground_truth_csv(truth, truth_out)
    return {"rows": dataset.n, "true_late": true_late}


def _write_panel(draw: tuple, out: str, truth_out: str | None) -> dict:
    panel, true_effect, unit_effects = draw
    write_panel_csv(panel, out)
    if truth_out:
        n_units = unit_effects.shape[0]
        _write_table(
            truth_out,
            ["unit", "unit_effect", "true_effect"],
            [np.arange(n_units), unit_effects, np.full(n_units, true_effect)],
        )
    return {"rows": panel.n, "true_effect": true_effect}


def _write_rd(draw: tuple, out: str, truth_out: str | None) -> dict:
    dataset, truth, true_jump = draw
    write_csv(dataset, out, schema={"covariates": ["x"]})
    if truth_out:
        write_ground_truth_csv(truth, truth_out)
    return {"rows": dataset.n, "true_jump": true_jump}


def _load_rd(path: str, values: dict) -> ObservationalDataset:
    # a sharp design: the running variable is the only covariate and the
    # treatment is x >= cutoff, so the file needs no treatment column
    cols, _ = _parse_columns(path, [values["running"], values["outcome"]])
    x = cols[values["running"]]
    return ObservationalDataset(x=x, a=x >= values["cutoff"], y=cols[values["outcome"]])


def _att(config: ObsDgpConfig, draw: tuple) -> float:
    """The mean of y1 - y0 over the draw's treated units."""
    dataset, truth = draw
    return float(np.mean((truth.y1 - truth.y0)[dataset.a == 1]))


DGPS: dict[str, Dgp] = {
    "obs": Dgp(
        ObsDgpConfig,
        {
            "n": "n",
            "d": "d",
            "confounding": "confounding_strength",
            "tau": "tau",
            "tau_x": "tau_x",
            "noise_sd": "outcome_noise_sd",
            "outcome_form": "outcome_form",
            "propensity_form": "propensity_form",
        },
        lambda config, seed: generate_observational(config, seed),
        _write_obs,
        lambda path, values: load_csv(path, values),
        {"ate": lambda config, draw: float(config.tau), "att": _att},
    ),
    "iv": Dgp(
        IvDgpConfig,
        {
            "n": "n",
            "p_always": "p_always",
            "p_complier": "p_complier",
            "p_never": "p_never",
            "p_defier": "p_defier",
            "allow_defiers": "allow_defiers",
            "instrument_prob": "instrument_prob",
            "always_effect": "effect_by_type.always",
            "complier_effect": "effect_by_type.complier",
            "never_effect": "effect_by_type.never",
            "defier_effect": "effect_by_type.defier",
            "noise_sd": "noise_sd",
        },
        lambda config, seed: generate_iv(config, seed),
        _write_iv,
        lambda path, values: load_iv_csv(path, values),
        {"late": lambda config, draw: draw[2]},
        derived=("first_stage_strength",),
    ),
    "panel": Dgp(
        PanelDgpConfig,
        {
            "n_units": "n_units",
            "n_periods": "n_periods",
            "group_effect": "group_effect",
            "time_trend": "time_trend",
            "effect": "treatment_effect",
            "parallel_violation": "parallel_violation",
            "noise_sd": "noise_sd",
            "unit_effect_sd": "unit_effect_sd",
            "treated_fraction": "treated_fraction",
            "first_treated_period": "first_treated_period",
        },
        lambda config, seed: generate_panel(config, seed),
        _write_panel,
        lambda path, values: load_panel_csv(path, values),
        {"effect": lambda config, draw: draw[1]},
    ),
    "rd": Dgp(
        RdDgpConfig,
        {
            "n": "n",
            "cutoff": "cutoff",
            "jump": "jump",
            "slope_left": "slope_left",
            "slope_right": "slope_right",
            "noise_sd": "noise_sd",
            "half_width": "half_width",
        },
        lambda config, seed: generate_rd(config, seed),
        _write_rd,
        _load_rd,
        {"jump": lambda config, draw: draw[2]},
        fixes={"cutoff": "cutoff"},
    ),
}
