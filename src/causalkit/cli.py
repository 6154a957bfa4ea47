"""Command-line interface: simulate, estimate, montecarlo, eif-check.

Configuration precedence is flag > config-file key > built-in default.  The
config file is flat text, one ``key = value`` per line, ``#`` comments
allowed; keys use the canonical dotted names (``crossfit.k``,
``propensity.lambda``, ...).  Every report embeds its fully resolved config,
the seed, and the package version, and is serialized with stable key order
and shortest round-trip numbers, so identical configs reproduce reports
byte for byte.

Exit codes: 0 success, 1 usage error, 2 input/validation error,
3 numerical/estimation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from .data_model import (
    _parse_fields,
    _row_blocks,
    _write_table,
    format_number,
    write_csv,
    write_ground_truth_csv,
    write_iv_csv,
    write_panel_csv,
)
from .dgp import (
    FORMS,
    IvDgpConfig,
    ObsDgpConfig,
    PanelDgpConfig,
    RdDgpConfig,
    generate_iv,
    generate_observational,
    generate_panel,
    generate_rd,
)
from .eif_engine import (
    Ate,
    CounterfactualMean,
    DiscreteMeasure,
    closed_form_eif,
    eif_table,
    make_functional,
    pathwise_derivative,
    random_score,
    second_order_remainder,
    step_schedule,
)
from .errors import (
    CausalKitError,
    ConfigError,
    EstimationError,
    InputError,
    SchemaError,
)
from .methods import METHODS
from .montecarlo import ESTIMATORS, SCENARIOS, EstimatorSummary, McConfig, McReport, run_mc
from .nuisance import FEATURE_MAPS, cross_fit
from .quasi_experimental import KERNELS
from .rng import stream

__all__ = ["main", "parse_args", "emit_report"]

PROG = "causalkit"

_MC_COLUMNS = tuple(f.name for f in fields(EstimatorSummary))


class UsageError(Exception):
    """Post-parse usage problem (missing or conflicting flags)."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# config-file handling


def _load_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got '{raw.strip()}'")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        entries[key] = value.strip()
    return entries


def _cast_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"config key '{key}' must be an integer, got '{text}'") from None


def _cast_float(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"config key '{key}' must be a number, got '{text}'") from None


def _cast_bool(text: str, key: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"config key '{key}' must be a boolean, got '{text}'")


def _cast_str(text: str, key: str) -> str:
    return text


def _cast_pair(text: str, key: str) -> tuple[float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"config key '{key}' must be 'lo,hi', got '{text}'")
    return (_cast_float(parts[0], key), _cast_float(parts[1], key))


def _cast_names(text: str, key: str) -> list[str]:
    return [p.strip() for p in text.split(",") if p.strip()]


def _choice(value: str, key: str, choices: tuple[str, ...]) -> str:
    if value not in choices:
        raise ConfigError(f"'{key}' must be one of {choices}, got '{value}'")
    return value


class _Resolver:
    """Flag > config-file entry > default, with strict unknown-key checking."""

    def __init__(self, args: argparse.Namespace, known_keys: tuple[str, ...]):
        entries = _load_config_file(args.config) if getattr(args, "config", None) else {}
        unknown = sorted(set(entries) - set(known_keys))
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; expected a subset of {sorted(known_keys)}")
        self.args = args
        self.entries = entries

    def get(self, dest: str, key: str, default, cast):
        flag_value = getattr(self.args, dest, None)
        if flag_value is not None and flag_value is not False:
            return flag_value
        if key in self.entries:
            return cast(self.entries[key], key)
        if flag_value is False:
            return False
        return default


def _parse_clip(value: str | tuple[float, float]) -> tuple[float, float]:
    if isinstance(value, tuple):
        return value
    return _cast_pair(value, "crossfit.clip")


# ---------------------------------------------------------------------------
# serialization


def _jsonable(value):
    """Recursively coerce to JSON-safe values; non-finite floats become null."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, float):
        return value if np.isfinite(value) else None
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def emit_report(result: dict, format: str = "json", path: str | None = None) -> None:
    """Serialize a report dict with stable key order.

    json: indent-2 object, shortest round-trip numbers, trailing newline.
    csv: requires a montecarlo-shaped dict (a "rows" list); fixed column
    order, empty cells for absent values.
    """
    if format == "json":
        text = json.dumps(_jsonable(result), indent=2, allow_nan=False) + "\n"
    elif format == "csv":
        rows = result.get("rows")
        if rows is None:
            raise ConfigError("csv format requires a report with a 'rows' table")
        lines = [",".join(_MC_COLUMNS)]
        for row in rows:
            cells = []
            for col in _MC_COLUMNS:
                v = row.get(col)
                if v is None:
                    cells.append("")
                elif isinstance(v, str):
                    cells.append(v)
                elif isinstance(v, (int, np.integer)) and not isinstance(v, bool):
                    cells.append(str(int(v)))
                else:
                    cells.append(format_number(float(v)))
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    else:
        raise ConfigError(f"unknown report format '{format}'")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)


# ---------------------------------------------------------------------------
# simulate


def _add_simulate_parser(sub) -> None:
    p = sub.add_parser("simulate", help="draw a synthetic dataset with ground truth")
    p.add_argument("--dgp", choices=("obs", "iv", "panel", "rd"), required=True)
    p.add_argument("--out", help="dataset CSV path (required)")
    p.add_argument("--truth-out", dest="truth_out", help="ground-truth sidecar CSV path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--confounding", type=float, default=0.0)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--tau-x", dest="tau_x", help="comma-separated heterogeneous-effect coefficients")
    p.add_argument("--noise-sd", dest="noise_sd", type=float, default=1.0)
    p.add_argument("--outcome-form", dest="outcome_form", choices=FORMS, default="linear")
    p.add_argument("--propensity-form", dest="propensity_form", choices=FORMS, default="linear")
    p.add_argument("--p-always", dest="p_always", type=float, default=0.0)
    p.add_argument("--p-complier", dest="p_complier", type=float, default=1.0)
    p.add_argument("--p-never", dest="p_never", type=float, default=0.0)
    p.add_argument("--p-defier", dest="p_defier", type=float, default=0.0)
    p.add_argument("--allow-defiers", dest="allow_defiers", action="store_true")
    p.add_argument("--instrument-prob", dest="instrument_prob", type=float, default=0.5)
    p.add_argument("--complier-effect", dest="complier_effect", type=float, default=0.0)
    p.add_argument("--always-effect", dest="always_effect", type=float, default=0.0)
    p.add_argument("--never-effect", dest="never_effect", type=float, default=0.0)
    p.add_argument("--defier-effect", dest="defier_effect", type=float, default=0.0)
    p.add_argument("--n-units", dest="n_units", type=int, default=20)
    p.add_argument("--n-periods", dest="n_periods", type=int, default=2)
    p.add_argument("--group-effect", dest="group_effect", type=float, default=0.0)
    p.add_argument("--time-trend", dest="time_trend", type=float, default=0.0)
    p.add_argument("--effect", type=float, default=0.0, help="panel treatment effect")
    p.add_argument("--parallel-violation", dest="parallel_violation", type=float, default=0.0)
    p.add_argument("--unit-effect-sd", dest="unit_effect_sd", type=float, default=1.0)
    p.add_argument("--treated-fraction", dest="treated_fraction", type=float, default=0.5)
    p.add_argument("--first-treated-period", dest="first_treated_period", type=int)
    p.add_argument("--cutoff", type=float, default=0.0)
    p.add_argument("--jump", type=float, default=0.0)
    p.add_argument("--slope-left", dest="slope_left", type=float, default=0.0)
    p.add_argument("--slope-right", dest="slope_right", type=float, default=0.0)
    p.add_argument("--half-width", dest="half_width", type=float, default=1.0)
    p.set_defaults(handler=_cmd_simulate)


def _cmd_simulate(args: argparse.Namespace) -> None:
    if not args.out:
        raise UsageError("--out is required for simulate")
    seed = args.seed
    summary = {
        "subcommand": "simulate",
        "dgp": args.dgp,
        "config": {},
        "out": args.out,
        "truth_out": args.truth_out,
        "rows": 0,
        "seed": seed,
        "version": __version__,
    }
    if args.dgp == "obs":
        tau_x = None
        if args.tau_x:
            tau_x = tuple(float(v) for v in args.tau_x.split(","))
        config = ObsDgpConfig(
            n=args.n,
            d=args.d,
            confounding_strength=args.confounding,
            tau=args.tau,
            tau_x=tau_x,
            outcome_noise_sd=args.noise_sd,
            outcome_form=args.outcome_form,
            propensity_form=args.propensity_form,
        )
        dataset, truth = generate_observational(config, seed)
        write_csv(dataset, args.out)
        if args.truth_out:
            write_ground_truth_csv(truth, args.truth_out)
        summary["config"] = {
            "n": config.n,
            "d": config.d,
            "confounding": config.confounding_strength,
            "tau": config.tau,
            "tau_x": list(config.tau_x) if config.tau_x else None,
            "noise_sd": config.outcome_noise_sd,
            "outcome_form": config.outcome_form,
            "propensity_form": config.propensity_form,
        }
        summary["rows"] = dataset.n
    elif args.dgp == "iv":
        config = IvDgpConfig(
            n=args.n,
            p_always=args.p_always,
            p_complier=args.p_complier,
            p_never=args.p_never,
            p_defier=args.p_defier,
            effect_by_type={
                "always": args.always_effect,
                "complier": args.complier_effect,
                "never": args.never_effect,
                "defier": args.defier_effect,
            },
            instrument_prob=args.instrument_prob,
            allow_defiers=args.allow_defiers,
            noise_sd=args.noise_sd,
        )
        dataset, truth, true_late = generate_iv(config, seed)
        write_iv_csv(dataset, args.out)
        if args.truth_out:
            write_ground_truth_csv(truth, args.truth_out)
        summary["config"] = {
            "n": config.n,
            "p_always": config.p_always,
            "p_complier": config.p_complier,
            "p_never": config.p_never,
            "p_defier": config.p_defier,
            "instrument_prob": config.instrument_prob,
            "complier_effect": config.effect_by_type["complier"],
            "noise_sd": config.noise_sd,
            "first_stage_strength": config.first_stage_strength,
        }
        summary["rows"] = dataset.n
        summary["true_late"] = true_late
    elif args.dgp == "panel":
        config = PanelDgpConfig(
            n_units=args.n_units,
            n_periods=args.n_periods,
            group_effect=args.group_effect,
            time_trend=args.time_trend,
            treatment_effect=args.effect,
            parallel_violation=args.parallel_violation,
            noise_sd=args.noise_sd,
            unit_effect_sd=args.unit_effect_sd,
            treated_fraction=args.treated_fraction,
            first_treated_period=args.first_treated_period,
        )
        panel, true_effect, unit_effects = generate_panel(config, seed)
        write_panel_csv(panel, args.out)
        if args.truth_out:
            n_units = unit_effects.shape[0]
            _write_table(
                args.truth_out,
                ["unit", "unit_effect", "true_effect"],
                [np.arange(n_units), unit_effects, np.full(n_units, true_effect)],
            )
        summary["config"] = {
            "n_units": config.n_units,
            "n_periods": config.n_periods,
            "group_effect": config.group_effect,
            "time_trend": config.time_trend,
            "effect": config.treatment_effect,
            "parallel_violation": config.parallel_violation,
            "noise_sd": config.noise_sd,
            "unit_effect_sd": config.unit_effect_sd,
            "treated_fraction": config.treated_fraction,
            "first_treated_period": config.first_treated_period,
        }
        summary["rows"] = panel.n
        summary["true_effect"] = true_effect
    else:
        config = RdDgpConfig(
            n=args.n,
            cutoff=args.cutoff,
            jump=args.jump,
            slope_left=args.slope_left,
            slope_right=args.slope_right,
            noise_sd=args.noise_sd,
            half_width=args.half_width,
        )
        dataset, truth, true_jump = generate_rd(config, seed)
        write_csv(dataset, args.out, schema={"covariates": ["x"]})
        if args.truth_out:
            write_ground_truth_csv(truth, args.truth_out)
        summary["config"] = {
            "n": config.n,
            "cutoff": config.cutoff,
            "jump": config.jump,
            "slope_left": config.slope_left,
            "slope_right": config.slope_right,
            "noise_sd": config.noise_sd,
            "half_width": config.half_width,
        }
        summary["rows"] = dataset.n
        summary["true_jump"] = true_jump
    emit_report(summary, "json", None)


# ---------------------------------------------------------------------------
# estimate


_REQUIRED = object()

# config key -> (flag dest, default, cast, allowed values).  A string value,
# from a flag or the config file, goes through the cast.
_ESTIMATE_OPTIONS = {
    "treatment": ("treatment", "a", _cast_str, None),
    "outcome": ("outcome", "y", _cast_str, None),
    "covariates": ("covariates", (), _cast_names, None),
    "instrument": ("instrument", "z", _cast_str, None),
    "unit": ("unit", "unit", _cast_str, None),
    "period": ("period", "period", _cast_str, None),
    "group": ("group", "group", _cast_str, None),
    "running": ("running", "x", _cast_str, None),
    "seed": ("seed", 0, _cast_int, None),
    "level": ("level", 0.95, _cast_float, None),
    "normalization": ("normalization", "hajek", _cast_str, ("horvitz_thompson", "hajek")),
    "caliper": ("caliper", None, _cast_float, None),
    "with_replacement": ("with_replacement", False, _cast_bool, None),
    "cutoff": ("cutoff", _REQUIRED, _cast_float, None),
    "bandwidth": ("bandwidth", 1.0, _cast_float, None),
    "kernel": ("kernel", "rectangular", _cast_str, KERNELS),
    "placebo": ("placebo", False, _cast_bool, None),
    "crossfit.k": ("k", 5, _cast_int, None),
    "crossfit.clip": ("clip", (0.01, 0.99), _cast_pair, None),
    "propensity.lambda": ("propensity_lambda", 1e-6, _cast_float, None),
    "outcome.lambda": ("outcome_lambda", 1e-8, _cast_float, None),
    "propensity.features": ("propensity_features", "linear", _cast_str, FEATURE_MAPS),
    "outcome.features": ("outcome_features", "linear", _cast_str, FEATURE_MAPS),
}

_ESTIMATE_CONFIG_KEYS = ("method", "input", "output", *_ESTIMATE_OPTIONS)

# resolved for every method, as the loaders read them
_ESTIMATE_COMMON = ("treatment", "outcome", "covariates", "seed", "level")


def _add_estimate_parser(sub) -> None:
    p = sub.add_parser("estimate", help="run an estimator on a CSV dataset")
    p.add_argument("--method", choices=tuple(METHODS))
    p.add_argument("--input")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--out", help="report path (default: stdout)")
    p.add_argument("--treatment")
    p.add_argument("--outcome")
    p.add_argument("--covariates", help="comma-separated covariate column names")
    p.add_argument("--instrument")
    p.add_argument("--unit")
    p.add_argument("--period")
    p.add_argument("--group")
    p.add_argument("--running", help="running-variable column for rd")
    p.add_argument("--seed", type=int)
    p.add_argument("--level", type=float)
    p.add_argument("--normalization", choices=("horvitz_thompson", "hajek"))
    p.add_argument("--caliper", type=float)
    p.add_argument("--with-replacement", dest="with_replacement", action="store_true", default=None)
    p.add_argument("--cutoff", type=float)
    p.add_argument("--bandwidth", type=float)
    p.add_argument("--kernel", choices=KERNELS)
    p.add_argument("--placebo", action="store_true", default=None)
    p.add_argument("--k", type=int, help="cross-fitting folds")
    p.add_argument("--clip", help="propensity clip bounds 'lo,hi'")
    p.add_argument("--propensity-lambda", dest="propensity_lambda", type=float)
    p.add_argument("--outcome-lambda", dest="outcome_lambda", type=float)
    p.add_argument("--propensity-features", dest="propensity_features", choices=FEATURE_MAPS)
    p.add_argument("--outcome-features", dest="outcome_features", choices=FEATURE_MAPS)
    p.set_defaults(handler=_cmd_estimate)


def _cmd_estimate(args: argparse.Namespace) -> None:
    r = _Resolver(args, _ESTIMATE_CONFIG_KEYS)
    name = r.get("method", "method", None, _cast_str)
    if name is None:
        raise UsageError("--method is required")
    if name not in METHODS:
        raise ConfigError(f"unknown method '{name}'")
    method = METHODS[name]
    input_path = r.get("input", "input", None, _cast_str)
    if input_path is None:
        raise UsageError("--input is required")
    out_path = args.out if args.out is not None else r.get("out", "output", None, _cast_str)
    values = {}
    for key in dict.fromkeys(_ESTIMATE_COMMON + method.keys):
        dest, default, cast, allowed = _ESTIMATE_OPTIONS[key]
        value = r.get(dest, key, default, cast)
        if value is _REQUIRED:
            raise UsageError(f"--{dest} is required for --method {name}")
        if isinstance(value, str):
            value = cast(value, key)
        values[key] = value if allowed is None else _choice(value, key, allowed)

    data = method.load(input_path, values)
    fit = None
    if method.nuisance:
        fit = cross_fit(
            data,
            k=values["crossfit.k"],
            clip=values["crossfit.clip"],
            propensity_lambda=values["propensity.lambda"],
            outcome_lambda=values["outcome.lambda"],
            propensity_features=values["propensity.features"],
            outcome_features=values["outcome.features"],
            seed=values["seed"],
        )
    estimate = method.run(data, fit, values["level"], **{k: values[k] for k in method.options})
    if fit is not None:
        estimate.diagnostics.update(
            clip_count=fit.clip_count,
            irls_converged=all(fit.irls_converged),
            irls_iterations=list(fit.irls_iterations),
        )
    config = {"subcommand": "estimate", "method": name, "input": input_path}
    config.update((k, values[k]) for k in method.keys)
    report = {
        "method": estimate.method,
        "psi_hat": estimate.psi_hat,
        "se": estimate.se,
        "ci_low": estimate.ci_low,
        "ci_high": estimate.ci_high,
        "n": estimate.n,
        "diagnostics": estimate.diagnostics,
        "config": config,
        "version": __version__,
    }
    emit_report(report, "json", out_path)


# ---------------------------------------------------------------------------
# montecarlo


_MC_CONFIG_KEYS = (
    "scenario",
    "reps",
    "n",
    "seed",
    "estimators",
    "level",
    "d",
    "confounding",
    "tau",
    "noise_sd",
    "outcome_form",
    "propensity_form",
    "crossfit.k",
    "crossfit.clip",
    "propensity.lambda",
    "outcome.lambda",
)


def _add_montecarlo_parser(sub) -> None:
    p = sub.add_parser("montecarlo", help="replicated-simulation study")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--scenario", choices=SCENARIOS)
    p.add_argument("--reps", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--estimators", help=f"comma-separated subset of {ESTIMATORS}")
    p.add_argument("--level", type=float)
    p.add_argument("--d", type=int)
    p.add_argument("--confounding", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--noise-sd", dest="noise_sd", type=float)
    p.add_argument("--outcome-form", dest="outcome_form", choices=FORMS)
    p.add_argument("--propensity-form", dest="propensity_form", choices=FORMS)
    p.add_argument("--k", type=int)
    p.add_argument("--clip")
    p.add_argument("--propensity-lambda", dest="propensity_lambda", type=float)
    p.add_argument("--outcome-lambda", dest="outcome_lambda", type=float)
    p.add_argument("--out", help="JSON report path (default: stdout)")
    p.add_argument("--csv", help="also write the row table as CSV to this path")
    p.set_defaults(handler=_cmd_montecarlo)


def _mc_report_dict(report: McReport, config: dict) -> dict:
    return {**asdict(report), "config": config, "version": __version__}


def _cmd_montecarlo(args: argparse.Namespace) -> None:
    r = _Resolver(args, _MC_CONFIG_KEYS)
    scenario = _choice(r.get("scenario", "scenario", "both_correct", _cast_str), "scenario", SCENARIOS)
    reps = r.get("reps", "reps", 100, _cast_int)
    n = r.get("n", "n", 1000, _cast_int)
    seed = r.get("seed", "seed", 0, _cast_int)
    level = r.get("level", "level", 0.95, _cast_float)
    estimators = r.get("estimators", "estimators", "naive,ipw,gformula,aipw", _cast_str)
    if isinstance(estimators, str):
        estimators = tuple(e.strip() for e in estimators.split(",") if e.strip())
    d = r.get("d", "d", 1, _cast_int)
    confounding = r.get("confounding", "confounding", 0.0, _cast_float)
    tau = r.get("tau", "tau", 0.0, _cast_float)
    noise_sd = r.get("noise_sd", "noise_sd", 1.0, _cast_float)
    outcome_form = _choice(
        r.get("outcome_form", "outcome_form", "linear", _cast_str), "outcome_form", FORMS
    )
    propensity_form = _choice(
        r.get("propensity_form", "propensity_form", "linear", _cast_str), "propensity_form", FORMS
    )
    k = r.get("k", "crossfit.k", 5, _cast_int)
    clip = _parse_clip(r.get("clip", "crossfit.clip", (0.01, 0.99), _cast_pair))
    p_lambda = r.get("propensity_lambda", "propensity.lambda", 1e-6, _cast_float)
    o_lambda = r.get("outcome_lambda", "outcome.lambda", 1e-8, _cast_float)
    dgp = ObsDgpConfig(
        n=n,
        d=d,
        confounding_strength=confounding,
        tau=tau,
        outcome_noise_sd=noise_sd,
        outcome_form=outcome_form,
        propensity_form=propensity_form,
    )
    mc = McConfig(
        dgp=dgp,
        estimators=estimators,
        replications=reps,
        n=n,
        seed=seed,
        scenario=scenario,
        k=k,
        clip=clip,
        propensity_lambda=p_lambda,
        outcome_lambda=o_lambda,
        level=level,
    )
    report = run_mc(mc)
    config = {
        "subcommand": "montecarlo",
        "scenario": scenario,
        "reps": reps,
        "n": n,
        "seed": seed,
        "estimators": list(estimators),
        "level": level,
        "d": d,
        "confounding": confounding,
        "tau": tau,
        "noise_sd": noise_sd,
        "outcome_form": outcome_form,
        "propensity_form": propensity_form,
        "crossfit.k": k,
        "crossfit.clip": list(clip),
        "propensity.lambda": p_lambda,
        "outcome.lambda": o_lambda,
    }
    report_dict = _mc_report_dict(report, config)
    emit_report(report_dict, "json", args.out)
    if args.csv:
        emit_report(report_dict, "csv", args.csv)


# ---------------------------------------------------------------------------
# eif-check


def _load_measure_csv(path: str, prob_column: str = "prob") -> DiscreteMeasure:
    blocks = _row_blocks(path)
    header = next(blocks)
    if prob_column not in header:
        raise SchemaError(f"measure file {path} has no '{prob_column}' column")
    if len(header) < 2:
        raise SchemaError("measure file needs at least one coordinate column plus probabilities")
    prob_idx = header.index(prob_column)
    coords = [(i, h) for i, h in enumerate(header) if i != prob_idx]
    # row numbers count the header as row 1
    values, _ = _parse_fields(path, blocks, [*coords, (prob_idx, prob_column)], 2, len(header))
    return DiscreteMeasure(
        names=tuple(h for _, h in coords), support=np.column_stack(values[:-1]), probs=values[-1]
    )


def _add_eif_check_parser(sub) -> None:
    p = sub.add_parser("eif-check", help="numerical vs closed-form influence functions")
    p.add_argument("--measure", required=True, help="CSV: coordinate columns plus a prob column")
    p.add_argument("--functional", required=True, help="ate | mean(c) | cond_mean(c|a=0) | counterfactual_mean(0|1)")
    p.add_argument("--estimated", help="second measure CSV for the second-order remainder check")
    p.add_argument("--scores", type=int, default=20, help="random scores for the central identity")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prob-column", dest="prob_column", default="prob")
    p.add_argument("--out", help="report path (default: stdout)")
    p.set_defaults(handler=_cmd_eif_check)


def _cmd_eif_check(args: argparse.Namespace) -> None:
    if args.scores < 0:
        raise ConfigError(f"scores must be a non-negative integer, got {args.scores}")
    measure = _load_measure_csv(args.measure, args.prob_column)
    f = make_functional(args.functional)
    eps = step_schedule(f, measure)
    phi_num, err = eif_table(f, measure, eps)
    phi_cf = closed_form_eif(f, measure)
    scores = [random_score(measure, stream(args.seed, i)).values for i in range(args.scores)]
    lhs = pathwise_derivative(f, measure, np.reshape(scores, (args.scores, measure.m)))
    gaps = [abs(d - float(measure.probs @ (phi_num * s))) for d, s in zip(lhs, scores)]
    r2_block = None
    if args.estimated:
        if not isinstance(f, (Ate, CounterfactualMean)):
            raise ConfigError(
                "the second-order remainder check supports ate and counterfactual_mean only"
            )
        estimated = _load_measure_csv(args.estimated, args.prob_column)
        res = second_order_remainder(measure, estimated, functional=f.label)
        r2_block = {
            "r2": res.r2,
            "bound": res.bound,
            "rate_product": res.rate_product,
            "satisfied": bool(abs(res.r2) <= res.bound + 1e-12),
        }
    report = {
        "functional": f.label,
        "psi": f.value(measure),
        "support_size": measure.m,
        "phi_numerical": list(phi_num),
        "phi_closed_form": list(phi_cf),
        "phi_error_estimates": list(err),
        "eps_schedule": list(eps),
        "max_error_estimate": float(np.max(err)),
        "max_abs_diff": float(np.max(np.abs(phi_num - phi_cf))),
        "numerical_mean": float(measure.probs @ phi_num),
        "closed_form_mean": float(measure.probs @ phi_cf),
        "central_identity": {
            "n_scores": args.scores,
            "max_gap": float(max(gaps)) if gaps else None,
        },
        "r2_check": r2_block,
        "config": {
            "subcommand": "eif-check",
            "measure": args.measure,
            "functional": args.functional,
            "estimated": args.estimated,
            "scores": args.scores,
            "seed": args.seed,
            "prob_column": args.prob_column,
        },
        "version": __version__,
    }
    emit_report(report, "json", args.out)


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description="causal-effect estimation toolkit")
    parser.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    _add_simulate_parser(sub)
    _add_estimate_parser(sub)
    _add_montecarlo_parser(sub)
    _add_eif_check_parser(sub)
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.error("a subcommand is required (simulate, estimate, montecarlo, eif-check)")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.handler(args)
        return 0
    except UsageError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    except EstimationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except CausalKitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
