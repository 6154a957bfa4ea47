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
from .data_model import format_number
from .dgp import DGPS, FORMS
from .eif_engine import (
    DiscreteMeasure,
    closed_form_eif,
    eif_table,
    make_functional,
    pathwise_derivative,
    random_score,
    second_order_remainder,
    step_schedule,
)
from .errors import CausalKitError, ConfigError, EstimationError
from .methods import CROSSFIT_KEYS, METHODS
from .montecarlo import MC_METHODS, SCENARIOS, EstimatorSummary, McConfig, run_mc
from .nuisance import FEATURE_MAPS, cross_fit
from .quasi_experimental import KERNELS
from .rng import check_seed, stream

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
    first_line: dict[str, int] = {}
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
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: key '{key}' is already set on line {first_line[key]}")
        first_line[key] = lineno
        entries[key] = value.strip()
    return entries


def _boolean(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


def _pair(text: str) -> tuple[float, float]:
    lo, hi = map(float, text.split(","))
    return lo, hi


def _names(text: str) -> list[str]:
    return [p.strip() for p in text.split(",") if p.strip()]


# each kind whose parse can fail -> what its text must be
_KIND_TEXT = {int: "an integer", float: "a number", _boolean: "a boolean", _pair: "'lo,hi'"}


def _cast(kind, text: str, key: str):
    """The value of config key ``key`` from its config-file or flag text."""
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"config key '{key}' must be {_KIND_TEXT[kind]}, got '{text}'") from None


def _checked(key: str, value):
    """The value of option key ``key``, cast from text and checked against its allowed values."""
    _, _, kind, allowed = _OPTIONS[key]
    if isinstance(value, str):
        value = _cast(kind, value, key)
    if allowed is not None and value not in allowed:
        raise ConfigError(f"'{key}' must be one of {allowed}, got '{value}'")
    return value


def _float_tuple(text: str) -> tuple[float, ...] | None:
    """argparse type of a comma-separated list of numbers; an empty list is None."""
    try:
        return tuple(float(v) for v in text.split(",")) if text else None
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got '{text}'") from None


class _Resolver:
    """Flag > config-file entry > default; a file's unknown keys are rejected, its known ones cast and checked."""

    def __init__(self, args: argparse.Namespace, known_keys: tuple[str, ...]):
        entries = _load_config_file(args.config) if args.config else {}
        unknown = sorted(set(entries) - set(known_keys))
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; expected a subset of {sorted(known_keys)}")
        self.args = args
        self.entries = {key: _checked(key, text) if key in _OPTIONS else text for key, text in entries.items()}

    def get(self, dest: str, key: str):
        flag_value = getattr(self.args, dest)
        return self.entries.get(key) if flag_value is None else flag_value

    def options(self, keys, context: str) -> dict:
        """The value of each option key in ``keys``, defaulted, cast and checked; ``context``
        names what a required key is required for.  Every subcommand with
        options reads a seed, which is checked even where no stream is drawn."""
        values = {}
        for key in keys:
            dest, default = _OPTIONS[key][:2]
            value = self.get(dest, key)
            if value is None:
                value = default
            if value is _REQUIRED:
                raise UsageError(f"--{dest} is required for {context}")
            values[key] = _checked(key, value)
        check_seed(values["seed"])
        return values


_REQUIRED = object()

# config key -> (flag dest, default, kind, allowed values), for estimate and
# montecarlo.  A key's flag is --dest with '_' written '-', and cross_fit and
# McConfig take its value by the keyword dest.  An int or float kind gives the
# flag its type, and _boolean makes it a switch.  A string value, from a flag
# or the config file, goes through _cast.
_OPTIONS = {
    "treatment": ("treatment", "a", str, None),
    "outcome": ("outcome", "y", str, None),
    "covariates": ("covariates", (), _names, None),
    "instrument": ("instrument", "z", str, None),
    "unit": ("unit", "unit", str, None),
    "period": ("period", "period", str, None),
    "group": ("group", "group", str, None),
    "running": ("running", "x", str, None),
    "seed": ("seed", 0, int, None),
    "level": ("level", 0.95, float, None),
    "normalization": ("normalization", "hajek", str, ("horvitz_thompson", "hajek")),
    "caliper": ("caliper", None, float, None),
    "with_replacement": ("with_replacement", False, _boolean, None),
    "cutoff": ("cutoff", _REQUIRED, float, None),
    "bandwidth": ("bandwidth", 1.0, float, None),
    "kernel": ("kernel", "rectangular", str, KERNELS),
    "placebo": ("placebo", False, _boolean, None),
    "crossfit.k": ("k", 5, int, None),
    "crossfit.clip": ("clip", (0.01, 0.99), _pair, None),
    "propensity.lambda": ("propensity_lambda", 1e-6, float, None),
    "outcome.lambda": ("outcome_lambda", 1e-8, float, None),
    "propensity.features": ("propensity_features", "linear", str, FEATURE_MAPS),
    "outcome.features": ("outcome_features", "linear", str, FEATURE_MAPS),
    # montecarlo only
    "scenario": ("scenario", "both_correct", str, SCENARIOS),
    "reps": ("reps", 100, int, None),
    "n": ("n", 1000, int, None),
    "estimators": ("estimators", ("naive", "ipw", "gformula", "aipw"), _names, None),
    "d": ("d", 1, int, None),
    "confounding": ("confounding", 0.0, float, None),
    "tau": ("tau", 0.0, float, None),
    "noise_sd": ("noise_sd", 1.0, float, None),
    "outcome_form": ("outcome_form", "linear", str, FORMS),
    "propensity_form": ("propensity_form", "linear", str, FORMS),
}

# flag dest -> help text
_HELP = {
    "covariates": "comma-separated covariate column names",
    "running": "running-variable column for rd",
    "k": "cross-fitting folds",
    "clip": "propensity clip bounds 'lo,hi'",
    "estimators": f"comma-separated subset of {tuple(n for n, m in MC_METHODS.items() if m.kind == 'obs')}",
    "tau_x": "comma-separated heterogeneous-effect coefficients",
    "effect": "panel treatment effect",
}


def _add_flag(p: argparse.ArgumentParser, dest: str, kind) -> None:
    """Add the flag --dest, '_' written '-', whose value is None when it is not
    given; ``kind`` is _boolean for a switch, a tuple of the allowed values, or
    an argparse type (None for text)."""
    flag = "--" + dest.replace("_", "-")
    if kind is _boolean:
        p.add_argument(flag, action="store_true", default=None, help=_HELP.get(dest))
    elif isinstance(kind, tuple):
        p.add_argument(flag, choices=kind, help=_HELP.get(dest))
    else:
        p.add_argument(flag, type=kind, help=_HELP.get(dest))


def _check_unread(args: argparse.Namespace, unread, what: str) -> None:
    """A usage error naming the first flag in ``unread`` that is given: ``what`` does not read it."""
    given = [dest for dest in unread if getattr(args, dest) is not None]
    if given:
        raise UsageError(f"--{given[0].replace('_', '-')} is not read by {what}")


def _add_option_flags(p: argparse.ArgumentParser, keys) -> None:
    """Add the flag of each option key; an unset flag leaves the value to the
    config file or the default."""
    for key in keys:
        dest, _, kind, allowed = _OPTIONS[key]
        _add_flag(p, dest, allowed or (kind if kind in (int, float, _boolean) else None))


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
        # tolist gives Python scalars; only objects and non-finite floats need the walk
        items = value.tolist()
        if value.dtype.kind == "O" or (value.dtype.kind == "f" and not np.isfinite(value).all()):
            return _jsonable(items)
        return items
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def emit_report(result: dict, format: str = "json", path: str | None = None) -> None:
    """Serialize a report dict with stable key order.

    json: indent-2 object, shortest round-trip numbers, trailing newline.
    csv: requires a montecarlo-shaped dict (a "rows" list); fixed column
    order, numbers as ``format_number`` writes them, empty cells for absent
    values.
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
                else:
                    cells.append(format_number(v))
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


# simulate flag dest -> kind (see _add_flag), for the flags that do not take
# a float.  A flag the chosen DGP does not read is a usage error.  An unset
# flag keeps the default of the config field it sets; n and n_units, whose
# fields have none, get the defaults below.
_SIMULATE_TYPES = {
    "n": int,
    "d": int,
    "tau_x": _float_tuple,
    "outcome_form": FORMS,
    "propensity_form": FORMS,
    "allow_defiers": _boolean,
    "n_units": int,
    "n_periods": int,
    "first_treated_period": int,
}
_SIMULATE_DEFAULTS = {"n": 100, "n_units": 20}

# every DGP's flags, in table order
_DGP_FLAGS = tuple(dict.fromkeys(flag for dgp in DGPS.values() for flag in dgp.flags))


def _add_simulate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dgp", choices=tuple(DGPS), required=True)
    p.add_argument("--out", help="dataset CSV path (required)")
    p.add_argument("--truth-out", dest="truth_out", help="ground-truth sidecar CSV path")
    p.add_argument("--seed", type=int, default=0)
    for dest in _DGP_FLAGS:
        _add_flag(p, dest, _SIMULATE_TYPES.get(dest, float))


def _cmd_simulate(args: argparse.Namespace) -> None:
    if not args.out:
        raise UsageError("--out is required for simulate")
    dgp = DGPS[args.dgp]
    _check_unread(args, [flag for flag in _DGP_FLAGS if flag not in dgp.flags], f"--dgp {args.dgp}")
    config = dgp.make({k: _SIMULATE_DEFAULTS.get(k) if v is None else v for k, v in vars(args).items()})
    summary = {
        "subcommand": "simulate",
        "dgp": args.dgp,
        "config": dgp.echo(config),
        "out": args.out,
        "truth_out": args.truth_out,
        "rows": 0,
        "seed": args.seed,
        "version": __version__,
    }
    summary.update(dgp.write(dgp.generate(config, args.seed), args.out, args.truth_out))
    emit_report(summary, "json", None)


# ---------------------------------------------------------------------------
# estimate


# every key some method reads, in table order
_ESTIMATE_KEYS = tuple(key for key in _OPTIONS if any(key in method.keys for method in METHODS.values()))

_ESTIMATE_CONFIG_KEYS = ("method", "input", "output", *_ESTIMATE_KEYS)


def _add_estimate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=tuple(METHODS))
    p.add_argument("--input")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--out", help="report path (default: stdout)")
    _add_option_flags(p, _ESTIMATE_KEYS)


def _cmd_estimate(args: argparse.Namespace) -> None:
    r = _Resolver(args, _ESTIMATE_CONFIG_KEYS)
    name = r.get("method", "method")
    if name is None:
        raise UsageError("--method is required")
    if name not in METHODS:
        raise ConfigError(f"unknown method '{name}'")
    method = METHODS[name]
    unread = [_OPTIONS[key][0] for key in _ESTIMATE_KEYS if key not in method.keys]
    _check_unread(args, unread, f"--method {name}")
    input_path = r.get("input", "input")
    if input_path is None:
        raise UsageError("--input is required")
    out_path = r.get("out", "output")
    values = r.options(method.keys, f"--method {name}")

    data = DGPS[method.kind].load(input_path, values)
    fit = None
    if method.nuisance:
        fit = cross_fit(data, **{_OPTIONS[key][0]: values[key] for key in (*CROSSFIT_KEYS, "seed")})
    estimate = method.run(data, fit, values["level"], **{k: values[k] for k in method.options})
    if fit is not None:
        estimate.diagnostics.update(
            clip_count=fit.clip_count,
            irls_converged=all(fit.irls_converged),
            irls_iterations=list(fit.irls_iterations),
        )
    config = {"subcommand": "estimate", "method": name, "input": input_path, **values}
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


# montecarlo's option keys, in the order its report echoes them
_MONTECARLO_KEYS = (
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


def _add_montecarlo_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    _add_option_flags(p, _MONTECARLO_KEYS)
    p.add_argument("--out", help="JSON report path (default: stdout)")
    p.add_argument("--csv", help="also write the row table as CSV to this path")


def _cmd_montecarlo(args: argparse.Namespace) -> None:
    values = _Resolver(args, _MONTECARLO_KEYS).options(_MONTECARLO_KEYS, "montecarlo")
    by_dest = {_OPTIONS[key][0]: value for key, value in values.items()}
    mc = McConfig(
        dgp=DGPS["obs"].make(values),
        replications=values["reps"],
        **{f.name: by_dest[f.name] for f in fields(McConfig) if f.name not in ("dgp", "replications")},
    )
    config = {"subcommand": "montecarlo", **values}
    report = {**asdict(run_mc(mc)), "config": config, "version": __version__}
    emit_report(report, "json", args.out)
    if args.csv:
        emit_report(report, "csv", args.csv)


# ---------------------------------------------------------------------------
# eif-check


def _add_eif_check_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--measure", required=True, help="CSV: coordinate columns plus a prob column")
    p.add_argument("--functional", required=True, help="ate | mean(c) | cond_mean(c|a=0) | counterfactual_mean(0|1)")
    p.add_argument("--estimated", help="second measure CSV for the second-order remainder check")
    p.add_argument("--scores", type=int, default=20, help="random scores for the central identity")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prob-column", dest="prob_column", default="prob")
    p.add_argument("--out", help="report path (default: stdout)")


def _cmd_eif_check(args: argparse.Namespace) -> None:
    if args.scores < 0:
        raise ConfigError(f"scores must be a non-negative integer, got {args.scores}")
    check_seed(args.seed)
    measure = DiscreteMeasure.from_csv(args.measure, args.prob_column)
    f = make_functional(args.functional)
    phi_num, err = eif_table(f, measure)
    phi_cf = closed_form_eif(f, measure)
    scores = [random_score(measure, stream(args.seed, i)) for i in range(args.scores)]
    lhs = pathwise_derivative(f, measure, np.reshape(scores, (args.scores, measure.m)))
    gaps = [abs(d - float(measure.probs @ (phi_num * s))) for d, s in zip(lhs, scores)]
    r2_block = None
    if args.estimated:
        estimated = DiscreteMeasure.from_csv(args.estimated, args.prob_column)
        res = second_order_remainder(measure, estimated, functional=f)
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
        "phi_numerical": phi_num,
        "phi_closed_form": phi_cf,
        "phi_error_estimates": err,
        "eps_schedule": list(step_schedule(f, measure)),
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


# subcommand -> (help, flag builder, handler)
_SUBCOMMANDS = {
    "simulate": ("draw a synthetic dataset with ground truth", _add_simulate_flags, _cmd_simulate),
    "estimate": ("run an estimator on a CSV dataset", _add_estimate_flags, _cmd_estimate),
    "montecarlo": ("replicated-simulation study", _add_montecarlo_flags, _cmd_montecarlo),
    "eif-check": ("numerical vs closed-form influence functions", _add_eif_check_flags, _cmd_eif_check),
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse argv, building only the flags of the first word naming a subcommand: the
    top level takes no values, so a word before it is an invalid choice.  When argv
    starts with that word only its subparser is registered, as the top level then
    never lists the subcommands; otherwise all are, for its help and its errors."""
    argv = sys.argv[1:] if argv is None else argv
    chosen = next((a for a in argv if not a.startswith("-") and a in _SUBCOMMANDS), None)
    parser = _Parser(prog=PROG, description="causal-effect estimation toolkit")
    parser.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    names = [chosen] if argv[:1] == [chosen] else _SUBCOMMANDS
    for name in names:
        text, add_flags, _ = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=text)
        if name == chosen:
            add_flags(p)
    args = parser.parse_args(argv)
    if args.subcommand is None:
        parser.error("a subcommand is required (simulate, estimate, montecarlo, eif-check)")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _SUBCOMMANDS[args.subcommand][2](args)
        return 0
    except UsageError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    except (CausalKitError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, EstimationError) else 2


if __name__ == "__main__":
    sys.exit(main())
