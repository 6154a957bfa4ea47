"""Exception hierarchy.

Two broad families matter to callers and to the CLI exit-code contract:

* :class:`InputError` — the input data, schema, or configuration is invalid.
  The run never started in earnest.  CLI exit code 2.
* :class:`EstimationError` — inputs were well-formed but a numerical or
  statistical procedure could not produce a result (separation, rank
  deficiency, empty cells, ...).  CLI exit code 3.

Usage errors (unknown flags etc.) are handled by the CLI layer itself and
exit with code 1.
"""

import dataclasses
import math
import numbers
import operator
from typing import Mapping


class CausalKitError(Exception):
    """Base class for every error raised by this package."""


class InputError(CausalKitError):
    """Invalid input data, schema, or configuration."""


class SchemaError(InputError):
    """A required column is missing or the schema is malformed."""


class ParseError(InputError):
    """A cell could not be parsed as a number; message names the row."""


class ValidationError(InputError):
    """A constructed value would violate a type invariant."""


class ConfigError(InputError):
    """A configuration value is out of its allowed range."""


class EstimationError(CausalKitError):
    """A numerical procedure failed on well-formed input."""


class SeparationError(EstimationError):
    """Logistic MLE does not exist (degenerate treatment column, no ridge)."""


class RankDeficiencyError(EstimationError):
    """Unpenalized linear system is singular; a ridge penalty would fix it."""


class PositivityError(EstimationError):
    """A propensity or arm mass is outside (0, 1) where it must not be."""


class EmptyMatchError(EstimationError):
    """Matching produced zero pairs."""


class FoldError(EstimationError):
    """A cross-fitting training complement is degenerate; names the fold."""


class CellError(EstimationError):
    """A group x period cell required by the estimator is empty."""


class BandwidthError(EstimationError):
    """Too few in-bandwidth points on one side of the cutoff."""


class InstrumentError(EstimationError):
    """The instrument is irrelevant (zero first stage)."""


class IdentificationError(EstimationError):
    """No within-unit treatment variation anywhere in the panel."""


class EvaluabilityError(EstimationError):
    """A functional is undefined at a (perturbed) measure."""


class SupportError(EstimationError):
    """A measure assigns mass outside the dominating measure's support."""


class EpsError(EstimationError):
    """A perturbation step would produce negative mass, or cannot reach the
    stated accuracy of a numerical derivative."""


class InsufficientDataError(EstimationError):
    """Too few observations for the requested computation."""


_OPS = {">": operator.gt, ">=": operator.ge}


def check_value(name: str, value, rule: str | tuple | None = None, inf: bool = False) -> None:
    """Raise a ConfigError naming ``name`` unless each float in ``value`` (itself, or each entry
    of a tuple, list or mapping) is finite, where ``inf`` leaves +-inf and NaN to ``rule``, and
    each entry keeps ``rule``: a tuple of the allowed values, or ``"> x"``, ``">= x"`` or
    ``"in (lo, hi)"`` (open), which NaN breaks."""
    values = value.values() if isinstance(value, Mapping) else value if isinstance(value, (tuple, list)) else (value,)
    for v in values:
        if isinstance(v, float) and not inf and not math.isfinite(v):
            raise ConfigError(f"{name} must be finite, got {v!r}")
        if isinstance(rule, tuple) and v not in rule:
            raise ConfigError(f"unknown {name} '{v}', expected one of {rule}")
        if isinstance(rule, str) and v is not None:
            op, _, bound = rule.partition(" ")
            lo, _, hi = bound.strip("()").partition(",")
            if not (float(lo) < v < float(hi) if op == "in" else _OPS[op](v, float(lo))):
                raise ConfigError(f"{name} must {'lie' if op == 'in' else 'be'} {rule}")


def check_integer(name: str, value) -> None:
    """Raise a ConfigError naming ``name`` unless ``value`` is a Python or NumPy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def check_fields(config, inf: tuple[str, ...] = (), **rules: str | tuple) -> None:
    """:func:`check_value` on each field of the dataclass ``config`` in field order, with
    ``rules`` mapping a field to its rule; a field named in ``inf`` may be +inf.  A field
    annotated ``int`` or ``int | None`` must first pass :func:`check_integer`."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.type in ("int", "int | None") and value is not None:
            check_integer(f.name, value)
        check_value(f.name, value, rules.get(f.name), f.name in inf)
