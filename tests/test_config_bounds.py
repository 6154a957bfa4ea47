"""Every config dataclass states its fields' bounds, so that NaN and +-inf, or a fraction in an
integer field, fail where they are set.

The walk finds the package's dataclasses itself.  One with a float field is
either a config, built here from valid keywords and walked, or a result type
listed with the reason it is not walked.  A new config class, or a float field
that its class does not check, then fails here.
"""

import dataclasses
import importlib
import math
import pkgutil

import numpy as np
import pytest

import causalkit
from causalkit.ate_estimators import MatchSpec
from causalkit.data_model import Estimate, GroundTruth
from causalkit.dgp import Dgp, IvDgpConfig, ObsDgpConfig, PanelDgpConfig, RdDgpConfig
from causalkit.eif_engine import CentralIdentityReport, CondMean, DerivativeResult, R2Result
from causalkit.errors import ConfigError
from causalkit.montecarlo import ErrorDecomposition, EstimatorSummary, McConfig, McReport, WeakIvRow
from causalkit.nuisance import NuisanceFit, OutcomeModel, PropensityModel
from causalkit.quasi_experimental import RdSpec

# each config class -> the keywords of a valid instance that holds a float in every float field
CONFIGS = {
    ObsDgpConfig: dict(n=10, d=2, tau_x=(0.5, -0.5)),
    IvDgpConfig: dict(n=10, p_always=0.25, p_complier=0.5, p_never=0.25),
    PanelDgpConfig: dict(n_units=10),
    RdDgpConfig: dict(n=10),
    MatchSpec: dict(caliper=0.1),
    RdSpec: {},
    McConfig: dict(dgp=ObsDgpConfig(n=10)),
}

# the dataclasses with a float field that are not walked, and why
NOT_CONFIGS = {
    Estimate: "an estimator's result; it checks its own psi_hat and se",
    EstimatorSummary: "a Monte Carlo result, aggregated from estimates",
    McReport: "a Monte Carlo result; true_ate comes from a checked DGP config",
    WeakIvRow: "a Monte Carlo result; an infinite median interval width is a finding",
    ErrorDecomposition: "a Monte Carlo result, computed from a draw",
    DerivativeResult: "an influence-function engine result",
    CentralIdentityReport: "an influence-function engine result",
    R2Result: "an influence-function engine result",
    GroundTruth: "a draw's truth, made by a generator from a checked config",
    NuisanceFit: "cross-fit output; cross_fit checks its clip bounds first",
    PropensityModel: "a fitted model; _irls checked its ridge_lambda",
    OutcomeModel: "a fitted model; _ridge checked its ridge_lambda",
    Dgp: "holds no float: float is the return type of its estimand functions",
    CondMean: "a functional; a non-finite condition matches no support point, an EvaluabilityError",
}

MODULES = [importlib.import_module(f"causalkit.{m.name}") for m in pkgutil.iter_modules(causalkit.__path__)]


def _float_fields(cls) -> set[str]:
    """The fields whose annotation names float, alone or inside a tuple or mapping."""
    return {f.name for f in dataclasses.fields(cls) if "float" in str(f.type)}


def _int_fields(cls) -> set[str]:
    """The fields annotated int, alone or as int | None."""
    return {f.name for f in dataclasses.fields(cls) if str(f.type).replace(" | None", "") == "int"}


def _float_slots(config):
    """(field, key) of each float in ``config``: key None for the field's value, else a tuple
    index or mapping key."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float):
            yield f.name, None
        elif isinstance(value, (tuple, dict)):
            items = value.items() if isinstance(value, dict) else enumerate(value)
            yield from ((f.name, key) for key, v in items if isinstance(v, float))


def _replaced(config, name, key, bad):
    """``config`` rebuilt with ``bad`` in the slot (name, key)."""
    value = getattr(config, name)
    if key is None:
        value = bad
    elif isinstance(value, dict):
        value = {**value, key: bad}
    else:
        value = value[:key] + (bad,) + value[key + 1:]
    return dataclasses.replace(config, **{name: value})


def test_every_dataclass_with_a_float_field_is_walked_or_listed():
    found = {
        obj for module in MODULES for obj in vars(module).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__
        and _float_fields(obj)
    }
    assert sorted(c.__name__ for c in found) == sorted(c.__name__ for c in {*CONFIGS, *NOT_CONFIGS})


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda c: c.__name__)
def test_the_valid_instance_holds_a_float_in_every_float_field(cls):
    assert {name for name, _ in _float_slots(cls(**CONFIGS[cls]))} == _float_fields(cls)


def test_nan_and_inf_fail_in_every_float_of_every_config_naming_the_field():
    """Every outcome other than a ConfigError naming the field is collected; only +inf in the
    two unbounded fields may construct."""
    outcomes = {}
    for cls, kwargs in CONFIGS.items():
        config = cls(**kwargs)
        for name, key in _float_slots(config):
            for bad in (math.nan, math.inf, -math.inf):
                case = f"{cls.__name__}.{name}" + ("" if key is None else f"[{key!r}]") + f" = {bad}"
                try:
                    _replaced(config, name, key, bad)
                except ConfigError as exc:
                    if name not in str(exc):
                        outcomes[case] = str(exc)
                else:
                    outcomes[case] = "accepted"
    # an unbounded caliper or bandwidth
    assert outcomes == {"MatchSpec.caliper = inf": "accepted", "RdSpec.bandwidth = inf": "accepted"}


def test_an_int_field_takes_only_an_integer_naming_the_field():
    """2.5 or True in an int field fails as a ConfigError naming the field; a NumPy integer constructs."""
    outcomes, want = {}, {}
    for cls, kwargs in CONFIGS.items():
        config = cls(**kwargs)
        # the rule reads annotations: every field that holds an int must be found by them
        ints = {f.name for f in dataclasses.fields(cls) if type(getattr(config, f.name)) is int}
        assert ints == _int_fields(cls), cls.__name__
        for name in sorted(ints):
            dataclasses.replace(config, **{name: np.int64(getattr(config, name))})
            for bad in (2.5, True):
                case = f"{cls.__name__}.{name} = {bad!r}"
                want[case] = f"{name} must be an integer, got {bad!r}"
                try:
                    dataclasses.replace(config, **{name: bad})
                except ConfigError as exc:
                    outcomes[case] = str(exc)
                else:
                    outcomes[case] = "accepted"
    assert len(want) == 2 * 10  # ten int fields in the seven configs
    assert outcomes == want


@pytest.mark.parametrize("build, message", [
    (lambda: ObsDgpConfig(n=0), "n must be >= 1"),
    (lambda: ObsDgpConfig(n=10, d=-1), "d must be >= 0"),
    (lambda: ObsDgpConfig(n=10, outcome_form="cubic"),
     "unknown outcome_form 'cubic', expected one of ('linear', 'linear_plus_quadratic')"),
    (lambda: IvDgpConfig(n=10, instrument_prob=1.0), "instrument_prob must lie in (0, 1)"),
    (lambda: IvDgpConfig(n=10, effect_by_type={"complier": math.inf}), "effect_by_type must be finite, got inf"),
    (lambda: PanelDgpConfig(n_units=1), "n_units must be >= 2"),
    (lambda: PanelDgpConfig(n_units=10, unit_effect_sd=-1.0), "unit_effect_sd must be >= 0"),
    (lambda: PanelDgpConfig(n_units=10, treated_fraction=math.nan), "treated_fraction must be finite, got nan"),
    (lambda: RdDgpConfig(n=10, half_width=0.0), "half_width must be > 0"),
    (lambda: MatchSpec(caliper=-math.inf), "caliper must be >= 0"),
    (lambda: McConfig(dgp=ObsDgpConfig(n=10), clip=(0.01, math.nan)), "clip must be finite, got nan"),
    (lambda: McConfig(dgp=ObsDgpConfig(n=10), level=math.inf), "level must be finite, got inf"),
    (lambda: McConfig(dgp=ObsDgpConfig(n=10), estimators=("naive",), replications=2, seed=-1),
     "seed must be >= 0"),
    (lambda: ObsDgpConfig(n=2.5), "n must be an integer, got 2.5"),
    (lambda: IvDgpConfig(n=10.0, p_complier=1.0), "n must be an integer, got 10.0"),
    (lambda: PanelDgpConfig(n_units=4, n_periods=2.5), "n_periods must be an integer, got 2.5"),
    (lambda: McConfig(dgp=ObsDgpConfig(n=10), replications=3.0), "replications must be an integer, got 3.0"),
])
def test_rule_texts(build, message):
    with pytest.raises(ConfigError) as exc:
        build()
    assert str(exc.value) == message
