"""Every estimator returns through build_estimate, the one constructor.

build_estimate sets the interval through normal_ci, so a confidence level
is checked even on a path where the estimator has no standard error.  A
source scan keeps the constructor the only code in the package that calls
``Estimate(``.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from causalkit import ObservationalDataset, PanelDataset, RdSpec, did, g_formula, rd_local_linear
from causalkit.errors import ConfigError

SRC = Path(__file__).resolve().parents[1] / "src" / "causalkit"


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


@pytest.mark.parametrize(
    "run, level",
    [(_gformula_one_unit, 2.0), (_did_one_treated_unit, 7.0), (_rd_two_points_per_side, -1.0)],
    ids=["gformula_n1", "did_one_treated_unit", "rd_two_points_per_side"],
)
def test_bad_level_is_rejected_without_an_se(run, level):
    assert run(0.95).se is None  # the path computes no se at a valid level
    with pytest.raises(ConfigError, match="confidence level must lie in"):
        run(level)


def _estimate_calls(tree: ast.AST, where: str = "<module>"):
    """(enclosing function, line) of each call of Estimate in the tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _estimate_calls(node, node.name)
            continue
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "Estimate":
                yield where, node.lineno
        yield from _estimate_calls(node, where)


def test_only_build_estimate_calls_estimate():
    calls = [
        (path.name, function)
        for path in sorted(SRC.glob("*.py"))
        for function, _ in _estimate_calls(ast.parse(path.read_text(), str(path)))
    ]
    assert calls == [("ate_estimators.py", "build_estimate")]
