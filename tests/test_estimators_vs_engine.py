"""The estimation half against the calculus half.

On data whose empirical measure is finite, an estimator with saturated
nuisances is a functional of that measure, and its per-unit ``eif`` is the
influence function of the functional at each unit's point.  Here it is
compared with the engine's numerical influence function, within the
engine's own error estimate at that point.

Data: x in {0, 1, 2}, a binary treatment whose probability depends on x,
and y rounded to one decimal, so the measure on (x, a, y) has a few hundred
points.  The nuisances are in-sample cell means, hand-built into one fold.
"""

import numpy as np
import pytest

from causalkit import (
    Ate,
    DiscreteMeasure,
    FoldAssignment,
    NuisanceFit,
    ObservationalDataset,
    aipw,
    eif_table,
    naive_dim,
)
from causalkit.rng import stream

N = 4000


@pytest.fixture(scope="module")
def data() -> ObservationalDataset:
    rng = stream(3)
    x = rng.integers(0, 3, N).astype(float)
    a = (rng.random(N) < np.array([0.3, 0.5, 0.7])[x.astype(int)]).astype(float)
    y = np.round(1.0 + 0.5 * x + 2.0 * a + rng.normal(size=N), 1)
    return ObservationalDataset(x=x, a=a, y=y)


def cell_means(values: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Each unit's mean of ``values`` over its cell (every cell is occupied)."""
    return (np.bincount(cells, values) / np.bincount(cells))[cells]


def saturated_fit(data: ObservationalDataset) -> NuisanceFit:
    x = data.x[:, 0].astype(int)
    a = data.a.astype(float)
    pi = cell_means(a, x)
    mu1 = cell_means(data.y * a, x) / pi
    mu0 = cell_means(data.y * (1.0 - a), x) / (1.0 - pi)
    return NuisanceFit(pi, mu0, mu1, FoldAssignment(np.zeros(N, dtype=int), 1), 0.01, 0.99)


def engine_at_units(names: tuple[str, ...], *columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The engine's influence values and error estimates at each unit's point."""
    p = DiscreteMeasure.from_data(names, *columns)
    phi, err = eif_table(Ate(), p)
    index = {tuple(row): j for j, row in enumerate(p.support.tolist())}
    at = np.array([index[row] for row in zip(*(c.tolist() for c in columns))])
    return phi[at], err[at]


def test_aipw_eif_is_the_engine_influence_function(data):
    est = aipw(data, saturated_fit(data))
    phi, err = engine_at_units(("x", "a", "y"), data.x[:, 0], data.a.astype(float), data.y)
    assert np.all(np.abs(est.eif - phi) <= err)


def test_naive_eif_is_the_engine_influence_function(data):
    est = naive_dim(data)
    phi, err = engine_at_units(("a", "y"), data.a.astype(float), data.y)
    assert np.all(np.abs(est.eif - phi) <= err)
