"""Numerical influence-function calculus over finite discrete measures.

A statistical functional psi maps a probability measure to a real number.
Perturbing the measure along a path and differentiating at the base point
yields, point by point, the functional's influence function — numerically,
with no calculus by hand.  This module implements that machinery for finite
discrete measures:

* perturbation paths: mixture toward a point mass, and score paths
  (1 + eps*s(z)) p(z);
* Gateaux derivatives by central differences with Richardson extrapolation;
* the central identity  d/deps psi = E[phi * s]  relating the two;
* closed-form influence functions for the implemented functionals, so the
  numerical derivative can be checked against the analytic formula;
* the one-step (plug-in plus mean influence) corrected estimator;
* the exact second-order remainder of the one-step ATE estimator and its
  Cauchy-Schwarz bound.

Every implemented functional is a ratio of linear forms in the masses,
summed per covariate cell into a (G, k) table p @ L.  A mixture step toward
row j has forms (1-eps)(p @ L) + eps L[j], and L[j] is nonzero in j's cell
only, so all six steps toward all m points cost O(m).

The steps are the engine's own.  Mixture paths always shrink EPS_SCHEDULE
to eps0 = min(1e-3, mass / EPS_MASS_RATIO) for the smallest nonzero
denominator mass, so no mixture step can move a denominator mass through
zero; score paths step by EPS_SCHEDULE, and only a score can move one
through zero, which raises EpsError.  A derivative whose error estimate
exceeds RICHARDSON_RTOL * max(1, |derivative|) raises EpsError
(``causalkit eif-check`` exits 3) rather than return a wrong value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .data_model import _opened, _parse_fields
from .errors import (
    CausalKitError,
    ConfigError,
    EpsError,
    EvaluabilityError,
    PositivityError,
    SchemaError,
    SupportError,
    ValidationError,
)

__all__ = [
    "EPS_SCHEDULE",
    "EPS_MASS_RATIO",
    "RICHARDSON_RTOL",
    "DiscreteMeasure",
    "Functional",
    "Mean",
    "CondMean",
    "CounterfactualMean",
    "Ate",
    "make_functional",
    "mix",
    "score_of_path",
    "random_score",
    "factorize_score",
    "DerivativeResult",
    "step_schedule",
    "gateaux_if",
    "eif_table",
    "closed_form_eif",
    "pathwise_derivative",
    "CentralIdentityReport",
    "central_identity_check",
    "one_step",
    "R2Result",
    "second_order_remainder",
]

# Central-difference epsilons, each half the previous; two Richardson stages
# collapse them to one high-order estimate whose error is the disagreement
# between stages.  Rational-in-eps functionals converge fast on this schedule.
EPS_SCHEDULE = (1e-3, 5e-4, 2.5e-4)
# The default mixture step is at most this fraction of the smallest
# denominator mass, so each step moves every denominator by 2% or less.
EPS_MASS_RATIO = 50.0
# A derivative whose Richardson error estimate exceeds this multiple of
# max(1, |derivative|) raises EpsError.
RICHARDSON_RTOL = 1e-6


@dataclass(frozen=True)
class DiscreteMeasure:
    """A probability measure on finitely many named-coordinate points.

    ``support`` holds one row per point, columns ordered as ``names``.
    Points are compared by exact coordinate equality.
    """

    names: tuple[str, ...]
    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        names = tuple(str(n) for n in self.names)
        if not names or len(set(names)) != len(names):
            raise ValidationError("coordinate names must be non-empty and distinct")
        support = np.asarray(self.support, dtype=float)
        if support.ndim != 2 or support.shape[1] != len(names):
            raise ValidationError(
                f"support must have shape (m, {len(names)}), got {support.shape}"
            )
        if support.shape[0] == 0:
            raise ValidationError("support must contain at least one point")
        if not np.all(np.isfinite(support)):
            raise ValidationError("support contains non-finite coordinates")
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (support.shape[0],):
            raise ValidationError("probs must have one entry per support point")
        if np.any(probs < 0):
            raise ValidationError("probs must be non-negative")
        total = float(probs.sum())
        if not abs(total - 1.0) <= 1e-12:  # NaN and inf fail too
            raise ValidationError(f"probs must sum to 1 within 1e-12, got {total!r}")
        if len(_cells(support)[0]) != support.shape[0]:
            raise ValidationError("support points must be distinct")
        support.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    @property
    def m(self) -> int:
        return int(self.support.shape[0])

    def column(self, name: str) -> np.ndarray:
        return self.support[:, _coord_index(self.names, name)]

    def point(self, j: int) -> dict[str, float]:
        return {n: float(v) for n, v in zip(self.names, self.support[j])}

    @classmethod
    def from_data(cls, names: Sequence[str], *columns: np.ndarray) -> "DiscreteMeasure":
        """Empirical measure: distinct rows weighted by relative frequency."""
        if len(columns) != len(names):
            raise ValidationError("one column per coordinate name required")
        data = np.column_stack([np.asarray(c, dtype=float) for c in columns])
        if data.shape[0] == 0:
            raise ValidationError("empirical measure needs at least one observation")
        points, inverse = _cells(data)
        return cls(names=tuple(names), support=points, probs=np.bincount(inverse) / data.shape[0])

    @classmethod
    def from_csv(cls, path: str, prob_column: str = "prob") -> "DiscreteMeasure":
        """Read a CSV of coordinate columns plus a probability column."""
        with _opened(path) as (f, header):
            if prob_column not in header:
                raise SchemaError(f"measure file {path} has no '{prob_column}' column")
            if len(header) < 2:
                raise SchemaError("measure file needs at least one coordinate column plus probabilities")
            prob_idx = header.index(prob_column)
            coords = [(i, h) for i, h in enumerate(header) if i != prob_idx]
            # row numbers count the header as row 1
            values = _parse_fields(f, path, [*coords, (prob_idx, prob_column)], 2, len(header))
        return cls(
            names=tuple(h for _, h in coords), support=np.column_stack(values[:-1]), probs=values[-1]
        )


def _point_as_row(measure_names: tuple[str, ...], z: Mapping[str, float] | Sequence[float]) -> np.ndarray:
    if isinstance(z, Mapping):
        missing = [n for n in measure_names if n not in z]
        if missing:
            raise ValidationError(f"point is missing coordinates {missing}")
        extra = [n for n in z if n not in measure_names]
        if extra:
            raise ValidationError(f"point has unknown coordinates {extra}")
        z = [z[n] for n in measure_names]
    row = np.asarray(list(z), dtype=float)
    if row.shape != (len(measure_names),):
        raise ValidationError(f"point must have {len(measure_names)} coordinates")
    if not np.all(np.isfinite(row)):
        raise ValidationError("point contains non-finite coordinates")
    return row


def _first(mask: np.ndarray) -> int | None:
    """Index of the first true entry (row-major), or None."""
    flat = np.flatnonzero(mask)
    return int(flat[0]) if flat.size else None


def _cells(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows in sorted order, and the cell index of every row.

    One stable lexsort orders the rows, first column first; a cell starts
    wherever a row differs from the row before it.  Rows compare with ``==``,
    so ``-0.0`` and ``0.0`` share a cell, and its label is whichever of its
    rows comes first in ``rows``.
    """
    if rows.shape[1] == 0:
        return np.empty((1, 0)), np.zeros(rows.shape[0], dtype=np.intp)
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    starts = np.ones(len(order), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[starts], inverse


# ---------------------------------------------------------------------------
# functionals


class LinearForms(NamedTuple):
    """A functional at one support: masses w have the (G, k) table
    ``table(w)``, cell c summing w[i] * unit[i] over its rows.

    Columns: the mass, then per arm of ``arms`` the arm mass and the
    y-weighted arm mass; an arm mean is the sum over cells of mass * y-mass
    / arm-mass, over the total mass.  A mean is one cell whose arm is the
    event it averages over, and ``message`` says that event has no mass.
    """

    cell: np.ndarray
    unit: np.ndarray
    labels: np.ndarray
    arms: tuple[int, ...]
    message: str = ""

    def table(self, w: np.ndarray) -> np.ndarray:
        """Cell sums (..., G, k) of masses w (..., m), in one bincount."""
        (g, k), lead = (len(self.labels), self.unit.shape[1]), w.shape[:-1]
        b = int(np.prod(lead))
        index = ((np.arange(b)[:, None] * g + self.cell)[..., None] * k + np.arange(k)).ravel()
        sums = np.bincount(index, (w.reshape(b, -1, 1) * self.unit).ravel(), b * g * k)
        return sums.reshape(*lead, g, k)

    def size(self) -> np.ndarray:
        """A bound on what each row adds to the terms, which sets their rounding."""
        return np.abs(self.unit[:, 2::2]).max(axis=1) * (self.unit.shape[1] // 2)

    def terms(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each cell's term per arm, and where it is undefined."""
        px, pax, ny = values[..., :1], values[..., 1::2], values[..., 2::2]
        mu = np.divide(ny, pax, out=np.zeros_like(ny), where=pax != 0.0)
        return px * mu, (pax == 0.0) & (px != 0.0)

    def raise_undefined(self, bad: np.ndarray) -> None:
        """Raise for an evaluation whose (G, arms) terms are undefined at
        ``bad``, naming the first cell of the first arm."""
        k, c = divmod(_first(bad.T), len(self.labels))
        raise EvaluabilityError(
            self.message or f"cell with covariates {self.labels[c]} has zero mass on arm {self.arms[k]}"
        )


def _combine(sums: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Values from per-arm term sums (..., arms): arm 1 minus arm 0 when both are given."""
    means = sums / total[..., None]
    return means[..., 0] - means[..., 1] if means.shape[-1] == 2 else means[..., 0]


def _evaluate(forms: LinearForms, tables: np.ndarray) -> np.ndarray:
    """Values of a (B, G, k) block of tables; raises at the first undefined one.
    No total is zero: a measure's total is 1, and a score step's is
    1 + eps * E_p[s], within 1e-13 of 1."""
    terms, bad = forms.terms(tables)
    r = _first(bad.any(axis=(1, 2)))
    if r is not None:
        forms.raise_undefined(bad[r])
    return _combine(terms.sum(axis=1), tables[..., 0].sum(axis=1))


class Functional:
    """Base class: a real-valued map of discrete measures.

    Subclasses implement ``forms`` on raw (names, support) pairs.  Masses
    enter only through the linear forms, which take signed masses, so
    central-difference evaluations need no probability validation; the
    public ``value`` goes through a validated measure.  A functional is
    hashable: a measure keeps its forms under it (see ``_forms_at``).
    """

    label: str = ""

    def value(self, measure: DiscreteMeasure) -> float:
        forms, table = _forms_at(self, measure)
        return float(_evaluate(forms, table[None])[0])

    def forms(self, names: tuple[str, ...], support: np.ndarray) -> LinearForms:
        raise NotImplementedError


def _forms_at(f: Functional, p: DiscreteMeasure) -> tuple[LinearForms, np.ndarray]:
    """f's forms on p's support and the (G, k) table of p's masses, built on
    first use and kept on p, whose support and masses are read-only."""
    memo = p.__dict__.setdefault("_forms", {})
    if f not in memo:
        forms = f.forms(p.names, p.support)
        memo[f] = forms, forms.table(p.probs)
        memo[f][1].setflags(write=False)
    return memo[f]


def _coord_index(names: tuple[str, ...], coord: str) -> int:
    try:
        return names.index(coord)
    except ValueError:
        raise ValidationError(f"measure has no coordinate '{coord}'") from None


def _mean_forms(mask: np.ndarray, v: np.ndarray, message: str) -> LinearForms:
    """The mean of v over the points in mask, as an arm mean with one cell."""
    v = np.where(mask, v, 0.0)
    unit = np.column_stack([np.ones(len(v)), mask, v])
    return LinearForms(np.zeros(len(v), dtype=np.intp), unit, np.empty((1, 0)), (), message)


@dataclass(frozen=True)
class Mean(Functional):
    """E[coord]."""

    coord: str = "y"

    @property
    def label(self) -> str:
        return f"mean({self.coord})"

    def forms(self, names, support) -> LinearForms:
        v = support[:, _coord_index(names, self.coord)]
        return _mean_forms(np.ones(v.shape, dtype=bool), v, "total mass is zero")


@dataclass(frozen=True)
class CondMean(Functional):
    """E[coord | conditions], conditions matched by exact equality."""

    coord: str = "y"
    conditions: tuple[tuple[str, float], ...] = ()

    @property
    def label(self) -> str:
        conds = ",".join(f"{n}={v:g}" for n, v in self.conditions)
        return f"cond_mean({self.coord}|{conds})"

    def _mask(self, names, support) -> np.ndarray:
        if not self.conditions:
            raise ValidationError("cond_mean requires at least one condition")
        mask = np.ones(support.shape[0], dtype=bool)
        for cname, cval in self.conditions:
            mask &= support[:, _coord_index(names, cname)] == cval
        return mask

    def forms(self, names, support) -> LinearForms:
        v = support[:, _coord_index(names, self.coord)]
        message = f"conditioning event {dict(self.conditions)} has zero mass"
        return _mean_forms(self._mask(names, support), v, message)


def _causal_columns(names: tuple[str, ...]) -> tuple[int, int, list[int]]:
    a_idx = _coord_index(names, "a")
    y_idx = _coord_index(names, "y")
    x_idx = [i for i in range(len(names)) if i not in (a_idx, y_idx)]
    return a_idx, y_idx, x_idx


def _arm_forms(names, support, arms: tuple[int, ...]) -> LinearForms:
    """The arm means E[E[Y | A=arm, X]], cells in sorted covariate order."""
    a_idx, y_idx, x_idx = _causal_columns(names)
    labels, cell = _cells(support[:, x_idx])
    y = support[:, y_idx]
    columns = [np.ones(len(y))]
    for arm in arms:
        in_arm = support[:, a_idx] == arm
        columns += [in_arm, np.where(in_arm, y, 0.0)]
    return LinearForms(cell, np.column_stack(columns).astype(float), labels, arms)


@dataclass(frozen=True)
class CounterfactualMean(Functional):
    """E[E[Y | A=arm, X]]: the g-formula value of the arm-`arm` mean."""

    arm: int = 1

    def __post_init__(self) -> None:
        if self.arm not in (0, 1):
            raise ConfigError("arm must be 0 or 1")

    @property
    def label(self) -> str:
        return f"counterfactual_mean({self.arm})"

    @property
    def arms(self) -> tuple[int]:
        return (self.arm,)

    def forms(self, names, support) -> LinearForms:
        return _arm_forms(names, support, self.arms)


@dataclass(frozen=True)
class Ate(Functional):
    """Average treatment effect: counterfactual mean contrast of the arms."""

    arms = (1, 0)

    @property
    def label(self) -> str:
        return "ate"

    def forms(self, names, support) -> LinearForms:
        return _arm_forms(names, support, self.arms)


_COND_MEAN_RE = re.compile(r"cond_mean\(\s*(\w+)\s*\|\s*(.+?)\s*\)")
_MEAN_RE = re.compile(r"mean\(\s*(\w+)\s*\)")
_CF_RE = re.compile(r"counterfactual_mean\(\s*([01])\s*\)")


def make_functional(label: str) -> Functional:
    """Parse a functional label: ate, mean(c), cond_mean(c|a=0,...),
    counterfactual_mean(0|1)."""
    text = label.strip()
    if text == "ate":
        return Ate()
    m = _CF_RE.fullmatch(text)
    if m:
        return CounterfactualMean(int(m.group(1)))
    m = _MEAN_RE.fullmatch(text)
    if m:
        return Mean(m.group(1))
    m = _COND_MEAN_RE.fullmatch(text)
    if m:
        conditions = []
        for clause in m.group(2).split(","):
            if "=" not in clause:
                raise ConfigError(f"malformed condition '{clause}' in '{label}'")
            cname, cval = clause.split("=", 1)
            try:
                conditions.append((cname.strip(), float(cval)))
            except ValueError:
                raise ConfigError(f"non-numeric condition value in '{label}'") from None
        return CondMean(m.group(1), tuple(conditions))
    raise ConfigError(
        f"unknown functional '{label}'; expected ate, mean(c), "
        "cond_mean(c|n=v,...), or counterfactual_mean(0|1)"
    )


# ---------------------------------------------------------------------------
# paths and scores


def _union_support(p_support: np.ndarray, g_support: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Union of two supports, p's rows first (p_support itself if g adds none); returns (union, g_indices)."""
    m = p_support.shape[0]
    _, cell = _cells(np.vstack([p_support, g_support]))
    position = np.full(int(cell.max()) + 1, -1)
    position[cell[:m]] = np.arange(m)
    g_pos = position[cell[m:]]
    extra = g_pos < 0
    g_pos[extra] = m + np.arange(int(extra.sum()))
    union = np.vstack([p_support, g_support[extra]]) if extra.any() else p_support
    return union, g_pos


def mix(p: DiscreteMeasure, g: DiscreteMeasure, eps: float) -> DiscreteMeasure:
    """The mixture (1-eps) P + eps G on the union of the supports."""
    if p.names != g.names:
        raise ValidationError("measures must share coordinate names to be mixed")
    if not (0.0 <= eps <= 1.0):
        raise EpsError(f"mixture eps must lie in [0, 1], got {eps!r}")
    union, g_pos = _union_support(p.support, g.support)
    probs = np.zeros(union.shape[0])
    probs[: p.m] = (1.0 - eps) * p.probs
    np.add.at(probs, g_pos, eps * g.probs)
    return DiscreteMeasure(names=p.names, support=union, probs=probs)


def _checked_score(p: DiscreteMeasure, s: np.ndarray, stack: bool = False) -> np.ndarray:
    """s as floats, one finite value per support point of p (or rows of them, with ``stack``)."""
    values = np.asarray(s, dtype=float)
    if values.ndim not in ((1, 2) if stack else (1,)) or values.shape[-1] != p.m:
        what = "a vector or a stack of rows" if stack else "a vector"
        raise ValidationError(f"score must be {what} of length {p.m}, the support size; got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValidationError("score values must be finite")
    return values


def score_of_path(p: DiscreteMeasure, ptilde: DiscreteMeasure) -> np.ndarray:
    """Score array s(z) = ptilde(z)/p(z) - 1 on p's support: the likelihood-ratio path toward ptilde.

    Requires domination: ptilde may not place mass outside p's support.
    The result has p-mean zero by construction.
    """
    if p.names != ptilde.names:
        raise ValidationError("measures must share coordinate names")
    pos = _union_support(p.support, ptilde.support)[1]
    off = pos >= p.m
    base = np.where(off, 0.0, p.probs[np.minimum(pos, p.m - 1)])
    j = _first((ptilde.probs > 0) & (off | (base == 0.0)))
    if j is not None:
        point = dict(zip(p.names, ptilde.support[j]))
        if off[j]:
            raise SupportError(
                f"domination violated: point {point} has mass "
                "under the target but is outside the base support"
            )
        raise SupportError(f"domination violated at {point}: base mass is zero")
    ratio = np.zeros(p.m)
    keep = base > 0.0
    ratio[pos[keep]] = ptilde.probs[keep] / base[keep]
    return ratio - 1.0


def random_score(p: DiscreteMeasure, rng: np.random.Generator) -> np.ndarray:
    """A random mean-zero score array on p's support, bounded so small-eps paths stay valid."""
    raw = rng.uniform(-1.0, 1.0, size=p.m)
    return raw - float(p.probs @ raw)  # probs sum to 1, so this centers exactly


def factorize_score(
    p: DiscreteMeasure, s: np.ndarray, given: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Split a score array s on p's support into a marginal and a conditional part array.

    The marginal part is the conditional expectation E_p[s | given-coords],
    constant on each group; the conditional part is the remainder.  Both are
    themselves valid mean-zero scores, and the pathwise derivative along s
    is the sum of the derivatives along the parts.
    """
    values = _checked_score(p, s)
    cells, inverse = _cells(p.support[:, [_coord_index(p.names, n) for n in given]])
    mass = np.bincount(inverse, p.probs, len(cells))
    total = np.bincount(inverse, p.probs * values, len(cells))
    marginal = np.divide(total, mass, out=np.zeros_like(total), where=mass != 0.0)[inverse]
    return marginal, values - marginal


# ---------------------------------------------------------------------------
# derivatives


@dataclass(frozen=True)
class DerivativeResult:
    value: float
    error_estimate: float


def step_schedule(f: Functional, p: DiscreteMeasure) -> tuple[float, float, float]:
    """The schedule ``gateaux_if``, ``eif_table`` and ``one_step`` use for f at p:
    EPS_SCHEDULE shrunk to the smallest nonzero denominator mass."""
    masses = _forms_at(f, p)[1][:, 1::2]
    if not np.any(masses > 0.0):
        return EPS_SCHEDULE
    e0 = min(EPS_SCHEDULE[0], float(masses[masses > 0.0].min()) / EPS_MASS_RATIO)
    return e0, e0 / 2.0, e0 / 4.0


def _richardson(
    values: np.ndarray, eps: tuple[float, float, float], scale, what: Callable[[int], str]
) -> tuple[np.ndarray, np.ndarray]:
    """Extrapolated derivatives and error estimates from (n, 6) values at
    steps eps0, -eps0, eps1, -eps1, eps2, -eps2.

    The error estimate is the disagreement between the extrapolation stages
    plus a bound on rounding: values carry errors of a few ulps of ``scale``
    (per row), which the differences divide by the steps and the
    extrapolation amplifies about 6.6-fold; 32 ulps / eps0 covers both.
    The first derivative whose estimate exceeds RICHARDSON_RTOL *
    max(1, |value|) raises EpsError naming ``what(row)``.
    """
    d = (values[:, 0::2] - values[:, 1::2]) / (2.0 * np.asarray(eps))
    r1 = (4.0 * d[:, 1] - d[:, 0]) / 3.0
    r1b = (4.0 * d[:, 2] - d[:, 1]) / 3.0
    value = (16.0 * r1b - r1) / 15.0
    err = np.abs(r1b - r1) + 32.0 * np.finfo(float).eps * scale / eps[0]
    j = _first(err > RICHARDSON_RTOL * np.maximum(1.0, np.abs(value)))
    if j is not None:
        raise EpsError(
            f"{what(j)}: error estimate {err[j]:.3g} exceeds {RICHARDSON_RTOL:g} * "
            f"max(1, |{value[j]:.6g}|) with eps schedule {eps}; is a denominator mass near zero?"
        )
    return value, err


def _influence_at(f: Functional, p: DiscreteMeasure, points: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Influence values and error estimates of f at p for each row t of
    ``points`` (every support point of p, in order, when None), from the
    mixture paths (1-e) P + e delta_t at ``step_schedule(f, p)``.

    Forms are built once on the union support (kept on p if it adds no row).
    A step keeps every cell's terms but t's, scaled by 1-e, so it recomputes
    t's cell alone; it is undefined where t's cell is, or where another cell
    was at P.  The rounding scale of t is that of p's charged rows and of t.

    No step moves a denominator mass through zero: with e <= m/50 for the
    smallest positive denominator mass m, a mass m' >= m steps to at least
    (1+e) m' - e >= 49 e, as the unit column is 0 or 1.
    """
    support, targets = (p.support, np.arange(p.m)) if points is None else _union_support(p.support, points)
    if support is p.support:
        forms, table = _forms_at(f, p)
    else:
        forms = f.forms(p.names, support)
        table = forms.table(np.r_[p.probs, np.zeros(len(support) - p.m)])
    eps = step_schedule(f, p)
    cell, unit, steps = forms.cell[targets], forms.unit[targets], np.ravel([(e, -e) for e in eps])
    moved = (1.0 - steps)[:, None] * table[cell][:, None, :] + steps[:, None] * unit[:, None, :]
    (terms, bad), (new_terms, new_bad) = forms.terms(table), forms.terms(moved)
    total = (1.0 - steps) * table[:, 0].sum() + steps * unit[:, :1]
    elsewhere = bad.sum(axis=0) - bad[cell] > 0
    r = _first((elsewhere[:, None, :] | new_bad).any(axis=-1))
    if r is not None:
        j, s = divmod(r, len(steps))
        bad[cell[j]] = new_bad[j, s]
        forms.raise_undefined(bad)
    sums = (1.0 - steps)[:, None] * (terms.sum(axis=0) - terms[cell])[:, None, :] + new_terms
    size = forms.size()
    scale = np.maximum(np.max(size[: p.m][p.probs > 0.0], initial=0.0), size[targets])
    point = lambda j: dict(zip(p.names, support[targets[j]].tolist()))  # noqa: E731
    return _richardson(_combine(sums, total), eps, scale, lambda j: f"influence of {f.label} at {point(j)}")


def gateaux_if(f: Functional, p: DiscreteMeasure, z: Mapping[str, float] | Sequence[float]) -> DerivativeResult:
    """Influence of point z: d/deps f((1-eps) P + eps delta_z) at eps=0.

    Central differences on the mixture path with Richardson extrapolation;
    the error estimate is the disagreement between extrapolation stages
    plus a rounding bound.  z need not lie in P's support.  The steps are
    shrunk to the smallest denominator mass (see ``step_schedule``); an
    error estimate above RICHARDSON_RTOL * max(1, |value|) raises EpsError.
    """
    phi, err = _influence_at(f, p, _point_as_row(p.names, z)[None, :])
    return DerivativeResult(value=float(phi[0]), error_estimate=float(err[0]))


def eif_table(f: Functional, p: DiscreteMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Numerical influence values and error estimates at every support point."""
    return _influence_at(f, p, None)


def pathwise_derivative(f: Functional, p: DiscreteMeasure, s: np.ndarray) -> float | np.ndarray:
    """d/deps f(measure with masses (1 + eps*s) p) at eps = 0, for a score array
    s on p's support (a float) or for each row of a (B, m) stack (an array).
    A stack's 6B steps share one forms build, table, evaluation and
    extrapolation; each derivative is its row's own, bit for bit, and a
    failing stack raises its first failing row's own error.  The steps are
    EPS_SCHEDULE: a step moves each mass by at most eps*max|s| of itself, and
    one that moves a denominator mass to zero or below raises EpsError.
    An error estimate above RICHARDSON_RTOL * max(1, |derivative|) raises EpsError.
    """
    values = np.asarray(s, dtype=float)
    try:
        scores = np.atleast_2d(_checked_score(p, values, stack=True))
        mean_s = max((float(p.probs @ row) for row in scores), key=abs, default=0.0)
        if abs(mean_s) > 1e-10:
            raise ValidationError(f"score must have mean zero under p, got {mean_s!r}")
        worst = EPS_SCHEDULE[0] * float(np.max(np.abs(scores), initial=0.0))
        if worst > 1.0:
            raise EpsError(
                "perturbed mass would go negative: max |eps*s| "
                f"= {worst!r} exceeds 1; shrink the score"
            )
        if not len(scores):
            return np.zeros(0)
        (forms, base), steps = _forms_at(f, p), np.ravel([(e, -e) for e in EPS_SCHEDULE])
        tables = forms.table(((1.0 + steps[:, None] * scores[:, None, :]) * p.probs).reshape(-1, p.m))
        through = (tables[..., 1::2] <= 0.0) & (base[:, 1::2] > 0.0)
        if np.any(through):
            mass = np.broadcast_to(base[:, 1::2], through.shape)[through].min()
            raise EpsError(f"eps schedule {EPS_SCHEDULE} moves a denominator mass of {mass:.3g} through zero")
        scale = np.max(forms.size()[p.probs > 0.0], initial=0.0)
        what = lambda j: f"pathwise derivative of {f.label}"  # noqa: E731
        d, _ = _richardson(_evaluate(forms, tables).reshape(-1, len(steps)), EPS_SCHEDULE, scale, what)
    except CausalKitError:
        for row in values if values.ndim == 2 else ():
            pathwise_derivative(f, p, row)
        raise
    return float(d[0]) if values.ndim == 1 else d


@dataclass(frozen=True)
class CentralIdentityReport:
    lhs: float
    rhs: float
    gap: float


def central_identity_check(f: Functional, p: DiscreteMeasure, s: np.ndarray) -> CentralIdentityReport:
    """Check d/deps psi (score path) = E[phi * s] with numerical phi, for one score array s."""
    s = _checked_score(p, s)
    lhs = pathwise_derivative(f, p, s)
    phi, _ = eif_table(f, p)
    rhs = float(p.probs @ (phi * s))
    return CentralIdentityReport(lhs=lhs, rhs=rhs, gap=abs(lhs - rhs))


# ---------------------------------------------------------------------------
# closed forms


def _require_positive(px, pax, cells, arm, present=True) -> None:
    g = _first(present & ((px == 0.0) | (pax == 0.0)))
    if g is not None:
        raise PositivityError(f"cell with covariates {cells[g]} has zero mass on arm {arm}")


def closed_form_eif(f: Functional, p: DiscreteMeasure) -> np.ndarray:
    """The analytic influence function of f at p, per support point."""
    if isinstance(f, Mean):
        return p.column(f.coord) - f.value(p)
    if isinstance(f, CondMean):
        psi = f.value(p)  # raises when the conditioning event has zero mass
        mask = f._mask(p.names, p.support)
        return np.where(mask, (p.column(f.coord) - psi) / float(p.probs[mask].sum()), 0.0)
    if isinstance(f, (CounterfactualMean, Ate)):
        # per arm, P(A=arm|X) and E[Y|A=arm,X] per point from exact cell sums,
        # and the arm mean summed over one column, as the arm's own value is
        (forms, table), eifs = _forms_at(f, p), []
        px, c = table[:, 0], forms.cell
        for k, arm in enumerate(forms.arms):
            pax, ny = table[:, 1 + 2 * k], table[:, 2 + 2 * k]
            _require_positive(px, pax, forms.labels, arm)
            pi, mu = pax / px, ny / pax
            psi = np.sum(px * mu) / np.sum(px)
            eifs.append((p.column("a") == arm) / pi[c] * (p.column("y") - mu[c]) + mu[c] - psi)
        return eifs[0] - eifs[1] if len(eifs) == 2 else eifs[0]
    raise ConfigError(f"no closed form registered for functional '{f.label}'")


# ---------------------------------------------------------------------------
# one-step estimation and the second-order remainder


def one_step(f: Functional, p_est: DiscreteMeasure, sample: DiscreteMeasure) -> float:
    """Plug-in value at p_est plus the sample mean of its influence function.

    ``sample`` is an empirical (or exact) measure; the correction term is
    the sample-weighted mean of the numerical influence function of f at
    p_est, evaluated at each sample point of positive mass in one block.
    """
    if p_est.names != sample.names:
        raise ValidationError("estimate and sample must share coordinate names")
    plug_in = f.value(p_est)
    charged = sample.probs != 0.0
    phi, _ = _influence_at(f, p_est, sample.support[charged])
    return plug_in + float(sample.probs[charged] @ phi)


@dataclass(frozen=True)
class R2Result:
    """Second-order remainder of the one-step ATE/arm-mean estimator.

    r2 equals the exact error of the population one-step estimator.  bound
    is the Cauchy-Schwarz majorant with the inverse estimated propensity
    kept inside the first norm, so |r2| <= bound always; rate_product is
    the plain product of unweighted nuisance-error norms, the quantity that
    displays the product-of-rates behaviour.
    """

    r2: float
    bound: float
    rate_product: float
    r2_arm1: float | None = None
    r2_arm0: float | None = None
    bound_arm1: float | None = None
    bound_arm0: float | None = None


def _arm_remainder(forms: LinearForms, tables: np.ndarray, n_true: int, j: int) -> tuple[float, float, float]:
    """(r2, bound, rate_product) for the arm mean of ``forms.arms[j]``.

    ``forms`` sit on P_true's n_true support rows stacked over P_est's;
    ``tables`` holds their tables of P_true's and P_est's masses.  Means are
    over P_true's covariate marginal, conditionals estimated from P_est, and
    X cells matched by exact coordinate equality.
    """
    arm, cells, c = forms.arms[j], forms.labels, [0, 1 + 2 * j, 2 + 2 * j]
    (px, pax, ny), (e_px, e_pax, e_ny) = tables[0][:, c].T, tables[1][:, c].T
    _require_positive(px, pax, cells, arm, present=np.bincount(forms.cell[:n_true], minlength=len(cells)) > 0)
    live = px > 0.0
    missing = live & (np.bincount(forms.cell[n_true:], minlength=len(cells)) == 0)
    empty = live & ((e_px == 0.0) | (e_pax == 0.0))
    k = _first(missing | empty)
    if k is not None:
        key = [float(v) for v in cells[k]]
        if missing[k]:
            raise SupportError(f"estimated measure has no mass at covariates {key}")
        raise PositivityError(f"estimated measure has zero arm-{arm} mass at covariates {key}")
    px, pi_hat = px[live], e_pax[live] / e_px[live]
    d_pi = pax[live] / px - pi_hat
    d_mu = ny[live] / pax[live] - e_ny[live] / e_pax[live]
    r2 = float(np.sum(px * d_pi * d_mu / pi_hat))
    err_pi_w2 = float(px @ (d_pi / pi_hat) ** 2)  # E_true[ ((pi - pi_hat)/pi_hat)^2 ]
    err_mu = np.sqrt(float(px @ d_mu**2))
    return r2, float(np.sqrt(err_pi_w2) * err_mu), float(np.sqrt(float(px @ d_pi**2)) * err_mu)


def second_order_remainder(
    p_true: DiscreteMeasure, p_est: DiscreteMeasure, functional: Functional = Ate()
) -> R2Result:
    """Exact second-order remainder and its Cauchy-Schwarz bound of ``functional``, Ate or CounterfactualMean.

    For one arm:  r2_a = E_true[(pi_a - pi_hat_a)(mu_a - mu_hat_a)/pi_hat_a];
    for the ATE:  r2 = r2_1 - r2_0, and the bounds add.  r2 vanishes when
    either nuisance is exact (double robustness), and equals the error of
    the population one-step estimator based at p_est.
    """
    if not isinstance(functional, (CounterfactualMean, Ate)):
        raise ConfigError(
            "second_order_remainder supports 'ate' and 'counterfactual_mean(a)', "
            f"got '{functional.label}'"
        )
    x_true, x_est = _causal_columns(p_true.names)[2], _causal_columns(p_est.names)[2]
    if [p_true.names[i] for i in x_true] != [p_est.names[i] for i in x_est]:
        raise ValidationError("true and estimated measures must share covariate names")
    est = p_est.support[:, [p_est.names.index(n) for n in p_true.names]]
    forms = functional.forms(p_true.names, np.vstack([p_true.support, est]))
    masses = np.stack([np.r_[p_true.probs, np.zeros(p_est.m)], np.r_[np.zeros(p_true.m), p_est.probs]])
    tables = forms.table(masses)
    parts = [_arm_remainder(forms, tables, p_true.m, k) for k in range(len(functional.arms))]
    if len(parts) == 1:
        return R2Result(*parts[0])
    (r2_1, bound_1, rate_1), (r2_0, bound_0, rate_0) = parts
    return R2Result(r2_1 - r2_0, bound_1 + bound_0, rate_1 + rate_0, r2_1, r2_0, bound_1, bound_0)
