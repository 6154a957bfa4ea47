"""Core dataset types, validation, and CSV ingestion.

Every estimator in the package consumes one of the three dataset types
defined here.  Datasets are immutable after construction (their arrays are
marked read-only) and validation is total: any input that would violate an
invariant raises a structured error instead of producing a value.

CSV is the sole file format: comma-separated, first row header, UTF-8,
"." decimal separator.  Column meaning is given by an explicit schema
mapping — there is no header inference.  Floats are written with their
shortest round-trip representation, so write(load(f)) reproduces numeric
values bit-exactly.  Reading goes through NumPy's tokenizer, yet a cell's
value is still float() of its text (a file the tokenizer rejects is read again
row by row); writing goes in blocks of _BLOCK_ROWS rows, a column at a time.
"""

from __future__ import annotations

import csv
import math
import warnings
from contextlib import contextmanager
from dataclasses import InitVar, dataclass, field
from itertools import starmap
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import (
    InsufficientDataError,
    ParseError,
    SchemaError,
    ValidationError,
)

__all__ = [
    "ObservationalDataset",
    "GroundTruth",
    "Estimate",
    "PanelDataset",
    "IvDataset",
    "load_csv",
    "load_iv_csv",
    "load_panel_csv",
    "write_csv",
    "write_iv_csv",
    "write_panel_csv",
    "write_ground_truth_csv",
    "format_number",
]


def format_number(v: float | int) -> str:
    """Shortest round-trip text: integers below 1e16 as integers, all else ``repr(float(v))``."""
    if isinstance(v, (int, np.integer)) and abs(float(v)) < 1e16:
        return str(int(v))
    return repr(float(v))


def _as_float_vector(name: str, values: Sequence[float] | np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    return arr


def _as_binary_vector(name: str, values: Sequence[float] | np.ndarray) -> np.ndarray:
    arr = _as_float_vector(name, values)
    if not np.all((arr == 0.0) | (arr == 1.0)):
        bad = arr[(arr != 0.0) & (arr != 1.0)][0]
        raise ValidationError(f"{name} must contain only 0/1, found {format_number(bad)}")
    return arr.astype(np.int64)


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


@dataclass(frozen=True)
class ObservationalDataset:
    """Cross-sectional data: covariates ``x``, binary treatment ``a``, outcome ``y``.

    ``x`` has shape (n, d) with d >= 0; all values must be finite.
    """

    x: np.ndarray
    a: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        if x.ndim != 2:
            raise ValidationError(f"x must be 2-d (n, d), got shape {x.shape}")
        a = _as_binary_vector("a", self.a)
        y = _as_float_vector("y", self.y)
        if not (x.shape[0] == a.shape[0] == y.shape[0]):
            raise ValidationError(
                f"length mismatch: x has {x.shape[0]} rows, a has {a.shape[0]}, y has {y.shape[0]}"
            )
        if not np.all(np.isfinite(x)):
            raise ValidationError("x contains non-finite values")
        _freeze(x, a, y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class GroundTruth:
    """Per-unit potential outcomes and derived truth for a simulated dataset.

    ``true_ate`` is always mean(y1) - mean(y0).  ``pi`` (true propensity) and
    ``labels`` (latent compliance type or similar) are present when the
    generating process defines them; they feed the ground-truth sidecar CSV
    and oracle estimators.
    """

    y1: np.ndarray
    y0: np.ndarray
    pi: np.ndarray | None = None
    labels: tuple[str, ...] | None = None
    true_ate: float = field(init=False)

    def __post_init__(self) -> None:
        y1 = _as_float_vector("y1", self.y1)
        y0 = _as_float_vector("y0", self.y0)
        if y1.shape != y0.shape:
            raise ValidationError("y1 and y0 must have equal length")
        pi = self.pi
        if pi is not None:
            pi = _as_float_vector("pi", pi)
            if pi.shape != y1.shape:
                raise ValidationError("pi must have the same length as y1")
            if np.any(pi <= 0.0) or np.any(pi >= 1.0):
                raise ValidationError("true propensities must lie strictly in (0, 1)")
            _freeze(pi)
        if self.labels is not None and len(self.labels) != y1.shape[0]:
            raise ValidationError("labels must have the same length as y1")
        _freeze(y1, y0)
        object.__setattr__(self, "y1", y1)
        object.__setattr__(self, "y0", y0)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "true_ate", float(np.mean(y1) - np.mean(y0)) if y1.size else 0.0)

    def check_consistency(self, dataset: ObservationalDataset) -> None:
        """Verify observed y equals y1 on treated units and y0 on controls."""
        if self.y1.shape[0] != dataset.n:
            raise ValidationError("ground truth length differs from dataset size")
        expected = np.where(dataset.a == 1, self.y1, self.y0)
        if not np.array_equal(expected, dataset.y):
            raise ValidationError("observed outcomes do not match potential outcomes")


# Tolerance for the centering invariant, relative to the eif magnitude.
_EIF_MEAN_TOL = 1e-10


def _centering_tolerance(eif: np.ndarray, input_scale: float) -> float:
    """Largest |mean(eif)| accepted: 1e-10 of max(1, max|eif|), plus the rounding
    error of a mean of n values taken from inputs as large as ``input_scale``
    (4 ulps per level of pairwise summation, log2(n) levels)."""
    size = max(1.0, float(np.max(np.abs(eif))))
    levels = max(1, eif.size.bit_length())
    return _EIF_MEAN_TOL * size + 4.0 * levels * np.finfo(float).eps * max(size, input_scale)


@dataclass(frozen=True)
class Estimate:
    """The result of every estimator: a point estimate with its inference.

    ``eif`` holds per-unit influence values, centered (mean zero), when the
    estimator has them; for difference-in-differences the units are panel
    units, not records.  ``se``/``ci_low``/``ci_high`` are present when the
    estimator provides inference.  ``diagnostics`` carries method-specific
    values (cell means, first stage, clip counts, match distances) in the
    order the report emits them.

    ``input_scale`` (not stored) is the magnitude of the values the
    influence values were computed from, such as max|y| when they are
    outcomes minus a rounded arm mean; it widens the centering check by the
    rounding error of that mean.
    """

    psi_hat: float
    method: str
    n: int
    eif: np.ndarray | None = None
    se: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    diagnostics: dict = field(default_factory=dict)
    input_scale: InitVar[float] = 0.0

    def __post_init__(self, input_scale: float) -> None:
        if not math.isfinite(self.psi_hat):
            raise ValidationError(f"psi_hat is not finite: {self.psi_hat}")
        if self.eif is not None:
            eif = _as_float_vector("eif", self.eif)
            if eif.size and abs(float(np.mean(eif))) > _centering_tolerance(eif, input_scale):
                raise ValidationError("eif vector is not centered (mean exceeds its rounding tolerance)")
            _freeze(eif)
            object.__setattr__(self, "eif", eif)
        if self.se is not None and (not math.isfinite(self.se) or self.se < 0):
            raise ValidationError(f"se must be finite and >= 0, got {self.se}")
        if (self.ci_low is None) != (self.ci_high is None):
            raise ValidationError("ci_low and ci_high must be present together")
        if self.ci_low is not None:
            if not (self.ci_low <= self.psi_hat <= self.ci_high):
                raise ValidationError("confidence interval does not contain psi_hat")


@dataclass(frozen=True)
class PanelDataset:
    """Long-format panel: one record per (unit, period).

    ``group`` is the unit-level treated-group flag used by the
    difference-in-differences estimator; it must be constant within a unit.
    ``a`` is the realized treatment in that period.
    """

    unit_id: np.ndarray
    period_id: np.ndarray
    a: np.ndarray
    y: np.ndarray
    group: np.ndarray

    def __post_init__(self) -> None:
        unit = np.asarray(self.unit_id, dtype=np.int64)
        period = np.asarray(self.period_id, dtype=np.int64)
        a = _as_binary_vector("a", self.a)
        group = _as_binary_vector("group", self.group)
        y = _as_float_vector("y", self.y)
        n = y.shape[0]
        if not (unit.shape[0] == period.shape[0] == a.shape[0] == group.shape[0] == n):
            raise ValidationError("panel columns must have equal length")
        pairs = np.stack([unit, period], axis=1)
        if np.unique(pairs, axis=0).shape[0] != n:
            raise ValidationError("(unit_id, period_id) pairs must be unique")
        # sort by unit and compare each record's flag with its unit's first
        order = np.argsort(unit, kind="stable")
        sorted_unit, sorted_group = unit[order], group[order]
        first = np.ones(n, dtype=bool)
        first[1:] = sorted_unit[1:] != sorted_unit[:-1]
        unit_flag = sorted_group[np.flatnonzero(first)][np.cumsum(first) - 1]
        varies = sorted_group != unit_flag
        if varies.any():
            u = sorted_unit[np.argmax(varies)]  # the lowest offending unit
            raise ValidationError(f"group flag varies within unit {u}")
        _freeze(unit, period, a, y, group)
        object.__setattr__(self, "unit_id", unit)
        object.__setattr__(self, "period_id", period)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "group", group)

    @property
    def n(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True)
class IvDataset:
    """Instrumental-variable data: binary instrument z, binary treatment a."""

    z: np.ndarray
    a: np.ndarray
    y: np.ndarray
    x: np.ndarray | None = None

    def __post_init__(self) -> None:
        z = _as_binary_vector("z", self.z)
        a = _as_binary_vector("a", self.a)
        y = _as_float_vector("y", self.y)
        if not (z.shape[0] == a.shape[0] == y.shape[0]):
            raise ValidationError("z, a, y must have equal length")
        x = self.x
        if x is not None:
            x = np.asarray(x, dtype=float)
            if x.ndim == 1:
                x = x.reshape(-1, 1)
            if x.shape[0] != y.shape[0]:
                raise ValidationError("x must have one row per unit")
            if not np.all(np.isfinite(x)):
                raise ValidationError("x contains non-finite values")
            _freeze(x)
        _freeze(z, a, y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.y.shape[0]


_BLOCK_ROWS = 8192  # rows per block written; bounds the cell strings held at once


@contextmanager
def _opened(path: str) -> Iterator[tuple[TextIO, list[str]]]:
    """The open file and its stripped header; a read or decode failure is a SchemaError."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            header = next(csv.reader(f), None)
            if header is None:
                raise SchemaError(f"{path}: file is empty, expected a header row")
            yield f, [h.strip() for h in header]
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x})") from exc


def _parse_cell(row: list[str], idx: int, column: str, row_number: int) -> float:
    try:
        raw = row[idx]
    except IndexError:
        raise ParseError(f"row {row_number}: too few cells, no value for column '{column}'") from None
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"row {row_number}, column '{column}': could not parse {raw!r} as a number") from None


def _scan_rows(
    f: TextIO, path: str, fields: Sequence[tuple[int, str]], first_row: int, width: int | None
) -> np.ndarray:
    """The (rows, fields) table of f by _parse_cell, row by row from the top (a pipe: after the
    header), rows numbered from ``first_row``; with ``width`` set, other row lengths fail."""
    reader = csv.reader(f)
    if f.seekable():
        f.seek(0)
        while f.read(1 << 20):  # a file that is not UTF-8 fails first, whatever its rows hold
            pass
        f.seek(0)
        next(reader)  # the header
    def values(r: int, row: list[str]) -> tuple[float, ...]:
        if width is not None and len(row) != width:
            raise SchemaError(f"{path}: row {r} has {len(row)} cells, expected {width}")
        return tuple(_parse_cell(row, idx, column, r) for idx, column in fields)
    rows = enumerate(filter(None, reader), first_row)
    return np.fromiter(starmap(values, rows), np.dtype((float, len(fields))))


def _parse_fields(
    f: TextIO, path: str, fields: Sequence[tuple[int, str]], first_row: int = 1, width: int | None = None
) -> list[np.ndarray]:
    """Parse the ``(cell index, column name)`` fields of every non-empty row after the header.

    Each value is ``float(cell)``.  NumPy's tokenizer reads the rows in one call; _scan_rows
    reads a pipe, a file the tokenizer rejects (a bad or short cell, '1_0' or another cell only
    float() reads, bytes that are not UTF-8) and a file holding bytes 0x1c-0x1f, which NumPy
    strips from a cell and float() does not.  With ``width`` set, rows have that many cells.
    """
    cols = [idx for idx, _ in fields]
    try:
        if not f.seekable():
            raise ValueError
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            usecols = cols if width is None else None  # all cells, so that loadtxt rejects ragged rows
            table = np.loadtxt(f, delimiter=",", quotechar='"', comments=None, ndmin=2, usecols=usecols)
        f.seek(0)
        chunks = iter(lambda: f.buffer.read(1 << 20), b"")
        if table.shape[1] != (width or len(cols)) or any(c in b for b in chunks for c in b"\x1c\x1d\x1e\x1f"):
            raise ValueError
        if width is not None:
            table = table[:, cols]
    except ValueError:  # UnicodeDecodeError included
        table = _scan_rows(f, path, fields, first_row, width)
    return [np.ascontiguousarray(column) for column in table.T]


def _parse_columns(path: str, columns: Sequence[str]) -> tuple[dict[str, np.ndarray], int]:
    """Parse the named columns into float vectors.  Row numbers are 1-based data rows."""
    twice = [c for i, c in enumerate(columns) if c in columns[:i]]
    if twice:
        raise SchemaError(f"{path}: the schema names column '{twice[0]}' more than once")
    with _opened(path) as (f, header):
        missing = [c for c in columns if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing required column '{missing[0]}'")
        values = _parse_fields(f, path, [(header.index(c), c) for c in columns])
    return dict(zip(columns, values)), len(values[0])


def _schema_value(schema: Mapping[str, object], key: str, path: str) -> str:
    value = schema.get(key)
    if not isinstance(value, str) or not value:
        raise SchemaError(f"{path}: schema must name the {key} column")
    return value


def _schema_covariates(schema: Mapping[str, object]) -> list[str]:
    cov = schema.get("covariates") or []
    if isinstance(cov, str):
        cov = [c for c in (p.strip() for p in cov.split(",")) if c]
    return list(cov)


def load_csv(path: str, schema: Mapping[str, object]) -> ObservationalDataset:
    """Load an observational dataset.

    ``schema`` maps roles to column names:
    ``{"treatment": ..., "outcome": ..., "covariates": [...]}``
    (covariates optional; may be a list or a comma-separated string).
    Row order is preserved.
    """
    treatment = _schema_value(schema, "treatment", path)
    outcome = _schema_value(schema, "outcome", path)
    covariates = _schema_covariates(schema)
    cols, n = _parse_columns(path, [treatment, outcome, *covariates])
    a_raw = cols[treatment]
    bad = np.nonzero((a_raw != 0.0) & (a_raw != 1.0))[0]
    if bad.size:
        raise ValidationError(
            f"row {bad[0] + 1}, column '{treatment}': treatment must be 0 or 1, "
            f"found {format_number(a_raw[bad[0]])}"
        )
    x = np.column_stack([cols[c] for c in covariates]) if covariates else np.empty((n, 0))
    return ObservationalDataset(x=x, a=a_raw, y=cols[outcome])


def load_iv_csv(path: str, schema: Mapping[str, object]) -> IvDataset:
    """Load an IV dataset; schema keys: instrument, treatment, outcome, covariates."""
    instrument = _schema_value(schema, "instrument", path)
    treatment = _schema_value(schema, "treatment", path)
    outcome = _schema_value(schema, "outcome", path)
    covariates = _schema_covariates(schema)
    cols, n = _parse_columns(path, [instrument, treatment, outcome, *covariates])
    x = np.column_stack([cols[c] for c in covariates]) if covariates else None
    return IvDataset(z=cols[instrument], a=cols[treatment], y=cols[outcome], x=x)


def load_panel_csv(path: str, schema: Mapping[str, object]) -> PanelDataset:
    """Load a panel; schema keys: unit, period, group, treatment, outcome."""
    unit = _schema_value(schema, "unit", path)
    period = _schema_value(schema, "period", path)
    group = _schema_value(schema, "group", path)
    treatment = _schema_value(schema, "treatment", path)
    outcome = _schema_value(schema, "outcome", path)
    cols, _ = _parse_columns(path, [unit, period, group, treatment, outcome])
    for key in (unit, period):
        if np.any(cols[key] != np.round(cols[key])):
            raise ValidationError(f"column '{key}' must contain integers")
    return PanelDataset(
        unit_id=cols[unit].astype(np.int64),
        period_id=cols[period].astype(np.int64),
        a=cols[treatment],
        y=cols[outcome],
        group=cols[group],
    )


def _block_cells(part: np.ndarray | Sequence[str]) -> Iterable[str]:
    """One column block's cells: numbers as format_number writes them, strings as they are."""
    if not isinstance(part, np.ndarray):
        return part
    if part.dtype == np.float64:
        return map(repr, part.tolist())
    if part.dtype.kind in "iu" and np.all(np.abs(part.astype(float)) < 1e16):
        return map(str, part.tolist())
    return map(format_number, part)


def _write_table(path: str, header: list[str], columns: Sequence[np.ndarray | Sequence[str]]) -> None:
    """Write a header and equal-length columns, _BLOCK_ROWS rows at a time.

    Numeric cells never need quoting, so numeric rows are joined directly,
    which takes a third less time than csv.writer; a table with a text
    column goes through csv.writer, which quotes it.
    """
    quote = any(not isinstance(col, np.ndarray) for col in columns)
    n = len(columns[0]) if columns else 0
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for start in range(0, n, _BLOCK_ROWS):
            rows = zip(*(_block_cells(col[start:start + _BLOCK_ROWS]) for col in columns))
            if quote:
                writer.writerows(rows)
            else:
                f.write("\n".join(map(",".join, rows)) + "\n")


def write_csv(dataset: ObservationalDataset, path: str, schema: Mapping[str, object] | None = None) -> None:
    """Write a dataset with shortest round-trip number formatting.

    Default column names are x1..xd, a, y; pass a schema mapping to rename.
    """
    schema = schema or {}
    treatment = schema.get("treatment", "a")
    outcome = schema.get("outcome", "y")
    covariates = _schema_covariates(schema) or [f"x{j + 1}" for j in range(dataset.d)]
    if len(covariates) != dataset.d:
        raise SchemaError(f"schema names {len(covariates)} covariates, dataset has d={dataset.d}")
    header = [*covariates, str(treatment), str(outcome)]
    columns = [dataset.x[:, j] for j in range(dataset.d)] + [dataset.a, dataset.y]
    _write_table(path, header, columns)


def write_iv_csv(dataset: IvDataset, path: str) -> None:
    """Write an IV dataset with columns z, a, y, x1..xd."""
    d = 0 if dataset.x is None else dataset.x.shape[1]
    columns = [dataset.z, dataset.a, dataset.y] + [dataset.x[:, j] for j in range(d)]
    _write_table(path, ["z", "a", "y", *(f"x{j + 1}" for j in range(d))], columns)


def write_panel_csv(panel: PanelDataset, path: str) -> None:
    """Write a panel with columns unit, period, group, a, y."""
    header = ["unit", "period", "group", "a", "y"]
    _write_table(path, header, [panel.unit_id, panel.period_id, panel.group, panel.a, panel.y])


def write_ground_truth_csv(truth: GroundTruth, path: str) -> None:
    """Write the ground-truth sidecar: y1, y0, plus propensity/type when known."""
    header = ["y1", "y0"]
    columns: list[np.ndarray | Sequence[str]] = [truth.y1, truth.y0]
    if truth.pi is not None:
        header.append("pi")
        columns.append(truth.pi)
    if truth.labels is not None:
        header.append("type")
        columns.append(tuple(truth.labels))  # a text column, whatever sequence holds it
    _write_table(path, header, columns)


def require_both_arms(dataset: ObservationalDataset, method: str) -> None:
    """Raise when an estimator that conditions on both arms lacks one."""
    if not np.any(dataset.a == 1) or not np.any(dataset.a == 0):
        raise InsufficientDataError(f"{method} requires at least one treated and one control unit")
