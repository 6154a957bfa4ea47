"""Block-wise CSV reading and writing against row-at-a-time reference versions.

The package reads and writes tables in blocks of ``data_model._BLOCK_ROWS``
rows.  The references below do the same work one row and one cell at a time,
the way the format is specified: every written cell is ``format_number`` of
its value (strings quoted by csv.writer), every read cell is ``float`` of its
text, and the first bad cell in row order names its 1-based data row and
column.  Property tests shrink the block size so that small tables span many
blocks; the other tests cross the real block boundary.
"""

import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalkit import (
    GroundTruth,
    ObservationalDataset,
    format_number,
    load_csv,
    load_iv_csv,
    write_csv,
    write_ground_truth_csv,
)
from causalkit import data_model
from causalkit.eif_engine import DiscreteMeasure
from causalkit.errors import ParseError, SchemaError

BLOCK = data_model._BLOCK_ROWS


def reference_write(path, header, columns):
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for i in range(len(columns[0])):
            writer.writerow(
                [col[i] if isinstance(col[i], str) else format_number(col[i]) for col in columns]
            )


def reference_parse(path, columns):
    """Column name -> list of floats, or the ParseError message of the first bad cell."""
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = [h.strip() for h in next(reader)]
        rows = [row for row in reader if row]
    out = {c: [] for c in columns}
    for i, row in enumerate(rows, start=1):
        for c in columns:
            j = header.index(c)
            if j >= len(row):
                return f"row {i}: too few cells, no value for column '{c}'"
            try:
                out[c].append(float(row[j]))
            except ValueError:
                return f"row {i}, column '{c}': could not parse {row[j]!r} as a number"
    return out


def block_parse(path, columns):
    """Like reference_parse, through data_model._parse_columns."""
    try:
        cols, n = data_model._parse_columns(str(path), columns)
    except ParseError as exc:
        return str(exc)
    assert all(v.shape == (n,) for v in cols.values())
    return cols


def same_bits(expected, got):
    return np.array_equal(
        np.asarray(expected, dtype=float).view(np.uint64), np.asarray(got).view(np.uint64)
    )


# Cell texts that float() accepts, edge cases included.
EDGE_CELLS = [
    "-0.0", "0", "5e-324", "-4.9e-324", "2.2250738585072014e-308", "2.225073858507201e-308",
    "1e308", "1.7976931348623157e308", "1e309", "-1e309", "1_0", "1_000.000_1", " 7 ",
    "\t-3.5e-7 ", "+.5", "1.", "nan", "-nan", "NaN", "inf", "-Infinity", "0.1",
    "9007199254740993", "123456789012345678901234567890",
]
good_cells = st.one_of(
    st.sampled_from(EDGE_CELLS),
    st.floats(width=64).map(repr),
    st.integers(-(10**20), 10**20).map(str),
)
bad_cells = st.sampled_from(["oops", "", "1,5", "1e", "--1", "0x10", "1__0", "one two"])


def _csv_text(header, rows, quoted, blank_before):
    lines = [",".join(header)]
    for row, q, blank in zip(rows, quoted, blank_before):
        if blank:
            lines.append("")
        lines.append(",".join(f'"{c}"' if q or "," in c else c for c in row))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("csv_io") / "table.csv"


@given(
    block=st.integers(1, 4),
    rows=st.lists(st.tuples(good_cells, good_cells, st.booleans(), st.booleans()), max_size=30),
)
@settings(max_examples=200, deadline=None)
def test_block_parse_equals_float_bit_for_bit(scratch, block, rows):
    """Every value is float(cell), bit for bit, for quoted, padded and blank-separated rows."""
    cells = [(u, v) for u, v, _, _ in rows]
    scratch.write_text(
        _csv_text(["u", "v"], cells, [r[2] for r in rows], [r[3] for r in rows]), encoding="utf-8"
    )
    with mock.patch.object(data_model, "_BLOCK_ROWS", block):
        cols, n = data_model._parse_columns(str(scratch), ["v", "u"])
    assert n == len(rows)
    assert same_bits([float(u) for u, _ in cells], cols["u"])
    assert same_bits([float(v) for _, v in cells], cols["v"])


@given(
    block=st.integers(1, 4),
    rows=st.lists(
        st.lists(st.one_of(good_cells, good_cells, good_cells, bad_cells), min_size=1, max_size=3),
        max_size=25,
    ),
    columns=st.permutations(["a", "b", "c"]).map(lambda p: p[:2]),
)
@settings(max_examples=200, deadline=None)
def test_block_parse_errors_match_row_at_a_time(scratch, block, rows, columns):
    """Bad cells and short rows raise the reference message, whichever block they fall in."""
    scratch.write_text(
        _csv_text(["a", "b", "c"], rows, [False] * len(rows), [False] * len(rows)), encoding="utf-8"
    )
    expected = reference_parse(scratch, columns)
    with mock.patch.object(data_model, "_BLOCK_ROWS", block):
        got = block_parse(scratch, columns)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert not isinstance(got, str)
        for c in columns:
            assert same_bits(expected[c], got[c])


def _long_table(path, n_rows, bad_row=None, bad_text="oops", short_row=None):
    lines = ["a,y"]
    for i in range(1, n_rows + 1):
        if i == short_row:
            lines.append(str(i % 2))
        else:
            lines.append(f"{i % 2},{bad_text if i == bad_row else i / 7}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("row", [BLOCK, BLOCK + 1, 2 * BLOCK + 17])
def test_bad_cell_beyond_first_block(tmp_path, row):
    path = tmp_path / "d.csv"
    _long_table(path, 2 * BLOCK + 50, bad_row=row)
    with pytest.raises(ParseError) as err:
        load_csv(str(path), {"treatment": "a", "outcome": "y"})
    assert str(err.value) == f"row {row}, column 'y': could not parse 'oops' as a number"
    assert str(err.value) == reference_parse(path, ["a", "y"])


@pytest.mark.parametrize("row", [BLOCK, BLOCK + 1, 2 * BLOCK + 17])
def test_short_row_beyond_first_block(tmp_path, row):
    path = tmp_path / "d.csv"
    _long_table(path, 2 * BLOCK + 50, short_row=row)
    with pytest.raises(ParseError) as err:
        load_csv(str(path), {"treatment": "a", "outcome": "y"})
    assert str(err.value) == f"row {row}: too few cells, no value for column 'y'"
    assert str(err.value) == reference_parse(path, ["a", "y"])


def test_first_bad_row_wins_across_blocks(tmp_path):
    """A bad cell early in a later column loses to an earlier row's bad cell."""
    path = tmp_path / "d.csv"
    lines = ["a,y"] + [f"{i % 2},{i}.5" for i in range(1, 2 * BLOCK + 1)]
    lines[BLOCK + 3] = "x,1.5"  # row BLOCK + 3, column a
    lines[BLOCK + 2] = "1,y"  # row BLOCK + 2, column y
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=rf"^row {BLOCK + 2}, column 'y': could not parse 'y'"):
        load_csv(str(path), {"treatment": "a", "outcome": "y"})


@pytest.mark.parametrize(
    "load, schema, column",
    [
        (load_csv, {"treatment": "a", "outcome": "y", "covariates": ["x", "y"]}, "y"),
        (load_csv, {"treatment": "a", "outcome": "a"}, "a"),
        (load_iv_csv, {"instrument": "z", "treatment": "a", "outcome": "y", "covariates": ["z"]}, "z"),
    ],
)
def test_column_named_twice_in_schema_is_schema_error(tmp_path, load, schema, column):
    path = tmp_path / "d.csv"
    path.write_text("x,z,a,y\n0.5,1,1,2.0\n0.25,0,0,1.0\n", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        load(str(path), schema)
    assert str(err.value) == f"{path}: the schema names column '{column}' more than once"


def test_measure_rows_are_numbered_as_file_lines_beyond_first_block(tmp_path):
    path = tmp_path / "m.csv"
    lines = ["x,a,prob"] + [f"{i},{i % 2},0" for i in range(BLOCK + 10)]
    lines[BLOCK + 5] = "1,1"  # file line BLOCK + 6
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        DiscreteMeasure.from_csv(str(path))
    assert str(err.value) == f"{path}: row {BLOCK + 6} has 2 cells, expected 3"
    lines[BLOCK + 5] = "1,1,zero"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        DiscreteMeasure.from_csv(str(path))
    assert str(err.value) == f"row {BLOCK + 6}, column 'prob': could not parse 'zero' as a number"


def test_round_trip_across_block_boundary(tmp_path):
    n = 2 * BLOCK + 5
    rng = np.random.default_rng(3)
    x = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-300, 300, size=(n, 2))
    x[BLOCK - 1 : BLOCK + 1, 0] = [-0.0, 5e-324]
    ds = ObservationalDataset(x=x, a=rng.integers(0, 2, size=n), y=rng.normal(size=n))
    path = tmp_path / "d.csv"
    write_csv(ds, str(path))
    back = load_csv(str(path), {"treatment": "a", "outcome": "y", "covariates": ["x1", "x2"]})
    assert same_bits(ds.x, back.x)
    assert np.array_equal(back.a, ds.a)
    assert same_bits(ds.y, back.y)
    ref = tmp_path / "ref.csv"
    reference_write(ref, ["x1", "x2", "a", "y"], [x[:, 0], x[:, 1], ds.a, ds.y])
    assert path.read_bytes() == ref.read_bytes()


def test_written_cells_match_format_number_for_every_column_kind(tmp_path):
    """Float, integer (either side of 1e16), bool and float32 columns, across blocks."""
    n = BLOCK + 7
    rng = np.random.default_rng(8)
    floats = rng.normal(size=n) * 10.0 ** rng.integers(-320, 308, size=n)
    floats[:6] = [-0.0, 0.0, 5e-324, 1e308, 1e16, 123456789.0]
    small_ints = rng.integers(-(10**15), 10**15, size=n)
    big_ints = small_ints.copy()
    big_ints[BLOCK + 2] = 9_999_999_999_999_999  # rounds to 1e16 as a float
    columns = [floats, small_ints, big_ints, small_ints % 2 == 0, rng.normal(size=n).astype(np.float32)]
    header = ["f", "i", "big", "flag", "f32"]
    path, ref = tmp_path / "t.csv", tmp_path / "ref.csv"
    data_model._write_table(str(path), header, columns)
    reference_write(ref, header, columns)
    assert path.read_bytes() == ref.read_bytes()
    assert ",1e+16," in path.read_text()


def test_ground_truth_labels_keep_csv_quoting(tmp_path):
    n = BLOCK + 3
    labels = tuple(["complier", 'say "hi"', "a,b", ""][i % 4] for i in range(n))
    truth = GroundTruth(y1=np.arange(n) / 3.0, y0=np.zeros(n), labels=labels)
    path, ref = tmp_path / "t.csv", tmp_path / "ref.csv"
    write_ground_truth_csv(truth, str(path))
    reference_write(ref, ["y1", "y0", "type"], [truth.y1, truth.y0, labels])
    assert path.read_bytes() == ref.read_bytes()
    assert '"say ""hi"""' in path.read_text()
    # labels held in a NumPy string array are written the same way
    write_ground_truth_csv(GroundTruth(y1=truth.y1, y0=truth.y0, labels=np.array(labels)), str(path))
    assert path.read_bytes() == ref.read_bytes()
