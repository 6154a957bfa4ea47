"""CSV reading and writing against row-at-a-time reference versions.

The package reads tables through NumPy's tokenizer, and reads a file the
tokenizer rejects again one row at a time; it writes tables in blocks of
``data_model._BLOCK_ROWS`` rows.  The references below do the same work one
row and one cell at a time, the way the format is specified: every written
cell is ``format_number`` of its value (strings quoted by csv.writer), every
read cell is ``float`` of its text, and the first bad cell in row order names
its 1-based data row and column.  Property tests shrink the block size so
that small tables are written in many blocks; the other tests cross the real
block boundary.
"""

import csv
import os
import threading
import warnings
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
    load_panel_csv,
    write_csv,
    write_ground_truth_csv,
)
from causalkit import data_model
from causalkit.eif_engine import DiscreteMeasure
from causalkit.errors import ParseError, SchemaError, ValidationError

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
    assert all(v.shape == (n,) and v.flags.c_contiguous for v in cols.values())
    return cols


def reference_measure(path, prob_column="prob"):
    """(names, support, masses) of a measure file read one row at a time, or the message
    of the first bad row, rows numbered with the header as row 1."""
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = [h.strip() for h in next(reader)]
        rows = [row for row in reader if row]
    p = header.index(prob_column)
    order = [i for i in range(len(header)) if i != p] + [p]
    values = []
    for r, row in enumerate(rows, start=2):
        if len(row) != len(header):
            return f"{path}: row {r} has {len(row)} cells, expected {len(header)}"
        for i in order:
            try:
                float(row[i])
            except ValueError:
                return f"row {r}, column '{header[i]}': could not parse {row[i]!r} as a number"
        values.append([float(row[i]) for i in order])
    table = np.array(values, dtype=float).reshape(len(rows), len(order))
    return tuple(header[i] for i in order[:-1]), table[:, :-1], table[:, -1]


def package_measure(path):
    """Like reference_measure, through DiscreteMeasure.from_csv with its checks of the
    masses and support left out."""
    with mock.patch.object(DiscreteMeasure, "__post_init__", lambda self: None):
        try:
            m = DiscreteMeasure.from_csv(str(path))
        except (ParseError, SchemaError) as exc:
            return str(exc)
    return m.names, m.support, m.probs


def same_bits(expected, got):
    return np.array_equal(
        np.asarray(expected, dtype=float).view(np.uint64), np.asarray(got).view(np.uint64)
    )


def same_result(expected, got):
    """Equal messages, or equal names and bit-identical values."""
    if isinstance(expected, str) or isinstance(got, str):
        return expected == got
    if isinstance(expected, dict):
        return list(expected) == list(got) and all(same_bits(expected[c], got[c]) for c in expected)
    return expected[0] == got[0] and all(
        e.shape == g.shape and same_bits(e, g) for e, g in zip(expected[1:], got[1:])
    )


def assert_rewrites_as_reference(path, cols):
    """The parsed columns, written block by block, give the reference writer's bytes."""
    out, ref = path.with_suffix(".out"), path.with_suffix(".ref")
    data_model._write_table(str(out), list(cols), list(cols.values()))
    reference_write(ref, list(cols), list(cols.values()))
    assert out.read_bytes() == ref.read_bytes()


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
        assert_rewrites_as_reference(scratch, cols)
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
        if not isinstance(got, str):
            assert_rewrites_as_reference(scratch, got)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert not isinstance(got, str)
        for c in columns:
            assert same_bits(expected[c], got[c])


# Raw cell texts written without quoting, so that quotes, commas and line breaks in
# them reach the tokenizer: quoted cells, '#', cells only float() reads ('1_0', Arabic-
# Indic digits), whitespace that float() strips (NBSP, U+2028) and bytes 0x1c-0x1f,
# which NumPy strips from a cell and float() does not.
RAW_CELLS = [
    '"', '""', '"7"', '" 2.5 "', '"1,5"', '"3\n"', '"\r\n4"', '1"2', '"1"2', "#", "#1", "1#",
    "1_0", "\u0661", "\u0661\u0662", "\xa07\xa0", "\u20288", "\t", " ", "\x1c1", "1\x1f", "",
]
raw_cells = st.one_of(good_cells, bad_cells, st.sampled_from(RAW_CELLS))
# Row ends, with blank and whitespace-only lines between rows.
ROW_ENDS = ["\n", "\r\n", "\r", "\n\n", "\r\n\r\n", "\r\r", "\n \n", "\r\n\t\r\n", "\n#\n"]
# Headers with the columns v and prob, one of them spanning lines inside quotes.
RAW_HEADERS = ["u,v,prob", '"u\r\nw", v ,prob', 'prob,"v\nx",v']


@given(
    header=st.sampled_from(RAW_HEADERS),
    rows=st.lists(
        st.tuples(st.lists(raw_cells, min_size=1, max_size=4), st.sampled_from(ROW_ENDS)), max_size=12
    ),
    last_end=st.booleans(),
    columns=st.sampled_from([["v", "prob"], ["prob"], ["v"]]),
)
@settings(max_examples=400, deadline=None)
def test_raw_text_reads_as_row_at_a_time_reference(scratch, header, rows, last_end, columns):
    """Columns and measures from raw text equal the references, bit for bit and message for message."""
    text = header + "\n" + "".join(",".join(cells) + end for cells, end in rows)
    scratch.write_text(text if last_end else text.rstrip("\r\n"), encoding="utf-8", newline="")
    assert same_result(reference_parse(scratch, columns), block_parse(scratch, columns))
    assert same_result(reference_measure(scratch), package_measure(scratch))


def test_ordinary_files_take_the_tokenizer_path(tmp_path):
    """With the row scan made to fail, a table of every EDGE_CELLS text NumPy reads loads
    as float() of each cell, quoted or not, with LF and CRLF row ends."""
    cells = [c for c in EDGE_CELLS if "_" not in c]  # NumPy reads no underscores
    cells += map(repr, (np.random.default_rng(5).normal(size=200) * 1e3).tolist())
    path = tmp_path / "d.csv"
    lines = [f'{c},"{c}",{i % 2}' for i, c in enumerate(cells)]
    text = "x,y,prob\n" + "\n".join(lines[:50]) + "\r\n" + "\r\n".join(lines[50:])
    path.write_text(text, encoding="utf-8", newline="")
    values = [float(c) for c in cells]
    with mock.patch.object(data_model, "_scan_rows", side_effect=AssertionError("row scan used")):
        cols, n = data_model._parse_columns(str(path), ["y", "x"])
        names, support, probs = package_measure(path)
    assert n == len(cells) and same_bits(values, cols["x"]) and same_bits(values, cols["y"])
    assert names == ("x", "y") and same_bits(np.column_stack([values, values]), support)
    assert same_bits(np.arange(len(cells)) % 2, probs)


@pytest.mark.parametrize("cell", ["1_0", "1_000.000_1", "\u0661\u0662", "\u0663.\u0665"])
def test_cells_only_float_reads_load_through_the_row_scan(tmp_path, cell):
    path = tmp_path / "d.csv"
    path.write_text(f"a,y\n1,2.5\n0,{cell}\n1,-4\n", encoding="utf-8")
    with mock.patch.object(data_model, "_scan_rows", wraps=data_model._scan_rows) as scan:
        ds = load_csv(str(path), {"treatment": "a", "outcome": "y"})
    assert scan.call_count == 1
    assert same_bits([2.5, float(cell), -4.0], ds.y)


@pytest.mark.parametrize("cell", ["\x1c1", "1\x1d", "\x1e2.5", "3\x1f"])
def test_bytes_numpy_strips_and_float_rejects_are_parse_errors(tmp_path, cell):
    path = tmp_path / "d.csv"
    path.write_text(f"a,y\n1,2.5\n0,{cell}\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_csv(str(path), {"treatment": "a", "outcome": "y"})
    assert str(err.value) == f"row 2, column 'y': could not parse {cell!r} as a number"


def test_bytes_not_utf8_outrank_a_bad_row(tmp_path):
    """A file that is not UTF-8 is a SchemaError, though an earlier row holds a bad cell."""
    path = tmp_path / "d.csv"
    path.write_bytes(b"a,y\n1,oops\n" + b"0,1.5\n" * 2000 + b"0,caf\xe9\n")
    with pytest.raises(SchemaError) as err:
        load_csv(str(path), {"treatment": "a", "outcome": "y"})
    assert str(err.value) == f"{path}: not UTF-8 text (byte 0xe9)"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("cell", ["2.5", "1_0", "oops"])
def test_pipe_is_read_once_row_by_row(tmp_path, cell):
    """A pipe cannot be read twice, so it goes through the row scan alone."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(f"a,y\n1,{cell}\n0,-4\n",), daemon=True)
    writer.start()
    try:
        got = block_parse(fifo, ["y"])
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    if cell == "oops":
        assert got == "row 1, column 'y': could not parse 'oops' as a number"
    else:
        assert same_bits([float(cell), -4.0], got["y"])


EMPTY_HEADER = "z,a,y,x,unit,period,group,prob"


@pytest.mark.parametrize(
    "text", ["", EMPTY_HEADER, EMPTY_HEADER + "\n", EMPTY_HEADER + "\n\n\r\n\n", EMPTY_HEADER + "\r\r"]
)
def test_empty_and_header_only_files(tmp_path, text):
    """No rows give empty datasets and an empty measure's ValidationError, with no warning."""
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8", newline="")
    loads = [
        lambda: load_csv(str(path), {"treatment": "a", "outcome": "y", "covariates": ["x"]}).n,
        lambda: load_iv_csv(str(path), {"instrument": "z", "treatment": "a", "outcome": "y"}).n,
        lambda: load_panel_csv(
            str(path), {"unit": "unit", "period": "period", "group": "group", "treatment": "a", "outcome": "y"}
        ).n,
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if not text:
            for load in [*loads, lambda: DiscreteMeasure.from_csv(str(path))]:
                with pytest.raises(SchemaError) as err:
                    load()
                assert str(err.value) == f"{path}: file is empty, expected a header row"
            return
        assert [load() for load in loads] == [0, 0, 0]
        with pytest.raises(ValidationError) as err:
            DiscreteMeasure.from_csv(str(path))
        assert str(err.value) == "support must contain at least one point"


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
