"""The CSV reader and the chunked CSV writer against reference oracles.

``oracle_read_csv`` and ``oracle_write_csv`` are the original one-call-per-
cell implementations, kept here as reference oracles: the reader must return
bit-equal arrays and raise the same exception with the same message, and the
writer must write the same bytes.
"""

import csv
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from taubounds import CdfTable, Dataset, read_csv, write_csv
from taubounds import data
from taubounds.errors import CsvFormatError, EmptyDataError
from taubounds.mgp import SCENARIOS, CovariateScale, simulate_dataset


# ---------------------------------------------------------------------------
# reference oracles


def _oracle_parse_cell(token, line_number, column):
    token = token.strip()
    if token in ("", "NA"):
        return math.nan
    try:
        value = float(token)
    except ValueError:
        raise CsvFormatError(line_number, f"cannot parse {column}={token!r}") from None
    if not math.isfinite(value):
        raise CsvFormatError(line_number, f"non-finite {column}={token!r}")
    return value


def oracle_read_csv(path):
    xs, ys = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyDataError(f"{path}: empty input")
        if [h.strip().lower() for h in header] != ["x", "y"]:
            raise CsvFormatError(1, f"expected header 'x,y', got {','.join(header)!r}")
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise CsvFormatError(line_number, f"expected 2 columns, got {len(row)}")
            xs.append(_oracle_parse_cell(row[0], line_number, "x"))
            ys.append(_oracle_parse_cell(row[1], line_number, "y"))
    if not xs:
        raise EmptyDataError(f"{path}: empty input")
    x = np.asarray(xs)
    y = np.asarray(ys)
    return Dataset(x, y)


def _oracle_format_cell(value):
    return "" if np.isnan(value) else repr(float(value))


def oracle_write_csv(dataset, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for xv, yv in zip(dataset.x, dataset.y):
            fh.write(f"{_oracle_format_cell(xv)},{_oracle_format_cell(yv)}\n")


def _outcome(read, path):
    """A reader's result as comparable bytes, or its exception type and message."""
    try:
        ds = read(path)
    except Exception as exc:  # any exception type and message must match
        return type(exc), str(exc)
    return ds.x.tobytes(), ds.y.tobytes(), ds.z.tobytes()


# ---------------------------------------------------------------------------
# reader


HEADERS = ["x,y", "X,Y", " x , y ", "x,Y\t", '"x","y"', '"x\n",y', "x", "x,y,z",
           "a,b", "", "x;y"]
GOOD_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(min_value=-10, max_value=10).map(lambda v: f"{v:.3g}"),
    st.sampled_from(["", "NA", " NA ", " ", " 0.5", "0.25 ", "\t1.5\t", "1_0",
                     '"0.5"', '"0.5\n"', '"\r\n0.5"', '"NA"', '""', '" 1e-3 "']),
)
BAD_CELLS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308 * 10]).map(repr),
    st.sampled_from(["na", "nan", "NaN", "-nan", "-Infinity", "1e999", "abc", "0x1p-2",
                     '"1,5"', '0"5', '"0.5\n,"', "\x00", '"inf"']),
)
GOOD_ROWS = st.one_of(st.just([]), st.lists(GOOD_CELLS, min_size=2, max_size=2))
BAD_ROWS = st.one_of(
    st.lists(GOOD_CELLS, min_size=1, max_size=1),
    st.lists(GOOD_CELLS, min_size=3, max_size=3),
    st.tuples(GOOD_CELLS, BAD_CELLS).map(list),
    st.tuples(BAD_CELLS, GOOD_CELLS).map(list),
)


@st.composite
def csv_texts(draw):
    """Small files: valid rows, at most two defects, mixed line ends."""
    header = draw(st.one_of(st.sampled_from(HEADERS), st.none()))
    if header is None:
        return ""
    rows = draw(st.lists(GOOD_ROWS, max_size=12))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(BAD_ROWS))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    text = header + draw(ends) + "".join(",".join(row) + draw(ends) for row in rows)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


PLAIN_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.just(""),
)
# cells of the plain alphabet that numpy and float may read differently
PLAIN_ODD_CELLS = st.text("0123456789+-.eE", max_size=8)
PLAIN_ODD_ROWS = st.one_of(
    st.tuples(PLAIN_CELLS, PLAIN_ODD_CELLS).map(list),
    st.tuples(PLAIN_ODD_CELLS, PLAIN_CELLS).map(list),
    st.lists(PLAIN_CELLS, min_size=1, max_size=1),
    st.lists(PLAIN_CELLS, min_size=3, max_size=3),
)


@st.composite
def plain_texts(draw):
    """Small files in write_csv's form, which the block reader parses: header
    ``x,y``, ``repr`` or empty cells, ``\n`` only; half carry one or two odd
    rows, so that a row of one cell and a row of three can balance."""
    rows = draw(st.lists(st.one_of(st.just([]), st.lists(PLAIN_CELLS, min_size=2, max_size=2)),
                         max_size=12))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        rows.insert(draw(st.integers(0, len(rows))), draw(PLAIN_ODD_ROWS))
    text = "x,y\n" + "".join(",".join(row) + "\n" for row in rows)
    if draw(st.booleans()):
        text = text.rstrip("\n")
    return text


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(plain_texts(), csv_texts()),
       block_bytes=st.sampled_from([1, 2, 3, 7, data._BLOCK_BYTES]))
@example(text="x,y\n0.5\n0.25,0.5,0.75\n", block_bytes=data._BLOCK_BYTES)
@example(text='x,y\n0.5,0.25\n"0.5\n",0.25\n', block_bytes=1)
@example(text="x,y\r\n\r\n0.5,NA\r\r,\n\n", block_bytes=1)
@example(text="x,y\r" + "0.5,0.25\r" * 4 + "junk,1\r", block_bytes=1)
@example(text="x,y\n,\n\n0.5,\n,-0.0\n1e-999,5.\n", block_bytes=3)
@example(text="x,y\n0.5,0.25\n1e999,0.5", block_bytes=7)
@example(text="x,y\n0.5,nan\n", block_bytes=data._BLOCK_BYTES)
@example(text="x,y\n1,2,3\n4\n", block_bytes=data._BLOCK_BYTES)
@example(text="x,y\n1-2,\n", block_bytes=data._BLOCK_BYTES)
@example(text="x,y\n0.5,1e\n", block_bytes=data._BLOCK_BYTES)
@example(text="x,y\n,\n,\n\n", block_bytes=data._BLOCK_BYTES)
@example(text="x,y\n5\n,\n", block_bytes=data._BLOCK_BYTES)
@example(text="x,y\n,,\n", block_bytes=data._BLOCK_BYTES)
def test_reader_matches_row_by_row_oracle(tmp_path, text, block_bytes):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(data, "_BLOCK_BYTES", block_bytes):
        got = _outcome(read_csv, path)
    assert got == _outcome(oracle_read_csv, path)


def _big_text(rng, n, bad_line=None, bad_row=None, quote_line=None):
    cells = [repr(v) for v in rng.random(n).tolist()]
    lines = ["x,y"] + [f"{c},NA" if i % 3 == 0 else f",{c}" if i % 3 == 1 else f"{c},{c}"
                       for i, c in enumerate(cells)]
    if quote_line is not None:
        lines[quote_line - 1] = '"0.5","0.25"'
    if bad_line is not None:
        lines[bad_line - 1] = bad_row
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("bad_line, bad_row, quote_line", [
    (None, None, None),
    (180_001, "0.5,junk", None),
    (180_001, "0.5,0.25,0.75", None),
    (180_001, "nan,0.5", None),
    (None, None, 90_000),
    (180_001, "0.5", 90_000),
])
def test_reader_matches_oracle_across_real_chunks(tmp_path, bad_line, bad_row, quote_line):
    # 200k rows span many reader blocks; their NA cells send the whole file
    # to the row-by-row reader, so the error or the first quote falls far
    # beyond the first block
    path = tmp_path / "big.csv"
    text = _big_text(np.random.default_rng(5), 200_000, bad_line, bad_row, quote_line)
    path.write_text(text, encoding="utf-8")
    assert path.stat().st_size > 3 * data._BLOCK_BYTES
    got = _outcome(read_csv, path)
    assert got == _outcome(oracle_read_csv, path)
    if bad_line is not None:
        assert f"line {bad_line}:" in got[1]


def test_reader_peak_memory_stays_near_output_size(tmp_path):
    # every third row holds NA, so this measures the row-by-row reader
    # the two float64 output columns take 16 bytes a row; the bound allows
    # three times that, which a per-column list of Python floats exceeds
    n = 200_000
    path = tmp_path / "big.csv"
    path.write_text(_big_text(np.random.default_rng(5), n), encoding="utf-8")
    tracemalloc.start()
    try:
        ds = read_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ds) == n
    assert peak / n < 3 * 16


def _written_dataset(rng, n):
    x, y = rng.random(n), rng.standard_normal(n)
    x[rng.random(n) < 0.3] = np.nan
    y[rng.random(n) < 0.3] = np.nan
    return Dataset(x, y)


def _row_reader_refused(rows):
    raise AssertionError("read row by row")


def test_block_reader_peak_memory_stays_near_output_size(tmp_path):
    # the same bound for a file that only the block reader reads
    n = 200_000
    path = tmp_path / "big.csv"
    write_csv(_written_dataset(np.random.default_rng(6), n), path)
    with mock.patch.object(data, "_parse_rows", _row_reader_refused):
        tracemalloc.start()
        try:
            ds = read_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(ds) == n
    assert peak / n < 3 * 16


def test_block_reader_reads_a_body_of_empty_cells(tmp_path):
    # no cell holds a number, so no block is handed to np.fromstring
    path = tmp_path / "empty_cells.csv"
    path.write_text("x,y\n" + ",\n,\n\n" * 5_000, encoding="utf-8")
    with mock.patch.object(data, "_parse_rows", _row_reader_refused):
        ds = read_csv(path)
    assert len(ds) == 10_000
    assert np.isnan(ds.x).all() and np.isnan(ds.y).all()
    assert (ds.z == 4).all()


def test_block_reader_fails_a_block_when_numpy_only_warns(tmp_path):
    # an older numpy returns a partial parse with a DeprecationWarning,
    # instead of raising, when a token is cut short: "1-2" then reads as [1.]
    def partial_parse(text, sep):
        warnings.warn("string or file could not be read to its end due to unmatched "
                      "data; this will raise a ValueError in the future.",
                      DeprecationWarning, stacklevel=2)
        return np.array([1.0])

    path = tmp_path / "cut.csv"
    path.write_text("x,y\n1-2,\n", encoding="utf-8")
    with mock.patch.object(np, "fromstring", partial_parse):
        got = _outcome(read_csv, path)
    assert got == (CsvFormatError, "line 2: cannot parse x='1-2'")
    assert got == _outcome(oracle_read_csv, path)


@pytest.mark.parametrize("scale", list(CovariateScale))
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_block_reader_reads_simulated_datasets(tmp_path, name, scale):
    ds = simulate_dataset(SCENARIOS[name].config(scale), 100_000, seed=3)
    path = tmp_path / "sim.csv"
    write_csv(ds, path)
    with mock.patch.object(data, "_parse_rows", _row_reader_refused):
        back = read_csv(path)
    assert back.x.tobytes() == ds.x.tobytes() and back.y.tobytes() == ds.y.tobytes()
    assert np.array_equal(back.z, ds.z)


LATE_ROWS = {
    "overflow": "1e999,0.5",
    "two-points": "0.5,1.2.3",
    "three-cells": "0.5,0.25,0.75",
    "one-cell": "0.5",
    "NA": "0.5,NA",
    "space": " 0.5,0.25",
    "long-cell": "0." + "0" * 131_070 + "1,0.5",
}


@pytest.mark.parametrize("bad_row", LATE_ROWS.values(), ids=LATE_ROWS.keys())
def test_block_reader_falls_back_in_a_late_block(tmp_path, bad_row):
    bad_line = 180_001
    path = tmp_path / "big.csv"
    write_csv(_written_dataset(np.random.default_rng(7), 200_000), path)
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[bad_line - 1] = bad_row
    path.write_text("\n".join(lines), encoding="utf-8")
    with mock.patch.object(data, "_add_plain_lines", wraps=data._add_plain_lines) as plain, \
            mock.patch.object(data, "_parse_rows", wraps=data._parse_rows) as rows:
        got = _outcome(read_csv, path)
    assert plain.call_count > 100 and rows.call_count == 1
    assert got == _outcome(oracle_read_csv, path)
    if got[0] is CsvFormatError:
        assert f"line {bad_line}:" in got[1]


def test_block_reader_stops_at_a_line_over_the_field_limit(tmp_path):
    # the block reader gives up once an unfinished line passes the limit,
    # instead of reading the rest of it
    limit = csv.field_size_limit()
    path = tmp_path / "long.csv"
    path.write_text("x,y\n" + "1" * (8 * limit) + ",0.5\n", encoding="utf-8")
    with mock.patch.object(data, "_add_plain_lines", wraps=data._add_plain_lines) as plain:
        got = _outcome(read_csv, path)
    assert got == _outcome(oracle_read_csv, path)
    assert got[0] is csv.Error
    assert plain.call_count < 2 * limit / data._BLOCK_BYTES


@pytest.mark.parametrize("text", ["x,y\n", "x,y\n\n\n", "\ufeffx,y\n\n"])
def test_block_reader_empty_body_raises_without_warning(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings(), \
            mock.patch.object(data, "_parse_rows", _row_reader_refused):
        warnings.simplefilter("error")
        with pytest.raises(EmptyDataError, match="empty input"):
            read_csv(path)


def test_block_reader_accepts_byte_order_mark_without_warning(tmp_path):
    body = "x,y\n0.5,\n\n,0.25\n-1e-05,3.0\n"
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(body, encoding="utf-8")
    bom.write_text("\ufeff" + body, encoding="utf-8")
    with warnings.catch_warnings(), \
            mock.patch.object(data, "_parse_rows", _row_reader_refused):
        warnings.simplefilter("error")
        assert _outcome(read_csv, bom) == _outcome(read_csv, plain)
    assert _outcome(read_csv, plain) == _outcome(oracle_read_csv, plain)


def test_reader_keeps_csv_field_size_limit(tmp_path):
    # csv.reader rejects a field longer than csv.field_size_limit(), which
    # would otherwise read as 0.0, since the value underflows
    path = tmp_path / "long.csv"
    path.write_text("x,y\n0.5,0.5\n0." + "0" * 200_000 + "1,0.5\n", encoding="utf-8")
    got = _outcome(read_csv, path)
    assert got == _outcome(oracle_read_csv, path)
    assert got[0] is csv.Error


def test_reader_accepts_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfx,y\r\n0.5,NA\r\n0.25,0.75\r\n")
    ds = read_csv(path)
    assert np.array_equal(ds.x, [0.5, 0.25])
    assert np.array_equal(ds.y, [np.nan, 0.75], equal_nan=True)
    with pytest.raises(CsvFormatError, match="got '\\\\ufeffx,y'"):
        oracle_read_csv(path)


def test_cdf_table_keeps_first_knot_after_byte_order_mark(tmp_path):
    path = tmp_path / "cdf.csv"
    path.write_bytes(b"\xef\xbb\xbf0,0\n0.5,1e-7\n1,1\n")
    table = CdfTable.from_csv(path)
    assert table.knots.tolist() == [0.0, 0.5, 1.0]
    assert table.cdf.tolist() == [0.0, 1e-7, 1.0]


# ---------------------------------------------------------------------------
# writer


def _written(write, dataset, path):
    write(dataset, path)
    return path.read_bytes()


@pytest.mark.parametrize("x, y", [
    ([-0.0, 5e-324, 1e-5, 1e16, np.nan, 0.1], [np.nan, np.nan, -0.0, 5e-324, 1e-5, 1e16]),
    ([np.nan], [np.nan]),
    ([], []),
])
def test_writer_matches_oracle_on_special_values(tmp_path, x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    ds = Dataset(x, y)
    assert (_written(write_csv, ds, tmp_path / "new.csv")
            == _written(oracle_write_csv, ds, tmp_path / "old.csv"))
    if len(ds):
        back = read_csv(tmp_path / "new.csv")
        assert back.x.tobytes() == ds.x.tobytes() and back.y.tobytes() == ds.y.tobytes()


def test_reader_derives_patterns_once(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n0.5,\n,0.25\n0.5,0.75\n", encoding="utf-8")
    with mock.patch.object(data, "_patterns", wraps=data._patterns) as patterns:
        ds = read_csv(path)
    assert patterns.call_count == 1
    assert ds.z.tolist() == [2, 3, 1]


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_writer_matches_oracle_at_chunk_boundary(tmp_path, offset):
    n = data._CHUNK_ROWS + offset
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    y = rng.random(n)
    x[rng.random(n) < 0.2] = np.nan
    y[rng.random(n) < 0.2] = np.nan
    ds = Dataset(x, y)
    assert (_written(write_csv, ds, tmp_path / "new.csv")
            == _written(oracle_write_csv, ds, tmp_path / "old.csv"))
    back = read_csv(tmp_path / "new.csv")
    assert back.x.tobytes() == ds.x.tobytes() and back.y.tobytes() == ds.y.tobytes()
    assert np.array_equal(back.z, ds.z)
