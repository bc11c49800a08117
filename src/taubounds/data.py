"""Incomplete (x, y) records and their CSV form.

A :class:`Dataset` holds the records as two float columns, NaN marking a
missing cell, and derives from them the missingness pattern of each
record: 1 = both coordinates observed, 2 = only x, 3 = only y,
4 = neither.

CSV dialect: header ``x,y``; a missing cell is an empty string or the
literal ``NA``; decimal point only; UTF-8, with an optional byte-order
mark. Files are written in chunks of rows, and only the cells that hold a
value are formatted. A file in the written form (header ``x,y``, plain
numbers, ``\\n`` line ends) is read in blocks: the empty cells are found
by the position of each line's comma, and numpy's C parser converts the
other cells. Any other file, and every error, goes through one
``csv.reader`` row at a time.
"""

from __future__ import annotations

import csv
import math
import warnings
from array import array
from collections.abc import Iterable

import numpy as np

from .errors import CsvFormatError, DomainError, EmptyDataError

__all__ = [
    "Dataset",
    "read_csv",
    "write_csv",
]


def _patterns(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pattern column of float arrays whose missing cells are NaN."""
    return np.uint8(1) + np.uint8(2) * np.isnan(x) + np.isnan(y)


class Dataset:
    """Records as columns ``x`` and ``y`` (NaN = missing) and their patterns ``z``.

    Every value is finite or NaN; an infinite one raises
    :class:`DomainError`, so every dataset survives a CSV round trip.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise ValueError("x and y must be one-dimensional and equally long")
        for name, values in (("x", self.x), ("y", self.y)):
            if np.isinf(values).any():
                raise DomainError(f"non-finite {name} value; a missing cell is NaN")
        self.z = _patterns(self.x, self.y)
        self._counts = None

    @staticmethod
    def from_records(records: Iterable) -> "Dataset":
        """Dataset of (x, y) pairs, in which ``None`` or NaN marks a missing cell."""
        xs, ys = [], []
        for x, y in records:
            xs.append(math.nan if x is None else x)
            ys.append(math.nan if y is None else y)
        return Dataset(xs, ys)

    def __len__(self) -> int:
        return self.x.size

    def pattern_counts(self) -> np.ndarray:
        """Counts of patterns 1..4 as a length-4 read-only integer array,
        counted on the first call."""
        if self._counts is None:
            self._counts = np.bincount(self.z, minlength=5)[1:5]
            self._counts.setflags(write=False)
        return self._counts


def as_dataset(records) -> Dataset:
    """A Dataset, or (x, y) pairs made into one; raises :class:`EmptyDataError` if empty.

    The public analysis functions check their input here and nowhere else.
    """
    ds = records if isinstance(records, Dataset) else Dataset.from_records(records)
    if len(ds) == 0:
        raise EmptyDataError("no records supplied")
    return ds


# Rows formatted and written per call, so that the text of a large dataset
# is never held in memory at once.
_CHUNK_ROWS = 1 << 12


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset in the ``x,y`` dialect with empty cells for missing values.

    Each value is written as its shortest round-trip ``repr``; only the
    cells that hold one are formatted.
    """
    cells = np.empty((_CHUNK_ROWS, 4), dtype=object)
    cells[:, 1] = ","
    cells[:, 3] = "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for start in range(0, len(dataset), _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            x, y = dataset.x[start:stop], dataset.y[start:stop]
            rows = cells[:x.size]
            for column, values in ((0, x), (2, y)):
                present = ~np.isnan(values)
                rows[:, column] = ""
                rows[present, column] = list(map(repr, values[present].tolist()))
            fh.write("".join(rows.ravel().tolist()))


def _parse_cell(token: str, line_number: int, column: str) -> float:
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


def _parse_rows(rows) -> tuple[array, array]:
    """The x and y columns of the csv.reader rows that follow the header.

    Raises on the first malformed row, numbering the header line 1; blank
    rows are skipped but still numbered.
    """
    xs, ys = array("d"), array("d")
    for line_number, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise CsvFormatError(line_number, f"expected 2 columns, got {len(row)}")
        xs.append(_parse_cell(row[0], line_number, "x"))
        ys.append(_parse_cell(row[1], line_number, "y"))
    return xs, ys


# Bytes read per block of a plain numeric body: small, so that the text
# held at once stays far below the size of the output columns. Blocks of
# 16 KiB raised the peak memory of a 10^6-row simulate + analyze sequence
# by up to 6 MB (glibc heap growth); blocks of 8 KiB did not.
_BLOCK_BYTES = 1 << 13
# The bytes of a plain numeric body, the form write_csv writes.
_PLAIN_BYTES = b"0123456789+-.eE,\n"
_PLAIN_HEADERS = (b"x,y\n", b"\xef\xbb\xbfx,y\n")
_NEWLINE, _COMMA = ord("\n"), ord(",")
# Commas and line ends become the spaces that np.fromstring splits cells at.
_CELL_BREAKS = bytes.maketrans(b",\n", b"  ")
# Offsets from a comma to the bytes beside it, in the x and the y cell.
_CELL_SIDES = np.array([-1, 1])


def _add_plain_lines(text: bytes, xs: array, ys: array) -> bool:
    """Append the rows of whole lines of plain numbers to ``xs`` and ``ys``.

    Returns False, appending nothing, unless every byte is in the plain
    alphabet, no line is longer than ``csv.field_size_limit()``, every line
    that is not blank holds exactly one comma, and numpy parses the cells
    that are not empty into finite numbers, one per cell. A cell is empty
    when its comma touches the line's start or end; the other cells, if
    any, are parsed in one ``np.fromstring`` call. Within that
    alphabet numpy and ``float`` parse a cell with the same C routine, so
    the rows get the bits the row-by-row reader gives them.
    """
    if text.translate(None, _PLAIN_BYTES):
        return False
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, text.split(b"\n"))) > limit:
        return False
    if not text.strip(b"\n"):
        return True
    codes = np.frombuffer(text, dtype=np.uint8)
    # text ends with a line end, so codes[-1] reads as one before position 0
    ends = (codes == _NEWLINE).nonzero()[0]
    filled = (codes[ends - 1] != _NEWLINE).nonzero()[0]
    commas = (codes == _COMMA).nonzero()[0]
    # the lines of the commas, in order, must be the lines that are not blank
    if not np.array_equal(ends.searchsorted(commas), filled):
        return False
    # a cell is empty when the byte on its side of the comma is a line end
    present = codes[commas[:, None] + _CELL_SIDES] != _NEWLINE
    table = np.full(present.shape, np.nan)
    if cells := np.count_nonzero(present):
        # np.fromstring reads whitespace alone as [-1.], hence the guard; an
        # older numpy warns, instead of raising, when a token is cut short
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            try:
                values = np.fromstring(text.translate(_CELL_BREAKS), sep=" ")
            except (ValueError, DeprecationWarning):
                return False
        if values.size != cells or np.isinf(values).any():
            return False
        table[present] = values
    xs.frombytes(table[:, 0].tobytes())
    ys.frombytes(table[:, 1].tobytes())
    return True


def _read_plain(fh) -> tuple[array, array] | None:
    """The x and y columns of the rest of a binary file of plain numbers, read
    in blocks cut at their last line end, or None if it is not such a file."""
    xs, ys = array("d"), array("d")
    rest = b""
    while block := fh.read(_BLOCK_BYTES):
        text = rest + block
        cut = text.rfind(b"\n") + 1
        rest = text[cut:]
        if len(rest) > csv.field_size_limit() or not _add_plain_lines(text[:cut], xs, ys):
            return None
    if not _add_plain_lines(rest + b"\n", xs, ys):
        return None
    return xs, ys


def _read_rows(path) -> tuple[array, array]:
    """The x and y columns of a file, read one ``csv.reader`` row at a time."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyDataError(f"{path}: empty input")
        if [h.strip().lower() for h in header] != ["x", "y"]:
            raise CsvFormatError(1, f"expected header 'x,y', got {','.join(header)!r}")
        return _parse_rows(reader)


def read_csv(path) -> Dataset:
    """Read a dataset written in the ``x,y`` dialect.

    A file whose header line is exactly ``x,y`` and whose body holds only
    digits, ``+-.eE``, commas and ``\\n`` line ends (the form
    :func:`write_csv` writes) is parsed block by block with numpy's C
    parser. Every other file, and any such file with a line that is not two
    cells or a cell that numpy does not parse into one finite number, is
    read row by row with ``csv.reader``; both give the same bits.

    Raises :class:`CsvFormatError` (with the offending line number) on
    the first malformed row and :class:`EmptyDataError` when no data rows
    exist. The columns are parsed into ``array('d')`` buffers, which the
    returned dataset's arrays share without a copy.
    """
    with open(path, "rb") as fh:
        columns = _read_plain(fh) if fh.readline() in _PLAIN_HEADERS else None
    xs, ys = columns or _read_rows(path)
    if not xs:
        raise EmptyDataError(f"{path}: empty input")
    return Dataset(xs, ys)
