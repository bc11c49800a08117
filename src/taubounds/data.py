"""Incomplete (x, y) records and their CSV form.

A :class:`Dataset` holds the records as two float columns, NaN marking a
missing cell, and derives from them the missingness pattern of each
record: 1 = both coordinates observed, 2 = only x, 3 = only y,
4 = neither.

CSV dialect: header ``x,y``; a missing cell is an empty string or the
literal ``NA``; decimal point only; UTF-8, with an optional byte-order
mark. Files are read and written in chunks of rows; see :func:`read_csv`.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections.abc import Iterable

import numpy as np

from .errors import CsvFormatError, DomainError, EmptyDataError

__all__ = [
    "Dataset",
    "as_dataset",
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

    def permuted(self, order: np.ndarray) -> "Dataset":
        return Dataset(self.x[order], self.y[order])


def as_dataset(records) -> Dataset:
    """A Dataset, or (x, y) pairs made into one; raises :class:`EmptyDataError` if empty.

    The public analysis functions check their input here and nowhere else.
    """
    ds = records if isinstance(records, Dataset) else Dataset.from_records(records)
    if len(ds) == 0:
        raise EmptyDataError("no records supplied")
    return ds


# Rows per chunk, when writing and when reading. Small, so that a chunk's
# csv.reader rows are freed before the cyclic garbage collector scans them
# again and again: with 2^16 rows a 10^6-row read took about 1.5x as long.
_CHUNK_ROWS = 1 << 9
# The cells read as missing, each mapped to a token ``float`` reads as NaN.
_MISSING_AS_NAN = {"": "nan", "NA": "nan"}


def _format_column(values: np.ndarray) -> list[str]:
    """Cells of one column: the shortest round-trip repr, empty for NaN."""
    return ["" if v != v else repr(v) for v in values.tolist()]


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset in the ``x,y`` dialect with empty cells for missing values."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for start in range(0, len(dataset), _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            rows = zip(_format_column(dataset.x[start:stop]),
                       _format_column(dataset.y[start:stop]))
            fh.write("".join([f"{x},{y}\n" for x, y in rows]))


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


def _parse_rows(rows, line_number: int) -> tuple[list[float], list[float]]:
    """Row-by-row parse of csv.reader rows, the first numbered ``line_number``.

    This is the reference reading of the dialect: it raises on the first
    malformed row, and blank rows are skipped but still numbered.
    """
    xs, ys = [], []
    for line_number, row in enumerate(rows, start=line_number):
        if not row:
            continue
        if len(row) != 2:
            raise CsvFormatError(line_number, f"expected 2 columns, got {len(row)}")
        xs.append(_parse_cell(row[0], line_number, "x"))
        ys.append(_parse_cell(row[1], line_number, "y"))
    return xs, ys


def _split_rows(rows: list[list[str]]):
    """The x and y cells of csv.reader rows; None unless every non-blank row has two."""
    if not set(map(len, rows)) <= {0, 2}:
        return None
    cells = list(itertools.chain.from_iterable(rows))
    return cells[0::2], cells[1::2]


def _convert(cells) -> np.ndarray | None:
    """Float column of cells in one pass; None if a cell needs ``_parse_cell``.

    Exact ``""`` and ``"NA"`` cells are missing. Anything else ``float``
    rejects, and any non-finite value, sends the chunk to the row-by-row
    parser, which accepts padded missing cells and reports the rest.
    """
    try:
        values = np.fromiter(map(float, map(_MISSING_AS_NAN.get, cells, cells)),
                             dtype=float, count=len(cells))
    except ValueError:
        return None
    missing = cells.count("") + cells.count("NA")
    return values if np.count_nonzero(np.isfinite(values)) + missing == len(cells) else None


def read_csv(path) -> Dataset:
    """Read a dataset written in the ``x,y`` dialect.

    Raises :class:`CsvFormatError` (with the offending line number) on
    malformed rows and :class:`EmptyDataError` when no data rows exist.
    One csv.reader tokenises the file; its rows are converted in bulk,
    ``_CHUNK_ROWS`` at a time. A chunk that fails is parsed again row by
    row, which names the first offending line.
    """
    xs, ys = [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyDataError(f"{path}: empty input")
        if [h.strip().lower() for h in header] != ["x", "y"]:
            raise CsvFormatError(1, f"expected header 'x,y', got {','.join(header)!r}")
        line_number = 2
        while rows := list(itertools.islice(reader, _CHUNK_ROWS)):
            x = y = None
            if (cells := _split_rows(rows)) is not None:
                x, y = _convert(cells[0]), _convert(cells[1])
            if x is None or y is None:
                x, y = (np.asarray(col, dtype=float) for col in _parse_rows(rows, line_number))
            xs.append(x)
            ys.append(y)
            line_number += len(rows)
    if not any(x.size for x in xs):
        raise EmptyDataError(f"{path}: empty input")
    return Dataset(np.concatenate(xs), np.concatenate(ys))
