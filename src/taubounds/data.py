"""Observation records with missingness patterns, and their CSV form.

Patterns: 1 = both coordinates observed, 2 = only x, 3 = only y,
4 = neither. A :class:`Dataset` stores records in flat arrays (missing
cells are NaN internally) and behaves as a sequence of
:class:`ObservationRecord`.

CSV dialect: header ``x,y``; a missing cell is an empty string or the
literal ``NA``; decimal point only; UTF-8.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import CsvFormatError, EmptyDataError

__all__ = [
    "ObservationRecord",
    "Dataset",
    "classify_pattern",
    "as_dataset",
    "read_csv",
    "write_csv",
]


def _present(value) -> bool:
    return value is not None and not (isinstance(value, float) and math.isnan(value))


def classify_pattern(x: float | None, y: float | None) -> int:
    """Missingness pattern of a record: 1 both, 2 only x, 3 only y, 4 neither."""
    if _present(x):
        return 1 if _present(y) else 2
    return 3 if _present(y) else 4


def _patterns(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pattern column of float arrays whose missing cells are NaN."""
    x_here = ~np.isnan(x)
    y_here = ~np.isnan(y)
    return np.where(x_here, np.where(y_here, 1, 2),
                    np.where(y_here, 3, 4)).astype(np.uint8)


@dataclass(frozen=True)
class ObservationRecord:
    """One possibly incomplete observation; ``z`` must match which fields are set."""

    x: float | None
    y: float | None
    z: int

    def __post_init__(self):
        if self.z != classify_pattern(self.x, self.y):
            raise ValueError(
                f"pattern {self.z} inconsistent with presence of (x={self.x!r}, y={self.y!r})")

    @staticmethod
    def of(x: float | None, y: float | None) -> "ObservationRecord":
        return ObservationRecord(x, y, classify_pattern(x, y))


class Dataset(Sequence):
    """Array-backed sequence of observation records."""

    def __init__(self, x: np.ndarray, y: np.ndarray, z: np.ndarray):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.z = np.asarray(z, dtype=np.uint8)
        if not (self.x.shape == self.y.shape == self.z.shape) or self.x.ndim != 1:
            raise ValueError("x, y, z must be one-dimensional and equally long")
        if not np.array_equal(_patterns(self.x, self.y), self.z):
            raise ValueError("pattern column inconsistent with missing cells")

    @staticmethod
    def from_records(records: Iterable) -> "Dataset":
        xs, ys = [], []
        for rec in records:
            if isinstance(rec, ObservationRecord):
                rx, ry = rec.x, rec.y
            else:
                rx, ry = rec
            xs.append(float(rx) if _present(rx) else np.nan)
            ys.append(float(ry) if _present(ry) else np.nan)
        x = np.asarray(xs, dtype=float)
        y = np.asarray(ys, dtype=float)
        return Dataset(x, y, _patterns(x, y))

    def __len__(self) -> int:
        return self.x.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Dataset(self.x[index], self.y[index], self.z[index])
        xv, yv = self.x[index], self.y[index]
        return ObservationRecord(
            None if np.isnan(xv) else float(xv),
            None if np.isnan(yv) else float(yv),
            int(self.z[index]),
        )

    def pattern_counts(self) -> np.ndarray:
        """Counts of patterns 1..4 as a length-4 integer array."""
        return np.bincount(self.z, minlength=5)[1:5]

    def permuted(self, order: np.ndarray) -> "Dataset":
        return Dataset(self.x[order], self.y[order], self.z[order])


def as_dataset(records) -> Dataset:
    """Coerce a Dataset or an iterable of records / (x, y) pairs to a Dataset."""
    if isinstance(records, Dataset):
        return records
    return Dataset.from_records(records)


def _format_cell(value: float) -> str:
    return "" if np.isnan(value) else repr(float(value))


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset in the ``x,y`` dialect with empty cells for missing values."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for xv, yv in zip(dataset.x, dataset.y):
            fh.write(f"{_format_cell(xv)},{_format_cell(yv)}\n")


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


def read_csv(path) -> Dataset:
    """Read a dataset written in the ``x,y`` dialect.

    Raises :class:`CsvFormatError` (with the offending line number) on
    malformed rows and :class:`EmptyDataError` when no data rows exist.
    """
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
            xs.append(_parse_cell(row[0], line_number, "x"))
            ys.append(_parse_cell(row[1], line_number, "y"))
    if not xs:
        raise EmptyDataError(f"{path}: empty input")
    x = np.asarray(xs)
    y = np.asarray(ys)
    return Dataset(x, y, _patterns(x, y))
