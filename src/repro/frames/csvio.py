"""CSV round-trip for frames.

Analysis tables are exported as CSV for external tools
(:mod:`repro.io.export`, ``python -m repro export``). The format is
plain RFC-4180-ish CSV with a header row; dtypes are inferred on read
(int, then float, then string).

Missing values: a NaN float cell is written as an *empty* field and an
empty field in an otherwise numeric column reads back as NaN (the
column is promoted to float64 if it was integral). Bare ``nan`` /
``inf`` strings are **not** treated as numbers — a column containing
them stays a string column, so free-text columns cannot be silently
demoted to floats. (Actual ±inf values therefore do not round-trip;
the feeds never produce them.)
"""

from __future__ import annotations

import csv
import io
import math
import re
from pathlib import Path

import numpy as np

from repro.frames.frame import Frame

__all__ = ["read_csv", "write_csv", "dumps_csv", "loads_csv"]


def write_csv(frame: Frame, path: str | Path) -> None:
    """Write ``frame`` to ``path`` as CSV with a header row."""
    Path(path).write_text(dumps_csv(frame), encoding="utf-8")


def dumps_csv(frame: Frame) -> str:
    """Serialize ``frame`` to a CSV string (NaN floats become empty)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    names = frame.column_names
    writer.writerow(names)
    columns = [frame[name] for name in names]
    for row in zip(*(column.tolist() for column in columns)):
        writer.writerow(
            "" if isinstance(cell, float) and math.isnan(cell) else cell
            for cell in row
        )
    return buffer.getvalue()


def read_csv(path: str | Path) -> Frame:
    """Read a CSV file written by :func:`write_csv` back into a frame."""
    return loads_csv(Path(path).read_text(encoding="utf-8"))


def loads_csv(text: str) -> Frame:
    """Parse CSV text into a frame, inferring column dtypes."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        return Frame()
    raw_columns: list[list[str]] = [[] for _ in header]
    for row in reader:
        if not row:
            # A blank line is skippable noise for multi-column files,
            # but for a single-column file it IS a row with one empty
            # cell (that is exactly how an empty field serializes).
            if len(header) == 1:
                row = [""]
            else:
                continue
        if len(row) != len(header):
            raise ValueError(
                f"row has {len(row)} fields, header has {len(header)}"
            )
        for cell, column in zip(row, raw_columns):
            column.append(cell)
    data = {
        name: _infer_column(values) for name, values in zip(header, raw_columns)
    }
    return Frame(data)


# Strict numeric literals: plain ints, and decimal/scientific floats.
# Deliberately rejects python's permissive extras — "nan", "inf",
# "Infinity", underscore separators — so free text never parses as a
# number.
_INT_PATTERN = re.compile(r"[+-]?\d+\Z")
_FLOAT_PATTERN = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z")


def _infer_column(values: list[str]) -> np.ndarray:
    present = [value for value in values if value != ""]
    if present and all(_INT_PATTERN.match(value) for value in present):
        if len(present) == len(values):
            return np.array([int(value) for value in values], dtype=np.int64)
        # Integers with gaps promote to float64 so NaN can mark holes.
        return np.array(
            [float(value) if value else np.nan for value in values],
            dtype=np.float64,
        )
    if present and all(_FLOAT_PATTERN.match(value) for value in present):
        return np.array(
            [float(value) if value else np.nan for value in values],
            dtype=np.float64,
        )
    if values and all(value in ("True", "False") for value in values):
        return np.array([value == "True" for value in values], dtype=bool)
    return np.array(values, dtype=str)
