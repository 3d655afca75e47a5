"""Pivot: long → wide reshaping for frames.

The mobility matrix of Fig 7 and several report tables are (row key ×
column key → value) matrices; :func:`pivot` builds them from long-form
frames with standard aggregation semantics.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro import telemetry
from repro.frames.frame import Frame
from repro.frames.groupby import group_by

__all__ = ["pivot"]


def pivot(
    frame: Frame,
    index: str,
    columns: str,
    values: str,
    aggregate: Any = "sum",
    fill: float = 0.0,
) -> Frame:
    """Reshape ``frame`` into one row per ``index`` value.

    Parameters
    ----------
    index:
        Column whose unique values become the output rows.
    columns:
        Column whose unique values become output columns (stringified).
    values:
        Column aggregated into the cells.
    aggregate:
        Any :meth:`GroupBy.agg` aggregation (default ``"sum"``).
    fill:
        Value for (index, column) pairs absent from the input.

    Examples
    --------
    >>> long = Frame({
    ...     "county": ["Kent", "Kent", "Essex"],
    ...     "day": [1, 2, 1],
    ...     "visitors": [10.0, 20.0, 5.0],
    ... })
    >>> wide = pivot(long, index="county", columns="day",
    ...              values="visitors")
    >>> wide["1"].tolist()
    [5.0, 10.0]
    """
    for name in (index, columns, values):
        if name not in frame:
            raise KeyError(f"frame lacks column {name!r}")
    aggregated = group_by(frame, [index, columns]).agg(
        _cell=(values, aggregate)
    )
    row_keys = np.unique(frame[index])
    column_keys = np.unique(frame[columns])
    grid = np.full((row_keys.size, column_keys.size), fill, dtype=np.float64)
    if telemetry.enabled():
        telemetry.count("frames.pivot.calls")
        telemetry.count("frames.pivot.rows_in", frame.num_rows)
        telemetry.count("frames.pivot.cells_out", int(grid.size))
    row_position = {key: i for i, key in enumerate(row_keys.tolist())}
    column_position = {key: i for i, key in enumerate(column_keys.tolist())}
    for row_key, column_key, value in zip(
        aggregated[index], aggregated[columns], aggregated["_cell"]
    ):
        grid[row_position[row_key], column_position[column_key]] = float(
            value
        )
    data: dict[str, Any] = {index: row_keys}
    for position, key in enumerate(column_keys.tolist()):
        data[str(key)] = grid[:, position]
    return Frame(data)
