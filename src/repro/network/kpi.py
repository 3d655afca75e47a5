"""Per-cell KPI records: the Radio Network Performance feed.

The paper's commercial KPI solution exports hourly per-cell metrics;
the analysis then "aggregate[s] them per day and extract[s] the (hourly)
median value per cell" (§2.4). :class:`KpiAccumulator` implements that
exact reduction: the simulation pushes a day's hourly values (one
``(hours, cells)`` block per metric through ``add_day``), and the
accumulator reduces them to one row per (cell, day) holding the median
over the day's hours for every metric — the shape all of Figs 8–12
consume.  Each day becomes one block of :func:`kpi_row_dtype` rows,
the store's row format.  A run the engine streams into a directory
from day 0 writes each block through the staged ``radio_kpis.npy``
instead of keeping it
(:meth:`repro.io.columnar.ColumnarWriter.stage_kpis`), so the
coordinator holds no KPI row past the day that produced it.

Metrics (hourly, per 4G cell), following §2.4:

==============================  ==================================================
column                          meaning
==============================  ==================================================
``dl_volume_mb``                downlink data volume, all bearers QCI 1–8
``ul_volume_mb``                uplink data volume, all bearers QCI 1–8
``dl_active_users``             avg users with active data in the DL buffer
``radio_load_pct``              TTI utilization (percent)
``user_dl_throughput_mbps``     avg per-user DL throughput
``active_seconds``              seconds with active data in the cell
``connected_users``             total users attached to the cell (active + idle)
``voice_volume_mb``             conversational voice volume (QCI = 1)
``voice_users``                 avg simultaneous voice-active users
``voice_ul_loss_rate``          UL packet loss for voice bearers
``voice_dl_loss_rate``          DL packet loss for voice bearers
==============================  ==================================================
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.frames import Frame

__all__ = ["KPI_COLUMNS", "KpiAccumulator", "kpi_row_dtype"]

KPI_COLUMNS = (
    "dl_volume_mb",
    "ul_volume_mb",
    "dl_active_users",
    "radio_load_pct",
    "user_dl_throughput_mbps",
    "active_seconds",
    "connected_users",
    "voice_volume_mb",
    "voice_users",
    "voice_ul_loss_rate",
    "voice_dl_loss_rate",
)


def kpi_row_dtype(postcodes: np.ndarray) -> np.dtype:
    """The packed dtype of one (cell, day) row, as the store writes it.

    ``cell_id``, ``postcode`` (with ``postcodes``' dtype), ``day``,
    then :data:`KPI_COLUMNS` as float64: every row the accumulator
    emits, and so the fields :func:`repro.io.store.save_feeds` writes.
    """
    return np.dtype(
        [
            ("cell_id", np.int64),
            ("postcode", postcodes.dtype),
            ("day", np.int64),
            *((name, np.float64) for name in KPI_COLUMNS),
        ]
    )


class KpiAccumulator:
    """Collect hourly per-cell KPI vectors; emit daily per-cell medians.

    Parameters
    ----------
    cell_ids:
        Cell identifiers, fixed for the accumulator's lifetime.
    postcodes:
        Postcode district of each cell (same order), carried on every
        output row so the analysis can merge administrative labels.
    table:
        A staged table of :func:`kpi_row_dtype` rows, one block of
        cells per day from day 0
        (:meth:`repro.io.columnar.ColumnarWriter.stage_kpis`), that
        each day's block is written through instead of kept in memory;
        the engine passes one for a run it streams into a directory
        from day 0.
    """

    def __init__(
        self, cell_ids: np.ndarray, postcodes: np.ndarray, table=None
    ) -> None:
        if cell_ids.shape != postcodes.shape:
            raise ValueError("cell_ids and postcodes must align")
        self._cell_ids = cell_ids.astype(np.int64)
        self._postcodes = postcodes
        self._row_dtype = kpi_row_dtype(postcodes)
        self._table = table
        self._blocks: list[np.ndarray] = []

    @property
    def num_cells(self) -> int:
        return int(self._cell_ids.shape[0])

    def add_day(
        self, day: int, metrics: dict[str, np.ndarray], num_hours: int
    ) -> None:
        """Push a whole day of per-cell metric blocks and reduce it.

        Each metric is either ``(num_hours, num_cells)`` or a
        ``(num_cells,)`` vector that is broadcast over the hours (a
        metric constant within the day).  The day's row per cell holds
        the per-cell median over the hours, ``np.median`` over the hour
        axis.
        """
        telemetry.count("sim.kpi.add_day")
        missing = set(KPI_COLUMNS) - set(metrics)
        if missing:
            raise ValueError(f"missing KPI metrics: {sorted(missing)}")
        rows = np.empty(self.num_cells, dtype=self._row_dtype)
        rows["cell_id"] = self._cell_ids
        rows["postcode"] = self._postcodes
        rows["day"] = day
        for name in KPI_COLUMNS:
            block = np.asarray(metrics[name], dtype=np.float64)
            if block.ndim == 1:
                block = np.broadcast_to(
                    block, (num_hours, self.num_cells)
                )
            if block.shape != (num_hours, self.num_cells):
                raise ValueError(
                    f"metric {name} has shape {block.shape}, expected "
                    f"({num_hours}, {self.num_cells})"
                )
            rows[name] = np.median(block, axis=0)
        if self._table is None:
            self._blocks.append(rows)
        else:
            self._table.write_rows(day * self.num_cells, rows)

    def daily_frame(self) -> Frame:
        """All (cell, day) rows pushed so far, a field view per column.

        Streaming into a table, the fields are the table's map, read
        only and not read back (every row of the table, so every day of
        the run once it has run); otherwise they are the pushed blocks
        stacked in one array.
        """
        if self._table is not None:
            return self._table.frame()
        table = (
            np.concatenate(self._blocks)
            if self._blocks
            else np.empty(0, dtype=self._row_dtype)
        )
        return Frame({name: table[name] for name in self._row_dtype.names})
