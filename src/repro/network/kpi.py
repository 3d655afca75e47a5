"""Per-cell KPI records: the Radio Network Performance feed.

The paper's commercial KPI solution exports hourly per-cell metrics;
the analysis then "aggregate[s] them per day and extract[s] the (hourly)
median value per cell" (§2.4). :class:`KpiAccumulator` implements that
exact reduction: the simulation pushes a day's hourly values (one
``(hours, cells)`` block per metric through ``add_day``), and the
accumulator keeps only one row per (cell, day) holding the median over
the day's hours for every metric — the shape all of Figs 8–12 consume.

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
from repro.frames import Frame, concat

__all__ = ["KPI_COLUMNS", "KpiAccumulator"]

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


class KpiAccumulator:
    """Collect hourly per-cell KPI vectors; emit daily per-cell medians.

    Parameters
    ----------
    cell_ids:
        Cell identifiers, fixed for the accumulator's lifetime.
    postcodes:
        Postcode district of each cell (same order), carried on every
        output row so the analysis can merge administrative labels.
    """

    def __init__(self, cell_ids: np.ndarray, postcodes: np.ndarray) -> None:
        if cell_ids.shape != postcodes.shape:
            raise ValueError("cell_ids and postcodes must align")
        self._cell_ids = cell_ids.astype(np.int64)
        self._postcodes = postcodes
        self._daily_frames: list[Frame] = []

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
        data = {
            "cell_id": self._cell_ids,
            "postcode": self._postcodes,
            "day": np.full(self.num_cells, day, dtype=np.int64),
        }
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
            data[name] = np.median(block, axis=0)
        self._daily_frames.append(Frame(data))

    def daily_frame(self) -> Frame:
        """All (cell, day) rows pushed so far."""
        if not self._daily_frames:
            return Frame(
                {"cell_id": np.empty(0, dtype=np.int64),
                 "postcode": np.empty(0, dtype=str),
                 "day": np.empty(0, dtype=np.int64),
                 **{name: np.empty(0) for name in KPI_COLUMNS}}
            )
        return concat(self._daily_frames)
