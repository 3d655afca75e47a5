"""Network-performance weekly series (Figs 8, 10, 11, 12).

The KPI feed is daily per-cell medians (§2.4). For each figure the
paper pools the per-cell daily values of a slice of cells (a region, a
geodemographic cluster, a London postal district, or the whole UK),
takes the weekly median, and reports the delta percentage against the
week-9 median of the same slice.

A figure plots several KPIs over one slice, so
:func:`performance_panel` selects the slice's rows and factorizes its
(label, week) groups once, and per KPI only sorts the values within
those groups; :func:`performance_series` is its one-KPI call.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.baseline import weekly_median_delta
from repro.frames import Frame, kernels
from repro.geo.build import STUDY_REGIONS
from repro.simulation.clock import BASELINE_WEEK
from repro.simulation.feeds import DataFeeds

__all__ = [
    "WeeklySeries",
    "performance_panel",
    "performance_series",
    "label_kpis",
    "PERF_METRICS",
]

# The §2.4 metric names as they appear in the KPI feed.
PERF_METRICS = (
    "dl_volume_mb",
    "ul_volume_mb",
    "dl_active_users",
    "user_dl_throughput_mbps",
    "radio_load_pct",
    "connected_users",
)

GROUPINGS = ("national", "region", "county", "district_area", "oac")


@dataclass
class WeeklySeries:
    """Weekly delta-percentage series per group for one KPI."""

    metric: str
    weeks: np.ndarray
    values: dict[str, np.ndarray]
    percentile: float = 50.0

    def group(self, name: str) -> np.ndarray:
        return self.values[name]

    def at_week(self, group: str, week: int) -> float:
        index = np.flatnonzero(self.weeks == week)
        if index.size == 0:
            raise KeyError(f"week {week} not in series")
        return float(self.values[group][index[0]])

    def minimum(self, group: str) -> tuple[int, float]:
        """(week, value) of the series minimum."""
        series = self.values[group]
        index = int(series.argmin())
        return int(self.weeks[index]), float(series[index])

    def maximum(self, group: str) -> tuple[int, float]:
        """(week, value) of the series maximum."""
        series = self.values[group]
        index = int(series.argmax())
        return int(self.weeks[index]), float(series[index])

    def to_frame(self) -> Frame:
        """Long-form frame: (group, week, change_pct) rows."""
        groups: list[str] = []
        weeks: list[int] = []
        changes: list[float] = []
        for group, values in self.values.items():
            for week, value in zip(self.weeks.tolist(), values):
                groups.append(str(group))
                weeks.append(int(week))
                changes.append(float(value))
        return Frame(
            {"group": groups, "week": weeks, "change_pct": changes}
        )


def label_kpis(feeds: DataFeeds) -> Frame:
    """Attach week / county / region / area / OAC labels to KPI rows.

    Uses direct array mapping (not a relational join) because the KPI
    frame has one row per (cell, day) and the labels are functions of
    the cell's postcode district: each distinct postcode is looked up
    once and its district index spread back over the rows.
    """
    kpis = feeds.radio_kpis
    geography = feeds.geography
    code_to_index = {
        district.code: index
        for index, district in enumerate(geography.districts)
    }
    codes, code_rows = np.unique(kpis["postcode"], return_inverse=True)
    district_index = np.array(
        [code_to_index[code] for code in codes.tolist()], dtype=np.int64
    )[code_rows]
    districts = geography.districts
    county = np.array([d.county for d in districts])[district_index]
    region = np.array([d.region for d in districts])[district_index]
    area = np.array([d.area_code for d in districts])[district_index]
    oac = np.array([d.oac.value for d in districts])[district_index]
    weeks = feeds.calendar.weeks[kpis["day"]]
    out = kpis.with_column("week", weeks)
    out = out.with_column("county", county)
    out = out.with_column("region", region)
    out = out.with_column("area", area)
    return out.with_column("oac", oac)


def performance_panel(
    feeds: DataFeeds,
    metrics: Iterable[str],
    grouping: str = "national",
    counties: tuple[str, ...] | None = None,
    restrict_county: str | None = None,
    include_national: bool = True,
    baseline_week: int = BASELINE_WEEK,
    percentile: float = 50.0,
    labeled: Frame | None = None,
) -> dict[str, WeeklySeries]:
    """Weekly median delta series for several KPIs over one slice.

    Returns ``{metric: WeeklySeries}`` in the order of ``metrics``;
    each series equals :func:`performance_series` for that metric
    bitwise.  The slice's rows are selected and its (label, week)
    groups factorized once for the whole panel.  Under
    ``REPRO_FRAMES_NAIVE=1`` every KPI runs the per-label reference
    loop instead.

    Parameters
    ----------
    metrics:
        KPI column names (see ``PERF_METRICS`` and the voice metrics).
    grouping:
        ``"national"`` — one UK-wide series; ``"region"`` — one series
        per broad region (London, North West, ...); ``"county"`` — one
        series per county (default: the five study regions);
        ``"district_area"`` — one series per postcode area (used with
        ``restrict_county`` for the London Fig 11); ``"oac"`` — one
        series per geodemographic cluster.
    counties:
        County names for the ``"county"`` grouping.
    restrict_county:
        Keep only cells of this county before grouping (Figs 11, 12).
    include_national:
        For the county grouping, add the "UK" series (Fig 8 plots both).
    percentile:
        50 reproduces the paper's medians; other values give the
        percentile bands mentioned in the text.
    labeled:
        Pre-labeled KPI frame from :func:`label_kpis` (avoids repeating
        the labelling for every figure).

    Raises ``ValueError`` for an unknown grouping, an empty slice or a
    slice (or group) with no baseline-week row, and ``KeyError`` for an
    unknown KPI.  An unknown grouping or KPI is rejected before any row
    is selected, an empty slice before any series is computed.
    """
    if grouping not in GROUPINGS:
        raise ValueError(f"grouping must be one of {GROUPINGS}")
    frame = labeled if labeled is not None else label_kpis(feeds)
    metrics = tuple(metrics)
    for metric in metrics:
        if metric not in frame:
            raise KeyError(f"unknown KPI metric {metric!r}")

    in_slice = frame["week"] >= baseline_week
    if restrict_county is not None:
        in_slice &= frame["county"] == restrict_county
    rows = np.flatnonzero(in_slice)
    if rows.size == 0:
        raise ValueError("no data for the requested slice")
    weeks = frame["week"][rows]
    national = grouping == "national" or (
        grouping == "county" and include_national
    )
    label_column = {
        "region": "region",
        "county": "county",
        "district_area": "area",
        "oac": "oac",
    }.get(grouping)
    grouped = None
    if label_column is not None:
        labels = frame[label_column][rows]
        wanted = (
            list(counties or STUDY_REGIONS) if grouping == "county" else None
        )
        if kernels.use_naive():
            grouped = partial(
                _grouped_weekly_delta,
                weeks=weeks,
                labels=labels,
                wanted=wanted,
                baseline_week=baseline_week,
                percentile=percentile,
            )
        else:
            grouped = _WeeklyGroups(
                labels, weeks, wanted, baseline_week, percentile
            ).deltas

    panel: dict[str, WeeklySeries] = {}
    for metric in metrics:
        values = frame[metric][rows]
        series: dict[str, np.ndarray] = {}
        axis: np.ndarray | None = None
        if national:
            axis, series["UK"] = weekly_median_delta(
                values, weeks, baseline_week, percentile=percentile
            )
        if grouped is not None:
            for name, group_axis, deltas in grouped(values):
                axis, series[name] = group_axis, deltas
        if axis is None:
            raise ValueError("no data for the requested slice")
        panel[metric] = WeeklySeries(
            metric=metric, weeks=axis, values=series, percentile=percentile
        )
    return panel


def performance_series(
    feeds: DataFeeds,
    metric: str,
    grouping: str = "national",
    counties: tuple[str, ...] | None = None,
    restrict_county: str | None = None,
    include_national: bool = True,
    baseline_week: int = BASELINE_WEEK,
    percentile: float = 50.0,
    labeled: Frame | None = None,
) -> WeeklySeries:
    """Weekly median delta series for one KPI.

    The one-KPI call of :func:`performance_panel`; the parameters are
    the same, with ``metric`` one KPI column name.
    """
    return performance_panel(
        feeds,
        (metric,),
        grouping=grouping,
        counties=counties,
        restrict_county=restrict_county,
        include_national=include_national,
        baseline_week=baseline_week,
        percentile=percentile,
        labeled=labeled,
    )[metric]


class _WeeklyGroups:
    """The value-independent half of the grouped weekly percentile.

    Factorizes (label, week) to composite segment codes and sorts the
    rows by segment once; the segments, the week axis of every selected
    label and the position of its baseline week then serve any number
    of value columns, each costing one gather, a stable sort inside
    every segment and one percentile pass.  Labels with no rows are
    skipped; ``wanted`` restricts and orders the output (default: all
    labels in sorted order).
    """

    def __init__(
        self,
        labels: np.ndarray,
        weeks: np.ndarray,
        wanted: list[str] | None,
        baseline_week: int,
        percentile: float,
    ) -> None:
        label_keys, label_codes = np.unique(labels, return_inverse=True)
        week_keys, week_codes = np.unique(weeks, return_inverse=True)
        composite = label_codes.astype(np.int64) * week_keys.size + week_codes
        # Rows in (label, week) order, ties in row order: with a stable
        # sort inside each segment this is np.lexsort((values,
        # composite)), one value column at a time.
        self._order = np.argsort(composite, kind="stable")
        sorted_composite = composite[self._order]
        boundaries = np.ones(sorted_composite.size, dtype=bool)
        boundaries[1:] = sorted_composite[1:] != sorted_composite[:-1]
        self._starts = np.flatnonzero(boundaries)
        self._ends = np.append(self._starts[1:], sorted_composite.size)
        self._bounds = list(zip(self._starts.tolist(), self._ends.tolist()))
        cell_codes = sorted_composite[self._starts]
        cell_labels = cell_codes // week_keys.size
        self._cell_weeks = week_keys[cell_codes % week_keys.size]
        self._baseline_week = baseline_week
        self._percentile = percentile

        if wanted is not None:
            positions = np.searchsorted(label_keys, wanted)
            selected = [
                (name, position)
                for name, position in zip(wanted, positions)
                if position < label_keys.size
                and label_keys[position] == name
            ]
        else:
            selected = [
                (str(name), position)
                for position, name in enumerate(label_keys.tolist())
            ]
        # (name, the group's cells, its baseline cell or None)
        self._groups = []
        for name, position in selected:
            cells = np.flatnonzero(cell_labels == position)
            if cells.size == 0:
                continue
            in_baseline = np.flatnonzero(
                self._cell_weeks[cells] == baseline_week
            )
            baseline = int(in_baseline[0]) if in_baseline.size else None
            self._groups.append((str(name), cells, baseline))

    def deltas(
        self, values: np.ndarray
    ) -> list[tuple[str, np.ndarray, np.ndarray]]:
        """Per-group ``(name, weeks, delta_pct)`` series of one column."""
        ordered = np.asarray(values, dtype=np.float64)[self._order]
        for start, end in self._bounds:
            ordered[start:end].sort(kind="stable")
        per_cell = kernels.presorted_percentile(
            ordered, self._starts, self._ends, self._percentile
        )
        out = []
        for name, cells, baseline in self._groups:
            if baseline is None:
                raise ValueError(
                    f"no observations in week {self._baseline_week}"
                )
            group_values = per_cell[cells]
            baseline_value = float(group_values[baseline])
            if baseline_value == 0:
                raise ValueError("baseline value is zero")
            deltas = (group_values / baseline_value - 1.0) * 100.0
            out.append((name, self._cell_weeks[cells], deltas))
        return out


def _grouped_weekly_delta(
    values: np.ndarray,
    weeks: np.ndarray,
    labels: np.ndarray,
    wanted: list[str] | None,
    baseline_week: int,
    percentile: float,
) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Weekly percentile-delta series for every label in one kernel pass.

    One column through :class:`_WeeklyGroups`: a single sort computes
    every group's weekly percentile, instead of rescanning the
    observation array once per label per week — that per-label loop is
    the ``REPRO_FRAMES_NAIVE=1`` reference.
    """
    if kernels.use_naive():
        names = wanted if wanted is not None else np.unique(labels).tolist()
        out = []
        for name in names:
            mask = labels == name
            if not mask.any():
                continue
            group_axis, deltas = weekly_median_delta(
                values[mask], weeks[mask], baseline_week,
                percentile=percentile,
            )
            out.append((str(name), group_axis, deltas))
        return out
    return _WeeklyGroups(
        labels, weeks, wanted, baseline_week, percentile
    ).deltas(values)
