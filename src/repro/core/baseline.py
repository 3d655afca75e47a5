"""Week-9 baseline machinery.

Every plot in the paper is a *delta variation percentage* against the
week-9 (23 Feb – 1 Mar 2020) value of the metric:

- mobility figures use the change of the **daily average** against the
  **week-9 average** (§3);
- network-performance figures use the change of the **weekly median**
  (pooled over cells × days) against the **week-9 median** (§4).

The weekly means are single-pass: one factorization of the week column
plus one ``reduceat``, instead of re-scanning the day axis once per
week. The original per-week loops remain available behind
``REPRO_FRAMES_NAIVE=1`` as the reference oracle for differential
tests. The weekly percentile delta is the per-week loop itself: a
sorted-segment kernel measured slower than it.
"""

from __future__ import annotations

import numpy as np

from repro.frames import kernels
from repro.simulation.clock import BASELINE_WEEK

__all__ = [
    "daily_pct_change",
    "weekly_median_delta",
    "weekly_mean",
    "weekly_mean_stack",
]


def daily_pct_change(
    daily_values: np.ndarray,
    weeks_of_day: np.ndarray,
    baseline_week: int = BASELINE_WEEK,
    baseline_value: float | None = None,
) -> np.ndarray:
    """Percent change of each day's value vs the baseline-week average.

    ``baseline_value`` overrides the computed baseline — used when a
    series must be normalized against the *national* week-9 average
    rather than its own (Figs 5 and 6).
    """
    daily_values = np.asarray(daily_values, dtype=np.float64)
    weeks_of_day = np.asarray(weeks_of_day)
    if daily_values.shape != weeks_of_day.shape:
        raise ValueError("daily_values and weeks_of_day must align")
    if baseline_value is None:
        in_baseline = weeks_of_day == baseline_week
        if not in_baseline.any():
            raise ValueError(f"no days in baseline week {baseline_week}")
        baseline_value = float(daily_values[in_baseline].mean())
    if baseline_value == 0:
        raise ValueError("baseline value is zero")
    return (daily_values / baseline_value - 1.0) * 100.0


def _week_segments(
    weeks: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(unique weeks, stable row order by week, starts, ends)."""
    unique_weeks, inverse = np.unique(weeks, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    counts = np.bincount(inverse, minlength=unique_weeks.size)
    ends = np.cumsum(counts)
    starts = ends - counts
    return unique_weeks, order, starts, ends


def weekly_mean(
    daily_values: np.ndarray, weeks_of_day: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(weeks, mean per week) for a daily series."""
    daily_values = np.asarray(daily_values, dtype=np.float64)
    weeks_of_day = np.asarray(weeks_of_day)
    if kernels.use_naive():
        weeks = np.unique(weeks_of_day)
        means = np.array(
            [daily_values[weeks_of_day == week].mean() for week in weeks]
        )
        return weeks, means
    weeks, order, starts, ends = _week_segments(weeks_of_day)
    sums = np.add.reduceat(daily_values[order], starts)
    return weeks, sums / (ends - starts)


def weekly_mean_stack(
    series: np.ndarray, weeks_of_day: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weekly means of many aligned daily series at once.

    ``series`` is a (num_series × num_days) matrix; returns (weeks,
    (num_series × num_weeks) matrix). One ``reduceat`` replaces a
    per-series, per-week rescan of the day axis.
    """
    series = np.asarray(series, dtype=np.float64)
    weeks_of_day = np.asarray(weeks_of_day)
    if series.ndim != 2 or series.shape[1] != weeks_of_day.shape[0]:
        raise ValueError("series must be (num_series, num_days)")
    if kernels.use_naive():
        weeks = np.unique(weeks_of_day)
        means = np.stack(
            [
                np.array(
                    [row[weeks_of_day == week].mean() for week in weeks]
                )
                for row in series
            ]
        )
        return weeks, means
    weeks, order, starts, ends = _week_segments(weeks_of_day)
    sums = np.add.reduceat(series[:, order], starts, axis=1)
    return weeks, sums / (ends - starts)


def weekly_median_delta(
    values: np.ndarray,
    weeks: np.ndarray,
    baseline_week: int = BASELINE_WEEK,
    baseline_value: float | None = None,
    percentile: float = 50.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Weekly median (or percentile) delta percentages vs week 9.

    ``values`` are per-observation (cell × day) metric values, ``weeks``
    the ISO week of each observation. Returns (weeks, delta_pct).
    """
    values = np.asarray(values, dtype=np.float64)
    weeks = np.asarray(weeks)
    if values.shape != weeks.shape:
        raise ValueError("values and weeks must align")
    unique_weeks = np.unique(weeks)
    if baseline_value is None:
        in_baseline = weeks == baseline_week
        if not in_baseline.any():
            raise ValueError(f"no observations in week {baseline_week}")
        baseline_value = float(
            np.percentile(values[in_baseline], percentile)
        )
    if baseline_value == 0:
        raise ValueError("baseline value is zero")
    deltas = np.array(
        [
            (
                np.percentile(values[weeks == week], percentile)
                / baseline_value
                - 1.0
            )
            * 100.0
            for week in unique_weeks
        ]
    )
    return unique_weeks, deltas
