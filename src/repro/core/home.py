"""Home detection (§2.3).

"We use the cell tower to which the user connects more time during
nighttime hours (12:00 PM through 8:00 AM) for at least 14 days (not
necessarily consecutive) during February 2020."

The printed window is read as 00:00–08:00 (midnight through 8 AM — the
only sensible nighttime reading); both the window and the threshold are
parameters so the home-detection ablation can vary them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simulation.feeds import DataFeeds

__all__ = [
    "HomeDetectionResult",
    "detect_homes",
    "finalize_homes",
    "night_win_counts",
    "shard_night_win_counts",
]


@dataclass
class HomeDetectionResult:
    """Detected home tower per user (-1 where detection failed)."""

    user_ids: np.ndarray
    home_site: np.ndarray
    nights_observed: np.ndarray  # nights the winning tower won
    min_nights: int

    @property
    def detected(self) -> np.ndarray:
        """Boolean mask of users with a detected home."""
        return self.home_site >= 0

    @property
    def detection_rate(self) -> float:
        return float(self.detected.mean()) if self.user_ids.size else 0.0


def detect_homes(
    feeds: DataFeeds,
    min_nights: int = 14,
    window_days: np.ndarray | None = None,
    workers: int | None = None,
) -> HomeDetectionResult:
    """Detect each user's home tower from nighttime attachments.

    Parameters
    ----------
    feeds:
        The data feeds (uses the nighttime dwell aggregates).
    min_nights:
        Minimum number of nights the winning tower must dominate.
    window_days:
        Simulation day indices to scan; defaults to February 2020.
    workers:
        Where the per-shard night scans run: in process for ``None``
        or 1, across a process pool otherwise on a committed columnar
        run (:func:`repro.analysis.parallel.walk_shards`); the result
        is bitwise identical either way.
    """
    if min_nights <= 0:
        raise ValueError("min_nights must be positive")
    mobility = feeds.mobility
    if window_days is None:
        window_days = feeds.calendar.february_days
    window_days = np.asarray(window_days)
    if window_days.size == 0:
        raise ValueError("home-detection window is empty")
    if window_days.max() >= mobility.num_days:
        raise ValueError("window extends beyond the simulated days")

    win_counts = night_win_counts(feeds, window_days, workers=workers)
    return finalize_homes(feeds, win_counts, min_nights)


def night_win_counts(
    feeds: DataFeeds,
    window_days: np.ndarray,
    workers: int | None = None,
) -> np.ndarray:
    """Per-(user, anchor-slot) count of nights that slot's tower won.

    The associative core of home detection: counts over disjoint day
    windows are int64 and simply *add*, so a live run folds each
    appended segment's counts into the running total instead of
    rescanning February (:mod:`repro.analysis.mobility`), with the sum
    bitwise-equal to a single whole-window scan.

    The winner of a night is per-user ``argmax`` — strictly
    row-independent — so counts also partition by shard: each shard's
    partial (:func:`shard_night_win_counts`) is computed from that
    shard's dwell alone and scattered at its population rows, in
    process or across a process pool (``workers``), with identical
    results.
    """
    from repro.analysis.parallel import walk_shards

    mobility = feeds.mobility
    win_counts = np.zeros(mobility.anchor_sites.shape, dtype=np.int64)
    window = [int(day) for day in np.asarray(window_days).ravel()]
    for rows, counts in walk_shards(
        feeds, "night_counts", {"window_days": window}, workers=workers
    ):
        win_counts[rows] = counts
    return win_counts


def shard_night_win_counts(shard, window_days: np.ndarray) -> np.ndarray:
    """One shard's night-win partial: ``(rows, k)`` int64 counts.

    The single per-shard kernel, run in process or by the process-pool
    workers alike — identical partials by construction.  Night days are
    read through :func:`repro.io.columnar.read_days` (a stored shard
    maps one window of the scan at a time) and released as consumed.
    """
    from repro.io.columnar import read_days

    count = shard.num_rows
    k = shard.anchor_sites.shape[1]
    win_counts = np.zeros((count, k), dtype=np.int64)
    rows = np.arange(count)
    for _, night in read_days(
        shard, "night_dwell", np.asarray(window_days, dtype=np.int64)
    ):
        winner = night.argmax(axis=1)
        observed = night.max(axis=1) > 0
        del night
        win_counts[rows[observed], winner[observed]] += 1
    return win_counts


def finalize_homes(
    feeds: DataFeeds, win_counts: np.ndarray, min_nights: int
) -> HomeDetectionResult:
    """Rank accumulated win counts into per-user home towers."""
    mobility = feeds.mobility
    num_users = mobility.num_users
    anchors = mobility.anchor_sites  # (N, K)
    k = anchors.shape[1]
    rows = np.arange(num_users)

    # Merge slots sharing a tower (duplicate anchors) before ranking.
    order = np.argsort(anchors, axis=1, kind="stable")
    anchors_sorted = np.take_along_axis(anchors, order, axis=1)
    counts_sorted = np.take_along_axis(win_counts, order, axis=1)
    merged = counts_sorted.astype(np.float64).copy()
    same = anchors_sorted[:, 1:] == anchors_sorted[:, :-1]
    # Forward-accumulate runs of equal towers, then keep run maxima.
    for col in range(1, k):
        merged[:, col] += np.where(same[:, col - 1], merged[:, col - 1], 0.0)
        merged[:, col - 1] = np.where(
            same[:, col - 1], 0.0, merged[:, col - 1]
        )

    best_col = merged.argmax(axis=1)
    best_count = merged[rows, best_col].astype(np.int64)
    best_site = anchors_sorted[rows, best_col]

    home_site = np.where(best_count >= min_nights, best_site, -1)
    return HomeDetectionResult(
        user_ids=mobility.user_ids,
        home_site=home_site.astype(np.int64),
        nights_observed=best_count,
        min_nights=min_nights,
    )
