"""Aggregated mobility statistics: per-user-day metric series (§2.3).

The paper computes, for every user and every day, the time spent on
each visited tower (keeping the top-20 towers), then the entropy and
radius of gyration, then aggregates. :func:`compute_daily_metrics` does
exactly that over the whole study window.

The work is one walk over the feed's shards: one per shard of the
run, over day lists in memory or memory-mapped partitions on disk
(:func:`repro.io.load_feeds`).
:func:`shard_metric_blocks` computes a shard's block a day at a time
and the block scatters into the output at the shard's population rows.
Both kernels are strictly row-independent, so the result is bitwise
identical for every shard layout, and the dwell a stored shard holds
resident is one window of days rather than the population × the study.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metrics import TowerGeometry
from repro.simulation.feeds import DataFeeds

__all__ = [
    "MobilityDailyMetrics",
    "compute_daily_metrics",
    "shard_metric_blocks",
    "top_tower_filter",
]


@dataclass
class MobilityDailyMetrics:
    """Per-user per-day mobility metrics.

    ``entropy`` and ``gyration_km`` are (num_days × num_users) float32
    matrices.
    """

    user_ids: np.ndarray
    entropy: np.ndarray
    gyration_km: np.ndarray

    @property
    def num_days(self) -> int:
        return int(self.entropy.shape[0])

    @property
    def num_users(self) -> int:
        return int(self.entropy.shape[1])

    def daily_mean(self, metric: str) -> np.ndarray:
        """Across-user mean per day for ``metric`` (entropy/gyration).

        With no users at all the mean is undefined: the result is NaN
        for every day (explicitly — no RuntimeWarning is emitted).
        """
        return self._masked_mean(self._matrix(metric))

    def daily_mean_subset(self, metric: str, mask: np.ndarray) -> np.ndarray:
        """Across-user mean per day over a user subset.

        A mask selecting zero users yields NaN per day, silently —
        callers that filter empty groups up front keep their behavior,
        and direct callers no longer trip numpy's mean-of-empty-slice
        RuntimeWarning.
        """
        return self._masked_mean(self._matrix(metric)[:, mask])

    @staticmethod
    def _masked_mean(matrix: np.ndarray) -> np.ndarray:
        if matrix.shape[1] == 0:
            return np.full(matrix.shape[0], np.nan, dtype=matrix.dtype)
        return matrix.mean(axis=1)

    def _matrix(self, metric: str) -> np.ndarray:
        if metric == "entropy":
            return self.entropy
        if metric == "gyration":
            return self.gyration_km
        raise KeyError(f"unknown metric {metric!r}")


def top_tower_filter(
    dwell: np.ndarray, top_towers: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Zero all but each row's ``top_towers`` largest dwell entries.

    The paper keeps the top-20 towers per user (§2.3). With more anchor
    towers than the cut-off this selects the most-visited ones; with
    fewer it is the identity.

    Without ``out`` the result is always a fresh array — never a view
    of or alias to ``dwell`` — so callers may mutate it freely
    regardless of which branch was taken.  With ``out`` (same shape as
    ``dwell``; any float dtype ``dwell`` safely casts to) the values
    are copied into the buffer and filtered in place, which lets the
    daily-metrics loop pay one materialization per day instead of an
    ``astype`` copy followed by an internal one.  ``out is dwell`` is
    allowed and filters fully in place.
    """
    if top_towers <= 0:
        raise ValueError("top_towers must be positive")
    rows, k = dwell.shape
    if out is None:
        out = dwell.copy()
    else:
        if out.shape != dwell.shape:
            raise ValueError(
                f"out shape {out.shape} must match dwell shape {dwell.shape}"
            )
        if out is not dwell:
            np.copyto(out, dwell, casting="same_kind")
    if k <= top_towers:
        return out
    # Indices of the (k - top) smallest entries per row → zeroed.
    cut = k - top_towers
    smallest = np.argpartition(out, cut - 1, axis=1)[:, :cut]
    np.put_along_axis(out, smallest, 0.0, axis=1)
    return out


def _normalize_day_range(
    day_range: tuple[int, int] | None, num_days: int
) -> tuple[int, int]:
    if day_range is None:
        return 0, num_days
    lo, hi = int(day_range[0]), int(day_range[1])
    if not 0 <= lo <= hi <= num_days:
        raise ValueError(
            f"day_range ({lo}, {hi}) is not within the "
            f"{num_days}-day feed"
        )
    return lo, hi


def compute_daily_metrics(
    feeds: DataFeeds,
    gyration_mode: str = "weighted",
    top_towers: int = 20,
    day_range: tuple[int, int] | None = None,
    workers: int | None = None,
) -> MobilityDailyMetrics:
    """Compute entropy and gyration for every user and study day.

    ``day_range`` restricts the result to a ``[start, stop)`` window of
    absolute day indices; row ``i`` of the matrices is then day
    ``start + i``.  Every day is computed independently, so the window
    equals the same rows of a whole-feed call bitwise — this is what
    lets the live-run analytics compute only the appended days and
    concatenate (:mod:`repro.analysis.mobility`).

    ``workers`` picks where the per-shard blocks are computed
    (:func:`repro.analysis.parallel.walk_shards`): in process when it
    is ``None`` or 1, across a process pool otherwise when the feed
    backs onto a committed columnar run.  The result is bitwise
    identical either way.
    """
    from repro.analysis.parallel import walk_shards

    mobility = feeds.mobility
    day_lo, day_hi = _normalize_day_range(day_range, mobility.num_days)
    entropy = np.empty(
        (day_hi - day_lo, mobility.num_users), dtype=np.float32
    )
    gyration = np.empty_like(entropy)
    site_lats, site_lons = feeds.site_locations()
    kwargs = dict(
        gyration_mode=gyration_mode,
        top_towers=top_towers,
        day_lo=day_lo,
        day_hi=day_hi,
    )
    for rows, entropy_block, gyration_block in walk_shards(
        feeds,
        "metrics",
        kwargs,
        workers=workers,
        site_lats=site_lats,
        site_lons=site_lons,
    ):
        entropy[:, rows] = entropy_block
        gyration[:, rows] = gyration_block
    return MobilityDailyMetrics(
        user_ids=mobility.user_ids,
        entropy=entropy,
        gyration_km=gyration,
    )


def shard_metric_blocks(
    shard,
    site_lats: np.ndarray,
    site_lons: np.ndarray,
    *,
    gyration_mode: str,
    top_towers: int,
    day_lo: int,
    day_hi: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Entropy/gyration blocks of one shard: ``(num_days, rows)`` each.

    The single per-shard kernel, run in process or by the process-pool
    workers of :mod:`repro.analysis.parallel` alike, so per-shard
    partials are bitwise identical by construction and the only
    difference is where the task runs.

    Dwell is read through :func:`repro.io.columnar.read_days`: on a
    stored shard each window of days is mapped fresh and released once
    filtered, keeping the walk's resident set bounded by one window
    (the persistent shard maps are never touched here).  The shard's
    anchor towers are fixed for the walk, so their
    :class:`~repro.core.metrics.TowerGeometry` is built once and
    applied to every day.
    """
    from repro.io.columnar import read_days

    anchor_sites = shard.anchor_sites
    geometry = TowerGeometry(
        anchor_sites, site_lats[anchor_sites], site_lons[anchor_sites]
    )
    entropy = np.empty((day_hi - day_lo, shard.num_rows), dtype=np.float32)
    gyration = np.empty_like(entropy)
    dwell = np.empty(anchor_sites.shape, dtype=np.float64)
    for day, stored in read_days(
        shard, "daily_dwell", range(day_lo, day_hi)
    ):
        top_tower_filter(stored, top_towers, out=dwell)
        del stored
        entropy[day - day_lo] = geometry.entropy(dwell)
        gyration[day - day_lo] = geometry.gyration(dwell, mode=gyration_mode)
    return entropy, gyration
