"""Segment-composed mobility analytics for live runs.

A run grown through :meth:`repro.api.Run.advance` stores its mobility
partition as contiguous day segments — the base save plus one segment
per append commit (``feeds.feed_segments``).  Re-analyzing such a run
from scratch after every appended day wastes almost all of its work:
the per-user-day metrics and the February night win counts of the
already-analyzed prefix cannot change (appends only add days; the
covering files are immutable until a compacting re-save).

This module exploits that.  The two whole-window intermediates that
cost more to recompute than to read back are decomposed into
*per-segment range artifacts* that compose associatively:

- **Daily metrics** are per-(user, day) independent, so a day range's
  matrix block equals the same rows of a whole-window call bitwise and
  ranges concatenate (:func:`incremental_daily_metrics`).
- **Home detection** folds int64 night win counts over February; counts
  over disjoint ranges simply add (:func:`incremental_homes`).

(The labeled KPI frame is not cached: labeling the whole feed is
cheaper than reading a stored copy back, so the study recomputes it.)

Range artifacts are cached under keys derived from exactly the files
that pin the range's content: the run's ``config.pkl`` digest (every
feed is a pure function of the configuration and the day index), the
shard identity columns, and the segment's dwell stack files — *not* the
whole-run digest map, which changes on every append.  Advancing a run
therefore recomputes only the new segment; the prefix is served from
cache, and the composed result is bitwise-identical to a from-scratch
recomputation.  Anything missing (in-memory feeds, no cache) falls
back to the whole-window computation.
"""

from __future__ import annotations

import numpy as np

from repro.core.home import (
    HomeDetectionResult,
    detect_homes,
    finalize_homes,
    night_win_counts,
)
from repro.core.statistics import MobilityDailyMetrics, compute_daily_metrics
from repro.simulation.feeds import DataFeeds

__all__ = [
    "feed_segments",
    "incremental_daily_metrics",
    "incremental_homes",
    "segment_digests",
]

_IDENTITY_FILES = ("rows.npy", "user_ids.npy", "anchor_sites.npy")


def feed_segments(feeds: DataFeeds) -> list[tuple[int, int]] | None:
    """The run's ``(start_day, num_days)`` storage segments.

    ``None`` when the feeds cannot support segment-keyed artifacts:
    in-memory bundles, which carry no segments or digests.
    """
    segments = getattr(feeds, "feed_segments", None)
    digests = getattr(feeds, "source_digests", None)
    if not segments or not digests:
        return None
    return [(int(start), int(days)) for start, days in segments]


def segment_digests(feeds: DataFeeds, start_day: int) -> dict | None:
    """The digest map keying one segment's range artifacts.

    Collects, from the run's recorded feed digests, the files that pin
    the segment's content: ``config.pkl`` (all feeds are pure functions
    of the configuration and the day index), the shard identity
    columns, and the segment's dwell stack files.  Returns ``None``
    when the expected files are not in the digest map — the caller then
    computes the range uncached.
    """
    from repro.io import columnar

    digests = getattr(feeds, "source_digests", None)
    if not digests or "config.pkl" not in digests:
        return None
    dwell_names = {
        columnar.segment_file_name(column, start_day)
        for column in ("daily_dwell", "night_dwell")
    }
    out = {"config.pkl": digests["config.pkl"]}
    found_dwell = False
    prefix = f"{columnar.FEEDS_SUBDIR}/"
    for key, value in digests.items():
        if not key.startswith(prefix):
            continue
        name = key.rsplit("/", 1)[-1]
        if name in dwell_names:
            found_dwell = True
            out[key] = value
        elif name in _IDENTITY_FILES:
            out[key] = value
    return out if found_dwell else None


def incremental_daily_metrics(
    feeds: DataFeeds,
    gyration_mode: str = "weighted",
    top_towers: int = 20,
    cache=None,
    workers: int | None = None,
) -> MobilityDailyMetrics:
    """Whole-window daily metrics, composed segment by segment.

    Bitwise-identical to
    :func:`~repro.core.statistics.compute_daily_metrics` over the whole
    feed; with a cache attached, segments whose range artifacts are
    already stored are not recomputed.  ``workers`` is forwarded to the
    per-range computations — cache keys are independent of it, as the
    parallel walk is bitwise-identical to the serial one.
    """
    segments = feed_segments(feeds)
    if cache is None or not segments:
        return compute_daily_metrics(
            feeds, gyration_mode, top_towers=top_towers, workers=workers
        )
    parts = []
    for start, days in segments:
        params = {
            "start": start,
            "days": days,
            "gyration_mode": gyration_mode,
            "top_towers": top_towers,
        }

        def compute(start=start, days=days):
            return compute_daily_metrics(
                feeds,
                gyration_mode,
                top_towers=top_towers,
                day_range=(start, start + days),
                workers=workers,
            )

        digests = segment_digests(feeds, start)
        if digests is None:
            parts.append(compute())
        else:
            parts.append(
                cache.get_or_compute(
                    "metrics_range", params, compute, digests=digests
                )
            )
    if len(parts) == 1:
        return parts[0]
    return MobilityDailyMetrics(
        user_ids=parts[0].user_ids,
        entropy=np.concatenate([part.entropy for part in parts], axis=0),
        gyration_km=np.concatenate(
            [part.gyration_km for part in parts], axis=0
        ),
    )


def incremental_homes(
    feeds: DataFeeds,
    min_nights: int = 14,
    window_days: np.ndarray | None = None,
    cache=None,
    workers: int | None = None,
) -> HomeDetectionResult:
    """Whole-window home detection, folded segment by segment.

    Bitwise-identical to :func:`~repro.core.home.detect_homes` (same
    window validation included); the per-segment win counts are cached
    independent of ``min_nights``, so threshold sweeps reuse them.
    ``workers`` fans the per-shard night scans across the process pool
    (cache keys are unaffected — the results are bitwise identical).
    """
    if min_nights <= 0:
        raise ValueError("min_nights must be positive")
    if window_days is None:
        window_days = feeds.calendar.february_days
    window_days = np.asarray(window_days)
    if window_days.size == 0:
        raise ValueError("home-detection window is empty")
    if window_days.max() >= feeds.mobility.num_days:
        raise ValueError("window extends beyond the simulated days")

    segments = feed_segments(feeds)
    if cache is None or not segments:
        return detect_homes(feeds, min_nights, window_days, workers=workers)
    total = None
    for start, days in segments:
        in_range = (window_days >= start) & (window_days < start + days)
        segment_window = window_days[in_range]
        if segment_window.size == 0:
            continue
        params = {
            "start": start,
            "days": days,
            "window": [int(day) for day in segment_window],
        }

        def compute(segment_window=segment_window):
            return night_win_counts(feeds, segment_window, workers=workers)

        digests = segment_digests(feeds, start)
        if digests is None:
            counts = compute()
        else:
            counts = cache.get_or_compute(
                "homes_range", params, compute, digests=digests
            )
        total = counts if total is None else total + counts
    return finalize_homes(feeds, total, min_nights)
