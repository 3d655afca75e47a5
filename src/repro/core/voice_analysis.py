"""Voice traffic analysis (Fig 9).

Isolates the conversational-voice bearer (QCI = 1) metrics — traffic
volume, simultaneous voice users, and the UL/DL packet-loss rates — and
produces the national weekly delta series of Fig 9.
"""

from __future__ import annotations

from repro.core.performance import WeeklySeries, performance_panel
from repro.frames import Frame
from repro.simulation.clock import BASELINE_WEEK
from repro.simulation.feeds import DataFeeds

__all__ = ["VOICE_METRICS", "voice_series"]

VOICE_METRICS = (
    "voice_volume_mb",
    "voice_users",
    "voice_ul_loss_rate",
    "voice_dl_loss_rate",
)


def voice_series(
    feeds: DataFeeds,
    baseline_week: int = BASELINE_WEEK,
    percentile: float = 50.0,
    labeled: Frame | None = None,
) -> dict[str, WeeklySeries]:
    """National weekly delta series for each voice metric."""
    return performance_panel(
        feeds,
        VOICE_METRICS,
        grouping="national",
        baseline_week=baseline_week,
        percentile=percentile,
        labeled=labeled,
    )
