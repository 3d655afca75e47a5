"""Data feeds: the simulator's outputs, shaped like the paper's inputs.

§2.2 of the paper enumerates the operator feeds: the General Signalling
Dataset, the Devices Catalog, the Radio Network Topology, the Radio
Network Performance feed, and the UK administrative datasets.
:class:`DataFeeds` bundles the synthetic equivalents of all of them so
the analysis layer can be written exactly against what the paper had.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.frames import Frame
from repro.geo.build import Geography
from repro.geo.nspl import PostcodeLookup
from repro.mobility.agents import AgentPopulation
from repro.mobility.epidemic import EpidemicCurve
from repro.network.devices import DeviceCatalog
from repro.network.subscribers import SubscriberBase
from repro.network.topology import RadioTopology
from repro.simulation.clock import StudyCalendar

__all__ = ["MobilityFeed", "MobilityShard", "DataFeeds"]


@dataclass
class MobilityShard:
    """One shard of a mobility feed: a subset of its users.

    ``rows`` are the shard's indices into population row order
    (ascending); the dwell stacks are day-indexed ``(n, NUM_ANCHORS)``
    matrices: memory maps or arrays from the columnar store
    (:mod:`repro.io.columnar`), or the day lists of an in-memory
    :class:`MobilityFeed`.
    """

    index: int
    rows: np.ndarray
    user_ids: np.ndarray
    anchor_sites: np.ndarray
    daily_dwell: np.ndarray
    night_dwell: np.ndarray
    #: Column → ``[(start_day, num_days, path)]`` of the backing segment
    #: files, recorded when a stored shard is opened so
    #: :func:`repro.io.columnar.window_days` can map a day window fresh
    #: and release it after consumption.
    sources: dict[str, list[tuple[int, int, Path]]] | None = None

    @property
    def num_rows(self) -> int:
        return int(self.rows.shape[0])


@dataclass
class MobilityFeed:
    """Per-user per-day tower dwell aggregates (§2.3's statistics).

    ``daily_dwell[day]`` and ``night_dwell[day]`` are float32 arrays of
    shape ``(num_users, num_anchors)``: seconds the user spent attached
    to each of their anchor towers over the whole day / over the
    nighttime window (00:00–08:00). ``anchor_sites`` maps the anchor
    axis to tower ids.
    """

    user_ids: np.ndarray
    anchor_sites: np.ndarray
    daily_dwell: list[np.ndarray] = field(default_factory=list)
    night_dwell: list[np.ndarray] = field(default_factory=list)

    @property
    def num_users(self) -> int:
        return int(self.user_ids.shape[0])

    @property
    def num_days(self) -> int:
        return len(self.daily_dwell)

    def dwell(self, day: int) -> np.ndarray:
        """Full-day dwell seconds, shape (num_users, num_anchors)."""
        return self.daily_dwell[day]

    def night(self, day: int) -> np.ndarray:
        """Nighttime dwell seconds, shape (num_users, num_anchors)."""
        return self.night_dwell[day]

    @property
    def shards(self) -> list[MobilityShard]:
        """The whole population as one shard over the day lists.

        The same surface as
        :attr:`repro.io.columnar.ShardedMobilityFeed.shards`, so the
        per-shard analysis kernels walk in-memory and stored feeds
        alike.
        """
        return [
            MobilityShard(
                index=0,
                rows=np.arange(self.num_users),
                user_ids=self.user_ids,
                anchor_sites=self.anchor_sites,
                daily_dwell=self.daily_dwell,
                night_dwell=self.night_dwell,
            )
        ]


@dataclass
class DataFeeds:
    """Everything the analysis consumes, in one bundle."""

    calendar: StudyCalendar
    geography: Geography
    lookup: PostcodeLookup
    topology: RadioTopology
    catalog: DeviceCatalog
    base: SubscriberBase
    agents: AgentPopulation
    # The mobility dwell feed.  Either the engine's in-memory
    # MobilityFeed or a repro.io.columnar.ShardedMobilityFeed (same
    # day-at-a-time surface, assembled on demand from memory-mapped
    # shards) when the run was loaded from disk or streamed to disk by
    # the engine.
    mobility: MobilityFeed
    radio_kpis: Frame  # daily per-cell medians (the §2.4 reduction)
    rat_time: Frame  # (day, rat, connected-seconds)
    epidemic: EpidemicCurve
    # Per-day signalling-event frames (the configuration's
    # ``emit_signaling``): a dict in memory, or a repro.io.columnar.
    # ShardedEventFeed over the stored event partition.
    signaling: dict[int, Frame] | None = None
    interconnect_upgrade_day: int | None = None
    # The configuration that produced the feeds (provenance; lets
    # repro.io rebuild the deterministic world when reloading).
    config: object | None = None
    # Telemetry snapshot of the producing run (set by the engine when
    # repro.telemetry is enabled; persisted into manifest.json).
    telemetry: dict | None = None
    # Per-feed SHA-256 payload digests, as recorded in (or verified
    # against) manifest.json by repro.io.store.  The analysis cache
    # keys artifacts on them; None for bundles that never touched disk.
    source_digests: dict | None = None
    # Live-run coordinator state (repro.api.Run.advance): the per-day
    # voice interconnect traffic series and the day-0 download baseline
    # the engine needs to extend the run bitwise-identically.  Always
    # set by the engine; persisted in manifest.json only while the run
    # is shorter than its configured horizon.
    live: dict | None = None
    # Storage segments of the columnar mobility partition as
    # (start_day, num_days) pairs — one per append commit.  The
    # incremental analytics key per-range artifacts on them; None for
    # bundles that never touched disk.
    feed_segments: list[tuple[int, int]] | None = None
    # Run directory this bundle was loaded from (or last saved to).
    # The parallel analysis pool (repro.analysis.parallel) hands this
    # path — never the feed objects — to its workers, which open their
    # own shard maps from it; None for bundles that never touched disk.
    source_directory: object | None = None

    @property
    def num_users(self) -> int:
        return self.mobility.num_users

    def site_locations(self) -> tuple[np.ndarray, np.ndarray]:
        """(lats, lons) arrays indexed by site id."""
        return self.topology.site_lats, self.topology.site_lons
