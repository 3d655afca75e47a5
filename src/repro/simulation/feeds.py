"""Data feeds: the simulator's outputs, shaped like the paper's inputs.

§2.2 of the paper enumerates the operator feeds: the General Signalling
Dataset, the Devices Catalog, the Radio Network Topology, the Radio
Network Performance feed, and the UK administrative datasets.
:class:`DataFeeds` bundles the synthetic equivalents of all of them so
the analysis layer can be written exactly against what the paper had.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:
    from repro.io.columnar import ShardedMobilityFeed

__all__ = ["MobilityShard", "DataFeeds"]


@dataclass
class MobilityShard:
    """One shard of a mobility feed: a subset of its users.

    ``rows`` are the shard's indices into population row order
    (ascending); the dwell stacks are day-indexed ``(n, NUM_ANCHORS)``
    matrices: memory maps from the columnar store
    (:mod:`repro.io.columnar`), or, for a run the engine kept in
    memory, lists holding the day matrices its (shard, window) tasks
    produced.
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
class DataFeeds:
    """Everything the analysis consumes, in one bundle."""

    calendar: StudyCalendar
    geography: Geography
    lookup: PostcodeLookup
    topology: RadioTopology
    catalog: DeviceCatalog
    base: SubscriberBase
    agents: AgentPopulation
    # The mobility dwell feed: a repro.io.columnar.ShardedMobilityFeed,
    # one shard per partition of the run's configuration.  Its shards
    # hold memory-mapped stacks when the run was loaded from disk or
    # streamed to disk by the engine, and day lists when the engine
    # kept it in memory.
    mobility: ShardedMobilityFeed
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
