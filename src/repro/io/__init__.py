"""Feed persistence: save a simulation run, reload it for analysis.

A full simulation takes tens of seconds at study scale; the analysis
often wants to iterate on the same run (or share it). :func:`save_feeds`
writes everything measured to a directory — KPI and RAT-time feeds as
one ``.npy`` structured array each, the mobility dwell aggregates as a
shard-partitioned columnar store of memory-mappable arrays
(:mod:`repro.io.columnar`), the configuration as a pickle plus a
human-readable manifest — and :func:`load_feeds` reconstructs a
:class:`~repro.simulation.feeds.DataFeeds` by rebuilding the
deterministic world from the configuration and attaching the stored
measurements, mapping the mobility shards on demand so million-agent
runs analyze in bounded memory.
"""

from repro.io.columnar import ShardedMobilityFeed
from repro.io.export import export_analysis
from repro.io.store import RunStoreError, append_feeds, load_feeds, save_feeds

__all__ = [
    "RunStoreError",
    "ShardedMobilityFeed",
    "append_feeds",
    "export_analysis",
    "load_feeds",
    "save_feeds",
]
