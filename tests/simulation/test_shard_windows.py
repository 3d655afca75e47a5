"""The coordinator holds a bounded number of shard windows.

Shards run as (shard, window) tasks submitted at most
``LOOKAHEAD_WINDOWS`` windows ahead of the window being reduced, and
each day's loads are dropped once merged.  So however long the study,
the coordinator never holds more than ``1 + LOOKAHEAD_WINDOWS`` windows
of shard-day loads per shard.  The spy counts the loads alive in the
coordinator process at every merge — held by pool futures, by the
window being reduced, and by the day being merged.  A run that fails
in its first window shows the same bound on disk: no shard ran a day
past the look-ahead.
"""

import datetime as dt
import gc
import time
from collections import Counter

import pytest

import repro.simulation.engine as engine
from repro.simulation.checkpoint import CheckpointStore
from repro.simulation.clock import StudyCalendar
from repro.simulation.config import SimulationConfig
from repro.simulation.faults import RecoverySettings, ShardExecutionError
from repro.simulation.sharding import ShardResult

_CALENDAR = StudyCalendar(first_day=dt.date(2020, 2, 24), num_days=30)


def _held_loads_per_shard() -> Counter:
    """Shard-day loads alive in this process, keyed by the shard's
    first population row (shards are disjoint, so it names the shard)."""
    held = Counter()
    for thing in gc.get_objects():
        if isinstance(thing, ShardResult) and thing.indices is not None:
            held[int(thing.indices[0])] += sum(
                load is not None for load in thing.days
            )
    return held


def test_coordinator_holds_at_most_lookahead_windows(monkeypatch):
    config = SimulationConfig(
        num_users=240, target_site_count=40, seed=77, calendar=_CALENDAR
    ).with_parallelism(4, workers=2)
    merge = engine.merge_day_loads
    peaks: Counter = Counter()

    def spy(num_users, shard_indices, loads):
        if not peaks:
            # A slow first merge: the pool runs as far ahead as the
            # stream lets it.
            time.sleep(1.0)
        held = _held_loads_per_shard()
        for indices in shard_indices:
            # +1: the day being merged, already handed over.
            key = int(indices[0])
            peaks[key] = max(peaks[key], held[key] + 1)
        return merge(num_users, shard_indices, loads)

    monkeypatch.setattr(engine, "merge_day_loads", spy)
    feeds = engine.Simulator(config).run()

    assert feeds.mobility.num_days == _CALENDAR.num_days
    assert len(peaks) == 4
    bound = (1 + engine.LOOKAHEAD_WINDOWS) * engine.WINDOW_DAYS
    assert bound < _CALENDAR.num_days  # the run is longer than the bound
    assert max(peaks.values()) <= bound, dict(peaks)


def test_failed_run_never_ran_past_the_lookahead(tmp_path):
    # Shard 0 fails in the first window: windows beyond the look-ahead
    # were never submitted, so no shard checkpointed any of their days.
    config = SimulationConfig(
        num_users=240,
        target_site_count=40,
        seed=77,
        calendar=_CALENDAR,
        fault_spec="kill:shard=0,day=1",
        recovery=RecoverySettings(max_retries=0),
    ).with_parallelism(4, workers=2)
    with pytest.raises(ShardExecutionError):
        engine.Simulator(config).run(checkpoint_dir=tmp_path / "run")
    store = CheckpointStore.open(tmp_path / "run")
    horizon = (1 + engine.LOOKAHEAD_WINDOWS) * engine.WINDOW_DAYS
    for shard in range(4):
        assert all(day < horizon for day in store.completed_days(shard))
