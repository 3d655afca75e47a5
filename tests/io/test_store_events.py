"""The per-shard signalling-event partition: round-trips and guards.

PR 10 extends the columnar layout so the event feed persists per shard
(``shard-NNNN/events_*.npy`` plus day offsets) instead of riding along
in memory.  The promises pinned here: a save → load round-trip serves
every day frame bitwise equal to the engine's in-memory dict,
digests cover the event files (tampering is named), a v2 run *without*
events still loads, the engine's streamed writer commits the same
bytes as a dict save, and event-bearing runs refuse the live-append
path (events stream only at full saves for now).
"""

import datetime as dt

import numpy as np
import pytest

from repro.core.sessionize import (
    sessionize_events,
    sessionize_events_stream,
)
from repro.io import load_feeds, save_feeds
from repro.io.columnar import (
    EVENT_COLUMNS,
    ShardedEventFeed,
    event_relative_paths,
)
from repro.io.store import RunStoreError, append_feeds
from repro.simulation.clock import StudyCalendar
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulator

SHARD_COUNTS = (1, 2, 4)

_CALENDAR = StudyCalendar(first_day=dt.date(2020, 2, 24), num_days=10)


def _config(shards: int, *, signaling: bool = True) -> SimulationConfig:
    return (
        SimulationConfig.tiny(seed=59)
        .with_overrides(
            num_users=180,
            target_site_count=30,
            calendar=_CALENDAR,
            emit_signaling=signaling,
        )
        .with_parallelism(shards, workers=1)
    )


_FEEDS: dict[int, object] = {}


def _feeds(shards: int):
    if shards not in _FEEDS:
        _FEEDS[shards] = Simulator(_config(shards)).run()
    return _FEEDS[shards]


def _assert_days_bitwise(stored_feed, memory_dict):
    assert len(stored_feed) == len(memory_dict)
    for day, memory in memory_dict.items():
        streamed = stored_feed[day]
        for column, _ in EVENT_COLUMNS:
            assert streamed[column].dtype == memory[column].dtype
            assert np.array_equal(streamed[column], memory[column]), (
                f"day {day} column {column} diverged"
            )


@pytest.mark.parametrize("shards", SHARD_COUNTS)
class TestRoundTrip:
    def test_lazy_load_serves_days_bitwise(self, shards, tmp_path):
        target = tmp_path / "run"
        save_feeds(_feeds(shards), target)
        loaded = load_feeds(target)
        assert isinstance(loaded.signaling, ShardedEventFeed)
        _assert_days_bitwise(loaded.signaling, _feeds(shards).signaling)

    def test_streamed_writer_commits_identical_bytes(
        self, shards, tmp_path
    ):
        # The engine streaming events shard-by-shard during simulation
        # must write the exact bytes a save of the in-memory dict writes.
        streamed_dir = tmp_path / "streamed"
        config = _config(shards)
        feeds = Simulator(config).run(stream_dir=streamed_dir)
        save_feeds(feeds, streamed_dir)
        dict_dir = tmp_path / "memory"
        save_feeds(_feeds(shards), dict_dir)
        for relative in event_relative_paths(shards):
            streamed = (streamed_dir / relative).read_bytes()
            memory = (dict_dir / relative).read_bytes()
            assert streamed == memory, f"{relative}: bytes differ"


class TestDigestsAndGuards:
    @pytest.fixture
    def run(self, tmp_path):
        target = tmp_path / "run"
        save_feeds(_feeds(2), target)
        return target

    def test_tampered_event_file_is_named(self, run):
        victim = run / "feeds" / "shard-0000" / "events_user_id.npy"
        payload = bytearray(victim.read_bytes())
        payload[-1] ^= 0xFF
        victim.write_bytes(payload)
        with pytest.raises(RunStoreError, match="events_user_id"):
            load_feeds(run)

    def test_missing_event_file_is_named(self, run):
        victim = run / "feeds" / "shard-0001" / "events_offsets.npy"
        victim.unlink()
        with pytest.raises(RunStoreError, match="events_offsets"):
            load_feeds(run)

    def test_unrecorded_event_file_is_named(self, run):
        import json

        name = "feeds/shard-0001/events_timestamp_s.npy"
        manifest = json.loads((run / "manifest.json").read_text())
        del manifest["feeds_sha256"][name]
        (run / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(RunStoreError, match="records no digest") as exc:
            load_feeds(run)
        assert exc.value.path == run / name

    def test_v2_without_events_still_loads(self, tmp_path):
        target = tmp_path / "run"
        save_feeds(
            Simulator(_config(2, signaling=False)).run(), target
        )
        loaded = load_feeds(target)
        assert loaded.signaling is None

    def test_resave_without_signaling_drops_events(self, tmp_path):
        import dataclasses

        target = tmp_path / "run"
        save_feeds(_feeds(2), target)
        stripped = dataclasses.replace(_feeds(2), signaling=None)
        save_feeds(stripped, target)
        loaded = load_feeds(target)
        assert loaded.signaling is None
        leftovers = list((target / "feeds").rglob("events_*.npy"))
        assert leftovers == []

    def test_append_rejects_event_bearing_runs(self, tmp_path):
        target = tmp_path / "run"
        save_feeds(_feeds(2), target)
        base = load_feeds(target)
        with pytest.raises(RunStoreError, match="event"):
            append_feeds(base, _feeds(2), target)


class TestStreamedSessionization:
    def test_chunked_equals_whole_day(self, tmp_path):
        target = tmp_path / "run"
        save_feeds(_feeds(2), target)
        events = load_feeds(target).signaling
        for day in (0, 4, 9):
            whole = sessionize_events(events.day(day))
            chunked = sessionize_events_stream(events.chunks(day))
            for column in ("user_id", "site_id", "dwell_s"):
                assert np.array_equal(whole[column], chunked[column])

    def test_eager_dict_matches_streamed(self, tmp_path):
        target = tmp_path / "run"
        save_feeds(_feeds(2), target)
        events = load_feeds(target).signaling
        eager = _feeds(2).signaling
        day = 3
        streamed = sessionize_events_stream(events.chunks(day))
        reference = sessionize_events(eager[day])
        for column in ("user_id", "site_id", "dwell_s"):
            assert np.array_equal(streamed[column], reference[column])
