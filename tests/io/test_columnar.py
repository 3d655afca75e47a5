"""The columnar feed store: round-trips, streaming, and edge cases.

The out-of-core layout (:mod:`repro.io.columnar`) promises that nothing
observable changes when the mobility feed lives on disk instead of in
RAM: a save → load round-trip is *bitwise* identical for every shard
count, and the streamed ``compute_daily_metrics`` path reproduces the
engine's in-memory feed — the oracle — byte for byte.  This module
pins each of those promises, plus the degenerate populations (zero and
one filtered user), the windowed dwell reads and the ``store.*``
telemetry counters.
"""

import dataclasses
import datetime as dt
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api, telemetry
from repro.core.statistics import compute_daily_metrics
from repro.io import load_feeds, save_feeds
from repro.io.columnar import (
    SHARD_COLUMNS,
    ColumnarWriter,
    ShardedMobilityFeed,
    open_columnar,
    read_days,
    shard_relative_paths,
)
from repro.io.store import RunStoreError
from repro.simulation.checkpoint import CheckpointStore
from repro.simulation.clock import StudyCalendar
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulator
from repro.simulation.faults import RecoverySettings, ShardExecutionError
from repro.simulation.sharding import WINDOW_DAYS, shard_user_indices

from tests.simulation.harness import assert_feeds_equivalent

SHARD_COUNTS = (1, 2, 4)

_CALENDAR = StudyCalendar(first_day=dt.date(2020, 2, 24), num_days=14)


def _config(shards: int) -> SimulationConfig:
    return (
        SimulationConfig.tiny(seed=23)
        .with_overrides(
            num_users=160,
            target_site_count=40,
            calendar=_CALENDAR,
        )
        .with_parallelism(shards)
    )


_FEEDS: dict[int, object] = {}


def _feeds(shards: int):
    """In-memory baseline feeds for ``shards``, computed once."""
    if shards not in _FEEDS:
        _FEEDS[shards] = Simulator(_config(shards)).run()
    return _FEEDS[shards]


# ---------------------------------------------------------------------------
# Round-trips across shard counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shards", SHARD_COUNTS)
class TestRoundTrip:
    def test_lazy_load_is_bitwise(self, shards, tmp_path):
        target = tmp_path / "run"
        save_feeds(_feeds(shards), target)
        loaded = load_feeds(target)
        assert isinstance(loaded.mobility, ShardedMobilityFeed)
        assert loaded.mobility.num_shards == shards
        assert_feeds_equivalent(_feeds(shards), loaded, bitwise=True)

    def test_streamed_run_writes_identical_bytes(self, shards, tmp_path):
        # A run streamed straight into its partition commits the exact
        # bytes an in-memory run's save writes — the engine's streaming
        # mode changes where days land, never what they hold.
        streamed_dir = tmp_path / "streamed"
        feeds = Simulator(_config(shards)).run(stream_dir=streamed_dir)
        save_feeds(feeds, streamed_dir)
        memory_dir = tmp_path / "memory"
        save_feeds(_feeds(shards), memory_dir)
        for relative in (
            *shard_relative_paths(shards),
            "radio_kpis.npy",
            "manifest.json",
        ):
            streamed = (streamed_dir / relative).read_bytes()
            memory = (memory_dir / relative).read_bytes()
            assert streamed == memory, f"{relative}: bytes differ"

    def test_lazy_dwell_stacks_are_memory_maps(self, shards, tmp_path):
        target = tmp_path / "run"
        save_feeds(_feeds(shards), target)
        mobility = load_feeds(target).mobility
        for shard in mobility.shards:
            assert isinstance(shard.daily_dwell, np.memmap)
            assert isinstance(shard.night_dwell, np.memmap)


# ---------------------------------------------------------------------------
# Streamed analysis vs the engine's in-memory feed (the oracle)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def lazy_run(tmp_path_factory):
    target = tmp_path_factory.mktemp("columnar") / "run"
    save_feeds(_feeds(4), target)
    return target


class TestStreamedMetrics:
    def test_streamed_matches_in_memory(self, lazy_run):
        stored = load_feeds(lazy_run)
        assert isinstance(stored.mobility, ShardedMobilityFeed)
        streamed = compute_daily_metrics(stored)
        in_memory = compute_daily_metrics(_feeds(1))
        assert streamed.entropy.dtype == in_memory.entropy.dtype
        assert np.array_equal(streamed.entropy, in_memory.entropy)
        assert np.array_equal(streamed.gyration_km, in_memory.gyration_km)
        assert np.array_equal(streamed.user_ids, in_memory.user_ids)

    def test_gyration_modes_stream_identically(self, lazy_run):
        stored = load_feeds(lazy_run)
        for mode in ("weighted", "paper"):
            streamed = compute_daily_metrics(stored, gyration_mode=mode)
            in_memory = compute_daily_metrics(_feeds(4), gyration_mode=mode)
            assert np.array_equal(
                streamed.gyration_km, in_memory.gyration_km
            )


class TestWindowedReads:
    def test_read_days_serves_the_days_asked_for(self, lazy_run, recorder):
        days = [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11]
        shard = load_feeds(lazy_run).mobility.shards[1]
        rows = shard.rows
        served = list(read_days(shard, "night_dwell", days))
        assert [day for day, _ in served] == days
        for day, matrix in served:
            assert np.array_equal(matrix, _feeds(4).mobility.night(day)[rows])
        # [0, 7) and [7, 9) cut at WINDOW_DAYS, then the run [10, 12).
        assert WINDOW_DAYS == 7
        counters = telemetry.snapshot()["counters"]
        assert counters["store.windows_mapped"] == 3

    def test_in_memory_shards_read_without_maps(self, recorder):
        shards = _feeds(2).mobility.shards
        assert len(shards) == 2
        for shard in shards:
            served = list(read_days(shard, "daily_dwell", range(3, 12)))
            assert [day for day, _ in served] == list(range(3, 12))
            for day, matrix in served:
                assert matrix is shard.daily_dwell[day]
        assert "store.windows_mapped" not in telemetry.snapshot()["counters"]


class TestInMemoryShards:
    """An in-memory run keeps each shard's dwell rows as its own shard."""

    def test_shards_hold_their_rows_of_the_one_shard_run(self):
        sharded, serial = _feeds(4).mobility, _feeds(1).mobility
        expected_rows = shard_user_indices(serial.user_ids, 4)
        assert len(sharded.shards) == 4
        for shard, rows in zip(sharded.shards, expected_rows):
            assert np.array_equal(shard.rows, rows)
            assert isinstance(shard.daily_dwell, list)
            assert shard.sources is None
            for day in range(serial.num_days):
                for column, whole in (
                    ("daily_dwell", serial.dwell(day)),
                    ("night_dwell", serial.night(day)),
                ):
                    block = getattr(shard, column)[day]
                    assert block.dtype == whole.dtype
                    assert block.tobytes() == whole[rows].tobytes()

    @pytest.mark.parametrize("own, layout", [(4, 4), (2, 4), (4, 1)])
    def test_save_cuts_the_feed_into_its_configured_layout(
        self, own, layout, tmp_path
    ):
        # Saved under its own layout a feed hands over its shards'
        # blocks; under another it is assembled and cut again.  Either
        # way the partition is the one that layout's streamed run writes.
        retagged = dataclasses.replace(_feeds(own), config=_config(layout))
        save_feeds(retagged, tmp_path / "saved")
        reference_dir = tmp_path / "reference"
        streamed = Simulator(_config(layout)).run(stream_dir=reference_dir)
        save_feeds(streamed, reference_dir)
        for relative in shard_relative_paths(layout):
            saved = (tmp_path / "saved" / relative).read_bytes()
            reference = (tmp_path / "reference" / relative).read_bytes()
            assert saved == reference, f"{relative}: bytes differ"

    @pytest.mark.parametrize(
        "emit_signaling, calls_per_day", [(False, 0), (True, 1)]
    )
    def test_coordinator_scatters_only_signalling_dwell(
        self, monkeypatch, emit_signaling, calls_per_day
    ):
        import repro.simulation.sharding as sharding

        calls = []
        real_scatter = sharding._scatter_rows

        def counting_scatter(*args):
            calls.append(args)
            return real_scatter(*args)

        monkeypatch.setattr(sharding, "_scatter_rows", counting_scatter)
        config = _config(4).with_overrides(emit_signaling=emit_signaling)
        Simulator(config).run()
        assert len(calls) == calls_per_day * _CALENDAR.num_days


# ---------------------------------------------------------------------------
# Resume from checkpoints onto a memory-mapped run
# ---------------------------------------------------------------------------


class TestResumeOnLazyRun:
    _KILL_DAY = 9

    def _interrupt(self, directory, shards):
        faulty = _config(shards).with_overrides(
            recovery=RecoverySettings(max_retries=0),
            fault_spec=f"kill:day={self._KILL_DAY}",
        )
        with pytest.raises(ShardExecutionError):
            Simulator(faulty).run(checkpoint_dir=directory)

    @pytest.mark.parametrize("shards", (1, 2))
    def test_resume_persists_a_lazy_loadable_run(self, shards, tmp_path):
        rundir = tmp_path / "run"
        self._interrupt(rundir, shards)
        assert CheckpointStore.present(rundir)

        run = api.resume(rundir)
        assert run.directory == rundir
        assert not CheckpointStore.present(rundir)

        loaded = load_feeds(rundir)
        assert isinstance(loaded.mobility, ShardedMobilityFeed)
        assert_feeds_equivalent(_feeds(shards), loaded, bitwise=True)

    def test_resumed_run_streams_metrics_bitwise(self, tmp_path):
        rundir = tmp_path / "run"
        self._interrupt(rundir, 2)
        api.resume(rundir)
        streamed = compute_daily_metrics(load_feeds(rundir))
        in_memory = compute_daily_metrics(_feeds(2))
        assert np.array_equal(streamed.entropy, in_memory.entropy)
        assert np.array_equal(streamed.gyration_km, in_memory.gyration_km)


# ---------------------------------------------------------------------------
# The streamed KPI table: written through its staging file, published
# in place by the save
# ---------------------------------------------------------------------------


def _kpi_staging(directory: Path) -> list[Path]:
    return sorted(directory.glob("radio_kpis.npy.*.tmp"))


def _mapped_file(column: np.ndarray):
    """The file of the map ``column`` is a view of (None if none)."""
    base = column
    while base is not None and not isinstance(base, np.memmap):
        base = base.base
    return None if base is None else Path(base.filename).resolve()


class TestStreamedKpiTable:
    def test_streamed_run_stages_the_whole_table(self, tmp_path):
        target = tmp_path / "run"
        feeds = Simulator(_config(2)).run(stream_dir=target)
        (staging,) = _kpi_staging(target)
        table = np.load(staging, mmap_mode="r")
        rows = _CALENDAR.num_days * feeds.topology.num_sites
        assert table.shape == (rows,)
        assert staging.stat().st_size == table.offset + table.nbytes
        kpis = feeds.radio_kpis
        assert len(kpis) == rows
        for name in kpis.column_names:
            column = kpis[name]
            assert not column.flags.writeable, name
            assert not column.flags.owndata, name
            assert _mapped_file(column) == staging.resolve(), name

    def test_save_stages_only_the_rat_table(self, tmp_path, monkeypatch):
        import repro.io.durable as durable_module

        target = tmp_path / "run"
        feeds = Simulator(_config(2)).run(stream_dir=target)
        staged_names = []
        real_staged = durable_module.staged

        def recording_staged(final):
            staged_names.append(Path(final).name)
            return real_staged(final)

        monkeypatch.setattr(durable_module, "staged", recording_staged)
        save_feeds(feeds, target)
        assert "rat_time.npy" in staged_names
        assert "radio_kpis.npy" not in staged_names
        assert not _kpi_staging(target)
        assert load_feeds(target).radio_kpis == feeds.radio_kpis

    def test_replaced_kpi_frame_saves_its_own_rows(self, tmp_path):
        import dataclasses

        target = tmp_path / "run"
        feeds = Simulator(_config(2)).run(stream_dir=target)
        kpis = feeds.radio_kpis
        early = dataclasses.replace(
            feeds, radio_kpis=kpis.filter(kpis["day"] < 3)
        )
        save_feeds(early, target)
        stored = load_feeds(target).radio_kpis
        assert 0 < len(stored) < len(kpis)
        assert stored == early.radio_kpis
        assert not list(target.glob("*.tmp"))

    def test_second_run_into_the_directory_leaves_the_first_intact(
        self, tmp_path
    ):
        from repro.traffic.demand import DemandSettings

        target = tmp_path / "run"
        first = Simulator(_config(2)).run(stream_dir=target)
        kpis = first.radio_kpis
        kpi_bytes = {
            name: np.ascontiguousarray(kpis[name]).tobytes()
            for name in kpis.column_names
        }
        night = np.array(first.mobility.night(5))
        # Same population and file sizes, other KPI and night values.
        second = Simulator(
            _config(2).with_overrides(
                demand=DemandSettings(total_dl_mb_per_day=400.0),
                night_observation_probability=0.9,
            )
        ).run(stream_dir=target)
        assert not np.array_equal(second.mobility.night(5), night)
        save_feeds(second, target)
        for name, expected in kpi_bytes.items():
            got = np.ascontiguousarray(kpis[name]).tobytes()
            assert got == expected, name
        assert np.array_equal(first.mobility.night(5), night)

    def test_failed_save_leaves_the_committed_run_intact(self, tmp_path):
        # The second save's manifest commit deletes the first bundle's
        # staged files; saving the first afterwards must write nothing.
        target = tmp_path / "run"
        first = Simulator(_config(2)).run(stream_dir=target)
        second = Simulator(_config(2).with_overrides(seed=24)).run(
            stream_dir=target
        )
        save_feeds(second, target)
        committed = {
            path: path.read_bytes()
            for path in sorted(target.rglob("*"))
            if path.is_file()
        }
        with pytest.raises(RunStoreError, match="another save committed"):
            save_feeds(first, target)
        first.mobility.pending_writer.close()
        assert {
            path: path.read_bytes()
            for path in sorted(target.rglob("*"))
            if path.is_file()
        } == committed
        assert_feeds_equivalent(second, load_feeds(target), bitwise=True)

    def test_events_commit_refuses_missing_staged_files(self, tmp_path):
        from repro.io.columnar import EventsWriter

        writer = EventsWriter(tmp_path, num_shards=2, num_days=1)
        frame = Simulator(
            _config(2).with_overrides(emit_signaling=True)
        ).run().signaling[0]
        writer.write_day(0, frame)
        writer._columns[1]["site_id"].path.unlink()
        with pytest.raises(RunStoreError, match="another save committed"):
            writer.commit()
        assert not list(tmp_path.rglob("*.npy"))
        for columns in writer._columns:
            for column in columns.values():
                column._handle.close()

    def test_killed_run_resumes_the_staged_table(self, tmp_path, monkeypatch):
        writers = []
        real_init = ColumnarWriter.__init__

        def recording_init(writer, *args, **kwargs):
            real_init(writer, *args, **kwargs)
            writers.append(writer)

        monkeypatch.setattr(ColumnarWriter, "__init__", recording_init)
        config = (
            SimulationConfig.tiny(seed=5)
            .with_overrides(
                num_users=300,
                target_site_count=40,
                recovery=RecoverySettings(max_retries=0),
            )
            .with_parallelism(2, workers=1)
        )
        killed = tmp_path / "killed"
        with pytest.raises(ShardExecutionError):
            api.simulate(
                config.with_overrides(fault_spec="kill:shard=0,day=60"),
                killed,
            )
        # The raising run closed its staged files and left them on disk.
        (writer,) = writers
        for staged in (*writer._daily, *writer._night, writer.kpi_table):
            assert staged._handle.closed, staged.path
        assert len(_kpi_staging(killed)) == 1
        api.resume(killed)
        clean = tmp_path / "clean"
        api.simulate(config, clean)
        assert (killed / "radio_kpis.npy").read_bytes() == (
            clean / "radio_kpis.npy"
        ).read_bytes()
        assert not list(killed.rglob("*.tmp"))

    def test_fresh_handle_reports_like_the_reopened_run(self, tmp_path):
        config = SimulationConfig.tiny(seed=3).with_parallelism(2, workers=1)
        target = tmp_path / "run"
        fresh = api.simulate(config, target).study(cache=False)
        reopened = api.Run.open(target).study(cache=False)
        assert fresh.report(full=True) == reopened.report(full=True)


# ---------------------------------------------------------------------------
# Degenerate populations: zero and one filtered user
# ---------------------------------------------------------------------------


def _degenerate_feeds(seed: int):
    # num_users=1 keeps the run tiny; the lone SIM survives filtering
    # for seed=1 and is dropped (M2M/roamer) for seed=2, probed offline.
    config = SimulationConfig(num_users=1, target_site_count=10, seed=seed)
    return Simulator(config).run()


class TestDegeneratePopulations:
    def _roundtrip_and_analyze(self, feeds, tmp_path):
        target = tmp_path / "run"
        save_feeds(feeds, target)
        loaded = load_feeds(target)
        with warnings.catch_warnings():
            warnings.simplefilter("error", category=RuntimeWarning)
            metrics = compute_daily_metrics(loaded)
        return loaded, metrics

    def test_single_user_roundtrip(self, tmp_path):
        feeds = _degenerate_feeds(seed=1)
        assert feeds.mobility.num_users == 1
        loaded, metrics = self._roundtrip_and_analyze(feeds, tmp_path)
        assert loaded.mobility.num_users == 1
        days = feeds.calendar.num_days
        assert metrics.entropy.shape == (days, 1)
        assert metrics.gyration_km.shape == (days, 1)
        assert_feeds_equivalent(feeds, loaded, bitwise=True)

    def test_zero_user_roundtrip(self, tmp_path):
        feeds = _degenerate_feeds(seed=2)
        assert feeds.mobility.num_users == 0
        loaded, metrics = self._roundtrip_and_analyze(feeds, tmp_path)
        assert loaded.mobility.num_users == 0
        days = feeds.calendar.num_days
        assert metrics.entropy.shape == (days, 0)
        assert metrics.gyration_km.shape == (days, 0)
        assert_feeds_equivalent(feeds, loaded, bitwise=True)

    def test_zero_user_eager_load(self, tmp_path):
        feeds = _degenerate_feeds(seed=2)
        target = tmp_path / "run"
        save_feeds(feeds, target)
        loaded = load_feeds(target)
        assert loaded.mobility.num_users == 0
        assert loaded.mobility.num_days == feeds.calendar.num_days


# ---------------------------------------------------------------------------
# Telemetry counters
# ---------------------------------------------------------------------------


@pytest.fixture
def recorder():
    recorder = telemetry.enable()
    yield recorder
    telemetry.disable()


class TestStoreCounters:
    def test_lazy_open_counts_mapped_bytes(self, lazy_run, recorder):
        mobility = load_feeds(lazy_run).mobility
        counters = telemetry.snapshot()["counters"]
        expected = sum(
            shard.daily_dwell.nbytes + shard.night_dwell.nbytes
            for shard in mobility.shards
        )
        assert counters["store.bytes_mapped"] == expected > 0

    def test_streaming_counts_nonempty_shards(self, lazy_run, recorder):
        stored = load_feeds(lazy_run)
        compute_daily_metrics(stored)
        nonempty = sum(
            1 for shard in stored.mobility.shards if shard.num_rows
        )
        counters = telemetry.snapshot()["counters"]
        assert counters["store.shards_streamed"] == nonempty > 0

    def test_metrics_map_one_window_per_week(self, lazy_run, recorder):
        # 14 days are read as two 7-day windows per shard.
        stored = load_feeds(lazy_run)
        compute_daily_metrics(stored)
        counters = telemetry.snapshot()["counters"]
        assert counters["store.windows_mapped"] == 4 * 2

    def test_load_counts_digest_verifications(self, lazy_run, recorder):
        load_feeds(lazy_run)
        counters = telemetry.snapshot()["counters"]
        # Three small files plus five columns for each of four shards.
        assert counters["store.digest_verifications"] == 3 + 5 * 4


# ---------------------------------------------------------------------------
# Property-based round-trip over synthetic feeds
# ---------------------------------------------------------------------------


@st.composite
def synthetic_feeds(draw):
    num_users = draw(st.integers(min_value=0, max_value=10))
    num_days = draw(st.integers(min_value=0, max_value=4))
    num_anchors = draw(st.integers(min_value=1, max_value=4))
    user_ids = np.asarray(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=2**31),
                min_size=num_users,
                max_size=num_users,
                unique=True,
            )
        ),
        dtype=np.int64,
    )
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    anchor_sites = rng.integers(
        0, 50, size=(num_users, num_anchors), dtype=np.int64
    )
    shape = (num_users, num_anchors)
    daily = [
        (rng.random(shape) * 86_400).astype(np.float32)
        for _ in range(num_days)
    ]
    night = [
        (rng.random(shape) * 28_800).astype(np.float32)
        for _ in range(num_days)
    ]
    return _one_shard_feed(user_ids, anchor_sites, daily, night)


def _one_shard_feed(user_ids, anchor_sites, daily, night):
    """A whole-population feed of one shard over day lists."""
    rows = np.arange(user_ids.shape[0])
    return ShardedMobilityFeed.from_stacks(
        [rows], user_ids, anchor_sites, [daily], [night]
    )


class TestPropertyRoundTrip:
    @given(mobility=synthetic_feeds(), shards=st.sampled_from(SHARD_COUNTS))
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_roundtrip_is_bitwise_for_every_layout(self, mobility, shards):
        with tempfile.TemporaryDirectory() as scratch:
            target = Path(scratch) / "run"
            writer = ColumnarWriter(
                target,
                shard_user_indices(mobility.user_ids, shards),
                mobility.user_ids,
                mobility.anchor_sites,
                mobility.num_days,
            )
            writer.write_all(mobility)
            writer.commit()
            reopened = open_columnar(target, shards)
            assert np.array_equal(reopened.user_ids, mobility.user_ids)
            assert np.array_equal(
                reopened.anchor_sites, mobility.anchor_sites
            )
            for day in range(mobility.num_days):
                for column in ("daily_dwell", "night_dwell"):
                    expected = getattr(mobility, column)[day]
                    actual = getattr(reopened, column)[day]
                    assert actual.dtype == expected.dtype
                    assert np.array_equal(actual, expected)

    @given(shards=st.sampled_from(SHARD_COUNTS))
    @settings(max_examples=3, deadline=None)
    def test_missing_column_is_named(self, shards):
        mobility = _one_shard_feed(
            np.arange(6, dtype=np.int64),
            np.zeros((6, 2), dtype=np.int64),
            [np.ones((6, 2), dtype=np.float32)],
            [np.ones((6, 2), dtype=np.float32)],
        )
        with tempfile.TemporaryDirectory() as scratch:
            target = Path(scratch) / "run"
            writer = ColumnarWriter(
                target,
                shard_user_indices(mobility.user_ids, shards),
                mobility.user_ids,
                mobility.anchor_sites,
                mobility.num_days,
            )
            writer.write_all(mobility)
            writer.commit()
            victim = (
                target / shard_relative_paths(shards)[len(SHARD_COLUMNS) - 1]
            )
            victim.unlink()
            with pytest.raises(RunStoreError, match="missing feed shard"):
                open_columnar(target, shards)
