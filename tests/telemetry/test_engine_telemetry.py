"""Telemetry through the engine: shard merging, persistence, off-path.

The engine's determinism contract says shard layout never changes the
data; these tests pin the telemetry analogue — integer span counters
merge to the same totals for K ∈ {1, 2, 4} shards — plus the snapshot's
round-trip through ``save_feeds``/``load_feeds`` and the guarantee that
a disabled run records nothing.
"""

import datetime as dt
import json
import math

import pytest

from repro import telemetry
from repro.io import load_feeds, save_feeds
from repro.simulation.clock import StudyCalendar
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import WINDOW_DAYS, Simulator

_CALENDAR = StudyCalendar(first_day=dt.date(2020, 2, 24), num_days=14)
#: Each shard runs the study as this many (shard, window) tasks.
_WINDOWS = math.ceil(_CALENDAR.num_days / WINDOW_DAYS)
_CONFIG = SimulationConfig(
    num_users=240,
    target_site_count=40,
    seed=77,
    calendar=_CALENDAR,
)


def run_with_telemetry(config):
    telemetry.enable()
    try:
        feeds = Simulator(config).run()
    finally:
        telemetry.disable()
    return feeds


def span_counters(snapshot, path):
    return snapshot["spans"][path]["counters"]


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_shard_spans_merge_to_serial_totals(shards):
    serial = run_with_telemetry(_CONFIG).telemetry
    sharded = run_with_telemetry(
        _CONFIG.with_parallelism(shards)
    ).telemetry

    # The coordinator waits once per window, directly under simulate;
    # each (shard, window) task is one shard span.
    assert sharded["spans"]["simulate/shard_execution"]["calls"] == _WINDOWS
    shard_path = "simulate/shard_execution/shard"
    stats = sharded["spans"][shard_path]
    assert stats["calls"] == shards * _WINDOWS
    # Integer counters are exact under any shard grouping.
    assert span_counters(sharded, shard_path)["users"] == (
        span_counters(serial, shard_path)["users"]
    )
    assert span_counters(sharded, shard_path)["days"] == (
        shards * _CALENDAR.num_days
    )
    day_path = shard_path + "/dwell_assembly"
    assert sharded["spans"][day_path]["calls"] == (
        shards * _CALENDAR.num_days
    )
    assert span_counters(sharded, day_path)["dwell_cells"] == (
        span_counters(serial, day_path)["dwell_cells"]
    )


def test_pool_workers_ship_spans_home():
    feeds = run_with_telemetry(_CONFIG.with_parallelism(4, workers=2))
    snapshot = feeds.telemetry
    shard_path = "simulate/shard_execution/shard"
    assert snapshot["spans"][shard_path]["calls"] == 4 * _WINDOWS
    serial = run_with_telemetry(_CONFIG).telemetry
    assert span_counters(snapshot, shard_path)["users"] == (
        span_counters(serial, shard_path)["users"]
    )
    assert span_counters(snapshot, shard_path)["days"] == (
        4 * _CALENDAR.num_days
    )
    day_path = shard_path + "/dwell_assembly"
    assert span_counters(snapshot, day_path)["dwell_cells"] == (
        span_counters(serial, day_path)["dwell_cells"]
    )


def test_snapshot_round_trips_through_manifest(tmp_path):
    feeds = run_with_telemetry(_CONFIG)
    assert feeds.telemetry is not None
    path = save_feeds(feeds, tmp_path / "run")

    manifest = json.loads((path / "manifest.json").read_text())
    assert manifest["telemetry"] == feeds.telemetry

    reloaded = load_feeds(path)
    assert reloaded.telemetry == feeds.telemetry


def test_disabled_run_records_nothing(tmp_path):
    assert not telemetry.enabled()
    feeds = Simulator(_CONFIG).run()
    assert feeds.telemetry is None
    path = save_feeds(feeds, tmp_path / "run")
    manifest = json.loads((path / "manifest.json").read_text())
    assert "telemetry" not in manifest
    assert load_feeds(path).telemetry is None
