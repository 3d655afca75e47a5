"""Serial-equivalence of the sharded parallel engine.

The headline risk of sharded execution is *silent divergence*: a
parallel run that is plausibly shaped but numerically different from
the serial engine.  These tests pin the documented contract
(:mod:`repro.simulation.sharding`):

- a sharded run equals the serial run for the same seed — per-user
  arrays bitwise, cell aggregates allclose — for shard counts 2, 4, 7;
- results are invariant to the shard count (K = 2 equals K = 4);
- repeated runs of the same layout are bitwise identical;
- the process-pool path is bitwise identical to the in-process path;
- the partitioning itself is stable, total, and balanced.
"""

import datetime as dt

import numpy as np
import pytest

from repro.simulation.clock import StudyCalendar
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import build_world
from repro.simulation.sharding import (
    ParallelismSettings,
    shard_user_indices,
    stable_shard_of,
)

from tests.simulation.harness import assert_feeds_equivalent, run_config

SHARD_COUNTS = (2, 4, 7)

# Four weeks around the lockdown: covers the pandemic phase
# transitions (demand drop, voice surge, relocations) while keeping a
# full equivalence sweep affordable. Signalling, the one optional
# output, is kept on so every output is under contract.
_CALENDAR = StudyCalendar(first_day=dt.date(2020, 2, 24), num_days=28)
_CONFIG = SimulationConfig(
    num_users=240,
    target_site_count=40,
    seed=77,
    calendar=_CALENDAR,
    emit_signaling=True,
)

_RUNS: dict[int, object] = {}


def _run(num_shards: int, workers: int = 1):
    """Run the shared config at a shard count (cached per layout)."""
    key = (num_shards, workers)
    if key not in _RUNS:
        config = (
            _CONFIG
            if num_shards == 1 and workers == 1
            else _CONFIG.with_parallelism(num_shards, workers=workers)
        )
        _RUNS[key] = run_config(config)
    return _RUNS[key]


class TestSerialEquivalence:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_sharded_equals_serial(self, num_shards):
        assert_feeds_equivalent(_run(1), _run(num_shards))

    def test_shard_count_invariance(self):
        # K = 2 and K = 4 partition the users differently, yet agree.
        assert_feeds_equivalent(_run(2), _run(4))

    def test_repeated_parallel_runs_bitwise_identical(self):
        config = _CONFIG.with_parallelism(4, workers=1)
        assert_feeds_equivalent(
            run_config(config), run_config(config), bitwise=True
        )

    def test_pool_path_bitwise_equals_in_process(self):
        # Same shards on a 2-process pool: byte-for-byte the same run.
        assert_feeds_equivalent(
            _run(2, workers=1), _run(2, workers=2), bitwise=True
        )
        # 10 days end in a partial (shard, window) task; 28 do not.
        short = _CONFIG.with_overrides(
            calendar=StudyCalendar(
                first_day=_CALENDAR.first_day, num_days=10
            )
        )
        in_process = run_config(short.with_parallelism(2, workers=1))
        pooled = run_config(short.with_parallelism(2, workers=2))
        assert in_process.mobility.num_days == 10
        assert np.array_equal(
            np.unique(in_process.radio_kpis["day"]), np.arange(10)
        )
        # The partial window's days hold their own days' dwell.
        trajectories = build_world(short).trajectories
        for day in (7, 9):
            assert np.array_equal(
                in_process.mobility.daily_dwell[day],
                trajectories.day_dwell(day).daily_dwell().astype(np.float32),
            )
        assert_feeds_equivalent(in_process, pooled, bitwise=True)


class TestShardPartition:
    def test_assignments_are_a_partition(self):
        user_ids = np.arange(1000, 4000, 3)
        indices = shard_user_indices(user_ids, 7)
        combined = np.concatenate(indices)
        assert np.array_equal(np.sort(combined), np.arange(user_ids.size))

    def test_assignments_stable_across_calls_and_order(self):
        user_ids = np.arange(5000, 7000)
        first = stable_shard_of(user_ids, 5)
        second = stable_shard_of(user_ids, 5)
        assert np.array_equal(first, second)
        # Hash of the id, not of the row: permuting rows permutes the
        # assignment with them.
        permutation = np.random.default_rng(0).permutation(user_ids.size)
        assert np.array_equal(
            stable_shard_of(user_ids[permutation], 5), first[permutation]
        )

    def test_assignments_roughly_balanced(self):
        user_ids = np.arange(20_000)
        counts = np.bincount(stable_shard_of(user_ids, 8), minlength=8)
        assert counts.min() > 0.8 * user_ids.size / 8
        assert counts.max() < 1.2 * user_ids.size / 8

    def test_single_shard_takes_everyone(self):
        user_ids = np.arange(100)
        assert np.array_equal(
            stable_shard_of(user_ids, 1), np.zeros(100, dtype=np.int64)
        )


class TestParallelismSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelismSettings(num_shards=0)
        with pytest.raises(ValueError):
            ParallelismSettings(workers=0)
        with pytest.raises(TypeError):
            SimulationConfig(parallelism="4x4")

    def test_with_parallelism_defaults_workers_to_shards(self):
        config = SimulationConfig.tiny().with_parallelism(4)
        assert config.parallelism == ParallelismSettings(
            num_shards=4, workers=4
        )

    def test_degenerate_more_shards_than_users(self):
        # Empty shards are legal and do not disturb the reduction.
        calendar = StudyCalendar(
            first_day=dt.date(2020, 2, 24), num_days=7
        )
        config = SimulationConfig(
            num_users=5,
            target_site_count=30,
            seed=11,
            calendar=calendar,
        )
        assert_feeds_equivalent(
            run_config(config),
            run_config(config.with_parallelism(13, workers=1)),
        )
