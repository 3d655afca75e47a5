"""Merge associativity of the shard-partitioned analysis kernels.

The per-shard walk (:func:`repro.analysis.parallel.walk_shards`) rests
on one algebraic fact: per-shard partials scatter into *disjoint*
population rows, so the merge is associative and commutative — the
order workers finish in can never change a byte.  This module pins
that fact directly, property-based where the order space is large:

- night-win-count partials and daily-metric blocks merged under any
  shard permutation equal the whole-feed result bitwise;
- night counts over disjoint day windows simply *add* (the live-run
  incremental identity);
- and the full ``(shards x workers)`` grid of public entry points, for
  each metric input, agrees with the one-shard in-memory feed — the
  whole population as one shard — as the oracle.
"""

import datetime as dt

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.home import (
    detect_homes,
    finalize_homes,
    night_win_counts,
    shard_night_win_counts,
)
from repro.core.statistics import compute_daily_metrics, shard_metric_blocks
from repro.io import load_feeds, save_feeds
from repro.mobility.agents import NUM_ANCHORS
from repro.simulation.clock import StudyCalendar
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulator

SHARD_COUNTS = (1, 2, 4)
WORKER_COUNTS = (None, 1, 2, 4)

#: Metric inputs beyond the defaults: a day window, a top-towers cut
#: below the anchor count (zeroes the smallest entries) and the
#: paper's gyration formula.
METRIC_OPTIONS = {
    "day_range": {"day_range": (3, 11)},
    "top_towers": {"top_towers": NUM_ANCHORS - 2},
    "paper": {"gyration_mode": "paper"},
}

_CALENDAR = StudyCalendar(first_day=dt.date(2020, 2, 24), num_days=14)


def _config(shards: int) -> SimulationConfig:
    return (
        SimulationConfig.tiny(seed=47)
        .with_overrides(
            num_users=200,
            target_site_count=40,
            calendar=_CALENDAR,
        )
        .with_parallelism(shards, workers=1)
    )


@pytest.fixture(scope="module")
def eager():
    """The engine's in-memory feeds, one per shard count.

    ``eager[1]`` is the oracle; each feed is saved at its own layout.
    """
    return {
        shards: Simulator(_config(shards)).run() for shards in SHARD_COUNTS
    }


@pytest.fixture(scope="module")
def run_dirs(tmp_path_factory, eager):
    base = tmp_path_factory.mktemp("assoc")
    dirs = {}
    for shards in SHARD_COUNTS:
        dirs[shards] = base / f"run-k{shards}"
        save_feeds(eager[shards], dirs[shards])
    return dirs


@pytest.fixture(scope="module")
def stored4(run_dirs):
    return load_feeds(run_dirs[4])


def _shard_order(data, mobility) -> list[int]:
    return data.draw(st.permutations(range(len(mobility.shards))))


_WINDOW = np.arange(10)


class TestShardOrderIndependence:
    """Scatter the real per-shard partials in every order."""

    @settings(
        max_examples=25, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(data=st.data())
    def test_night_counts_merge_any_order(self, stored4, data):
        mobility = stored4.mobility
        oracle = night_win_counts(stored4, _WINDOW)
        merged = np.zeros_like(oracle)
        for index in _shard_order(data, mobility):
            shard = mobility.shards[index]
            if shard.num_rows:
                merged[shard.rows] = shard_night_win_counts(
                    shard, _WINDOW
                )
        assert np.array_equal(merged, oracle)

    @settings(
        max_examples=10, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(data=st.data())
    def test_metric_blocks_merge_any_order(self, stored4, data):
        mobility = stored4.mobility
        site_lats, site_lons = stored4.site_locations()
        oracle = compute_daily_metrics(stored4)
        entropy = np.zeros_like(oracle.entropy)
        gyration = np.zeros_like(oracle.gyration_km)
        for index in _shard_order(data, mobility):
            shard = mobility.shards[index]
            if not shard.num_rows:
                continue
            entropy_block, gyration_block = shard_metric_blocks(
                shard,
                site_lats,
                site_lons,
                gyration_mode="weighted",
                top_towers=20,
                day_lo=0,
                day_hi=mobility.num_days,
            )
            entropy[:, shard.rows] = entropy_block
            gyration[:, shard.rows] = gyration_block
        assert np.array_equal(entropy, oracle.entropy)
        assert np.array_equal(gyration, oracle.gyration_km)


class TestWindowAdditivity:
    """Counts over disjoint day windows add — the live-run identity."""

    @settings(
        max_examples=20, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(split=st.integers(min_value=1, max_value=9))
    def test_disjoint_windows_add(self, stored4, split):
        first = night_win_counts(stored4, _WINDOW[:split])
        second = night_win_counts(stored4, _WINDOW[split:])
        whole = night_win_counts(stored4, _WINDOW)
        assert np.array_equal(first + second, whole)

    def test_summed_partials_finalize_identically(self, stored4):
        split = 4
        summed = night_win_counts(stored4, _WINDOW[:split])
        summed = summed + night_win_counts(stored4, _WINDOW[split:])
        direct = detect_homes(stored4, min_nights=3, window_days=_WINDOW)
        refolded = finalize_homes(stored4, summed, 3)
        assert np.array_equal(direct.home_site, refolded.home_site)
        assert np.array_equal(
            direct.nights_observed, refolded.nights_observed
        )


class TestGridVsSerialOracle:
    """Every (shards, workers) combo equals the one-shard in-memory feed.

    The engine's in-memory feed of a one-shard run is one shard of the
    whole population, walked in process: the oracle for every stored
    layout and executor.
    """

    def test_eager_feed_is_one_shard(self, eager):
        mobility = eager[1].mobility
        (shard,) = mobility.shards
        assert shard.index == 0
        assert np.array_equal(shard.rows, np.arange(mobility.num_users))

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_metrics_and_homes(self, run_dirs, eager, shards, workers):
        oracle_metrics = compute_daily_metrics(eager[1])
        oracle_homes = detect_homes(eager[1], min_nights=3)
        stored = load_feeds(run_dirs[shards])
        fanned_metrics = compute_daily_metrics(stored, workers=workers)
        fanned_homes = detect_homes(stored, min_nights=3, workers=workers)
        assert np.array_equal(
            oracle_metrics.entropy, fanned_metrics.entropy
        )
        assert np.array_equal(
            oracle_metrics.gyration_km, fanned_metrics.gyration_km
        )
        assert np.array_equal(
            oracle_homes.home_site, fanned_homes.home_site
        )
        assert np.array_equal(
            oracle_homes.nights_observed, fanned_homes.nights_observed
        )

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("option", sorted(METRIC_OPTIONS))
    def test_metric_options(self, run_dirs, eager, shards, workers, option):
        kwargs = METRIC_OPTIONS[option]
        oracle = compute_daily_metrics(eager[1], **kwargs)
        stored = load_feeds(run_dirs[shards])
        fanned = compute_daily_metrics(stored, workers=workers, **kwargs)
        assert np.array_equal(oracle.entropy, fanned.entropy)
        assert np.array_equal(oracle.gyration_km, fanned.gyration_km)

    def test_shard_count_does_not_change_results(self, run_dirs):
        # The same world saved at three layouts: results must agree
        # across shard counts too, not just worker counts.
        baselines = {}
        for shards in SHARD_COUNTS:
            stored = load_feeds(run_dirs[shards])
            metrics = compute_daily_metrics(stored, workers=2)
            baselines[shards] = (metrics.entropy, metrics.gyration_km)
        first = baselines[SHARD_COUNTS[0]]
        for shards in SHARD_COUNTS[1:]:
            assert np.array_equal(baselines[shards][0], first[0])
            assert np.array_equal(baselines[shards][1], first[1])
