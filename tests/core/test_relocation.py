"""Tests for the Inner-London relocation matrix (Fig 7)."""

import datetime as dt
import warnings

import numpy as np
import pytest

from repro import api, telemetry
from repro.core import relocation_matrix
from repro.core.home import detect_homes
from repro.core.relocation import HOME_COUNTY, shard_relocation_presence
from repro.io import load_feeds
from repro.io.columnar import ShardedMobilityFeed
from repro.simulation.clock import BASELINE_WEEK, StudyCalendar
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulator
from repro.simulation.feeds import MobilityShard
from repro.simulation.sharding import WINDOW_DAYS


@pytest.fixture(scope="module")
def matrix(study):
    return study.fig7()


class TestRelocationMatrix:
    def test_inner_london_row_first(self, matrix):
        assert matrix.counties[0] == "Inner London"

    def test_shape(self, matrix):
        assert matrix.change_pct.shape == (
            len(matrix.counties),
            matrix.days.size,
        )
        assert len(matrix.counties) <= 11

    def test_sustained_presence_decrease_after_lockdown(
        self, matrix, calendar
    ):
        # Paper: a permanent ~10% decrease of Inner-London residents
        # present in Inner London from week 13 onward.
        weeks = calendar.weeks[matrix.days]
        series = matrix.county_series("Inner London")
        lockdown = series[weeks >= 14].mean()
        assert -16.0 < lockdown < -4.0

    def test_baseline_near_zero_on_weekdays(self, matrix, calendar):
        # Weekdays only: pre-pandemic weekends legitimately dip (the
        # weekend-away pattern the paper reports).
        weeks = calendar.weeks[matrix.days]
        weekday = ~calendar.is_weekend[matrix.days]
        series = matrix.county_series("Inner London")
        assert abs(series[(weeks == 9) & weekday].mean()) < 3.0

    def test_away_share_rises_during_lockdown(self, matrix, calendar):
        weeks = calendar.weeks[matrix.days]
        baseline_days = np.flatnonzero(weeks == 9)
        lockdown_days = np.flatnonzero(weeks == 15)
        baseline = np.mean(
            [matrix.away_share(int(d)) for d in baseline_days]
        )
        lockdown = np.mean(
            [matrix.away_share(int(d)) for d in lockdown_days]
        )
        assert lockdown > baseline + 0.04

    def test_receiving_counties_gain_residents(self, matrix, calendar):
        # Relocation destinations must show a sustained increase.
        weeks = calendar.weeks[matrix.days]
        gains = []
        for county in matrix.counties[1:]:
            series = matrix.county_series(county)
            gains.append(series[weeks >= 14].mean())
        assert max(gains) > 10.0

    def test_paper_destinations_in_matrix(self, matrix):
        # Hampshire / Kent / East Sussex should rank among receivers.
        assert {"Hampshire", "Kent", "East Sussex"} & set(matrix.counties)

    def test_pre_lockdown_exodus_spike(self, matrix, calendar):
        # March 21–22: trips out of London spike just before the order.
        day_21 = calendar.day_of(__import__("datetime").date(2020, 3, 21))
        column = np.flatnonzero(matrix.days == day_21)
        assert column.size == 1
        outbound = matrix.change_pct[1:, column[0]]
        assert outbound.max() > 25.0

    def test_weekend_away_pattern_disappears(self, matrix, calendar):
        # Paper: pre-pandemic weekends show Londoners away; the pattern
        # vanishes after the distancing recommendations.
        weeks = calendar.weeks[matrix.days]
        weekend = calendar.is_weekend[matrix.days]
        series = matrix.county_series("Inner London")
        pre = weeks <= 10
        weekend_dip = (
            series[pre & weekend].mean() - series[pre & ~weekend].mean()
        )
        assert weekend_dip < -1.0  # fewer residents present on weekends

    def test_presence_counts_bounded_by_residents(self, matrix):
        assert matrix.presence.max() <= matrix.num_residents

    def test_to_frame(self, matrix):
        frame = matrix.to_frame()
        assert frame["county"].tolist() == matrix.counties
        assert len(frame.column_names) == matrix.days.size + 1
        first_day = str(int(matrix.days[0]))
        assert frame[first_day].tolist() == matrix.change_pct[:, 0].tolist()

    def test_custom_threshold_and_top(self, feeds, study):
        small = relocation_matrix(
            feeds, study.homes, top_counties=3,
            presence_threshold_s=3600.0,
        )
        assert len(small.counties) <= 4


# ---------------------------------------------------------------------------
# Per-shard presence kernel, on stored runs and on synthetic shards
# ---------------------------------------------------------------------------

SHARD_COUNTS = (1, 2, 4)

#: ISO weeks 6-10: February for home detection, then two weeks of
#: Fig 7 from baseline week 9 on.
_CALENDAR = StudyCalendar(first_day=dt.date(2020, 2, 3), num_days=35)


def _config(shards: int) -> SimulationConfig:
    return SimulationConfig.tiny(seed=29).with_overrides(
        calendar=_CALENDAR
    ).with_parallelism(shards, workers=1)


@pytest.fixture(scope="module")
def oracle():
    """The engine's in-memory one-shard feed and its homes."""
    feeds = Simulator(_config(1)).run()
    return feeds, detect_homes(feeds)


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """Each shard layout simulated to disk and reopened, with its homes."""
    base = tmp_path_factory.mktemp("relocation")
    runs = {}
    for shards in SHARD_COUNTS:
        api.simulate(_config(shards), base / f"run-k{shards}")
        feeds = load_feeds(base / f"run-k{shards}")
        runs[shards] = feeds, detect_homes(feeds)
    return runs


def _assert_same_matrix(actual, expected):
    assert actual.counties == expected.counties
    assert actual.num_residents == expected.num_residents
    for name in ("days", "presence", "change_pct"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def _site_counties(feeds) -> np.ndarray:
    """Each site's county name."""
    county = np.array([d.county for d in feeds.geography.districts])
    return county[feeds.topology.site_district_indices]


def _residents(feeds, homes) -> np.ndarray:
    """Population-order mask of the detected Inner-London residents."""
    home_county = _site_counties(feeds)[np.maximum(homes.home_site, 0)]
    return homes.detected & (home_county == HOME_COUNTY)


def _reference_presence(feeds, homes, threshold_s=300.0):
    """Every county's presence counts by a per-county loop over
    population-order days: the reference the kernel's sum must equal."""
    counties = list(feeds.geography.county_names)
    resident = _residents(feeds, homes)
    anchor_names = _site_counties(feeds)[
        feeds.mobility.anchor_sites[resident]
    ]
    days = np.flatnonzero(feeds.calendar.weeks >= BASELINE_WEEK)
    presence = np.zeros((len(counties), days.size), dtype=np.int64)
    for column, day in enumerate(days):
        visited = feeds.mobility.dwell(int(day))[resident] >= threshold_s
        for row, name in enumerate(counties):
            slots = anchor_names == name
            presence[row, column] = (visited & slots).any(axis=1).sum()
    return presence


class TestShardedRelocation:
    def test_kernel_sum_equals_per_county_loop(self, oracle):
        feeds, homes = oracle
        matrix = relocation_matrix(feeds, homes)
        reference = _reference_presence(feeds, homes)
        rows = [
            list(feeds.geography.county_names).index(name)
            for name in matrix.counties
        ]
        assert np.array_equal(matrix.presence, reference[rows])
        assert matrix.num_residents > 0

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_stored_runs_equal_the_in_memory_feed(
        self, oracle, stored, shards
    ):
        expected = relocation_matrix(*oracle)
        _assert_same_matrix(relocation_matrix(*stored[shards]), expected)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_in_memory_sharded_feed_equals_one_shard(self, oracle, shards):
        feeds = Simulator(_config(shards)).run()
        assert feeds.mobility.num_shards == shards
        _assert_same_matrix(
            relocation_matrix(feeds, detect_homes(feeds)),
            relocation_matrix(*oracle),
        )

    def test_reads_dwell_by_shard_window(self, oracle, stored, monkeypatch):
        # A population-order read (feed.dwell(day)) raises here; the
        # kernel maps each 7-day window of each shard holding residents.
        feeds, homes = stored[4]
        expected = relocation_matrix(*oracle)

        def refuse(self, column, day):
            raise AssertionError(f"population-order read of {column}")

        monkeypatch.setattr(ShardedMobilityFeed, "_assemble", refuse)
        telemetry.enable()
        try:
            matrix = relocation_matrix(feeds, homes)
            counters = telemetry.snapshot()["counters"]
        finally:
            telemetry.disable()
        _assert_same_matrix(matrix, expected)
        resident = _residents(feeds, homes)
        holding = sum(
            1 for shard in feeds.mobility.shards if resident[shard.rows].any()
        )
        windows = -(-matrix.days.size // WINDOW_DAYS)
        assert holding > 1 and windows == 2
        assert counters["store.windows_mapped"] == holding * windows
        assert counters["store.shards_streamed"] == 4

    def test_no_baseline_week_day_raises_before_reading(self, monkeypatch):
        # 20 days from 3 Feb end in ISO week 8: homes are detected, but
        # no day of week 9 exists to rank counties or take a baseline.
        calendar = StudyCalendar(first_day=dt.date(2020, 2, 3), num_days=20)
        feeds = Simulator(
            SimulationConfig.tiny(seed=7).with_overrides(calendar=calendar)
        ).run()
        homes = detect_homes(feeds)
        assert homes.detected.any()

        def refuse(*args, **kwargs):
            raise AssertionError("a shard was read")

        monkeypatch.setattr(
            "repro.analysis.parallel.walk_shards", refuse
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValueError, match="no days in baseline week 9"
            ):
                relocation_matrix(feeds, homes)


#: Four sites over three counties; sites 0 and 1 share county 0.
_SITE_COUNTY = np.array([0, 0, 1, 2], dtype=np.int64)


def _shard(anchors, daily) -> MobilityShard:
    anchors = np.asarray(anchors, dtype=np.int64)
    rows = np.arange(anchors.shape[0])
    days = [np.asarray(day, dtype=np.float32) for day in daily]
    return MobilityShard(
        index=0,
        rows=rows,
        user_ids=rows.copy(),
        anchor_sites=anchors,
        daily_dwell=days,
        night_dwell=days,
    )


class _Unreadable(list):
    """Day list whose days raise when read."""

    def __getitem__(self, day):
        raise AssertionError("a shard without residents was read")


def _presence(shard, resident, threshold_s=300.0):
    return shard_relocation_presence(
        shard,
        np.asarray(resident, dtype=bool),
        _SITE_COUNTY,
        3,
        np.arange(len(shard.daily_dwell)),
        threshold_s,
    )


class TestPresenceKernel:
    def test_two_anchors_in_one_county_count_once(self):
        shard = _shard([[0, 1, 3]], [[[400.0, 900.0, 0.0]]])
        presence = _presence(shard, [True])
        assert presence.dtype == np.int64
        assert presence[:, 0].tolist() == [1, 0, 0]

    def test_threshold_is_inclusive(self):
        shard = _shard(
            [[0, 2, 3], [2, 3, 0]],
            [[[300.0, 299.99, 0.0], [300.0, 300.0, 0.0]]],
        )
        assert _presence(shard, [True, True])[:, 0].tolist() == [1, 1, 1]
        assert _presence(shard, [True, True], 300.5)[:, 0].tolist() == [
            0, 0, 0,
        ]

    def test_counts_per_day(self):
        shard = _shard(
            [[0, 2], [1, 3]],
            [[[500.0, 0.0], [0.0, 500.0]], [[0.0, 500.0], [500.0, 500.0]]],
        )
        assert _presence(shard, [True, True]).tolist() == [
            [1, 1],
            [0, 1],
            [1, 1],
        ]

    def test_only_residents_count(self):
        shard = _shard([[0, 2], [0, 3]], [[[500.0, 500.0], [500.0, 500.0]]])
        assert _presence(shard, [False, True])[:, 0].tolist() == [1, 0, 1]

    def test_shard_without_residents_returns_zeros_unread(self):
        shard = _shard([[0, 2]], [[[500.0, 500.0]], [[500.0, 0.0]]])
        shard.daily_dwell = _Unreadable(shard.daily_dwell)
        presence = _presence(shard, [False])
        assert presence.dtype == np.int64
        assert presence.shape == (3, 2)
        assert not presence.any()
