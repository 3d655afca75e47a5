"""Unit tests for the scheduler, interconnect and KPI accumulator."""

import numpy as np
import pytest

from repro.frames import Frame
from repro.network import (
    CellScheduler,
    InterconnectSettings,
    KpiAccumulator,
    SchedulerSettings,
    VoiceInterconnect,
)
from repro.io.columnar import _StackFile
from repro.network.kpi import KPI_COLUMNS, kpi_row_dtype


class TestScheduler:
    def setup_method(self):
        self.scheduler = CellScheduler()

    def run(self, **overrides):
        defaults = dict(
            capacity_mbps=np.array([100.0]),
            offered_dl_mb=np.array([200.0]),
            offered_ul_mb=np.array([500.0]),
            active_users=np.array([5.0]),
            app_rate_dl_mbps=np.array([4.0]),
        )
        defaults.update(overrides)
        return self.scheduler.schedule_hours(**defaults)

    def test_served_never_exceeds_capacity(self):
        out = self.run(offered_dl_mb=np.array([1e9]))
        assert out.served_dl_mb[0] <= 100.0 * 3600 / 8

    def test_uncongested_serves_all(self):
        out = self.run(offered_dl_mb=np.array([1000.0]))
        assert out.served_dl_mb[0] == pytest.approx(1000.0)

    def test_load_grows_with_traffic(self):
        quiet = self.run(offered_dl_mb=np.array([1000.0]))
        busy = self.run(offered_dl_mb=np.array([20_000.0]))
        assert busy.radio_load_pct[0] > quiet.radio_load_pct[0]

    def test_load_bounded(self):
        out = self.run(
            offered_dl_mb=np.array([1e9]), active_users=np.array([1000.0])
        )
        assert 0 <= out.radio_load_pct[0] <= 100

    def test_baseline_load_present_when_idle(self):
        out = self.run(
            offered_dl_mb=np.array([0.0]),
            offered_ul_mb=np.array([0.0]),
            active_users=np.array([0.0]),
        )
        assert out.radio_load_pct[0] == pytest.approx(2.0, abs=0.5)

    def test_active_users_derived_from_volume(self):
        # 100 MB at 4 Mbps keeps a buffer busy 200 s → 0.056 avg users,
        # plus the presence-coupled background term.
        active = self.scheduler.active_users_from_volume(
            dl_volume_mb=np.array([100.0]),
            app_rate_mbps=np.array([4.0]),
            connected_users=np.array([10.0]),
        )
        assert active[0] == pytest.approx(200.0 / 3600.0 + 0.1, rel=1e-6)

    def test_active_users_rise_when_app_rate_drops(self):
        # Provider throttling: same volume, lower rate → more active
        # users — the paper's N-district effect (§5.1).
        fast = self.scheduler.active_users_from_volume(
            np.array([100.0]), np.array([4.0]), np.array([0.0])
        )
        slow = self.scheduler.active_users_from_volume(
            np.array([100.0]), np.array([3.4]), np.array([0.0])
        )
        assert slow[0] > fast[0] * 1.15

    def test_active_users_zero_rate_safe(self):
        active = self.scheduler.active_users_from_volume(
            np.array([100.0]), np.array([0.0]), np.array([0.0])
        )
        assert active[0] == 0.0

    def test_throughput_app_limited_when_cell_quiet(self):
        out = self.run(active_users=np.array([2.0]))
        # Fair share is 50 Mbps, app rate 4 Mbps: app wins.
        assert out.user_dl_throughput_mbps[0] < 4.0
        assert out.user_dl_throughput_mbps[0] > 3.0

    def test_throughput_capacity_limited_when_crowded(self):
        out = self.run(active_users=np.array([100.0]))
        assert out.user_dl_throughput_mbps[0] < 1.0

    def test_zero_capacity_cell_safe(self):
        out = self.run(capacity_mbps=np.array([0.0]))
        assert out.served_dl_mb[0] == 0.0
        assert out.user_dl_throughput_mbps[0] == 0.0

    def test_active_seconds_bounded_by_hour(self):
        out = self.run(offered_dl_mb=np.array([1e6]))
        assert 0 <= out.active_seconds[0] <= 3600

    def test_custom_settings(self):
        scheduler = CellScheduler(SchedulerSettings(baseline_load=0.2))
        out = scheduler.schedule_hours(
            capacity_mbps=np.array([100.0]),
            offered_dl_mb=np.array([0.0]),
            offered_ul_mb=np.array([0.0]),
            active_users=np.array([0.0]),
            app_rate_dl_mbps=np.array([4.0]),
        )
        assert out.radio_load_pct[0] == pytest.approx(20.0, abs=0.5)


class TestInterconnect:
    def make(self, **overrides) -> VoiceInterconnect:
        settings = InterconnectSettings(
            capacity_mb_per_day=1000.0, **overrides
        )
        return VoiceInterconnect(settings)

    def test_baseline_loss_when_quiet(self):
        link = self.make()
        loss = link.process_day(800.0)  # util 0.44
        assert loss < 0.004

    def test_congestion_raises_loss(self):
        link = self.make()
        quiet = link.process_day(800.0)
        busy = link.process_day(2000.0)  # util 1.1
        assert busy > quiet * 2

    def test_ops_upgrade_after_sustained_alarm(self):
        link = self.make(detection_days=3)
        for _ in range(3):
            link.process_day(2200.0)
        assert link.upgraded
        assert link.capacity_mb_per_day > 1000.0

    def test_loss_recovers_after_upgrade(self):
        link = self.make(detection_days=2)
        spike = link.process_day(2400.0)
        link.process_day(2400.0)
        recovered = link.process_day(2400.0)
        assert link.upgraded
        assert recovered < spike / 2

    def test_alarm_streak_resets(self):
        link = self.make(detection_days=2)
        link.process_day(2400.0)  # alarm 1
        link.process_day(100.0)  # resets
        link.process_day(2400.0)  # alarm 1 again
        assert not link.upgraded

    def test_negative_volume_rejected(self):
        link = self.make()
        with pytest.raises(ValueError):
            link.process_day(-1.0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            VoiceInterconnect(InterconnectSettings(capacity_mb_per_day=0.0))


class TestKpiAccumulator:
    def make_accumulator(self, cells: int = 3):
        return KpiAccumulator(
            cell_ids=np.arange(cells, dtype=np.int64),
            postcodes=np.array([f"PC{i}" for i in range(cells)]),
        )

    def make_blocks(self, seed: int, hours: int = 24, cells: int = 3):
        rng = np.random.default_rng(seed)
        return {name: rng.random((hours, cells)) for name in KPI_COLUMNS}

    def make_day(self, values, cells: int = 3):
        """One (hours, cells) block per metric, hour ``h`` at values[h]."""
        block = np.repeat(
            np.asarray(values, dtype=np.float64)[:, None], cells, axis=1
        )
        return {name: block for name in KPI_COLUMNS}

    def test_daily_median_of_hours(self):
        acc = self.make_accumulator()
        acc.add_day(0, self.make_day([1.0, 5.0, 9.0]), num_hours=3)
        daily = acc.daily_frame()
        assert np.all(daily["dl_volume_mb"] == 5.0)
        assert len(daily) == 3

    def test_multiple_days_stack(self):
        acc = self.make_accumulator()
        for day in range(2):
            acc.add_day(day, self.make_day([float(day)]), num_hours=1)
        daily = acc.daily_frame()
        assert len(daily) == 6
        assert set(daily["day"].tolist()) == {0, 1}

    def test_add_day_is_the_median_over_hours(self):
        cells = 5
        daily = self.make_accumulator(cells)
        for day in range(3):
            blocks = self.make_blocks(seed=day, cells=cells)
            daily.add_day(day, blocks, num_hours=24)
            rows = daily.daily_frame().filter(
                daily.daily_frame()["day"] == day
            )
            for name in KPI_COLUMNS:
                assert np.array_equal(
                    rows[name], np.median(blocks[name], axis=0)
                ), name

    def test_add_day_broadcasts_a_vector_over_the_hours(self):
        acc = self.make_accumulator()
        blocks = self.make_blocks(seed=7)
        constant = np.array([0.5, 1.5, 2.5])
        blocks["voice_ul_loss_rate"] = constant
        acc.add_day(0, blocks, num_hours=24)
        daily = acc.daily_frame()
        assert np.array_equal(daily["voice_ul_loss_rate"], constant)
        assert np.array_equal(daily["day"], np.zeros(3, dtype=np.int64))

    def test_add_day_wrong_shape_rejected(self):
        acc = self.make_accumulator()
        blocks = self.make_blocks(seed=1)
        blocks["radio_load_pct"] = np.ones((23, 3))
        with pytest.raises(ValueError, match="shape"):
            acc.add_day(0, blocks, num_hours=24)
        blocks["radio_load_pct"] = np.ones(4)
        with pytest.raises(ValueError, match="shape"):
            acc.add_day(0, blocks, num_hours=24)
        assert len(acc.daily_frame()) == 0

    def test_add_day_missing_metric_rejected(self):
        acc = self.make_accumulator()
        blocks = self.make_blocks(seed=2)
        del blocks["voice_users"]
        with pytest.raises(ValueError, match="missing"):
            acc.add_day(0, blocks, num_hours=24)

    def test_empty_daily_frame_has_schema(self):
        daily = self.make_accumulator().daily_frame()
        assert isinstance(daily, Frame)
        assert "dl_volume_mb" in daily.column_names
        assert len(daily) == 0

    def test_streamed_table_gives_the_in_memory_frame(self, tmp_path):
        cells, days = 4, 3
        in_memory = self.make_accumulator(cells)
        postcodes = np.array([f"PC{i}" for i in range(cells)])
        table = _StackFile(
            tmp_path / "kpis.npy", (days * cells,), kpi_row_dtype(postcodes)
        )
        streamed = KpiAccumulator(
            cell_ids=np.arange(cells, dtype=np.int64),
            postcodes=postcodes,
            table=table,
        )
        for day in range(days):
            blocks = self.make_blocks(seed=day, cells=cells)
            blocks["voice_ul_loss_rate"] = blocks["voice_ul_loss_rate"][0]
            in_memory.add_day(day, blocks, num_hours=24)
            streamed.add_day(day, blocks, num_hours=24)
        expected, got = in_memory.daily_frame(), streamed.daily_frame()
        assert got.column_names == expected.column_names
        for name in expected.column_names:
            assert got[name].dtype == expected[name].dtype, name
            assert (
                np.ascontiguousarray(got[name]).tobytes()
                == expected[name].tobytes()
            ), name
