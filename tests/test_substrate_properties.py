"""Cross-cutting property tests for the simulation substrate.

These verify *model* invariants — monotone responses, conservation,
bounds — that must hold for any parameterization, not just the
calibrated one.
"""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility.pandemic import PandemicTimeline
from repro.network.interconnect import InterconnectSettings, VoiceInterconnect
from repro.network.scheduler import CellScheduler
from repro.traffic.applications import mix_summary
from repro.traffic.demand import DemandModel
from repro.traffic.voice import VoiceModel

dates = st.dates(
    min_value=dt.date(2020, 2, 3), max_value=dt.date(2020, 5, 10)
)


class TestTimelineProperties:
    @given(dates)
    @settings(max_examples=80, deadline=None)
    def test_restriction_in_unit_interval(self, date):
        timeline = PandemicTimeline()
        level = timeline.restriction_level(date)
        assert 0.0 <= level <= 1.0

    @given(dates, dates)
    @settings(max_examples=80, deadline=None)
    def test_restriction_monotone_until_relaxation(self, first, second):
        timeline = PandemicTimeline()
        low, high = sorted((first, second))
        if high <= timeline.relaxation_start:
            assert timeline.restriction_level(
                low
            ) <= timeline.restriction_level(high)

    @given(dates)
    @settings(max_examples=80, deadline=None)
    def test_regional_multiplier_bounded(self, date):
        timeline = PandemicTimeline()
        for region in ("London", "North West", "South East", "Wales"):
            multiplier = timeline.regional_multiplier(region, date)
            assert 0.5 <= multiplier <= 1.0


class TestMixProperties:
    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_mix_outputs_bounded(self, restriction):
        mix = mix_summary(restriction)
        assert mix["dl_demand"] > 0
        assert 0 < mix["ul_dl_ratio"] < 1
        assert 0 < mix["home_ul_dl_ratio"] < 1
        assert 0 < mix["home_cellular_share"] < 1
        assert mix["app_rate_mbps"] > 0

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_demand_monotone_in_restriction(self, first, second):
        low, high = sorted((first, second))
        assert mix_summary(low)["dl_demand"] <= mix_summary(high)[
            "dl_demand"
        ] + 1e-12


class TestDemandModelProperties:
    @given(dates)
    @settings(max_examples=60, deadline=None)
    def test_day_parameters_bounded(self, date):
        model = DemandModel(PandemicTimeline())
        params = model.day_parameters(date)
        assert 0 < params.home_cellular_share < 1
        assert 0 < params.home_activity <= 1
        assert params.poor_wifi_activity >= params.home_activity
        assert params.demand_multiplier > 0

    @given(dates)
    @settings(max_examples=60, deadline=None)
    def test_blend_interpolates(self, date):
        model = DemandModel(PandemicTimeline())
        params = model.day_parameters(date)
        share, activity = params.blended_home_factors(
            np.array([0.0, 0.5, 1.0])
        )
        assert share[0] >= share[1] >= share[2]
        assert activity[0] >= activity[1] >= activity[2]


class TestVoiceProperties:
    @given(dates)
    @settings(max_examples=60, deadline=None)
    def test_multiplier_at_least_pre_pandemic(self, date):
        model = VoiceModel(PandemicTimeline())
        assert model.minutes_multiplier(date) >= 1.0

    @given(dates)
    @settings(max_examples=60, deadline=None)
    def test_multiplier_bounded(self, date):
        model = VoiceModel(PandemicTimeline())
        assert model.minutes_multiplier(date) <= 3.0


class TestSchedulerProperties:
    @given(
        st.floats(min_value=0.0, max_value=1e5),
        st.floats(min_value=0.0, max_value=1e4),
        st.floats(min_value=0.0, max_value=500.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_kpis_bounded(self, offered_dl, offered_ul, active):
        scheduler = CellScheduler()
        out = scheduler.schedule_hours(
            capacity_mbps=np.array([120.0]),
            offered_dl_mb=np.array([offered_dl]),
            offered_ul_mb=np.array([offered_ul]),
            active_users=np.array([active]),
            app_rate_dl_mbps=np.array([4.0]),
        )
        assert 0 <= out.radio_load_pct[0] <= 100
        assert 0 <= out.served_dl_mb[0] <= offered_dl + 1e-9
        assert 0 <= out.user_dl_throughput_mbps[0] <= 4.0 + 1e-9
        assert 0 <= out.active_seconds[0] <= 3600

    @given(
        st.floats(min_value=0.0, max_value=2e4),
        st.floats(min_value=0.0, max_value=2e4),
    )
    @settings(max_examples=60, deadline=None)
    def test_load_monotone_in_traffic(self, first, second):
        scheduler = CellScheduler()
        low, high = sorted((first, second))

        def load(offered):
            return scheduler.schedule_hours(
                capacity_mbps=np.array([120.0]),
                offered_dl_mb=np.array([offered]),
                offered_ul_mb=np.array([0.0]),
                active_users=np.array([1.0]),
                app_rate_dl_mbps=np.array([4.0]),
            ).radio_load_pct[0]

        assert load(low) <= load(high) + 1e-9


class TestInterconnectProperties:
    @given(st.floats(min_value=0.0, max_value=5000.0))
    @settings(max_examples=60, deadline=None)
    def test_loss_is_a_rate(self, volume):
        link = VoiceInterconnect(
            InterconnectSettings(capacity_mb_per_day=1000.0)
        )
        loss = link.process_day(volume)
        assert 0.0 <= loss <= 1.0

    @given(
        st.floats(min_value=0.0, max_value=5000.0),
        st.floats(min_value=0.0, max_value=5000.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_loss_monotone_in_offered_volume(self, first, second):
        low, high = sorted((first, second))

        def loss_for(volume):
            link = VoiceInterconnect(
                InterconnectSettings(
                    capacity_mb_per_day=1000.0, detection_days=10_000
                )
            )
            return link.process_day(volume)

        assert loss_for(low) <= loss_for(high) + 1e-12

    def test_upgrade_is_permanent(self):
        link = VoiceInterconnect(
            InterconnectSettings(
                capacity_mb_per_day=1000.0, detection_days=1
            )
        )
        link.process_day(3000.0)
        assert link.upgraded
        capacity = link.capacity_mb_per_day
        link.process_day(3000.0)
        assert link.capacity_mb_per_day == pytest.approx(capacity)
