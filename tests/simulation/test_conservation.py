"""Conservation properties of the engine's spatial scatters.

Every user is attached somewhere at every instant, and every megabyte
of demand lands on exactly one cell — the scatters must conserve both.
These tests take one day's site loads straight from the engine's shard
computation (the whole population as one shard, before the topology
snapshot removes inactive sites) and check the invariants against first
principles.
"""

import datetime as dt

import numpy as np
import pytest

from repro.mobility.trajectories import BIN_SECONDS, NUM_BINS
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import _compute_shard, _RunContext, build_world


@pytest.fixture(scope="module")
def context():
    config = SimulationConfig(num_users=600, target_site_count=80, seed=61)
    return _RunContext.from_world(build_world(config))


def _day_load(context, day):
    """The engine's (site, bin) loads of one day."""
    result = _compute_shard(context, None, day_start=day, day_stop=day + 1)
    return result.days[0]


class TestConservation:
    def test_connected_users_sum_to_population(self, context):
        num_study = context.world.agents.num_users
        for day in (3, 40, 90):
            presence = _day_load(context, day).presence
            assert presence.shape[1] == NUM_BINS
            np.testing.assert_allclose(
                presence.sum(axis=0) / BIN_SECONDS,
                np.full(NUM_BINS, float(num_study)),
                rtol=1e-9,
            )

    def test_voice_minutes_conserved_per_day(self, context):
        world = context.world
        calendar = world.config.calendar
        voice = world.voice_model
        multipliers = voice.user_minute_multipliers(
            world.agents.num_users
        )
        for day in (5, 55):
            date = calendar.date_of(day)
            expected_minutes = (
                multipliers.sum()
                * voice.settings.base_minutes_per_day
                * voice.minutes_multiplier(date)
            )
            measured_minutes = _day_load(context, day).voice_minutes.sum()
            assert measured_minutes == pytest.approx(
                expected_minutes, rel=1e-9
            )

    def test_dl_volume_bounded_by_total_demand(self, context):
        world = context.world
        demand = world.demand_model
        multipliers = demand.user_demand_multipliers(
            world.agents.num_users
        )
        date = dt.date(2020, 2, 25)
        params = demand.day_parameters(date)
        ceiling = (
            demand.base_daily_dl_mb()
            * multipliers.sum()
            * params.demand_multiplier
        )
        day = world.config.calendar.day_of(date)
        measured = _day_load(context, day).dl_mb.sum()
        # Cellular DL is the offload-discounted share of total demand.
        assert measured < ceiling
        assert measured > ceiling * 0.25

    def test_lockdown_moves_volume_not_users(self, context):
        calendar = context.world.config.calendar
        before = _day_load(context, calendar.day_of(dt.date(2020, 2, 25)))
        during = _day_load(context, calendar.day_of(dt.date(2020, 3, 31)))
        # Users don't leave the network — their traffic does.
        assert during.presence.sum() == pytest.approx(
            before.presence.sum(), rel=1e-9
        )
        assert during.dl_mb.sum() < before.dl_mb.sum() * 0.9
