"""Reference-implementation check of the engine's traffic scatter.

Recomputes one (site, bin) downlink volume and voice minutes from first
principles (dwell × demand × offload × diurnal shares) with naive loops
and compares them against the engine's per-shard day loads. Any
regression in the vectorized scatter shows up here.
"""

import numpy as np
import pytest

from repro.geo.oac import OAC_DEFINITIONS
from repro.mobility.trajectories import BIN_SECONDS
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import (
    _HOME_LIKE_SLOTS,
    _compute_shard,
    _RunContext,
    build_world,
)
from repro.traffic.profiles import (
    BIN_OF_HOUR,
    traffic_hour_profile,
    voice_hour_profile,
)

DAY = 10
HOUR = 18


@pytest.fixture(scope="module")
def setup():
    config = SimulationConfig(num_users=300, target_site_count=50, seed=91)
    world = build_world(config)
    load = _compute_shard(
        _RunContext.from_world(world), None,
        day_start=DAY, day_stop=DAY + 1,
    ).days[0]
    # The same call the engine makes to assemble the day's dwell.
    bin_dwell = world.trajectories.day_dwell(DAY).dwell_s  # (N, 6, 8)
    return config, world, load, bin_dwell


def reference_load_for_site(config, world, bin_dwell, site_id, bin_index):
    """Naive per-user loop: (DL MB, voice minutes) at one (site, bin)."""
    agents = world.agents
    demand = world.demand_model
    voice = world.voice_model
    date = config.calendar.date_of(DAY)
    params = demand.day_parameters(date)
    demand_mult = demand.user_demand_multipliers(agents.num_users)
    voice_mult = voice.user_minute_multipliers(agents.num_users)

    wifi = np.array(
        [
            OAC_DEFINITIONS[
                world.geography.districts[d].oac
            ].home_wifi_quality
            for d in agents.home_district
        ]
    )
    cell_share, __ = params.blended_home_factors(wifi)

    bin_share = np.add.reduceat(
        traffic_hour_profile(), np.arange(0, 24, 4)
    )[bin_index]
    voice_bin_share = np.add.reduceat(
        voice_hour_profile(), np.arange(0, 24, 4)
    )[bin_index]

    base_dl = demand.base_daily_dl_mb()
    minutes_mult = voice.minutes_multiplier(date)

    data_dl = 0.0
    voice_minutes = 0.0
    for user in range(agents.num_users):
        for slot in range(agents.anchor_sites.shape[1]):
            if agents.anchor_sites[user, slot] != site_id:
                continue
            share = bin_dwell[user, bin_index, slot] / BIN_SECONDS
            factor = (
                cell_share[user] if _HOME_LIKE_SLOTS[slot] else 1.0
            )
            data_dl += (
                share
                * base_dl
                * demand_mult[user]
                * params.demand_multiplier
                * bin_share
                * factor
            )
            voice_minutes += (
                share
                * voice.settings.base_minutes_per_day
                * voice_mult[user]
                * minutes_mult
                * voice_bin_share
            )
    return data_dl, voice_minutes


def test_engine_scatter_matches_reference(setup):
    config, world, load, bin_dwell = setup
    bin_index = int(BIN_OF_HOUR[HOUR])
    # The three busiest sites of the bin, for a meaningful comparison.
    busiest = np.argsort(load.dl_mb[:, bin_index])[::-1][:3]
    assert load.dl_mb[busiest, bin_index].min() > 0
    for site_id in busiest:
        expected_dl, expected_minutes = reference_load_for_site(
            config, world, bin_dwell, int(site_id), bin_index
        )
        assert load.dl_mb[site_id, bin_index] == pytest.approx(
            expected_dl, rel=1e-9
        ), site_id
        assert load.voice_minutes[site_id, bin_index] == pytest.approx(
            expected_minutes, rel=1e-9
        ), site_id
