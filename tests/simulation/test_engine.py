"""Integration tests for the simulation engine and its feeds."""

import dataclasses
import datetime as dt
import multiprocessing
import pickle

import numpy as np
import pytest

from repro import api, telemetry
from repro.mobility.pandemic import PandemicTimeline
from repro.network.signaling import EventType
from repro.simulation import engine
from repro.simulation.clock import StudyCalendar
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulator, build_world


@pytest.fixture(scope="module")
def feeds():
    config = SimulationConfig.tiny(seed=41)
    return Simulator(config).run()


class TestFeedsStructure:
    def test_kpi_rows_cover_all_cells_and_days(self, feeds):
        expected = feeds.topology.num_sites * feeds.calendar.num_days
        assert len(feeds.radio_kpis) == expected

    def test_kpi_metrics_non_negative(self, feeds):
        kpis = feeds.radio_kpis
        for metric in (
            "dl_volume_mb", "ul_volume_mb", "dl_active_users",
            "radio_load_pct", "voice_volume_mb",
        ):
            assert kpis[metric].min() >= 0, metric

    def test_radio_load_bounded(self, feeds):
        assert feeds.radio_kpis["radio_load_pct"].max() <= 100.0

    def test_mobility_days_match_calendar(self, feeds):
        assert feeds.mobility.num_days == feeds.calendar.num_days

    def test_daily_dwell_partitions_day(self, feeds):
        dwell = feeds.mobility.dwell(5)
        assert np.allclose(dwell.sum(axis=1), 86_400.0, atol=1.0)

    def test_night_dwell_subset_of_day(self, feeds):
        night = feeds.mobility.night(5)
        day = feeds.mobility.dwell(5)
        assert np.all(night <= day + 1e-3)

    def test_night_observation_dropout(self, feeds):
        # Some users are unobserved at night (zero rows).
        night = feeds.mobility.night(5)
        unobserved_share = (night.sum(axis=1) == 0).mean()
        assert 0.25 < unobserved_share < 0.6

    def test_cell_info_consistent(self, feeds):
        site_to_cell = feeds.topology.site_to_4g_cell
        assert len(site_to_cell) == feeds.topology.num_sites
        kpi_cells = set(np.unique(feeds.radio_kpis["cell_id"]).tolist())
        assert kpi_cells == set(site_to_cell.values())

    def test_rat_time_rows(self, feeds):
        assert len(feeds.rat_time) == feeds.calendar.num_days * 3

    def test_interconnect_upgrade_happened(self, feeds):
        assert feeds.interconnect_upgrade_day is not None
        date = feeds.calendar.date_of(feeds.interconnect_upgrade_day)
        # Ops response lands around mid-March (weeks 11–13).
        assert 11 <= date.isocalendar().week <= 13

    def test_determinism(self):
        first = Simulator(SimulationConfig.tiny(seed=77)).run()
        second = Simulator(SimulationConfig.tiny(seed=77)).run()
        assert np.allclose(
            first.radio_kpis["dl_volume_mb"],
            second.radio_kpis["dl_volume_mb"],
        )
        assert np.allclose(
            first.mobility.dwell(30), second.mobility.dwell(30)
        )

    def test_seed_changes_output(self):
        first = Simulator(SimulationConfig.tiny(seed=1)).run()
        second = Simulator(SimulationConfig.tiny(seed=2)).run()
        # Different seeds change the world itself (deployment sizes)
        # and the measured totals.
        assert (
            first.radio_kpis["dl_volume_mb"].sum()
            != pytest.approx(second.radio_kpis["dl_volume_mb"].sum())
        )


class TestOptionalOutputs:
    def test_signaling_when_requested(self):
        config = SimulationConfig(
            num_users=200, target_site_count=40, seed=5,
            emit_signaling=True,
        )
        feeds = Simulator(config).run()
        assert feeds.signaling is not None
        day0 = feeds.signaling[0]
        assert len(day0) > 200
        events = set(np.unique(day0["event"]).tolist())
        assert EventType.ATTACH.value in events
        assert EventType.SERVICE_REQUEST.value in events


class TestWorldBuilder:
    def test_build_world_deterministic(self):
        # The uncached builder: build_world would hand back its memo.
        config = SimulationConfig.tiny(seed=9)
        first = engine._build_world(config)
        second = engine._build_world(config)
        assert np.array_equal(
            first.agents.anchor_sites, second.agents.anchor_sites
        )

    def test_world_holds_config(self):
        config = SimulationConfig.tiny(seed=9)
        assert build_world(config).config is config

    def test_saved_config_reuses_the_world(self, tmp_path):
        # config.pkl pickles the calendar's defining fields only, so the
        # saved config is a fresh object with equal fields: the digest
        # key matches and the world is reused.
        config = _small_config(seed=31)
        api.simulate(config, tmp_path / "run")
        saved = pickle.loads((tmp_path / "run" / "config.pkl").read_bytes())
        first = build_world(config)
        again = build_world(saved)
        assert again.agents is first.agents
        assert again.topology is first.topology
        assert again.config is saved
        assert first.config is config

    def test_another_config_builds_a_fresh_world(self):
        config = _small_config(seed=32)
        first = build_world(config)
        expected = _world_arrays(first)
        variants = [
            config.with_overrides(seed=33),
            config.with_overrides(num_users=130),
            config.with_overrides(target_site_count=35),
            config.with_overrides(
                calendar=StudyCalendar(
                    first_day=config.calendar.first_day,
                    num_days=config.calendar.num_days + 1,
                )
            ),
            config.with_overrides(
                timeline=PandemicTimeline(lockdown_level=0.5)
            ),
        ]
        for variant in variants:
            other = build_world(variant)
            assert other.agents is not first.agents
            if variant.timeline is not None:
                assert other.timeline is variant.timeline
            rebuilt = build_world(config)
            assert rebuilt.agents is not first.agents
            arrays = _world_arrays(rebuilt)
            assert arrays.keys() == expected.keys()
            for path, array in expected.items():
                assert arrays[path].dtype == array.dtype, path
                assert np.array_equal(arrays[path], array), path

    def test_config_without_a_digest_builds_every_time(self):
        # The digest canonicalizes plain Python values only.
        config = _small_config(seed=38).with_overrides(
            num_users=np.int64(120)
        )
        first = build_world(config)
        assert build_world(config).agents is not first.agents

    def test_world_arrays_are_read_only(self, tmp_path):
        # After a run, so the arrays components and the calendar
        # compute on first use (cached properties) are covered too.
        config = _small_config(seed=34)
        api.simulate(config, tmp_path / "run")
        world = build_world(config)
        with pytest.raises(ValueError):
            world.agents.anchor_sites[0, 0] = 0
        arrays = _world_arrays(world, config=True)
        for lazy in (
            "topology.site_postcodes",
            "geography.district_lats",
            "agents.inner_london_mask",
            "config.calendar.weekdays",
        ):
            assert lazy in arrays, lazy
        assert [
            path for path, array in arrays.items() if array.flags.writeable
        ] == []

    def test_pool_workers_reuse_the_coordinators_world(
        self, world_builds, tmp_path, monkeypatch
    ):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("pool workers inherit the world only when forked")
        monkeypatch.setattr(engine, "_WORLD_MEMO", None, raising=False)
        recorder = telemetry.enable()
        try:
            api.simulate(
                _small_config(seed=35).with_parallelism(2, workers=2),
                tmp_path / "run",
            )
        finally:
            telemetry.disable()
        if recorder.snapshot()["counters"].get("engine.pool_degradations"):
            pytest.skip("no usable process pool here")
        assert world_builds() == 1

    def test_live_day_builds_no_world(self, world_builds, tmp_path):
        # 70 of 98 days: the summary has its lockdown weeks, and one
        # advance leaves the run live (freezing would save and reload).
        config = SimulationConfig.tiny(seed=36).with_overrides(
            num_users=300, target_site_count=40
        )
        api.simulate(config, tmp_path / "live", days=70)
        run = api.Run.open(tmp_path / "live")
        built = world_builds()
        recorder = telemetry.enable()
        try:
            run.advance(1)
            api.Run.open(tmp_path / "live").study().summary()
        finally:
            telemetry.disable()
        assert world_builds() == built
        counters = recorder.snapshot()["counters"]
        assert counters.get("engine.world_reuses") == 3


@pytest.fixture
def world_builds(tmp_path, monkeypatch):
    """How many worlds this process and its forked workers have built
    since the fixture started counting."""
    log = tmp_path / "world-builds"
    log.touch()
    build_uk_geography = engine.build_uk_geography

    def counted(*args, **kwargs):
        # A file, so pool workers forked from here (they inherit the
        # patch) count too.
        with open(log, "a") as handle:
            handle.write("build\n")
        return build_uk_geography(*args, **kwargs)

    monkeypatch.setattr(engine, "build_uk_geography", counted)
    return lambda: len(log.read_text().splitlines())


def _small_config(seed: int) -> SimulationConfig:
    return SimulationConfig.tiny(seed=seed).with_overrides(
        num_users=120,
        target_site_count=30,
        calendar=StudyCalendar(first_day=dt.date(2020, 2, 24), num_days=5),
    )


def _world_arrays(world, *, config=False) -> dict[str, np.ndarray]:
    """Every ndarray a world's components hold, by attribute path
    (with ``config``, its configuration's too)."""
    found = {}

    def walk(value, path):
        if isinstance(value, np.ndarray):
            found[path] = value
        elif isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{path}[{key!r}]")
        elif isinstance(value, (list, tuple)):
            for index, item in enumerate(value):
                walk(item, f"{path}[{index}]")
        elif type(value).__module__.startswith("repro."):
            for name, item in getattr(value, "__dict__", {}).items():
                walk(item, f"{path}.{name}")

    for field in dataclasses.fields(world):
        if config or field.name != "config":
            walk(getattr(world, field.name), field.name)
    return found
