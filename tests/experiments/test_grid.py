"""Tests for the experiment grid runner and comparative reports."""

import json

import pytest

from repro import api, telemetry
from repro.datasets.runcache import clear_memo
from repro.experiments import (
    DELTA_METRICS,
    ExperimentSpec,
    compare_runs,
    delta_table,
    run_grid,
)
from repro.experiments.grid import CELL_SIDECAR

SCENARIOS = ("no_intervention", "second_wave")


def micro_spec(**overrides):
    settings = dict(
        scenarios=SCENARIOS,
        seeds=(1,),
        preset="tiny",
        num_users=300,
    )
    settings.update(overrides)
    return ExperimentSpec(**settings)


@pytest.fixture(scope="module")
def memory_result():
    clear_memo()
    return run_grid(micro_spec())


class TestExperimentSpec:
    def test_requires_scenarios_and_seeds(self):
        with pytest.raises(ValueError):
            micro_spec(scenarios=())
        with pytest.raises(ValueError):
            micro_spec(seeds=())

    def test_rejects_duplicate_seeds(self):
        with pytest.raises(ValueError, match="unique"):
            micro_spec(seeds=(1, 1))

    def test_rejects_unknown_scenarios(self):
        with pytest.raises(ValueError, match="catalog"):
            micro_spec(scenarios=("no_such_world",))
        with pytest.raises(ValueError, match="catalog"):
            micro_spec(baseline="no_such_world")

    def test_baseline_ordered_first_and_deduplicated(self):
        spec = micro_spec(
            scenarios=("second_wave", "baseline_lockdown",
                       "no_intervention"),
        )
        assert spec.ordered_scenarios == (
            "baseline_lockdown", "second_wave", "no_intervention",
        )

    def test_cell_config_carries_seed_and_scale(self):
        spec = micro_spec(seeds=(1, 2))
        config = spec.cell_config("second_wave", 2)
        assert config.seed == 2
        assert config.num_users == 300


class TestInMemoryGrid:
    def test_runs_every_cell_baseline_included(self, memory_result):
        assert [cell.scenario for cell in memory_result.cells] == [
            "baseline_lockdown", "no_intervention", "second_wave",
        ]
        assert all(cell.seed == 1 for cell in memory_result.cells)
        assert all(not cell.reused for cell in memory_result.cells)
        assert all(
            cell.directory is None for cell in memory_result.cells
        )

    def test_cells_bitwise_reproducible(self, memory_result):
        # A fresh grid over the same spec — with the in-process memo
        # cleared so every cell re-simulates — reproduces every
        # summary value exactly.
        clear_memo()
        again = run_grid(micro_spec())
        for scenario in ("baseline_lockdown", *SCENARIOS):
            assert memory_result.cell(scenario, 1).summary() == \
                again.cell(scenario, 1).summary()

    def test_memo_dedupes_repeated_cells(self, memory_result):
        # The module fixture populated the memo; a second grid over
        # the same spec serves cells from it.
        recorder = telemetry.enable()
        try:
            run_grid(micro_spec())
            snapshot = recorder.snapshot()
        finally:
            telemetry.disable()
        assert snapshot["counters"]["datasets.runcache.hits"] == 3
        assert snapshot["counters"]["experiments.cells_total"] == 3

    def test_mean_summary_averages_seeds(self, memory_result):
        single = memory_result.mean_summary("second_wave")
        cell = memory_result.cell("second_wave", 1).summary()
        assert single == pytest.approx(cell)

    def test_unknown_cell_raises(self, memory_result):
        with pytest.raises(KeyError):
            memory_result.cell("second_wave", 99)
        with pytest.raises(KeyError):
            memory_result.mean_summary("weekend_curfew")

    def test_report_shape(self, memory_result):
        report = memory_result.report()
        assert "Headline deltas vs baseline" in report
        for label, _key in DELTA_METRICS:
            assert label in report
        assert "Weekly variation — national gyration" in report
        assert report.count("second_wave") >= 4

    def test_report_deterministic(self, memory_result):
        assert memory_result.report() == memory_result.report()

    def test_counterfactual_physics(self, memory_result):
        base = memory_result.mean_summary("baseline_lockdown")
        free = memory_result.mean_summary("no_intervention")
        assert free["dl_volume_min_pct"] > base["dl_volume_min_pct"]
        assert free["voice_volume_peak_pct"] < 30.0
        assert base["voice_volume_peak_pct"] > 100.0


class TestPersistentGrid:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("grid")

    @pytest.fixture(scope="class")
    def cold(self, workdir):
        clear_memo()
        actions = []
        result = run_grid(
            micro_spec(workdir=workdir),
            progress=lambda s, seed, action: actions.append(action),
        )
        return result, actions

    def test_cold_grid_simulates_and_persists(self, cold, workdir):
        result, actions = cold
        assert actions == ["simulated"] * 3
        for cell in result.cells:
            assert cell.directory is not None
            assert (cell.directory / CELL_SIDECAR).is_file()
            sidecar = json.loads(
                (cell.directory / CELL_SIDECAR).read_text()
            )
            assert sidecar["config_digest"] == cell.digest
            assert sidecar["scenario"] == cell.scenario

    def test_warm_grid_reuses_and_matches_bytes(self, cold, workdir):
        result, _ = cold
        cold_report = result.report()
        clear_memo()
        actions = []
        warm = run_grid(
            micro_spec(workdir=workdir),
            progress=lambda s, seed, action: actions.append(action),
        )
        assert actions == ["reused"] * 3
        assert all(cell.reused for cell in warm.cells)
        assert warm.report() == cold_report

    def test_stale_sidecar_rebuilds_the_cell(self, cold, workdir):
        result, _ = cold
        directory = result.cell("second_wave", 1).directory
        sidecar = directory / CELL_SIDECAR
        payload = json.loads(sidecar.read_text())
        payload["config_digest"] = "0" * 64
        sidecar.write_text(json.dumps(payload))
        clear_memo()
        actions = []
        again = run_grid(
            micro_spec(workdir=workdir),
            progress=lambda s, seed, action: actions.append(action),
        )
        assert actions.count("simulated") == 1
        rebuilt = json.loads(sidecar.read_text())
        assert rebuilt["config_digest"] == again.cell(
            "second_wave", 1
        ).digest

    @pytest.mark.parametrize("version", [1, 2])
    def test_refused_store_version_rebuilds_the_cell(
        self, cold, workdir, version
    ):
        result, _ = cold
        fresh_report = result.report()
        directory = result.cell("no_intervention", 1).directory
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = version
        manifest_path.write_text(json.dumps(manifest))
        clear_memo()
        actions = []
        again = run_grid(
            micro_spec(workdir=workdir),
            progress=lambda s, seed, action: actions.append(action),
        )
        assert actions == ["reused", "simulated", "reused"]
        rebuilt = again.cell("no_intervention", 1)
        assert not rebuilt.reused
        assert json.loads(manifest_path.read_text())["format_version"] == 3
        assert again.report() == fresh_report
        # The rebuilt directory is one the store loads again.
        assert api.Run.open(directory).days == rebuilt.run.days

    def test_compare_runs_over_cell_directories(self, cold):
        result, _ = cold
        directories = [
            str(result.cell(name, 1).directory)
            for name in ("baseline_lockdown", "no_intervention")
        ]
        report = compare_runs(directories)
        assert "baseline: baseline_lockdown--seed1" in report
        assert report == compare_runs(directories)

    def test_compare_needs_two_runs(self, cold):
        result, _ = cold
        only = [str(result.cells[0].directory)]
        with pytest.raises(ValueError):
            compare_runs(only)


class TestDeltaTable:
    def test_baseline_absolute_others_delta(self):
        metrics = (("metric a", "a"), ("metric b", "b"))
        table = delta_table(
            {
                "base": {"a": 10.0, "b": -5.0},
                "other": {"a": 12.5, "b": -5.0},
            },
            "base",
            metrics=metrics,
        )
        lines = table.splitlines()
        assert "metric a" in lines[2]
        assert "+2.5" in lines[2]
        assert "10.0" in lines[2]
        assert "+0.0" in lines[3]

    def test_missing_baseline_raises(self):
        with pytest.raises(KeyError):
            delta_table({"x": {}}, "base", metrics=())


class TestApiFacade:
    def test_api_experiment_wraps_run_grid(self):
        result = api.experiment(
            ["no_intervention"], seeds=[1], preset="tiny",
            num_users=300,
        )
        assert [cell.scenario for cell in result.cells] == [
            "baseline_lockdown", "no_intervention",
        ]

    def test_api_experiment_validates(self):
        with pytest.raises(ValueError):
            api.experiment([], seeds=[1])
