"""Seed sweeps through the experiment grid (cheap: two tiny seeds).

A seed sweep is one scenario crossed with several seeds,
``api.experiment(["baseline_lockdown"], seeds=..., preset="tiny")``;
its cells hold the per-seed summaries, and the statistics are plain
numpy over them.
"""

import numpy as np
import pytest

from repro import api
from repro.datasets.spec import config_digest
from repro.experiments import ExperimentSpec
from repro.simulation.config import SimulationConfig

_SCENARIO = "baseline_lockdown"


@pytest.fixture(scope="module")
def sweep():
    return api.experiment([_SCENARIO], seeds=[3, 5], preset="tiny")


def _values(sweep, metric: str) -> np.ndarray:
    return np.array(
        [cell.summary()[metric] for cell in sweep.scenario_cells(_SCENARIO)]
    )


class TestSeedSweep:
    def test_per_seed_summaries(self, sweep):
        cells = sweep.scenario_cells(_SCENARIO)
        assert tuple(cell.seed for cell in cells) == (3, 5)
        assert all(cell.summary() for cell in cells)
        # The catalog's baseline at the tiny preset is the tiny world.
        for cell in cells:
            assert cell.digest == config_digest(
                SimulationConfig.tiny(seed=cell.seed)
            )

    def test_values_aligned(self, sweep):
        values = _values(sweep, "voice_volume_peak_pct")
        assert values.shape == (2,)

    def test_statistics(self, sweep):
        values = _values(sweep, "gyration_change_lockdown_pct")
        assert values.min() <= values.mean() <= values.max()
        assert values.std() >= 0

    def test_stable_signs_on_core_findings(self, sweep):
        for metric in (
            "gyration_change_lockdown_pct",
            "voice_volume_peak_pct",
        ):
            values = _values(sweep, metric)
            assert np.all(values > 0) or np.all(values < 0), metric

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(scenarios=(_SCENARIO,), seeds=())
