"""Seed-sweep robustness: the reproduction's error bars.

Runs the study across several seeds and verifies that every qualitative
takeaway keeps its sign — the reproduction does not hinge on one lucky
world draw. The sweep is one scenario of the experiment grid crossed
with the seeds; the catalog's ``baseline_lockdown`` at the tiny preset
is ``SimulationConfig.tiny(seed)``. (Run at tiny scale; the sweep is
itself the benchmark.)
"""

import numpy as np

from repro import api

SCENARIO = "baseline_lockdown"

SIGN_STABLE_METRICS = (
    "gyration_change_lockdown_pct",  # always a drop
    "entropy_change_lockdown_pct",  # always a drop
    "dl_volume_min_pct",  # always a drop
    "voice_volume_peak_pct",  # always a surge
    "voice_dl_loss_peak_pct",  # always a spike
    "radio_load_min_pct",  # always a drop
)


def test_seed_sweep(benchmark):
    result = benchmark.pedantic(
        api.experiment,
        args=([SCENARIO],),
        kwargs={"seeds": [11, 23, 37], "preset": "tiny"},
        rounds=1,
        iterations=1,
    )
    summaries = [cell.summary() for cell in result.scenario_cells(SCENARIO)]

    def values(metric: str) -> np.ndarray:
        return np.array([summary[metric] for summary in summaries])

    print("\nRobustness across seeds (tiny scale)")
    print(f"{'metric':<38}{'mean':>10}{'std':>8}{'min':>10}{'max':>10}")
    for metric in summaries[0]:
        column = values(metric)
        print(
            f"{metric:<38}{column.mean():>10.2f}{column.std():>8.2f}"
            f"{column.min():>10.2f}{column.max():>10.2f}"
        )
    for metric in SIGN_STABLE_METRICS:
        column = values(metric)
        assert np.all(column > 0) or np.all(column < 0), metric
    # Magnitudes stay in the reproduction bands across seeds.
    column = values("gyration_change_lockdown_pct")
    assert -62 < column.min() and column.max() < -30
    column = values("voice_volume_peak_pct")
    assert column.min() > 110 and column.max() < 200
