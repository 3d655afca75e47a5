"""Experiment-grid benchmark: cold vs warm grid reruns.

One claim is measured and gated: a warm rerun of a persisted
(scenario × seed) grid — every cell's ``cell.json`` digest matching,
every run *loaded* instead of simulated, every analysis artifact
served from the run's content-addressed cache — must be at least 5x
faster than the cold run that populated it, with a **byte-identical**
comparative report.

Results land as JSON in ``benchmarks/results/experiments.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_experiments.py -q
"""

import json
import os
import time
from pathlib import Path

from repro.datasets.runcache import clear_memo
from repro.experiments import ExperimentSpec, run_grid
from repro.experiments.grid import CELL_SIDECAR

RESULTS_PATH = Path(__file__).parent / "results" / "experiments.json"
BENCH_SCENARIOS = ("no_intervention", "second_wave")
BENCH_SEEDS = (1, 2)
BENCH_USERS = 800

#: Acceptance floor for the warm/cold grid ratio.  In practice the
#: warm rerun is far faster (it loads six small run directories and
#: reads cached artifacts instead of simulating six worlds and
#: computing their studies); 5x is the contract.
MIN_WARM_SPEEDUP = 5.0


def _grid(workdir: Path) -> tuple[str, float, dict]:
    """One full grid pass: (report text, seconds, action tally)."""
    clear_memo()  # the point is the *persistent* path, not the memo
    actions: dict = {"simulated": 0, "reused": 0}

    def progress(scenario: str, seed: int, action: str) -> None:
        actions[action] += 1

    spec = ExperimentSpec(
        scenarios=BENCH_SCENARIOS,
        seeds=BENCH_SEEDS,
        preset="tiny",
        num_users=BENCH_USERS,
        workdir=workdir,
    )
    start = time.perf_counter()
    result = run_grid(spec, progress=progress)
    report = result.report()
    elapsed = time.perf_counter() - start
    return report, elapsed, actions


def test_experiments_bench(tmp_path):
    workdir = tmp_path / "grid"

    cold_report, cold_s, cold_actions = _grid(workdir)
    warm_report, warm_s, warm_actions = _grid(workdir)

    cells = list(workdir.glob(f"*/{CELL_SIDECAR}"))
    report = {
        "scenarios": list(BENCH_SCENARIOS),
        "seeds": list(BENCH_SEEDS),
        "users": BENCH_USERS,
        "cpu_count": os.cpu_count(),
        "cells": len(cells),
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "warm_speedup": cold_s / warm_s,
        "cold_actions": cold_actions,
        "warm_actions": warm_actions,
        "byte_identical": warm_report == cold_report,
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")

    print("\nExperiment grid benchmark")
    print(
        f"  grid ({len(cells)} cells, {BENCH_USERS} users/cell): cold "
        f"{cold_s:.3f}s -> warm {warm_s:.3f}s "
        f"({report['warm_speedup']:.1f}x)"
    )
    print(
        f"  cell fates: cold {cold_actions}, warm {warm_actions}"
    )

    expected_cells = (len(BENCH_SCENARIOS) + 1) * len(BENCH_SEEDS)
    assert len(cells) == expected_cells
    assert cold_actions == {"simulated": expected_cells, "reused": 0}
    assert warm_actions == {"simulated": 0, "reused": expected_cells}
    assert report["byte_identical"], (
        "warm grid report diverged from the cold run's bytes"
    )
    assert report["warm_speedup"] >= MIN_WARM_SPEEDUP, (
        f"warm grid only {report['warm_speedup']:.1f}x faster than "
        f"cold (< {MIN_WARM_SPEEDUP}x)"
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        test_experiments_bench(Path(scratch))
