"""Process-parallel analysis benchmark: shard fan-out vs the serial walk.

:mod:`repro.analysis.parallel` claims the shard-streaming analysis
kernels fan across a process pool with results *bitwise* identical to
the sequential walk for any shard layout and worker count.  This bench
drives that claim end to end on one simulated world saved at three
shard layouts (the engine output is shard-count invariant, so all nine
``(shards, workers)`` combinations must agree):

- every combination's daily metrics, detected homes and headline
  summary hash to the same SHA-256 digests — and to the serial
  (``workers=1``) oracle's;
- at the full (``-m slow``) size — 200k agents over the nine-week
  study calendar — parallel analysis at four workers must beat the
  serial walk by >= 2x (asserted only where the cores exist, repo
  convention: timings always recorded, ratios gated when
  ``os.cpu_count() >= 4``).

Results land in ``benchmarks/results/parallel_analysis.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel_analysis.py -q            # smoke
    PYTHONPATH=src python -m pytest benchmarks/bench_parallel_analysis.py -q -m slow    # 200k agents
"""

import dataclasses
import hashlib
import json
import os
import time
from pathlib import Path

import pytest

RESULTS_PATH = Path(__file__).parent / "results" / "parallel_analysis.json"

SHARD_SWEEP = (1, 2, 4)
WORKER_SWEEP = (1, 2, 4)
BENCH_SEED = 7

#: Both sizes run the same nine-week calendar (ISO weeks 6-14, so the
#: lockdown summary numbers exist) and the same K x W grid; they differ
#: only in population.  The smoke run keeps CI honest on identity and
#: records timings; the slow run is the speedup gate.
SIZES = {
    "smoke": {"users": 12_000, "sites": 200, "min_speedup": None},
    "full": {"users": 200_000, "sites": 400, "min_speedup": 2.0},
}


def _study_config(users: int, sites: int):
    import datetime as dt

    from repro.simulation.clock import StudyCalendar
    from repro.simulation.config import SimulationConfig

    calendar = StudyCalendar(first_day=dt.date(2020, 2, 3), num_days=63)
    return SimulationConfig(
        num_users=users,
        target_site_count=sites,
        seed=BENCH_SEED,
        calendar=calendar,
    )


def _digest(*arrays) -> str:
    import numpy as np

    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


def _summary_digest(summary: dict) -> str:
    # json round-trips float64 through its shortest repr, which is
    # bijective — bitwise-equal summaries hash equal, nothing else does.
    payload = json.dumps(summary, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _analyze(rundir: Path, workers: int) -> dict:
    """Load mapped, run metrics -> homes -> summary; time the kernels."""
    from repro.core import CovidImpactStudy
    from repro.io import load_feeds

    feeds = load_feeds(rundir)
    study = CovidImpactStudy(feeds, workers=workers)
    start = time.perf_counter()
    metrics = study.metrics
    homes = study.homes
    analyze_s = time.perf_counter() - start
    summary = study.summary()
    summary_s = time.perf_counter() - start - analyze_s
    return {
        "workers": workers,
        "analyze_seconds": analyze_s,
        "summary_seconds": summary_s,
        "metrics_sha256": _digest(metrics.entropy, metrics.gyration_km),
        "homes_sha256": _digest(
            homes.user_ids, homes.home_site, homes.nights_observed
        ),
        "summary_sha256": _summary_digest(summary),
    }


def _analyze_serial_oracle(rundir: Path) -> dict:
    """The differential oracle: the in-process walk (``workers=1``)."""
    return _analyze(rundir, workers=1)


def _bench(label: str, tmp_path: Path) -> None:
    from repro.io import save_feeds
    from repro.simulation.engine import Simulator

    size = SIZES[label]
    config = _study_config(size["users"], size["sites"])

    # One simulated world serves every shard layout: the engine output
    # is shard-count invariant, and an in-memory save shards by the
    # config's parallelism.  Re-tagging the config is therefore enough
    # to persist the same feeds at three layouts.
    feeds = Simulator(config).run()
    rundirs = {}
    for num_shards in SHARD_SWEEP:
        sharded = dataclasses.replace(
            feeds, config=config.with_parallelism(num_shards, workers=1)
        )
        rundirs[num_shards] = tmp_path / f"run-k{num_shards}"
        save_feeds(sharded, rundirs[num_shards])

    oracle = _analyze_serial_oracle(rundirs[max(SHARD_SWEEP)])
    reference = (
        oracle["metrics_sha256"],
        oracle["homes_sha256"],
        oracle["summary_sha256"],
    )

    sweep, mismatches = [], []
    for num_shards in SHARD_SWEEP:
        for workers in WORKER_SWEEP:
            row = _analyze(rundirs[num_shards], workers)
            row["num_shards"] = num_shards
            row["speedup_vs_serial"] = (
                oracle["analyze_seconds"] / row["analyze_seconds"]
                if row["analyze_seconds"]
                else 0.0
            )
            sweep.append(row)
            combo = (
                row["metrics_sha256"],
                row["homes_sha256"],
                row["summary_sha256"],
            )
            if combo != reference:
                mismatches.append((num_shards, workers))

    report = {
        "config": {
            "users": size["users"],
            "days": config.calendar.num_days,
            "sites": size["sites"],
        },
        "cpu_count": os.cpu_count(),
        "serial_analyze_seconds": oracle["analyze_seconds"],
        "bitwise_identical": not mismatches,
        "sweep": sweep,
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    existing = {}
    if RESULTS_PATH.exists():
        existing = json.loads(RESULTS_PATH.read_text())
    existing[label] = report
    RESULTS_PATH.write_text(json.dumps(existing, indent=2) + "\n")

    print(f"\nParallel analysis sweep [{label}] "
          f"(serial oracle {oracle['analyze_seconds']:.2f}s)")
    print(f"{'shards':>8}{'workers':>9}{'analyze':>10}{'speedup':>9}")
    for row in sweep:
        print(
            f"{row['num_shards']:>8}{row['workers']:>9}"
            f"{row['analyze_seconds']:>10.2f}"
            f"{row['speedup_vs_serial']:>9.2f}"
        )

    assert not mismatches, (
        f"metrics/homes/summary digests diverged from the serial oracle "
        f"at (shards, workers) combos: {mismatches}"
    )
    gate = size["min_speedup"]
    if gate is not None and (os.cpu_count() or 1) >= 4:
        best = max(
            row["speedup_vs_serial"] for row in sweep if row["workers"] == 4
        )
        assert best >= gate, (
            f"parallel analysis at workers=4 reached only {best:.2f}x "
            f"over the serial walk (gate: {gate:.1f}x)"
        )


def test_parallel_analysis_smoke(tmp_path):
    _bench("smoke", tmp_path)


@pytest.mark.slow
def test_parallel_analysis_full(tmp_path):
    _bench("full", tmp_path)
