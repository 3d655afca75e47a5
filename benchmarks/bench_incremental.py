"""Incremental live-run analysis benchmark: day N+1 re-analysis, gated.

The tentpole claim of live-operator mode: after ``Run.advance(1)``
lands one new day in a run's columnar partition, re-analyzing the run
must cost the *new* day, not the whole window.  The already-seen
prefix of the daily mobility metrics and home detection is served from
its per-range cache artifacts (:mod:`repro.analysis.mobility`), and the
labeled KPIs are recomputed (cheaper than reading them back), so
incremental re-analysis of day N+1 must be **at least 5x faster than a
from-scratch recompute at 20k agents**, while staying bitwise identical
to it.

The unguarded numbers recorded alongside: the wall time of the
``advance(1)`` itself (simulate + append commit) and the latency of a
``repro summary`` refresh right after it (what ``repro watch`` pays
per reprint — the docs/LIVE.md latency budget).

Results land as JSON in ``benchmarks/results/incremental.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_incremental.py -q
"""

import io
import json
import os
import time
from pathlib import Path

import numpy as np

from repro import api
from repro.cli import main
from repro.core.home import detect_homes
from repro.core.performance import label_kpis
from repro.core.statistics import compute_daily_metrics
from repro.simulation.config import SimulationConfig

RESULTS_PATH = Path(__file__).parent / "results" / "incremental.json"

BENCH_USERS = 20_000
BENCH_SITES = 220
BENCH_SEED = 2020
#: Simulated prefix before the measured advance.  Past the lockdown
#: date (day 49), so the summary/verdict refresh is computable; the
#: run stays live afterwards (< the 98-day horizon): freezing would
#: compact the partition to one segment and there would be nothing
#: incremental left to measure.
BENCH_PREFIX_DAYS = 70

#: Acceptance floor for full-recompute / incremental re-analysis.
MIN_INCREMENTAL_SPEEDUP = 5.0


def _cli(argv) -> str:
    out = io.StringIO()
    code = main(argv, out=out)
    assert code == 0, out.getvalue()
    return out.getvalue()


def _config():
    return SimulationConfig.tiny(seed=BENCH_SEED).with_overrides(
        num_users=BENCH_USERS,
        target_site_count=BENCH_SITES,
    )


def _analysis(study):
    """The three shared intermediates of the study, materialized."""
    return study.metrics, study.homes, study.labeled_kpis


def bench_incremental(rundir: Path) -> dict:
    start = time.perf_counter()
    run = api.simulate(_config(), rundir, days=BENCH_PREFIX_DAYS)
    simulate_s = time.perf_counter() - start

    # Populate the prefix's range artifacts (the operator's steady
    # state: analysis has been run at least once before the new day).
    start = time.perf_counter()
    _analysis(run.study())
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    run.advance(1)
    advance_s = time.perf_counter() - start
    assert not run.frozen()

    # The measured claim: re-analysis after one appended day.  Only
    # the new one-day range computes; the prefix days come from their
    # range artifacts.
    start = time.perf_counter()
    metrics, homes, labeled = _analysis(run.study())
    incremental_s = time.perf_counter() - start

    # The baseline: the same three artifacts from scratch, no cache.
    feeds = run.feeds
    start = time.perf_counter()
    full_metrics = compute_daily_metrics(feeds)
    full_homes = detect_homes(feeds)
    full_labeled = label_kpis(feeds)
    full_s = time.perf_counter() - start

    bitwise = bool(
        np.array_equal(metrics.entropy, full_metrics.entropy)
        and np.array_equal(metrics.gyration_km, full_metrics.gyration_km)
        and np.array_equal(homes.home_site, full_homes.home_site)
        and np.array_equal(
            homes.nights_observed, full_homes.nights_observed
        )
        and all(
            np.array_equal(labeled[name], full_labeled[name])
            for name in labeled.column_names
        )
    )

    # What a `repro watch` reprint pays right after another advance:
    # summary + verdict recompute over the memory-mapped partition
    # with every prior day range served from the cache.
    run.advance(1)
    start = time.perf_counter()
    _cli(["summary", str(rundir)])
    refresh_s = time.perf_counter() - start

    return {
        "users": BENCH_USERS,
        "prefix_days": BENCH_PREFIX_DAYS,
        "simulate_seconds": simulate_s,
        "cold_analysis_seconds": cold_s,
        "advance_seconds": advance_s,
        "incremental_seconds": incremental_s,
        "full_recompute_seconds": full_s,
        "incremental_speedup": full_s / incremental_s,
        "bitwise_identical": bitwise,
        "summary_refresh_seconds": refresh_s,
    }


def test_incremental_bench(tmp_path):
    report = {
        "seed": BENCH_SEED,
        "cpu_count": os.cpu_count(),
        "incremental": bench_incremental(tmp_path / "run"),
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")

    data = report["incremental"]
    print("\nIncremental live-run analysis benchmark")
    print(
        f"  {data['users']} users: simulate {data['prefix_days']} days "
        f"{data['simulate_seconds']:.2f}s, cold analysis "
        f"{data['cold_analysis_seconds']:.2f}s"
    )
    print(
        f"  advance(1) {data['advance_seconds']:.2f}s; re-analysis "
        f"{data['incremental_seconds']:.3f}s vs full recompute "
        f"{data['full_recompute_seconds']:.3f}s "
        f"({data['incremental_speedup']:.1f}x)"
    )
    print(
        f"  post-advance summary refresh (watch latency): "
        f"{data['summary_refresh_seconds']:.2f}s"
    )

    assert data["bitwise_identical"], (
        "incremental analysis diverged from the from-scratch recompute"
    )
    assert data["incremental_speedup"] >= MIN_INCREMENTAL_SPEEDUP, (
        f"incremental re-analysis only {data['incremental_speedup']:.1f}x "
        f"faster than full recompute (< {MIN_INCREMENTAL_SPEEDUP}x)"
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        test_incremental_bench(Path(scratch))
