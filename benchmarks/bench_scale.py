"""Out-of-core scale benchmark: simulate → analyze at 1M+ agents, gated.

The columnar feed store's claim (:mod:`repro.io.columnar`): population
size is bounded by disk, not RAM.  This bench drives the whole
lifecycle — streamed simulate → atomic save → memory-mapped load →
streamed ``compute_daily_metrics`` — with **each phase in its own
subprocess** so ``ru_maxrss`` measures that phase alone, and gates
these promises:

- peak RSS of every phase stays under a fixed budget (the analyze
  phase never assembles the full population in memory);
- the analyze RSS / feed-payload *ratio* stays under a per-size
  budget, so growing the payload cannot quietly grow resident memory
  in step (absolute budgets alone would mask that at small sizes);
- the streamed analysis sustains a minimum user-days/sec rate;
- its output is *bitwise* identical to the in-memory oracle: the
  engine's own feeds of the same population as one shard, simulated
  without a stream directory and analyzed in a third subprocess
  (compared by SHA-256 of the result arrays).

Three sizes share the machinery: a CI smoke at 30k agents, the full
``-m slow`` run at 1,000,000 agents (~3 minutes of simulate), and an
``-m slow`` events run whose signalling partition dwarfs RAM budgets —
its analyze phase streams day sessionization through windowed shard
maps and must peak *below the event payload itself*.

The smoke also simulates the same population over 28 and 56 days, each
in its own subprocess: the engine streams (shard, window) tasks and
writes the partition and the KPI table through their files, so
simulate's peak RSS must not grow with the study length (gated at
1.10x from 28 to 56 days).  A second pair, 10k agents on 1,000 sites
over 28 and 98 days, holds the per-(cell, day) KPI table to the same
1.10x: there the table is a visible share of what a longer study adds.
Results land as JSON in ``benchmarks/results/scale.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_scale.py -q            # smoke
    PYTHONPATH=src python -m pytest benchmarks/bench_scale.py -q -m slow    # 1M agents
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

RESULTS_PATH = Path(__file__).parent / "results" / "scale.json"
_REPO_ROOT = Path(__file__).parent.parent

GIB = 1024**3

#: Benchmark sizes.  Budgets are hard gates on subprocess peak RSS —
#: generous against today's measurements (simulate ~1.2 GiB, analyze
#: ~0.3 GiB at 1M agents) but far below what eager full-population
#: assembly would need at paper scale, so a regression that quietly
#: materializes the whole feed trips them.
SIZES = {
    "smoke": {
        "users": 30_000,
        "days": 4,
        "shards": 4,
        "sites": 300,
        "signaling": False,
        "simulate_rss_budget": int(1.5 * GIB),
        "analyze_rss_budget": int(1.0 * GIB),
        # Tiny payload (~9 MB): the interpreter baseline dominates, so
        # the ratio budget is loose — it exists to catch gross leaks.
        "max_rss_payload_ratio": 30.0,
        "min_user_days_per_sec": 5_000,
    },
    "million": {
        "users": 1_000_000,
        "days": 4,
        "shards": 8,
        "sites": 600,
        "signaling": False,
        # Streamed analyze measures ~0.83 GiB (mostly resident pages of
        # the 300 MB mapped payload); an eager load of the partition
        # needed ~1.54 GiB, so this budget sits between the two —
        # bounded-memory streaming passes, full-population assembly
        # fails.
        "simulate_rss_budget": int(2.0 * GIB),
        "analyze_rss_budget": int(1.25 * GIB),
        # Measured ~2.96 (resident pages + interpreter over a 300 MB
        # payload); assembly of the full population would be >= 5x.
        "max_rss_payload_ratio": 4.5,
        "min_user_days_per_sec": 50_000,
    },
    "events": {
        "users": 120_000,
        "days": 6,
        "shards": 4,
        "sites": 400,
        "signaling": True,
        "simulate_rss_budget": int(2.0 * GIB),
        "analyze_rss_budget": int(1.0 * GIB),
        # The signalling partition is ~1.8 GiB (~2.5 KB per user-day);
        # windowed consumption must keep analyze *below the payload*.
        "max_rss_payload_ratio": 1.0,
        "min_user_days_per_sec": 5_000,
    },
}

#: The simulate-only pair: the smoke population over two study lengths,
#: and the most the longer one's peak RSS may exceed the shorter one's.
DAYS_PAIR = {
    "days": (28, 56),
    "max_rss_growth": 1.10,
}

#: The KPI table's pair.  The smoke pair's 300 sites make a ~2 MB KPI
#: table, lost in the dwell partition's noise; at 1,000 sites over 98
#: days the table is 98 x 1,000 rows of 124 B (12 MB a copy), and a
#: coordinator holding it grows by a multiple of that.
KPI_DAYS_PAIR = {
    "users": 10_000,
    "sites": 1_000,
    "shards": 4,
    "days": (28, 98),
    "max_rss_growth": 1.10,
}

BENCH_SEED = 7


# ---------------------------------------------------------------------------
# Child phases (run via ``python benchmarks/bench_scale.py <phase> ...``)
# ---------------------------------------------------------------------------


def _config(
    users: int, days: int, shards: int, sites: int, signaling: bool = False
):
    import datetime as dt

    from repro.simulation.clock import StudyCalendar
    from repro.simulation.config import SimulationConfig

    calendar = StudyCalendar(
        first_day=dt.date(2020, 2, 24), num_days=days
    )
    return SimulationConfig(
        num_users=users,
        target_site_count=sites,
        seed=BENCH_SEED,
        calendar=calendar,
        emit_signaling=signaling,
    ).with_parallelism(shards)


def _digest(array) -> str:
    import hashlib

    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _peak_rss_bytes() -> int:
    import resource

    usage = resource.getrusage(resource.RUSAGE_SELF)
    return int(usage.ru_maxrss) * 1024  # Linux reports KiB


def _own_peak_rss_bytes() -> int:
    """Peak RSS of this process image alone (Linux ``VmHWM``).

    Linux carries the launching process's RSS into ``ru_maxrss`` at
    ``exec``, so a phase started from a large pytest process never
    reports less than its launcher; ``VmHWM`` starts afresh at
    ``exec``.  Falls back to ``ru_maxrss`` where it is unavailable.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return _peak_rss_bytes()


def _session_bytes(frame) -> bytes:
    import numpy as np

    return b"".join(
        np.ascontiguousarray(frame[column]).tobytes()
        for column in ("user_id", "site_id", "dwell_s")
    )


def _phase_simulate(rundir: Path, size: dict) -> dict:
    import time

    from repro.io import save_feeds
    from repro.simulation.engine import Simulator

    config = _config(
        size["users"],
        size["days"],
        size["shards"],
        size["sites"],
        size.get("signaling", False),
    )
    start = time.perf_counter()
    feeds = Simulator(config).run(stream_dir=rundir)
    simulate_s = time.perf_counter() - start
    save_feeds(feeds, rundir)
    save_s = time.perf_counter() - start - simulate_s
    payload = sum(
        file.stat().st_size for file in (rundir / "feeds").rglob("*.npy")
    )
    events = sum(
        file.stat().st_size
        for file in (rundir / "feeds").rglob("events_*.npy")
    )
    return {
        "filtered_users": feeds.mobility.num_users,
        "simulate_seconds": simulate_s,
        "save_seconds": save_s,
        "feed_payload_bytes": payload,
        "event_payload_bytes": events,
        "peak_rss_bytes": _peak_rss_bytes(),
        "own_peak_rss_bytes": _own_peak_rss_bytes(),
    }


def _phase_analyze(rundir: Path, size: dict) -> dict:
    import time

    from repro.io import load_feeds

    start = time.perf_counter()
    feeds = load_feeds(rundir)
    report = _analyze(feeds, start)
    report["streaming"] = not feeds.mobility.in_memory
    return report


def _phase_oracle(rundir: Path, size: dict) -> dict:
    """The engine's one-shard in-memory feeds of the population, analyzed.

    One shard of the whole population: the stored run's shard split is
    what the comparison checks.
    """
    import time

    from repro.simulation.engine import Simulator

    config = _config(
        size["users"],
        size["days"],
        1,
        size["sites"],
        size.get("signaling", False),
    )
    feeds = Simulator(config).run()
    report = _analyze(feeds, time.perf_counter())
    report["streaming"] = not feeds.mobility.in_memory
    return report


def _analyze(feeds, start: float) -> dict:
    """Metrics and sessions of ``feeds``, hashed, timed from ``start``."""
    import time

    from repro.core.statistics import compute_daily_metrics

    metrics = compute_daily_metrics(feeds)
    sessions = 0
    session_sha = None
    if feeds.signaling is not None:
        # Stream the signalling partition a day at a time through
        # windowed shard maps — the whole event payload is consumed
        # while resident memory stays bounded by one day's chunks.
        # The oracle's in-memory per-day dict sessionizes whole days;
        # both paths must hash identical sessions.
        import hashlib

        from repro.core.sessionize import (
            sessionize_events,
            sessionize_events_stream,
        )

        sha = hashlib.sha256()
        for day in range(feeds.mobility.num_days):
            if isinstance(feeds.signaling, dict):
                frame = sessionize_events(feeds.signaling[day])
            else:
                frame = sessionize_events_stream(
                    feeds.signaling.chunks(day)
                )
            sessions += frame.num_rows
            sha.update(_session_bytes(frame))
        session_sha = sha.hexdigest()
    elapsed = time.perf_counter() - start
    user_days = int(metrics.entropy.size)
    return {
        "analyze_seconds": elapsed,
        "user_days": user_days,
        "user_days_per_sec": user_days / elapsed if elapsed else 0.0,
        "sessions": sessions,
        "sessions_sha256": session_sha,
        "entropy_sha256": _digest(metrics.entropy),
        "gyration_sha256": _digest(metrics.gyration_km),
        "peak_rss_bytes": _peak_rss_bytes(),
    }


_PHASES = {
    "simulate": _phase_simulate,
    "analyze": _phase_analyze,
    "oracle": _phase_oracle,
}


def _run_phase(phase: str, rundir: Path, size: dict) -> dict:
    """Execute one phase in a fresh interpreter; return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO_ROOT / "src")
    completed = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            phase,
            str(rundir),
            json.dumps(size),
        ],
        env=env,
        cwd=_REPO_ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    assert completed.returncode == 0, (
        f"{phase} phase failed:\n{completed.stdout}\n{completed.stderr}"
    )
    return json.loads(completed.stdout.splitlines()[-1])


def _record(label: str, report: dict) -> None:
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    existing = {}
    if RESULTS_PATH.exists():
        existing = json.loads(RESULTS_PATH.read_text())
    existing[label] = report
    RESULTS_PATH.write_text(json.dumps(existing, indent=2) + "\n")


def _bench(label: str, tmp_path: Path) -> None:
    size = SIZES[label]
    rundir = tmp_path / "run"

    simulate = _run_phase("simulate", rundir, size)
    analyze = _run_phase("analyze", rundir, size)
    oracle = _run_phase("oracle", rundir, size)

    bitwise = (
        analyze["entropy_sha256"] == oracle["entropy_sha256"]
        and analyze["gyration_sha256"] == oracle["gyration_sha256"]
        and analyze["sessions_sha256"] == oracle["sessions_sha256"]
    )
    rss_ratio = (
        analyze["peak_rss_bytes"] / simulate["feed_payload_bytes"]
        if simulate["feed_payload_bytes"]
        else 0.0
    )
    report = {
        "config": {key: size[key] for key in ("users", "days", "shards")},
        "simulate": simulate,
        "analyze": analyze,
        "rss_payload_ratio": rss_ratio,
        "oracle": {
            "peak_rss_bytes": oracle["peak_rss_bytes"],
            "analyze_seconds": oracle["analyze_seconds"],
            "streaming": oracle["streaming"],
        },
        "bitwise_identical": bitwise,
    }
    _record(label, report)

    print(f"\nScale benchmark [{label}]")
    print(
        f"  simulate {size['users']} agents x {size['days']} days: "
        f"{simulate['simulate_seconds']:.1f}s + "
        f"{simulate['save_seconds']:.1f}s save, peak RSS "
        f"{simulate['peak_rss_bytes'] / GIB:.2f} GiB, payload "
        f"{simulate['feed_payload_bytes'] / 1e6:.0f} MB"
    )
    print(
        f"  analyze (streamed): {analyze['analyze_seconds']:.1f}s, "
        f"{analyze['user_days_per_sec']:.0f} user-days/s, peak RSS "
        f"{analyze['peak_rss_bytes'] / GIB:.2f} GiB "
        f"(oracle {oracle['peak_rss_bytes'] / GIB:.2f} GiB), "
        f"RSS/payload {rss_ratio:.2f}"
    )

    assert analyze["streaming"], "load_feeds did not map the run's files"
    assert not oracle["streaming"], (
        "the oracle's feed is not the engine's in-memory feed"
    )
    assert bitwise, "streamed metrics diverged from the in-memory oracle"
    assert simulate["peak_rss_bytes"] <= size["simulate_rss_budget"], (
        f"simulate peak RSS {simulate['peak_rss_bytes'] / GIB:.2f} GiB "
        f"over budget {size['simulate_rss_budget'] / GIB:.2f} GiB"
    )
    assert analyze["peak_rss_bytes"] <= size["analyze_rss_budget"], (
        f"analyze peak RSS {analyze['peak_rss_bytes'] / GIB:.2f} GiB "
        f"over budget {size['analyze_rss_budget'] / GIB:.2f} GiB"
    )
    assert analyze["user_days_per_sec"] >= size["min_user_days_per_sec"], (
        f"streamed analysis at {analyze['user_days_per_sec']:.0f} "
        f"user-days/s, below the {size['min_user_days_per_sec']} floor"
    )
    assert rss_ratio <= size["max_rss_payload_ratio"], (
        f"analyze RSS is {rss_ratio:.2f}x the feed payload, over the "
        f"{size['max_rss_payload_ratio']:g}x budget"
    )
    if size.get("signaling"):
        assert simulate["event_payload_bytes"] > 0
        assert analyze["sessions"] > 0
        # The headline claim: the event payload does not fit the RSS
        # budget, yet windowed consumption analyzed all of it while
        # peaking *below the payload's own size*.
        assert (
            analyze["peak_rss_bytes"] < simulate["event_payload_bytes"]
        ), (
            f"analyze peaked at {analyze['peak_rss_bytes'] / GIB:.2f} "
            f"GiB, not below the "
            f"{simulate['event_payload_bytes'] / GIB:.2f} GiB event "
            "payload"
        )


def test_scale_smoke(tmp_path):
    _bench("smoke", tmp_path)


def _days_pair(label: str, size: dict, pair: dict, tmp_path: Path) -> None:
    """Simulate ``size`` over both of ``pair``'s lengths; gate the growth."""
    short_days, long_days = pair["days"]
    reports = {
        days: _run_phase(
            "simulate", tmp_path / f"run-{days}", {**size, "days": days}
        )
        for days in (short_days, long_days)
    }
    # The phase's own peak: under pytest, ru_maxrss would report the
    # launching pytest process's RSS for both lengths.
    growth = (
        reports[long_days]["own_peak_rss_bytes"]
        / reports[short_days]["own_peak_rss_bytes"]
    )
    _record(
        label,
        {
            "config": {
                "users": size["users"],
                "sites": size["sites"],
                "shards": size["shards"],
                "days": list(pair["days"]),
            },
            "simulate": {
                str(days): report for days, report in reports.items()
            },
            "rss_growth_ratio": growth,
            "max_rss_growth": pair["max_rss_growth"],
        },
    )
    print(f"\nScale benchmark [{label}]")
    for days, report in reports.items():
        print(
            f"  simulate {size['users']} agents x {days} days: "
            f"{report['simulate_seconds']:.1f}s, peak RSS "
            f"{report['own_peak_rss_bytes'] / 2**20:.1f} MiB"
        )
    print(f"  peak RSS {long_days} / {short_days} days: {growth:.3f}")
    assert growth <= pair["max_rss_growth"], (
        f"simulate peak RSS grew {growth:.2f}x from {short_days} to "
        f"{long_days} days (budget {pair['max_rss_growth']:g}x)"
    )


def test_simulate_rss_flat_in_days(tmp_path):
    _days_pair("smoke_days", SIZES["smoke"], DAYS_PAIR, tmp_path)


def test_kpi_table_rss_flat_in_days(tmp_path):
    _days_pair("kpi_days", KPI_DAYS_PAIR, KPI_DAYS_PAIR, tmp_path)


@pytest.mark.slow
def test_scale_million(tmp_path):
    _bench("million", tmp_path)


@pytest.mark.slow
def test_scale_events(tmp_path):
    _bench("events", tmp_path)


if __name__ == "__main__":
    _phase, _rundir, _size = sys.argv[1], Path(sys.argv[2]), sys.argv[3]
    _report = _PHASES[_phase](_rundir, json.loads(_size))
    print(json.dumps(_report))
