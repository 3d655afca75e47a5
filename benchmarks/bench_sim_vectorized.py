"""Vectorized event-generation benchmark: agents×days/sec, gated.

The tentpole claim of the simulation-kernel rewrite: the
whole-population array programs (behaviour day-states → dwell
assembly → dwell→segment flattening → signalling emission) must beat
the per-agent/per-event oracle loops behind ``REPRO_SIM_NAIVE=1`` by
**at least 2x at 20k agents** — while staying bitwise identical (that
part is enforced by ``tests/simulation/test_sim_differential.py`` and
the golden fingerprints; here a spot-check day guards the bench
itself).

Results land as JSON in ``benchmarks/results/sim_vectorized.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_sim_vectorized.py -q
"""

import datetime as dt
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.mobility.trajectories import BIN_SECONDS
from repro.network.signaling import SignalingGenerator, segments_from_dwell
from repro.simulation.clock import StudyCalendar
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import build_world

RESULTS_PATH = Path(__file__).parent / "results" / "sim_vectorized.json"

BENCH_USERS = 20_000
BENCH_SITES = 220
BENCH_DAYS = 3
BENCH_SEED = 2020

#: The acceptance floor: vectorized event generation must process at
#: least this many times the agents×days/sec of the naive oracle.
MIN_SPEEDUP = 2.0


@contextmanager
def _dispatch(naive: bool):
    before = os.environ.get("REPRO_SIM_NAIVE")
    os.environ["REPRO_SIM_NAIVE"] = "1" if naive else "0"
    try:
        yield
    finally:
        if before is None:
            os.environ.pop("REPRO_SIM_NAIVE", None)
        else:
            os.environ["REPRO_SIM_NAIVE"] = before


def _event_chain_day(world, generator, day: int):
    """One day of the rewritten chain: behaviour → dwell → events."""
    dwell = world.trajectories.day_dwell(day)
    segments = segments_from_dwell(
        dwell.dwell_s,
        world.agents.anchor_sites,
        world.agents.user_ids,
        BIN_SECONDS,
    )
    feed = generator.generate_day(
        segments,
        np.random.default_rng(
            np.random.SeedSequence(entropy=BENCH_SEED, spawn_key=(11, day))
        ),
    )
    return dwell, segments, feed


def bench_event_chain(world) -> dict:
    generator = SignalingGenerator()

    timings: dict[str, float] = {}
    for label, naive in (("vectorized", False), ("naive", True)):
        with _dispatch(naive):
            _event_chain_day(world, generator, 0)  # warm caches
            start = time.perf_counter()
            events = 0
            for day in range(BENCH_DAYS):
                _, _, feed = _event_chain_day(world, generator, day)
                events += len(feed)
            timings[label] = time.perf_counter() - start

    # Bitwise spot check on one day, guarding the bench configuration
    # itself (the real guarantee lives in the differential suite).
    with _dispatch(False):
        dv, sv, fv = _event_chain_day(world, generator, 1)
    with _dispatch(True):
        dn, sn, fn = _event_chain_day(world, generator, 1)
    identical = bool(
        np.array_equal(dv.dwell_s, dn.dwell_s)
        and np.array_equal(sv.start_s, sn.start_s)
        and all(
            np.array_equal(fv[column], fn[column])
            for column in fv.column_names
        )
    )

    agent_days = BENCH_USERS * BENCH_DAYS
    return {
        "users": BENCH_USERS,
        "days": BENCH_DAYS,
        "events_per_day": events // BENCH_DAYS,
        "naive_seconds": timings["naive"],
        "vectorized_seconds": timings["vectorized"],
        "naive_agent_days_per_sec": agent_days / timings["naive"],
        "vectorized_agent_days_per_sec": agent_days
        / timings["vectorized"],
        "speedup": timings["naive"] / timings["vectorized"],
        "bitwise_identical": identical,
    }


def test_sim_vectorized_bench():
    calendar = StudyCalendar(
        first_day=dt.date(2020, 2, 17), num_days=max(BENCH_DAYS, 7)
    )
    world = build_world(
        SimulationConfig(
            num_users=BENCH_USERS,
            target_site_count=BENCH_SITES,
            seed=BENCH_SEED,
            calendar=calendar,
        )
    )
    report = {
        "seed": BENCH_SEED,
        "cpu_count": os.cpu_count(),
        "event_chain": bench_event_chain(world),
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")

    chain = report["event_chain"]
    print("\nVectorized event-generation benchmark")
    print(
        f"  event chain ({chain['users']} agents x {chain['days']} days, "
        f"~{chain['events_per_day']} events/day): naive "
        f"{chain['naive_seconds']:.2f}s "
        f"({chain['naive_agent_days_per_sec']:.0f} agent-days/s), "
        f"vectorized {chain['vectorized_seconds']:.2f}s "
        f"({chain['vectorized_agent_days_per_sec']:.0f} agent-days/s) "
        f"-> {chain['speedup']:.1f}x"
    )

    assert chain["bitwise_identical"], (
        "vectorized event chain diverged from the naive oracle"
    )
    assert chain["speedup"] >= MIN_SPEEDUP, (
        f"vectorized event generation only "
        f"{chain['speedup']:.2f}x the naive path at "
        f"{BENCH_USERS} agents (< {MIN_SPEEDUP}x)"
    )


if __name__ == "__main__":
    test_sim_vectorized_bench()
