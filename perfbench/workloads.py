"""The benchmark's three workloads, driven through the public API.

Each workload has a set-up that builds its input once, an operation
that the benchmark times, and a digest of the operation's output that
the benchmark compares with a reference.  Every function here runs in
a fresh interpreter started by ``child.py``.

Populations are scaled down from the targets the benchmark was designed
around (50k / 100k / 20k agents) so that one run fits its time budget;
the calendars, shard layouts and worker counts are the designed ones.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import os
import shutil
import time
from contextlib import nullcontext
from pathlib import Path

#: Agents per workload (see the module docstring).
BATCH_USERS = 10_000
COLD_USERS = 10_000
COLD_SITES = 400
LIVE_USERS = 2_000
LIVE_SITES = 220
LIVE_PREFIX_DAYS = 70
LIVE_ADVANCES = 7
#: Shards and pool workers of the parallel workloads.
SHARDS = 4
WORKERS = 2


def _settle() -> None:
    """Write back dirty pages before timing starts, so the writes of
    set-up, of an earlier repeat or of this repeat's preparation do not
    land inside the timed operation."""
    os.sync()


def _span(tracer, name: str):
    return tracer(name) if tracer is not None else nullcontext()


def _sha256_arrays(sha, *arrays) -> None:
    import numpy as np

    for array in arrays:
        array = np.asarray(array)
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        if array.dtype.kind in "OUS":
            sha.update("\x00".join(map(str, array.ravel())).encode())
        else:
            sha.update(np.ascontiguousarray(array).tobytes())


def _sha256_frame(sha, frame) -> None:
    for name in sorted(frame.column_names):
        sha.update(name.encode())
        _sha256_arrays(sha, frame[name])


class BatchSimulate:
    """``api.simulate(config, rundir)`` into an empty directory."""

    name = "batch_simulate"
    #: Rough seconds one repeat's interpreter takes on a 2-CPU machine,
    #: which sets how many repeats fill ``--seconds``.
    repeat_s = 8.0
    #: Program modules the operation and the output check import.
    modules = ("repro.api", "repro.io", "repro.simulation.engine")
    #: Busy processes: the engine pool's workers (the coordinator waits
    #: on them while they compute).
    processes = WORKERS

    @staticmethod
    def config(seed: int):
        from repro.simulation.config import SimulationConfig

        return SimulationConfig(
            num_users=BATCH_USERS, seed=seed
        ).with_parallelism(SHARDS, workers=WORKERS)

    def setup(self, directory: Path, seed: int) -> None:
        # The input is the configuration alone; set-up validates it and
        # leaves the empty directory each repeat simulates into.
        self.config(seed)
        directory.mkdir(parents=True)

    def operation(
        self, source: Path, target: Path, seed: int, tracer, warmup: bool
    ):
        from repro import api

        config = self.config(seed)
        _settle()
        start = time.perf_counter()
        with _span(tracer, "api.simulate"):
            api.simulate(config, target)
        return [time.perf_counter() - start], {}, target

    def digest(self, target: Path, result) -> str:
        """The persisted feeds as loaded back: dwell stacks, KPI and RAT
        tables (not file names, so a layout change that keeps the data
        still matches)."""
        from repro import api

        feeds = api.Run.open(target).feeds
        mobility = feeds.mobility
        sha = hashlib.sha256()
        _sha256_arrays(sha, mobility.user_ids, mobility.anchor_sites)
        for day in range(mobility.num_days):
            _sha256_arrays(
                sha, mobility.daily_dwell[day], mobility.night_dwell[day]
            )
        _sha256_frame(sha, feeds.radio_kpis)
        _sha256_frame(sha, feeds.rat_time)
        return sha.hexdigest()


class ColdReport:
    """Open a persisted run lazily and render the full report cold."""

    name = "cold_report"
    repeat_s = 4.3
    modules = (
        "repro.api",
        "repro.analysis.cache",
        "repro.analysis.mobility",
        "repro.analysis.parallel",
        "repro.core",
        "repro.io",
        "repro.simulation.engine",
    )
    processes = WORKERS

    @staticmethod
    def config(seed: int):
        from repro.simulation.clock import StudyCalendar
        from repro.simulation.config import SimulationConfig

        # ISO weeks 6-14, so every lockdown summary number exists.
        calendar = StudyCalendar(first_day=dt.date(2020, 2, 3), num_days=63)
        return SimulationConfig(
            num_users=COLD_USERS,
            target_site_count=COLD_SITES,
            seed=seed,
            calendar=calendar,
        ).with_parallelism(SHARDS, workers=WORKERS)

    def setup(self, directory: Path, seed: int) -> None:
        from repro import api

        api.simulate(self.config(seed), directory)

    def operation(
        self, source: Path, target: Path, seed: int, tracer, warmup: bool
    ):
        from repro import api
        from repro.analysis.cache import ArtifactCache

        ArtifactCache.open(source).clear()
        _settle()
        start = time.perf_counter()
        if tracer is None:
            run = api.Run.open(source, lazy=True)
            text = run.study(workers=WORKERS).report(full=True)
        else:
            # One span per public call; the study's figure fan-out is off
            # while telemetry records, so the figures run in this order.
            with tracer("Run.open"):
                run = api.Run.open(source, lazy=True)
            study = run.study(workers=WORKERS)
            for name in ("metrics", "homes", "labeled_kpis"):
                with tracer(f"study.{name}"):
                    getattr(study, name)
            for number in range(2, 13):
                with tracer(f"study.fig{number}"):
                    getattr(study, f"fig{number}")()
            with tracer("report"):
                text = study.report(full=True)
        return [time.perf_counter() - start], {}, text

    def digest(self, target: Path, result) -> str:
        return hashlib.sha256(result.encode()).hexdigest()


class LiveWeek:
    """Seven live days: ``Run.advance(1)`` then a summary refresh."""

    name = "live_week"
    #: One repeat holds seven operations.
    repeat_s = 14.0
    modules = ColdReport.modules
    #: Serial engine (one shard) and serial refresh.
    processes = 1

    @staticmethod
    def config(seed: int):
        from repro.simulation.config import SimulationConfig

        return SimulationConfig.tiny(seed=seed).with_overrides(
            num_users=LIVE_USERS, target_site_count=LIVE_SITES
        )

    def setup(self, directory: Path, seed: int) -> None:
        from repro import api

        api.simulate(self.config(seed), directory, days=LIVE_PREFIX_DAYS)
        # Warm the per-range artifacts of the prefix, as an operator's
        # earlier refreshes would have.
        api.Run.open(directory, lazy=True).study().summary()

    def operation(
        self, source: Path, target: Path, seed: int, tracer, warmup: bool
    ):
        from repro import api

        shutil.copytree(source, target)
        run = api.Run.open(target, lazy=True)
        _settle()
        days, advance, refresh = [], [], []
        summary = None
        # A warm-up only needs to load the code paths: one day is enough.
        for _ in range(1 if warmup else LIVE_ADVANCES):
            start = time.perf_counter()
            with _span(tracer, "Run.advance"):
                run.advance(1)
            middle = time.perf_counter()
            # What a `repro watch` reprint computes, kept serial.
            with _span(tracer, "Run.open"):
                reopened = api.Run.open(target, lazy=True)
            with _span(tracer, "summary"):
                summary = reopened.study().summary()
            stop = time.perf_counter()
            days.append(stop - start)
            advance.append(middle - start)
            refresh.append(stop - middle)
        return days, {"advance_s": advance, "refresh_s": refresh}, summary

    def digest(self, target: Path, result) -> str:
        payload = json.dumps(result, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


WORKLOADS = {
    workload.name: workload
    for workload in (BatchSimulate(), ColdReport(), LiveWeek())
}
