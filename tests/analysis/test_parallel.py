"""Process-parallel analysis: plans, pools, fallbacks, and knobs.

:mod:`repro.analysis.parallel` promises that fanning the per-shard
kernels across a process pool changes *nothing observable*: metrics
and homes are bitwise identical to the in-process walk for every
worker count, and a pool that cannot start degrades to
in-process execution of the identical task functions.  This module
pins those promises plus the plumbing around them — worker resolution, the CLI ``--workers`` flag,
and the ``analysis.*`` telemetry counters.
"""

import datetime as dt
import io

import numpy as np
import pytest

from repro import api, telemetry
from repro.analysis import parallel
from repro.cli import main
from repro.core.home import detect_homes, night_win_counts
from repro.core.statistics import compute_daily_metrics
from repro.io import load_feeds, save_feeds
from repro.simulation.clock import StudyCalendar
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulator

#: Nine ISO weeks (6-14) so the lockdown summary numbers exist.
_CALENDAR = StudyCalendar(first_day=dt.date(2020, 2, 3), num_days=63)


def _config(shards: int = 2) -> SimulationConfig:
    return (
        SimulationConfig.tiny(seed=31)
        .with_overrides(
            num_users=220,
            target_site_count=40,
            calendar=_CALENDAR,
        )
        .with_parallelism(shards, workers=1)
    )


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    target = tmp_path_factory.mktemp("parallel") / "run"
    save_feeds(Simulator(_config()).run(), target)
    return target


@pytest.fixture
def lazy(run_dir):
    return load_feeds(run_dir, lazy=True)


@pytest.fixture
def recorder():
    recorder = telemetry.enable()
    yield recorder
    telemetry.disable()


def _counters() -> dict:
    return telemetry.snapshot()["counters"]


class TestPlanFor:
    def test_committed_lazy_run_gets_a_plan(self, lazy):
        plan = parallel.plan_for(lazy)
        assert plan is not None
        assert plan.num_shards == 2
        assert plan.num_days == 63

    def test_eager_feeds_have_no_plan(self, run_dir):
        assert parallel.plan_for(load_feeds(run_dir)) is None


class TestResolveWorkers:
    @pytest.mark.parametrize("value", [None, 0, "auto"])
    def test_auto_values_resolve_to_cpu_count(self, value):
        import os

        assert parallel.resolve_workers(value) == max(
            1, os.cpu_count() or 1
        )

    def test_explicit_count_passes_through(self):
        assert parallel.resolve_workers(3) == 3

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            parallel.resolve_workers(-2)


class TestBitwiseIdentity:
    """The core contract: worker count never changes a single byte."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_metrics_match_serial(self, lazy, workers):
        serial = compute_daily_metrics(lazy)
        fanned = compute_daily_metrics(lazy, workers=workers)
        assert np.array_equal(serial.entropy, fanned.entropy)
        assert np.array_equal(serial.gyration_km, fanned.gyration_km)
        assert np.array_equal(serial.user_ids, fanned.user_ids)

    def test_homes_match_serial(self, lazy):
        serial = detect_homes(lazy, min_nights=3)
        fanned = detect_homes(lazy, min_nights=3, workers=2)
        assert np.array_equal(serial.home_site, fanned.home_site)
        assert np.array_equal(
            serial.nights_observed, fanned.nights_observed
        )


class TestPoolDegradation:
    def test_lost_pool_falls_back_inline_bitwise(self, lazy, monkeypatch):
        def explode(*args, **kwargs):
            raise parallel._PoolLost("simulated pool death")

        serial = compute_daily_metrics(lazy)
        monkeypatch.setattr(parallel, "_map_pool", explode)
        fanned = compute_daily_metrics(lazy, workers=4)
        assert np.array_equal(serial.entropy, fanned.entropy)
        assert np.array_equal(serial.gyration_km, fanned.gyration_km)

    def test_degradation_is_counted(self, lazy, monkeypatch, recorder):
        monkeypatch.setattr(
            parallel,
            "_map_pool",
            lambda *a, **k: (_ for _ in ()).throw(
                parallel._PoolLost("dead")
            ),
        )
        compute_daily_metrics(lazy, workers=4)
        counters = _counters()
        assert counters.get("analysis.pool_degraded", 0) >= 1
        assert counters.get("analysis.worker_merge", 0) >= 2


class TestTelemetry:
    def test_fanout_counters(self, lazy, recorder):
        compute_daily_metrics(lazy, workers=2)
        counters = _counters()
        assert counters.get("analysis.shards_dispatched", 0) == 2
        assert counters.get("analysis.worker_merge", 0) == 2

    def test_night_counts_dispatch(self, lazy, recorder):
        window = np.arange(5)
        serial = night_win_counts(lazy, window)
        fanned = night_win_counts(lazy, window, workers=2)
        assert np.array_equal(serial, fanned)
        assert _counters().get("analysis.shards_dispatched", 0) == 2


class TestApiAndStudy:
    def test_run_study_accepts_workers(self, run_dir):
        run = api.Run.open(run_dir, lazy=True)
        serial = run.study(cache=False).summary()
        fanned = run.study(cache=False, workers=2).summary()
        assert serial == fanned


class TestCli:
    def test_workers_flag_accepted(self, run_dir):
        out = io.StringIO()
        assert main(
            ["analyze", str(run_dir), "--workers", "2"], out=out
        ) == 0
        assert "entropy" in out.getvalue().lower() or out.getvalue()

    def test_bad_workers_value_rejected(self, run_dir):
        out = io.StringIO()
        assert main(
            ["analyze", str(run_dir), "--workers", "nope"], out=out
        ) == 2

    def test_workers_auto_is_default(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["analyze", "somewhere"])
        assert args.workers == "auto"
