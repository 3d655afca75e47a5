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
def stored(run_dir):
    return load_feeds(run_dir)


@pytest.fixture
def recorder():
    recorder = telemetry.enable()
    yield recorder
    telemetry.disable()


def _counters() -> dict:
    return telemetry.snapshot()["counters"]


class TestPlanFor:
    def test_committed_lazy_run_gets_a_plan(self, stored):
        plan = parallel.plan_for(stored)
        assert plan is not None
        assert plan.num_shards == 2
        assert plan.num_days == 63

    def test_eager_feeds_have_no_plan(self):
        # The engine's in-memory feeds back onto no committed run.
        assert parallel.plan_for(Simulator(_config()).run()) is None

    def test_saved_eager_feeds_have_no_plan(self, tmp_path):
        # A save writes fresh files but the feed keeps its day lists;
        # a pool reopening the directory would read whatever run was
        # saved there last.
        target = tmp_path / "run"
        feeds = Simulator(_config()).run()
        save_feeds(feeds, target)
        save_feeds(Simulator(_config().with_overrides(seed=32)).run(), target)
        assert feeds.source_directory == target
        assert feeds.mobility.in_memory
        assert parallel.plan_for(feeds) is None
        own = compute_daily_metrics(feeds)
        fanned = compute_daily_metrics(feeds, workers=2)
        assert np.array_equal(own.entropy, fanned.entropy)
        assert np.array_equal(own.gyration_km, fanned.gyration_km)

    def test_streamed_feeds_get_a_plan_once_committed(self, tmp_path):
        target = tmp_path / "run"
        feeds = Simulator(_config()).run(stream_dir=target)
        assert not feeds.mobility.in_memory
        assert parallel.plan_for(feeds) is None  # uncommitted writer
        save_feeds(feeds, target)
        plan = parallel.plan_for(feeds)
        assert plan is not None
        assert plan.num_shards == 2


class TestResolveWorkers:
    @pytest.mark.parametrize("value", ["auto"])
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

    @pytest.mark.parametrize("value", [0, None, 2.0, "2", True])
    def test_anything_else_is_refused(self, value):
        with pytest.raises(ValueError, match="positive integer or 'auto'"):
            parallel.resolve_workers(value)


class TestBitwiseIdentity:
    """The core contract: worker count never changes a single byte."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_metrics_match_serial(self, stored, workers):
        serial = compute_daily_metrics(stored)
        fanned = compute_daily_metrics(stored, workers=workers)
        assert np.array_equal(serial.entropy, fanned.entropy)
        assert np.array_equal(serial.gyration_km, fanned.gyration_km)
        assert np.array_equal(serial.user_ids, fanned.user_ids)

    def test_homes_match_serial(self, stored):
        serial = detect_homes(stored, min_nights=3)
        fanned = detect_homes(stored, min_nights=3, workers=2)
        assert np.array_equal(serial.home_site, fanned.home_site)
        assert np.array_equal(
            serial.nights_observed, fanned.nights_observed
        )


class TestPoolDegradation:
    def test_lost_pool_falls_back_inline_bitwise(self, stored, monkeypatch):
        def explode(*args, **kwargs):
            raise parallel._PoolLost("simulated pool death")

        serial = compute_daily_metrics(stored)
        monkeypatch.setattr(parallel, "_map_pool", explode)
        fanned = compute_daily_metrics(stored, workers=4)
        assert np.array_equal(serial.entropy, fanned.entropy)
        assert np.array_equal(serial.gyration_km, fanned.gyration_km)

    def test_degradation_is_counted(self, stored, monkeypatch, recorder):
        monkeypatch.setattr(
            parallel,
            "_map_pool",
            lambda *a, **k: (_ for _ in ()).throw(
                parallel._PoolLost("dead")
            ),
        )
        compute_daily_metrics(stored, workers=4)
        counters = _counters()
        assert counters.get("analysis.pool_degraded", 0) >= 1
        assert counters.get("analysis.worker_merge", 0) >= 2


class TestTelemetry:
    def test_fanout_counters(self, stored, recorder):
        compute_daily_metrics(stored, workers=2)
        counters = _counters()
        assert counters.get("analysis.shards_dispatched", 0) == 2
        assert counters.get("analysis.worker_merge", 0) == 2

    def test_night_counts_dispatch(self, stored, recorder):
        window = np.arange(5)
        serial = night_win_counts(stored, window)
        fanned = night_win_counts(stored, window, workers=2)
        assert np.array_equal(serial, fanned)
        assert _counters().get("analysis.shards_dispatched", 0) == 2


class TestApiAndStudy:
    def test_run_study_accepts_workers(self, run_dir, recorder):
        # Two handles: Run.study() memoizes its first study, so a second
        # call on one handle would ignore workers=2.
        serial = api.Run.open(run_dir).study(cache=False).summary()
        recorder.reset()
        fanned = api.Run.open(run_dir).study(cache=False, workers=2).summary()
        assert _counters().get("analysis.shards_dispatched", 0) >= 2
        assert serial == fanned

    def test_zero_workers_is_refused(self, run_dir):
        # Only a positive count or "auto" asks for workers.
        study = api.Run.open(run_dir).study(cache=False, workers=0)
        with pytest.raises(ValueError, match="positive integer or 'auto'"):
            study.metrics

    def test_tracing_runs_the_same_program(self, run_dir):
        def report() -> str:
            study = api.Run.open(run_dir).study(cache=False)
            return study.report(full=True)

        plain = report()
        telemetry.enable()
        try:
            traced = report()
            spans = telemetry.snapshot()["spans"]
        finally:
            telemetry.disable()
        assert traced == plain
        names = ["metrics", "home_detection", "label_kpis"]
        names += [f"fig{number}" for number in range(2, 13)]
        for name in names:
            calls = [
                stats["calls"]
                for path, stats in spans.items()
                if path.rsplit("/", 1)[-1] == name
            ]
            assert calls == [1], name


@pytest.fixture(scope="module")
def run_dir4(tmp_path_factory):
    target = tmp_path_factory.mktemp("parallel4") / "run"
    api.simulate(_config(shards=4), target)
    return target


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

        # The default runs the kernels in process, like
        # Run.study(workers=None); "auto" must be asked for.
        args = build_parser().parse_args(["analyze", "somewhere"])
        assert args.workers is None
        args = build_parser().parse_args(
            ["analyze", "somewhere", "--workers", "auto"]
        )
        assert args.workers == "auto"

    def test_workers_flag_fans_out(self, run_dir4, recorder):
        # The run opens memory-mapped, so the pool gets a plan over the
        # committed 4-shard partition.
        def analyze(workers: str) -> str:
            out = io.StringIO()
            argv = ["analyze", str(run_dir4), "--no-cache"]
            assert main(argv + ["--workers", workers], out=out) == 0
            return out.getvalue()

        serial = analyze("1")
        assert _counters().get("analysis.shards_dispatched", 0) == 0
        recorder.reset()
        fanned = analyze("2")
        assert _counters().get("analysis.shards_dispatched", 0) >= 2
        assert fanned == serial
