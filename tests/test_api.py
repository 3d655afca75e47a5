"""Tests for the :mod:`repro.api` facade.

The facade's promise is one front door for the whole lifecycle —
simulate, save, open, resume, analyze — with crash-safety on by
default and precise errors from broken run directories.  These tests
drive each lifecycle edge through :class:`repro.api.Run` and check the
handle stays consistent with the lower layers it wraps.  (Live-mode
``Run.advance`` has its own suite in ``tests/test_live.py``.)
"""

import datetime as dt

import numpy as np
import pytest

from repro import api
from repro.io import RunStoreError
from repro.simulation.checkpoint import CheckpointStore
from repro.simulation.clock import StudyCalendar
from repro.simulation.config import SimulationConfig
from repro.simulation.faults import RecoverySettings, ShardExecutionError

_CALENDAR = StudyCalendar(first_day=dt.date(2020, 2, 24), num_days=14)


def _config(**overrides):
    return SimulationConfig.tiny(seed=11).with_overrides(
        num_users=160,
        target_site_count=40,
        calendar=_CALENDAR,
        recovery=RecoverySettings(max_retries=0),
        **overrides,
    )


class TestSimulate:
    def test_in_memory(self):
        run = api.simulate(_config())
        assert run.directory is None
        assert run.config.seed == 11
        assert run.feeds.calendar.num_days == 14

    def test_persisted(self, tmp_path):
        rundir = tmp_path / "run"
        run = api.simulate(_config(), rundir)
        assert run.directory == rundir
        assert (rundir / "manifest.json").exists()
        # Checkpoints served their purpose and are gone.
        assert not CheckpointStore.present(rundir)

    def test_top_level_reexport(self):
        import repro

        assert repro.Run is api.Run
        assert repro.api is api


class TestRunHandle:
    def test_open_round_trip(self, tmp_path):
        rundir = tmp_path / "run"
        run = api.simulate(_config(), rundir)
        back = api.Run.open(rundir)
        assert np.array_equal(
            back.feeds.mobility.user_ids, run.feeds.mobility.user_ids
        )
        assert "users" in repr(back)

    @pytest.mark.parametrize("lazy", [False, True])
    def test_open_ignores_the_lazy_keyword(self, tmp_path, lazy):
        from repro.io import ShardedMobilityFeed

        # Every open is memory-mapped; the keyword is still accepted.
        rundir = tmp_path / "run"
        api.simulate(_config(), rundir)
        back = api.Run.open(rundir, lazy=lazy)
        assert isinstance(back.feeds.mobility, ShardedMobilityFeed)

    def test_study_is_cached(self, tmp_path):
        run = api.simulate(_config())
        assert run.study() is run.study()

    def test_save_rehomes(self, tmp_path):
        run = api.simulate(_config())
        with pytest.raises(ValueError, match="directory"):
            run.save()
        path = run.save(tmp_path / "elsewhere")
        assert run.directory == path
        assert (path / "manifest.json").exists()

    def test_wrapping_nothing_rejected(self):
        with pytest.raises(ValueError):
            api.Run(None)


class TestStudyCache:
    """study() auto-attaches the run's artifact cache when persisted."""

    def test_persisted_run_attaches_and_populates(self, tmp_path):
        from repro.analysis.cache import CACHE_SUBDIR, ArtifactCache
        from repro.analysis.mobility import segment_digests

        rundir = tmp_path / "run"
        run = api.simulate(_config(), rundir)
        study = run.study()
        assert study.artifact_cache is not None
        assert study.artifact_cache.directory == rundir / CACHE_SUBDIR

        metrics = study.metrics  # computes and persists the range artifact
        store = ArtifactCache.open(rundir)
        cached = store.get(
            "metrics_range",
            {
                "start": 0,
                "days": 14,
                "gyration_mode": "weighted",
                "top_towers": 20,
            },
            digests=segment_digests(run.feeds, 0),
        )
        assert cached is not None
        assert np.array_equal(cached.entropy, metrics.entropy)
        assert np.array_equal(cached.gyration_km, metrics.gyration_km)

        # A second process (fresh load) serves the same bytes back.
        warm = api.Run.open(rundir).study().metrics
        assert np.array_equal(warm.entropy, metrics.entropy)

    def test_cold_full_report_stores_each_artifact_once(self, tmp_path):
        from repro.analysis.cache import ArtifactCache

        # Nine ISO weeks (6-14), so every figure of the full report
        # exists.
        config = SimulationConfig.tiny(seed=31).with_overrides(
            num_users=220,
            target_site_count=40,
            calendar=StudyCalendar(
                first_day=dt.date(2020, 2, 3), num_days=63
            ),
        )
        rundir = tmp_path / "run"
        api.simulate(config, rundir)
        api.Run.open(rundir).study().report(full=True)
        store = ArtifactCache.open(rundir)
        # The one segment's metrics_range and homes_range, fig2-fig12,
        # rat_share, cluster_correlations, summary and report: no
        # whole-window copy of an intermediate, and no labeled KPI
        # frame (recomputed, not cached).
        assert store.info()["entries"] == 17
        assert store.get("metrics", {"gyration_mode": "weighted"}) is None

    def test_cache_false_runs_in_memory(self, tmp_path):
        rundir = tmp_path / "run"
        run = api.simulate(_config(), rundir)
        study = run.study(cache=False)
        _ = study.metrics
        assert study.artifact_cache is None
        assert not (rundir / "cache").exists()

    def test_in_memory_run_has_no_cache(self):
        run = api.simulate(_config())
        assert run.study().artifact_cache is None


class TestResume:
    def _interrupt(self, rundir):
        with pytest.raises(ShardExecutionError):
            api.simulate(
                _config(fault_spec="kill:day=9"), rundir
            )

    def test_completes_an_interrupted_run(self, tmp_path):
        rundir = tmp_path / "run"
        self._interrupt(rundir)
        assert CheckpointStore.present(rundir)

        # Loading the interrupted directory names the problem...
        with pytest.raises(RunStoreError, match="--resume"):
            api.Run.open(rundir)

        # ...and resume() finishes it, bitwise what simulate produces.
        run = api.resume(rundir)
        assert (rundir / "manifest.json").exists()
        assert not CheckpointStore.present(rundir)
        clean = api.simulate(_config())
        for day in (0, 9, 13):  # before, at, and past the kill point
            assert np.array_equal(
                run.feeds.mobility.dwell(day),
                clean.feeds.mobility.dwell(day),
            )

    def test_on_a_finished_run_just_loads(self, tmp_path):
        rundir = tmp_path / "run"
        api.simulate(_config(), rundir)
        run = api.resume(rundir)
        assert run.directory == rundir

    def test_resume_has_one_spelling(self):
        # The module-level function is the only resume verb; a Run
        # handle always wraps loadable feeds already.
        assert callable(api.resume)
        assert not hasattr(api.Run, "resume")

    def test_nothing_to_resume_surfaces_load_error(self, tmp_path):
        with pytest.raises(RunStoreError, match="does not exist"):
            api.resume(tmp_path / "nowhere")
