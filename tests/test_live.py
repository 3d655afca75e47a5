"""Live-operator mode: ``Run.advance``, append commits, incremental analytics.

The contract under test is *bitwise path-independence*: a run grown
day-window by day-window through :meth:`repro.api.Run.advance` must
leave, at every moment it is frozen, a run directory byte-identical to
the one a single batch ``simulate`` writes — feeds, tables, manifest
and all — and its analysis must equal a from-scratch recompute while
reusing every already-seen day range from the artifact cache.  A crash
at any point of an append (including the manifest commit itself) must
leave the directory loadable at its previous day count.
"""

import collections
import dataclasses
import datetime as dt
import json
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.simulation.checkpoint import CheckpointStore
from repro.simulation.clock import StudyCalendar
from repro.simulation.config import SimulationConfig
from repro.simulation.faults import RecoverySettings, ShardExecutionError

_HORIZON = 12
_CAL = StudyCalendar(first_day=dt.date(2020, 2, 24), num_days=_HORIZON)


def _config(shards: int = 1, **overrides):
    config = SimulationConfig.tiny(seed=23).with_overrides(
        num_users=96,
        target_site_count=30,
        calendar=_CAL,
        recovery=RecoverySettings(max_retries=0),
        **overrides,
    )
    return config.with_parallelism(shards, workers=1)


def _tree(path: Path, skip=("cache", "checkpoints")) -> dict[str, bytes]:
    """Every committed file of a run directory, by relative path."""
    files = {}
    for item in sorted(Path(path).rglob("*")):
        relative = item.relative_to(path)
        if item.is_file() and relative.parts[0] not in skip:
            files[str(relative)] = item.read_bytes()
    return files


class TestAdvanceEquivalence:
    """advance()-grown directories are byte-identical to batch ones."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_chunked_advance_matches_batch(self, tmp_path, shards):
        api.simulate(_config(shards), tmp_path / "batch")
        run = api.simulate(_config(shards), tmp_path / "live", days=5)
        assert (run.days, run.horizon) == (5, _HORIZON)
        assert not run.frozen()
        while not run.frozen():
            run.advance(3)
        assert run.days == _HORIZON
        assert _tree(tmp_path / "live") == _tree(tmp_path / "batch")

    def test_day_at_a_time_matches_batch(self, tmp_path):
        api.simulate(_config(), tmp_path / "batch")
        run = api.simulate(_config(), tmp_path / "live", days=1)
        for _ in range(_HORIZON - 1):
            run.advance(1)
        assert run.frozen()
        assert _tree(tmp_path / "live") == _tree(tmp_path / "batch")

    def test_naive_engine_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_NAIVE", "1")
        api.simulate(_config(), tmp_path / "batch")
        run = api.simulate(_config(), tmp_path / "live", days=7)
        run.advance(5)
        assert run.frozen()
        assert _tree(tmp_path / "live") == _tree(tmp_path / "batch")

    def test_partial_prefixes_are_path_independent(self, tmp_path):
        """Two advance paths to the same prefix load identical state.

        The on-disk segment layout records the advance history (that
        is what makes appends cheap), so only the *loaded* run is
        compared here; byte-identity of the directory itself is
        guaranteed — and asserted above — once the run freezes.
        """
        from repro.core.statistics import compute_daily_metrics

        one = api.simulate(_config(), tmp_path / "one", days=2)
        one.advance(2).advance(4)
        two = api.simulate(_config(), tmp_path / "two", days=6)
        two.advance(2)
        assert one.days == two.days == 8
        for day in range(8):
            assert np.array_equal(
                one.feeds.mobility.dwell(day),
                two.feeds.mobility.dwell(day),
            )
        assert (
            one.feeds.radio_kpis.column_names
            == two.feeds.radio_kpis.column_names
        )
        for name in one.feeds.radio_kpis.column_names:
            assert np.array_equal(
                one.feeds.radio_kpis[name], two.feeds.radio_kpis[name]
            )
        assert one.feeds.live == two.feeds.live
        lhs = compute_daily_metrics(one.feeds)
        rhs = compute_daily_metrics(two.feeds)
        assert np.array_equal(lhs.entropy, rhs.entropy)
        assert np.array_equal(lhs.gyration_km, rhs.gyration_km)


class TestRunHandleLive:
    def test_open_reflects_live_state(self, tmp_path):
        api.simulate(_config(), tmp_path / "run", days=4)
        run = api.Run.open(tmp_path / "run")
        assert (run.days, run.horizon) == (4, _HORIZON)
        assert not run.frozen()
        assert "live" in repr(run)
        # The analysis calendar ends where the data ends; the
        # configuration keeps the full horizon for advance().
        assert run.feeds.calendar.num_days == 4
        assert run.config.calendar.num_days == _HORIZON

    def test_advance_requires_directory(self):
        run = api.simulate(_config())
        with pytest.raises(ValueError, match="in-memory"):
            run.advance()

    def test_advance_on_frozen_run_rejected(self, tmp_path):
        run = api.simulate(_config(), tmp_path / "run")
        assert run.frozen()
        with pytest.raises(ValueError, match="frozen"):
            run.advance()

    def test_advance_needs_positive_days(self, tmp_path):
        run = api.simulate(_config(), tmp_path / "run", days=3)
        with pytest.raises(ValueError, match="days >= 1"):
            run.advance(0)

    def test_days_requires_directory(self):
        with pytest.raises(ValueError, match="directory"):
            api.simulate(_config(), days=3)

    def test_days_out_of_range(self, tmp_path):
        with pytest.raises(ValueError, match="horizon"):
            api.simulate(_config(), tmp_path / "run", days=_HORIZON + 1)

    def test_live_incompatible_flags_rejected(self, tmp_path):
        config = _config(emit_signaling=True)
        with pytest.raises(ValueError, match="emit_signaling"):
            api.simulate(config, tmp_path / "run", days=3)


class TestCrashSafety:
    """A torn advance never moves the committed state."""

    def test_crash_at_manifest_commit(self, tmp_path, monkeypatch):
        import repro.io.store as store

        rundir = tmp_path / "run"
        run = api.simulate(_config(), rundir, days=4)
        before = _tree(rundir)

        real = store._atomic_text

        def torn(text, final):
            if final.name == "manifest.json":
                raise OSError("disk full")
            return real(text, final)

        monkeypatch.setattr(store, "_atomic_text", torn)
        with pytest.raises(OSError, match="disk full"):
            run.advance(3)
        monkeypatch.undo()

        # Every previously committed file is untouched; the new
        # segment files are unreferenced garbage, not corruption.
        after = _tree(rundir)
        for name, payload in before.items():
            assert after[name] == payload

        reopened = api.Run.open(rundir)
        assert reopened.days == 4
        reopened.advance(3)
        while not reopened.frozen():
            reopened.advance(4)
        api.simulate(_config(), tmp_path / "batch")
        assert _tree(rundir) == _tree(tmp_path / "batch")

    def test_crash_at_the_freezing_compaction_deletes_nothing(
        self, tmp_path, monkeypatch
    ):
        # The advance that reaches the horizon commits an append, then
        # the compaction re-saves; a crash at the compaction's manifest
        # write must leave every file the committed manifest names.
        import repro.io.store as store
        from repro.io import RunStoreError

        rundir = tmp_path / "run"
        run = api.simulate(_config(), rundir, days=6)
        run.advance(3)

        real = store._atomic_text
        manifests = []

        def torn(text, final):
            if final.name == "manifest.json":
                manifests.append(final)
                if len(manifests) == 2:
                    raise OSError("disk full")
            return real(text, final)

        monkeypatch.setattr(store, "_atomic_text", torn)
        with pytest.raises(OSError, match="disk full"):
            run.advance(3)
        monkeypatch.undo()

        manifest = json.loads((rundir / "manifest.json").read_text())
        assert manifest["num_days"] == _HORIZON
        for name in manifest["feeds_sha256"]:
            assert (rundir / name).exists(), name
        # The compaction rewrote the base dwell stacks under their own
        # names before its commit point, so the committed manifest's
        # digest no longer matches them.
        with pytest.raises(RunStoreError) as exc:
            api.Run.open(rundir)
        assert exc.value.path.name == "daily_dwell.npy"

    def test_next_append_sweeps_staging_leftovers(self, tmp_path):
        rundir = tmp_path / "run"
        run = api.simulate(_config(2), rundir, days=4)
        leftovers = [
            rundir / "feeds" / "shard-0001" / "daily_dwell.00004.npy.7.8.tmp",
            rundir / "feeds" / "shard-0000" / "rows.npy.tmp",
            rundir / "manifest.json.7.8.tmp",
        ]
        for path in leftovers:
            path.write_bytes(b"torn")
        run.advance(3)
        for path in leftovers:
            assert not path.exists(), path.name

    def test_kill_mid_advance_then_resume(self, tmp_path):
        rundir = tmp_path / "run"
        # The fault arms day 5, beyond the initial 4-day window: the
        # first save is clean, the advance covering day 5 dies.
        killer = _config(fault_spec="kill:day=5")
        run = api.simulate(killer, rundir, days=4)
        with pytest.raises(ShardExecutionError):
            run.advance(4)

        # resume() on a live run is just open(): the torn advance
        # never touched the manifest.
        reopened = api.resume(rundir)
        assert reopened.days == 4
        # Its checkpointed window days survive for the retry.
        assert CheckpointStore.present(rundir)

        # Clear the fault (operational state, excluded from the
        # checkpoint config digest) and grow to the horizon.
        reopened.feeds.config = dataclasses.replace(
            reopened.feeds.config, fault_spec=None
        )
        while not reopened.frozen():
            reopened.advance(4)

        api.simulate(_config(), tmp_path / "batch")
        live, batch = _tree(rundir), _tree(tmp_path / "batch")
        # config.pkl still records the (spent) fault plan; everything
        # the fault cannot influence is byte-identical.
        differing = {"config.pkl", "manifest.json"}
        assert set(live) == set(batch)
        for name in set(live) - differing:
            assert live[name] == batch[name], name


class TestIncrementalAnalytics:
    """Advance re-analyzes only the new day range; stale whole-window
    artifacts miss automatically (digest-keyed) instead of serving
    pre-advance results."""

    def _spy(self, monkeypatch):
        import repro.analysis.mobility as mobility

        calls: list[tuple[int, int]] = []
        real = mobility.compute_daily_metrics

        def recording(feeds, *args, **kwargs):
            calls.append(kwargs.get("day_range"))
            return real(feeds, *args, **kwargs)

        monkeypatch.setattr(mobility, "compute_daily_metrics", recording)
        return calls

    def test_only_new_ranges_recompute(self, tmp_path, monkeypatch):
        from repro.core.statistics import compute_daily_metrics

        rundir = tmp_path / "run"
        run = api.simulate(_config(), rundir, days=6)
        calls = self._spy(monkeypatch)

        first = run.study().metrics
        assert calls == [(0, 6)]

        calls.clear()
        run.advance(3)
        second = run.study().metrics
        assert calls == [(6, 9)]  # days 0-6 came from their range artifact

        # The stale 6-day whole-window artifact was not served: the
        # composed result equals a from-scratch recompute.
        fresh = compute_daily_metrics(run.feeds)
        assert second.entropy.shape[0] == 9
        assert np.array_equal(second.entropy, fresh.entropy)
        assert np.array_equal(second.gyration_km, fresh.gyration_km)
        assert second.entropy.shape[0] > first.entropy.shape[0]

        # Fully warm: nothing recomputes.
        calls.clear()
        warm = api.Run.open(rundir).study().metrics
        assert calls == []
        assert np.array_equal(warm.entropy, second.entropy)

    def test_summary_artifacts_track_day_count(self, tmp_path):
        from repro.analysis.cache import ArtifactCache, summary_params

        rundir = tmp_path / "run"
        run = api.simulate(_config(), rundir, days=6)
        metrics_6 = run.study().metrics
        run.advance(2)
        # The cache opened against the advanced manifest is keyed on
        # the new digests: the 6-day entry is unreachable (auto-miss).
        cache = ArtifactCache.open(rundir)
        assert cache.get("summary", summary_params()) is None
        metrics_8 = run.study().metrics
        assert metrics_8.entropy.shape[0] == 8
        assert np.array_equal(
            metrics_8.entropy[:6], metrics_6.entropy
        )


def _entry_names(rundir: Path) -> collections.Counter:
    """Artifact name -> entry count of a run's cache, read from the
    entry headers."""
    from repro.analysis.cache import ENTRY_SUFFIX, ArtifactCache, _read_entry

    store = ArtifactCache.open(rundir)
    names: collections.Counter = collections.Counter()
    for path in store.directory.glob(f"*{ENTRY_SUFFIX}"):
        header, _ = _read_entry(path)
        names[header["artifact"]] += 1
    assert sum(names.values()) == store.info()["entries"]
    return names


class TestCacheSweep:
    """Every manifest commit drops the cache entries its digest map no
    longer reaches, so a live run's cache stays bounded."""

    def test_live_cache_holds_ranges_plus_one_refresh(self, tmp_path):
        from repro.analysis.cache import ENTRY_SUFFIX, _read_entry

        # Past the lockdown (day 49) so a summary exists; 7 days short of
        # the 98-day horizon, so the run stays live.
        config = SimulationConfig.tiny(seed=31).with_overrides(
            num_users=220, target_site_count=40
        )
        rundir = tmp_path / "run"
        run = api.simulate(config, rundir, days=63)
        run.study().summary()
        for _ in range(7):
            run.advance(1)
            warm = api.Run.open(rundir).study().summary()
            cold = api.Run.open(rundir).study(cache=False).summary()
            assert json.dumps(warm, sort_keys=True) == json.dumps(
                cold, sort_keys=True
            )
        assert len(run.feeds.feed_segments) == 8
        whole_window = {
            "fig2", "fig3", "fig4", "fig7", "fig8", "fig9", "fig10",
            "fig11", "rat_share", "cluster_correlations", "summary",
        }
        # One metrics range per segment, one February night-count range
        # (the prefix holds all of February), and the last refresh's
        # whole-window entries; each earlier refresh's whole-window
        # entries were dropped by the advance that made them unreachable.
        assert _entry_names(rundir) == collections.Counter(
            metrics_range=8, homes_range=1, **dict.fromkeys(whole_window, 1)
        )
        manifest = json.loads((rundir / "manifest.json").read_text())
        held = manifest["feeds_sha256"].items()
        for path in (rundir / "cache" / "analysis").glob(f"*{ENTRY_SUFFIX}"):
            header, _ = _read_entry(path)
            assert header["digests"].items() <= held
            if header["artifact"] in whole_window:
                assert header["digests"] == manifest["feeds_sha256"]

    def test_freezing_compaction_drops_vanished_segment_ranges(
        self, tmp_path
    ):
        from repro import telemetry
        from repro.core.statistics import compute_daily_metrics

        rundir = tmp_path / "run"
        run = api.simulate(_config(), rundir, days=6)
        run.study().metrics
        run.advance(3)
        run.study().metrics
        assert _entry_names(rundir) == {"metrics_range": 2}

        telemetry.enable()
        try:
            run.advance(3)  # reaches the horizon: the compacting re-save
            counters = telemetry.snapshot()["counters"]
        finally:
            telemetry.disable()
        assert run.frozen()
        # Both ranges were keyed on dwell files the compaction replaced.
        assert counters["cache.entries_dropped"] == 2
        assert _entry_names(rundir) == {}
        metrics = run.study().metrics
        assert _entry_names(rundir) == {"metrics_range": 1}
        fresh = compute_daily_metrics(run.feeds)
        assert np.array_equal(metrics.entropy, fresh.entropy)
        assert np.array_equal(metrics.gyration_km, fresh.gyration_km)

    def test_format_1_entries_drop_and_temporaries_survive(self, tmp_path):
        from repro.analysis.cache import ENTRY_SUFFIX

        rundir = tmp_path / "run"
        run = api.simulate(_config(), rundir, days=4)
        store = rundir / "cache" / "analysis"
        store.mkdir(parents=True)
        old_entry = store / ("0" * 64 + ".npz")
        old_entry.write_bytes(b"PK\x03\x04")
        in_flight = store / f"{'1' * 64}{ENTRY_SUFFIX}.123.456.tmp"
        in_flight.write_bytes(b"a put in progress")
        run.advance(1)
        assert not old_entry.exists()
        assert in_flight.read_bytes() == b"a put in progress"

    def test_a_run_without_cache_imports_no_analysis(self, tmp_path):
        # The batch save and the live commits look for a cache directory
        # before they import the cache module, which would pull in
        # repro.analysis and repro.core.
        script = textwrap.dedent("""
            import datetime as dt
            import sys
            from repro import api
            from repro.simulation.clock import StudyCalendar
            from repro.simulation.config import SimulationConfig

            config = SimulationConfig.tiny(seed=23).with_overrides(
                num_users=96,
                target_site_count=30,
                calendar=StudyCalendar(
                    first_day=dt.date(2020, 2, 24), num_days=12
                ),
            ).with_parallelism(2, workers=1)
            api.simulate(config, sys.argv[1] + "/batch")
            run = api.simulate(config, sys.argv[1] + "/live", days=9)
            run.advance(3)
            assert run.frozen()
            print(sorted(
                name for name in sys.modules
                if name.startswith(("repro.analysis", "repro.core"))
            ))
        """)
        source = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(source), env.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "[]"
        assert not (tmp_path / "batch" / "cache").exists()


try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis ships with dev deps
    pytest.skip("hypothesis is not installed", allow_module_level=True)

#: (shards, naive) -> committed batch tree, computed once per profile.
_BATCH: dict[tuple[int, bool], dict[str, bytes]] = {}


def _batch_tree(shards: int, naive: bool) -> dict[str, bytes]:
    key = (shards, naive)
    if key not in _BATCH:
        directory = Path(tempfile.mkdtemp(prefix="repro-live-batch-"))
        api.simulate(_config(shards), directory / "run")
        _BATCH[key] = _tree(directory / "run")
    return _BATCH[key]


@st.composite
def _advance_plans(draw):
    """A partition of the 12-day horizon into an initial simulate
    window plus advance() chunks."""
    cuts = draw(
        st.sets(st.integers(1, _HORIZON - 1), min_size=1, max_size=3)
    )
    bounds = [0, *sorted(cuts), _HORIZON]
    chunks = [b - a for a, b in zip(bounds, bounds[1:])]
    shards = draw(st.sampled_from([1, 2, 4]))
    naive = draw(st.booleans())
    return chunks, shards, naive


class TestAdvanceProperty:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.data_too_large],
    )
    @given(_advance_plans())
    def test_any_partition_matches_batch(self, plan):
        chunks, shards, naive = plan
        previous = os.environ.get("REPRO_SIM_NAIVE")
        os.environ["REPRO_SIM_NAIVE"] = "1" if naive else "0"
        try:
            with tempfile.TemporaryDirectory() as scratch:
                rundir = Path(scratch) / "run"
                run = api.simulate(
                    _config(shards), rundir, days=chunks[0]
                )
                for chunk in chunks[1:]:
                    run.advance(chunk)
                assert run.frozen()
                assert _tree(rundir) == _batch_tree(shards, naive)
        finally:
            if previous is None:
                os.environ.pop("REPRO_SIM_NAIVE", None)
            else:
                os.environ["REPRO_SIM_NAIVE"] = previous
