"""Tests for feed persistence (save/load round trip, precise errors)."""

import numpy as np
import pytest

from repro.io import RunStoreError, load_feeds, save_feeds
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulator


@pytest.fixture(scope="module")
def run_feeds():
    return Simulator(SimulationConfig.tiny(seed=21)).run()


@pytest.fixture(scope="module")
def reloaded(run_feeds, tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "run"
    save_feeds(run_feeds, path)
    return load_feeds(path)


def _record_digest(run, name):
    """Re-record ``name``'s digest in the run's manifest."""
    import hashlib
    import json

    manifest = json.loads((run / "manifest.json").read_text())
    manifest["feeds_sha256"][name] = hashlib.sha256(
        (run / name).read_bytes()
    ).hexdigest()
    (run / "manifest.json").write_text(json.dumps(manifest))


class TestRoundTrip:
    def test_kpis_identical(self, run_feeds, reloaded):
        original = run_feeds.radio_kpis
        back = reloaded.radio_kpis
        assert len(back) == len(original)
        assert np.allclose(
            back["dl_volume_mb"], original["dl_volume_mb"]
        )
        assert back["postcode"].tolist() == original["postcode"].tolist()

    def test_mobility_identical(self, run_feeds, reloaded):
        assert np.array_equal(
            reloaded.mobility.user_ids, run_feeds.mobility.user_ids
        )
        assert np.array_equal(
            reloaded.mobility.anchor_sites,
            run_feeds.mobility.anchor_sites,
        )
        for day in (0, 10, run_feeds.mobility.num_days - 1):
            assert np.allclose(
                reloaded.mobility.dwell(day), run_feeds.mobility.dwell(day)
            )
            assert np.allclose(
                reloaded.mobility.night(day), run_feeds.mobility.night(day)
            )

    def test_world_rebuilt_identically(self, run_feeds, reloaded):
        assert np.array_equal(
            reloaded.agents.home_site, run_feeds.agents.home_site
        )
        assert reloaded.topology.num_sites == run_feeds.topology.num_sites
        assert (
            reloaded.geography.total_residents
            == run_feeds.geography.total_residents
        )

    def test_upgrade_day_preserved(self, run_feeds, reloaded):
        assert (
            reloaded.interconnect_upgrade_day
            == run_feeds.interconnect_upgrade_day
        )

    def test_analysis_matches_after_reload(self, run_feeds, reloaded):
        from repro.core import CovidImpactStudy

        original = CovidImpactStudy(run_feeds).fig3()["gyration"]
        back = CovidImpactStudy(reloaded).fig3()["gyration"]
        assert np.allclose(
            original.values["UK"], back.values["UK"], atol=1e-3
        )

    def test_manifest_written(self, run_feeds, tmp_path):
        import json

        path = save_feeds(run_feeds, tmp_path / "m")
        assert (path / "manifest.json").exists()
        assert (path / "config.pkl").exists()
        assert (path / "radio_kpis.npy").exists()
        assert (path / "rat_time.npy").exists()
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["format_version"] == 3
        assert manifest["feeds"]["layout"] == "columnar"
        shards = manifest["feeds"]["num_shards"]
        assert shards >= 1
        for index in range(shards):
            shard = path / "feeds" / f"shard-{index:04d}"
            for column in (
                "rows", "user_ids", "anchor_sites",
                "daily_dwell", "night_dwell",
            ):
                assert (shard / f"{column}.npy").exists()
        # No stray temporaries survive a completed save.
        assert not list(path.rglob("*.tmp"))

    def test_lazy_load_matches_eager(self, run_feeds, reloaded):
        from repro.io.columnar import ShardedMobilityFeed

        # Every load maps the partition; the in-memory run is the oracle.
        assert isinstance(reloaded.mobility, ShardedMobilityFeed)
        for day in (0, run_feeds.mobility.num_days - 1):
            assert np.array_equal(
                reloaded.mobility.dwell(day), run_feeds.mobility.dwell(day)
            )
            assert np.array_equal(
                reloaded.mobility.night(day), run_feeds.mobility.night(day)
            )

    def test_configless_feeds_rejected(self, run_feeds, tmp_path):
        import dataclasses

        stripped = dataclasses.replace(run_feeds, config=None)
        with pytest.raises(ValueError, match="config"):
            save_feeds(stripped, tmp_path / "x")

    def test_bad_version_rejected(self, run_feeds, tmp_path):
        import json

        path = save_feeds(run_feeds, tmp_path / "v")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = 99
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="version"):
            load_feeds(path)


class TestPreciseErrors:
    """Broken run directories diagnose themselves.

    Every failure mode — missing directory, missing file, truncated
    pickle, corrupt archive, manifest lies — must raise
    :class:`RunStoreError` *naming the offending file*, never a leaked
    ``KeyError`` / ``FileNotFoundError`` / pickle traceback.
    """

    @pytest.fixture
    def saved(self, run_feeds, tmp_path):
        return save_feeds(run_feeds, tmp_path / "run")

    def test_is_a_value_error(self):
        # Backwards compatibility: historical callers catch ValueError.
        assert issubclass(RunStoreError, ValueError)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(RunStoreError, match="does not exist"):
            load_feeds(tmp_path / "never-saved")

    def test_missing_manifest(self, saved):
        (saved / "manifest.json").unlink()
        with pytest.raises(RunStoreError, match="manifest.json"):
            load_feeds(saved)

    def test_interrupted_run_points_at_resume(self, saved):
        # checkpoints/ present but no manifest = an interrupted
        # simulate; the error must say how to finish it.
        (saved / "manifest.json").unlink()
        (saved / "checkpoints").mkdir()
        (saved / "checkpoints" / "state.json").write_text("{}")
        with pytest.raises(RunStoreError, match="--resume"):
            load_feeds(saved)

    def test_garbled_manifest(self, saved):
        (saved / "manifest.json").write_text("{not json")
        with pytest.raises(RunStoreError, match="manifest.json"):
            load_feeds(saved)

    def test_manifest_missing_counts(self, saved):
        import json

        manifest = json.loads((saved / "manifest.json").read_text())
        del manifest["num_users"]
        (saved / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(RunStoreError, match="num_users"):
            load_feeds(saved)

    def test_missing_config(self, saved):
        (saved / "config.pkl").unlink()
        with pytest.raises(RunStoreError, match="config.pkl"):
            load_feeds(saved)

    def test_truncated_config(self, saved):
        blob = (saved / "config.pkl").read_bytes()
        (saved / "config.pkl").write_bytes(blob[: len(blob) // 2])
        with pytest.raises(RunStoreError, match="config.pkl"):
            load_feeds(saved)

    def test_missing_mobility_shard_file(self, saved):
        # A deleted shard file must be diagnosed by the digest check
        # itself, naming the path — not deferred to a vaguer reader.
        target = saved / "feeds" / "shard-0000" / "daily_dwell.npy"
        target.unlink()
        with pytest.raises(RunStoreError, match="daily_dwell.npy") as exc:
            load_feeds(saved)
        assert exc.value.path == target

    def test_corrupt_mobility_shard_file(self, saved):
        (saved / "feeds" / "shard-0000" / "night_dwell.npy").write_bytes(
            b"\x00" * 64
        )
        with pytest.raises(RunStoreError, match="night_dwell.npy"):
            load_feeds(saved)

    def test_missing_shard_file_without_digests(self, saved):
        # The opener pool workers use verifies no digests: the missing
        # file reaches the columnar reader's own diagnosis.
        from repro.io import columnar

        target = saved / "feeds" / "shard-0000" / "anchor_sites.npy"
        target.unlink()
        with pytest.raises(RunStoreError, match="anchor_sites.npy") as exc:
            columnar.open_shard(saved, 0)
        assert exc.value.path == target

    def test_shard_shape_inconsistency_without_digests(self, saved):
        # The damaged file's digest is re-recorded, so the digest check
        # passes and the shape check of the reader itself fires.
        target = saved / "feeds" / "shard-0000" / "daily_dwell.npy"
        with open(target, "wb") as handle:
            np.save(handle, np.zeros((3, 1, 8), dtype=np.float32))
        _record_digest(saved, "feeds/shard-0000/daily_dwell.npy")
        with pytest.raises(RunStoreError, match="inconsistent") as exc:
            load_feeds(saved)
        assert exc.value.path == target

    def test_manifest_mobility_disagreement(self, saved):
        import json

        manifest = json.loads((saved / "manifest.json").read_text())
        manifest["num_users"] = manifest["num_users"] + 1
        (saved / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(RunStoreError, match="manifest promises"):
            load_feeds(saved)

    def test_missing_kpis(self, saved):
        (saved / "radio_kpis.npy").unlink()
        with pytest.raises(RunStoreError, match="radio_kpis.npy"):
            load_feeds(saved)

    def test_error_carries_the_path(self, saved):
        (saved / "rat_time.npy").unlink()
        with pytest.raises(RunStoreError) as excinfo:
            load_feeds(saved)
        assert excinfo.value.path == saved / "rat_time.npy"


class TestFeedDigests:
    """save_feeds records per-feed SHA-256; load_feeds verifies them."""

    FILES = (
        "radio_kpis.npy",
        "rat_time.npy",
        "config.pkl",
        "feeds/shard-0000/rows.npy",
        "feeds/shard-0000/user_ids.npy",
        "feeds/shard-0000/anchor_sites.npy",
        "feeds/shard-0000/daily_dwell.npy",
        "feeds/shard-0000/night_dwell.npy",
    )

    @pytest.fixture
    def saved(self, run_feeds, tmp_path):
        return save_feeds(run_feeds, tmp_path / "run")

    def test_manifest_records_every_feed(self, saved):
        import hashlib
        import json

        digests = json.loads(
            (saved / "manifest.json").read_text()
        )["feeds_sha256"]
        assert sorted(digests) == sorted(self.FILES)
        for name, recorded in digests.items():
            actual = hashlib.sha256(
                (saved / name).read_bytes()
            ).hexdigest()
            assert recorded == actual

    def test_feeds_carry_their_digests(self, run_feeds, saved):
        import json

        assert run_feeds.source_digests == json.loads(
            (saved / "manifest.json").read_text()
        )["feeds_sha256"]
        assert load_feeds(saved).source_digests == run_feeds.source_digests

    @pytest.mark.parametrize(
        "name",
        [
            "radio_kpis.npy",
            "rat_time.npy",
            "config.pkl",
            "feeds/shard-0000/daily_dwell.npy",
        ],
    )
    def test_tampered_feed_is_refused(self, saved, name):
        with open(saved / name, "ab") as handle:
            handle.write(b" ")
        with pytest.raises(RunStoreError, match="digest") as excinfo:
            load_feeds(saved)
        assert excinfo.value.path == saved / name

    def test_manifest_without_digests_is_refused(self, saved):
        import json

        from repro import api

        manifest = json.loads((saved / "manifest.json").read_text())
        del manifest["feeds_sha256"]
        (saved / "manifest.json").write_text(json.dumps(manifest))
        # A damaged table the missing map could no longer catch.
        blob = bytearray((saved / "radio_kpis.npy").read_bytes())
        blob[-1] ^= 0xFF
        (saved / "radio_kpis.npy").write_bytes(bytes(blob))
        for opener in (load_feeds, api.Run.open):
            with pytest.raises(
                RunStoreError, match="records no feed digests"
            ) as exc:
                opener(saved)
            assert exc.value.path == saved / "manifest.json"

    @pytest.mark.parametrize("name", FILES)
    def test_manifest_missing_a_digest_is_refused(self, saved, name):
        import json

        manifest = json.loads((saved / "manifest.json").read_text())
        del manifest["feeds_sha256"][name]
        (saved / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(
            RunStoreError, match="records no digest for"
        ) as exc:
            load_feeds(saved)
        assert exc.value.path == saved / name

    def test_live_segment_missing_a_digest_is_refused(self, tmp_path):
        import datetime as dt
        import json

        from repro import api
        from repro.simulation.clock import StudyCalendar

        config = SimulationConfig.tiny(seed=23).with_overrides(
            num_users=96,
            target_site_count=30,
            calendar=StudyCalendar(
                first_day=dt.date(2020, 2, 24), num_days=12
            ),
        )
        path = tmp_path / "live"
        api.simulate(config, path, days=3).advance(2)
        name = "feeds/shard-0000/night_dwell.00003.npy"
        manifest = json.loads((path / "manifest.json").read_text())
        del manifest["feeds_sha256"][name]
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(
            RunStoreError, match="records no digest for"
        ) as exc:
            load_feeds(path)
        assert exc.value.path == path / name


class TestAtomicPersistence:
    """A crash mid-save never leaves a run a reader half-accepts.

    Every file is written tmp+rename with ``manifest.json`` last, so a
    torn save is either invisible (no manifest yet) or detected by the
    digest check (old manifest, new files) — always a
    :class:`RunStoreError` naming the incomplete file.
    """

    def test_torn_fresh_save_is_unloadable(
        self, run_feeds, tmp_path, monkeypatch
    ):
        # Crash before the manifest commit point: the directory is not
        # a saved run, and the error names the missing manifest.
        import repro.io.store as store_module

        def boom(text, final):
            raise OSError("disk died before the manifest commit")

        monkeypatch.setattr(store_module, "_atomic_text", boom)
        target = tmp_path / "torn"
        with pytest.raises(OSError):
            save_feeds(run_feeds, target)
        with pytest.raises(RunStoreError, match="manifest.json") as exc:
            load_feeds(target)
        assert exc.value.path == target / "manifest.json"

    def test_torn_resave_is_detected_by_digests(
        self, run_feeds, tmp_path, monkeypatch
    ):
        # A save over an existing good run that dies mid-rename leaves
        # the OLD manifest next to a mix of old and new files; the
        # digest check must refuse the run, naming an offending file.
        import repro.io.durable as durable_module

        target = save_feeds(run_feeds, tmp_path / "run")
        # Perturb the feeds so the re-saved bytes differ (new seed's
        # dwell values), then crash partway through the shard renames.
        other = Simulator(SimulationConfig.tiny(seed=99)).run()

        real_publish = durable_module.publish
        calls = {"n": 0}

        def flaky_publish(staging, final):
            calls["n"] += 1
            if calls["n"] > 2:
                raise OSError("crash mid-rename")
            return real_publish(staging, final)

        monkeypatch.setattr(durable_module, "publish", flaky_publish)
        with pytest.raises(OSError):
            save_feeds(other, target)
        monkeypatch.undo()
        with pytest.raises(RunStoreError) as exc:
            load_feeds(target)
        assert exc.value.path is not None
        assert str(exc.value.path).startswith(str(target))

    def test_save_leaves_no_temporaries(self, run_feeds, tmp_path):
        path = save_feeds(run_feeds, tmp_path / "clean")
        assert not list(path.rglob("*.tmp"))

    def test_resave_drops_stale_shards(self, run_feeds, tmp_path):
        # A leftover shard directory from an older, wider partition
        # must not survive a re-save with fewer shards.
        path = save_feeds(run_feeds, tmp_path / "run")
        stale = path / "feeds" / "shard-0099"
        stale.mkdir(parents=True)
        (stale / "rows.npy").write_bytes(b"junk")
        save_feeds(run_feeds, path)
        assert not stale.exists()
        load_feeds(path)


def _sweep_config(shards: int = 4, **overrides) -> SimulationConfig:
    import datetime as dt

    from repro.simulation.clock import StudyCalendar

    return SimulationConfig.tiny(seed=23).with_overrides(
        num_users=96,
        target_site_count=30,
        calendar=StudyCalendar(first_day=dt.date(2020, 2, 24), num_days=12),
        **overrides,
    ).with_parallelism(shards, workers=1)


def _batch_save(directory):
    from repro import api

    api.simulate(_sweep_config(), directory)
    yield


def _resave_fewer_shards(directory):
    from repro import api

    api.simulate(_sweep_config(4), directory)
    yield
    api.simulate(_sweep_config(2)).save(directory)
    yield


def _resave_without_events(directory):
    from repro import api

    api.simulate(_sweep_config(emit_signaling=True), directory)
    yield
    api.simulate(_sweep_config()).save(directory)
    yield


def _append(directory):
    from repro import api

    run = api.simulate(_sweep_config(), directory, days=5)
    yield
    run.advance(3)
    yield


def _freezing_compaction(directory):
    from repro import api

    run = api.simulate(_sweep_config(), directory, days=9)
    yield
    run.advance(3)  # the append reaches the horizon; the save compacts
    assert run.frozen()
    yield


class TestCommitSweep:
    """After every commit a run directory stores what its manifest names.

    The files under ``feeds/``, the root ``*.npy`` tables, ``config.pkl``
    and any root staging file are exactly the digest map's names:
    superseded segments and tables, the shards of a wider layout and a
    dropped event partition are gone.
    """

    @pytest.mark.parametrize(
        "commits",
        [
            _batch_save,
            _resave_fewer_shards,
            _resave_without_events,
            _append,
            _freezing_compaction,
        ],
        ids=lambda commits: commits.__name__.lstrip("_"),
    )
    def test_stored_files_are_the_digest_map(self, commits, tmp_path):
        import json

        directory = tmp_path / "run"
        for _ in commits(directory):
            manifest = json.loads((directory / "manifest.json").read_text())
            stored = {
                path.relative_to(directory).as_posix()
                for path in (directory / "feeds").rglob("*")
                if path.is_file()
            }
            stored.update(
                path.name
                for pattern in ("*.npy", "config.pkl", "*.tmp")
                for path in directory.glob(pattern)
            )
            assert stored == set(manifest["feeds_sha256"])


class TestFormatV1Compat:
    """Runs saved by earlier store formats are refused at the manifest:
    version 1 (mobility.npz) and version 2 (CSV tables)."""

    @pytest.fixture
    def v1_dir(self, run_feeds, tmp_path):
        import hashlib
        import json

        path = save_feeds(run_feeds, tmp_path / "v1")
        # Rebuild the historical layout from the saved run: a single
        # compressed archive instead of the feeds/ partition.
        mobility = run_feeds.mobility
        np.savez_compressed(
            path / "mobility.npz",
            user_ids=mobility.user_ids,
            anchor_sites=mobility.anchor_sites,
            daily_dwell=np.stack(
                [mobility.dwell(d) for d in range(mobility.num_days)]
            ),
            night_dwell=np.stack(
                [mobility.night(d) for d in range(mobility.num_days)]
            ),
        )
        import shutil

        shutil.rmtree(path / "feeds")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = 1
        del manifest["feeds"]
        manifest["feeds_sha256"] = {
            name: hashlib.sha256(
                (path / name).read_bytes()
            ).hexdigest()
            for name in (
                "radio_kpis.npy", "rat_time.npy", "config.pkl",
                "mobility.npz",
            )
        }
        (path / "manifest.json").write_text(json.dumps(manifest))
        return path

    def test_v1_run_is_refused_by_version(self, v1_dir):
        manifest = v1_dir / "manifest.json"
        with pytest.raises(
            RunStoreError, match=r"version 1 in .*manifest\.json"
        ) as exc:
            load_feeds(v1_dir)
        assert exc.value.path == manifest

    @pytest.fixture
    def v2_dir(self, run_feeds, tmp_path):
        import hashlib
        import json

        from repro.frames import write_csv

        path = save_feeds(run_feeds, tmp_path / "v2")
        # Rebuild the version-2 layout: the KPI and RAT tables as CSV.
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = 2
        digests = manifest["feeds_sha256"]
        for table in ("radio_kpis", "rat_time"):
            (path / f"{table}.npy").unlink()
            del digests[f"{table}.npy"]
            write_csv(getattr(run_feeds, table), path / f"{table}.csv")
            digests[f"{table}.csv"] = hashlib.sha256(
                (path / f"{table}.csv").read_bytes()
            ).hexdigest()
        (path / "manifest.json").write_text(json.dumps(manifest))
        return path

    def test_v2_run_is_refused_by_version(self, v2_dir):
        manifest = v2_dir / "manifest.json"
        with pytest.raises(
            RunStoreError, match=r"version 2 in .*manifest\.json"
        ) as exc:
            load_feeds(v2_dir)
        assert exc.value.path == manifest


def _assert_same_table(back, saved):
    """Same column names and order, dtype strings and bytes."""
    assert back.column_names == saved.column_names
    for name in saved.column_names:
        assert back[name].dtype.str == saved[name].dtype.str, name
        assert back[name].flags.c_contiguous, name
        assert back[name].tobytes() == saved[name].tobytes(), name


def _open(path, via_run):
    """Open a saved run through ``load_feeds`` or ``api.Run.open``.

    Both spellings reach the one memory-mapped open path; each must
    give back the feeds exactly as they were saved.
    """
    if via_run:
        from repro import api

        return api.Run.open(path).feeds
    return load_feeds(path)


class TestTableCodec:
    """The KPI and RAT tables load back exactly as they were saved."""

    @pytest.mark.parametrize("via_run", [False, True])
    def test_simulated_tables_round_trip(self, run_feeds, tmp_path, via_run):
        path = save_feeds(run_feeds, tmp_path / "run")
        back = _open(path, via_run)
        _assert_same_table(back.radio_kpis, run_feeds.radio_kpis)
        _assert_same_table(back.rat_time, run_feeds.rat_time)

    @pytest.mark.parametrize("via_run", [False, True])
    def test_append_grown_tables_match_a_fresh_run(self, tmp_path, via_run):
        import datetime as dt
        import json

        from repro import api
        from repro.simulation.clock import StudyCalendar

        config = SimulationConfig.tiny(seed=23).with_overrides(
            num_users=96,
            target_site_count=30,
            calendar=StudyCalendar(
                first_day=dt.date(2020, 2, 24), num_days=12
            ),
        )
        grown = api.simulate(config, tmp_path / "grown", days=3)
        grown.advance(2).advance(2)
        fresh = api.simulate(config, tmp_path / "fresh", days=7)
        tables = json.loads(
            (tmp_path / "grown" / "manifest.json").read_text()
        )["feeds"]["tables"]
        assert tables == {
            "radio_kpis": "radio_kpis.00007.npy",
            "rat_time": "rat_time.00007.npy",
        }
        back = _open(tmp_path / "grown", via_run)
        _assert_same_table(back.radio_kpis, fresh.feeds.radio_kpis)
        _assert_same_table(back.rat_time, fresh.feeds.rat_time)

    @pytest.mark.parametrize("via_run", [False, True])
    def test_all_nan_column_and_zero_row_table(
        self, run_feeds, tmp_path, via_run
    ):
        import dataclasses

        from repro.frames import Frame

        columns = run_feeds.radio_kpis.to_dict()
        columns["unmeasured"] = np.full(len(run_feeds.radio_kpis), np.nan)
        rat = run_feeds.rat_time
        odd = dataclasses.replace(
            run_feeds,
            radio_kpis=Frame(columns),
            rat_time=rat.filter(np.zeros(len(rat), dtype=bool)),
        )
        path = save_feeds(odd, tmp_path / "odd")
        back = _open(path, via_run)
        assert back.radio_kpis["unmeasured"].dtype.str == "<f8"
        assert len(back.rat_time) == 0
        _assert_same_table(back.radio_kpis, odd.radio_kpis)
        _assert_same_table(back.rat_time, odd.rat_time)

    @pytest.mark.parametrize("damage", ["truncated", "not_structured"])
    def test_corrupt_table_names_the_file(self, run_feeds, tmp_path, damage):
        path = save_feeds(run_feeds, tmp_path / "run")
        target = path / "rat_time.npy"
        if damage == "truncated":
            blob = target.read_bytes()
            target.write_bytes(blob[: len(blob) // 2])
        else:
            with open(target, "wb") as handle:
                np.save(handle, np.arange(4.0))
        # With the damaged file's digest re-recorded, the damage
        # reaches the reader itself.
        _record_digest(path, "rat_time.npy")
        with pytest.raises(RunStoreError, match="rat_time.npy") as exc:
            load_feeds(path)
        assert exc.value.path == target

    def test_object_column_is_refused_by_name(self, run_feeds, tmp_path):
        import dataclasses

        from repro.frames import Frame

        columns = run_feeds.radio_kpis.to_dict()
        columns["note"] = np.array(
            [None] * len(run_feeds.radio_kpis), dtype=object
        )
        bad = dataclasses.replace(run_feeds, radio_kpis=Frame(columns))
        with pytest.raises(TypeError, match="'note'"):
            save_feeds(bad, tmp_path / "bad")
        assert not list((tmp_path / "bad").glob("radio_kpis*"))
        assert not (tmp_path / "bad" / "manifest.json").exists()


class TestLiveReader:
    """A load that straddles a live advance's commit."""

    @pytest.mark.parametrize("via_run", [False, True])
    def test_load_during_an_advance_reads_the_new_manifest(
        self, tmp_path, monkeypatch, via_run
    ):
        import datetime as dt

        from repro import api
        from repro.io import store
        from repro.simulation.clock import StudyCalendar

        config = SimulationConfig.tiny(seed=25).with_overrides(
            num_users=96,
            target_site_count=30,
            calendar=StudyCalendar(
                first_day=dt.date(2020, 2, 24), num_days=6
            ),
        )
        path = tmp_path / "live"
        writer = api.simulate(config, path, days=2).advance(1)
        read_mobility = store._read_mobility
        advanced = []

        def advance_mid_load(*args, **kwargs):
            # The writer commits a day after this load read the manifest
            # and before it reads the tables that manifest names (which
            # the commit removes).
            if not advanced:
                advanced.append(True)
                writer.advance(1)
            return read_mobility(*args, **kwargs)

        monkeypatch.setattr(store, "_read_mobility", advance_mid_load)
        back = _open(path, via_run)
        monkeypatch.undo()
        fresh = _open(path, via_run)
        assert advanced
        assert back.mobility.num_days == fresh.mobility.num_days == 4
        assert back.source_digests == fresh.source_digests
        _assert_same_table(back.radio_kpis, fresh.radio_kpis)
        _assert_same_table(back.rat_time, fresh.rat_time)
        for day in range(4):
            assert np.array_equal(
                back.mobility.dwell(day), fresh.mobility.dwell(day)
            )


class TestConfigPickle:
    """``config.pkl`` is a function of the configuration alone."""

    def test_equal_configs_save_identical_bytes(self, tmp_path):
        import pickle

        from repro import api

        # A seed no other test builds, so the first simulate builds the
        # world (evaluating the calendar's cached arrays on its config)
        # and the second reuses it (leaving them unevaluated).
        def config():
            return SimulationConfig.tiny(seed=91).with_overrides(
                num_users=120, target_site_count=30
            )

        api.simulate(config(), tmp_path / "first")
        api.simulate(config(), tmp_path / "second")
        for name in ("config.pkl", "manifest.json"):
            first = (tmp_path / "first" / name).read_bytes()
            assert first == (tmp_path / "second" / name).read_bytes(), name
        saved = pickle.loads((tmp_path / "first" / "config.pkl").read_bytes())
        assert saved.calendar.num_days == config().calendar.num_days
        assert saved.calendar.weekdays.tolist() == (
            config().calendar.weekdays.tolist()
        )
