"""Tests for the persistent content-addressed artifact cache.

The cache's contract has three legs: keys are pure functions of
(feed digests, code epoch, params); payloads round-trip *bitwise*
through the NPZ codec; and every way an entry can be wrong — absent,
truncated, bit-flipped, mislabeled — is a silent miss followed by a
recompute, never an error.  These tests drive each leg directly
against an :class:`ArtifactCache` rooted in a temp directory, with no
simulation in the loop.
"""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.analysis.cache import (
    CACHE_SUBDIR,
    CODE_EPOCHS,
    ArtifactCache,
    CacheCodecError,
    _decode,
    _encode,
    artifact_key,
    report_params,
    summary_params,
)
from repro.core.statistics import MobilityDailyMetrics
from repro.frames import Frame

DIGESTS = {
    "radio_kpis.csv": "a" * 64,
    "rat_time.csv": "b" * 64,
    "mobility.npz": "c" * 64,
    "config.pkl": "d" * 64,
}


@pytest.fixture
def store(tmp_path):
    return ArtifactCache(tmp_path / "cache" / "analysis", DIGESTS)


class TestKeys:
    def test_deterministic(self):
        params = {"gyration_mode": "weighted"}
        assert artifact_key("fig3", DIGESTS, params) == artifact_key(
            "fig3", DIGESTS, params
        )

    def test_key_order_does_not_matter(self):
        shuffled = dict(reversed(list(DIGESTS.items())))
        assert artifact_key("fig3", DIGESTS, {}) == artifact_key(
            "fig3", shuffled, {}
        )

    def test_every_input_separates_keys(self):
        base = artifact_key("fig3", DIGESTS, {"gyration_mode": "weighted"})
        assert artifact_key("fig5", DIGESTS, {"gyration_mode": "weighted"}) != base
        assert artifact_key("fig3", DIGESTS, {"gyration_mode": "paper"}) != base
        other_feeds = dict(DIGESTS, **{"mobility.npz": "e" * 64})
        assert artifact_key("fig3", other_feeds, {"gyration_mode": "weighted"}) != base

    def test_epoch_bump_invalidates(self, monkeypatch):
        before = artifact_key("fig3", DIGESTS, {})
        monkeypatch.setitem(CODE_EPOCHS, "fig3", CODE_EPOCHS["fig3"] + 1)
        assert artifact_key("fig3", DIGESTS, {}) != before

    def test_param_helpers_shared_with_cli(self):
        assert summary_params() == {"gyration_mode": "weighted"}
        assert report_params(True) == {
            "full": True, "gyration_mode": "weighted",
        }

    def test_every_study_artifact_has_an_epoch(self):
        for name in ("metrics_range", "homes_range", "labeled_kpis_range",
                     "summary", "report", "rat_share",
                     "cluster_correlations"):
            assert name in CODE_EPOCHS
        for fig in range(2, 13):
            assert f"fig{fig}" in CODE_EPOCHS


class TestCodecRoundTrip:
    """Payloads come back equal — arrays bitwise, dtypes exact."""

    def roundtrip(self, store, payload, artifact="fig9"):
        assert store.put(artifact, {}, payload)
        return store.get(artifact, {})

    def test_arrays_bitwise(self, store):
        payload = {
            "f32": np.linspace(0, 1, 7, dtype=np.float32),
            "f64": np.array([1.5, np.nan, np.inf]),
            "ints": np.arange(5, dtype=np.int16),
            "flags": np.array([True, False]),
        }
        back = self.roundtrip(store, payload)
        for name, array in payload.items():
            assert back[name].dtype == array.dtype
            assert np.array_equal(back[name], array, equal_nan=True)

    def test_scalars_and_containers(self, store):
        payload = {
            "nested": {"pi": 3.5, "label": "uk", "none": None, "yes": True},
            "numbers": [1, 2.5, -3],
            "pair": (np.float64(1.25), np.int32(7)),
            3: "int keys survive",
        }
        back = self.roundtrip(store, payload)
        assert back["nested"] == payload["nested"]
        assert back["numbers"] == [1, 2.5, -3]
        assert isinstance(back["pair"], tuple)
        assert back["pair"][0] == 1.25
        assert back["pair"][1].dtype == np.int32
        assert back[3] == "int keys survive"

    def test_frame(self, store):
        frame = Frame({
            "week": np.arange(4),
            "delta": np.array([0.0, -1.5, 2.25, 0.5]),
            "label": ["a", "b", "c", "d"],
        })
        back = self.roundtrip(store, {"weekly": frame})["weekly"]
        assert back.column_names == frame.column_names
        for name in frame.column_names:
            assert np.array_equal(back[name], frame[name])

    def test_metrics_dataclass(self, store):
        metrics = MobilityDailyMetrics(
            user_ids=np.arange(3),
            entropy=np.random.default_rng(0)
            .random((4, 3)).astype(np.float32),
            gyration_km=np.random.default_rng(1)
            .random((4, 3)).astype(np.float32),
        )
        back = self.roundtrip(store, metrics, "metrics")
        assert isinstance(back, MobilityDailyMetrics)
        assert np.array_equal(back.entropy, metrics.entropy)
        assert np.array_equal(back.gyration_km, metrics.gyration_km)
        assert back.entropy.dtype == np.float32

    def test_unencodable_payload_is_refused_without_writing(self, store):
        assert store.put("fig9", {}, {"handle": object()}) is False
        assert not store.directory.exists()

    def test_encode_rejects_unknown_tree(self):
        with pytest.raises(CacheCodecError):
            _decode({"__kind__": "mystery"}, {})
        with pytest.raises(CacheCodecError):
            _encode(object(), {})


class TestMissesAndCorruption:
    def test_absent_entry_is_a_miss(self, store):
        assert store.get("fig9", {}) is None

    def test_get_or_compute_stores_then_hits(self, store):
        calls = []

        def compute():
            calls.append(1)
            return {"x": np.arange(3)}

        first = store.get_or_compute("fig9", {}, compute)
        second = store.get_or_compute("fig9", {}, compute)
        assert len(calls) == 1
        assert np.array_equal(first["x"], second["x"])

    @pytest.mark.parametrize("damage", [
        lambda path: path.write_bytes(b"\x00" * 32),            # garbage
        lambda path: path.write_bytes(path.read_bytes()[:40]),  # truncated
        lambda path: path.write_bytes(b""),                     # empty
    ])
    def test_corrupt_entry_recomputes_identically(self, store, damage):
        payload = {"x": np.linspace(0, 1, 11)}
        assert store.put("fig9", {}, payload)
        damage(store.entry_path("fig9", {}))

        assert store.get("fig9", {}) is None  # miss, not an error
        back = store.get_or_compute("fig9", {}, lambda: payload)
        assert np.array_equal(back["x"], payload["x"])
        # The corrupt file was atomically replaced by the fresh result.
        assert np.array_equal(store.get("fig9", {})["x"], payload["x"])

    def test_checksum_guards_array_bytes(self, store):
        assert store.put("fig9", {}, {"x": np.arange(64, dtype=np.uint8)})
        path = store.entry_path("fig9", {})
        # Re-save with one array value flipped but the original
        # checksum: a stale-payload entry must fail validation.
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["a0"] = arrays["a0"].copy()
        arrays["a0"][7] ^= 0xFF
        np.savez(path, **arrays)
        assert store.get("fig9", {}) is None

    def test_entry_for_a_different_artifact_is_rejected(self, store):
        assert store.put("fig9", {}, {"x": 1})
        impostor = store.entry_path("fig10", {})
        impostor.parent.mkdir(parents=True, exist_ok=True)
        store.entry_path("fig9", {}).rename(impostor)
        assert store.get("fig10", {}) is None

    def test_no_temp_files_left_behind(self, store):
        store.put("fig9", {}, {"x": np.arange(8)})
        assert not list(store.directory.glob("*.tmp"))


class TestTelemetryCounters:
    @pytest.fixture(autouse=True)
    def recorder(self):
        telemetry.enable()
        yield
        telemetry.disable()

    def counters(self):
        return telemetry.snapshot()["counters"]

    def test_hits_misses_and_bytes(self, store):
        store.get("fig9", {})
        store.put("fig9", {}, {"x": np.arange(4)})
        store.get("fig9", {})
        counters = self.counters()
        assert counters["cache.misses"] == 1
        assert counters["cache.hits"] == 1
        assert counters["cache.bytes_written"] == (
            store.entry_path("fig9", {}).stat().st_size
        )

    def test_corrupt_entries_counted(self, store):
        store.put("fig9", {}, {"x": np.arange(4)})
        store.entry_path("fig9", {}).write_bytes(b"junk")
        store.get("fig9", {})
        counters = self.counters()
        assert counters["cache.corrupt_entries"] == 1
        assert counters["cache.misses"] == 1


class TestMaintenance:
    def test_info_counts_entries_and_bytes(self, store):
        assert store.info()["entries"] == 0
        store.put("fig9", {}, {"x": np.arange(4)})
        store.put("fig10", {}, {"y": np.arange(6)})
        info = store.info()
        assert info["entries"] == 2
        assert info["bytes"] > 0
        assert info["directory"] == str(store.directory)

    def test_clear_removes_everything(self, store):
        store.put("fig9", {}, {"x": np.arange(4)})
        store.clear()
        assert not store.directory.exists()
        assert store.info()["entries"] == 0
        store.clear()  # idempotent on an absent directory


class TestOpen:
    """Constructors that bind a cache to a run directory."""

    def test_open_reads_manifest_digests(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({
            "format_version": 1, "feeds_sha256": DIGESTS,
        }))
        store = ArtifactCache.open(tmp_path)
        assert store is not None
        assert store.feed_digests == DIGESTS
        assert store.directory == tmp_path / CACHE_SUBDIR

    def test_open_without_manifest_is_none(self, tmp_path):
        assert ArtifactCache.open(tmp_path) is None

    def test_open_without_digests_is_none(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"format_version": 1})
        )
        assert ArtifactCache.open(tmp_path) is None

    def test_for_feeds_uses_carried_digests(self, tmp_path):
        class Feeds:
            source_digests = DIGESTS

        store = ArtifactCache.for_feeds(tmp_path, Feeds())
        assert store.feed_digests == DIGESTS

    def test_for_feeds_without_digests_is_none(self, tmp_path):
        class Feeds:
            source_digests = None

        assert ArtifactCache.for_feeds(tmp_path, Feeds()) is None
