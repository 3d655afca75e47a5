"""Tests for the persistent content-addressed artifact cache.

The cache's contract has four legs: keys are pure functions of
(format, feed digests, code epoch, params); payloads round-trip
*bitwise* through the flat entry file; every way an entry can be
wrong — absent, truncated, bit-flipped, mislabeled, a wrong magic — is
a silent miss followed by a recompute, never an error; and
:func:`drop_unreachable` deletes exactly the entries a committed
manifest can no longer reach.  These tests drive each leg directly
against an :class:`ArtifactCache` rooted in a temp directory, with no
simulation in the loop.
"""

import json

import numpy as np
import pytest

from repro import telemetry
from repro.analysis import cache as cache_module
from repro.analysis.cache import (
    CACHE_SUBDIR,
    CODE_EPOCHS,
    ENTRY_SUFFIX,
    ArtifactCache,
    CacheCodecError,
    _decode,
    _encode,
    artifact_key,
    drop_unreachable,
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

    def test_format_version_is_a_key_input(self, monkeypatch):
        # Entries of another format never share a key, so they are
        # never parsed as this one.
        before = artifact_key("fig3", DIGESTS, {})
        monkeypatch.setattr(cache_module, "FORMAT_VERSION", 1)
        assert artifact_key("fig3", DIGESTS, {}) != before

    def test_param_helpers_shared_with_cli(self):
        assert summary_params() == {"gyration_mode": "weighted"}
        assert report_params(True) == {
            "full": True, "gyration_mode": "weighted",
        }

    def test_every_study_artifact_has_an_epoch(self):
        for name in ("metrics_range", "homes_range",
                     "summary", "report", "rat_share",
                     "cluster_correlations"):
            assert name in CODE_EPOCHS
        for fig in range(2, 13):
            assert f"fig{fig}" in CODE_EPOCHS
        # The labeled KPI frame is recomputed, never cached.
        assert "labeled_kpis_range" not in CODE_EPOCHS


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

    @pytest.mark.parametrize("payload", [
        {"x": np.array([1, "two", None], dtype=object)},
        {"frame": Frame({"label": np.array(["a", 1], dtype=object)})},
        {"record": np.zeros(2, dtype=[("n", "<i4"), ("o", "O")])},
    ], ids=["array", "frame-column", "structured-field"])
    def test_object_arrays_are_refused_without_writing(self, store, payload):
        assert store.put("fig9", {}, payload) is False
        assert not store.directory.exists()
        assert store.get("fig9", {}) is None

    @pytest.mark.parametrize("array", [
        np.array(2.5),
        np.array(7, dtype=np.int8),
        np.zeros(0),
        np.zeros((3, 0), dtype=np.int32),
        np.zeros((0, 4), dtype="<U5"),
        np.array(["", "Inner London", "ünïcödé"]),
        np.array([b"ab", b"c"]),
        np.array([(1, "x", 2.5), (-3, "yz", np.nan)],
                 dtype=[("n", "<i4"), ("s", "<U2"), ("v", "<f8")]),
        np.zeros(3, dtype=np.dtype(
            {"names": ["a", "b"], "formats": ["<i2", "<f8"],
             "offsets": [0, 8], "itemsize": 24}
        )),
        np.array([[1, 2, 3], [4, 5, 6]], dtype=np.float32, order="F"),
        np.arange(20, dtype=np.int64)[::3],
        np.arange(6, dtype=">i4"),
        np.array(["2020-03-23", "2020-05-10"], dtype="datetime64[D]"),
        np.array([1 + 2j, -0.0 - 1j]),
        np.array([-0.0, 0.0, np.nan, np.inf]),
    ], ids=[
        "0d-float", "0d-int8", "empty", "zero-size-2d", "zero-size-unicode",
        "unicode", "bytes", "structured", "structured-padded", "fortran",
        "strided", "big-endian", "datetime", "complex", "signed-zero-nan",
    ])
    def test_arrays_round_trip_exactly(self, store, array):
        payload = {"a": array}
        if array.ndim == 0:
            payload["scalar"] = array[()]
        back = self.roundtrip(store, payload)
        decoded = back["a"]
        assert decoded.dtype == array.dtype
        assert decoded.shape == array.shape
        assert np.ascontiguousarray(decoded).tobytes() == (
            np.ascontiguousarray(array).tobytes()
        )
        if array.ndim == 0:
            assert type(back["scalar"]) is type(array[()])

    def test_decoded_arrays_are_writable(self, store):
        # As writable as np.load's arrays: a caller may update in place.
        back = self.roundtrip(store, {"x": np.arange(4.0), "e": np.zeros(0)})
        for array in back.values():
            assert array.flags.writeable
            assert array.flags.aligned
        back["x"][0] = 9.0

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
        payload = {"x": np.arange(64, dtype=np.uint8)}
        assert store.put("fig9", {}, payload)
        path = store.entry_path("fig9", {})
        # Flip one byte of the array, leaving the header and the
        # checksum as written: a stale-payload entry must fail
        # validation and recompute to the same bytes.
        data = bytearray(path.read_bytes())
        data_start = _layout(data)["arrays"]
        assert data[data_start + 7] == 7
        data[data_start + 7] ^= 0xFF
        path.write_bytes(bytes(data))
        assert store.get("fig9", {}) is None
        back = store.get_or_compute("fig9", {}, lambda: payload)
        assert back["x"].tobytes() == payload["x"].tobytes()
        assert store.get("fig9", {})["x"].tobytes() == payload["x"].tobytes()

    def test_entry_for_a_different_artifact_is_rejected(self, store):
        assert store.put("fig9", {}, {"x": 1})
        impostor = store.entry_path("fig10", {})
        impostor.parent.mkdir(parents=True, exist_ok=True)
        store.entry_path("fig9", {}).rename(impostor)
        assert store.get("fig10", {}) is None

    def test_no_temp_files_left_behind(self, store):
        store.put("fig9", {}, {"x": np.arange(8)})
        assert not list(store.directory.glob("*.tmp"))

    def test_entry_layout(self, store):
        # magic | header length | JSON header | arrays | SHA-256, the
        # header naming the artifact, the digest map and the array table.
        payload = {"x": np.arange(3, dtype=np.int16), "y": np.ones((2, 2))}
        assert store.put("fig9", {}, payload, digests={"config.pkl": "d"})
        path = store.entry_path("fig9", {}, digests={"config.pkl": "d"})
        assert path.suffix == ENTRY_SUFFIX
        data = path.read_bytes()
        layout = _layout(data)
        header = json.loads(data[16:layout["arrays"]])
        assert header["artifact"] == "fig9"
        assert header["digests"] == {"config.pkl": "d"}
        assert header["arrays"] == [["<i2", [3]], ["<f8", [2, 2]]]
        assert layout["arrays"] % 16 == 0
        import hashlib

        assert data[-32:] == hashlib.sha256(data[:-32]).digest()


def _layout(data) -> dict:
    """Offsets of an entry's parts: header length field, arrays, checksum."""
    assert bytes(data[:8]) == b"REPROAC\x02"
    length = int.from_bytes(bytes(data[8:16]), "little")
    return {"length": 8, "arrays": 16 + length, "checksum": len(data) - 32}


def _flip(offset_of):
    def damage(path):
        data = bytearray(path.read_bytes())
        data[offset_of(data)] ^= 0x01
        path.write_bytes(bytes(data))

    return damage


#: Every way a present entry can be damaged: each must be a miss that
#: counts one corrupt entry.
DAMAGES = {
    "magic": _flip(lambda data: 3),
    "header-length": _flip(lambda data: 8),
    "header": _flip(lambda data: 20),
    "array": _flip(lambda data: _layout(data)["arrays"] + 5),
    "padding": _flip(lambda data: _layout(data)["checksum"] - 1),
    "checksum": _flip(lambda data: len(data) - 1),
    "truncated": lambda path: path.write_bytes(path.read_bytes()[:-40]),
    "truncated-to-header": lambda path: path.write_bytes(
        path.read_bytes()[:16]
    ),
    "extended": lambda path: path.write_bytes(path.read_bytes() + b"\0"),
    "empty": lambda path: path.write_bytes(b""),
    "wrong-magic": lambda path: path.write_bytes(
        b"PK\x03\x04" + path.read_bytes()[4:]
    ),
}


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
        # An absent entry is a plain miss, not a corrupt one.
        assert "cache.corrupt_entries" not in counters

    def test_corrupt_entries_counted(self, store):
        store.put("fig9", {}, {"x": np.arange(4)})
        store.entry_path("fig9", {}).write_bytes(b"junk")
        store.get("fig9", {})
        counters = self.counters()
        assert counters["cache.corrupt_entries"] == 1
        assert counters["cache.misses"] == 1

    @pytest.mark.parametrize("damage", sorted(DAMAGES))
    def test_every_damage_is_a_counted_miss(self, store, damage):
        # 63 bytes of array data, so the entry ends in padding.
        payload = {"x": np.arange(63, dtype=np.uint8), "label": "uk"}
        assert store.put("fig9", {}, payload)
        DAMAGES[damage](store.entry_path("fig9", {}))
        assert store.get("fig9", {}) is None
        counters = self.counters()
        assert counters["cache.corrupt_entries"] == 1
        assert counters["cache.misses"] == 1
        assert "cache.hits" not in counters
        back = store.get_or_compute("fig9", {}, lambda: payload)
        assert back["x"].tobytes() == payload["x"].tobytes()
        assert store.get("fig9", {})["label"] == "uk"


class TestMaintenance:
    def test_info_counts_entries_and_bytes(self, store):
        assert store.info()["entries"] == 0
        store.put("fig9", {}, {"x": np.arange(4)})
        store.put("fig10", {}, {"y": np.arange(6)})
        info = store.info()
        assert info["entries"] == 2
        assert info["bytes"] > 0
        assert info["directory"] == str(store.directory)

    def test_info_counts_every_file_but_temporaries(self, store):
        store.put("fig9", {}, {"x": np.arange(4)})
        entry = store.entry_path("fig9", {})
        (store.directory / f"{entry.name}.11.22.tmp").write_bytes(b"half")
        (store.directory / "notes.txt").write_bytes(b"abc")
        info = store.info()
        assert info["entries"] == 2
        assert info["bytes"] == entry.stat().st_size + 3

    def test_first_put_drops_format_1_entries(self, tmp_path):
        store = ArtifactCache(tmp_path / CACHE_SUBDIR, DIGESTS)
        store.directory.mkdir(parents=True)
        old_entry = store.directory / "0123abcd.npz"
        old_entry.write_bytes(b"PK\x03\x04")
        assert store.info() == {
            "directory": str(store.directory), "entries": 1, "bytes": 4,
        }
        # A get does no extra work.
        assert store.get("fig9", {}) is None
        assert old_entry.exists()
        telemetry.enable()
        try:
            assert store.put("fig9", {}, {"x": np.arange(3)})
            later = store.directory / "4567cdef.npz"
            later.write_bytes(b"PK\x03\x04")
            assert store.put("fig10", {}, {"x": np.arange(3)})
            counters = telemetry.snapshot()["counters"]
        finally:
            telemetry.disable()
        assert not old_entry.exists()
        assert counters["cache.entries_dropped"] == 1
        # Once per handle: a later file waits for the next handle.
        assert later.exists()
        assert ArtifactCache(store.directory, DIGESTS).put(
            "fig11", {}, {"x": np.arange(3)}
        )
        assert not later.exists()
        assert store.info()["entries"] == 3

    def test_clear_removes_everything(self, store):
        store.put("fig9", {}, {"x": np.arange(4)})
        store.clear()
        assert not store.directory.exists()
        assert store.info()["entries"] == 0
        store.clear()  # idempotent on an absent directory


class TestDropUnreachable:
    """The post-commit sweep keeps exactly the entries the committed
    manifest's digest map still holds."""

    RANGE = {"config.pkl": "d" * 64, "feeds/shard-0000/daily_dwell.npy": "f"}

    def cache(self, run, digests=DIGESTS):
        return ArtifactCache(run / CACHE_SUBDIR, digests)

    def test_keeps_held_entries_and_drops_the_rest(self, tmp_path):
        manifest = dict(DIGESTS, **self.RANGE)
        whole = self.cache(tmp_path, manifest)
        whole.put("fig9", {}, {"x": np.arange(3)})
        whole.put("metrics_range", {"start": 0}, {"x": np.arange(2)},
                  digests=self.RANGE)
        stale = self.cache(tmp_path, dict(manifest, **{"rat_time.csv": "0"}))
        stale.put("fig9", {}, {"x": np.arange(3)})
        stale.put("summary", {}, {"uk": 1.5})
        stale_range = dict(self.RANGE, **{"config.pkl": "0" * 64})
        stale.put("metrics_range", {"start": 0}, {"x": np.arange(2)},
                  digests=stale_range)
        assert whole.info()["entries"] == 5

        assert drop_unreachable(tmp_path, manifest) == 3
        assert whole.info()["entries"] == 2
        assert whole.get("fig9", {})["x"].tolist() == [0, 1, 2]
        assert whole.get(
            "metrics_range", {"start": 0}, digests=self.RANGE
        ) is not None
        assert stale.get("summary", {}) is None
        # Nothing left to drop: the sweep is idempotent.
        assert drop_unreachable(tmp_path, manifest) == 0

    def test_drops_format_1_and_unreadable_entries_only(self, tmp_path):
        store = self.cache(tmp_path)
        store.put("fig9", {}, {"x": np.arange(3)})
        directory = store.directory
        (directory / ("0" * 64 + ".npz")).write_bytes(b"PK\x03\x04")
        (directory / ("1" * 64 + ENTRY_SUFFIX)).write_bytes(b"junk")
        in_flight = directory / f"{'2' * 64}{ENTRY_SUFFIX}.11.22.tmp"
        in_flight.write_bytes(b"half")
        stranger = directory / "notes.txt"
        stranger.write_text("keep me")

        assert drop_unreachable(tmp_path, DIGESTS) == 2
        names = sorted(path.name for path in directory.iterdir())
        assert names == sorted([
            store.entry_path("fig9", {}).name, in_flight.name, "notes.txt",
        ])

    def test_reads_the_digest_map_without_hashing(self, tmp_path):
        # The sweep trusts the header; a damaged array byte is left for
        # the next get to find (and recompute).
        store = self.cache(tmp_path)
        store.put("fig9", {}, {"x": np.arange(64, dtype=np.uint8)})
        path = store.entry_path("fig9", {})
        data = bytearray(path.read_bytes())
        data[_layout(data)["arrays"]] ^= 0xFF
        path.write_bytes(bytes(data))
        assert drop_unreachable(tmp_path, DIGESTS) == 0
        assert store.get("fig9", {}) is None

    def test_counts_dropped_entries(self, tmp_path):
        self.cache(tmp_path).put("fig9", {}, {"x": np.arange(3)})
        self.cache(tmp_path).put("fig10", {}, {"x": np.arange(3)})
        telemetry.enable()
        try:
            assert drop_unreachable(tmp_path, {"config.pkl": "e" * 64}) == 2
            counters = telemetry.snapshot()["counters"]
        finally:
            telemetry.disable()
        assert counters["cache.entries_dropped"] == 2

    def test_a_run_without_a_cache_is_a_no_op(self, tmp_path):
        assert drop_unreachable(tmp_path, DIGESTS) == 0
        assert not (tmp_path / "cache").exists()

    def test_store_names_the_cache_directory(self):
        # repro.io.store checks for the directory before importing this
        # module; both must name the same place.
        from repro.io import store

        assert store._ANALYSIS_CACHE == CACHE_SUBDIR


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
