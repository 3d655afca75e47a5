"""Persistent content-addressed cache for analysis artifacts.

Reproducing the paper's figures is a pure function of (a) the feed
payloads of a run, (b) the analysis code, and (c) a handful of
parameters (``gyration_mode``, the KPI percentile, ...).  This module
keys every artifact — each day range's per-user-day metrics and night
win counts, each figure's payload, the headline summary, the rendered
report — on exactly those three things and stores the result under
``<run>/cache/analysis/``, so *no process ever computes the same
artifact twice*:

- **Keys** are SHA-256 over the per-feed payload digests recorded in
  ``manifest.json`` by :func:`repro.io.store.save_feeds`, a per-artifact
  *code-epoch* tag (bumped when an implementation changes semantics),
  and the JSON-canonicalized parameters.  Different runs, parameters or
  code generations can never collide.
- **Entries** are single flat ``*.artifact`` files, staged and
  published like every file of a run (:mod:`repro.io.durable`): a magic
  tag, a JSON header (artifact name, the entry's digest map, the
  structure tree and the array table), the raw array bytes, and one
  SHA-256 over everything before it.  A put streams the file while
  hashing it; a get is one read plus one hash pass.  No pickle: a cache
  file cannot execute code, an object array is refused at ``put``, and
  a stale or truncated entry simply fails validation.
- **Failure is always a miss.**  A corrupt, stale, unreadable or
  undecodable entry falls back to recomputation — the cache can be
  deleted (``python -m repro cache <run> --clear``) or bit-flipped at
  any time without breaking an analysis.
- **Unreachable entries are dropped.**  Each entry records the digest
  map its key was derived from.  After every manifest commit,
  :mod:`repro.io.store` calls :func:`drop_unreachable`, which deletes
  the entries whose digest map the committed manifest no longer holds
  (and format-1 ``*.npz`` entries), so a live run keeps its range
  entries plus one refresh's whole-window entries.  A batch or frozen
  run commits no more, so the first ``put`` of each handle also drops
  the format-1 entries.
- **Telemetry**: ``cache.hits`` / ``cache.misses`` /
  ``cache.bytes_written`` (plus ``cache.corrupt_entries`` and
  ``cache.entries_dropped``) count against the process-wide registry
  when :mod:`repro.telemetry` is enabled.

Cached payloads round-trip bitwise: arrays keep their exact dtype,
shape and bytes, scalars and strings go through JSON, so a warm study
is byte-identical to a cold one.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.io.durable import writing

__all__ = [
    "ArtifactCache",
    "CODE_EPOCHS",
    "DEFAULT_GYRATION_MODE",
    "artifact_key",
    "drop_unreachable",
    "report_params",
    "summary_params",
]

CACHE_SUBDIR = Path("cache") / "analysis"
FORMAT_VERSION = 2

#: File suffix of a cache entry.
ENTRY_SUFFIX = ".artifact"

#: The first bytes of every entry; anything else is not an entry.
_MAGIC = b"REPROAC" + bytes([FORMAT_VERSION])
#: Header length field: unsigned, little-endian, after the magic.
_LENGTH_BYTES = 8
#: The header and every array start at a multiple of this many bytes,
#: so decoded arrays are aligned views of the read buffer.
_ALIGN = 16
#: The trailing SHA-256 over every byte before it.
_CHECKSUM_BYTES = 32

#: The study's default gyration mode; shared with the CLI so both sides
#: derive identical cache keys without importing the study driver.
DEFAULT_GYRATION_MODE = "weighted"

#: Per-artifact code generations.  Bump an entry whenever the code that
#: produces the artifact changes its output; persisted entries written
#: under the old epoch then silently stop matching (they key on the
#: epoch) instead of serving stale results.
CODE_EPOCHS = {
    "metrics_range": 1,
    "homes_range": 1,
    "fig2": 1,
    "fig3": 1,
    "fig4": 1,
    "fig5": 1,
    "fig6": 1,
    "fig7": 1,
    "fig8": 1,
    "fig9": 1,
    "fig10": 1,
    "fig11": 1,
    "fig12": 1,
    "rat_share": 1,
    "cluster_correlations": 1,
    "summary": 1,
    "report": 1,
}


def summary_params(gyration_mode: str = DEFAULT_GYRATION_MODE) -> dict:
    """Cache parameters of the ``summary`` artifact."""
    return {"gyration_mode": gyration_mode}


def report_params(
    full: bool, gyration_mode: str = DEFAULT_GYRATION_MODE
) -> dict:
    """Cache parameters of the ``report`` artifact."""
    return {"full": bool(full), "gyration_mode": gyration_mode}


def artifact_key(
    artifact: str, feed_digests: dict[str, str], params: dict
) -> str:
    """The content address of one artifact: SHA-256 over its inputs."""
    material = json.dumps(
        {
            "format": FORMAT_VERSION,
            "artifact": artifact,
            "epoch": CODE_EPOCHS.get(artifact, 0),
            "feeds": dict(sorted(feed_digests.items())),
            "params": params,
        },
        sort_keys=True,
    )
    return hashlib.sha256(material.encode()).hexdigest()


class CacheCodecError(ValueError):
    """A payload cannot be encoded to / decoded from a cache entry."""


# ---------------------------------------------------------------------------
# Codec: arbitrary study payloads <-> (JSON tree, list of numpy arrays).
#
# The tree holds scalars/strings/containers as JSON; every array is
# hoisted into the entry's array table at the index the tree references.
# Known result dataclasses and Frame are encoded structurally, by
# field — not pickled — so decoding reconstructs them through their
# real constructors.
# ---------------------------------------------------------------------------
_LITERALS = (type(None), bool, int, float, str)


@lru_cache(maxsize=1)
def _dataclass_registry() -> dict[str, type]:
    # Imported lazily: repro.core pulls in the whole analysis layer,
    # and the cache must stay importable from anywhere inside it.
    from repro.core.correlation import EntropyCasesResult
    from repro.core.home import HomeDetectionResult
    from repro.core.mobility_series import MobilitySeries
    from repro.core.performance import WeeklySeries
    from repro.core.relocation import RelocationMatrix
    from repro.core.statistics import MobilityDailyMetrics
    from repro.core.validation import HomeValidation

    return {
        cls.__name__: cls
        for cls in (
            EntropyCasesResult,
            HomeDetectionResult,
            HomeValidation,
            MobilityDailyMetrics,
            MobilitySeries,
            RelocationMatrix,
            WeeklySeries,
        )
    }


def _frame_type():
    from repro.frames import Frame

    return Frame


def _encode(value, arrays: list[np.ndarray]):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, np.generic):
        return value
    if isinstance(value, (np.ndarray, np.generic)):
        array = np.asarray(value)
        if array.dtype.hasobject:
            raise CacheCodecError(
                "object arrays cannot be cached without pickling"
            )
        arrays.append(array)
        kind = "array" if isinstance(value, np.ndarray) else "npscalar"
        return {"__kind__": kind, "ref": len(arrays) - 1}
    if isinstance(value, (list, tuple)):
        return {
            "__kind__": "list" if isinstance(value, list) else "tuple",
            "items": [_encode(item, arrays) for item in value],
        }
    if isinstance(value, dict):
        return {
            "__kind__": "dict",
            "items": [
                [_encode(key, arrays), _encode(item, arrays)]
                for key, item in value.items()
            ],
        }
    if isinstance(value, _frame_type()):
        return {
            "__kind__": "frame",
            "columns": [
                [name, _encode(value[name], arrays)]
                for name in value.column_names
            ],
        }
    registry = _dataclass_registry()
    cls = type(value)
    if cls.__name__ in registry and cls is registry[cls.__name__]:
        import dataclasses

        return {
            "__kind__": "dataclass",
            "type": cls.__name__,
            "fields": {
                field.name: _encode(getattr(value, field.name), arrays)
                for field in dataclasses.fields(cls)
            },
        }
    raise CacheCodecError(f"cannot cache payloads of type {cls.__name__}")


def _decode(tree, arrays: list[np.ndarray]):
    if isinstance(tree, _LITERALS):
        return tree
    if not isinstance(tree, dict):
        raise CacheCodecError(f"malformed cache tree node {tree!r}")
    kind = tree.get("__kind__")
    if kind in ("array", "npscalar"):
        ref = tree.get("ref")
        if not isinstance(ref, int) or not 0 <= ref < len(arrays):
            raise CacheCodecError(f"cache entry is missing array {ref!r}")
        array = arrays[ref]
        return array[()] if kind == "npscalar" else array
    if kind in ("list", "tuple"):
        items = [_decode(item, arrays) for item in tree["items"]]
        return items if kind == "list" else tuple(items)
    if kind == "dict":
        return {
            _decode(key, arrays): _decode(item, arrays)
            for key, item in tree["items"]
        }
    if kind == "frame":
        return _frame_type()(
            {name: _decode(column, arrays)
             for name, column in tree["columns"]}
        )
    if kind == "dataclass":
        cls = _dataclass_registry().get(tree.get("type"))
        if cls is None:
            raise CacheCodecError(
                f"unknown cached dataclass {tree.get('type')!r}"
            )
        return cls(**{
            name: _decode(field, arrays)
            for name, field in tree["fields"].items()
        })
    raise CacheCodecError(f"unknown cache tree kind {kind!r}")


# ---------------------------------------------------------------------------
# Entry file: magic | header length | JSON header | arrays | SHA-256.
#
# The header is padded with spaces and each array with zero bytes to
# the next multiple of _ALIGN; the array table lists (dtype descr,
# shape) per array, from which every offset follows.  The checksum
# covers every byte before it, the magic included.
# ---------------------------------------------------------------------------
def _dtype_from(descr) -> np.dtype:
    if isinstance(descr, str):
        return np.dtype(descr)
    return np.lib.format.descr_to_dtype(descr)


@lru_cache(maxsize=256)
def _descr(dtype: np.dtype):
    """The JSON form of a dtype, checked to decode to the same dtype."""
    descr = np.lib.format.dtype_to_descr(dtype)
    if _dtype_from(json.loads(json.dumps(descr))) != dtype:
        raise CacheCodecError(f"dtype {dtype} does not round-trip")
    return descr


def _padding(size: int) -> int:
    return -size % _ALIGN


def _header_bytes(
    artifact: str, digests: dict, tree, arrays: list[np.ndarray]
) -> bytes:
    header = json.dumps({
        "artifact": artifact,
        "digests": digests,
        "arrays": [[_descr(array.dtype), array.shape] for array in arrays],
        "tree": tree,
    }).encode()
    lead = len(_MAGIC) + _LENGTH_BYTES + len(header)
    return header + b" " * _padding(lead)


def _write_entry(handle, header: bytes, arrays: list[np.ndarray]) -> None:
    sha = hashlib.sha256()

    def emit(chunk) -> None:
        sha.update(chunk)
        handle.write(chunk)

    emit(_MAGIC)
    emit(len(header).to_bytes(_LENGTH_BYTES, "little"))
    emit(header)
    for array in arrays:
        if array.nbytes:
            # A view of the array's memory; only an array that is not
            # C-contiguous is copied, on its own.
            emit(np.ascontiguousarray(array).reshape(-1).view(np.uint8))
            emit(bytes(_padding(array.nbytes)))
    handle.write(sha.digest())


def _read_entry(path: Path) -> tuple[dict, list[np.ndarray]]:
    """The verified header and arrays of one entry (one read, one hash).

    The arrays are writable views of the read buffer.  Raises on a
    wrong magic, a checksum mismatch or a table that does not fit the
    file.
    """
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        raw = np.empty(size, dtype=np.uint8)
        if handle.readinto(raw) != size:
            raise CacheCodecError("entry changed size while read")
    lead = len(_MAGIC) + _LENGTH_BYTES
    end = size - _CHECKSUM_BYTES
    if end < lead or raw[: len(_MAGIC)].tobytes() != _MAGIC:
        raise CacheCodecError("not a cache entry")
    if hashlib.sha256(raw[:end]).digest() != raw[end:].tobytes():
        raise CacheCodecError("checksum mismatch")
    length = int.from_bytes(raw[len(_MAGIC):lead].tobytes(), "little")
    offset = lead + length
    header = json.loads(raw[lead:offset].tobytes())
    arrays = []
    for descr, shape in header["arrays"]:
        dtype = _dtype_from(descr)
        shape = tuple(shape)
        nbytes = math.prod(shape) * dtype.itemsize
        if offset + nbytes > end:
            raise CacheCodecError("array table overruns the entry")
        if nbytes == 0:
            arrays.append(np.empty(shape, dtype=dtype))
        else:
            arrays.append(
                raw[offset:offset + nbytes].view(dtype).reshape(shape)
            )
        offset += nbytes + _padding(nbytes)
    if offset != end:
        raise CacheCodecError("entry size does not match its array table")
    return header, arrays


def _recorded_digests(path: Path) -> dict | None:
    """The digest map in an entry's header (``None`` when unreadable).

    Reads only the header; the checksum is not verified.
    """
    lead = len(_MAGIC) + _LENGTH_BYTES
    try:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            prefix = handle.read(lead)
            if len(prefix) != lead or prefix[: len(_MAGIC)] != _MAGIC:
                return None
            length = int.from_bytes(prefix[len(_MAGIC):], "little")
            if length > size - lead - _CHECKSUM_BYTES:
                return None
            header = json.loads(handle.read(length))
    except (OSError, ValueError):
        return None
    digests = header.get("digests") if isinstance(header, dict) else None
    return digests if isinstance(digests, dict) else None


def drop_unreachable(
    run_directory: str | Path, feed_digests: dict[str, str]
) -> int:
    """Delete the run's cache entries a committed manifest cannot reach.

    ``feed_digests`` is the committed manifest's ``feeds_sha256`` map.
    An entry stays when every ``(file, digest)`` pair of its recorded
    digest map is in it; an entry that records other digests, an entry
    whose header cannot be read, and a format-1 ``*.npz`` entry are
    deleted.  ``*.tmp`` files (a concurrent ``put`` in flight) and any
    other file are left alone.  A reader that still holds the previous
    manifest's key finds nothing and recomputes: a miss.  Returns the
    number of entries deleted (counted as ``cache.entries_dropped``).
    """
    directory = Path(run_directory) / CACHE_SUBDIR
    held = feed_digests.items()
    try:
        paths = list(directory.iterdir())
    except OSError:
        return 0
    return _drop(
        path
        for path in paths
        if path.suffix == ".npz"
        or (path.suffix == ENTRY_SUFFIX and not _reachable(path, held))
    )


def _reachable(path: Path, held) -> bool:
    """Whether every digest an entry records is among ``held``."""
    recorded = _recorded_digests(path)
    return recorded is not None and recorded.items() <= held


def _drop(paths) -> int:
    """Delete ``paths``, counting those deleted as ``cache.entries_dropped``."""
    dropped = 0
    for path in paths:
        try:
            path.unlink()
        except OSError:
            continue
        dropped += 1
    if dropped:
        telemetry.count("cache.entries_dropped", dropped)
    return dropped


class ArtifactCache:
    """The ``cache/analysis/`` store of one run directory.

    Construct with :meth:`open` (reads the digests from the run's
    ``manifest.json``) or :meth:`for_feeds` (uses the digests a loaded
    :class:`~repro.simulation.feeds.DataFeeds` carries); both return
    ``None`` when the run has no recorded digests — an uncacheable run
    is simply cacheless, never an error.
    """

    def __init__(
        self, directory: str | Path, feed_digests: dict[str, str]
    ) -> None:
        self.directory = Path(directory)
        self.feed_digests = dict(feed_digests)
        # Whether the first put has dropped the format-1 entries: a
        # batch or frozen run never commits again, so drop_unreachable
        # never reaches them there.
        self._format1_dropped = False

    @classmethod
    def open(cls, run_directory: str | Path) -> "ArtifactCache | None":
        """The cache of a persisted run, straight from its manifest.

        Reads only ``manifest.json`` — no feeds are loaded — which is
        what lets a warm CLI invocation skip ``load_feeds`` entirely.
        """
        manifest_path = Path(run_directory) / "manifest.json"
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        digests = manifest.get("feeds_sha256")
        if not isinstance(digests, dict) or not digests:
            return None
        return cls(Path(run_directory) / CACHE_SUBDIR, digests)

    @classmethod
    def for_feeds(
        cls, run_directory: str | Path, feeds
    ) -> "ArtifactCache | None":
        """The cache for an in-memory feeds bundle homed at a directory."""
        digests = getattr(feeds, "source_digests", None)
        if not digests:
            return None
        return cls(Path(run_directory) / CACHE_SUBDIR, digests)

    # -- lookup --------------------------------------------------------------
    def key(
        self, artifact: str, params: dict, *, digests=None
    ) -> str:
        """The artifact's content address.

        ``digests`` substitutes the run-wide feed digests with an
        artifact-specific digest map — the live-run path keys per
        day-range artifacts on exactly the segment files that cover
        the range, so they survive appends that only extend the run.
        """
        feed_digests = self.feed_digests if digests is None else digests
        return artifact_key(artifact, feed_digests, params)

    def entry_path(
        self, artifact: str, params: dict, *, digests=None
    ) -> Path:
        key = self.key(artifact, params, digests=digests)
        return self.directory / f"{key}{ENTRY_SUFFIX}"

    def get(self, artifact: str, params: dict, *, digests=None):
        """The cached payload, or ``None`` on any kind of miss.

        Corrupt, truncated, or undecodable entries count as misses
        (and bump ``cache.corrupt_entries``); they are never an error.
        """
        path = self.entry_path(artifact, params, digests=digests)
        try:
            header, arrays = _read_entry(path)
            if header.get("artifact") != artifact:
                raise CacheCodecError("entry names a different artifact")
            payload = _decode(header["tree"], arrays)
        except FileNotFoundError:
            telemetry.count("cache.misses")
            return None
        except Exception:
            # Present but wrong — recompute rather than crash; the
            # entry will be atomically replaced by the fresh result.
            telemetry.count("cache.misses")
            telemetry.count("cache.corrupt_entries")
            return None
        telemetry.count("cache.hits")
        return payload

    def put(
        self, artifact: str, params: dict, payload, *, digests=None
    ) -> bool:
        """Persist a payload; returns False (and stores nothing) when
        the payload cannot be encoded or the write fails.

        The first put of a handle also deletes the directory's
        format-1 ``*.npz`` entries.
        """
        feed_digests = self.feed_digests if digests is None else digests
        try:
            arrays: list[np.ndarray] = []
            tree = _encode(payload, arrays)
            header = _header_bytes(artifact, feed_digests, tree, arrays)
        except CacheCodecError:
            return False
        final = self.entry_path(artifact, params, digests=digests)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            if not self._format1_dropped:
                # No key reaches them: FORMAT_VERSION is a key input.
                self._format1_dropped = True
                _drop(self.directory.glob("*.npz"))
            with writing(final) as staging, open(staging, "wb") as handle:
                _write_entry(handle, header, arrays)
                size = handle.tell()
        except OSError:
            return False
        telemetry.count("cache.bytes_written", size)
        return True

    def get_or_compute(
        self, artifact: str, params: dict, compute, *, digests=None
    ):
        """The cached payload if present, else ``compute()`` (stored)."""
        payload = self.get(artifact, params, digests=digests)
        if payload is not None:
            return payload
        payload = compute()
        self.put(artifact, params, payload, digests=digests)
        return payload

    # -- maintenance ---------------------------------------------------------
    def info(self) -> dict:
        """File count and total size of the store (zeros when absent).

        Counts every file but a ``*.tmp`` (a ``put`` in flight): what
        the store holds on disk, entries of any format included.
        """
        entries = 0
        total = 0
        if self.directory.is_dir():
            for path in self.directory.iterdir():
                if path.suffix == ".tmp" or not path.is_file():
                    continue
                entries += 1
                total += path.stat().st_size
        return {
            "directory": str(self.directory),
            "entries": entries,
            "bytes": total,
        }

    def clear(self) -> None:
        """Delete every cached artifact (the directory itself too)."""
        shutil.rmtree(self.directory, ignore_errors=True)
