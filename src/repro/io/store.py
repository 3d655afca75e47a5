"""Directory layout and (de)serialization for data feeds.

Layout of a saved run (format version 3)::

    <dir>/
      manifest.json        # provenance: sizes, window, versions (commit point)
      config.pkl           # exact SimulationConfig (nested dataclasses)
      radio_kpis.npy       # daily per-cell KPI medians
      rat_time.npy         # RAT connected-time feed
      feeds/               # shard-partitioned columnar mobility store
        shard-0000/
          rows.npy user_ids.npy anchor_sites.npy
          daily_dwell.npy night_dwell.npy
        shard-0001/ ...
      checkpoints/         # per-shard-day partial state, while running
      cache/               # analysis artifact cache (repro.analysis.cache)

The mobility feed — by far the largest payload — is partitioned by the
engine's deterministic user sharding into one memory-mappable ``.npy``
file per shard × column (:mod:`repro.io.columnar`), which
:func:`load_feeds` memory-maps, so a million-agent run opens without
being read into RAM.  The KPI and RAT tables are one ``.npy`` file
each: a structured array with one field per column, in column order and
with the frame's own dtypes, so a load returns exactly the saved
columns (and never unpickles: an object column is refused at save
time).  A run the engine streamed into the directory from day 0 has
written its KPI table through the staged ``radio_kpis.npy`` already;
the save publishes that file with the partition instead of writing
the table again.  Any other format version is refused at the manifest,
naming the version.  The world (geography, topology, subscriber base,
agents) is *not* stored: it is a pure function of the configuration,
which keeps saved runs small and guarantees the reloaded bundle is
exactly what the simulator produced.  A load takes it from
:func:`repro.simulation.engine.build_world`, which builds it once per
process and configuration: reloading a run whose world the process
already holds (a live advance, a reopen) builds nothing.

Every file is staged and published with one rename
(:mod:`repro.io.durable`), and ``manifest.json`` is published last as
the commit point of a save or an append.  Only after that rename does
:func:`_commit_manifest` delete what the new manifest no longer names,
so a crash never deletes a file the committed manifest names.  A crash
before a directory's first commit leaves no manifest; a crash during a
re-save leaves the old manifest beside new files, which the digest
check refuses, naming the file — the old run is not kept intact.  The
freezing compaction of a live run is such a re-save: it rewrites each
shard's ``daily_dwell.npy``/``night_dwell.npy`` in place, so a crash
before its commit fails the digest check on ``daily_dwell.npy``.

Live runs (:meth:`repro.api.Run.advance`) extend a persisted directory
through :func:`append_feeds`: new dwell days land in append-only
segment files, the small tables are rewritten under day-count-versioned
names, and the manifest — now carrying a ``live`` block (coordinator
state), per-segment spans under ``feeds.segments`` and the current
table names under ``feeds.tables`` — is again rewritten last as the
commit point.  Re-saving compacts the segments back into the canonical
single-file layout, and a run that reaches its horizon is byte-for-byte
a batch run.

Every way a run directory can be wrong — missing, interrupted, a file
deleted, truncated or bit-flipped, a manifest whose digest map lost an
entry — surfaces as :class:`RunStoreError` naming the offending file,
never as a leaked ``KeyError`` / ``FileNotFoundError`` / pickle
traceback.  An interrupted run (a ``checkpoints/`` store but no
``manifest.json`` yet) gets a dedicated message pointing at
``--resume``.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.frames import Frame
from repro.geo.nspl import PostcodeLookup
from repro.io import columnar
from repro.io.columnar import (
    ColumnarWriter,
    ShardedMobilityFeed,
    open_columnar,
)
from repro.io.durable import writing
from repro.io.errors import RunStoreError
from repro.simulation.feeds import DataFeeds

__all__ = ["RunStoreError", "append_feeds", "save_feeds", "load_feeds"]

_MANIFEST = "manifest.json"
_CONFIG = "config.pkl"
_KPIS = columnar.KPI_TABLE
_RAT = "rat_time.npy"

#: Small files whose SHA-256 payload digests are recorded in the
#: manifest at save time and verified on load; the per-shard columnar
#: files are digested alongside them.  The analysis artifact cache keys
#: on the full digest map (config.pkl included: the world — geography,
#: topology, calendar — is rebuilt from it, so it co-determines every
#: artifact).
_DIGESTED_FILES = (_KPIS, _RAT, _CONFIG)

_FORMAT_VERSION = 3
_SUPPORTED_VERSIONS = {_FORMAT_VERSION}

#: The run's analysis artifact cache (``repro.analysis.cache.CACHE_SUBDIR``),
#: named here so that a commit on a run without one imports nothing from
#: the analysis layer.
_ANALYSIS_CACHE = Path("cache") / "analysis"

#: The files at the run root a manifest commit deletes when its digest
#: map does not name them: table versions, and the staging files of the
#: tables, the configuration and the manifest.  Nothing else at the
#: root is the store's.
_SWEPT_AT_ROOT = (
    "radio_kpis*.npy",
    "rat_time*.npy",
    "radio_kpis*.tmp",
    "rat_time*.tmp",
    "config.pkl*.tmp",
    "manifest.json*.tmp",
)


def _table_name(base: str, num_days: int) -> str:
    """Versioned table file name used by append commits.

    An append rewrites the KPI and RAT tables in full (they are small),
    but under a name carrying the new day count — the previous table
    file, still referenced by the previous manifest, survives untouched
    until the manifest rewrite commits the advance.  A torn advance
    therefore leaves the run loadable at its prior day count.
    """
    stem, dot, suffix = base.partition(".")
    return f"{stem}.{num_days:05d}{dot}{suffix}"


def _sha256_file(path: Path) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def _atomic_table(frame: Frame, final: Path) -> None:
    """Write ``frame`` as one ``.npy`` structured array, a field per column."""
    for name in frame.column_names:
        if frame[name].dtype.hasobject:
            raise TypeError(
                f"column {name!r} of {final.name} has dtype object, which "
                "the store cannot write without pickling"
            )
    table = np.empty(
        len(frame),
        dtype=[(name, frame[name].dtype) for name in frame.column_names],
    )
    for name in frame.column_names:
        table[name] = frame[name]
    with writing(final) as staging, open(staging, "wb") as handle:
        np.save(handle, table, allow_pickle=False)


def _atomic_text(text: str, final: Path) -> None:
    with writing(final) as staging:
        staging.write_text(text, encoding="utf-8")


def _commit_manifest(path: Path, manifest: dict) -> None:
    """Publish ``manifest`` (the commit point), then sweep what it drops.

    Nothing is deleted before the publish.  After it go the files under
    ``feeds/`` its digest map does not name, the root files matching
    :data:`_SWEPT_AT_ROOT` it does not name, the shard directories left
    empty, and the cache entries the map cannot reach
    (:func:`repro.analysis.cache.drop_unreachable`; only a run with an
    artifact cache imports that module).
    """
    _atomic_text(json.dumps(manifest, indent=2), path / _MANIFEST)
    digests = manifest["feeds_sha256"]
    feeds_dir = path / columnar.FEEDS_SUBDIR
    # Reverse order visits a directory after the files inside it.
    for entry in sorted(feeds_dir.rglob("*"), reverse=True):
        if entry.is_dir():
            if not any(entry.iterdir()):
                entry.rmdir()
        elif entry.relative_to(path).as_posix() not in digests:
            entry.unlink(missing_ok=True)
    for pattern in _SWEPT_AT_ROOT:
        for entry in path.glob(pattern):
            if entry.name not in digests:
                entry.unlink(missing_ok=True)
    if (path / _ANALYSIS_CACHE).is_dir():
        from repro.analysis.cache import drop_unreachable

        drop_unreachable(path, digests)


def _commit_mobility(
    feeds: DataFeeds, path: Path
) -> tuple[list[str], int, Frame | None]:
    """Land the mobility partition on disk; return (rel paths, K, KPIs).

    A feed that is already streaming into ``path`` (the engine's
    ``stream_dir`` mode leaves :attr:`ShardedMobilityFeed.pending_writer`
    set) just commits its writer — nothing is rewritten — and ``KPIs``
    is the frame the KPI table it staged and published backs
    (:meth:`ColumnarWriter.stage_kpis`), if it staged one.  Anything else
    is streamed through a fresh :class:`ColumnarWriter` one day at a
    time, partitioned exactly as the engine would (the run's configured
    shard count over the stable user hash, whatever shards the feed
    holds), so saving a feed produces byte-identical files whether it
    was streamed or held in memory.
    """
    mobility = feeds.mobility
    writer = getattr(mobility, "pending_writer", None)
    if writer is not None and writer.run_directory == path:
        kpis = None if writer.kpi_table is None else writer.kpi_table.frame()
        relative = writer.commit()
        mobility.pending_writer = None
        return relative, writer.num_shards, kpis

    from repro.simulation.sharding import shard_user_indices

    num_shards = feeds.config.parallelism.num_shards
    indices = shard_user_indices(mobility.user_ids, num_shards)
    writer = ColumnarWriter(
        path,
        list(indices),
        mobility.user_ids,
        mobility.anchor_sites,
        mobility.num_days,
    )
    writer.write_all(mobility)
    return writer.commit(), num_shards, None


def _commit_events(
    feeds: DataFeeds, path: Path, num_shards: int
) -> list[str]:
    """Land the signalling-event partition; return its relative paths.

    Mirrors :func:`_commit_mobility`: an engine-streamed bundle (a
    pending :class:`~repro.io.columnar.EventsWriter`) just commits its
    writer; an in-memory per-day dict streams through a fresh writer
    one day at a time, partitioned by the same stable user hash —
    byte-identical files either way.  Bundles without signalling frames
    return ``[]`` (stale event files are dropped after the manifest
    commit).
    """
    signaling = feeds.signaling
    if signaling is None:
        return []
    writer = getattr(signaling, "pending_writer", None)
    if (
        writer is not None
        and writer.run_directory == path
        and not writer.committed
    ):
        if writer.num_shards != num_shards:
            raise RunStoreError(
                f"streamed event partition has {writer.num_shards} shards "
                f"but the mobility partition has {num_shards}",
                path=path,
            )
        return writer.commit()
    writer = columnar.EventsWriter(
        path, num_shards, feeds.mobility.num_days
    )
    writer.write_all(signaling)
    return writer.commit()


def save_feeds(feeds: DataFeeds, directory: str | Path) -> Path:
    """Persist a simulation run to ``directory`` (created if missing).

    Every file is staged and published (:mod:`repro.io.durable`), with
    ``manifest.json`` published last as the commit point; a crash
    mid-save never leaves a file a reader would half-accept.

    A feed bundle shorter than its configured horizon (a live run
    growing through ``Run.advance``) additionally persists a ``live``
    manifest block with the coordinator state the engine needs to
    extend it bitwise-identically.  Saving always produces the
    canonical single-segment layout — re-saving a segmented live run
    compacts its append segments back into one file per shard column,
    byte-identical to a batch run of the same day count.  After the
    commit, the files and artifact-cache entries the new manifest no
    longer names are deleted (:func:`_commit_manifest`).
    """
    if feeds.config is None:
        raise ValueError(
            "feeds carry no config; only simulator-produced bundles can "
            "be persisted"
        )
    horizon = int(feeds.config.calendar.num_days)
    if feeds.mobility.num_days < horizon and feeds.live is None:
        raise ValueError(
            f"feeds cover {feeds.mobility.num_days} of {horizon} days but "
            "carry no live coordinator state; a partial run cannot be "
            "persisted without it (it could never be advanced)"
        )
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)

    with telemetry.span("save_feeds") as sp:
        mobility = feeds.mobility
        shard_files, num_shards, published_kpis = _commit_mobility(
            feeds, path
        )
        event_files = _commit_events(feeds, path, num_shards)
        # The engine's streamed KPI table was published with the
        # partition; a bundle whose radio_kpis was replaced since
        # writes its own rows over it.
        if feeds.radio_kpis is not published_kpis:
            _atomic_table(feeds.radio_kpis, path / _KPIS)
        _atomic_table(feeds.rat_time, path / _RAT)
        with writing(path / _CONFIG) as staging, open(staging, "wb") as handle:
            pickle.dump(feeds.config, handle)

        parallelism = feeds.config.parallelism
        digests = {
            name: _sha256_file(path / name)
            for name in (*_DIGESTED_FILES, *shard_files, *event_files)
        }
        feeds_block: dict = {
            "layout": "columnar",
            "num_shards": num_shards,
        }
        if event_files:
            # The signalling-event partition rides in the same shard
            # directories; recording its column list here is what makes
            # a v2-without-events manifest keep loading unchanged.
            feeds_block["events"] = {
                "columns": [name for name, _ in columnar.EVENT_COLUMNS],
            }
        manifest = {
            "format_version": _FORMAT_VERSION,
            "num_users": int(mobility.num_users),
            "num_days": int(mobility.num_days),
            "num_kpi_rows": len(feeds.radio_kpis),
            "first_day": feeds.calendar.first_day.isoformat(),
            "last_day": feeds.calendar.last_day.isoformat(),
            "interconnect_upgrade_day": feeds.interconnect_upgrade_day,
            # Shard layout the run executed with. Results are independent
            # of it (see repro.simulation.sharding), recorded as
            # provenance for performance forensics on persisted runs.
            "parallelism": {
                "num_shards": parallelism.num_shards,
                "workers": parallelism.workers,
            },
            # The on-disk mobility partition (storage layout; always the
            # configured shard count, even when the run executed
            # serially).
            "feeds": feeds_block,
            # Content addresses of the persisted feed payloads: the
            # inputs of every analysis-cache key, and the integrity
            # reference load_feeds verifies files against.
            "feeds_sha256": digests,
        }
        if mobility.num_days < horizon:
            manifest["live"] = {
                "horizon_days": horizon,
                "voice_mb_by_day": [
                    float(value) for value in feeds.live["voice_mb_by_day"]
                ],
                "baseline_dl_total": (
                    None
                    if feeds.live.get("baseline_dl_total") is None
                    else float(feeds.live["baseline_dl_total"])
                ),
            }
        feeds.source_digests = digests
        feeds.feed_segments = [(0, int(mobility.num_days))]
        feeds.source_directory = path
        # Telemetry captured while the run simulated travels with the
        # run: a snapshot is plain JSON data, so it lands verbatim in
        # the manifest and round-trips through load_feeds.
        if feeds.telemetry is not None:
            manifest["telemetry"] = feeds.telemetry
        sp.add("kpi_rows", len(feeds.radio_kpis))
        sp.add("rat_rows", len(feeds.rat_time))
        sp.add("shards", num_shards)
        _commit_manifest(path, manifest)
    return path


def append_feeds(feeds: DataFeeds, chunk: DataFeeds, directory: str | Path) -> Path:
    """Commit newly simulated days onto a persisted live run.

    ``feeds`` is the loaded base run, ``chunk`` the engine's output for
    the next window of days (its mobility holds only the new days).
    The append commit is crash-safe in the same way a save is:

    1. the new days land in *new* per-shard segment files
       (:func:`~repro.io.columnar.segment_file_name`) — the digested
       base files are never touched;
    2. the KPI and RAT tables are rewritten in full under a
       day-count-versioned name, leaving the previous table files in
       place;
    3. ``manifest.json`` — new day count, extended segment list,
       updated digest map and live block — is atomically rewritten
       *last*, as the single commit point;
    4. only then are the superseded table files removed, with any
       other file and artifact-cache entry the new manifest no longer
       names (:func:`_commit_manifest`).

    A crash anywhere before step 3 leaves the previous manifest
    pointing exclusively at untouched files, so the run stays loadable
    at its prior day count; re-running the advance recovers (aided by
    the engine's per-shard-day checkpoints over the window).
    """
    path = Path(directory)
    manifest = _read_manifest(path)
    live = manifest.get("live")
    if not isinstance(live, dict):
        raise RunStoreError(
            f"run {path} is frozen (its manifest has no live block); "
            "there are no further days to append",
            path=path / _MANIFEST,
        )
    old_digests = manifest["feeds_sha256"]
    block = manifest.get("feeds") or {}
    if block.get("events"):
        raise RunStoreError(
            f"run {path} persists a signalling-event partition, which "
            "the append commit does not extend; event-bearing runs "
            "cannot be advanced",
            path=path / _MANIFEST,
        )
    num_shards = int(block.get("num_shards", 1))
    base_days = int(manifest["num_days"])
    chunk_days = int(chunk.mobility.num_days)
    new_days = base_days + chunk_days
    horizon = int(live["horizon_days"])
    if chunk.mobility.num_users != manifest["num_users"]:
        raise RunStoreError(
            f"appended chunk holds {chunk.mobility.num_users} users but "
            f"run {path} holds {manifest['num_users']}",
            path=path / _MANIFEST,
        )

    with telemetry.span("append_feeds") as sp:
        # 1. New dwell days → a fresh segment, never touching old files.
        writer = getattr(chunk.mobility, "pending_writer", None)
        if (
            writer is not None
            and writer.run_directory == path
            and writer.day_offset == base_days
        ):
            segment_files = writer.commit()
            chunk.mobility.pending_writer = None
        else:
            from repro.simulation.sharding import shard_user_indices

            writer = ColumnarWriter(
                path,
                list(
                    shard_user_indices(chunk.mobility.user_ids, num_shards)
                ),
                chunk.mobility.user_ids,
                chunk.mobility.anchor_sites,
                chunk_days,
                day_offset=base_days,
            )
            writer.write_all(chunk.mobility)
            segment_files = writer.commit()
        if writer.num_shards != num_shards:
            raise RunStoreError(
                f"appended segment was partitioned into "
                f"{writer.num_shards} shards but run {path} stores "
                f"{num_shards}",
                path=path / _MANIFEST,
            )

        # 2. Full table rewrite under versioned names (tables are small
        # and round-trip bit for bit, so the combined file is
        # byte-identical to a batch run's prefix + new rows).
        from repro.frames import concat

        tables = block.get("tables") or {}
        old_kpis = tables.get("radio_kpis", _KPIS)
        old_rat = tables.get("rat_time", _RAT)
        new_kpis = _table_name(_KPIS, new_days)
        new_rat = _table_name(_RAT, new_days)
        combined_kpis = concat([feeds.radio_kpis, chunk.radio_kpis])
        combined_rat = concat([feeds.rat_time, chunk.rat_time])
        _atomic_table(combined_kpis, path / new_kpis)
        _atomic_table(combined_rat, path / new_rat)

        # 3. Digest map: drop the superseded tables, add the new files.
        digests = {
            name: value
            for name, value in old_digests.items()
            if name not in (old_kpis, old_rat)
        }
        for name in (new_kpis, new_rat, *segment_files):
            digests[name] = _sha256_file(path / name)

        segments = [
            [int(start), int(days)]
            for start, days in (block.get("segments") or [[0, base_days]])
        ]
        segments.append([base_days, chunk_days])
        upgrade = manifest.get("interconnect_upgrade_day")
        if upgrade is None:
            upgrade = chunk.interconnect_upgrade_day
        voice = [float(value) for value in live.get("voice_mb_by_day", [])]
        voice.extend(
            float(value) for value in chunk.live["voice_mb_by_day"]
        )
        baseline = live.get("baseline_dl_total")
        if baseline is None:
            baseline = chunk.live.get("baseline_dl_total")

        new_manifest = dict(manifest)
        new_manifest["num_days"] = new_days
        new_manifest["num_kpi_rows"] = len(combined_kpis)
        new_manifest["interconnect_upgrade_day"] = upgrade
        new_manifest["feeds"] = {
            **block,
            "segments": segments,
            "tables": {"radio_kpis": new_kpis, "rat_time": new_rat},
        }
        new_manifest["feeds_sha256"] = digests
        if new_days < horizon:
            new_manifest["live"] = {
                "horizon_days": horizon,
                "voice_mb_by_day": voice,
                "baseline_dl_total": (
                    None if baseline is None else float(baseline)
                ),
            }
        else:
            new_manifest.pop("live", None)
        sp.add("days", chunk_days)
        sp.add("kpi_rows", len(combined_kpis))
        # The commit point: until this rename, the previous manifest
        # references only untouched files.
        _commit_manifest(path, new_manifest)
    return path


def _read_manifest(path: Path) -> dict:
    manifest_path = path / _MANIFEST
    if not manifest_path.exists():
        from repro.simulation.checkpoint import CheckpointStore

        if CheckpointStore.present(path):
            raise RunStoreError(
                f"{path} is an interrupted run: it has checkpoints but "
                f"no {_MANIFEST} yet — complete it with "
                f"'python -m repro simulate --resume {path}'",
                path=manifest_path,
            )
        raise RunStoreError(
            f"{path} is not a saved run: missing {manifest_path}",
            path=manifest_path,
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        raise RunStoreError(
            f"unreadable manifest {manifest_path}: {err}",
            path=manifest_path,
        ) from err
    if manifest.get("format_version") not in _SUPPORTED_VERSIONS:
        raise RunStoreError(
            f"unsupported feed-store version "
            f"{manifest.get('format_version')!r} in {manifest_path}",
            path=manifest_path,
        )
    digests = manifest.get("feeds_sha256")
    if not isinstance(digests, dict) or not digests:
        # Every save of this format records one; without the map no
        # file of the run can be checked.
        raise RunStoreError(
            f"manifest {manifest_path} records no feed digests "
            "(feeds_sha256); the manifest was damaged after the save",
            path=manifest_path,
        )
    for key in ("num_users", "num_days"):
        if not isinstance(manifest.get(key), int):
            raise RunStoreError(
                f"manifest {manifest_path} is missing {key!r}",
                path=manifest_path,
            )
    return manifest


def _read_config(path: Path):
    config_path = path / _CONFIG
    if not config_path.exists():
        raise RunStoreError(
            f"saved run {path} is missing {config_path}", path=config_path
        )
    try:
        with open(config_path, "rb") as handle:
            return pickle.load(handle)
    except (pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError, OSError) as err:
        raise RunStoreError(
            f"unreadable config {config_path}: {err}", path=config_path
        ) from err


def _feed_layout(path: Path, manifest: dict) -> tuple[dict, int]:
    """The manifest's validated ``feeds`` block and its shard count."""
    block = manifest.get("feeds")
    if not isinstance(block, dict) or block.get("layout") != "columnar":
        raise RunStoreError(
            f"manifest {path / _MANIFEST} describes no columnar feed "
            f"layout (feeds block: {block!r})",
            path=path / _MANIFEST,
        )
    num_shards = block.get("num_shards")
    if not isinstance(num_shards, int) or num_shards < 1:
        raise RunStoreError(
            f"manifest {path / _MANIFEST} has an invalid feed shard "
            f"count {num_shards!r}",
            path=path / _MANIFEST,
        )
    return block, num_shards


def _read_mobility(path: Path, manifest: dict) -> ShardedMobilityFeed:
    """Open the columnar partition described by the manifest, mapped."""
    block, num_shards = _feed_layout(path, manifest)
    return open_columnar(
        path, num_shards, segments=_read_segments(path, block)
    )


def _files_read(path: Path, manifest: dict) -> list[str]:
    """Manifest-relative paths of every file a load of ``manifest`` reads."""
    block, num_shards = _feed_layout(path, manifest)
    tables = block.get("tables") or {}
    names = [
        _CONFIG,
        tables.get("radio_kpis", _KPIS),
        tables.get("rat_time", _RAT),
        *columnar.shard_relative_paths(num_shards),
    ]
    for start, _ in _read_segments(path, block) or ():
        if start > 0:
            names.extend(columnar.segment_relative_paths(num_shards, start))
    if isinstance(block.get("events"), dict):
        names.extend(columnar.event_relative_paths(num_shards))
    return names


def _read_segments(path: Path, block: dict) -> list[tuple[int, int]] | None:
    """Validated ``(start, days)`` segment spans of a live partition."""
    raw = block.get("segments")
    if raw is None:
        return None
    spans: list[tuple[int, int]] = []
    expected = 0
    for pair in raw:
        try:
            start, days = (int(pair[0]), int(pair[1]))
        except (TypeError, ValueError, IndexError) as err:
            raise RunStoreError(
                f"manifest {path / _MANIFEST} has a malformed feed "
                f"segment entry {pair!r}",
                path=path / _MANIFEST,
            ) from err
        if start != expected or days < 0:
            raise RunStoreError(
                f"manifest {path / _MANIFEST} has non-contiguous feed "
                f"segments: segment at day {start} follows {expected} "
                f"covered days",
                path=path / _MANIFEST,
            )
        expected = start + days
        spans.append((start, days))
    return spans or None


def _read_frame(path: Path, name: str) -> Frame:
    frame_path = path / name
    if not frame_path.exists():
        raise RunStoreError(
            f"saved run {path} is missing {frame_path}", path=frame_path
        )
    try:
        with open(frame_path, "rb") as handle:
            table = np.load(handle, allow_pickle=False)
    except (OSError, ValueError, EOFError) as err:
        raise RunStoreError(
            f"corrupt feed {frame_path}: {err}", path=frame_path
        ) from err
    if (
        not isinstance(table, np.ndarray)
        or table.dtype.names is None
        or table.ndim != 1
    ):
        raise RunStoreError(
            f"corrupt feed {frame_path}: not a one-dimensional structured "
            "array",
            path=frame_path,
        )
    return Frame(
        {
            column: np.ascontiguousarray(table[column])
            for column in table.dtype.names
        }
    )


#: Loads a reader attempts when the manifest changes under it (a live
#: writer committed an advance and removed the tables the load began
#: from).
_LOAD_ATTEMPTS = 3


@telemetry.timed("load_feeds")
def load_feeds(directory: str | Path) -> DataFeeds:
    """Reload a run saved by :func:`save_feeds`.

    The mobility partition is memory-mapped shard by shard: the
    returned bundle's ``mobility`` is a :class:`~repro.io.columnar.
    ShardedMobilityFeed` whose day matrices are assembled on demand,
    and the per-shard analysis kernels read it one window of days at a
    time, so analysis peak memory is bounded by one shard × one window
    rather than the whole population.  A saved signalling-event
    partition opens as a :class:`~repro.io.columnar.ShardedEventFeed`.

    A live run may advance while it is read: when the load fails and
    ``manifest.json`` is no longer the one it began from, it loads
    again from the new manifest (at most :data:`_LOAD_ATTEMPTS` times).

    Raises :class:`RunStoreError` naming the offending file when the
    directory is missing, interrupted, partial, or corrupt.
    """
    path = Path(directory)
    if not path.is_dir():
        raise RunStoreError(
            f"run directory {path} does not exist", path=path
        )
    for _ in range(_LOAD_ATTEMPTS - 1):
        manifest = _read_manifest(path)
        try:
            return _load(path, manifest)
        except RunStoreError:
            if _read_manifest(path) == manifest:
                raise
    return _load(path, _read_manifest(path))


def _load(path: Path, manifest: dict) -> DataFeeds:
    """The feeds one manifest describes (see :func:`load_feeds`)."""
    digests = _verify_digests(path, manifest)
    config = _read_config(path)

    from repro.simulation.engine import build_world

    world = build_world(config)
    mobility = _read_mobility(path, manifest)
    described = path / columnar.FEEDS_SUBDIR
    if mobility.num_users != manifest["num_users"]:
        raise RunStoreError(
            f"mobility store {described} holds "
            f"{mobility.num_users} users but the manifest promises "
            f"{manifest['num_users']}",
            path=described,
        )
    if mobility.num_days != manifest["num_days"]:
        raise RunStoreError(
            f"mobility store {described} holds "
            f"{mobility.num_days} days but the manifest promises "
            f"{manifest['num_days']}",
            path=described,
        )

    upgrade = manifest.get("interconnect_upgrade_day")
    feeds_block = manifest.get("feeds") or {}
    tables = feeds_block.get("tables") or {}
    segments = _read_segments(path, feeds_block)
    signaling = None
    events_block = feeds_block.get("events")
    if isinstance(events_block, dict):
        signaling = columnar.open_events(
            path,
            int(feeds_block.get("num_shards", 1)),
            int(manifest["num_days"]),
        )
    live = manifest.get("live")
    calendar = config.calendar
    if isinstance(live, dict) and mobility.num_days < calendar.num_days:
        # A live run holds only its simulated prefix; the analysis
        # calendar must end where the data ends (the configuration
        # keeps the full horizon for Run.advance).
        from repro.simulation.clock import StudyCalendar

        calendar = StudyCalendar(
            first_day=calendar.first_day,
            num_days=mobility.num_days,
            key_dates=calendar.key_dates,
        )
    return DataFeeds(
        calendar=calendar,
        geography=world.geography,
        lookup=PostcodeLookup(world.geography),
        topology=world.topology,
        catalog=world.catalog,
        base=world.base,
        agents=world.agents,
        mobility=mobility,
        radio_kpis=_read_frame(path, tables.get("radio_kpis", _KPIS)),
        rat_time=_read_frame(path, tables.get("rat_time", _RAT)),
        epidemic=world.epidemic,
        interconnect_upgrade_day=(
            int(upgrade) if upgrade is not None else None
        ),
        signaling=signaling,
        config=config,
        telemetry=manifest.get("telemetry"),
        source_digests=digests,
        live=live if isinstance(live, dict) else None,
        feed_segments=(
            segments
            if segments is not None
            else [(0, int(manifest["num_days"]))]
        ),
        source_directory=path,
    )


def _verify_digests(path: Path, manifest: dict) -> dict:
    """Check every digested feed file against the manifest's record.

    Returns the digest map.  Every save records a digest for each file
    it writes, so a file the load reads that the map does not name
    (``config.pkl``, the two tables, a shard, segment or event file)
    raises :class:`RunStoreError` naming it.  So does a file whose
    bytes no longer hash to the recorded digest, and equally a file
    the manifest promises that is *missing* from disk — a deleted shard
    must fail here, precisely, not in a later, vaguer reader.
    """
    digests = manifest["feeds_sha256"]
    for name in _files_read(path, manifest):
        if name not in digests:
            raise RunStoreError(
                f"manifest {path / _MANIFEST} records no digest for "
                f"{path / name}, which the load reads; the manifest was "
                "damaged after the save",
                path=path / name,
            )
    for name, expected in sorted(digests.items()):
        file_path = path / name
        if not file_path.exists():
            raise RunStoreError(
                f"saved run is missing {file_path}, which its manifest "
                f"records a digest for; the file was deleted (or the "
                f"save was interrupted) after the manifest was written",
                path=file_path,
            )
        actual = _sha256_file(file_path)
        telemetry.count("store.digest_verifications", 1)
        if actual != expected:
            raise RunStoreError(
                f"feed {file_path} does not match the digest recorded in "
                f"its manifest (expected sha256 {expected[:12]}…, found "
                f"{actual[:12]}…); the file was modified or corrupted "
                "after the run was saved",
                path=file_path,
            )
    return {str(name): str(value) for name, value in digests.items()}
