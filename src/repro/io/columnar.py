"""Shard-partitioned columnar on-disk layout for the mobility feeds.

The paper's substrate is 22M subscribers; holding every per-user
per-day dwell matrix in RAM caps a reproduction at laptop-memory
populations.  This module stores the mobility feed *out of core*
instead: one memory-mappable ``.npy`` file per shard × column under
``<run>/feeds/``, partitioned by the same deterministic user sharding
the parallel engine executes with (:mod:`repro.simulation.sharding`)::

    <run>/feeds/
      shard-0000/
        rows.npy          # population row indices of the shard's users
        user_ids.npy
        anchor_sites.npy  # (n, NUM_ANCHORS)
        daily_dwell.npy   # (num_days, n, NUM_ANCHORS) float32
        night_dwell.npy   # same shape, post-dropout
      shard-0001/
        ...

Three cooperating pieces:

- :class:`ColumnarWriter` — creates the partition and accepts one day
  of every shard's rows at a time (``write_day``), so the engine lands
  each shard's output directly on disk instead of accumulating 98 days
  of matrices in RAM; the run root's KPI table can be staged on it too
  (``stage_kpis``).  Every file is written under its staging name and
  :meth:`ColumnarWriter.commit` publishes it (:mod:`repro.io.durable`),
  returning the relative paths for the manifest's per-shard digests.
- :class:`ShardedMobilityFeed` — the one mobility feed type, a view
  over per-shard dwell stacks: the partition's maps, or the day lists
  of a run the engine kept in memory.  ``dwell(day)`` / ``night(day)``
  assemble one population-order day at a time from the shards.  The
  callers that still build such days are
  :meth:`ColumnarWriter.write_all` (a save at another shard layout),
  the tests, the examples and the benchmarks; no analysis code does,
  since every analysis kernel iterates ``shards`` directly.
- :func:`open_columnar` — reopens a partition memory-mapped
  (``np.load(mmap_mode="r")``: shards are mapped, pages fault in on
  demand); the small identity columns are read into RAM.

Every per-shard analysis kernel reads dwell through :func:`read_days`,
which maps each segment once per window of
:data:`~repro.simulation.sharding.WINDOW_DAYS` days and drops the
window before mapping the next, so a walk's resident set stays bounded
by one shard × one window.  The engine's in-memory feed (the same
class over day lists) is the oracle the stored results are asserted
bitwise against.

Telemetry: ``store.bytes_mapped`` counts bytes opened for on-demand
mapping, ``store.windows_mapped`` counts day windows mapped by
:func:`window_days`, ``store.shards_streamed`` counts shards walked by
a per-shard mobility kernel (:mod:`repro.core.statistics`,
:mod:`repro.core.home`, :mod:`repro.core.relocation`), and
``store.digest_verifications`` (bumped by :mod:`repro.io.store`)
counts files checked against manifest digests.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.frames import Frame
from repro.io import durable
from repro.io.errors import RunStoreError
from repro.simulation.feeds import MobilityShard
from repro.simulation.sharding import WINDOW_DAYS

__all__ = [
    "EVENT_COLUMNS",
    "FEEDS_SUBDIR",
    "KPI_TABLE",
    "SHARD_COLUMNS",
    "ColumnarWriter",
    "EventsWriter",
    "MobilityShard",
    "SegmentedStack",
    "ShardedEventFeed",
    "ShardedMobilityFeed",
    "event_file_name",
    "event_relative_paths",
    "open_columnar",
    "open_events",
    "open_shard",
    "read_days",
    "segment_file_name",
    "segment_relative_paths",
    "shard_dir_name",
    "shard_relative_paths",
    "window_days",
]

FEEDS_SUBDIR = "feeds"

#: The run root's KPI table (:mod:`repro.io.store`), which a run the
#: engine streams from day 0 stages through its writer
#: (:meth:`ColumnarWriter.stage_kpis`).
KPI_TABLE = "radio_kpis.npy"

#: The five columns of one shard directory.  ``rows``/``user_ids``/
#: ``anchor_sites`` are small and read into RAM; the two dwell stacks
#: are the out-of-core payload, always memory-mapped.
SHARD_COLUMNS = (
    "rows",
    "user_ids",
    "anchor_sites",
    "daily_dwell",
    "night_dwell",
)

_DWELL_COLUMNS = ("daily_dwell", "night_dwell")

#: Column name → dtype of one shard's signalling-event partition.  The
#: dtypes mirror :meth:`repro.network.signaling.SignalingGenerator.
#: generate_day` exactly, so a round-trip through the store is bitwise.
EVENT_COLUMNS = (
    ("user_id", np.dtype(np.int64)),
    ("site_id", np.dtype(np.int64)),
    ("timestamp_s", np.dtype(np.float64)),
    ("event", np.dtype(np.int64)),
    ("result", np.dtype(np.int64)),
)

_EVENT_OFFSETS = "events_offsets.npy"


def shard_dir_name(index: int) -> str:
    return f"shard-{index:04d}"


def segment_file_name(column: str, start_day: int) -> str:
    """File name of one dwell-stack segment.

    The base segment (``start_day == 0``) keeps the canonical
    single-file name so a never-appended run is byte-identical to the
    pre-live layout; appended segments carry their absolute start day.
    """
    if start_day == 0:
        return f"{column}.npy"
    return f"{column}.{start_day:05d}.npy"


def shard_relative_paths(num_shards: int) -> list[str]:
    """Manifest-relative paths of every shard column file, in order."""
    return [
        f"{FEEDS_SUBDIR}/{shard_dir_name(index)}/{column}.npy"
        for index in range(num_shards)
        for column in SHARD_COLUMNS
    ]


def segment_relative_paths(num_shards: int, start_day: int) -> list[str]:
    """Manifest-relative paths of one appended segment's dwell files."""
    return [
        f"{FEEDS_SUBDIR}/{shard_dir_name(index)}/"
        f"{segment_file_name(column, start_day)}"
        for index in range(num_shards)
        for column in _DWELL_COLUMNS
    ]


def event_file_name(column: str) -> str:
    return f"events_{column}.npy"


def event_relative_paths(num_shards: int) -> list[str]:
    """Manifest-relative paths of every event-partition file, in order."""
    return [
        f"{FEEDS_SUBDIR}/{shard_dir_name(index)}/{name}"
        for index in range(num_shards)
        for name in (
            [_EVENT_OFFSETS]
            + [event_file_name(column) for column, _ in EVENT_COLUMNS]
        )
    ]


class SegmentedStack:
    """Day-indexed view over the dwell segments of one live shard.

    A run grown through ``Run.advance`` stores its dwell stack as a
    base file plus one file per append commit.  This view routes a day
    index to the segment holding it, so every ``stack[day]`` consumer
    (``ShardedMobilityFeed._assemble``, the streaming metrics) works
    unchanged on live runs.
    """

    def __init__(self, segments: list[tuple[int, np.ndarray]]) -> None:
        if not segments:
            raise ValueError("a segmented stack needs at least one segment")
        self._segments = sorted(segments, key=lambda pair: pair[0])
        self._starts = [start for start, _ in self._segments]
        expected = 0
        for start, stack in self._segments:
            if start != expected:
                raise ValueError(
                    f"dwell segments are not contiguous: segment at day "
                    f"{start} follows {expected} covered days"
                )
            expected = start + stack.shape[0]
        self._num_days = expected

    def __len__(self) -> int:
        return self._num_days

    def __getitem__(self, day):
        if isinstance(day, slice):
            return [self[index] for index in range(*day.indices(len(self)))]
        day = int(day)
        if day < 0:
            day += len(self)
        if not 0 <= day < len(self):
            raise IndexError(f"day {day} out of range")
        import bisect

        position = bisect.bisect_right(self._starts, day) - 1
        start, stack = self._segments[position]
        return stack[day - start]

    def __iter__(self):
        return (self[day] for day in range(len(self)))


class _DayStack:
    """Sequence view presenting per-shard stacks as a list of day matrices.

    ``feed.daily_dwell[day]`` reads a :class:`ShardedMobilityFeed` as a
    list of population-order day matrices; each access assembles
    exactly one day, so iteration stays bounded-memory.
    """

    def __init__(self, feed: "ShardedMobilityFeed", column: str) -> None:
        self._feed = feed
        self._column = column

    def __len__(self) -> int:
        return self._feed.num_days

    def __getitem__(self, day):
        if isinstance(day, slice):
            return [self[index] for index in range(*day.indices(len(self)))]
        day = int(day)
        if day < 0:
            day += len(self)
        if not 0 <= day < len(self):
            raise IndexError(f"day {day} out of range")
        return self._feed._assemble(self._column, day)

    def __iter__(self):
        return (self[day] for day in range(len(self)))


class ShardedMobilityFeed:
    """Per-user per-day tower dwell aggregates (§2.3's statistics), by shard.

    The mobility feed of every run.  Each shard's ``daily_dwell`` /
    ``night_dwell`` stack holds, per day, the float32 seconds its users
    spent attached to each anchor tower over the whole day / over the
    nighttime window (00:00–08:00): memory maps for a stored or
    streamed run, day lists for a run the engine kept in memory.
    ``user_ids`` / ``anchor_sites`` are assembled once (they are small),
    ``dwell(day)`` / ``night(day)`` / ``daily_dwell[day]`` assemble
    one full-population day matrix per call, and streaming consumers
    read :attr:`shards` directly for bounded per-shard access.
    """

    def __init__(
        self,
        shards: list[MobilityShard],
        *,
        pending_writer: "ColumnarWriter | None" = None,
    ) -> None:
        if not shards:
            raise ValueError("a sharded feed needs at least one shard")
        self.shards = list(shards)
        #: Set while the backing files are still uncommitted (engine
        #: streaming mode); :func:`repro.io.store.save_feeds` commits
        #: the writer instead of rewriting the arrays.
        self.pending_writer = pending_writer
        total = sum(shard.num_rows for shard in self.shards)
        first = self.shards[0]
        self.user_ids = np.empty(total, dtype=first.user_ids.dtype)
        self.anchor_sites = np.empty(
            (total, first.anchor_sites.shape[1]),
            dtype=first.anchor_sites.dtype,
        )
        for shard in self.shards:
            if shard.rows.size:
                self.user_ids[shard.rows] = shard.user_ids
                self.anchor_sites[shard.rows] = shard.anchor_sites

    @classmethod
    def from_stacks(
        cls, shard_rows, user_ids, anchor_sites, daily, night,
        *, pending_writer: "ColumnarWriter | None" = None,
    ) -> "ShardedMobilityFeed":
        """The feed whose shard ``k`` holds the population rows
        ``shard_rows[k]`` and the dwell stacks ``daily[k]``/``night[k]``."""
        return cls(
            [
                MobilityShard(
                    index=index,
                    rows=rows,
                    user_ids=user_ids[rows],
                    anchor_sites=anchor_sites[rows],
                    daily_dwell=daily_stack,
                    night_dwell=night_stack,
                )
                for index, (rows, daily_stack, night_stack) in enumerate(
                    zip(shard_rows, daily, night)
                )
            ],
            pending_writer=pending_writer,
        )

    @property
    def num_users(self) -> int:
        return int(self.user_ids.shape[0])

    @property
    def num_days(self) -> int:
        return len(self.shards[0].daily_dwell)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def in_memory(self) -> bool:
        """True when the shards hold day lists (a run the engine kept in
        memory, saved or not), not maps of files a pool could reopen."""
        return all(
            isinstance(shard.daily_dwell, list) for shard in self.shards
        )

    @property
    def daily_dwell(self) -> _DayStack:
        return _DayStack(self, "daily_dwell")

    @property
    def night_dwell(self) -> _DayStack:
        return _DayStack(self, "night_dwell")

    def dwell(self, day: int) -> np.ndarray:
        """Full-day dwell seconds, shape (num_users, num_anchors)."""
        return self._assemble("daily_dwell", day)

    def night(self, day: int) -> np.ndarray:
        """Nighttime dwell seconds, shape (num_users, num_anchors)."""
        return self._assemble("night_dwell", day)

    def _assemble(self, column: str, day: int) -> np.ndarray:
        blocks = [getattr(shard, column)[day] for shard in self.shards]
        out = np.empty(
            (self.num_users, self.anchor_sites.shape[1]),
            dtype=blocks[0].dtype,
        )
        for shard, block in zip(self.shards, blocks):
            if shard.rows.size:
                out[shard.rows] = block
        return out


class _StackFile:
    """One ``.npy`` array written in place through its staging file.

    The header (format 1.0, as ``np.save`` writes it) declares the
    whole array up front and the staging file of ``final`` is sized
    for it; blocks of rows along the leading axis then go through the
    file at their offsets (:meth:`write_rows`) rather than into a
    writable map, so written rows sit in the page cache, not in the
    writer's resident memory.  Rows never written read back as zeros,
    as from a fresh map.  A dwell stack ``(num_days, rows, anchors)``
    takes one day per leading index; a row table ``(num_rows,)`` of a
    structured dtype (the streamed KPI table) takes one day's block of
    cells at a time.
    """

    def __init__(
        self, final: Path, shape: tuple[int, ...], dtype=np.float32
    ) -> None:
        self.final = final
        self.path = durable.staged(final)
        self.shape = tuple(int(size) for size in shape)
        self.dtype = np.dtype(dtype)
        self._row_bytes = math.prod(self.shape[1:]) * self.dtype.itemsize
        self._frame = None
        self._handle = open(self.path, "wb+")
        np.lib.format.write_array_header_1_0(
            self._handle,
            {
                "descr": np.lib.format.dtype_to_descr(self.dtype),
                "fortran_order": False,
                "shape": self.shape,
            },
        )
        self._data_offset = self._handle.tell()
        self._handle.truncate(
            self._data_offset + self.shape[0] * self._row_bytes
        )

    def write_rows(self, start: int, rows: np.ndarray) -> None:
        """Write ``rows`` (a block along the leading axis) at row ``start``."""
        block = np.ascontiguousarray(rows, dtype=self.dtype)
        # A stray write would land past the header's shape or across a
        # row boundary; a map would have refused it.
        if (
            block.shape[1:] != self.shape[1:]
            or not 0 <= start <= self.shape[0] - block.shape[0]
        ):
            raise ValueError(
                f"cannot write a {block.shape} block at row {start} of "
                f"the {self.shape} array {self.path}"
            )
        self._handle.seek(self._data_offset + start * self._row_bytes)
        self._handle.write(block.data)

    def close(self) -> None:
        self._handle.close()

    def publish(self) -> None:
        """Close the staging file and publish it as ``final``."""
        self.close()
        durable.publish(self.path, self.final)

    def read_only(self) -> np.ndarray:
        """The array as written so far, mapped read-only."""
        self._handle.flush()
        if self._row_bytes * self.shape[0] == 0:
            # Zero-size arrays cannot be mapped (and cost nothing).
            return np.zeros(self.shape, dtype=self.dtype)
        return np.load(self.path, mmap_mode="r")

    def frame(self) -> Frame:
        """A row table as one frame of read-only field views of its map.

        Built once: the same frame comes back on every call, which is
        how :func:`repro.io.store.save_feeds` tells a bundle still
        holding it from one whose table was replaced.  Building it
        reads no row.
        """
        if self._frame is None:
            table = self.read_only()
            self._frame = Frame(
                {name: table[name] for name in self.dtype.names}
            )
        return self._frame


class ColumnarWriter:
    """Creates one run's feed partition, a day at a time, atomically.

    ``shard_rows`` holds each shard's population row indices
    (ascending, as :func:`~repro.simulation.sharding.shard_user_indices`
    gives them).  Each :meth:`write_day` writes every shard's rows of
    the day through its staged dwell files at that day's offset (no
    writable map, so written days do not stay resident);
    :meth:`finish` maps the staged files read-only for the feed view,
    and :meth:`commit` closes them, writes the small identity columns,
    and publishes everything (:mod:`repro.io.durable`), the KPI table
    staged through the writer (:meth:`stage_kpis`) included.
    Until commit, a crash leaves only ``*.tmp`` staging files — a
    reader never half-accepts them, and the next manifest commit
    deletes them.

    With ``day_offset > 0`` the writer runs in *append* mode for a live
    run: it lands days ``[day_offset, day_offset + num_days)`` in a new
    per-shard segment file (:func:`segment_file_name`), never touching
    the already-digested base files, and :meth:`commit` renames only
    the new segment into place.  The caller's manifest rewrite remains
    the single commit point — a crash before it leaves the new files
    unreferenced and the run loadable at its previous day count.
    """

    def __init__(
        self,
        directory: str | Path,
        shard_rows: list[np.ndarray],
        user_ids: np.ndarray,
        anchor_sites: np.ndarray,
        num_days: int,
        *,
        day_offset: int = 0,
    ) -> None:
        self.run_directory = Path(directory)
        self.feeds_directory = self.run_directory / FEEDS_SUBDIR
        self.num_days = int(num_days)
        self.day_offset = int(day_offset)
        self._rows: list[np.ndarray] = [
            np.asarray(rows, dtype=np.int64) for rows in shard_rows
        ]
        self._user_ids = user_ids
        self._anchor_sites = anchor_sites
        self._daily: list[_StackFile] = []
        self._night: list[_StackFile] = []
        #: The KPI table staged through the writer, if any.
        self.kpi_table: _StackFile | None = None
        num_anchors = anchor_sites.shape[1]
        for index, rows in enumerate(self._rows):
            shard_dir = self.feeds_directory / shard_dir_name(index)
            shard_dir.mkdir(parents=True, exist_ok=True)
            shape = (self.num_days, rows.shape[0], num_anchors)
            self._daily.append(
                _StackFile(self._final(index, "daily_dwell"), shape)
            )
            self._night.append(
                _StackFile(self._final(index, "night_dwell"), shape)
            )

    @property
    def num_shards(self) -> int:
        return len(self._rows)

    def _final(self, index: int, column: str) -> Path:
        name = (
            segment_file_name(column, self.day_offset)
            if column in _DWELL_COLUMNS
            else f"{column}.npy"
        )
        return self.feeds_directory / shard_dir_name(index) / name

    def write_day(
        self, day: int, daily: list[np.ndarray], night: list[np.ndarray]
    ) -> None:
        """Land one (absolute) day: each shard's ``daily``/``night`` rows."""
        offset = day - self.day_offset
        for daily_rows, night_rows, daily_out, night_out in zip(
            daily, night, self._daily, self._night, strict=True
        ):
            daily_out.write_rows(offset, daily_rows[None])
            night_out.write_rows(offset, night_rows[None])

    def stage_kpis(self, dtype: np.dtype, rows_per_day: int) -> _StackFile:
        """Stage the run's KPI table, ``rows_per_day`` rows a day.

        The caller writes each day's block through the returned file
        (day ``d`` at row ``d * rows_per_day``); :meth:`commit`
        publishes it as :data:`KPI_TABLE` with the partition.
        """
        self.kpi_table = _StackFile(
            self.run_directory / KPI_TABLE,
            (self.num_days * rows_per_day,),
            dtype,
        )
        return self.kpi_table

    def write_all(self, mobility) -> None:
        """Stream every day of any feed through the writer's shards: a
        feed cut into the same shards (a run saved at its own layout)
        hands its blocks over, any other is assembled a day at a time."""
        shards = mobility.shards
        same_cut = len(shards) == len(self._rows) and all(
            np.array_equal(shard.rows, rows)
            for shard, rows in zip(shards, self._rows)
        )
        for day in range(self.num_days):
            if same_cut:
                daily = [shard.daily_dwell[day] for shard in shards]
                night = [shard.night_dwell[day] for shard in shards]
            else:
                whole = (mobility.dwell(day), mobility.night(day))
                daily, night = (
                    [matrix[rows] for rows in self._rows] for matrix in whole
                )
            self.write_day(self.day_offset + day, daily, night)

    def finish(self) -> ShardedMobilityFeed:
        """The feed view over the (still uncommitted) partition."""
        return ShardedMobilityFeed.from_stacks(
            self._rows,
            self._user_ids,
            self._anchor_sites,
            [daily.read_only() for daily in self._daily],
            [night.read_only() for night in self._night],
            pending_writer=self,
        )

    def close(self) -> None:
        """Close every staged file without publishing it.

        For a run that raised before its save: the staged days stay on
        disk as ``*.tmp`` leftovers (the next manifest commit deletes
        them), and no handle outlives the run.
        """
        for stack in (*self._daily, *self._night):
            stack.close()
        if self.kpi_table is not None:
            self.kpi_table.close()

    def commit(self) -> list[str]:
        """Close and publish every new column file and the staged KPI table.

        Returns the manifest-relative paths of the committed partition
        files (the digest set; the caller digests the KPI table).
        Every publish is one atomic rename; the caller's manifest write
        is the overall commit point, and the files a previous layout
        left behind are deleted only after it (see
        :func:`repro.io.store.save_feeds`).  A base-segment commit
        (``day_offset == 0``) also writes the identity columns; an
        append commit publishes nothing but its own new segment files.
        """
        _require_staged(self, (*self._daily, *self._night, self.kpi_table))
        appending = self.day_offset > 0
        with telemetry.span("columnar_commit") as sp:
            written = 0
            for index, rows in enumerate(self._rows):
                if not appending:
                    for column, array in (
                        ("rows", rows),
                        ("user_ids", self._user_ids[rows]),
                        ("anchor_sites", self._anchor_sites[rows]),
                    ):
                        final = self._final(index, column)
                        with durable.writing(final) as staging, open(
                            staging, "wb"
                        ) as handle:
                            np.save(handle, array)
                        written += final.stat().st_size
                for stack in (self._daily[index], self._night[index]):
                    stack.publish()
                    written += stack.final.stat().st_size
            if self.kpi_table is not None:
                self.kpi_table.publish()
            sp.add("bytes", written)
        if appending:
            return segment_relative_paths(self.num_shards, self.day_offset)
        return shard_relative_paths(self.num_shards)


def _require_staged(writer, files) -> None:
    """Refuse, before writing anything, a commit whose staged files
    another save's manifest commit swept (publishing the rest would
    damage the run that save committed)."""
    for file in files:
        if file is not None and not file.path.exists():
            raise RunStoreError(
                f"cannot commit into {writer.run_directory}: another save "
                f"committed into it first and deleted {file.path.name}",
                path=writer.run_directory,
            )


def _require(path: Path) -> None:
    if not path.exists():
        raise RunStoreError(
            f"saved run is missing feed shard file {path}", path=path
        )


def _load_column(path: Path) -> np.ndarray:
    """Read one small column file (identity columns, event offsets)."""
    _require(path)
    try:
        return np.load(path)
    except Exception as err:
        raise RunStoreError(
            f"corrupt feed shard file {path}: {err}", path=path
        ) from err


def _map_segment(path: Path) -> np.ndarray:
    """A read-only map of one column file; dropping it unmaps the file."""
    _require(path)
    try:
        try:
            return np.load(path, mmap_mode="r")
        except ValueError:
            # Zero-size stacks cannot be mapped; a plain read is free.
            return np.load(path)
    except Exception as err:
        raise RunStoreError(
            f"corrupt feed shard file {path}: {err}", path=path
        ) from err


def open_shard(
    directory: str | Path,
    shard_index: int,
    *,
    segments: list[tuple[int, int]] | None = None,
) -> MobilityShard:
    """Open exactly one shard of a committed feed partition.

    The unit a parallel analysis worker maps: given ``(run_dir,
    shard_id)`` it opens only that shard's files — no feed object
    crosses the process boundary.  The dwell stacks are read-only
    memory maps, and each dwell column's backing files are recorded on
    :attr:`MobilityShard.sources` so :func:`window_days` can re-map day
    windows with bounded residency.
    """
    path = Path(directory)
    spans = [(0, None)] if not segments else [
        (int(start), int(days)) for start, days in segments
    ]
    shard_dir = path / FEEDS_SUBDIR / shard_dir_name(shard_index)
    columns = {
        column: _load_column(shard_dir / f"{column}.npy")
        for column in SHARD_COLUMNS
        if column not in _DWELL_COLUMNS
    }
    shard = MobilityShard(
        index=shard_index,
        daily_dwell=None,
        night_dwell=None,
        sources={},
        **columns,
    )
    for column in _DWELL_COLUMNS:
        pieces: list[tuple[int, np.ndarray]] = []
        files: list[tuple[int, int, Path]] = []
        for start, days in spans:
            file = shard_dir / segment_file_name(column, start)
            stack = _map_segment(file)
            telemetry.count("store.bytes_mapped", int(stack.nbytes))
            if stack.ndim != 3 or stack.shape[1] != shard.num_rows:
                raise RunStoreError(
                    f"feed shard file {file} has shape {stack.shape}, "
                    f"inconsistent with its {shard.num_rows} rows",
                    path=file,
                )
            if days is not None and stack.shape[0] != days:
                raise RunStoreError(
                    f"feed shard file {file} holds {stack.shape[0]} "
                    f"days where the manifest records {days}",
                    path=file,
                )
            pieces.append((start, stack))
            files.append((start, int(stack.shape[0]), file))
        setattr(
            shard,
            column,
            pieces[0][1] if len(pieces) == 1 else SegmentedStack(pieces),
        )
        shard.sources[column] = files
    return shard


def open_columnar(
    directory: str | Path,
    num_shards: int,
    *,
    segments: list[tuple[int, int]] | None = None,
) -> ShardedMobilityFeed:
    """Reopen a committed feed partition, memory-mapped.

    The dwell stacks stay read-only memory maps; the small identity
    columns are read into RAM.  ``segments`` — ``[(start_day,
    num_days), ...]`` from a live run's manifest — opens each dwell
    stack as a :class:`SegmentedStack` over its append-commit files;
    ``None`` (or one segment) is the canonical single-file layout.
    Raises :class:`~repro.io.errors.RunStoreError` naming the precise
    file for anything missing, truncated or malformed.
    """
    return ShardedMobilityFeed(
        [
            open_shard(directory, index, segments=segments)
            for index in range(num_shards)
        ]
    )


def window_days(
    shard: MobilityShard, column: str, start: int, stop: int
) -> list[np.ndarray]:
    """Day matrices for ``[start, stop)`` of one shard column, windowed.

    When the shard records its backing files (every stored shard), the
    window is served from *fresh* memory maps, one per segment it
    touches: the returned day views are the only thing keeping those
    maps alive, so dropping the list releases every consumed page.  A
    streaming reduction that walks windows this way keeps its resident
    set bounded by one window rather than by every page it ever
    touched — the peak-RSS-below-payload property the scale bench
    gates.  Falls back to slicing the shard's persistent stacks
    (in-memory feeds, pending writers) with identical values.
    """
    sources = (shard.sources or {}).get(column)
    if not sources:
        stack = getattr(shard, column)
        return [stack[day] for day in range(start, stop)]
    out: list[np.ndarray | None] = [None] * (stop - start)
    for seg_start, seg_days, path in sources:
        lo, hi = max(start, seg_start), min(stop, seg_start + seg_days)
        if lo >= hi:
            continue
        stack = _map_segment(path)
        for day in range(lo, hi):
            out[day - start] = stack[day - seg_start]
    missing = [start + i for i, block in enumerate(out) if block is None]
    if missing:
        raise RunStoreError(
            f"shard {shard.index} column {column} has no segment covering "
            f"day {missing[0]}"
        )
    telemetry.count("store.windows_mapped", 1)
    return out


def read_days(shard: MobilityShard, column: str, days):
    """Yield ``(day, matrix)`` for each of ``days`` of a column, in order.

    The one dwell reader of the per-shard analysis kernels.  Runs of
    consecutive days are read :data:`WINDOW_DAYS` at a time through
    :func:`window_days`, so each segment is mapped once per window.
    The generator drops a window before it maps the next, so a
    consumer that keeps no day past its iteration holds one window.
    """
    for lo, hi in _day_windows(days):
        window = window_days(shard, column, lo, hi)
        for offset in range(hi - lo):
            yield lo + offset, window[offset]
        del window


def _day_windows(days) -> list[tuple[int, int]]:
    """``[lo, hi)`` runs of consecutive ``days``, at most WINDOW_DAYS long."""
    windows: list[list[int]] = []
    for day in days:
        day = int(day)
        if (
            windows
            and day == windows[-1][1]
            and day - windows[-1][0] < WINDOW_DAYS
        ):
            windows[-1][1] = day + 1
        else:
            windows.append([day, day + 1])
    return [(lo, hi) for lo, hi in windows]


# ---------------------------------------------------------------------------
# Signalling-event partition
# ---------------------------------------------------------------------------


class _AppendColumn:
    """A ``.npy`` file grown by appends, finalized by a header patch.

    The engine produces signalling events one day at a time; buffering
    a whole run's worth before ``np.save`` would defeat the out-of-core
    store.  Instead the file starts with a fixed-width (space-padded)
    version-1 header declaring zero rows, each day's rows are appended
    raw, and :meth:`close` seeks back and rewrites the header with the
    final shape — same padded length, so the data never moves.  The
    bytes are a function of the appended arrays alone: streaming from
    the engine and rewriting from an in-memory dict produce identical
    files.  The file grows under the staging name of ``final``.
    """

    _HEADER_BYTES = 128

    def __init__(self, final: Path, dtype: np.dtype) -> None:
        self.final = final
        self.path = durable.staged(final)
        self.dtype = np.dtype(dtype)
        self.rows = 0
        self._handle = open(self.path, "wb")
        self._handle.write(self._header(0))

    def _header(self, rows: int) -> bytes:
        import struct

        magic = b"\x93NUMPY\x01\x00"
        body = (
            "{'descr': '%s', 'fortran_order': False, 'shape': (%d,), }"
            % (np.lib.format.dtype_to_descr(self.dtype), rows)
        ).encode("latin1")
        pad = self._HEADER_BYTES - len(magic) - 2 - 1 - len(body)
        if pad < 0:  # pragma: no cover - fixed dtypes keep headers short
            raise RunStoreError(
                f"npy header for {self.path} exceeds {self._HEADER_BYTES} "
                "bytes"
            )
        header = body + b" " * pad + b"\n"
        return magic + struct.pack("<H", len(header)) + header

    def append(self, array: np.ndarray) -> None:
        array = np.ascontiguousarray(array, dtype=self.dtype)
        self._handle.write(array.tobytes())
        self.rows += int(array.shape[0])

    def close(self) -> int:
        """Patch the final row count into the header; bytes written."""
        self._handle.seek(0)
        self._handle.write(self._header(self.rows))
        self._handle.close()
        return self.path.stat().st_size


class EventsWriter:
    """Creates one run's per-shard signalling-event partition.

    Events partition by the same deterministic user hash as the
    mobility shards (:func:`repro.simulation.sharding.stable_shard_of`),
    so a user's events live next to their dwell rows and per-shard
    analyses never cross shard boundaries.  Within a shard the layout
    is day-major append order plus a ``(num_days + 1,)`` prefix-sum
    offsets column — one slice per (shard, day) window::

        shard-NNNN/
          events_offsets.npy     # int64 prefix sums, day -> [lo, hi)
          events_user_id.npy     # 1-D, day-major
          events_site_id.npy
          events_timestamp_s.npy # float64
          events_event.npy
          events_result.npy

    Like :class:`ColumnarWriter`, everything lands under staging names
    and :meth:`commit` publishes it; the caller's manifest write is the
    overall commit point.
    """

    def __init__(
        self, directory: str | Path, num_shards: int, num_days: int
    ) -> None:
        self.run_directory = Path(directory)
        self.feeds_directory = self.run_directory / FEEDS_SUBDIR
        self.num_shards = int(num_shards)
        self.num_days = int(num_days)
        self.committed = False
        self._next_day = 0
        self._counts = np.zeros(
            (self.num_shards, self.num_days), dtype=np.int64
        )
        self._columns: list[dict[str, _AppendColumn]] = []
        for index in range(self.num_shards):
            shard_dir = self.feeds_directory / shard_dir_name(index)
            shard_dir.mkdir(parents=True, exist_ok=True)
            self._columns.append(
                {
                    column: _AppendColumn(
                        shard_dir / event_file_name(column), dtype
                    )
                    for column, dtype in EVENT_COLUMNS
                }
            )

    def write_day(self, day: int, frame) -> None:
        """Append one day's event frame, partitioned across the shards.

        Days must arrive in order — the layout is day-major and the
        offsets column is a prefix sum.
        """
        if day != self._next_day:
            raise RunStoreError(
                f"signalling events must be written in day order: got day "
                f"{day}, expected {self._next_day}"
            )
        user_ids = frame["user_id"]
        if self.num_shards == 1:
            assignments = None
        else:
            from repro.simulation.sharding import stable_shard_of

            assignments = stable_shard_of(user_ids, self.num_shards)
        for index in range(self.num_shards):
            if assignments is None:
                rows = None
                count = int(user_ids.shape[0])
            else:
                rows = np.flatnonzero(assignments == index)
                count = int(rows.shape[0])
            for column, writer in self._columns[index].items():
                values = frame[column]
                writer.append(values if rows is None else values[rows])
            self._counts[index, day] = count
        self._next_day += 1

    def write_all(self, signaling) -> None:
        """Stream every day of an existing mapping through the writer."""
        for day in range(self.num_days):
            self.write_day(day, signaling[day])

    def finish(self) -> "ShardedEventFeed":
        """The feed view over the (still uncommitted) partition."""
        return ShardedEventFeed(
            self.run_directory,
            self.num_shards,
            self.num_days,
            pending_writer=self,
        )

    def commit(self) -> list[str]:
        """Flush, patch headers, publish every event file."""
        if self._next_day != self.num_days:
            raise RunStoreError(
                f"event partition covers {self._next_day} of "
                f"{self.num_days} days; cannot commit"
            )
        for columns in self._columns:
            _require_staged(self, columns.values())
        with telemetry.span("events_commit") as sp:
            written = 0
            for index in range(self.num_shards):
                shard_dir = self.feeds_directory / shard_dir_name(index)
                offsets = np.concatenate(
                    [
                        np.zeros(1, dtype=np.int64),
                        np.cumsum(self._counts[index]),
                    ]
                )
                with durable.writing(
                    shard_dir / _EVENT_OFFSETS
                ) as staging, open(staging, "wb") as handle:
                    np.save(handle, offsets)
                for writer in self._columns[index].values():
                    written += writer.close()
                    durable.publish(writer.path, writer.final)
            sp.add("bytes", written)
        self.committed = True
        return event_relative_paths(self.num_shards)


class ShardedEventFeed:
    """Day-keyed view over a per-shard signalling-event partition.

    Drop-in for the engine's in-memory ``dict[int, Frame]`` — mapping-style
    ``feeds.signaling[day]`` / ``len`` / iteration all work — but each
    day is assembled from per-shard windows mapped *fresh* on every
    call, so consuming a day and dropping the frame releases its pages.
    Streaming consumers iterate :meth:`chunks` for the per-shard
    user-partitioned pieces (ready for
    :func:`repro.core.sessionize.sessionize_events_stream`).
    """

    def __init__(
        self,
        directory: str | Path,
        num_shards: int,
        num_days: int,
        *,
        pending_writer: EventsWriter | None = None,
    ) -> None:
        self.run_directory = Path(directory)
        self.feeds_directory = self.run_directory / FEEDS_SUBDIR
        self.num_shards = int(num_shards)
        self.num_days = int(num_days)
        self.pending_writer = pending_writer
        self._offsets: dict[int, np.ndarray] = {}

    # -- mapping protocol (dict[int, Frame] compatibility) --------------

    def __len__(self) -> int:
        return self.num_days

    def __iter__(self):
        return iter(range(self.num_days))

    def __contains__(self, day) -> bool:
        return isinstance(day, int) and 0 <= day < self.num_days

    def __getitem__(self, day: int):
        return self.day(day)

    def keys(self):
        return range(self.num_days)

    def values(self):
        return (self.day(day) for day in range(self.num_days))

    def items(self):
        return ((day, self.day(day)) for day in range(self.num_days))

    # -- access ---------------------------------------------------------

    def _check_committed(self) -> None:
        if self.pending_writer is not None and not self.pending_writer.committed:
            raise RunStoreError(
                "signalling events were streamed to disk but not yet "
                "committed; save the run before reading them back"
            )

    def _shard_offsets(self, index: int) -> np.ndarray:
        offsets = self._offsets.get(index)
        if offsets is None:
            path = (
                self.feeds_directory / shard_dir_name(index) / _EVENT_OFFSETS
            )
            offsets = _load_column(path)
            if offsets.shape != (self.num_days + 1,):
                raise RunStoreError(
                    f"event offsets file {path} has shape {offsets.shape}; "
                    f"expected ({self.num_days + 1},)",
                    path=path,
                )
            self._offsets[index] = offsets
        return offsets

    @property
    def num_events(self) -> int:
        self._check_committed()
        return sum(
            int(self._shard_offsets(index)[-1])
            for index in range(self.num_shards)
        )

    def shard_day(self, shard_index: int, day: int):
        """One shard's slice of one day, as a Frame of window views.

        The returned frame's columns are views into maps opened by this
        call — dropping the frame releases them (windowed consumption).
        """
        from repro.frames import Frame

        self._check_committed()
        if not 0 <= day < self.num_days:
            raise IndexError(f"day {day} out of range")
        offsets = self._shard_offsets(shard_index)
        lo, hi = int(offsets[day]), int(offsets[day + 1])
        shard_dir = self.feeds_directory / shard_dir_name(shard_index)
        columns = {}
        for column, dtype in EVENT_COLUMNS:
            path = shard_dir / event_file_name(column)
            values = _map_segment(path)[lo:hi]
            if values.dtype != dtype:
                raise RunStoreError(
                    f"event file {path} has dtype {values.dtype}; "
                    f"expected {dtype}",
                    path=path,
                )
            columns[column] = values
        telemetry.count("store.event_windows_mapped", 1)
        return Frame(columns)

    def chunks(self, day: int):
        """Per-shard user-partitioned frames of one day, in shard order."""
        return (
            self.shard_day(index, day) for index in range(self.num_shards)
        )

    def day(self, day: int):
        """One full day's frame, bitwise equal to the engine's output.

        The generator emits day frames sorted by ``(user_id,
        timestamp_s)`` and the partition keeps each user's rows in one
        shard in original order, so concatenating the shard slices and
        stable-sorting on ``user_id`` alone reproduces the original
        row order exactly.
        """
        from repro.frames import concat

        pieces = [self.shard_day(index, day) for index in range(self.num_shards)]
        if len(pieces) == 1:
            return pieces[0]
        return concat(pieces).sort_by(["user_id"])


def open_events(
    directory: str | Path,
    num_shards: int,
    num_days: int,
) -> ShardedEventFeed:
    """Reopen a committed event partition as a day-keyed feed view."""
    feed = ShardedEventFeed(directory, num_shards, num_days)
    for index in range(num_shards):
        feed._shard_offsets(index)  # validates presence and shape
    return feed
