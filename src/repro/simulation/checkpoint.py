"""Per-shard, per-day checkpoints: crash-safe state for long runs.

A simulation of the paper's full window walks 98+ days per shard; a
worker crash on day 60 must not throw away days 0–59.  The engine
therefore persists every completed :class:`~repro.simulation.sharding.
ShardDayLoad` into ``<run-dir>/checkpoints/`` as it is produced, and a
restarted run (``python -m repro simulate --resume <run-dir>``) loads
the completed days back and computes only the missing ones.  Live runs
(:meth:`repro.api.Run.advance`) attach the same store per advance:
checkpoint keys are *absolute* day indices, so a killed advance leaves
its window days here and the retried advance restores them instead of
recomputing.

Resume is *bitwise-faithful*: each shard-day is a pure function of the
configuration (per-day ``SeedSequence`` streams, no cross-day state in
the shard loop — see :mod:`repro.simulation.sharding`), and the NPZ
container round-trips float arrays exactly, so a resumed run's feeds
are byte-for-byte the feeds of an uninterrupted run at the same shard
count.  The global stages (voice interconnect, scheduler, KPI
reduction) always replay in the coordinator over all days, restored or
fresh, so their day-sequential state needs no checkpointing.

Layout::

    <run-dir>/checkpoints/
      state.json                  # format version, config digest, layout
      config.pkl                  # the exact SimulationConfig (resume source)
      shard000_day000.npz         # one ShardDayLoad, checksummed
      shard000_day001.npz
      ...

Safety properties:

- **atomic** — day files, ``config.pkl`` and ``state.json`` (last)
  are staged and published like every file of a run
  (:mod:`repro.io.durable`); a crash mid-write leaves no file under the
  final name, so a partial day is recomputed, never trusted, and a
  torn ``attach`` leaves no store at all;
- **validated** — every day file embeds a SHA-256 over its payload
  arrays plus its (shard, day) identity; corruption or a misplaced
  file raises :class:`CheckpointError` naming the offending file;
- **config-pinned** — ``state.json`` records a digest of the
  result-determining configuration fields; attaching a store built
  from a different configuration is refused.  Operational knobs that
  cannot change results (worker count, retry policy, fault spec) are
  excluded from the digest, so a run may be resumed with different
  workers or with the fault plan cleared.

Workers write concurrently without coordination because the
(shard, day) key space is partitioned: no two tasks ever produce the
same file.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.io.durable import writing
from repro.io.errors import RunStoreError
from repro.simulation.sharding import ShardDayLoad

__all__ = ["CheckpointError", "CheckpointStore", "config_digest"]

FORMAT_VERSION = 1

_SUBDIR = "checkpoints"
_STATE = "state.json"
_CONFIG = "config.pkl"

#: ShardDayLoad array fields in serialization order; ``dwell_s`` is
#: absent from the archive unless the configuration emits signalling.
_REQUIRED_FIELDS = (
    "presence",
    "activity",
    "dl_mb",
    "ul_mb",
    "voice_minutes",
    "daily_dwell",
    "night_dwell",
)


class CheckpointError(RunStoreError):
    """A checkpoint store is missing, inconsistent, or corrupt."""


def config_digest(config) -> str:
    """Digest of the result-determining fields of a configuration.

    Operational fields that cannot change the produced feeds are
    normalized away before hashing: the fault plan (decides whether an
    attempt fails, never what it computes), the retry policy, and the
    worker count (results are layout-independent per the sharding
    contract, but the *shard count* stays in — checkpoint files are
    keyed by shard).
    """
    from repro.simulation.faults import RecoverySettings
    from repro.simulation.sharding import ParallelismSettings

    normalized = replace(
        config,
        fault_spec=None,
        recovery=RecoverySettings(),
        parallelism=ParallelismSettings(
            num_shards=config.parallelism.num_shards, workers=1
        ),
    )
    return hashlib.sha256(pickle.dumps(normalized)).hexdigest()


def _payload_digest(arrays: dict[str, np.ndarray]) -> str:
    sha = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        sha.update(name.encode())
        sha.update(repr(array.shape).encode())
        sha.update(array.dtype.str.encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


class CheckpointStore:
    """The ``checkpoints/`` directory of one run.

    Create (or re-open for resume) with :meth:`attach`, open an
    existing store with :meth:`open`; both validate ``state.json``.
    """

    def __init__(self, run_directory: str | Path, state: dict) -> None:
        self.run_directory = Path(run_directory)
        self.directory = self.run_directory / _SUBDIR
        self._state = state

    # -- lifecycle ---------------------------------------------------------
    @staticmethod
    def present(run_directory: str | Path) -> bool:
        """True when ``run_directory`` holds a checkpoint store."""
        return (Path(run_directory) / _SUBDIR / _STATE).exists()

    @classmethod
    def attach(cls, run_directory: str | Path, config) -> "CheckpointStore":
        """Create the store for ``config``, or re-open a matching one.

        Re-opening (the resume path) validates that the existing store
        was produced by the same result-determining configuration and
        the same shard count; a mismatch raises :class:`CheckpointError`
        rather than silently mixing two runs' state.
        """
        digest = config_digest(config)
        if cls.present(run_directory):
            store = cls.open(run_directory)
            if store._state["config_digest"] != digest:
                raise CheckpointError(
                    f"checkpoints in {store.directory} were written by a "
                    "different configuration; delete them or resume with "
                    "the stored configuration",
                    path=store.directory / _STATE,
                )
            return store
        directory = Path(run_directory) / _SUBDIR
        directory.mkdir(parents=True, exist_ok=True)
        with writing(directory / _CONFIG) as staging, open(
            staging, "wb"
        ) as handle:
            pickle.dump(config, handle)
        state = {
            "format_version": FORMAT_VERSION,
            "config_digest": digest,
            "num_shards": config.parallelism.num_shards,
            "num_days": int(config.calendar.num_days),
            "num_users": int(config.num_users),
        }
        # Last: state.json is what present() looks for, so a crash
        # before this publish leaves no store rather than a torn one.
        with writing(directory / _STATE) as staging:
            staging.write_text(json.dumps(state, indent=2), encoding="utf-8")
        return cls(run_directory, state)

    @classmethod
    def open(cls, run_directory: str | Path) -> "CheckpointStore":
        """Open an existing store (raises if there is none)."""
        state_path = Path(run_directory) / _SUBDIR / _STATE
        if not state_path.exists():
            raise CheckpointError(
                f"no checkpoint store in {run_directory} (missing "
                f"{state_path}); nothing to resume",
                path=state_path,
            )
        try:
            state = json.loads(state_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as err:
            raise CheckpointError(
                f"unreadable checkpoint state {state_path}: {err}",
                path=state_path,
            ) from err
        if state.get("format_version") != FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint format "
                f"{state.get('format_version')!r} in {state_path}",
                path=state_path,
            )
        return cls(run_directory, state)

    def load_config(self):
        """The exact configuration the checkpointed run started with.

        Raises :class:`CheckpointError` naming ``state.json`` when the
        stored configuration no longer hashes to the digest recorded
        there: another version of repro wrote the store (its
        configuration has other fields) or it was damaged, and its days
        cannot be trusted.
        """
        path = self.directory / _CONFIG
        try:
            with open(path, "rb") as handle:
                config = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError) as err:
            raise CheckpointError(
                f"unreadable checkpoint config {path}: {err}", path=path
            ) from err
        if config_digest(config) != self._state.get("config_digest"):
            raise CheckpointError(
                f"checkpoints in {self.directory} were written by another "
                "version of repro (or damaged): their configuration does "
                f"not match the digest in {_STATE}, so they cannot be "
                f"resumed; delete {self.directory} and simulate again",
                path=self.directory / _STATE,
            )
        return config

    def clear(self) -> None:
        """Delete the store (after the run is saved successfully)."""
        shutil.rmtree(self.directory, ignore_errors=True)

    # -- day files ---------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return int(self._state["num_shards"])

    def day_path(self, shard: int, day: int) -> Path:
        return self.directory / f"shard{shard:03d}_day{day:03d}.npz"

    def save_day(self, shard: int, day: int, load: ShardDayLoad) -> None:
        """Atomically persist one completed shard-day."""
        payload: dict[str, np.ndarray] = {}
        for name in _REQUIRED_FIELDS:
            payload[name] = np.asarray(getattr(load, name))
        if load.dwell_s is not None:
            payload["dwell_s"] = np.asarray(load.dwell_s)
        payload["total_connected_s"] = np.float64(load.total_connected_s)
        payload["shard_day"] = np.array([shard, day], dtype=np.int64)
        checksum = _payload_digest(payload)

        with writing(self.day_path(shard, day)) as staging, open(
            staging, "wb"
        ) as handle:
            np.savez(handle, checksum=np.array(checksum), **payload)

    def load_day(
        self, shard: int, day: int, *, missing_ok: bool = False
    ) -> ShardDayLoad | None:
        """Restore one shard-day, validating integrity and identity.

        Returns ``None`` for an absent day when ``missing_ok`` (the
        engine's "compute it instead" signal).  Any present-but-wrong
        file — truncated, bit-flipped, or renamed onto the wrong
        (shard, day) — raises :class:`CheckpointError` naming it.
        """
        path = self.day_path(shard, day)
        if not path.exists():
            if missing_ok:
                return None
            raise CheckpointError(
                f"checkpoint {path} is missing", path=path
            )
        try:
            with np.load(path) as archive:
                arrays = {name: archive[name] for name in archive.files}
        except Exception as err:
            raise CheckpointError(
                f"checkpoint {path} is corrupt: {err}", path=path
            ) from err
        checksum = arrays.pop("checksum", None)
        if checksum is None or str(checksum) != _payload_digest(arrays):
            raise CheckpointError(
                f"checkpoint {path} failed its checksum (truncated or "
                "tampered); delete it and resume to recompute the day",
                path=path,
            )
        identity = arrays.pop("shard_day")
        if int(identity[0]) != shard or int(identity[1]) != day:
            raise CheckpointError(
                f"checkpoint {path} holds shard {int(identity[0])} day "
                f"{int(identity[1])}, not shard {shard} day {day} "
                "(misplaced file)",
                path=path,
            )
        missing = [name for name in _REQUIRED_FIELDS if name not in arrays]
        if missing:
            raise CheckpointError(
                f"checkpoint {path} is missing arrays: {missing}",
                path=path,
            )
        return ShardDayLoad(
            presence=arrays["presence"],
            activity=arrays["activity"],
            dl_mb=arrays["dl_mb"],
            ul_mb=arrays["ul_mb"],
            voice_minutes=arrays["voice_minutes"],
            daily_dwell=arrays["daily_dwell"],
            night_dwell=arrays["night_dwell"],
            total_connected_s=float(arrays["total_connected_s"]),
            dwell_s=arrays.get("dwell_s"),
        )

    def completed_days(self, shard: int) -> list[int]:
        """Day indices with a (named) checkpoint file for ``shard``.

        Presence only — integrity is validated at :meth:`load_day`
        time.  ``*.tmp`` leftovers from a crash mid-write are invisible
        here because they never carry the final name.
        """
        prefix = f"shard{shard:03d}_day"
        days = []
        for path in self.directory.glob(f"{prefix}*.npz"):
            suffix = path.name[len(prefix):-len(".npz")]
            if suffix.isdigit():
                days.append(int(suffix))
        return sorted(days)
