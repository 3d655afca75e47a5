"""Sharded execution: partitioning, per-shard payloads, and reductions.

The day loop of :class:`repro.simulation.engine.Simulator` is
embarrassingly parallel across *users*: every agent's dwell, demand and
voice contribution lands on cell sites through ``np.bincount`` scatters,
which reduce across any partition of the population by pure summation.
This module owns everything that makes that decomposition safe:

- :class:`ParallelismSettings` — the ``parallelism`` block of
  :class:`~repro.simulation.config.SimulationConfig` (``num_shards`` ×
  ``workers``);
- :func:`stable_shard_of` / :func:`shard_user_indices` — a seed- and
  platform-stable hash partition of the agent population;
- :class:`ShardDayLoad` / :class:`ShardResult` — the per-day
  accumulators one (shard, window) task ships back to the coordinator;
- :func:`merge_day_loads` — the associative reduction that sums shard
  payloads' site loads into the exact arrays the serial engine produces.

Determinism contract
--------------------
Per-user randomness in the engine is drawn from *global* per-day
``SeedSequence`` streams (index-aligned with the agent population) and
then sliced per shard.  That is the only scheme that is simultaneously

1. **serial-equal** — a single-shard run consumes the streams exactly
   like the unsharded engine, and
2. **shard-count invariant** — a user's draws do not depend on which
   shard the hash assigns it to, so K = 2 and K = 7 agree.

Per-user arrays (dwell matrices) are therefore *bitwise* identical for
every shard count.  Per-cell aggregates are summed shard-by-shard, so
floating-point association makes them ``allclose``-equal (not bitwise)
between different shard counts; repeated runs at the same shard count
are bitwise identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "WINDOW_DAYS",
    "ParallelismSettings",
    "ShardDayLoad",
    "ShardResult",
    "MergedDay",
    "stable_shard_of",
    "shard_user_indices",
    "merge_day_loads",
]

#: Study days per window: the engine runs each shard one window at a
#: time (its (shard, window) tasks), and the per-shard analysis kernels
#: map stored dwell one window at a time (:func:`repro.io.columnar.
#: read_days`).
WINDOW_DAYS = 7


@dataclass(frozen=True)
class ParallelismSettings:
    """The ``parallelism`` block of a simulation configuration.

    ``num_shards`` is the number of deterministic user partitions the
    day loop runs over; ``workers`` is the number of OS processes used
    to execute them.  ``workers=1`` runs the shards sequentially in
    process (useful for testing the sharded math without pool
    overhead); ``num_shards=1`` is the plain serial engine.  Results
    are independent of ``workers`` by construction and independent of
    ``num_shards`` per the contract in :mod:`repro.simulation.sharding`.
    """

    num_shards: int = 1
    workers: int = 1

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @property
    def sharded(self) -> bool:
        return self.num_shards > 1

    @property
    def uses_pool(self) -> bool:
        return self.workers > 1 and self.num_shards > 1


# -- partitioning -----------------------------------------------------------

def _splitmix64(values: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: a stable, well-mixed 64-bit hash."""
    x = values.astype(np.uint64, copy=True)
    x += np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def stable_shard_of(user_ids: np.ndarray, num_shards: int) -> np.ndarray:
    """Shard index per user: a stable hash of the user id, mod K.

    Independent of Python's randomized ``hash``, the platform, and the
    ordering of ``user_ids`` — the same user lands in the same shard on
    every run and machine.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    hashed = _splitmix64(np.asarray(user_ids, dtype=np.int64))
    return (hashed % np.uint64(num_shards)).astype(np.int64)


def shard_user_indices(
    user_ids: np.ndarray, num_shards: int
) -> list[np.ndarray]:
    """Row-index arrays (ascending) of each shard's users.

    Every user appears in exactly one shard; shards may be empty for
    tiny populations.  Row order within a shard follows the population
    order, so one fancy index takes a shard's slice of a population
    array and one fancy-index write per shard assembles a feed's day.
    """
    assignments = stable_shard_of(user_ids, num_shards)
    return [
        np.flatnonzero(assignments == shard) for shard in range(num_shards)
    ]


# -- per-shard payloads -----------------------------------------------------

@dataclass
class ShardDayLoad:
    """One shard's reducible accumulators for one simulation day.

    The five ``(num_sites, NUM_BINS)`` site loads reduce across shards
    by summation; the per-user rows (``daily_dwell`` etc.) go to the
    feed's shard of the same rows.  ``dwell_s``, the per-bin dwell the
    signalling emitter reads, is present only when the configuration
    emits signalling.
    """

    presence: np.ndarray
    activity: np.ndarray
    dl_mb: np.ndarray
    ul_mb: np.ndarray
    voice_minutes: np.ndarray
    daily_dwell: np.ndarray  # (n, NUM_ANCHORS) float32
    night_dwell: np.ndarray  # (n, NUM_ANCHORS) float32, pre-dropout
    total_connected_s: float
    dwell_s: np.ndarray | None = None  # (n, NUM_BINS, NUM_ANCHORS) float64


@dataclass
class ShardResult:
    """What one (shard, window) task produced.

    ``indices`` are the shard's population rows; ``days`` holds one
    :class:`ShardDayLoad` per day of the window, indexed from the
    window's first day.  The coordinator takes each day exactly once
    and sets its slot to ``None``, so a day's loads are dropped once
    merged and their dwell rows handed to the feed.

    ``telemetry`` carries a :mod:`repro.telemetry` snapshot when the
    task ran in a pool worker with telemetry enabled — the plain-dict
    form crosses the process boundary and is absorbed into the
    coordinator's recorder (in-process tasks record directly and leave
    it ``None``).
    """

    indices: np.ndarray | None  # None = the whole population
    days: list[ShardDayLoad | None] = field(default_factory=list)
    telemetry: dict | None = None


@dataclass
class MergedDay:
    """One day's site loads reduced back to the serial engine's arrays."""

    presence: np.ndarray
    activity: np.ndarray
    dl_mb: np.ndarray
    ul_mb: np.ndarray
    voice_minutes: np.ndarray
    total_connected_s: float
    dwell_s: np.ndarray | None


def _reduce_sum(arrays: list[np.ndarray]) -> np.ndarray:
    """Sum payload arrays in shard order; pass single payloads through.

    The single-shard fast path returns the array unchanged, which keeps
    the serial engine bitwise-identical to the historical implementation
    (no extra copy, no extra addition).
    """
    if len(arrays) == 1:
        return arrays[0]
    total = arrays[0].copy()
    for array in arrays[1:]:
        total += array
    return total


def _scatter_rows(
    num_users: int,
    indices_list: list[np.ndarray],
    rows_list: list[np.ndarray],
) -> np.ndarray:
    """Reassemble per-user rows from shard payloads (a single payload
    is already the whole population's and passes through)."""
    if len(rows_list) == 1:
        return rows_list[0]
    template = rows_list[0]
    out = np.zeros((num_users, *template.shape[1:]), dtype=template.dtype)
    for indices, rows in zip(indices_list, rows_list):
        if indices.size:
            out[indices] = rows
    return out


def merge_day_loads(
    num_users: int,
    indices_list: list[np.ndarray],
    loads: list[ShardDayLoad],
) -> MergedDay:
    """Associatively reduce one day's shard payloads.

    Site loads are summed in shard order (hence ``allclose``-equal,
    not bitwise, across different shard counts); a signalling run's
    per-bin dwell is scattered to population order at each shard's rows
    (``indices_list``) for the emitter.  Dwell rows stay in the shard
    payloads.
    """
    if len(loads) != len(indices_list):
        raise ValueError("one payload per shard expected")
    return MergedDay(
        presence=_reduce_sum([load.presence for load in loads]),
        activity=_reduce_sum([load.activity for load in loads]),
        dl_mb=_reduce_sum([load.dl_mb for load in loads]),
        ul_mb=_reduce_sum([load.ul_mb for load in loads]),
        voice_minutes=_reduce_sum([load.voice_minutes for load in loads]),
        total_connected_s=float(
            sum(load.total_connected_s for load in loads)
        ),
        dwell_s=(
            _scatter_rows(
                num_users,
                indices_list,
                [load.dwell_s for load in loads],
            )
            if loads[0].dwell_s is not None
            else None
        ),
    )
