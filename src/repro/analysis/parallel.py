"""Where the per-shard analysis kernels run: in process or in a pool.

The analysis kernels are shard-partitioned by construction: entropy,
gyration and the night-win counts are strictly row-independent, so
every per-shard partial can be computed from *that shard's files
alone* and merged associatively.
:func:`walk_shards` is the one executor choice for the mobility
kernels: it runs their tasks over the feed's already-open shards in
process, or fans them across a
:class:`~concurrent.futures.ProcessPoolExecutor` (:func:`map_shards`).

No feed object ever crosses the process boundary.  A worker receives
only a :class:`ShardPlan` — the run directory, the shard layout, the
segment spans — via the pool initializer and calls
:func:`repro.io.columnar.open_shard` itself, memory-mapping exactly its
shard's files.  Both executors dispatch to the *same* task functions
over the same per-shard kernels
(:func:`repro.core.statistics.shard_metric_blocks`,
:func:`repro.core.home.shard_night_win_counts`), so the partials are
bitwise identical by construction for any (shards × workers), and the
coordinator merge is a scatter into disjoint population rows.

Serial analysis is ``workers=1``.  When the pool cannot start or dies
(:class:`_PoolLost`), the coordinator degrades to running the
identical task functions in-process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import telemetry

__all__ = [
    "ShardPlan",
    "map_shards",
    "plan_for",
    "resolve_workers",
    "walk_shards",
]


def resolve_workers(workers: int | str) -> int:
    """Resolve a ``workers`` request to a concrete worker count.

    ``"auto"`` resolves to the CPU count and a positive integer passes
    through; anything else raises :class:`ValueError`.
    """
    if workers == "auto":
        return max(1, os.cpu_count() or 1)
    if (
        isinstance(workers, bool)
        or not isinstance(workers, (int, np.integer))
        or workers < 1
    ):
        raise ValueError(
            f"workers must be a positive integer or 'auto', got {workers!r}"
        )
    return int(workers)


@dataclass(frozen=True)
class ShardPlan:
    """Everything a pool worker needs to re-open one run's shards.

    Plain picklable pieces only — the run directory and the layout
    facts a worker needs to call :func:`repro.io.columnar.open_shard`
    itself.  Feed objects never cross the process boundary.
    """

    directory: str
    num_shards: int
    num_days: int
    segments: tuple[tuple[int, int], ...] | None


def plan_for(feeds) -> ShardPlan | None:
    """A :class:`ShardPlan` for this bundle, or ``None`` if ineligible.

    Eligible bundles back onto a *committed* columnar run: the bundle
    records its source directory, its mobility shards map files with
    no pending (uncommitted) writer, and the directory's manifest still
    describes a columnar layout with the same shard count.  In-memory
    feeds (:attr:`~repro.io.columnar.ShardedMobilityFeed.in_memory`)
    never get a plan, saved or not.  Callers run in process on
    ``None`` — the pool is an optimisation, never a requirement.
    """
    import json

    directory = getattr(feeds, "source_directory", None)
    mobility = feeds.mobility
    if directory is None or mobility.in_memory:
        return None
    if mobility.pending_writer is not None:
        return None
    try:
        manifest = json.loads(
            (Path(directory) / "manifest.json").read_text(encoding="utf-8")
        )
    except (OSError, ValueError):
        return None
    block = manifest.get("feeds") or {}
    if block.get("layout") != "columnar":
        return None
    if int(block.get("num_shards", 0)) != mobility.num_shards:
        return None
    raw_segments = block.get("segments")
    segments = (
        tuple((int(start), int(days)) for start, days in raw_segments)
        if raw_segments
        else None
    )
    return ShardPlan(
        directory=str(directory),
        num_shards=mobility.num_shards,
        num_days=int(manifest.get("num_days", mobility.num_days)),
        segments=segments,
    )


# -- worker side ------------------------------------------------------------
# Workers open their own maps once per process via the pool initializer
# and serve any number of shard tasks from them.  Mirrors the engine's
# pool plumbing: when the coordinator has telemetry enabled, each
# worker records into its own recorder and ships a snapshot back with
# every payload; the recorder is reset at the start of every task so a
# failed attempt's partial telemetry never rides home on a later task.


@dataclass
class _WorkerState:
    """Per-process cache of opened shard maps and context arrays.

    ``plan`` is ``None`` for the in-process executor of
    :func:`walk_shards`, which hands over the feed's open shards.
    """

    plan: ShardPlan | None
    site_lats: np.ndarray | None
    site_lons: np.ndarray | None
    shards: dict = field(default_factory=dict)

    def shard(self, index: int):
        from repro.io import columnar

        shard = self.shards.get(index)
        if shard is None:
            shard = columnar.open_shard(
                self.plan.directory,
                index,
                segments=(
                    list(self.plan.segments) if self.plan.segments else None
                ),
            )
            self.shards[index] = shard
        return shard


_WORKER_STATE: _WorkerState | None = None


class _PoolLost(Exception):
    """Internal: the process pool died or never started — degrade."""


def _worker_init(
    plan: ShardPlan,
    site_lats: np.ndarray | None,
    site_lons: np.ndarray | None,
    record_telemetry: bool = False,
) -> None:  # pragma: no cover - runs in pool workers
    global _WORKER_STATE
    _WORKER_STATE = _WorkerState(plan, site_lats, site_lons)
    if record_telemetry:
        telemetry.enable()


def _worker_run(task: tuple):  # pragma: no cover - runs in pool workers
    """Run one shard task in a pool worker; returns (payload, snapshot)."""
    assert _WORKER_STATE is not None, "pool worker not initialized"
    recorder = telemetry.active()
    if recorder is not None:
        recorder.reset()
    payload = _run_task(_WORKER_STATE, task)
    snapshot = None
    if recorder is not None:
        snapshot = recorder.snapshot()
        recorder.reset()
    return payload, snapshot


def _run_task(state: _WorkerState, task: tuple):
    """Dispatch one ``(name, shard_index, kwargs)`` task.

    The single executable form of a shard task, shared verbatim by the
    pool workers, the in-process degraded path and the in-process
    executor of :func:`walk_shards` — every executor is bitwise
    identical because it *is* the same code.
    """
    name, shard_index, kwargs = task
    return _TASKS[name](state, shard_index, **kwargs)


def _task_metrics(
    state: _WorkerState,
    shard_index: int,
    *,
    gyration_mode: str,
    top_towers: int,
    day_lo: int,
    day_hi: int,
):
    from repro.core.statistics import shard_metric_blocks

    shard = state.shard(shard_index)
    telemetry.count("store.shards_streamed", 1)
    entropy, gyration = shard_metric_blocks(
        shard,
        state.site_lats,
        state.site_lons,
        gyration_mode=gyration_mode,
        top_towers=top_towers,
        day_lo=day_lo,
        day_hi=day_hi,
    )
    return shard.rows, entropy, gyration


def _task_night_counts(
    state: _WorkerState, shard_index: int, *, window_days: list[int]
):
    from repro.core.home import shard_night_win_counts

    shard = state.shard(shard_index)
    telemetry.count("store.shards_streamed", 1)
    counts = shard_night_win_counts(
        shard, np.asarray(window_days, dtype=np.int64)
    )
    return shard.rows, counts


_TASKS = {
    "metrics": _task_metrics,
    "night_counts": _task_night_counts,
}


# -- coordinator side -------------------------------------------------------


def map_shards(
    plan: ShardPlan,
    tasks: list[tuple],
    *,
    workers: int,
    site_lats: np.ndarray | None = None,
    site_lons: np.ndarray | None = None,
    span_name: str = "analysis_fanout",
) -> list:
    """Run per-shard ``tasks`` over ``plan``, preserving task order.

    Each task is ``(task_name, shard_index, kwargs)``.  With
    ``workers`` > 1 the tasks run in a process pool whose initializer
    hands every worker the plan — the workers open their own shard
    maps.  A pool that cannot start or
    dies degrades to executing the identical task functions in-process
    (counted as ``analysis.pool_degraded``); results are bitwise the
    same either way.  Worker telemetry snapshots are absorbed under the
    dispatching span, and every merged payload counts
    ``analysis.worker_merge``.
    """
    if not tasks:
        return []
    workers = max(1, min(int(workers), len(tasks)))
    with telemetry.span(span_name) as span:
        telemetry.count("analysis.shards_dispatched", len(tasks))
        results = None
        if workers > 1:
            try:
                results = _map_pool(
                    plan, tasks, workers, site_lats, site_lons, span
                )
            except _PoolLost:
                telemetry.count("analysis.pool_degraded", 1)
                results = None
        if results is None:
            state = _WorkerState(plan, site_lats, site_lons)
            results = [_run_task(state, task) for task in tasks]
            telemetry.count("analysis.worker_merge", len(tasks))
    return results


def _map_pool(
    plan: ShardPlan,
    tasks: list[tuple],
    workers: int,
    site_lats: np.ndarray | None,
    site_lons: np.ndarray | None,
    span,
) -> list:
    from concurrent.futures import FIRST_COMPLETED, wait
    from concurrent.futures.process import BrokenProcessPool

    try:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(plan, site_lats, site_lons, telemetry.enabled()),
        ) as pool:
            pending = {
                pool.submit(_worker_run, task): position
                for position, task in enumerate(tasks)
            }
            results: list = [None] * len(tasks)
            while pending:
                done, _ = wait(set(pending), return_when=FIRST_COMPLETED)
                for future in done:
                    position = pending.pop(future)
                    try:
                        payload, snapshot = future.result()
                    except BrokenProcessPool as err:
                        raise _PoolLost from err
                    if snapshot is not None:
                        telemetry.absorb(snapshot, prefix=span.path)
                    telemetry.count("analysis.worker_merge", 1)
                    results[position] = payload
            return results
    except _PoolLost:
        raise
    except (OSError, ValueError, RuntimeError, ImportError) as err:
        # The pool itself is unusable (could not start, lost its
        # semaphores, a task raised, ...) — degrade to in-process
        # execution of the same task functions; genuine task errors
        # re-raise there with a usable traceback.
        raise _PoolLost from err


def walk_shards(
    feeds,
    task: str,
    kwargs: dict,
    *,
    workers: int | str | None,
    site_lats: np.ndarray | None = None,
    site_lons: np.ndarray | None = None,
) -> list:
    """Run one shard task on every non-empty mobility shard of ``feeds``.

    The single executor choice of the per-shard mobility kernels.  The
    tasks run in process over the feed's already-open shards (never
    reopened from disk) when ``workers`` is ``None`` or resolves to 1,
    or when the feed has no :func:`plan_for` — the engine's in-memory
    feeds never do.  Otherwise they fan
    across the process pool of :func:`map_shards`.  Either way each
    payload is ``(rows, *blocks)`` in shard order, from the same task
    function, so the caller's scatter at ``rows`` is bitwise identical
    for every executor.
    """
    shards = [shard for shard in feeds.mobility.shards if shard.num_rows]
    tasks = [(task, shard.index, kwargs) for shard in shards]
    count = None if workers is None else resolve_workers(workers)
    plan = plan_for(feeds) if count is not None and count > 1 else None
    if plan is None:
        state = _WorkerState(
            None,
            site_lats,
            site_lons,
            shards={shard.index: shard for shard in shards},
        )
        return [_run_task(state, entry) for entry in tasks]
    return map_shards(
        plan, tasks, workers=count, site_lats=site_lats, site_lons=site_lons
    )
