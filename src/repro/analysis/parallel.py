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
    "map_figure_chains",
    "map_shards",
    "plan_for",
    "resolve_workers",
    "walk_shards",
]


def resolve_workers(workers: int | str | None) -> int:
    """Resolve a ``workers`` request to a concrete worker count.

    ``None``, ``0`` and ``"auto"`` resolve to the CPU count; anything
    else must be a positive integer and passes through.
    """
    if workers in (None, 0, "auto"):
        return max(1, os.cpu_count() or 1)
    count = int(workers)
    if count < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    return count


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
    records its source directory, its mobility view is a
    :class:`~repro.io.columnar.ShardedMobilityFeed` with no pending
    (uncommitted) writer, and the directory's manifest still describes
    a columnar layout with the same shard count.  In-memory feeds never
    get a plan.  Callers run in process on ``None`` — the pool is an
    optimisation, never a requirement.
    """
    import json

    from repro.io.columnar import ShardedMobilityFeed

    directory = getattr(feeds, "source_directory", None)
    mobility = feeds.mobility
    if directory is None or not isinstance(mobility, ShardedMobilityFeed):
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
                lazy=True,
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
    or when the feed has no :func:`plan_for` — in-memory feeds, whose
    one shard is the whole population, never do.  Otherwise they fan
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


# -- figure-chain fan-out ---------------------------------------------------
# The study's figure chains are CPU-bound numpy reductions; a thread
# pool leaves most of the arithmetic serialized behind the GIL.  When a
# run is persisted with an artifact cache, the chains can instead run
# in pool workers that rebuild a study of their own — the initializer
# loads the run lazily and attaches the same content-addressed cache,
# so every artifact a worker computes lands in the shared on-disk store
# and the coordinator's accessors read it back as cache hits (bitwise
# identical to computing in-process, by the cache round-trip contract).
# The load verifies the run's digests in each worker, but a worker
# forked after the coordinator loaded the run inherits its world
# (build_world's memo) instead of building it again.

_FIGURE_STUDY = None


def _figure_worker_init(
    run_directory: str, gyration_mode: str
) -> None:  # pragma: no cover - runs in pool workers
    global _FIGURE_STUDY
    from repro.analysis.cache import ArtifactCache
    from repro.core.study import CovidImpactStudy
    from repro.io.store import load_feeds

    feeds = load_feeds(run_directory, lazy=True)
    cache = ArtifactCache.for_feeds(run_directory, feeds)
    _FIGURE_STUDY = CovidImpactStudy(
        feeds,
        gyration_mode=gyration_mode,
        cache=cache,
        parallel=False,
    )


def _figure_worker_run(
    chain: tuple[str, ...]
) -> tuple[str, ...]:  # pragma: no cover - runs in pool workers
    assert _FIGURE_STUDY is not None, "figure worker not initialized"
    for name in chain:
        getattr(_FIGURE_STUDY, name)()
    return chain


def map_figure_chains(
    run_directory: str,
    gyration_mode: str,
    chains: list[tuple[str, ...]],
    *,
    workers: int,
) -> bool:
    """Warm the artifact cache by running figure chains in pool workers.

    Returns ``True`` when every chain completed (the coordinator's
    accessors then serve from the shared cache) and ``False`` when the
    pool was unusable or any chain failed — the caller falls back to
    its thread fan-out, where a genuine computation error re-raises
    with a usable traceback.
    """
    if not chains:
        return True
    try:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        with ProcessPoolExecutor(
            max_workers=max(1, min(int(workers), len(chains))),
            initializer=_figure_worker_init,
            initargs=(str(run_directory), gyration_mode),
        ) as pool:
            futures = [
                pool.submit(_figure_worker_run, tuple(chain))
                for chain in chains
            ]
            for future in futures:
                future.result()
        return True
    except Exception:
        # Unusable pool (BrokenProcessPool, could not start) or a chain
        # that raised — either way the thread fallback redoes the work.
        return False
