"""The simulator: builds the world and produces the data feeds.

One :class:`Simulator` run executes the full measurement-study
substrate:

1. build the synthetic UK, the radio deployment, the TAC catalog and
   the subscriber base;
2. derive the agent population (anchor places, traits) and behavioural
   models (pandemic timeline, demand, voice);
3. walk the calendar day by day: assemble dwell matrices, scatter
   presence/demand/voice onto cell sites, run the scheduler per hour,
   process the voice interconnect, and reduce hourly KPIs to the
   per-cell daily medians of §2.4;
4. return a :class:`~repro.simulation.feeds.DataFeeds` bundle, every
   output of which :func:`repro.io.save_feeds` persists.

The spatial scatters use ``np.bincount`` over the flattened
(user × anchor) axis, which keeps a ~20k-user, ~1k-site, 98-day run in
the tens of seconds on a laptop.

Sharded execution
-----------------
The per-user part of the day loop (dwell assembly and the bincount
scatters) is embarrassingly parallel across agents.  When the
configuration's ``parallelism`` block asks for it, the engine
partitions the population into ``num_shards`` deterministic shards
(:mod:`repro.simulation.sharding`) and sums the shard payloads' site
loads back into the exact arrays the serial loop produces.  The work
unit is one (shard, window) task: one shard over :data:`WINDOW_DAYS`
consecutive days.  The coordinator keeps tasks submitted at most
:data:`LOOKAHEAD_WINDOWS` windows ahead of the window it is reducing,
on one ``ProcessPoolExecutor`` per run (in process, in submission
order, for one shard or ``workers=1``), takes each day's loads in
shard order and drops them once merged.  Its memory is therefore
bounded by a few windows per shard, not by the study length.
Everything with global coupling (the voice interconnect, the load
proxy, the per-cell scheduler, the daily-median KPI reduction) runs in
the coordinator on the summed accumulators, so KPIs are exact rather
than approximated.  Dwell rows stay in their shard: the night dropout
zeroes each shard's slice of one population-order draw, and the rows
land unmerged in the feed's shard.  See
:mod:`repro.simulation.sharding` for the bitwise-vs-allclose
determinism contract.

Fault tolerance
---------------
Long runs survive failures instead of discarding them.  With a
checkpoint directory attached (``Simulator.run(checkpoint_dir=...)``,
the CLI's default for ``simulate --out``), every completed shard-day is
persisted through :mod:`repro.simulation.checkpoint` as it is produced;
an interrupted run restarted over the same directory
(:meth:`Simulator.resume`, CLI ``simulate --resume``) restores the
completed days and computes only the missing ones, bitwise-identical
to an uninterrupted run.  Failed (shard, window) tasks are retried
with capped exponential backoff (the configuration's ``recovery``
block), a broken process pool degrades to in-process execution
instead of aborting (windows the pool finished are kept), and a task
that keeps failing raises
:class:`~repro.simulation.faults.ShardExecutionError` — with its
completed days already checkpointed when a store is attached — after
cancelling the tasks that have not started.  All of it is testable
through the deterministic fault plan of :mod:`repro.simulation.faults`.

Observability
-------------
With :mod:`repro.telemetry` enabled, a run records a ``simulate`` span
tree — world build, run-context derivation, shard execution (the
coordinator's wait for each window, with one ``shard`` span per
(shard, window) task and its dwell-assembly and scatter spans, merged
across the process pool), the per-day reductions (shard merge, voice
interconnect, scheduler, signalling) and the final KPI reduction — and
attaches the snapshot to ``feeds.telemetry``.  Recovery events land in
counters: ``engine.shard_retries``, ``engine.pool_degradations``,
``engine.checkpoint_days_saved`` / ``_restored`` and
``engine.faults_injected``; a world handed back by :func:`build_world`
instead of built counts ``engine.world_reuses``.  Telemetry never
influences results: every span is a pure timer around unchanged code,
and a disabled run pays one ``None`` check per instrumented site.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import cache, cached_property, partial

import numpy as np

from repro import telemetry
from repro.frames import Frame
from repro.geo.build import build_uk_geography
from repro.geo.nspl import PostcodeLookup
from repro.io import columnar
from repro.mobility.agents import AnchorSlot, NUM_ANCHORS, build_agents
from repro.mobility.behavior import BehaviorModel
from repro.mobility.epidemic import EpidemicCurve
from repro.mobility.pandemic import PandemicTimeline
from repro.mobility.trajectories import BIN_SECONDS, NUM_BINS, TrajectoryModel
from repro.network.devices import DeviceCatalog
from repro.network.interconnect import InterconnectSettings, VoiceInterconnect
from repro.network.kpi import KpiAccumulator, kpi_row_dtype
from repro.network.rat import RAT_PROFILES, Rat
from repro.network.scheduler import CellScheduler
from repro.network.signaling import SignalingGenerator, segments_from_dwell
from repro.network.subscribers import build_subscriber_base
from repro.network.topology import build_topology
from repro.simulation.checkpoint import CheckpointError, CheckpointStore
from repro.simulation.config import SimulationConfig
from repro.simulation.faults import (
    FaultPlan,
    InjectedFault,
    ShardExecutionError,
    corrupt_file,
)
from repro.simulation.feeds import DataFeeds
from repro.simulation.sharding import (
    WINDOW_DAYS,
    ShardDayLoad,
    ShardResult,
    merge_day_loads,
    shard_user_indices,
)
from repro.traffic.demand import DemandModel
from repro.traffic.profiles import (
    BIN_OF_HOUR,
    activity_hour_profile,
    HOURS_PER_DAY,
    hour_weights_within_bins,
    traffic_hour_profile,
    voice_hour_profile,
)
from repro.traffic.voice import VoiceModel

__all__ = [
    "LOOKAHEAD_WINDOWS",
    "WINDOW_DAYS",
    "Simulator",
    "World",
    "build_world",
]

#: Windows of tasks kept submitted ahead of the window being reduced —
#: enough to keep a pool busy while the coordinator merges, and the
#: bound (1 + LOOKAHEAD_WINDOWS windows per shard) on what it holds.
LOOKAHEAD_WINDOWS = 2

# Anchors at which the user is "at home" (WiFi available): the home
# tower and the relocation residence.
_HOME_LIKE_SLOTS = np.zeros(NUM_ANCHORS, dtype=bool)
_HOME_LIKE_SLOTS[[AnchorSlot.HOME, AnchorSlot.RELOC_PRIMARY,
                  AnchorSlot.RELOC_SECONDARY]] = True

_BASE_VOICE_UL_LOSS = 0.0035


@dataclass
class World:
    """The static objects a simulation is built from.

    Fully deterministic given the configuration — which is what lets
    :mod:`repro.io` reload persisted feeds without re-running the day
    loop: the world comes from the configuration, the measured arrays
    are loaded.  The same determinism lets a process build a world
    once and hand it to every later run, reload and pool worker of an
    equal configuration (see :func:`build_world`), so the components
    are shared and their arrays read-only.
    """

    config: SimulationConfig
    geography: object
    topology: object
    catalog: object
    base: object
    agents: object
    timeline: PandemicTimeline
    behavior: BehaviorModel
    trajectories: TrajectoryModel
    demand_model: DemandModel
    voice_model: VoiceModel
    scheduler: CellScheduler
    epidemic: EpidemicCurve


#: The last world this process built: ``(config digest, world)``.  One
#: slot — another configuration replaces it.  Forked pool workers
#: inherit it.
_WORLD_MEMO: tuple[str, World] | None = None


def build_world(config: SimulationConfig) -> World:
    """Deterministically build every static simulation object.

    The last world built in this process is kept, keyed on the
    canonical configuration digest
    (:func:`repro.datasets.spec.config_digest`): a configuration that
    digests equal gets the same components back under its own
    ``config`` (counted as ``engine.world_reuses``), so a live
    advance, its reload, a reopen and a forked pool worker never build
    the same world twice.  The components are shared, so every array
    they hold is read-only.  A configuration the digest cannot
    canonicalize is built every time.
    """
    global _WORLD_MEMO
    from repro.datasets.spec import config_digest

    try:
        key = config_digest(config)
    except TypeError:
        key = None
    memo = _WORLD_MEMO
    if key is not None and memo is not None and memo[0] == key:
        telemetry.count("engine.world_reuses")
        return replace(memo[1], config=config)
    world = _build_world(config)
    if key is not None:
        _WORLD_MEMO = (key, world)
    return world


def _build_world(config: SimulationConfig) -> World:
    """Build a world afresh: :func:`build_world` without its memo."""
    calendar = config.calendar
    geography = build_uk_geography(seed=config.seed)
    topology = build_topology(
        geography,
        target_site_count=config.target_site_count,
        seed=config.seed + 1,
        study_days=calendar.num_days,
    )
    catalog = DeviceCatalog.generate(seed=config.seed + 2)
    base = build_subscriber_base(
        geography,
        topology,
        catalog,
        num_users=config.num_users,
        roamer_share=config.roamer_share,
        m2m_share=config.m2m_share,
        market_share_noise=config.market_share_noise,
        seed=config.seed + 3,
    )
    agents = build_agents(geography, topology, base, seed=config.seed + 4)
    timeline = config.timeline or PandemicTimeline(
        key_dates=calendar.key_dates
    )
    behavior = BehaviorModel(
        agents, timeline, calendar,
        settings=config.behavior, seed=config.seed + 5,
    )
    world = World(
        config=config,
        geography=geography,
        topology=topology,
        catalog=catalog,
        base=base,
        agents=agents,
        timeline=timeline,
        behavior=behavior,
        trajectories=TrajectoryModel(agents, behavior),
        demand_model=DemandModel(
            timeline, settings=config.demand, seed=config.seed + 6
        ),
        voice_model=VoiceModel(
            timeline, settings=config.voice, seed=config.seed + 7
        ),
        scheduler=CellScheduler(config.scheduler),
        epidemic=EpidemicCurve(),
    )
    _freeze_arrays(world)
    return world


def _freeze_arrays(world: World) -> None:
    """Mark every ndarray the world holds read-only.

    Walks containers and the attributes of the package's own objects
    (not numpy's or the standard library's).  A component's cached
    properties are computed first, so the arrays it would otherwise
    build on first use (``topology.site_postcodes``,
    ``geography.district_lats``, ...) are frozen too.  The
    configuration's objects (its calendar, timeline and settings) are
    walked first and frozen as they stand, not evaluated: the calendar
    caches its arrays read-only itself, and ``config.pkl`` never
    pickles them (:meth:`StudyCalendar.__getstate__
    <repro.simulation.clock.StudyCalendar.__getstate__>`).
    """
    seen: set[int] = set()
    for root, evaluate in ((world.config, False), (world, True)):
        stack = [root]
        while stack:
            value = stack.pop()
            if id(value) in seen:
                continue
            seen.add(id(value))
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            elif isinstance(value, dict):
                stack.extend(value.values())
            elif isinstance(value, (list, tuple, set, frozenset)):
                stack.extend(value)
            elif type(value).__module__.startswith("repro."):
                if evaluate:
                    for name in _cached_properties(type(value)):
                        getattr(value, name)
                stack.extend(getattr(value, "__dict__", {}).values())


@cache
def _cached_properties(cls: type) -> tuple[str, ...]:
    """Names of the cached properties ``cls`` defines or inherits."""
    return tuple(
        name
        for klass in cls.__mro__
        for name, attr in vars(klass).items()
        if isinstance(attr, cached_property)
    )


@dataclass
class _RunContext:
    """A world plus the per-run derived arrays the day loop consumes.

    Deterministic given the configuration, so every pool worker can
    rebuild an identical context from the configuration alone.
    """

    world: World
    demand_mult: np.ndarray  # per-user demand heterogeneity
    voice_mult: np.ndarray  # per-user calling heterogeneity
    wifi_quality: np.ndarray  # per-user home-WiFi quality
    bin_traffic_share: np.ndarray
    bin_voice_share: np.ndarray
    mb_dl: float
    mb_ul: float

    @classmethod
    def from_world(cls, world: World) -> "_RunContext":
        from repro.geo.oac import OAC_DEFINITIONS

        agents = world.agents
        num_users = agents.num_users
        # Home-WiFi quality per user, from the home district's OAC
        # (drives how much at-home usage stays on cellular).
        wifi_by_district = np.array(
            [
                OAC_DEFINITIONS[district.oac].home_wifi_quality
                for district in world.geography.districts
            ]
        )
        mb_dl, mb_ul = world.voice_model.volume_mb_per_minute()
        return cls(
            world=world,
            demand_mult=world.demand_model.user_demand_multipliers(
                num_users
            ),
            voice_mult=world.voice_model.user_minute_multipliers(num_users),
            wifi_quality=wifi_by_district[agents.home_district],
            bin_traffic_share=np.add.reduceat(
                traffic_hour_profile(), np.arange(0, HOURS_PER_DAY, 4)
            ),
            bin_voice_share=np.add.reduceat(
                voice_hour_profile(), np.arange(0, HOURS_PER_DAY, 4)
            ),
            mb_dl=mb_dl,
            mb_ul=mb_ul,
        )


def _take(array: np.ndarray, indices: np.ndarray | None) -> np.ndarray:
    return array if indices is None else array[indices]


def _compute_shard(
    context: _RunContext,
    indices: np.ndarray | None,
    *,
    shard_index: int = 0,
    checkpoint: CheckpointStore | None = None,
    faults: FaultPlan | None = None,
    attempt: int = 0,
    day_start: int = 0,
    day_stop: int | None = None,
) -> ShardResult:
    """Run the per-user part of the day loop for one (shard, window) task.

    ``indices`` selects the shard's rows of the agent population
    (``None`` = all users, the serial path).  Everything here is either
    a row-wise operation on per-user arrays (bitwise identical for any
    partition) or a ``np.bincount`` scatter onto sites (reduced across
    shards by summation).

    ``day_start``/``day_stop`` are the window's absolute day indices.
    Each shard-day is a pure function of the configuration and its
    absolute day, so any split of a run into windows computes exactly
    the bytes of one whole-run loop; ``ShardResult.days`` is indexed
    relative to ``day_start``.

    With a ``checkpoint`` store attached, days already persisted for
    ``shard_index`` are restored instead of recomputed (bitwise
    identical — each day is a pure function of the configuration and
    NPZ round-trips arrays exactly), and every freshly computed day is
    persisted before moving on.  ``faults`` is the deterministic
    fault-injection hook; ``attempt`` is the retry ordinal the
    ``flaky`` fault counts against.

    Telemetry: the window runs under a ``shard`` span (counting the
    shard's users and the window's days), with the dwell assembly and
    the bincount scatters timed per day.  Summed over a run's tasks,
    ``users`` and ``dwell_cells`` equal the serial run's and ``days`` is
    the shard count times the window days — the merge contract
    telemetry shares with the data itself.
    """
    world = context.world
    config = world.config
    calendar = config.calendar
    agents = world.agents
    demand_model = world.demand_model
    voice_model = world.voice_model

    anchor_sites = _take(agents.anchor_sites, indices)
    flat_sites = anchor_sites.ravel()
    demand_mult = _take(context.demand_mult, indices)
    voice_mult = _take(context.voice_mult, indices)
    wifi_quality = _take(context.wifi_quality, indices)
    base_dl_mb = demand_model.base_daily_dl_mb()
    base_minutes = voice_model.settings.base_minutes_per_day

    if day_stop is None:
        day_stop = int(calendar.num_days)
    shard_span = telemetry.span(
        "shard",
        users=int(anchor_sites.shape[0]),
        days=int(day_stop - day_start),
    )
    days: list[ShardDayLoad] = []
    with shard_span:
        for day in range(day_start, day_stop):
            if checkpoint is not None:
                restored = checkpoint.load_day(
                    shard_index, day, missing_ok=True
                )
                if restored is not None:
                    telemetry.count("engine.checkpoint_days_restored")
                    days.append(restored)
                    continue
            if faults is not None:
                faults.check(
                    shard_index, day, attempt,
                    in_pool=_WORKER_CONTEXT is not None,
                )
            load = _compute_shard_day(
                context, indices, day,
                flat_sites=flat_sites,
                demand_mult=demand_mult,
                voice_mult=voice_mult,
                wifi_quality=wifi_quality,
                base_dl_mb=base_dl_mb,
                base_minutes=base_minutes,
                keep_dwell=config.emit_signaling,
            )
            if checkpoint is not None:
                checkpoint.save_day(shard_index, day, load)
                telemetry.count("engine.checkpoint_days_saved")
                if faults is not None and faults.should_poison(
                    shard_index, day
                ):
                    telemetry.count("engine.faults_injected")
                    corrupt_file(checkpoint.day_path(shard_index, day))
            days.append(load)
    return ShardResult(indices=indices, days=days)


def _compute_shard_day(
    context: _RunContext,
    indices: np.ndarray | None,
    day: int,
    *,
    flat_sites: np.ndarray,
    demand_mult: np.ndarray,
    voice_mult: np.ndarray,
    wifi_quality: np.ndarray,
    base_dl_mb: float,
    base_minutes: float,
    keep_dwell: bool,
) -> ShardDayLoad:
    """One day of one shard: dwell assembly plus the bincount scatters."""
    world = context.world
    calendar = world.config.calendar
    trajectories = world.trajectories
    demand_model = world.demand_model
    voice_model = world.voice_model
    num_sites = world.topology.num_sites

    date = calendar.date_of(day)
    with telemetry.span("dwell_assembly") as dwell_span:
        dwell = trajectories.day_dwell(day, indices=indices)
        dwell_span.add("dwell_cells", int(dwell.dwell_s.size))

    params = demand_model.day_parameters(date)
    user_dl_mb = (
        base_dl_mb * demand_mult * params.demand_multiplier
    )
    user_voice_min = (
        base_minutes
        * voice_mult
        * voice_model.minutes_multiplier(date)
    )
    home_cell_share, home_activity = params.blended_home_factors(
        wifi_quality
    )
    # (users × anchors) context factors: home-like slots get the
    # user's blended at-home factors, away slots are full cellular.
    cell_factor = np.where(
        _HOME_LIKE_SLOTS[None, :], home_cell_share[:, None], 1.0
    )
    act_factor = np.where(
        _HOME_LIKE_SLOTS[None, :], home_activity[:, None], 1.0
    )
    ul_ratio_factor = np.where(
        _HOME_LIKE_SLOTS, params.home_ul_dl_ratio, params.ul_dl_ratio
    )

    presence = np.zeros((num_sites, NUM_BINS))
    activity = np.zeros((num_sites, NUM_BINS))
    dl_mb = np.zeros((num_sites, NUM_BINS))
    ul_mb = np.zeros((num_sites, NUM_BINS))
    voice_minutes = np.zeros((num_sites, NUM_BINS))
    scatter_span = telemetry.span("scatter")
    with scatter_span:
        for bin_index in range(NUM_BINS):
            bin_dwell = dwell.dwell_s[:, bin_index, :]
            share = bin_dwell / BIN_SECONDS
            presence[:, bin_index] = np.bincount(
                flat_sites, weights=bin_dwell.ravel(),
                minlength=num_sites,
            )
            activity[:, bin_index] = np.bincount(
                flat_sites,
                weights=(bin_dwell * act_factor).ravel(),
                minlength=num_sites,
            )
            dl_weights = (
                share
                * user_dl_mb[:, None]
                * context.bin_traffic_share[bin_index]
                * cell_factor
            )
            dl_mb[:, bin_index] = np.bincount(
                flat_sites, weights=dl_weights.ravel(),
                minlength=num_sites,
            )
            ul_mb[:, bin_index] = np.bincount(
                flat_sites,
                weights=(dl_weights * ul_ratio_factor[None, :]).ravel(),
                minlength=num_sites,
            )
            voice_weights = (
                share
                * user_voice_min[:, None]
                * context.bin_voice_share[bin_index]
            )
            voice_minutes[:, bin_index] = np.bincount(
                flat_sites, weights=voice_weights.ravel(),
                minlength=num_sites,
            )
        scatter_span.add(
            "scattered_weights", int(flat_sites.size) * 5 * NUM_BINS
        )

    return ShardDayLoad(
        presence=presence,
        activity=activity,
        dl_mb=dl_mb,
        ul_mb=ul_mb,
        voice_minutes=voice_minutes,
        daily_dwell=dwell.daily_dwell().astype(np.float32),
        night_dwell=dwell.nighttime_dwell().astype(np.float32),
        total_connected_s=float(dwell.dwell_s.sum()),
        dwell_s=dwell.dwell_s if keep_dwell else None,
    )


# -- (shard, window) tasks --------------------------------------------------
# The pool initializer gives each worker its run context once, then the
# worker serves any number of tasks from it.  A worker forked after the
# coordinator's build_world inherits that world (build_world's memo);
# one started with spawn or forkserver builds its own.  When
# the coordinator has telemetry enabled, each worker records into its
# own recorder and ships a snapshot back on every ShardResult; the
# recorder is reset at the start of every task, so partial telemetry
# from a failed attempt is discarded instead of riding home on whichever
# task that worker happens to complete next (scheduling-dependent).
# Fault injections are therefore counted by the coordinator when the
# failure comes back, never where the task ran.
_WORKER_CONTEXT: _RunContext | None = None

#: Sleep used between retry attempts; module-level so recovery tests
#: can monkeypatch it with a fake clock.
_RETRY_SLEEP = time.sleep


def _pool_init(
    config: SimulationConfig, record_telemetry: bool = False
) -> None:  # pragma: no cover
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = _RunContext.from_world(build_world(config))
    if record_telemetry:
        telemetry.enable()


def _pool_compute(task: tuple) -> ShardResult:  # pragma: no cover
    """Run one (shard, window) task in a pool worker.

    ``task`` is ``(shard_index, indices, attempt, run_directory,
    day_start, day_stop)`` — plain picklable pieces; the worker reopens
    the checkpoint store (safe: the (shard, day) file space is
    partitioned across tasks) and rebuilds the fault plan from its copy
    of the configuration.
    """
    assert _WORKER_CONTEXT is not None, "pool worker not initialized"
    shard_index, indices, attempt, run_directory, day_start, day_stop = task
    recorder = telemetry.active()
    if recorder is not None:
        recorder.reset()
    checkpoint = (
        CheckpointStore.open(run_directory)
        if run_directory is not None
        else None
    )
    faults = FaultPlan.active(_WORKER_CONTEXT.world.config)
    result = _compute_shard(
        _WORKER_CONTEXT, indices,
        shard_index=shard_index,
        checkpoint=checkpoint,
        faults=faults,
        attempt=attempt,
        day_start=day_start,
        day_stop=day_stop,
    )
    if recorder is not None:
        result.telemetry = recorder.snapshot()
        recorder.reset()
    return result


class _InProcess:
    """A task the coordinator runs itself when its result is read.

    Stands in for a pool future, so in-process tasks run in submission
    order but only once the coordinator reaches them: without a pool,
    look-ahead would buy no parallelism, only memory.
    """

    __slots__ = ("result",)

    def __init__(self, run) -> None:
        self.result = run


class _ShardWindows:
    """One run's stream of (shard, window) tasks, reduced in day order.

    The run's days split into windows of :data:`WINDOW_DAYS`; each
    window has one task per shard.  :meth:`day` hands over a day's
    shard loads in shard order, exactly once.  Entering a window first
    tops the submissions up to :data:`LOOKAHEAD_WINDOWS` windows ahead,
    then collects the window's tasks — both under the
    ``shard_execution`` span, so that span is the coordinator's wait for
    shard windows.

    Tasks run on one ``ProcessPoolExecutor`` for the whole run when the
    parallelism block asks for workers, in process otherwise.  A failed
    task is resubmitted with capped exponential backoff until its retry
    budget runs out (then :class:`~repro.simulation.faults.
    ShardExecutionError`); a :class:`~repro.simulation.checkpoint.
    CheckpointError` is never retried; a pool that cannot start or
    breaks degrades to in process, keeping the tasks it finished.
    Leaving the ``with`` block cancels the tasks that have not started
    and waits for the running ones, so no worker writes checkpoints
    after the run returns or raises.
    """

    def __init__(
        self,
        config: SimulationConfig,
        context: _RunContext,
        shard_indices: list[np.ndarray | None],
        checkpoint: CheckpointStore | None,
        *,
        day_start: int,
        day_stop: int,
    ) -> None:
        self._context = context
        self._shard_indices = shard_indices
        self._checkpoint = checkpoint
        self._run_directory = (
            None if checkpoint is None else str(checkpoint.run_directory)
        )
        self._faults = FaultPlan.active(config)
        self._recovery = config.recovery
        self._day_start = day_start
        self._windows = [
            (start, min(start + WINDOW_DAYS, day_stop))
            for start in range(day_start, day_stop, WINDOW_DAYS)
        ]
        self._submitted = 0
        # (window, shard) -> (future, attempt) of every task not yet
        # collected.
        self._tasks: dict[tuple[int, int], tuple] = {}
        self._current: list[ShardResult] = []
        self._pool = None
        parallelism = config.parallelism
        if parallelism.uses_pool:
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=min(parallelism.workers, len(shard_indices)),
                    initializer=_pool_init,
                    initargs=(config, telemetry.enabled()),
                )
            except (OSError, ValueError, RuntimeError, ImportError):
                # No usable process pool (sandboxed platform, missing
                # semaphores, ...): in process gives identical results.
                telemetry.count("engine.pool_degradations")

    def __enter__(self) -> "_ShardWindows":
        return self

    def __exit__(self, *exc_info) -> None:
        self._tasks.clear()
        self._current = []
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def day(self, day: int) -> list[ShardDayLoad]:
        """``day``'s shard loads in shard order, handed over once."""
        window, offset = divmod(day - self._day_start, WINDOW_DAYS)
        if offset == 0:
            with telemetry.span("shard_execution") as span:
                last = min(window + LOOKAHEAD_WINDOWS, len(self._windows) - 1)
                while self._submitted <= last:
                    for shard in range(len(self._shard_indices)):
                        self._tasks[(self._submitted, shard)] = (
                            self._submit(self._submitted, shard, 0), 0
                        )
                    self._submitted += 1
                self._current = [
                    self._collect(window, shard, span.path)
                    for shard in range(len(self._shard_indices))
                ]
        loads = []
        for result in self._current:
            loads.append(result.days[offset])
            result.days[offset] = None
        return loads

    def _submit(self, window: int, shard: int, attempt: int):
        day_start, day_stop = self._windows[window]
        indices = self._shard_indices[shard]
        if self._pool is not None:
            try:
                return self._pool.submit(
                    _pool_compute,
                    (shard, indices, attempt, self._run_directory,
                     day_start, day_stop),
                )
            except (OSError, ValueError, RuntimeError):
                # The pool itself is unusable (lost its semaphores,
                # broke between tasks, ...) — not a task failure.
                self._degrade()
        return _InProcess(
            partial(
                _compute_shard, self._context, indices,
                shard_index=shard,
                checkpoint=self._checkpoint,
                faults=self._faults,
                attempt=attempt,
                day_start=day_start,
                day_stop=day_stop,
            )
        )

    def _degrade(self) -> None:
        """Rerun in process every task the pool did not finish."""
        telemetry.count("engine.pool_degradations")
        pool, self._pool = self._pool, None
        pool.shutdown(wait=True, cancel_futures=True)
        for key, (future, attempt) in self._tasks.items():
            if (
                not future.done()
                or future.cancelled()
                or future.exception() is not None
            ):
                self._tasks[key] = (self._submit(*key, attempt), attempt)

    def _collect(self, window: int, shard: int, prefix) -> ShardResult:
        key = (window, shard)
        while True:
            future, attempt = self._tasks[key]
            try:
                result = future.result()
            except BrokenProcessPool:
                # A worker died (OOM kill, hard crash): degrade to the
                # in-process path, which produces identical results.
                self._degrade()
                continue
            except CheckpointError:
                # A corrupt checkpoint never heals by retrying; surface
                # the precise file immediately.
                raise
            except Exception as err:
                if isinstance(err, InjectedFault):
                    telemetry.count("engine.faults_injected")
                if attempt >= self._recovery.max_retries:
                    raise ShardExecutionError(
                        shard,
                        attempt + 1,
                        checkpointed=self._checkpoint is not None,
                    ) from err
                telemetry.count("engine.shard_retries")
                _RETRY_SLEEP(self._recovery.delay(attempt))
                self._tasks[key] = (
                    self._submit(window, shard, attempt + 1), attempt + 1
                )
                continue
            del self._tasks[key]
            # Pool workers record into their own process; their
            # snapshots merge under the span that waited for them.
            # (In-process tasks recorded into the active recorder.)
            if result.telemetry is not None:
                telemetry.absorb(result.telemetry, prefix=prefix)
            return result


class Simulator:
    """End-to-end synthetic measurement-study run."""

    def __init__(self, config: SimulationConfig | None = None) -> None:
        self._config = config or SimulationConfig()

    @property
    def config(self) -> SimulationConfig:
        return self._config

    @classmethod
    def resume(
        cls, directory, progress=None, *, stream: bool = False
    ) -> DataFeeds:
        """Complete an interrupted checkpointed run.

        Reads the configuration persisted in ``<directory>/checkpoints``
        (clearing any stored fault plan — the injected failure must not
        refire on the restart) and re-runs over the same checkpoint
        store: completed days are restored, missing ones computed.  The
        result is bitwise-identical to an uninterrupted run.  With
        ``stream=True`` the mobility feed lands directly in the run
        directory's columnar partition instead of RAM (see :meth:`run`).
        A store another version of repro wrote is refused before
        anything runs (:meth:`CheckpointStore.load_config`).
        """
        store = CheckpointStore.open(directory)
        config = store.load_config()
        if getattr(config, "fault_spec", None) is not None:
            config = config.with_overrides(fault_spec=None)
        return cls(config).run(
            progress=progress,
            checkpoint_dir=directory,
            stream_dir=directory if stream else None,
        )

    def run(
        self, progress=None, *, checkpoint_dir=None, stream_dir=None,
        day_start: int = 0, day_stop: int | None = None, live=None,
    ) -> DataFeeds:
        """Execute the full simulation and return the data feeds.

        ``day_start``/``day_stop`` restrict the run to a window of
        absolute study days (the live-run path behind
        :meth:`repro.api.Run.advance`).  The returned bundle covers
        only the window — its mobility feed holds
        ``day_stop - day_start`` days and the KPI/RAT frames only those
        day indices — but every byte equals the corresponding slice of
        a full run.  A window starting past day zero requires ``live``,
        the coordinator state captured by the preceding window (the
        ``feeds.live`` dict: the per-day voice interconnect series and
        the day-0 download baseline); the sequential state — RNG
        streams, the interconnect upgrade state machine, the baseline —
        is fast-forwarded from it before the first window day.

        ``progress``, if given, is called as ``progress(day, num_days)``
        after each simulated day — used by the CLI to show a meter.

        ``checkpoint_dir``, if given, attaches a
        :class:`~repro.simulation.checkpoint.CheckpointStore` under that
        run directory: every completed shard-day is persisted as it is
        produced, and days already checkpointed there (an interrupted
        earlier run) are restored instead of recomputed.

        ``stream_dir``, if given, lands each day of every shard's dwell
        rows directly in that run directory's columnar partition
        (:mod:`repro.io.columnar`, written through the files) instead
        of accumulating the full dwell stacks in RAM; a window from
        day 0 also writes each day's KPI rows through the staged
        ``radio_kpis.npy``.  With shard loads dropped once written,
        peak memory then no longer grows with ``num_days``.  The
        returned bundle's ``mobility`` maps the (uncommitted) partition
        and its ``radio_kpis`` the staged table, read-only;
        :func:`repro.io.save_feeds` to the same directory commits both
        in place without rewriting.  Identical bytes and results to the
        in-memory path (a run without ``stream_dir``, whose feed's
        shards hold day lists, saved afterwards).

        When :mod:`repro.telemetry` is enabled, the run records a
        ``simulate`` span tree (world build, shard execution, per-day
        reductions) and attaches the final snapshot to
        ``feeds.telemetry``, which :func:`repro.io.save_feeds` persists
        into the run manifest.
        """
        config = self._config
        if day_stop is None:
            day_stop = int(config.calendar.num_days)
        if not 0 <= day_start < day_stop <= config.calendar.num_days:
            raise ValueError(
                f"day window [{day_start}, {day_stop}) is not within "
                f"the {config.calendar.num_days}-day study"
            )
        if day_start > 0 and live is None:
            raise ValueError(
                "a day window starting past day 0 needs the prior "
                "window's live state (feeds.live)"
            )
        with telemetry.span(
            "simulate",
            users=int(config.num_users),
            days=int(day_stop - day_start),
        ) as run_span:
            checkpoint = (
                CheckpointStore.attach(checkpoint_dir, config)
                if checkpoint_dir is not None
                else None
            )
            with telemetry.span("build_world") as world_span:
                world = build_world(config)
                world_span.add("sites", int(world.topology.num_sites))
            with telemetry.span("run_context"):
                context = _RunContext.from_world(world)
            parallelism = config.parallelism

            if parallelism.num_shards <= 1:
                shard_indices: list[np.ndarray | None] = [None]
            else:
                shard_indices = list(
                    shard_user_indices(
                        world.agents.user_ids, parallelism.num_shards
                    )
                )
            run_span.add("shards", len(shard_indices))
            with _ShardWindows(
                config, context, shard_indices, checkpoint,
                day_start=day_start, day_stop=day_stop,
            ) as shard_windows, ExitStack() as on_error:
                feeds = self._assemble_feeds(
                    context, shard_indices, shard_windows, progress,
                    stream_dir=stream_dir,
                    day_start=day_start, day_stop=day_stop, live=live,
                    on_error=on_error,
                )
                # A finished run keeps its staged files open for its save.
                on_error.pop_all()
        if telemetry.enabled():
            feeds.telemetry = telemetry.snapshot()
        return feeds

    # -- merge + global stages ---------------------------------------------
    def _assemble_feeds(
        self,
        context: _RunContext,
        shard_indices: list[np.ndarray | None],
        shard_windows: _ShardWindows,
        progress,
        stream_dir,
        day_start: int,
        day_stop: int,
        live,
        on_error: ExitStack,
    ) -> DataFeeds:
        config = self._config
        world = context.world
        calendar = config.calendar
        geography = world.geography
        topology = world.topology
        agents = world.agents
        demand_model = world.demand_model
        voice_model = world.voice_model
        scheduler = world.scheduler

        num_users = agents.num_users
        num_sites = topology.num_sites
        mb_dl, mb_ul = context.mb_dl, context.mb_ul

        # Per-user RAT connected-time shares (§2.4's 75%-on-4G).
        rat_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(9,))
        )
        rat_alphas = np.array(
            [RAT_PROFILES[rat].attach_share for rat in Rat]
        ) * 40.0
        rat_shares = rat_rng.dirichlet(rat_alphas, size=num_users)

        # Interconnect dimensioned against pre-pandemic voice volume.
        baseline_voice_mb = (
            context.voice_mult.sum()
            * voice_model.settings.base_minutes_per_day
            * (mb_dl + mb_ul)
        )
        interconnect_settings = InterconnectSettings(
            # The epsilon floor keeps degenerate worlds (no study users,
            # hence no baseline voice) constructible.
            capacity_mb_per_day=max(
                baseline_voice_mb
                * 0.55  # inter-MNO share of the offered load
                / config.interconnect_baseline_utilization,
                1e-6,
            ),
            detection_days=config.interconnect_detection_days,
            upgrade_factor=config.interconnect_upgrade_factor,
        )
        interconnect = VoiceInterconnect(interconnect_settings)

        cell_of_site = np.array(
            [topology.site_to_4g_cell[s] for s in range(num_sites)],
            dtype=np.int64,
        )
        capacity_mbps = np.full(num_sites, 0.0)
        for cell in topology.cells:
            if cell.rat is Rat.LTE_4G:
                capacity_mbps[cell.site_id] = cell.capacity_mbps

        # The feed keeps each shard's dwell rows as its own shard.
        shard_rows = [
            np.arange(num_users) if indices is None else indices
            for indices in shard_indices
        ]
        stream_writer = None
        if stream_dir is not None:
            stream_writer = columnar.ColumnarWriter(
                stream_dir,
                shard_rows,
                agents.user_ids,
                agents.anchor_sites,
                day_stop - day_start,
                day_offset=day_start,
            )
            # A run that raises closes its staged files and leaves them
            # on disk, for the next manifest commit to sweep.
            on_error.callback(stream_writer.close)
            mobility = None
        else:
            mobility = columnar.ShardedMobilityFeed.from_stacks(
                shard_rows,
                agents.user_ids,
                agents.anchor_sites,
                [[] for _ in shard_rows],
                [[] for _ in shard_rows],
            )
        # KPI accumulator over the 4G cell of every site.  A streamed
        # run from day 0 writes each day's rows through the staged
        # radio_kpis.npy, which save_feeds publishes in place; a later
        # window keeps its rows, since append_feeds writes the grown
        # table from the loaded one plus these.
        kpi_table = None
        if stream_writer is not None and day_start == 0:
            kpi_table = stream_writer.stage_kpis(
                kpi_row_dtype(topology.site_postcodes),
                rows_per_day=num_sites,
            )
        accumulator = KpiAccumulator(
            cell_ids=cell_of_site,
            postcodes=topology.site_postcodes,
            table=kpi_table,
        )
        signaling_frames: dict[int, Frame] | None = (
            {} if config.emit_signaling else None
        )
        # With a stream target, signalling events land on disk day by
        # day (the per-shard event partition) instead of accumulating
        # 98 days of frames in RAM.  Only full-window runs stream —
        # event partitions are never grown by append commits.
        events_writer = None
        if (
            stream_writer is not None
            and config.emit_signaling
            and day_start == 0
            and day_stop == int(calendar.num_days)
        ):
            events_writer = columnar.EventsWriter(
                stream_dir, len(shard_indices), day_stop - day_start
            )
            signaling_frames = None
        signaling_generator = SignalingGenerator()

        traffic_w = hour_weights_within_bins(traffic_hour_profile())
        act_profile = activity_hour_profile()
        voice_w = hour_weights_within_bins(voice_hour_profile())

        # RAT connected-time feed: the per-RAT share sums are
        # day-independent, so they are taken once, out of the day loop.
        rat_time_rows: list[dict] = []
        rat_sums = [
            (rat_shares[:, rat_index] * 86_400.0).sum()
            for rat_index in range(len(Rat))
        ]
        day_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(10,))
        )
        night_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(12,))
        )
        baseline_dl_total: float | None = None
        upgrade_day: int | None = None
        voice_mb_by_day: list[float] = []

        if day_start > 0:
            # Live-run fast-forward: restore the coordinator's
            # sequential state exactly as the completed days left it.
            # The interconnect state machine is replayed over the
            # persisted per-day voice series (bitwise — JSON float repr
            # round-trips float64), and each completed day's RNG draws
            # are consumed in their historical order and shapes so the
            # streams resume mid-sequence.
            for replay_day, replayed_mb in enumerate(
                live["voice_mb_by_day"]
            ):
                interconnect.process_day(float(replayed_mb))
                if interconnect.upgraded and upgrade_day is None:
                    upgrade_day = replay_day
                night_rng.random(num_users)
                day_rng.lognormal(0.0, 0.2, size=(2, num_sites))
                day_rng.lognormal(0.0, 0.10, size=num_sites)
            baseline = live["baseline_dl_total"]
            baseline_dl_total = (
                None if baseline is None else float(baseline)
            )

        for day in range(day_start, day_stop):
            date = calendar.date_of(day)
            loads = shard_windows.day(day)
            with telemetry.span("merge_shards"):
                merged = merge_day_loads(num_users, shard_rows, loads)
            # Nighttime observability: phones that stay idle all night
            # produce no signalling, so the probes cannot place them.
            # One draw in population order; each shard zeroes its rows.
            unobserved = (
                night_rng.random(num_users)
                >= config.night_observation_probability
            )
            for rows, load in zip(shard_rows, loads):
                load.night_dwell[unobserved[rows]] = 0.0
            if stream_writer is not None:
                stream_writer.write_day(
                    day,
                    [load.daily_dwell for load in loads],
                    [load.night_dwell for load in loads],
                )
            else:
                for shard, load in zip(mobility.shards, loads):
                    shard.daily_dwell.append(load.daily_dwell)
                    shard.night_dwell.append(load.night_dwell)
            # Written (or kept by the feed): drop the day's rows.
            del loads, load

            params = demand_model.day_parameters(date)
            presence = merged.presence
            activity = merged.activity
            dl_mb = merged.dl_mb
            ul_mb = merged.ul_mb
            voice_minutes = merged.voice_minutes

            # Topology snapshot: inactive sites carry no traffic today.
            active_sites = topology.snapshot(day)
            presence[~active_sites] = 0.0
            activity[~active_sites] = 0.0
            dl_mb[~active_sites] = 0.0
            ul_mb[~active_sites] = 0.0
            voice_minutes[~active_sites] = 0.0

            # Voice interconnect (daily) and radio-side UL loss.
            with telemetry.span("voice_interconnect") as voice_span:
                total_voice_mb = voice_minutes.sum() * (mb_dl + mb_ul)
                voice_mb_by_day.append(float(total_voice_mb))
                dl_loss_today = interconnect.process_day(total_voice_mb)
                voice_span.add("offered_voice_mb", float(total_voice_mb))
            if interconnect.upgraded and upgrade_day is None:
                upgrade_day = day
            total_dl_today = dl_mb.sum()
            if baseline_dl_total is None:
                baseline_dl_total = max(total_dl_today, 1e-9)
            load_proxy = total_dl_today / baseline_dl_total
            ul_loss_today = _BASE_VOICE_UL_LOSS * (0.45 + 0.55 * load_proxy)

            loss_noise = day_rng.lognormal(0.0, 0.2, size=(2, num_sites))
            app_rate_cells = params.app_rate_mbps * day_rng.lognormal(
                0.0, 0.10, size=num_sites
            )

            # All 24 hours scheduled in one vectorized block: every
            # operation is elementwise over (hour, cell), so the block
            # is bitwise identical to the historical hour-at-a-time
            # loop.  (hours, cells) orientation throughout.
            dl_hour = dl_mb.T[BIN_OF_HOUR] * traffic_w[:, None]
            voice_min_hour = voice_minutes.T[BIN_OF_HOUR] * voice_w[:, None]
            voice_dl_hour = voice_min_hour * mb_dl
            voice_ul_hour = voice_min_hour * mb_ul
            # All-bearer volumes include the QCI-1 voice bearer.
            total_dl_hour = dl_hour + voice_dl_hour
            total_ul_hour = (
                ul_mb.T[BIN_OF_HOUR] * traffic_w[:, None] + voice_ul_hour
            )
            connected = presence.T[BIN_OF_HOUR] / BIN_SECONDS
            # Active DL users: present users weighted by the
            # context-dependent probability of cellular activity,
            # scaled by the day's overall demand level.
            active_users = (
                activity.T[BIN_OF_HOUR]
                / BIN_SECONDS
                * params.peak_activity_probability
                * act_profile[:, None]
                * np.sqrt(params.demand_multiplier)
            )
            with telemetry.span("scheduler") as sched_span:
                kpis = scheduler.schedule_hours(
                    capacity_mbps=capacity_mbps,
                    offered_dl_mb=total_dl_hour,
                    offered_ul_mb=total_ul_hour,
                    active_users=active_users,
                    app_rate_dl_mbps=app_rate_cells,
                )
                sched_span.add(
                    "cell_hours", int(num_sites) * HOURS_PER_DAY
                )
            accumulator.add_day(
                day,
                {
                    "dl_volume_mb": kpis.served_dl_mb,
                    "ul_volume_mb": kpis.served_ul_mb,
                    "dl_active_users": kpis.dl_active_users,
                    "radio_load_pct": kpis.radio_load_pct,
                    "user_dl_throughput_mbps": (
                        kpis.user_dl_throughput_mbps
                    ),
                    "active_seconds": kpis.active_seconds,
                    "connected_users": connected,
                    "voice_volume_mb": voice_dl_hour + voice_ul_hour,
                    "voice_users": voice_min_hour / 60.0,
                    "voice_ul_loss_rate": ul_loss_today * loss_noise[0],
                    "voice_dl_loss_rate": dl_loss_today * loss_noise[1],
                },
                num_hours=HOURS_PER_DAY,
            )

            # RAT connected-time feed (§2.4's 75%-on-4G measurement).
            connected_share = merged.total_connected_s / (
                86_400.0 * max(num_users, 1)
            )
            for rat, rat_sum in zip(Rat, rat_sums):
                rat_time_rows.append(
                    {
                        "day": day,
                        "rat": rat.value,
                        "connected_seconds": float(rat_sum * connected_share),
                    }
                )

            if progress is not None:
                progress(day, calendar.num_days)

            if signaling_frames is not None or events_writer is not None:
                with telemetry.span("signaling") as signal_span:
                    segments = segments_from_dwell(
                        merged.dwell_s,
                        agents.anchor_sites,
                        agents.user_ids,
                        BIN_SECONDS,
                    )
                    day_frame = signaling_generator.generate_day(
                        segments,
                        np.random.default_rng(
                            np.random.SeedSequence(
                                entropy=config.seed, spawn_key=(11, day)
                            )
                        ),
                    )
                    signal_span.add("events", len(day_frame))
                    if events_writer is not None:
                        # Landed on disk and released: the day frame
                        # never outlives its loop iteration.
                        events_writer.write_day(day, day_frame)
                    else:
                        signaling_frames[day] = day_frame

        if stream_writer is not None:
            # The mapped feed over the still-uncommitted partition;
            # save_feeds to the same directory commits it in place.
            mobility = stream_writer.finish()
        signaling_feed = signaling_frames
        if events_writer is not None:
            signaling_feed = events_writer.finish()

        with telemetry.span("kpi_reduction") as kpi_span:
            radio_kpis = accumulator.daily_frame()
            kpi_span.add("kpi_rows", len(radio_kpis))

        return DataFeeds(
            calendar=calendar,
            geography=geography,
            lookup=PostcodeLookup(geography),
            topology=topology,
            catalog=world.catalog,
            base=world.base,
            agents=agents,
            mobility=mobility,
            radio_kpis=radio_kpis,
            rat_time=Frame.from_rows(rat_time_rows),
            epidemic=world.epidemic,
            signaling=signaling_feed,
            interconnect_upgrade_day=upgrade_day,
            config=config,
            # Coordinator state a later window needs to continue this
            # run bitwise-identically (only the window's own days —
            # append_feeds extends the persisted series).
            live={
                "voice_mb_by_day": voice_mb_by_day,
                "baseline_dl_total": baseline_dl_total,
            },
        )
