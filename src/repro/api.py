"""One front door for the simulate → persist → analyze lifecycle.

Historically, driving a run meant importing from three modules —
``Simulator`` from :mod:`repro.simulation.engine`,
``save_feeds``/``load_feeds`` from :mod:`repro.io`, and
``CovidImpactStudy`` from :mod:`repro.core` — and wiring them together
by hand.  This module folds that lifecycle into a single :class:`Run`
handle:

>>> from repro import api  # doctest: +SKIP
>>> run = api.simulate(SimulationConfig.small(), "runs/s")  # doctest: +SKIP
>>> run.study().summary()["voice_volume_peak_pct"]  # doctest: +SKIP
143.5
>>> again = api.Run.open("runs/s")  # doctest: +SKIP

- :func:`simulate` runs the engine; given a directory it checkpoints
  into and persists to it (crash-safe by default — see
  :mod:`repro.simulation.checkpoint`).  With ``days=N`` it simulates
  only the first N study days and leaves a *live* run;
- :meth:`Run.open` reopens a persisted run, memory-mapping its
  mobility partition; :meth:`Run.save` persists (or re-homes) one;
  :meth:`Run.study` hands back a cached
  :class:`~repro.core.study.CovidImpactStudy`;
- :meth:`Run.advance` extends a live run day-at-a-time: it simulates
  the next window on the same engine, appends it to the run directory
  through a crash-safe commit (:func:`repro.io.append_feeds`), and
  re-analyzes incrementally — bitwise-identical, at every step, to a
  from-scratch run of the same length.  :meth:`Run.frozen` reports
  whether the configured horizon has been reached;
- :func:`resume` completes a run whose producing process died, from
  its per-day checkpoints, bitwise identical to an uninterrupted run.

``python -m repro`` (:mod:`repro.cli`) is a shell over these
functions: ``simulate --out`` is :func:`simulate`, ``simulate
--resume`` is :func:`resume`, and every analysis verb is
:meth:`Run.open` followed by :meth:`Run.study`.

Everything raises :class:`~repro.io.store.RunStoreError` subtypes with
the offending file named, so a broken run directory is a one-line
diagnosis rather than a pickle traceback.
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["Run", "experiment", "resume", "simulate"]

#: Configuration flags whose outputs an append commit cannot extend —
#: a live run would silently diverge from its persisted form, so
#: day-at-a-time mode refuses them up front.
_LIVE_INCOMPATIBLE_FLAGS = ("emit_signaling",)


def _reject_live_config(config) -> None:
    heavy = [
        name
        for name in _LIVE_INCOMPATIBLE_FLAGS
        if getattr(config, name, False)
    ]
    if heavy:
        raise ValueError(
            "live (day-at-a-time) runs grow by append commits, which "
            f"never extend the event partition that {', '.join(heavy)} "
            "writes; disable it or simulate the whole window at once"
        )


class Run:
    """A simulation run: its feeds, and (optionally) its home directory.

    Construct through :func:`simulate`, :meth:`open`, or
    :func:`resume` rather than directly.  The handle is cheap: the
    analysis object is built lazily and cached.  A run persisted with
    fewer days than its configured horizon is *live* —
    :meth:`advance` extends it in place until :meth:`frozen`.
    """

    def __init__(self, feeds, directory: str | Path | None = None) -> None:
        if feeds is None:
            raise ValueError("a Run wraps a produced DataFeeds bundle")
        self._feeds = feeds
        self._directory = None if directory is None else Path(directory)
        self._study = None

    def __repr__(self) -> str:
        home = "in memory" if self._directory is None else self._directory
        span = (
            f"{self.days} days"
            if self.frozen()
            else f"{self.days}/{self.horizon} days (live)"
        )
        return f"Run({self._feeds.num_users} users x {span}, {home})"

    # -- state -------------------------------------------------------------
    @property
    def feeds(self):
        """The :class:`~repro.simulation.feeds.DataFeeds` bundle."""
        return self._feeds

    @property
    def config(self):
        """The configuration that produced the run."""
        return self._feeds.config

    @property
    def directory(self) -> Path | None:
        """Where the run is persisted (``None`` for in-memory runs)."""
        return self._directory

    @property
    def days(self) -> int:
        """Days simulated so far (equals :attr:`horizon` once frozen)."""
        return int(self._feeds.mobility.num_days)

    @property
    def horizon(self) -> int:
        """The configured study length in days."""
        return int(self._feeds.config.calendar.num_days)

    def frozen(self) -> bool:
        """Whether the run has reached its configured horizon.

        A frozen run is a finished study — byte-identical on disk to a
        single whole-window :func:`simulate` — and can no longer be
        :meth:`advance`\\ d.
        """
        return self.days >= self.horizon

    # -- lifecycle ---------------------------------------------------------
    @classmethod
    def open(cls, directory: str | Path, *, lazy: object = None) -> "Run":
        """Open a persisted run directory (finished or live).

        The mobility feed is memory-mapped shard by shard (see
        :func:`repro.io.store.load_feeds`): analysis streams it with
        bounded peak memory, at every population size.  ``lazy`` is
        accepted and ignored; every open is memory-mapped.

        Raises :class:`~repro.io.store.RunStoreError` when the
        directory is missing, interrupted (use :func:`resume`), or
        corrupt — naming the offending file.
        """
        from repro.io import load_feeds

        return cls(load_feeds(directory), directory)

    def save(self, directory: str | Path | None = None) -> Path:
        """Persist the run (defaults to the directory it came from)."""
        from repro.io import save_feeds

        target = self._directory if directory is None else Path(directory)
        if target is None:
            raise ValueError(
                "this run has no home directory; pass one to save(...)"
            )
        path = save_feeds(self._feeds, target)
        self._directory = path
        return path

    def advance(self, days: int = 1, *, progress=None) -> "Run":
        """Simulate and append the next ``days`` study days in place.

        The engine runs only the window ``[self.days, self.days+days)``
        — restoring the coordinator's sequential state (RNG streams,
        voice-interconnect state machine, download baseline) from the
        live state persisted in the manifest — and the result is
        appended to the run directory through
        :func:`repro.io.append_feeds`: new dwell segment files and
        day-count-versioned KPI tables land first, then the manifest is
        atomically rewritten as the single commit point.  A crash at
        any moment leaves the directory loadable at its previous day
        count, and re-calling ``advance`` restores the window days it
        checkpointed instead of recomputing them.

        Incremental analytics: appending invalidates only whole-window
        cache artifacts (their digest-derived keys change); per-range
        artifacts of the existing prefix keep their keys and are reused
        by the next :meth:`study` (:mod:`repro.analysis.mobility`).

        At every intermediate length the *loaded* state — feeds,
        tables, analysis — is bitwise-identical to a from-scratch run
        of the same day count (the on-disk segment layout records the
        advance history; that is what makes appends cheap).  Reaching
        the horizon compacts the partition to the canonical
        single-segment layout, so a frozen live run's directory is
        byte-identical to a whole-window :func:`simulate`'s.

        Returns ``self`` (the handle now wraps the extended feeds; the
        memoized study is reset).
        """
        if self._directory is None:
            raise ValueError(
                "an in-memory run cannot be advanced; persist it first "
                "(simulate(config, directory, days=...))"
            )
        if days < 1:
            raise ValueError("advance needs days >= 1")
        if self.frozen():
            raise ValueError(
                f"run is frozen at its {self.horizon}-day horizon"
            )
        _reject_live_config(self.config)
        from repro.io import append_feeds, load_feeds
        from repro.simulation.engine import Simulator

        day_start = self.days
        day_stop = min(day_start + int(days), self.horizon)
        chunk = Simulator(self.config).run(
            progress=progress,
            checkpoint_dir=self._directory,
            stream_dir=self._directory,
            day_start=day_start,
            day_stop=day_stop,
            live=self._feeds.live,
        )
        append_feeds(self._feeds, chunk, self._directory)
        _clear_checkpoints(self._directory)
        self._feeds = load_feeds(self._directory)
        self._study = None
        if self.frozen():
            # Compact the segmented partition and versioned tables back
            # to the canonical single-segment layout: the frozen
            # directory becomes byte-identical to a batch run's.
            self.save()
            self._feeds = load_feeds(self._directory)
        return self

    # -- analysis ----------------------------------------------------------
    def study(self, *, cache: bool | object = True, workers=None):
        """The paper's analysis over this run's feeds (cached).

        For a persisted run the study automatically attaches the run's
        :class:`~repro.analysis.cache.ArtifactCache` (keyed on the feed
        digests recorded in its manifest), so figure payloads survive
        across processes.  Pass ``cache=False`` for a purely in-memory
        study, or a ready :class:`~repro.analysis.cache.ArtifactCache`
        to use instead.  ``workers`` is ``None`` (in process), a
        positive integer or ``"auto"`` (the CPU count); above 1 it fans
        the shard-streaming kernels across a process pool
        (:mod:`repro.analysis.parallel`) — results are bitwise
        identical for every value, and any other value raises
        :class:`ValueError` when the kernels run.  The figures compute
        in the calling process.  The study handle is memoized per run
        state: the ``cache``/``workers`` arguments only matter on the
        first call, and :meth:`advance` resets the memo (the feeds
        changed).
        """
        if self._study is None:
            from repro.core import CovidImpactStudy

            attached = None
            if cache is True:
                if self._directory is not None:
                    from repro.analysis.cache import ArtifactCache

                    attached = ArtifactCache.for_feeds(
                        self._directory, self._feeds
                    )
            elif cache:
                attached = cache
            self._study = CovidImpactStudy(
                self._feeds, cache=attached, workers=workers
            )
        return self._study


def simulate(
    config=None,
    directory: str | Path | None = None,
    *,
    days: int | None = None,
    checkpoint: bool = True,
    progress=None,
) -> Run:
    """Run the simulator and return a :class:`Run` handle.

    With a ``directory``, the run checkpoints into and persists to it:
    if the process dies mid-run, :func:`resume` completes it from the
    last finished day.  Checkpoints are removed once the run is saved;
    pass ``checkpoint=False`` to skip them entirely.

    ``days=N`` simulates only the first N study days and persists a
    *live* run (requires a ``directory`` — the partial state must be
    stored to be extendable); grow it with :meth:`Run.advance`.  At
    every length the loaded feeds and analysis are bitwise what any
    other advance path to the same day count produces, and the frozen
    directory is byte-identical to a whole-window simulate's.
    """
    from repro.simulation.config import SimulationConfig
    from repro.simulation.engine import Simulator

    config = config or SimulationConfig()
    simulator = Simulator(config)
    if days is not None:
        days = int(days)
        horizon = int(config.calendar.num_days)
        if directory is None:
            raise ValueError(
                "simulate(days=...) starts a live run, which must be "
                "persisted to be advanced; pass a directory"
            )
        if not 1 <= days <= horizon:
            raise ValueError(
                f"days must be in [1, {horizon}] (the configured "
                f"horizon), got {days}"
            )
        if days < horizon:
            _reject_live_config(config)
    if directory is None:
        return Run(simulator.run(progress=progress))
    feeds = simulator.run(
        progress=progress,
        checkpoint_dir=directory if checkpoint else None,
        # Mobility days land directly in the run directory's columnar
        # partition (bounded peak memory); save() below commits them
        # in place.  simulate(config).save(directory) is the in-memory
        # path to the same bytes.
        stream_dir=directory,
        day_stop=days,
    )
    run = Run(feeds, directory)
    run.save()
    _clear_checkpoints(directory)
    if days is not None and days < int(config.calendar.num_days):
        # Live runs are re-opened so the handle's analysis calendar
        # covers exactly the simulated prefix (load_feeds truncates
        # it; the configuration keeps the full horizon for advance()).
        return Run.open(directory)
    return run


def resume(directory: str | Path, progress=None) -> Run:
    """Complete an interrupted run directory and return its handle.

    Restores every checkpointed shard-day, computes the missing ones
    (bitwise-identical to an uninterrupted run), persists the feeds,
    and removes the checkpoints.  A directory that already holds a
    loadable run — finished, *or* a live run whose ``advance`` was
    killed mid-window — is simply opened: a torn advance never touches
    the committed manifest, so the run reopens at its previous day
    count and the next :meth:`Run.advance` restores the checkpointed
    window days.  (An initial ``simulate(days=...)`` killed before its
    first save has no manifest yet; its checkpoints resume to the full
    horizon.)
    """
    from repro.io.store import RunStoreError
    from repro.simulation.checkpoint import CheckpointStore
    from repro.simulation.engine import Simulator

    try:
        return Run.open(directory)
    except RunStoreError:
        # Not loadable as a finished run: resume if there are
        # checkpoints to resume from, otherwise surface the precise
        # load error (missing/corrupt file) untouched.
        if not CheckpointStore.present(directory):
            raise
    feeds = Simulator.resume(directory, progress=progress, stream=True)
    run = Run(feeds, directory)
    run.save()
    _clear_checkpoints(directory)
    return run


def experiment(
    scenarios,
    *,
    seeds=(2020,),
    preset: str = "small",
    num_users: int | None = None,
    baseline: str = "baseline_lockdown",
    directory: str | Path | None = None,
    progress=None,
):
    """Run a (scenario × seed) grid and return its ``GridResult``.

    A thin wrapper over :func:`repro.experiments.run_grid` so a
    comparative sweep is one call from the front door:

    >>> from repro import api  # doctest: +SKIP
    >>> result = api.experiment(
    ...     ["no_intervention", "second_wave"],
    ...     seeds=[1, 2], preset="tiny",
    ...     directory="runs/grid")  # doctest: +SKIP
    >>> print(result.report())  # doctest: +SKIP

    Scenario names come from the catalog
    (:func:`repro.datasets.scenario_names`); ``directory`` enables
    persistent cells that warm reruns reload instead of re-simulating.
    """
    from repro.experiments import ExperimentSpec, run_grid

    spec = ExperimentSpec(
        scenarios=tuple(scenarios),
        seeds=tuple(seeds),
        preset=preset,
        num_users=num_users,
        baseline=baseline,
        workdir=directory,
    )
    return run_grid(spec, progress=progress)


def _clear_checkpoints(directory: str | Path) -> None:
    from repro.simulation.checkpoint import CheckpointStore

    if CheckpointStore.present(directory):
        CheckpointStore.open(directory).clear()
