"""The grid runner: (scenario × seed) cells over the existing engine.

:func:`run_grid` executes an :class:`ExperimentSpec` — a set of catalog
scenarios crossed with seeds at one population scale — and returns a
:class:`GridResult` whose cells wrap ordinary :class:`repro.api.Run`
handles.  Nothing is re-implemented: each cell is one engine run with
all its machinery (checkpoints, columnar streaming, the artifact
cache) intact.

Reuse is the point.  With a ``workdir``, every cell persists under
``<workdir>/<scenario>--seed<seed>/`` next to a ``cell.json`` sidecar
recording the cell's :func:`~repro.datasets.spec.config_digest`; a
rerun whose digest matches *reuses* the cell instead of simulating it,
serving its analysis straight from the run's content-addressed
``cache/analysis/`` store without even loading the feeds — so a warm
grid costs a handful of manifest and NPZ reads, not simulations, and
reproduces its report byte-for-byte.  A stale cell
(the spec changed, the code epoch moved) digests differently and is
simulated afresh.  Without a ``workdir``, cells stay in memory and the
per-process run memo (:mod:`repro.datasets.runcache`) still removes
duplicate simulations.

Telemetry (when enabled): the grid runs under an ``experiment`` span;
``experiments.cells_total`` / ``experiments.cells_simulated`` /
``experiments.cells_reused`` count cell fates.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.datasets.scenarios import scenario_config, scenario_names
from repro.datasets.spec import config_digest
from repro.io.durable import writing

__all__ = ["ExperimentSpec", "GridCell", "GridResult", "run_grid"]

#: Name of the per-cell sidecar recording what the cell was built from.
CELL_SIDECAR = "cell.json"


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: scenarios × seeds at a population scale.

    ``baseline`` is the scenario every other one is compared against;
    it is added to the grid automatically when not already listed.
    ``workdir`` enables persistent cells (and therefore warm reruns).
    """

    scenarios: tuple[str, ...]
    seeds: tuple[int, ...] = (2020,)
    preset: str = "small"
    num_users: int | None = None
    baseline: str = "baseline_lockdown"
    workdir: str | Path | None = None

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ValueError("an experiment needs at least one scenario")
        if not self.seeds:
            raise ValueError("an experiment needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be unique")
        known = set(scenario_names())
        for name in (*self.scenarios, self.baseline):
            if name not in known:
                raise ValueError(
                    f"unknown scenario {name!r}; catalog: "
                    f"{', '.join(sorted(known))}"
                )

    @property
    def ordered_scenarios(self) -> tuple[str, ...]:
        """Baseline first, then the requested order (de-duplicated)."""
        ordered = [self.baseline]
        for name in self.scenarios:
            if name not in ordered:
                ordered.append(name)
        return tuple(ordered)

    def cell_config(self, scenario: str, seed: int):
        """The compiled configuration of one cell."""
        return scenario_config(
            scenario,
            preset=self.preset,
            seed=seed,
            num_users=self.num_users,
        )


@dataclass
class GridCell:
    """One executed cell: a scenario at a seed, as a ``Run`` handle.

    A reused persisted cell is *deferred*: its feeds are not loaded at
    grid time, and stay unloaded as long as every requested artifact
    (the summary, the report's figure payloads) is served from the
    cell's ``cache/analysis/`` store — the same trick that lets a warm
    CLI invocation skip ``load_feeds``.  Touching :attr:`run` loads
    the directory lazily (memory-mapped feeds) on first use.
    """

    scenario: str
    seed: int
    digest: str
    reused: bool
    directory: Path | None = None
    calendar: object = None
    _run: object | None = field(default=None, repr=False)
    _summary: dict | None = field(default=None, repr=False)

    @property
    def run(self):
        """The cell's :class:`repro.api.Run` handle (loaded on demand)."""
        if self._run is None:
            from repro import api

            self._run = api.Run.open(self.directory)
        return self._run

    @property
    def loaded(self) -> bool:
        """Whether the cell's feeds are open in this process."""
        return self._run is not None

    def cached_artifact(self, name: str, params: dict):
        """A payload from the cell's persistent artifact cache, or None."""
        if self.directory is None:
            return None
        from repro.analysis.cache import ArtifactCache

        cache = ArtifactCache.open(self.directory)
        return None if cache is None else cache.get(name, params)

    def summary(self) -> dict:
        """The cell's headline summary (cache-first, cached on the handle)."""
        if self._summary is None:
            if not self.loaded:
                from repro.analysis.cache import summary_params

                cached = self.cached_artifact("summary", summary_params())
                if isinstance(cached, dict):
                    self._summary = cached
                    return self._summary
            self._summary = self.run.study().summary()
        return self._summary


@dataclass
class GridResult:
    """Every cell of an executed grid, plus the comparative report."""

    spec: ExperimentSpec
    cells: tuple[GridCell, ...]

    def cell(self, scenario: str, seed: int) -> GridCell:
        for cell in self.cells:
            if cell.scenario == scenario and cell.seed == seed:
                return cell
        raise KeyError(f"no cell ({scenario!r}, seed {seed})")

    def scenario_cells(self, scenario: str) -> tuple[GridCell, ...]:
        """The scenario's cells in the spec's seed order."""
        return tuple(
            cell for cell in self.cells if cell.scenario == scenario
        )

    def mean_summary(self, scenario: str) -> dict[str, float]:
        """Headline summary averaged across the scenario's seeds."""
        summaries = [
            cell.summary() for cell in self.scenario_cells(scenario)
        ]
        if not summaries:
            raise KeyError(f"no cells for scenario {scenario!r}")
        return {
            key: float(
                np.mean([summary[key] for summary in summaries])
            )
            for key in summaries[0]
        }

    def report(self) -> str:
        """The cross-scenario comparative report (deterministic)."""
        from repro.experiments.compare import grid_report

        return grid_report(self)


def run_grid(spec: ExperimentSpec, progress=None) -> GridResult:
    """Execute every (scenario × seed) cell and return the results.

    ``progress``, when given, is called as ``progress(scenario, seed,
    action)`` with ``action`` one of ``"reused"`` / ``"simulated"``
    after each cell completes.
    """
    workdir = None if spec.workdir is None else Path(spec.workdir)
    if workdir is not None:
        workdir.mkdir(parents=True, exist_ok=True)
    cells: list[GridCell] = []
    with telemetry.span(
        "experiment",
        scenarios=len(spec.ordered_scenarios),
        seeds=len(spec.seeds),
    ):
        for scenario in spec.ordered_scenarios:
            for seed in spec.seeds:
                cell = _run_cell(spec, scenario, seed, workdir)
                if telemetry.enabled():
                    telemetry.count("experiments.cells_total")
                    telemetry.count(
                        "experiments.cells_reused"
                        if cell.reused
                        else "experiments.cells_simulated"
                    )
                if progress is not None:
                    progress(
                        scenario,
                        seed,
                        "reused" if cell.reused else "simulated",
                    )
                cells.append(cell)
    return GridResult(spec=spec, cells=tuple(cells))


def _run_cell(
    spec: ExperimentSpec,
    scenario: str,
    seed: int,
    workdir: Path | None,
) -> GridCell:
    from repro import api

    config = spec.cell_config(scenario, seed)
    digest = config_digest(config)

    if workdir is None:
        # In-memory cell: the per-process run memo dedupes repeats.
        from repro.datasets.runcache import simulate_cached

        feeds = simulate_cached(config)
        return GridCell(
            scenario=scenario,
            seed=seed,
            digest=digest,
            reused=False,
            calendar=config.calendar,
            _run=api.Run(feeds),
        )

    directory = workdir / f"{scenario}--seed{seed}"
    if _sidecar_matches(directory, digest) and _cell_intact(directory):
        # Deferred reuse: no feeds are loaded here.  The summary and
        # the report's figure payloads come from the cell's artifact
        # cache; only an artifact miss (or an explicit ``cell.run``)
        # touches the stored feeds, lazily.
        return GridCell(
            scenario=scenario,
            seed=seed,
            digest=digest,
            reused=True,
            directory=directory,
            calendar=config.calendar,
        )
    if directory.exists():
        # A stale or broken cell never pollutes a fresh one.
        shutil.rmtree(directory)
    run = api.simulate(config, directory)
    _write_sidecar(directory, spec, scenario, seed, digest)
    return GridCell(
        scenario=scenario,
        seed=seed,
        digest=digest,
        reused=False,
        directory=directory,
        calendar=config.calendar,
        _run=run,
    )


def _cell_intact(directory: Path) -> bool:
    """Whether the cell directory looks like a complete run store.

    A manifest the store accepts is the cheap completeness signal — it
    is the last file a simulation writes, so an interrupted cell fails
    this check, and so does one saved in a format version the store
    refuses; both are rebuilt rather than trusted.
    """
    from repro.analysis.cache import ArtifactCache
    from repro.io.store import RunStoreError, _read_manifest

    try:
        _read_manifest(directory)
    except RunStoreError:
        return False
    return ArtifactCache.open(directory) is not None


def _sidecar_matches(directory: Path, digest: str) -> bool:
    try:
        sidecar = json.loads(
            (directory / CELL_SIDECAR).read_text(encoding="utf-8")
        )
    except (OSError, json.JSONDecodeError):
        return False
    return sidecar.get("config_digest") == digest


def _write_sidecar(
    directory: Path,
    spec: ExperimentSpec,
    scenario: str,
    seed: int,
    digest: str,
) -> None:
    payload = {
        "scenario": scenario,
        "seed": seed,
        "preset": spec.preset,
        "num_users": spec.num_users,
        "config_digest": digest,
    }
    with writing(directory / CELL_SIDECAR) as staging:
        staging.write_text(
            json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
        )
