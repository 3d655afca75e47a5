"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro simulate --preset small --seed 7 --out runs/small7
    python -m repro analyze runs/small7
    python -m repro summary runs/small7
    python -m repro report --preset tiny --seed 3

``simulate`` runs the engine and persists the feeds; ``analyze`` /
``summary`` reload a persisted run and print the full figure report or
just the headline numbers; ``report`` does simulate + analyze in one
shot without touching disk (or, given a run directory, reports on it).

Every feed-consuming subcommand (``analyze``, ``summary``, ``report``,
``verdict``, ``export``, ``watch``) takes the run directory as its
positional argument.  They all take the same trio of switches:
``--lazy`` memory-maps the run's columnar feed partition instead of
materializing it (same output, bounded peak memory — see
:mod:`repro.io.columnar`), ``--no-cache`` bypasses the persistent
artifact cache for one invocation, and ``--telemetry`` appends the
phase table.

``watch`` is the live-operator loop: it polls a run directory that
another process is advancing day-by-day (:meth:`repro.api.Run.advance`)
and reprints the summary and paper-target verdict whenever new days
land, serving unchanged day ranges from the artifact cache so a
refresh costs seconds, not a full recompute (see ``docs/LIVE.md``).

``simulate --out DIR`` checkpoints every completed shard-day under
``DIR/checkpoints`` while running (disable with ``--no-checkpoint``).
If the run dies — a crashed worker, a kill -9, a full disk —
``simulate --resume DIR`` restores the completed days and computes
only the rest, bitwise-identical to an uninterrupted run.  Checkpoints
are removed once the feeds are saved.

Pass ``--telemetry`` to ``simulate``, ``analyze``, or ``report`` to
record span timings and counters for the command and print the phase
table after the normal output (see ``docs/OBSERVABILITY.md``). On
``simulate`` the snapshot is additionally persisted into the run's
``manifest.json``.

Analysis results are cached persistently: the first ``analyze`` /
``summary`` / ``verdict`` on a run directory stores every artifact in
``<run>/cache/analysis/`` (content-addressed on the feed digests in the
manifest — see :mod:`repro.analysis.cache`), and later invocations
fetch them back without even reloading the feeds, printing output
byte-identical to a cold run.  ``--no-cache`` bypasses the cache for
one invocation; ``python -m repro cache <run> --info/--clear`` inspects
or deletes the store.

Counterfactual sweeps run through the scenario catalog (see
``docs/SCENARIOS.md``): ``scenarios`` lists it, ``experiment`` fans a
(scenario × seed) grid across the engine and prints the comparative
report, and ``compare`` renders the same report over arbitrary saved
run directories.  With ``experiment --workdir DIR`` every cell persists
and a warm rerun reloads instead of re-simulating, printing bytes
identical to the cold run.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

__all__ = ["main", "build_parser"]

_PRESETS = ("tiny", "small", "default")


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Characterization of the COVID-19 "
            "Pandemic Impact on a Mobile Network Operator Traffic' "
            "(IMC 2020) on a synthetic MNO."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser(
        "simulate", help="run the simulator and persist the feeds"
    )
    _add_preset_args(simulate)
    simulate.add_argument(
        "--out", help="directory to save the run into"
    )
    simulate.add_argument(
        "--resume", metavar="DIR",
        help=(
            "complete an interrupted run from its checkpoints (uses "
            "the configuration stored with them; other simulate "
            "options are ignored)"
        ),
    )
    simulate.add_argument(
        "--no-checkpoint", action="store_true",
        help=(
            "do not write per-day checkpoints while running (an "
            "interrupted run cannot be resumed)"
        ),
    )
    _add_telemetry_arg(simulate)

    analyze = commands.add_parser(
        "analyze", help="reload a run and print the full figure report"
    )
    _add_rundir_args(analyze)
    _add_cache_arg(analyze)
    _add_telemetry_arg(analyze)
    _add_workers_arg(analyze)

    summary = commands.add_parser(
        "summary", help="reload a run and print the headline numbers"
    )
    _add_rundir_args(summary)
    _add_cache_arg(summary)
    _add_telemetry_arg(summary)
    _add_workers_arg(summary)

    report = commands.add_parser(
        "report",
        help=(
            "print the report for a run directory, or simulate one "
            "in memory and report on it"
        ),
    )
    _add_rundir_args(report, required=False)
    _add_preset_args(report)
    _add_cache_arg(report)
    _add_telemetry_arg(report)

    verdict = commands.add_parser(
        "verdict",
        help="reload a run and score it against every paper target",
    )
    _add_rundir_args(verdict)
    _add_cache_arg(verdict)
    _add_telemetry_arg(verdict)
    _add_workers_arg(verdict)

    watch = commands.add_parser(
        "watch",
        help=(
            "follow a live run: reprint summary + verdict whenever "
            "another process advances it"
        ),
    )
    _add_rundir_args(watch)
    _add_cache_arg(watch)
    _add_telemetry_arg(watch)
    _add_workers_arg(watch)
    watch.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="poll period for the run's manifest (default: 2.0)",
    )
    watch.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help=(
            "stop after N polls (default: watch until the run freezes "
            "at its horizon, or Ctrl-C)"
        ),
    )

    cache = commands.add_parser(
        "cache",
        help="inspect or clear a run's analysis artifact cache",
    )
    cache.add_argument("rundir", help="saved-run directory")
    cache.add_argument(
        "--info", action="store_true",
        help="print the entry count and total size (the default)",
    )
    cache.add_argument(
        "--clear", action="store_true",
        help="delete every cached analysis artifact of the run",
    )

    export = commands.add_parser(
        "export",
        help="reload a run and write every figure's series as CSVs",
    )
    _add_rundir_args(export)
    _add_cache_arg(export)
    _add_telemetry_arg(export)
    _add_workers_arg(export)
    export.add_argument(
        "--out", required=True, help="directory for the CSV bundle"
    )

    bench_summary = commands.add_parser(
        "bench-summary",
        help=(
            "collate benchmarks/results/*.json into one markdown "
            "trajectory table (optionally checking for regressions)"
        ),
    )
    bench_summary.add_argument(
        "--results", default="benchmarks/results", metavar="DIR",
        help="directory of bench result JSONs (default: %(default)s)",
    )
    bench_summary.add_argument(
        "--check", default=None, metavar="BASELINE_DIR",
        help=(
            "compare speedup-type gates against the baseline result "
            "JSONs in this directory and exit 1 on regressions"
        ),
    )
    bench_summary.add_argument(
        "--band", type=float, default=15.0, metavar="PCT",
        help=(
            "tolerance band for --check, in percent "
            "(default: %(default)s)"
        ),
    )

    scenarios = commands.add_parser(
        "scenarios",
        help="list the scenario catalog (see docs/SCENARIOS.md)",
    )
    scenarios.add_argument(
        "--digests", action="store_true",
        help=(
            "also print each scenario's configuration digest at the "
            "default preset/seed"
        ),
    )

    experiment = commands.add_parser(
        "experiment",
        help=(
            "run a (scenario x seed) grid and print the comparative "
            "report"
        ),
    )
    experiment.add_argument(
        "scenarios", nargs="+", metavar="SCENARIO",
        help="catalog scenario names (repro scenarios lists them)",
    )
    experiment.add_argument(
        "--seeds", default="2020", metavar="N[,N...]",
        help="comma-separated simulation seeds (default: 2020)",
    )
    experiment.add_argument(
        "--preset", choices=_PRESETS, default="small",
        help="simulation scale per cell (default: small)",
    )
    experiment.add_argument(
        "--users", type=int, default=None,
        help="override the preset's user count per cell",
    )
    experiment.add_argument(
        "--baseline", default="baseline_lockdown",
        help=(
            "scenario the deltas are computed against "
            "(default: baseline_lockdown; added to the grid if absent)"
        ),
    )
    experiment.add_argument(
        "--workdir", default=None, metavar="DIR",
        help=(
            "persist each cell under DIR/<scenario>--seed<seed>; a "
            "rerun reuses matching cells instead of re-simulating"
        ),
    )
    _add_telemetry_arg(experiment)

    compare = commands.add_parser(
        "compare",
        help=(
            "print the comparative report over saved run directories "
            "(first one is the baseline)"
        ),
    )
    compare.add_argument(
        "rundirs", nargs="+", metavar="DIR",
        help="two or more saved-run directories",
    )
    compare.add_argument(
        "--lazy", action="store_true",
        help=(
            "memory-map each run's mobility shards on demand instead "
            "of materializing them"
        ),
    )
    _add_telemetry_arg(compare)
    return parser


def _add_rundir_args(
    parser: argparse.ArgumentParser, required: bool = True
) -> None:
    parser.add_argument(
        "rundir", nargs="?", default=None,
        help="saved-run directory"
        + ("" if required else " (omit to simulate in memory)"),
    )
    parser.add_argument(
        "--lazy", action="store_true",
        help=(
            "memory-map the run's mobility shards on demand instead of "
            "materializing them (bounded peak memory; for large runs)"
        ),
    )


def _add_preset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset", choices=_PRESETS, default="small",
        help="simulation scale (default: small)",
    )
    parser.add_argument(
        "--seed", type=int, default=2020, help="simulation seed"
    )
    parser.add_argument(
        "--users", type=int, default=None,
        help="override the preset's user count",
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help=(
            "partition the agents into this many deterministic shards "
            "(default: 1, or the worker count when --workers is given)"
        ),
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help=(
            "run the shard day loops on this many processes "
            "(default: 1 = in-process)"
        ),
    )


def _add_workers_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", default="auto", metavar="N",
        help=(
            "fan the shard-streaming analysis kernels across this "
            "many processes; results are bitwise identical for every "
            "value (default: auto = the CPU count; 1 disables)"
        ),
    )


def _workers_from_args(args: argparse.Namespace):
    """The analysis worker request: ``"auto"``, an int, or ``None``."""
    value = getattr(args, "workers", None)
    if value is None or value == "auto":
        return value
    try:
        return int(value)
    except (TypeError, ValueError) as err:
        raise _CliError(
            f"{args.command}: --workers must be an integer or 'auto', "
            f"got {value!r}",
            code=2,
        ) from err


def _add_cache_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-cache", action="store_true",
        help=(
            "neither read nor write the run's persistent analysis "
            "artifact cache for this invocation"
        ),
    )


def _add_telemetry_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry", action="store_true",
        help=(
            "record span timings and counters for this command and "
            "print the phase table after the output"
        ),
    )


class _CliError(Exception):
    """A usage or runtime error the CLI reports as a message + exit 2/1."""

    def __init__(self, message: str, code: int = 1) -> None:
        super().__init__(message)
        self.code = code


class _AnalysisPending(_CliError):
    """The run's window is too short for the analysis (yet)."""

    def __init__(self, manifest: dict | None, reason: Exception) -> None:
        self.label = _run_label(manifest)
        self.reason = reason
        live = "live" in (manifest or {})
        super().__init__(
            f"analysis {'pending' if live else 'unavailable'} "
            f"at {self.label}: {reason}"
        )


def _run_label(manifest: dict | None) -> str:
    """``day N/horizon``, plus `` (live)`` while the run still grows."""
    manifest = manifest or {}
    days = int(manifest.get("num_days", 0))
    horizon = int((manifest.get("live") or {}).get("horizon_days", days))
    return f"day {days}/{horizon}" + (" (live)" if "live" in manifest else "")


def _analysis(rundir, compute, manifest: dict | None = None):
    """``compute()``, or :class:`_AnalysisPending` on a too-short run.

    Home detection needs ``min_nights`` days (``ValueError``); the
    correlation and delta figures need the key intervention dates
    inside the window (``KeyError``).  A live run that has not reached
    them yet reports that instead of a traceback.
    """
    try:
        return compute()
    except (ValueError, KeyError) as err:
        if manifest is None:
            from pathlib import Path

            manifest = _read_manifest(Path(rundir))
        raise _AnalysisPending(manifest, err) from err


def _resolve_rundir(args: argparse.Namespace, required: bool = True):
    """The run directory of a feed-consuming command."""
    rundir = getattr(args, "rundir", None)
    if rundir is None and required:
        raise _CliError(
            f"{args.command}: a run directory is required", code=2
        )
    return rundir


def _config_from_args(args: argparse.Namespace):
    from repro.simulation.config import SimulationConfig

    factory = {
        "tiny": SimulationConfig.tiny,
        "small": SimulationConfig.small,
        "default": SimulationConfig.default,
    }[args.preset]
    config = factory(seed=args.seed)
    if args.users is not None:
        config = config.with_overrides(
            num_users=args.users,
            target_site_count=max(100, args.users // 18),
        )
    if args.shards is not None or args.workers is not None:
        workers = args.workers if args.workers is not None else 1
        shards = args.shards if args.shards is not None else max(workers, 1)
        config = config.with_parallelism(shards, workers=workers)
    return config


def main(argv: Sequence[str] | None = None, out=sys.stdout) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if not getattr(args, "telemetry", False):
            return _run_command(args, out)

        from repro import telemetry
        from repro.telemetry import render_phase_table

        telemetry.enable()
        try:
            code = _run_command(args, out)
            if code == 0:
                print(file=out)
                print(render_phase_table(telemetry.snapshot()), file=out)
            return code
        finally:
            telemetry.disable()
    except _CliError as err:
        print(f"error: {err}", file=out)
        return err.code


def _run_simulate(args: argparse.Namespace, out) -> int:
    from repro.io import RunStoreError, save_feeds
    from repro.simulation.checkpoint import CheckpointStore
    from repro.simulation.engine import Simulator
    from repro.simulation.faults import ShardExecutionError

    def progress(day: int, total: int) -> None:
        if day % 14 == 0 or day == total - 1:
            print(f"  simulated day {day + 1}/{total}", file=out)

    if args.resume is not None and args.out is not None:
        raise _CliError(
            "simulate: --resume already names the run directory; "
            "--out is not allowed with it",
            code=2,
        )
    if args.resume is None and args.out is None:
        raise _CliError(
            "simulate: one of --out or --resume is required", code=2
        )

    target = args.resume if args.resume is not None else args.out
    try:
        if args.resume is not None:
            feeds = Simulator.resume(
                target, progress=progress, stream=True
            )
        else:
            feeds = Simulator(_config_from_args(args)).run(
                progress=progress,
                checkpoint_dir=None if args.no_checkpoint else target,
                # Mobility days land directly in the run directory's
                # columnar partition; save_feeds commits them in place.
                stream_dir=target,
            )
    except ShardExecutionError as err:
        hint = (
            f"\nresume with: python -m repro simulate --resume {target}"
            if err.checkpointed
            else ""
        )
        raise _CliError(f"{err}{hint}") from err
    except RunStoreError as err:
        raise _CliError(str(err)) from err

    path = save_feeds(feeds, target)
    if CheckpointStore.present(target):
        CheckpointStore.open(target).clear()
    print(
        f"saved {feeds.num_users} users x "
        f"{feeds.calendar.num_days} days to {path}",
        file=out,
    )
    return 0


def _run_command(args: argparse.Namespace, out) -> int:
    if args.command == "simulate":
        return _run_simulate(args, out)

    if args.command == "export":
        from repro.io import export_analysis

        rundir = _resolve_rundir(args)
        study = _cached_study(
            rundir,
            _open_cache(args, rundir),
            lazy=getattr(args, "lazy", False),
            workers=_workers_from_args(args),
        )
        path = export_analysis(study, args.out)
        print(f"wrote figure CSVs to {path}", file=out)
        return 0

    if args.command == "cache":
        return _run_cache(args, out)

    if args.command == "bench-summary":
        return _run_bench_summary(args, out)

    if args.command in ("analyze", "summary", "verdict"):
        rundir = _resolve_rundir(args)
        cache = _open_cache(args, rundir)
        lazy = getattr(args, "lazy", False)
        workers = _workers_from_args(args)
        if args.command == "analyze":
            print(
                _analysis(
                    rundir,
                    lambda: _report_text(
                        rundir, cache, full=False, lazy=lazy, workers=workers
                    ),
                ),
                file=out,
            )
            return 0
        summary = _analysis(
            rundir,
            lambda: _summary_values(
                rundir, cache, lazy=lazy, workers=workers
            ),
        )
        if args.command == "summary":
            for key, value in summary.items():
                print(f"{key:<42} {value:>12.3f}", file=out)
        else:
            from repro.core.paper_targets import (
                evaluate_summary,
                render_verdicts,
            )

            print(render_verdicts(evaluate_summary(summary)), file=out)
        return 0

    if args.command == "watch":
        return _run_watch(args, out)

    if args.command == "scenarios":
        return _run_scenarios(args, out)

    if args.command == "experiment":
        return _run_experiment(args, out)

    if args.command == "compare":
        return _run_compare(args, out)

    if args.command == "report":
        rundir = _resolve_rundir(args, required=False)
        if rundir is not None:
            cache = _open_cache(args, rundir)
            print(
                _report_text(
                    rundir, cache, full=False,
                    lazy=getattr(args, "lazy", False),
                    # report shares --workers with the simulate preset
                    # switches; unset means the auto analysis default.
                    workers=_workers_from_args(args) or "auto",
                ),
                file=out,
            )
        else:
            from repro.core import CovidImpactStudy

            study = CovidImpactStudy.run(_config_from_args(args))
            print(study.report(), file=out)
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def _read_manifest(rundir):
    """The run's parsed ``manifest.json``, or ``None`` before the first
    save.  The manifest is replaced atomically (every save and every
    live append commits by renaming it), so a successful parse is
    always a consistent run state — never a torn append."""
    import json

    path = rundir / "manifest.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None


def _run_watch(args: argparse.Namespace, out) -> int:
    import time
    from pathlib import Path

    rundir = Path(_resolve_rundir(args))
    interval = max(float(args.interval), 0.0)
    remaining = args.iterations  # None: poll until frozen or Ctrl-C
    last_days = None
    try:
        while True:
            manifest = _read_manifest(rundir)
            if manifest is None:
                print(f"watch: waiting for {rundir}/manifest.json", file=out)
            else:
                days = int(manifest.get("num_days", 0))
                frozen = "live" not in manifest
                if days != last_days:
                    last_days = days
                    _watch_refresh(args, rundir, manifest, out)
                if frozen:
                    print(
                        f"watch: run frozen at {days} days; done",
                        file=out,
                    )
                    return 0
            if remaining is not None:
                remaining -= 1
                if remaining <= 0:
                    return 0
            time.sleep(interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


def _watch_refresh(args, rundir, manifest, out) -> None:
    """Print one summary + verdict refresh, timed.

    The refresh never materializes the feeds: analysis artifacts are
    served from the run's cache when warm, and a cold (newly advanced)
    range recomputes over the memory-mapped partition (``lazy``), with
    already-seen day ranges reused from their range artifacts.
    """
    import time

    from repro.core.paper_targets import evaluate_summary, render_verdicts

    start = time.perf_counter()
    # Reopen per refresh: the cache is keyed on the manifest's feed
    # digests, which change with every appended day.
    cache = _open_cache(args, rundir)
    workers = _workers_from_args(args)
    try:
        summary = _analysis(
            rundir,
            lambda: _summary_values(rundir, cache, lazy=True, workers=workers),
            manifest,
        )
    except _AnalysisPending as pending:
        # Report progress and keep polling.
        print(f"{pending.label}: warming up ({pending.reason})", file=out)
        return
    print(f"== {_run_label(manifest)} ==", file=out)
    for key, value in summary.items():
        print(f"{key:<42} {value:>12.3f}", file=out)
    print(render_verdicts(evaluate_summary(summary)), file=out)
    print(
        f"refreshed in {time.perf_counter() - start:.2f}s", file=out
    )


def _run_scenarios(args: argparse.Namespace, out) -> int:
    from repro.datasets import (
        get_scenario,
        scenario_config,
        scenario_names,
    )
    from repro.datasets.spec import config_digest

    width = max(len(name) for name in scenario_names()) + 2
    for name in scenario_names():
        line = f"{name:<{width}}{get_scenario(name).description}"
        if args.digests:
            digest = config_digest(scenario_config(name))
            line += f"  [{digest[:12]}]"
        print(line, file=out)
    return 0


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(
            int(part) for part in text.split(",") if part.strip()
        )
    except ValueError:
        seeds = ()
    if not seeds:
        raise _CliError(
            f"experiment: --seeds must be comma-separated integers, "
            f"got {text!r}",
            code=2,
        )
    return seeds


def _run_experiment(args: argparse.Namespace, out) -> int:
    from repro import api

    def progress(scenario: str, seed: int, action: str) -> None:
        print(f"  {scenario} seed {seed}: {action}", file=out)

    try:
        result = api.experiment(
            args.scenarios,
            seeds=_parse_seeds(args.seeds),
            preset=args.preset,
            num_users=args.users,
            baseline=args.baseline,
            directory=args.workdir,
            progress=progress,
        )
    except ValueError as err:
        raise _CliError(f"experiment: {err}", code=2) from err
    print(file=out)
    print(result.report(), file=out)
    return 0


def _run_compare(args: argparse.Namespace, out) -> int:
    from repro.experiments import compare_runs
    from repro.io import RunStoreError

    if len(args.rundirs) < 2:
        raise _CliError(
            "compare: at least two run directories are required", code=2
        )
    try:
        print(compare_runs(args.rundirs, lazy=args.lazy), file=out)
    except RunStoreError as err:
        raise _CliError(str(err)) from err
    return 0


def _open_cache(args: argparse.Namespace, rundir):
    """The run's artifact cache, or ``None`` (--no-cache, no digests)."""
    if getattr(args, "no_cache", False):
        return None
    from repro.analysis.cache import ArtifactCache

    return ArtifactCache.open(rundir)


def _cached_study(rundir, cache, lazy: bool = False, workers=None):
    from repro.core import CovidImpactStudy
    from repro.io import load_feeds

    return CovidImpactStudy(
        _load(load_feeds, rundir, lazy=lazy), cache=cache, workers=workers
    )


def _report_text(
    rundir, cache, full: bool, lazy: bool = False, workers=None
) -> str:
    """The rendered report — from the cache alone when warm.

    A cache hit skips ``load_feeds`` entirely: the artifact is keyed on
    the manifest's feed digests, so nothing else needs to be read.
    """
    if cache is not None:
        from repro.analysis.cache import report_params

        text = cache.get("report", report_params(full))
        if isinstance(text, str):
            return text
    return _cached_study(
        rundir, cache, lazy=lazy, workers=workers
    ).report(full=full)


def _summary_values(
    rundir, cache, lazy: bool = False, workers=None
) -> dict:
    """The headline-summary mapping — from the cache alone when warm."""
    if cache is not None:
        from repro.analysis.cache import summary_params

        summary = cache.get("summary", summary_params())
        if isinstance(summary, dict):
            return summary
    return _cached_study(
        rundir, cache, lazy=lazy, workers=workers
    ).summary()


def _run_bench_summary(args: argparse.Namespace, out) -> int:
    from repro import benchreport

    print(benchreport.summarize(args.results), file=out)
    if args.check is None:
        return 0
    fresh = benchreport.metric_rows(
        benchreport.collect_results(args.results)
    )
    baseline = benchreport.metric_rows(
        benchreport.collect_results(args.check)
    )
    if not baseline:
        print(
            f"\nno baseline results under {args.check}; "
            "nothing to check",
            file=out,
        )
        return 0
    failures = benchreport.check_regressions(
        fresh, baseline, band_pct=args.band
    )
    if failures:
        print(
            f"\n{len(failures)} gate regression(s) vs {args.check} "
            f"(band {args.band:g}%):",
            file=out,
        )
        for failure in failures:
            print(f"  {failure}", file=out)
        return 1
    print(
        f"\nno gate regressions vs {args.check} (band {args.band:g}%)",
        file=out,
    )
    return 0


def _run_cache(args: argparse.Namespace, out) -> int:
    from pathlib import Path

    from repro.analysis.cache import CACHE_SUBDIR, ArtifactCache

    if args.info and args.clear:
        raise _CliError(
            "cache: --info and --clear are mutually exclusive", code=2
        )
    rundir = Path(args.rundir)
    if not rundir.is_dir():
        raise _CliError(
            f"cache: run directory {rundir} does not exist", code=2
        )
    store = ArtifactCache(rundir / CACHE_SUBDIR, {})
    info = store.info()
    if args.clear:
        store.clear()
        print(
            f"cleared {info['entries']} cached artifacts "
            f"({info['bytes']} bytes) from {info['directory']}",
            file=out,
        )
    else:
        print(
            f"{info['directory']}: {info['entries']} cached artifacts, "
            f"{info['bytes']} bytes",
            file=out,
        )
    return 0


def _load(load_feeds, directory, lazy: bool = False):
    from repro.io import RunStoreError

    try:
        return load_feeds(directory, lazy=lazy)
    except RunStoreError as err:
        raise _CliError(str(err)) from err


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
