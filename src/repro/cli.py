"""Command-line interface: a shell over :mod:`repro.api`.

Usage (after ``pip install -e .``)::

    python -m repro simulate --preset small --seed 7 --out runs/small7
    python -m repro analyze runs/small7
    python -m repro summary runs/small7
    python -m repro report --preset tiny --seed 3

Every verb drives the lifecycle through the API: ``simulate --out``
is :func:`repro.api.simulate`, ``simulate --resume`` is
:func:`repro.api.resume`, and the analysis verbs open the run with
:meth:`repro.api.Run.open` and analyze it with :meth:`Run.study
<repro.api.Run.study>`.  The CLI itself only parses arguments, serves
warm results from the artifact cache, formats errors and prints.

``simulate`` runs the engine and persists the feeds; ``analyze`` /
``summary`` reload a persisted run and print the short report (Figs 3,
8 and 9 plus the headline numbers) or just the headline numbers;
``report`` simulates in memory and reports on the result without
touching disk.

The analysis verbs (``analyze``, ``summary``, ``verdict``, ``export``,
``watch``) take the run directory as their positional argument, plus
``--no-cache`` (bypass the persistent artifact cache for one
invocation), ``--telemetry`` (append the phase table) and
``--workers N`` (fan the shard-streaming kernels across N processes,
or ``auto`` for the CPU count; the default runs them in process, and
every value prints the same bytes).  Every verb opens the run's
columnar feed partition memory-mapped (bounded peak memory — see
:mod:`repro.io.columnar`).

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
are removed once the feeds are saved.  A directory that already holds
a loadable run (finished, or live with a killed advance) is only
opened: ``--resume`` prints its state and changes nothing.

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

A malformed count (``--users``, ``--shards``, ``--workers``,
``--iterations``) is rejected while parsing: exit code 2 and one
``error:`` line naming the flag.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

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
            "options are ignored); a loadable run is only opened"
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
        "analyze",
        help=(
            "reload a run and print the short report (Figs 3, 8, 9 "
            "and the headline numbers)"
        ),
    )
    _add_analysis_args(analyze)

    summary = commands.add_parser(
        "summary", help="reload a run and print the headline numbers"
    )
    _add_analysis_args(summary)

    report = commands.add_parser(
        "report",
        help="simulate in memory and print the short report",
    )
    _add_preset_args(report)
    _add_telemetry_arg(report)

    verdict = commands.add_parser(
        "verdict",
        help="reload a run and score it against every paper target",
    )
    _add_analysis_args(verdict)

    watch = commands.add_parser(
        "watch",
        help=(
            "follow a live run: reprint summary + verdict whenever "
            "another process advances it"
        ),
    )
    _add_analysis_args(watch)
    watch.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="poll period for the run's manifest (default: 2.0)",
    )
    watch.add_argument(
        "--iterations", type=_positive_int, default=None, metavar="N",
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
    _add_analysis_args(export)
    export.add_argument(
        "--out", required=True, help="directory for the CSV bundle"
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
        "--users", type=_positive_int, default=None,
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
    _add_telemetry_arg(compare)
    return parser


def _positive_int(text: str) -> int:
    """The argparse type of every count option: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        )
    return value


def _workers_or_auto(text: str) -> int | str:
    """The analysis ``--workers`` type: a positive integer or ``auto``."""
    if text == "auto":
        return text
    try:
        return _positive_int(text)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer or 'auto', got {text!r}"
        ) from None


def _add_analysis_args(parser: argparse.ArgumentParser) -> None:
    """The run directory and switches shared by the analysis verbs."""
    parser.add_argument(
        "rundir", nargs="?", default=None, help="saved-run directory"
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help=(
            "neither read nor write the run's persistent analysis "
            "artifact cache for this invocation"
        ),
    )
    _add_telemetry_arg(parser)
    parser.add_argument(
        "--workers", type=_workers_or_auto, default=None, metavar="N",
        help=(
            "fan the shard-streaming analysis kernels across N "
            "processes, or 'auto' for the CPU count; results are "
            "bitwise identical for every value (default: in process)"
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
        "--users", type=_positive_int, default=None,
        help="override the preset's user count",
    )
    parser.add_argument(
        "--shards", type=_positive_int, default=None,
        help=(
            "partition the agents into this many deterministic shards "
            "(default: 1, or the worker count when --workers is given)"
        ),
    )
    parser.add_argument(
        "--workers", type=_positive_int, default=None,
        help=(
            "run the shard day loops on this many processes "
            "(default: 1 = in-process)"
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
    them yet reports that instead of a traceback.  ``compute`` opens
    the run through :func:`_study`, which has already turned a store
    error (a ``ValueError`` too) into its own one-line error.
    """
    try:
        return compute()
    except (ValueError, KeyError) as err:
        if manifest is None:
            manifest = _read_manifest(Path(rundir))
        raise _AnalysisPending(manifest, err) from err


def _resolve_rundir(args: argparse.Namespace):
    """The run directory of an analysis verb."""
    if args.rundir is None:
        raise _CliError(
            f"{args.command}: a run directory is required", code=2
        )
    return args.rundir


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
        shards = args.shards if args.shards is not None else workers
        config = config.with_parallelism(shards, workers=workers)
    return config


def main(argv: Sequence[str] | None = None, out=sys.stdout) -> int:
    """CLI entry point; returns a process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:
        # argparse has printed the usage and its one ``error:`` line
        # (or the help text); hand its exit code back like any other.
        return stop.code
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
    from repro import api
    from repro.io import RunStoreError
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
    # A committed manifest means api.resume only opens the run.
    loadable = (
        args.resume is not None and _read_manifest(Path(target)) is not None
    )
    try:
        if args.resume is not None:
            run = api.resume(target, progress=progress)
        else:
            run = api.simulate(
                _config_from_args(args),
                target,
                checkpoint=not args.no_checkpoint,
                progress=progress,
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

    if loadable:
        print(f"nothing to resume: {run!r}", file=out)
    else:
        print(
            f"saved {run.feeds.num_users} users x {run.days} days "
            f"to {run.directory}",
            file=out,
        )
    return 0


def _run_command(args: argparse.Namespace, out) -> int:
    if args.command == "simulate":
        return _run_simulate(args, out)

    if args.command == "export":
        from repro.io import export_analysis

        rundir = _resolve_rundir(args)
        study = _study(args, rundir, _open_cache(args, rundir))
        path = export_analysis(study, args.out)
        print(f"wrote figure CSVs to {path}", file=out)
        return 0

    if args.command == "cache":
        return _run_cache(args, out)

    if args.command in ("analyze", "summary", "verdict"):
        rundir = _resolve_rundir(args)
        cache = _open_cache(args, rundir)
        if args.command == "analyze":
            print(
                _analysis(
                    rundir, lambda: _report_text(args, rundir, cache)
                ),
                file=out,
            )
            return 0
        summary = _analysis(
            rundir, lambda: _summary_values(args, rundir, cache)
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
        from repro import api

        print(
            api.simulate(_config_from_args(args)).study().report(),
            file=out,
        )
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def _read_manifest(rundir: Path):
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

    Analysis artifacts are served from the run's cache when warm, and
    a cold (newly advanced) range recomputes over the memory-mapped
    partition, with already-seen day ranges reused from their range
    artifacts.
    """
    import time

    from repro.core.paper_targets import evaluate_summary, render_verdicts

    start = time.perf_counter()
    # Reopen per refresh: the cache is keyed on the manifest's feed
    # digests, which change with every appended day.
    cache = _open_cache(args, rundir)
    try:
        summary = _analysis(
            rundir,
            lambda: _summary_values(args, rundir, cache),
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
        print(compare_runs(args.rundirs), file=out)
    except RunStoreError as err:
        raise _CliError(str(err)) from err
    return 0


def _open_cache(args: argparse.Namespace, rundir):
    """The run's artifact cache: ``False`` under ``--no-cache``, and
    ``None`` for a run without recorded feed digests."""
    if args.no_cache:
        return False
    from repro.analysis.cache import ArtifactCache

    return ArtifactCache.open(rundir)


def _study(args: argparse.Namespace, rundir, cache):
    """The cold path: open the run through the API and study it."""
    from repro import api
    from repro.io import RunStoreError

    try:
        run = api.Run.open(rundir)
    except RunStoreError as err:
        raise _CliError(str(err)) from err
    return run.study(cache=cache or False, workers=args.workers)


def _report_text(args: argparse.Namespace, rundir, cache) -> str:
    """The rendered short report — from the cache alone when warm.

    A cache hit skips loading the feeds entirely: the artifact is
    keyed on the manifest's feed digests, so nothing else needs to be
    read.
    """
    if cache:
        from repro.analysis.cache import report_params

        text = cache.get("report", report_params(False))
        if isinstance(text, str):
            return text
    return _study(args, rundir, cache).report(full=False)


def _summary_values(args: argparse.Namespace, rundir, cache) -> dict:
    """The headline-summary mapping — from the cache alone when warm."""
    if cache:
        from repro.analysis.cache import summary_params

        summary = cache.get("summary", summary_params())
        if isinstance(summary, dict):
            return summary
    return _study(args, rundir, cache).summary()


def _run_cache(args: argparse.Namespace, out) -> int:
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


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
