"""Comparative reports: delta tables + overlaid weekly panels.

Rendering is deliberately boring and deterministic: fixed metric
ordering, fixed float formats, scenario columns in grid order.  Every
number comes from study artifacts that are themselves bitwise-stable
(and cache-served on warm reruns), so the report text of a warm rerun
is byte-identical to the cold run that populated the caches.

Two entry points:

- :func:`grid_report` — the cross-scenario report of a
  :class:`~repro.experiments.grid.GridResult` (what ``repro
  experiment`` prints);
- :func:`compare_runs` — the same report over arbitrary persisted run
  directories (what ``repro compare`` prints), the first directory
  acting as the baseline.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro import telemetry
from repro.core.report import render_series_block

__all__ = [
    "DELTA_METRICS",
    "OVERLAY_METRICS",
    "comparative_report",
    "compare_runs",
    "delta_table",
    "grid_report",
]

#: The headline metrics of the delta table: (row label, summary key).
DELTA_METRICS = (
    ("gyration change, weeks 13-14 (%)", "gyration_change_lockdown_pct"),
    ("entropy change, weeks 13-14 (%)", "entropy_change_lockdown_pct"),
    ("DL volume minimum (%)", "dl_volume_min_pct"),
    ("UL volume lockdown max (%)", "ul_volume_lockdown_max_pct"),
    ("active DL users minimum (%)", "active_users_min_pct"),
    ("user DL throughput minimum (%)", "throughput_min_pct"),
    ("radio load minimum (%)", "radio_load_min_pct"),
    ("voice volume peak (%)", "voice_volume_peak_pct"),
    ("voice DL loss peak (%)", "voice_dl_loss_peak_pct"),
    ("Inner London away share", "inner_london_away_share_lockdown"),
)

#: The overlaid weekly panels: (panel title, figure, metric).
OVERLAY_METRICS = (
    ("national gyration (weekly mean of daily % change)",
     "fig3", "gyration"),
    ("downlink volume (weekly median % vs week 9)",
     "fig8", "dl_volume_mb"),
    ("voice volume (weekly median % vs week 9)",
     "fig9", "voice_volume_mb"),
)

_LABEL_WIDTH = 34
_CELL_WIDTH = 18


def delta_table(
    summaries: dict[str, dict[str, float]],
    baseline: str,
    metrics=DELTA_METRICS,
) -> str:
    """Headline metrics: baseline absolute, every other as a delta.

    ``summaries`` maps label → headline-summary dict; columns keep the
    mapping's insertion order with ``baseline`` first.
    """
    if baseline not in summaries:
        raise KeyError(f"baseline {baseline!r} missing from summaries")
    labels = [baseline] + [
        label for label in summaries if label != baseline
    ]
    header = f"{'metric':<{_LABEL_WIDTH}}" + "".join(
        f"{_short(label):>{_CELL_WIDTH}}" for label in labels
    )
    lines = [header, "-" * len(header)]
    base = summaries[baseline]
    for row_label, key in metrics:
        cells = [f"{base[key]:>{_CELL_WIDTH}.1f}"]
        for label in labels[1:]:
            delta = summaries[label][key] - base[key]
            cells.append(f"{delta:>+{_CELL_WIDTH}.1f}")
        lines.append(f"{row_label:<{_LABEL_WIDTH}}" + "".join(cells))
    lines.append(
        f"{'':<{_LABEL_WIDTH}}"
        + f"{'(absolute)':>{_CELL_WIDTH}}"
        + "".join(
            f"{'(delta)':>{_CELL_WIDTH}}" for _ in labels[1:]
        )
    )
    return "\n".join(lines)


def _short(label: str, width: int = _CELL_WIDTH - 2) -> str:
    return label if len(label) <= width else label[: width - 1] + "…"


def _overlay_series(study) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(weeks, national values) per overlay metric for one study."""
    from repro.core.baseline import weekly_mean

    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    gyration = study.fig3()["gyration"]
    weeks_of_day = study.feeds.calendar.weeks[gyration.x]
    out["fig3/gyration"] = weekly_mean(
        gyration.values["UK"], weeks_of_day
    )
    for figure, metric in (
        ("fig8", "dl_volume_mb"), ("fig9", "voice_volume_mb"),
    ):
        series = getattr(study, figure)()[metric]
        out[f"{figure}/{metric}"] = (series.weeks, series.values["UK"])
    return out


def _cell_overlays(cell) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """One grid cell's overlay series, without loading feeds if warm.

    A deferred (reused) cell's figure payloads usually sit in its
    run directory's artifact cache; decoding them there skips
    ``load_feeds`` entirely — the dominant cost of a warm grid.  Any
    miss falls back to the study, which loads the run lazily.
    """
    if not cell.loaded:
        cached = _cached_overlay_series(cell)
        if cached is not None:
            return cached
    return _overlay_series(cell.run.study())


def _cached_overlay_series(cell):
    from repro.analysis.cache import DEFAULT_GYRATION_MODE
    from repro.core.baseline import weekly_mean

    if cell.calendar is None:
        return None
    fig3 = cell.cached_artifact(
        "fig3", {"gyration_mode": DEFAULT_GYRATION_MODE}
    )
    fig8 = cell.cached_artifact("fig8", {"percentile": 50.0})
    fig9 = cell.cached_artifact("fig9", {"percentile": 50.0})
    if fig3 is None or fig8 is None or fig9 is None:
        return None
    gyration = fig3["gyration"]
    weeks_of_day = cell.calendar.weeks[gyration.x]
    out = {
        "fig3/gyration": weekly_mean(
            gyration.values["UK"], weeks_of_day
        )
    }
    for figure, payload, metric in (
        ("fig8", fig8, "dl_volume_mb"),
        ("fig9", fig9, "voice_volume_mb"),
    ):
        series = payload[metric]
        out[f"{figure}/{metric}"] = (series.weeks, series.values["UK"])
    return out


def comparative_report(
    labels: list[str],
    baseline: str,
    summaries: dict[str, dict[str, float]],
    overlays: dict[str, dict[str, tuple[np.ndarray, np.ndarray]]],
    header_lines: list[str],
) -> str:
    """Assemble the full report from per-label summaries and series."""
    blocks = ["\n".join(header_lines)]
    ordered = {
        label: summaries[label]
        for label in [baseline]
        + [label for label in labels if label != baseline]
    }
    blocks.append(
        "Headline deltas vs baseline\n"
        "===========================\n" + delta_table(ordered, baseline)
    )
    label_width = max(26, max(len(label) for label in labels) + 2)
    for title, figure, metric in OVERLAY_METRICS:
        key = f"{figure}/{metric}"
        weeks = overlays[baseline][key][0]
        series = {
            label: overlays[label][key][1] for label in ordered
        }
        blocks.append(
            render_series_block(
                f"Weekly variation — {title}",
                weeks,
                series,
                label_width=label_width,
            )
        )
    if telemetry.enabled():
        telemetry.count("experiments.reports_rendered")
    return "\n\n".join(blocks)


def grid_report(result) -> str:
    """The comparative report of an executed grid."""
    spec = result.spec
    labels = list(spec.ordered_scenarios)
    summaries = {
        scenario: result.mean_summary(scenario) for scenario in labels
    }
    overlays = {
        scenario: _mean_overlays(
            [
                _cell_overlays(cell)
                for cell in result.scenario_cells(scenario)
            ]
        )
        for scenario in labels
    }
    users = (
        "preset users"
        if spec.num_users is None
        else f"{spec.num_users} users"
    )
    header = [
        f"Experiment grid — {len(labels)} scenarios x "
        f"{len(spec.seeds)} seeds ({spec.preset} preset, {users})",
        f"baseline: {spec.baseline}",
        f"seeds: {', '.join(str(seed) for seed in spec.seeds)}",
    ]
    return comparative_report(
        labels, spec.baseline, summaries, overlays, header
    )


def _mean_overlays(
    per_seed: list[dict[str, tuple[np.ndarray, np.ndarray]]],
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Seed-mean of each overlay series (weeks are identical)."""
    merged: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for key in per_seed[0]:
        weeks = per_seed[0][key][0]
        stacked = np.stack([series[key][1] for series in per_seed])
        merged[key] = (weeks, stacked.mean(axis=0))
    return merged


def compare_runs(directories: list[str | Path]) -> str:
    """The comparative report over persisted run directories.

    The first directory is the baseline; labels are directory names
    (disambiguated when they repeat).  Analysis is served from each
    run's artifact cache when warm.
    """
    from repro import api

    if len(directories) < 2:
        raise ValueError("compare needs at least two run directories")
    labels: list[str] = []
    summaries: dict[str, dict[str, float]] = {}
    overlays: dict[str, dict] = {}
    for directory in directories:
        label = _unique_label(Path(directory).name, labels)
        labels.append(label)
        study = api.Run.open(directory).study()
        summaries[label] = study.summary()
        overlays[label] = _overlay_series(study)
    header = [
        f"Run comparison — {len(labels)} runs",
        f"baseline: {labels[0]}",
    ]
    return comparative_report(
        labels, labels[0], summaries, overlays, header
    )


def _unique_label(name: str, taken: list[str]) -> str:
    if name not in taken:
        return name
    index = 2
    while f"{name} ({index})" in taken:
        index += 1
    return f"{name} ({index})"
