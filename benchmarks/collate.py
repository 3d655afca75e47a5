"""Collate benchmarks/results/*.json and gate regressions against a baseline.

Every benchmark under ``benchmarks/`` records its measurements as a
JSON file in ``benchmarks/results/`` — heterogeneous trees of timings,
speedups, byte counts and bitwise-identity gates.  This script walks
those trees into one flat, typed metric list so that:

- the whole performance trajectory renders as a single markdown table
  (CI uploads it as an artifact), and
- ``--check BASELINE_DIR`` compares a fresh set of results against the
  committed baselines with a tolerance band, failing on *gate*
  regressions only: speedup-type metrics (the quantities the
  benchmarks assert on) and boolean identity gates.  Absolute timings
  are machine-dependent and stay informational.

Usage::

    python benchmarks/collate.py                      # print the table
    python benchmarks/collate.py --out summary.md     # write it
    python benchmarks/collate.py --check baseline/    # fail on gate
                                                      # regressions

Metric kinds are inferred from key names, so new benchmarks join the
table without registration:

========== ============================================= ============
kind       key pattern                                   checked?
========== ============================================= ============
speedup    ``*speedup*``, ``*_per_sec``, ``*_ratio``     yes (band)
           (except rss/memory ratios, which are
           lower-is-better and budgeted by their bench)
gate       ``bitwise_identical``, ``byte_identical``,    yes (flip)
           ``streaming``, other booleans
seconds    ``*_seconds``                                 no
bytes      ``*_bytes``                                   no
count      other numeric leaves                          no
========== ============================================= ============
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path

#: Keys that never make useful table rows (hashes, labels, prose).
_SKIP_SUFFIXES = ("_sha256", "_path", "_decision")
_SKIP_KEYS = {"auto_path"}


@dataclass(frozen=True)
class MetricRow:
    """One flattened benchmark measurement."""

    bench: str  # result file stem, e.g. "scale"
    metric: str  # dotted path inside the JSON, e.g. "smoke.analyze.x"
    kind: str  # speedup | gate | seconds | bytes | count
    value: float | bool

    @property
    def key(self) -> tuple[str, str]:
        return (self.bench, self.metric)

    @property
    def gated(self) -> bool:
        return self.kind in ("speedup", "gate")


def collect_results(directory: str | Path) -> dict[str, dict]:
    """Parse every ``*.json`` under ``directory``, keyed by file stem.

    Unreadable or non-object files are skipped — a half-written result
    must never break the summary of the others.
    """
    results: dict[str, dict] = {}
    path = Path(directory)
    if not path.is_dir():
        return results
    for file in sorted(path.glob("*.json")):
        try:
            payload = json.loads(file.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(payload, dict):
            results[file.stem] = payload
    return results


def _kind_of(key: str, value) -> str | None:
    base = key.rsplit(".", 1)[-1]
    if base in _SKIP_KEYS or base.endswith(_SKIP_SUFFIXES):
        return None
    if isinstance(value, bool):
        return "gate"
    if not isinstance(value, (int, float)):
        return None
    if "speedup" in base or base.endswith(("_per_sec", "_ratio")):
        # Memory ratios (e.g. rss_payload_ratio) are lower-is-better;
        # gating them as speedups would flag improvements as
        # regressions.  The benchmarks assert their own budgets.
        if "rss" in base or "memory" in base:
            return "count"
        return "speedup"
    if base.endswith("_seconds"):
        return "seconds"
    if base.endswith("_bytes"):
        return "bytes"
    return "count"


def _walk(tree, prefix: str, bench: str, rows: list[MetricRow]) -> None:
    if isinstance(tree, dict):
        for key, value in tree.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, (dict, list)):
                _walk(value, path, bench, rows)
                continue
            kind = _kind_of(path, value)
            if kind is not None:
                rows.append(MetricRow(bench, path, kind, value))
    elif isinstance(tree, list):
        for index, item in enumerate(tree):
            if isinstance(item, (dict, list)):
                # Sweeps label their entries; combine the human key
                # with every numeric discriminator so entries that
                # share a name (same operation, different size) still
                # get distinct metric paths.
                parts: list[str] = []
                if isinstance(item, dict):
                    for name in ("operation", "label", "name"):
                        if isinstance(item.get(name), str):
                            parts.append(item[name])
                            break
                    parts.extend(
                        f"{key}{item[key]}"
                        for key in ("num_shards", "workers", "rows")
                        if isinstance(item.get(key), (int, float))
                        and not isinstance(item.get(key), bool)
                    )
                suffix = "_".join(parts) or str(index)
                _walk(item, f"{prefix}[{suffix}]", bench, rows)


def metric_rows(results: dict[str, dict]) -> list[MetricRow]:
    """Flatten collected result trees into typed metric rows."""
    rows: list[MetricRow] = []
    for bench in sorted(results):
        _walk(results[bench], "", bench, rows)
    return rows


def _format_value(row: MetricRow) -> str:
    if row.kind == "gate":
        return "pass" if row.value else "FAIL"
    value = float(row.value)
    if row.kind == "bytes":
        return f"{value / (1024 * 1024):.1f} MiB"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.3f}"


def render_table(rows: list[MetricRow]) -> str:
    """The collated markdown trajectory table."""
    lines = [
        "| bench | metric | kind | gated | measured |",
        "| --- | --- | --- | --- | --- |",
    ]
    for row in rows:
        lines.append(
            f"| {row.bench} | {row.metric} | {row.kind} "
            f"| {'yes' if row.gated else ''} | {_format_value(row)} |"
        )
    return "\n".join(lines)


def summarize(directory: str | Path) -> str:
    """One-call collation: results directory → markdown table."""
    results = collect_results(directory)
    if not results:
        return f"no benchmark results under {directory}"
    rows = metric_rows(results)
    header = (
        f"# Benchmark trajectory\n\n"
        f"{len(results)} result files, {len(rows)} metrics "
        f"({sum(1 for row in rows if row.gated)} gated).\n"
    )
    return header + "\n" + render_table(rows)


def check_regressions(
    fresh: list[MetricRow],
    baseline: list[MetricRow],
    band_pct: float = 15.0,
) -> list[str]:
    """Gate regressions of ``fresh`` vs ``baseline``, as messages.

    Only gated kinds are compared: a speedup-type metric regresses when
    it drops more than ``band_pct`` percent below its committed
    baseline, and a boolean gate regresses when it flips from pass to
    fail.  Metrics present on only one side are ignored (benchmarks
    come and go); timings and byte counts are never compared.
    """
    by_key = {row.key: row for row in baseline}
    failures: list[str] = []
    for row in fresh:
        base = by_key.get(row.key)
        if base is None or not row.gated or not base.gated:
            continue
        if row.kind == "gate":
            if bool(base.value) and not bool(row.value):
                failures.append(
                    f"{row.bench}:{row.metric} flipped pass -> FAIL"
                )
        elif row.kind == "speedup":
            floor = float(base.value) * (1.0 - band_pct / 100.0)
            if float(row.value) < floor:
                failures.append(
                    f"{row.bench}:{row.metric} regressed to "
                    f"{float(row.value):.3f} (baseline "
                    f"{float(base.value):.3f}, floor {floor:.3f} at "
                    f"{band_pct:g}% band)"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--results",
        default=str(Path(__file__).resolve().parent / "results"),
        help="directory of bench result JSONs",
    )
    parser.add_argument(
        "--out", default=None, help="write the markdown table here"
    )
    parser.add_argument(
        "--check", default=None, metavar="BASELINE_DIR",
        help="fail (exit 1) on gate regressions vs this baseline",
    )
    parser.add_argument(
        "--band", type=float, default=15.0,
        help="tolerance band for --check, percent (default: 15)",
    )
    args = parser.parse_args(argv)

    table = summarize(args.results)
    if args.out:
        Path(args.out).write_text(table + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(table)

    if args.check is None:
        return 0
    fresh = metric_rows(collect_results(args.results))
    baseline = metric_rows(collect_results(args.check))
    if not baseline:
        print(f"no baseline results under {args.check}; nothing to check")
        return 0
    failures = check_regressions(fresh, baseline, band_pct=args.band)
    for failure in failures:
        print(f"REGRESSION: {failure}")
    if failures:
        return 1
    print(f"no gate regressions vs {args.check} (band {args.band:g}%)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
