"""Frame kernel sweep: vectorized segment kernels vs the naive oracle.

Times the hot frames reductions — grouped order statistics and
joins — at 1e5–1e6 rows in both modes
(``REPRO_FRAMES_NAIVE=1`` vs the vectorized default), verifies the
outputs are bitwise identical, and records seconds + speedups as JSON
next to ``parallel_scaling.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_frames_kernels.py -q

The shapes mirror a country-scale KPI feed: ~rows/10 groups (cells ×
days) and a lookup-table join fanning labels onto every observation.
"""

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.frames import Frame, group_by, join

SIZES = (100_000, 316_000, 1_000_000)
RESULTS_PATH = Path(__file__).parent / "results" / "frames_kernels.json"
BENCH_SEED = 2020

# Acceptance floor: the vectorized path must beat the naive loops by at
# least this factor for grouped median and join at the largest size.
MIN_SPEEDUP = 5.0
GATED_OPERATIONS = ("grouped_median", "join_inner")


@contextmanager
def naive_mode():
    previous = os.environ.get("REPRO_FRAMES_NAIVE")
    os.environ["REPRO_FRAMES_NAIVE"] = "1"
    try:
        yield
    finally:
        if previous is None:
            del os.environ["REPRO_FRAMES_NAIVE"]
        else:
            os.environ["REPRO_FRAMES_NAIVE"] = previous


def make_feed(rows: int) -> dict:
    """Synthetic KPI-shaped columns: dense cell keys, float metrics."""
    rng = np.random.default_rng(BENCH_SEED)
    num_cells = max(rows // 10, 1)
    cells = rng.integers(0, num_cells, rows)
    lookup_cells = np.arange(num_cells)
    return {
        "frame": Frame(
            {
                "cell": cells,
                "day": rng.integers(0, 100, rows),
                "volume": rng.lognormal(3.0, 1.0, rows),
            }
        ),
        "lookup": Frame(
            {
                "cell": lookup_cells,
                "county": rng.integers(0, 50, num_cells).astype(str),
            }
        ),
    }


def operations(feed: dict) -> dict:
    frame, lookup = feed["frame"], feed["lookup"]
    return {
        "grouped_median": lambda: group_by(frame, "cell").agg(
            med=("volume", "median")
        ),
        "grouped_p90": lambda: group_by(frame, "cell").agg(
            p90=("volume", ("percentile", 90))
        ),
        "grouped_nunique": lambda: group_by(frame, "cell").agg(
            days=("day", "nunique")
        ),
        "join_inner": lambda: join(frame, lookup, on="cell"),
        "join_left": lambda: join(frame, lookup, on="cell", how="left"),
    }


def identical(left, right) -> bool:
    """Bitwise equality of two frames."""
    if left.column_names != right.column_names:
        return False
    return all(
        left[name].dtype == right[name].dtype
        and np.array_equal(left[name], right[name])
        for name in left.column_names
    )


def timed(operation) -> tuple[float, object]:
    start = time.perf_counter()
    result = operation()
    return time.perf_counter() - start, result


def run_sweep() -> dict:
    rows_report = []
    for size in SIZES:
        feed = make_feed(size)
        for name, operation in operations(feed).items():
            vectorized_s, vectorized = timed(operation)
            with naive_mode():
                naive_s, naive = timed(operation)
            rows_report.append(
                {
                    "operation": name,
                    "rows": size,
                    "naive_seconds": naive_s,
                    "vectorized_seconds": vectorized_s,
                    "speedup": naive_s / vectorized_s,
                    "bitwise_identical": identical(vectorized, naive),
                }
            )
    return {
        "seed": BENCH_SEED,
        "cpu_count": os.cpu_count(),
        "sizes": list(SIZES),
        "sweep": rows_report,
    }


def test_frames_kernel_sweep():
    """Sweep all kernels; record JSON; gate the headline speedups."""
    report = run_sweep()
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")

    print("\nFrame kernel sweep (naive vs vectorized)")
    print(f"{'operation':>20}{'rows':>10}{'naive s':>10}{'vect s':>10}"
          f"{'speedup':>9}  identical")
    for row in report["sweep"]:
        print(
            f"{row['operation']:>20}{row['rows']:>10}"
            f"{row['naive_seconds']:>10.3f}{row['vectorized_seconds']:>10.3f}"
            f"{row['speedup']:>8.1f}x  {row['bitwise_identical']}"
        )

    assert all(row["bitwise_identical"] for row in report["sweep"]), (
        "vectorized kernels diverged from the naive oracle"
    )
    largest = [row for row in report["sweep"] if row["rows"] == SIZES[-1]]
    for row in largest:
        if row["operation"] in GATED_OPERATIONS:
            assert row["speedup"] >= MIN_SPEEDUP, (
                f"{row['operation']} at {row['rows']} rows: "
                f"{row['speedup']:.1f}x < {MIN_SPEEDUP}x"
            )


if __name__ == "__main__":
    test_frames_kernel_sweep()
