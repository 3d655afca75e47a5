"""Analysis-path benchmark: cold vs warm CLI through the artifact cache.

A warm ``analyze`` — every artifact served from
``<run>/cache/analysis/`` keyed on the manifest digests, no feeds
loaded — must be at least 5x faster than the cold run that populated
it, with *byte-identical* printed output (cold, warm and
``--no-cache``).  The run is simulated in its own interpreter, so the
cold analyze pays what a fresh ``repro analyze`` does: it builds the
run's world, which ``build_world`` would otherwise hand back from the
simulate.

Results land as JSON in ``benchmarks/results/analysis.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_analysis.py -q
"""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.analysis.cache import ArtifactCache
from repro.cli import main

RESULTS_PATH = Path(__file__).parent / "results" / "analysis.json"
_REPO_ROOT = Path(__file__).parent.parent
BENCH_SEED = 2020
BENCH_USERS = 2_000

#: Acceptance floor for the warm/cold analyze ratio.  In practice the
#: warm path is orders of magnitude faster (it reads one cache entry
#: instead of loading feeds and recomputing 15 artifacts); 5x is the
#: contract.
MIN_WARM_SPEEDUP = 5.0


def _cli(argv) -> str:
    out = io.StringIO()
    code = main(argv, out=out)
    assert code == 0, out.getvalue()
    return out.getvalue()


def _simulate(rundir: Path) -> None:
    """``repro simulate`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO_ROOT / "src")
    completed = subprocess.run(
        [
            sys.executable, "-m", "repro", "simulate",
            "--preset", "tiny", "--seed", str(BENCH_SEED),
            "--users", str(BENCH_USERS), "--out", str(rundir),
        ],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr


def bench_cache(rundir: Path) -> dict:
    _simulate(rundir)

    start = time.perf_counter()
    cold_text = _cli(["analyze", str(rundir)])
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    warm_text = _cli(["analyze", str(rundir)])
    warm_s = time.perf_counter() - start

    start = time.perf_counter()
    nocache_text = _cli(["analyze", str(rundir), "--no-cache"])
    nocache_s = time.perf_counter() - start

    info = ArtifactCache.open(rundir).info()
    return {
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "no_cache_seconds": nocache_s,
        "warm_speedup": cold_s / warm_s,
        "byte_identical": warm_text == cold_text == nocache_text,
        "cache_entries": info["entries"],
        "cache_bytes": info["bytes"],
    }


def test_analysis_bench(tmp_path):
    rundir = tmp_path / "run"
    report = {
        "seed": BENCH_SEED,
        "users": BENCH_USERS,
        "cpu_count": os.cpu_count(),
        "cache": bench_cache(rundir),
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")

    cache = report["cache"]
    print("\nAnalysis pipeline benchmark")
    print(
        f"  analyze: cold {cache['cold_seconds']:.3f}s -> warm "
        f"{cache['warm_seconds']:.3f}s ({cache['warm_speedup']:.1f}x), "
        f"--no-cache {cache['no_cache_seconds']:.3f}s, "
        f"{cache['cache_entries']} entries / {cache['cache_bytes']} B"
    )

    assert cache["byte_identical"], (
        "cold, warm and --no-cache analyze output diverged"
    )
    assert cache["cache_entries"] > 0
    assert cache["warm_speedup"] >= MIN_WARM_SPEEDUP, (
        f"warm analyze only {cache['warm_speedup']:.1f}x faster "
        f"than cold (< {MIN_WARM_SPEEDUP}x)"
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        test_analysis_bench(Path(scratch))
