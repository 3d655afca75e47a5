"""Per-layer numbers from one traced repeat.

The traced repeat records one span tree: the benchmark's own spans
around each public call (``api.simulate``, ``Run.open``, ``study.fig3``,
...) at the root, the program's ``repro.telemetry`` spans nested under
them, and the spans ``child.py`` wraps around layer calls that no
program span covers.  Paths are ``/``-joined span names.

- A span's *self* time is its inclusive time minus that of its
  in-process children.  Spans absorbed from pool workers are worker
  busy time: they are never subtracted from the coordinator.
- Each span belongs to the layer of its own name, or of its nearest
  ancestor that names a layer.  The benchmark's root spans name none,
  so time inside a public call that no layer span covers counts as
  unattributed.
"""

from __future__ import annotations

#: Span name -> layer.  ``world`` is the wrapped ``build_world``, which
#: belongs to the store's load when ``load_feeds`` rebuilds the world.
LAYER_OF_SPAN = {
    "build_world": "engine.world",
    "world": "engine.world",
    "run_context": "engine.shard_loop",
    "shard_execution": "engine.shard_loop",
    "shard": "engine.shard_loop",
    "simulate": "engine.coordinator",
    "merge_shards": "engine.merge",
    "scheduler": "engine.reductions",
    "voice_interconnect": "engine.reductions",
    "kpi_add_day": "engine.reductions",
    "kpi_reduction": "engine.reductions",
    "signaling": "engine.reductions",
    "checkpoint_save": "checkpoint",
    "checkpoint_clear": "checkpoint",
    "save_feeds": "io.commit",
    "append_feeds": "io.commit",
    "columnar_commit": "io.commit",
    "events_commit": "io.commit",
    "stream_write": "io.commit",
    "load_feeds": "io.load",
    "metrics": "core.kernels",
    "home_detection": "core.kernels",
    "label_kpis": "core.label_kpis",
    "summary": "study.figures",
    "report": "study.figures",
    "rat_share": "study.figures",
    "cluster_correlations": "study.figures",
    **{f"fig{number}": "study.figures" for number in range(2, 13)},
    "cache_get": "cache",
    "cache_put": "cache",
    "analysis_fanout": "parallel",
}

UNATTRIBUTED = "unattributed"


def _layer(path: str) -> str:
    names = path.split("/")
    if names[-1] == "world" and "load_feeds" in names:
        return "io.load"
    # Root spans are the benchmark's own; they name no layer.
    for name in reversed(names[1:]):
        layer = LAYER_OF_SPAN.get(name)
        if layer is not None:
            return layer
    return UNATTRIBUTED


def self_times(spans: dict, absorbed: set[str]) -> dict[str, float]:
    """Self time of every span path (see the module docstring)."""
    own = {path: stats["seconds"] for path, stats in spans.items()}
    for path, stats in spans.items():
        parent, _, _ = path.rpartition("/")
        # A worker span nests in a worker span, a coordinator span in a
        # coordinator span; a worker span under the coordinator's
        # dispatching span ran in parallel to it.
        if parent in own and (path in absorbed) == (parent in absorbed):
            own[parent] -= stats["seconds"]
    return own


def layer_table(spans: dict, absorbed: set[str], wall: float) -> dict:
    """Coordinator self time and worker busy time per layer."""
    own = self_times(spans, absorbed)
    table: dict[str, dict[str, float]] = {}
    for path, seconds in own.items():
        row = table.setdefault(_layer(path), {"self_s": 0.0, "worker_s": 0.0})
        row["worker_s" if path in absorbed else "self_s"] += seconds
    attributed = sum(
        row["self_s"] for layer, row in table.items() if layer != UNATTRIBUTED
    )
    table.setdefault(UNATTRIBUTED, {"self_s": 0.0, "worker_s": 0.0})
    # Root span self time plus the benchmark's own time between calls.
    table[UNATTRIBUTED]["self_s"] = max(wall - attributed, 0.0)
    return table


def _leaf(path: str) -> str:
    return path.rpartition("/")[2]


def per_layer_metrics(trace: dict) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` from a traced repeat.

    ``trace`` holds the child's traced result plus ``wall_s`` (traced
    wall time) and ``untraced_wall_s`` (median untraced repeat wall).
    """
    snapshot = trace["telemetry"]
    spans = snapshot["spans"]
    counters = snapshot["counters"]
    absorbed = set(trace["absorbed"])
    own = self_times(spans, absorbed)
    wall = trace["wall_s"]

    def inclusive(name: str) -> float:
        return sum(
            stats["seconds"]
            for path, stats in spans.items()
            if _leaf(path) == name
        )

    def self_of(name: str, *, under=None, not_under=None) -> float:
        total = 0.0
        for path, seconds in own.items():
            names = path.split("/")
            if names[-1] != name or len(names) < 2:
                continue
            if under is not None and under not in names:
                continue
            if not_under is not None and not_under in names:
                continue
            total += seconds
        return total

    def counter(name: str) -> float:
        return float(counters.get(name, 0))

    simulate = [
        stats for path, stats in spans.items() if _leaf(path) == "simulate"
    ]
    user_days = sum(
        stats["counters"].get("users", 0)
        / stats["calls"]
        * stats["counters"].get("days", 0)
        for stats in simulate
    )
    metric_spans = [
        stats for path, stats in spans.items() if _leaf(path) == "metrics"
    ]
    metric_seconds = sum(stats["seconds"] for stats in metric_spans)
    metric_user_days = sum(
        stats["counters"].get("user_days", 0) for stats in metric_spans
    )
    hits, misses = counter("cache.hits"), counter("cache.misses")
    table = layer_table(spans, absorbed, wall)

    metrics = {
        "engine.build_world_s": self_of("build_world")
        + self_of("world", not_under="load_feeds"),
        "engine.shard_execution_s": inclusive("shard_execution"),
        "engine.shard_busy_s": inclusive("shard"),
        "engine.user_days": user_days,
        "engine.coordinator_s": self_of("simulate"),
        "engine.merge_s": self_of("merge_shards"),
        "engine.scheduler_s": self_of("scheduler"),
        "engine.voice_interconnect_s": self_of("voice_interconnect"),
        "engine.kpi_accumulate_s": self_of("kpi_add_day"),
        "engine.kpi_reduction_s": self_of("kpi_reduction"),
        "engine.shard_retries": counter("engine.shard_retries"),
        "engine.pool_degradations": counter("engine.pool_degradations"),
        "checkpoint.days_saved": counter("engine.checkpoint_days_saved"),
        "checkpoint.save_s": inclusive("checkpoint_save"),
        "checkpoint.clear_s": inclusive("checkpoint_clear"),
        "io.save_s": self_of("save_feeds"),
        "io.append_s": self_of("append_feeds"),
        "io.columnar_commit_s": self_of("columnar_commit"),
        "io.stream_write_s": self_of("stream_write"),
        "io.run_dir_bytes": float(trace["run_dir_bytes"]),
        "io.load_s": self_of("load_feeds"),
        "io.load_world_s": self_of("world", under="load_feeds"),
        "io.digest_verifications": counter("store.digest_verifications"),
        "io.bytes_mapped": counter("store.bytes_mapped"),
        "core.metrics_s": self_of("metrics"),
        "core.metrics_user_days_per_s": (
            metric_user_days / metric_seconds if metric_seconds else 0.0
        ),
        "core.homes_s": self_of("home_detection"),
        "core.label_kpis_s": self_of("label_kpis"),
        **{
            f"study.fig{number}_s": self_of(f"fig{number}")
            for number in range(2, 13)
        },
        "study.summary_self_s": self_of("summary"),
        "study.report_self_s": self_of("report"),
        "frames.group_by.rows_in": counter("frames.group_by.rows_in"),
        "frames.join.rows_out": counter("frames.join.rows_out"),
        "frames.pivot.rows_in": counter("frames.pivot.rows_in"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.bytes_written": counter("cache.bytes_written"),
        "cache.get_s": self_of("cache_get"),
        "cache.put_s": self_of("cache_put"),
        "parallel.fanout_s": inclusive("analysis_fanout"),
        "parallel.shards_dispatched": counter("analysis.shards_dispatched"),
        "parallel.pool_degraded": counter("analysis.pool_degraded"),
        "pool.worker_rss_mib": trace["worker_rss_mib"],
        "trace.wall_s": wall,
        "trace.overhead_ratio": wall / trace["untraced_wall_s"],
        "trace.unattributed_share": table[UNATTRIBUTED]["self_s"] / wall,
    }
    return metrics
