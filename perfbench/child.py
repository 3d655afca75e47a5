"""One set-up or one repeat of a workload, in a fresh interpreter.

``run.py`` starts this script once per set-up and once per repeat, so
that ``ru_maxrss`` (of the process and of its pool workers) is that
repeat's own peak and nothing memoized in-process survives between
repeats.  The single argument is a JSON object::

    {"workload": "cold_report", "action": "repeat", "seed": 2020,
     "source": "<input dir>", "target": "<scratch dir>", "trace": false,
     "check": true}

``check`` false marks the warm-up repeat, whose output is not hashed.

The last line printed is a JSON object with the measurements.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS


def _rusage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
        "self_maxrss_kib": own.ru_maxrss,
        "children_maxrss_kib": kids.ru_maxrss,
    }


def _dir_bytes(path: Path) -> int:
    if not path.is_dir():
        return 0
    return sum(
        entry.stat().st_size for entry in path.rglob("*") if entry.is_file()
    )


def _traced():
    """Start recording: a recorder that remembers which span paths came
    home from pool workers, plus spans around layer calls no program
    span covers.  Returns the recorder."""
    from repro import telemetry
    from repro.analysis.cache import ArtifactCache
    from repro.io.columnar import ColumnarWriter
    from repro.network.kpi import KpiAccumulator
    from repro.simulation import engine
    from repro.simulation.checkpoint import CheckpointStore

    class Recorder(telemetry.TelemetryRecorder):
        def __init__(self):
            super().__init__()
            self.absorbed: set[str] = set()

        def absorb(self, snapshot, prefix=None):
            for path in snapshot.get("spans", {}):
                self.absorbed.add(f"{prefix}/{path}" if prefix else path)
            super().absorb(snapshot, prefix=prefix)

    def wrap(owner, attribute, span_name):
        original = getattr(owner, attribute)

        def timed(*args, **kwargs):
            with telemetry.span(span_name):
                return original(*args, **kwargs)

        setattr(owner, attribute, timed)

    # Pool workers are forked from this process and inherit the wrappers.
    wrap(engine, "build_world", "world")
    wrap(ColumnarWriter, "write_day", "stream_write")
    wrap(KpiAccumulator, "add_day", "kpi_add_day")
    wrap(CheckpointStore, "save_day", "checkpoint_save")
    wrap(CheckpointStore, "clear", "checkpoint_clear")
    wrap(ArtifactCache, "get", "cache_get")
    wrap(ArtifactCache, "put", "cache_put")
    return telemetry.enable(Recorder())


def main(spec: dict) -> dict:
    import importlib

    workload = WORKLOADS[spec["workload"]]
    # Imported before timing, so import cost lands in the interpreter
    # start rather than in the first call that needs a module.
    for module in workload.modules:
        importlib.import_module(module)
    seed = int(spec["seed"])
    target = Path(spec["target"])
    if spec["action"] == "setup":
        workload.setup(target, seed)
        return {"ok": True}

    from repro import telemetry

    source = Path(spec["source"])
    recorder = _traced() if spec["trace"] else None
    tracer = telemetry.span if recorder is not None else None
    before = _rusage()
    samples, details, output = workload.operation(
        source, target, seed, tracer, not spec["check"]
    )
    after = _rusage()
    telemetry.disable()
    # Outside the timing: the output check and the run directory's size.
    run_dir = target if target.is_dir() else source
    result = {
        "ok": True,
        "samples": samples,
        "details": details,
        "cpu_s": after["cpu_s"] - before["cpu_s"],
        "coordinator_rss_mib": after["self_maxrss_kib"] / 1024,
        # The children's peak before the operation is a helper process
        # of the interpreter start; a larger one is a pool worker.
        "worker_rss_mib": (
            after["children_maxrss_kib"] / 1024
            if after["children_maxrss_kib"] > before["children_maxrss_kib"]
            else 0.0
        ),
        "digest": workload.digest(target, output) if spec["check"] else None,
        "run_dir_bytes": _dir_bytes(run_dir),
    }
    if recorder is not None:
        result["telemetry"] = recorder.snapshot()
        result["absorbed"] = sorted(recorder.absorbed)
    return result


if __name__ == "__main__":
    started = time.perf_counter()
    try:
        payload = main(json.loads(sys.argv[1]))
    except Exception as err:  # reported to run.py as a failed operation
        traceback.print_exc()
        payload = {"ok": False, "error": f"{type(err).__name__}: {err}"}
    payload["process_s"] = time.perf_counter() - started
    payload["pid"] = os.getpid()
    print(json.dumps(payload))
