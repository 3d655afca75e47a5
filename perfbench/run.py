"""Run the benchmark: set up, warm up, time, check, trace.

Usage (from the repository root)::

    python3 perfbench/run.py                       # every workload, traced
    python3 perfbench/run.py --workload cold_report --seed 7 --trace 0

For each workload the run

1. builds the input several times in fresh interpreters (``setup_s`` is
   the median) and keeps the last build;
2. discards one warm-up repeat, so timed repeats start with the run
   directory in page cache;
3. times as many repeats as fill ``--seconds`` on a 2-CPU machine, each
   in a fresh interpreter with a fresh input;
4. with ``--trace 1``, adds one traced repeat and splits its wall time by
   layer (``layers.py``).

Every repeat's output is hashed outside the timing and compared with the
reference recorded in ``reference.json`` for the default seed, or with
the first repeat's for another seed; an exception or a mismatch is a
failed operation.  The last line printed is one JSON object with the
end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or its
per-layer metrics (``--trace 1``).  The full result, with the span tree,
is written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
DEFAULT_SEED = 2020
SETUPS = 3
#: A run must end within 180 s: a set-up or repeat still running this
#: long after the run started is killed and counts as failed.
DEADLINE_S = 165.0


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (no program, set-up failed)."""


def _median(values):
    return statistics.median(values) if values else 0.0


def _spread(values):
    """Interquartile range over the median."""
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


class Runner:
    def __init__(self, workload: str, seed: int, seconds: int):
        from workloads import WORKLOADS

        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.work = SCRATCH / "work" / f"{workload}-{os.getpid()}"
        self.count = 0

    def child(self, action: str, target: Path, **extra) -> dict:
        """One fresh interpreter; returns its result and its wall time."""
        spec = {
            "workload": self.workload.name,
            "action": action,
            "seed": self.seed,
            "target": str(target),
            **extra,
        }
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        start = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        remaining = DEADLINE_S - (start - self.started)
        try:
            stdout, _ = process.communicate(timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            return {"ok": False, "error": "timed out", "wall_s": 0.0}
        finally:
            # Pool workers of a crashed child must not outlive it.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        lines = stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"ok": False, "error": f"exit code {process.returncode}"}
        result["wall_s"] = time.perf_counter() - start
        return result

    def setup(self) -> tuple[list[float], Path]:
        times, target = [], None
        for index in range(SETUPS):
            if target is not None:
                shutil.rmtree(target)
            target = self.work / f"input-{index}"
            result = self.child("setup", target)
            if not result.get("ok"):
                raise BenchmarkError(f"set-up failed: {result.get('error')}")
            times.append(result["wall_s"])
        return times, target

    def repeat(
        self, source: Path, trace: bool = False, check: bool = True
    ) -> dict:
        self.count += 1
        target = self.work / f"repeat-{self.count}"
        result = self.child(
            "repeat", target, source=str(source), trace=trace, check=check
        )
        shutil.rmtree(target, ignore_errors=True)
        return result

    def run(self, trace: bool) -> dict:
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            setups, source = self.setup()
            warmup = self.repeat(source, check=False)
            # The count is fixed before measuring: stopping on elapsed time
            # would keep slow repeats out of fast runs and bias the median.
            count = max(1, round(self.seconds / self.workload.repeat_s))
            timed = [self.repeat(source) for _ in range(count)]
            traced = self.repeat(source, trace=True) if trace else None
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        return {
            "setups": setups,
            "warmup": warmup,
            "timed": timed,
            "traced": traced,
        }


def _check(name: str, seed: int, repeats: list[dict]) -> tuple[int, list]:
    """Failed operations among ``repeats`` (see the module docstring)."""
    reference = None
    if seed == DEFAULT_SEED:
        recorded = json.loads((HERE / "reference.json").read_text())
        reference = recorded["digests"].get(name)
    failed, digests = 0, []
    for result in repeats:
        digest = result.get("digest") if result.get("ok") else None
        digests.append(digest)
        if digest is None:
            failed += 1
        elif reference is None:
            reference = digest
        elif digest != reference:
            failed += 1
    return failed, digests


#: Metrics whose run value is the highest sample (the memory a user must
#: provide), not the median.
PEAK_METRICS = {"coordinator_rss_mib", "worker_rss_mib"}


def _value(metric: str, values: list[float]) -> float:
    if metric in PEAK_METRICS:
        return max(values, default=0.0)
    return _median(values)


def _samples(raw: dict) -> dict[str, list[float]]:
    """Per-operation samples of the end-to-end metrics and the workload's
    own numbers (``cpu_s``, ``worker_rss_mib``, ``advance_s``,
    ``refresh_s``)."""
    timed = [result for result in raw["timed"] if result.get("ok")]
    untraced = [
        result for result in (raw["warmup"], *timed) if result.get("ok")
    ]
    samples = {
        "setup_s": raw["setups"],
        "wall_s": [sample for result in timed for sample in result["samples"]],
        "coordinator_rss_mib": [
            result["coordinator_rss_mib"] for result in untraced
        ],
        "disk_mib": [result["run_dir_bytes"] / 2**20 for result in timed],
        "cpu_s": [
            result["cpu_s"] / len(result["samples"]) for result in timed
        ],
        "worker_rss_mib": [result["worker_rss_mib"] for result in untraced],
    }
    for key in ("advance_s", "refresh_s"):
        values = [
            value
            for result in timed
            for value in result["details"].get(key, [])
        ]
        if values:
            samples[key] = values
    return samples


def _print_table(title: str, rows) -> None:
    print(f"  {title:<24}{'unit':>6}{'value':>12}{'spread':>9}{'n':>5}")
    for name, unit, values in rows:
        print(
            f"  {name:<24}{unit:>6}{_value(name, values):>12.4f}"
            f"{_spread(values):>9.3f}{len(values):>5}"
        )


def run_workload(
    name: str, seed: int, seconds: int, trace: bool, spec: dict
) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    cpus = os.cpu_count() or 1
    header = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "cpu_count": cpus,
        "processes": workload.processes,
    }
    print(
        f"perfbench {name}: seed {seed}, cpu_count {cpus}, "
        f"{workload.processes} busy process(es)"
    )
    if workload.processes > cpus:
        reason = (
            f"not evaluated: needs {workload.processes} processes, "
            f"the machine has {cpus}"
        )
        print(f"  {reason}")
        return {**header, "evaluated": False, "reason": reason}

    raw = Runner(name, seed, seconds).run(trace)
    checked = [*raw["timed"]]
    if raw["traced"] is not None:
        checked.append(raw["traced"])
    failed, digests = _check(name, seed, checked)
    # The warm-up's output is not checked, but it must not raise.
    attempted = len(checked) + 1
    failed += not raw["warmup"].get("ok")
    samples = _samples(raw)
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    detail_units = {
        "cpu_s": "s",
        "worker_rss_mib": "MiB",
        "advance_s": "s",
        "refresh_s": "s",
    }

    print(
        "  end-to-end, tracing off (median over operations, peak for rss; "
        "spread = IQR/median)"
    )
    _print_table(
        "metric",
        [(metric, units[metric], samples[metric]) for metric in units],
    )
    _print_table(
        "workload detail",
        [
            (key, unit, samples[key])
            for key, unit in detail_units.items()
            if key in samples
        ],
    )
    print(f"  failed_fraction: {failed}/{attempted} operations")

    result = {
        **header,
        "evaluated": True,
        "attempted": attempted,
        "failed": failed,
        "digests": digests,
        "metrics": {
            metric: {
                "unit": {**units, **detail_units}[metric],
                "value": _value(metric, values),
                "spread": _spread(values),
                "samples": values,
            }
            for metric, values in samples.items()
        },
        "repeats": [
            {key: value for key, value in result.items() if key != "telemetry"}
            for result in (raw["warmup"], *checked)
        ],
    }
    if raw["traced"] is not None and raw["traced"].get("ok"):
        result["traced"] = _traced_report(raw, name)
    elif trace:
        print("  traced repeat failed; no per-layer numbers")
    return result


def _traced_report(raw: dict, name: str) -> dict:
    from layers import layer_table, per_layer_metrics

    traced = raw["traced"]
    timed = [result for result in raw["timed"] if result.get("ok")]
    trace_input = {
        **traced,
        "wall_s": sum(traced["samples"]),
        "untraced_wall_s": _median(
            [sum(result["samples"]) for result in timed]
        ),
    }
    metrics = per_layer_metrics(trace_input)
    wall = trace_input["wall_s"]
    table = layer_table(
        traced["telemetry"]["spans"], set(traced["absorbed"]), wall
    )
    print(f"  traced repeat: {wall:.3f} s, self time by layer")
    print(f"  {'layer':<22}{'self_s':>10}{'share':>8}{'worker_busy_s':>15}")
    by_self = sorted(table.items(), key=lambda item: -item[1]["self_s"])
    for layer, row in by_self:
        print(
            f"  {layer:<22}{row['self_s']:>10.3f}{row['self_s'] / wall:>8.1%}"
            f"{row['worker_s']:>15.3f}"
        )
    note = (
        " (includes the figure fan-out the study switches off while tracing)"
        if name != "batch_simulate"
        else ""
    )
    print(
        f"  tracing overhead: {wall:.3f} s traced / "
        f"{trace_input['untraced_wall_s']:.3f} s untraced median = "
        f"{metrics['trace.overhead_ratio']:.3f}{note}"
    )
    return {
        "wall_s": wall,
        "untraced_wall_s": trace_input["untraced_wall_s"],
        "overhead_note": note.strip(" ()"),
        "layers": table,
        "per_layer": metrics,
        "absorbed": traced["absorbed"],
        "telemetry": traced["telemetry"],
    }


def _result_line(results: list[dict], spec: dict, trace: bool) -> dict:
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for result in results:
        prefix = f"{result['workload']}/" if len(results) > 1 else ""
        for metric in listed:
            if trace:
                value = result["traced"]["per_layer"][metric["name"]]
            else:
                value = result["metrics"][metric["name"]]["value"]
            metrics[prefix + metric["name"]] = {
                "value": value,
                "unit": metric["unit"],
            }
    failed = sum(result["failed"] for result in results)
    return {
        "correct": failed == 0,
        "attempted": sum(result["attempted"] for result in results),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    program = ROOT / "src" / "repro" / "__init__.py"
    if not program.is_file() or not spec_path.is_file():
        print(
            "perfbench: run from a checkout of the repository "
            "(src/repro and BENCHMARK.json not found)",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = args.seconds or spec["run_seconds"]
    from workloads import WORKLOADS

    names = (
        [workload["name"] for workload in spec["workloads"]]
        if args.workload == "all"
        else [args.workload]
    )
    if not set(names) <= set(WORKLOADS):
        parser.error(f"unknown workload {args.workload}")

    results = []
    SCRATCH.mkdir(exist_ok=True)
    (SCRATCH / "results").mkdir(exist_ok=True)
    for name in names:
        try:
            result = run_workload(
                name, args.seed, seconds, bool(args.trace), spec
            )
        except BenchmarkError as err:
            print(f"perfbench {name}: {err}", file=sys.stderr)
            return 1
        path = SCRATCH / "results" / f"{name}-seed{args.seed}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")
        if not result["evaluated"]:
            print(f"perfbench {name}: {result['reason']}", file=sys.stderr)
            return 3
        if args.trace and "traced" not in result:
            return 1
        results.append(result)
    print(json.dumps(_result_line(results, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
