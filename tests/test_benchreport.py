"""Benchmark collation and regression gating (``benchmarks/collate.py``).

The collation script lives next to the benchmarks it collates, outside
the ``repro`` package, so it is loaded here from its file.
"""

import importlib.util
import json
import sys
from pathlib import Path

_COLLATE = Path(__file__).parent.parent / "benchmarks" / "collate.py"
_spec = importlib.util.spec_from_file_location("collate", _COLLATE)
collate = importlib.util.module_from_spec(_spec)
sys.modules["collate"] = collate  # dataclasses resolve their module
_spec.loader.exec_module(collate)

MetricRow = collate.MetricRow
check_regressions = collate.check_regressions
collect_results = collate.collect_results
metric_rows = collate.metric_rows
render_table = collate.render_table
summarize = collate.summarize

_SAMPLE = {
    "smoke": {
        "bitwise_identical": True,
        "analyze": {
            "analyze_seconds": 1.5,
            "user_days_per_sec": 80_000,
            "peak_rss_bytes": 1024**3,
            "entropy_sha256": "abc",
        },
        "sweep": [
            {"num_shards": 2, "workers": 2, "speedup_vs_serial": 1.8},
            {"num_shards": 4, "workers": 4, "speedup_vs_serial": 3.1},
        ],
    }
}


def _rows(tree=_SAMPLE):
    return metric_rows({"bench": tree})


class TestCollect:
    def test_reads_json_files_by_stem(self, tmp_path):
        (tmp_path / "alpha.json").write_text(json.dumps({"x": 1}))
        (tmp_path / "beta.json").write_text("not json at all")
        results = collect_results(tmp_path)
        assert results == {"alpha": {"x": 1}}

    def test_missing_directory_is_empty(self, tmp_path):
        assert collect_results(tmp_path / "nope") == {}


class TestKinds:
    def test_speedups_and_gates_are_gated(self):
        kinds = {row.metric: row for row in _rows()}
        assert kinds["smoke.bitwise_identical"].kind == "gate"
        assert kinds["smoke.analyze.user_days_per_sec"].kind == "speedup"
        assert kinds["smoke.analyze.analyze_seconds"].kind == "seconds"
        assert kinds["smoke.analyze.peak_rss_bytes"].kind == "bytes"
        assert kinds["smoke.bitwise_identical"].gated
        assert not kinds["smoke.analyze.analyze_seconds"].gated

    def test_rss_ratio_is_not_gated(self):
        rows = _rows({"rss_payload_ratio": 2.9})
        assert rows[0].kind == "count"
        assert not rows[0].gated

    def test_hashes_are_skipped(self):
        metrics = [row.metric for row in _rows()]
        assert not any("sha256" in metric for metric in metrics)

    def test_sweep_entries_get_distinct_paths(self):
        metrics = [
            row.metric
            for row in _rows()
            if "sweep[" in row.metric and "speedup" in row.metric
        ]
        assert len(metrics) == len(set(metrics)) == 2

    def test_same_label_different_size_stays_distinct(self):
        tree = {
            "sweep": [
                {"operation": "join", "rows": 100, "seconds": 0.1},
                {"operation": "join", "rows": 1000, "seconds": 0.4},
            ]
        }
        metrics = [row.metric for row in _rows(tree)]
        assert len(metrics) == len(set(metrics)) == 4


class TestRender:
    def test_table_has_a_row_per_metric(self):
        rows = _rows()
        table = render_table(rows)
        assert table.count("\n") == len(rows) + 1
        assert "| pass |" in table or "pass" in table

    def test_summarize_round_trip(self, tmp_path):
        (tmp_path / "smoke.json").write_text(json.dumps(_SAMPLE["smoke"]))
        text = summarize(tmp_path)
        assert "Benchmark trajectory" in text
        assert "bitwise_identical" in text

    def test_summarize_empty_directory(self, tmp_path):
        assert "no benchmark results" in summarize(tmp_path)


class TestCheckRegressions:
    def _row(self, metric, kind, value):
        return MetricRow("bench", metric, kind, value)

    def test_gate_flip_fails(self):
        fresh = [self._row("identical", "gate", False)]
        base = [self._row("identical", "gate", True)]
        failures = check_regressions(fresh, base)
        assert failures and "flipped" in failures[0]

    def test_speedup_inside_band_passes(self):
        fresh = [self._row("speedup", "speedup", 1.8)]
        base = [self._row("speedup", "speedup", 2.0)]
        assert check_regressions(fresh, base, band_pct=15.0) == []

    def test_speedup_below_band_fails(self):
        fresh = [self._row("speedup", "speedup", 1.5)]
        base = [self._row("speedup", "speedup", 2.0)]
        failures = check_regressions(fresh, base, band_pct=15.0)
        assert failures and "regressed" in failures[0]

    def test_timings_never_compared(self):
        fresh = [self._row("analyze_seconds", "seconds", 99.0)]
        base = [self._row("analyze_seconds", "seconds", 1.0)]
        assert check_regressions(fresh, base) == []

    def test_one_sided_metrics_ignored(self):
        fresh = [self._row("new_speedup", "speedup", 0.1)]
        assert check_regressions(fresh, []) == []

    def test_improvements_pass(self):
        fresh = [self._row("speedup", "speedup", 5.0)]
        base = [self._row("speedup", "speedup", 2.0)]
        assert check_regressions(fresh, base) == []


class TestSelfConsistency:
    def test_committed_results_pass_self_check(self):
        results = _COLLATE.parent / "results"
        rows = metric_rows(collect_results(results))
        assert rows, "committed benchmark results should collate"
        assert check_regressions(rows, rows) == []
