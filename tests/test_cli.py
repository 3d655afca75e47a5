"""Tests for the command-line interface."""

import io
import json

import pytest

from repro import telemetry
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_args(self):
        args = build_parser().parse_args(
            ["simulate", "--preset", "tiny", "--seed", "3", "--out", "x"]
        )
        assert args.preset == "tiny"
        assert args.seed == 3

    def test_bad_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--preset", "huge", "--out", "x"]
            )


class TestCommands:
    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "run"
        out = io.StringIO()
        code = main(
            [
                "simulate", "--preset", "tiny", "--seed", "13",
                "--users", "800", "--out", str(path),
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "saved" in text
        assert "simulated day" in text  # progress meter
        return path

    def test_summary(self, run_dir):
        out = io.StringIO()
        assert main(["summary", str(run_dir)], out=out) == 0
        text = out.getvalue()
        assert "gyration_change_lockdown_pct" in text
        assert "voice_volume_peak_pct" in text

    def test_analyze(self, run_dir):
        out = io.StringIO()
        assert main(["analyze", str(run_dir)], out=out) == 0
        text = out.getvalue()
        assert "Fig 3" in text
        assert "Fig 9" in text

    def test_verdict(self, run_dir):
        out = io.StringIO()
        assert main(["verdict", str(run_dir)], out=out) == 0
        text = out.getvalue()
        assert "targets inside the band" in text

    def test_export(self, run_dir, tmp_path):
        out = io.StringIO()
        target = tmp_path / "csvs"
        code = main(
            ["export", str(run_dir), "--out", str(target)],
            out=out,
        )
        assert code == 0
        assert (target / "summary.csv").exists()
        assert (target / "performance_weekly.csv").exists()

    def test_report_without_saving(self):
        out = io.StringIO()
        code = main(
            ["report", "--preset", "tiny", "--seed", "5", "--users", "600"],
            out=out,
        )
        assert code == 0
        assert "Headline numbers" in out.getvalue()

    def test_report_on_a_run_dir(self, run_dir):
        out = io.StringIO()
        assert main(["report", str(run_dir)], out=out) == 0
        assert "Headline numbers" in out.getvalue()

    def test_summary_and_verdict_take_telemetry(self, run_dir):
        for command in ("summary", "verdict"):
            out = io.StringIO()
            code = main([command, str(run_dir), "--telemetry"], out=out)
            assert code == 0
            # Warm runs are served from the cache, so the appended
            # table shows counters rather than engine phases.
            assert "cache.hits" in out.getvalue()

    def test_watch_on_frozen_run(self, run_dir):
        # A frozen run gets exactly one refresh, then watch stops on
        # its own: the manifest has no live block left to poll.
        out = io.StringIO()
        code = main(["watch", str(run_dir), "--interval", "0"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "== day 98/98 ==" in text
        assert "targets inside the band" in text  # the verdict
        assert "refreshed in" in text
        assert "frozen at 98 days" in text

    def test_watch_waits_for_a_manifest(self, tmp_path):
        out = io.StringIO()
        code = main(
            [
                "watch", str(tmp_path / "nothing-yet"),
                "--interval", "0", "--iterations", "2",
            ],
            out=out,
        )
        assert code == 0
        assert out.getvalue().count("waiting for") == 2


class TestAnalysisCache:
    """The persistent artifact cache behind analyze/summary/report."""

    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cache") / "run"
        out = io.StringIO()
        assert main(
            [
                "simulate", "--preset", "tiny", "--seed", "17",
                "--users", "600", "--out", str(path),
            ],
            out=out,
        ) == 0
        return path

    @staticmethod
    def _run(argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_warm_analyze_is_byte_identical_without_feeds(
        self, run_dir, monkeypatch
    ):
        code, cold = self._run(["analyze", str(run_dir)])
        assert code == 0
        assert (run_dir / "cache" / "analysis").is_dir()

        # Warm: the report comes straight from the cache — loading the
        # feeds at all would be a bug, so make it one.
        def refuse(directory):
            raise AssertionError("warm analyze must not load feeds")

        monkeypatch.setattr("repro.io.load_feeds", refuse)
        code, warm = self._run(["analyze", str(run_dir)])
        assert code == 0
        assert warm == cold

    def test_warm_summary_and_verdict(self, run_dir, monkeypatch):
        code, cold = self._run(["summary", str(run_dir)])
        assert code == 0
        monkeypatch.setattr(
            "repro.io.load_feeds",
            lambda directory: (_ for _ in ()).throw(AssertionError()),
        )
        code, warm = self._run(["summary", str(run_dir)])
        assert code == 0
        assert warm == cold
        code, verdict = self._run(["verdict", str(run_dir)])
        assert code == 0
        assert "targets inside the band" in verdict

    def test_no_cache_flag_matches_and_writes_nothing(self, run_dir):
        import shutil

        code, cached = self._run(["analyze", str(run_dir)])
        assert code == 0
        shutil.rmtree(run_dir / "cache")
        code, fresh = self._run(["analyze", str(run_dir), "--no-cache"])
        assert code == 0
        assert fresh == cached
        assert not (run_dir / "cache").exists()

    def test_cache_info_and_clear(self, run_dir):
        code, _ = self._run(["summary", str(run_dir)])
        assert code == 0
        code, text = self._run(["cache", str(run_dir), "--info"])
        assert code == 0
        assert "cached artifacts" in text
        assert str(run_dir / "cache" / "analysis") in text

        code, text = self._run(["cache", str(run_dir), "--clear"])
        assert code == 0
        assert "cleared" in text
        assert not (run_dir / "cache" / "analysis").exists()

        # Default (no flag) reports info; an empty store reads as zero.
        code, text = self._run(["cache", str(run_dir)])
        assert code == 0
        assert "0 cached artifacts" in text

    def test_cache_flags_mutually_exclusive(self, run_dir):
        code, text = self._run(
            ["cache", str(run_dir), "--info", "--clear"]
        )
        assert code == 2

    def test_cache_on_a_non_run_dir(self, tmp_path):
        code, text = self._run(["cache", str(tmp_path / "nope")])
        assert code == 2
        assert "Traceback" not in text

    def test_corrupt_entry_recovers_identically(self, run_dir):
        code, cold = self._run(["summary", str(run_dir)])
        assert code == 0
        store = run_dir / "cache" / "analysis"
        for entry in store.glob("*.npz"):
            entry.write_bytes(b"\x00" * 48)
        code, recovered = self._run(["summary", str(run_dir)])
        assert code == 0
        assert recovered == cold


class TestErrorPaths:
    def test_rundir_required(self):
        for command in ("analyze", "summary", "verdict"):
            out = io.StringIO()
            assert main([command], out=out) == 2
            assert "required" in out.getvalue()

    def test_simulate_needs_out_or_resume(self):
        out = io.StringIO()
        assert main(["simulate"], out=out) == 2
        assert "--out or --resume" in out.getvalue()

    def test_simulate_rejects_out_with_resume(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["simulate", "--resume", str(tmp_path), "--out", str(tmp_path)],
            out=out,
        )
        assert code == 2

    def test_missing_run_dir_is_one_line(self, tmp_path):
        out = io.StringIO()
        assert main(["analyze", str(tmp_path / "nope")], out=out) == 1
        text = out.getvalue()
        assert "does not exist" in text
        assert "Traceback" not in text


class TestShortLiveRun:
    """A live run that has not reached the figures' key dates yet."""

    @pytest.fixture(scope="class")
    def live_dir(self, tmp_path_factory):
        from repro import api
        from repro.simulation.config import SimulationConfig

        path = tmp_path_factory.mktemp("short") / "run"
        api.simulate(SimulationConfig.tiny(seed=2020), path, days=35)
        return path

    @pytest.mark.parametrize("verb", ["analyze", "summary", "verdict"])
    def test_one_shot_verbs_report_pending(self, live_dir, verb):
        out = io.StringIO()
        assert main([verb, str(live_dir)], out=out) == 1
        lines = out.getvalue().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            "error: analysis pending at day 35/98 (live): "
        )
        assert "outside the study window" in lines[0]

    def test_watch_keeps_warming_up(self, live_dir):
        out = io.StringIO()
        code = main(
            ["watch", str(live_dir), "--interval", "0", "--iterations", "1"],
            out=out,
        )
        assert code == 0
        assert out.getvalue().startswith("day 35/98 (live): warming up (")

    def test_frozen_short_run_is_unavailable(self, tmp_path):
        # A finished run whose window never reaches the key dates will
        # not catch up: the line says so instead of "pending".
        from repro import api
        from repro.simulation.clock import StudyCalendar
        from repro.simulation.config import SimulationConfig

        config = SimulationConfig.tiny(seed=2020).with_overrides(
            calendar=StudyCalendar(num_days=35)
        )
        api.simulate(config, tmp_path / "run")
        out = io.StringIO()
        assert main(["summary", str(tmp_path / "run")], out=out) == 1
        assert out.getvalue().startswith(
            "error: analysis unavailable at day 35/35: "
        )


class TestCrashAndResume:
    def test_interrupt_then_resume(self, tmp_path, monkeypatch):
        # A deterministic kill via the REPRO_FAULTS environment hook
        # aborts the run; the CLI reports the resume command; running
        # it completes the directory into a loadable run.
        path = tmp_path / "run"
        argv = [
            "simulate", "--preset", "tiny", "--seed", "13",
            "--users", "600", "--out", str(path),
        ]
        monkeypatch.setenv("REPRO_FAULTS", "kill:day=5")
        out = io.StringIO()
        assert main(argv, out=out) == 1
        assert "--resume" in out.getvalue()
        assert not (path / "manifest.json").exists()
        assert (path / "checkpoints").is_dir()

        monkeypatch.delenv("REPRO_FAULTS")
        out = io.StringIO()
        assert main(["simulate", "--resume", str(path)], out=out) == 0
        assert "saved" in out.getvalue()
        assert (path / "manifest.json").exists()
        assert not (path / "checkpoints").exists()  # cleaned up

        out = io.StringIO()
        assert main(["summary", str(path)], out=out) == 0

    def test_no_checkpoint_flag(self, tmp_path):
        path = tmp_path / "run"
        out = io.StringIO()
        code = main(
            [
                "simulate", "--preset", "tiny", "--seed", "13",
                "--users", "600", "--out", str(path), "--no-checkpoint",
            ],
            out=out,
        )
        assert code == 0
        assert not (path / "checkpoints").exists()

    def test_resume_without_checkpoints_fails_cleanly(self, tmp_path):
        out = io.StringIO()
        code = main(["simulate", "--resume", str(tmp_path / "x")], out=out)
        assert code == 1
        assert "nothing to resume" in out.getvalue()


class TestScenarioCommands:
    def test_scenarios_lists_the_catalog(self):
        out = io.StringIO()
        assert main(["scenarios"], out=out) == 0
        text = out.getvalue()
        for name in ("baseline_lockdown", "second_wave", "weekend_curfew"):
            assert name in text

    def test_scenarios_digests_flag(self):
        out = io.StringIO()
        assert main(["scenarios", "--digests"], out=out) == 0
        # one 12-hex-digit digest per catalog line
        lines = out.getvalue().strip().splitlines()
        assert all("[" in line and "]" in line for line in lines)

    @pytest.fixture(scope="class")
    def grid_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("cli-grid") / "grid"

    @pytest.fixture(scope="class")
    def cold_experiment(self, grid_dir):
        from repro.datasets.runcache import clear_memo

        clear_memo()
        out = io.StringIO()
        code = main(
            [
                "experiment", "no_intervention", "second_wave",
                "--seeds", "1,2", "--preset", "tiny", "--users", "300",
                "--workdir", str(grid_dir),
            ],
            out=out,
        )
        assert code == 0
        return out.getvalue()

    def test_experiment_runs_grid_and_reports(self, cold_experiment):
        assert cold_experiment.count("simulated") == 6
        assert "Headline deltas vs baseline" in cold_experiment
        assert "Weekly variation — national gyration" in cold_experiment

    def test_warm_experiment_reuses_and_matches_report(
        self, cold_experiment, grid_dir
    ):
        from repro.datasets.runcache import clear_memo

        clear_memo()
        out = io.StringIO()
        code = main(
            [
                "experiment", "no_intervention", "second_wave",
                "--seeds", "1,2", "--preset", "tiny", "--users", "300",
                "--workdir", str(grid_dir),
            ],
            out=out,
        )
        assert code == 0
        warm = out.getvalue()
        assert warm.count("reused") == 6
        # Identical report bytes: strip the progress prologue (the
        # only part allowed to differ between cold and warm).
        marker = "Experiment grid —"
        assert warm[warm.index(marker):] == cold_experiment[
            cold_experiment.index(marker):
        ]

    def test_experiment_rejects_unknown_scenario(self):
        out = io.StringIO()
        code = main(
            ["experiment", "no_such_world", "--preset", "tiny"],
            out=out,
        )
        assert code == 2
        assert "catalog" in out.getvalue()

    def test_experiment_rejects_bad_seeds(self):
        out = io.StringIO()
        code = main(
            [
                "experiment", "no_intervention",
                "--seeds", "one,two", "--preset", "tiny",
            ],
            out=out,
        )
        assert code == 2
        assert "--seeds" in out.getvalue()

    def test_compare_over_cell_directories(self, cold_experiment, grid_dir):
        out = io.StringIO()
        code = main(
            [
                "compare",
                str(grid_dir / "baseline_lockdown--seed1"),
                str(grid_dir / "no_intervention--seed1"),
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "baseline: baseline_lockdown--seed1" in text
        assert "Headline deltas vs baseline" in text

    def test_compare_needs_two_directories(self, cold_experiment, grid_dir):
        out = io.StringIO()
        code = main(
            ["compare", str(grid_dir / "baseline_lockdown--seed1")],
            out=out,
        )
        assert code == 2

    def test_compare_missing_directory_is_one_line(self, tmp_path):
        out = io.StringIO()
        code = main(
            [
                "compare",
                str(tmp_path / "nope-a"), str(tmp_path / "nope-b"),
            ],
            out=out,
        )
        assert code == 1
        assert out.getvalue().startswith("error:")


class TestTelemetryFlag:
    def test_report_prints_phase_table(self):
        out = io.StringIO()
        code = main(
            [
                "report", "--preset", "tiny", "--seed", "3",
                "--users", "600", "--telemetry",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "Headline numbers" in text  # the normal output survives
        table = text[text.index("phase"):]
        for row in ("simulate", "build_world", "shard", "report"):
            assert row in table
        assert not telemetry.enabled()  # the CLI cleans up after itself

    def test_simulate_persists_snapshot(self, tmp_path):
        out = io.StringIO()
        path = tmp_path / "run"
        code = main(
            [
                "simulate", "--preset", "tiny", "--seed", "3",
                "--users", "600", "--out", str(path), "--telemetry",
            ],
            out=out,
        )
        assert code == 0
        assert "phase" in out.getvalue()
        manifest = json.loads((path / "manifest.json").read_text())
        assert "simulate" in manifest["telemetry"]["spans"]
        assert not telemetry.enabled()
