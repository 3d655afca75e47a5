"""Crash-and-resume end to end: the tentpole guarantee.

A run killed mid-flight and completed with ``Simulator.resume`` must
produce feeds *bitwise identical* to the uninterrupted run — for every
shard layout.  The PR 1 equivalence harness is the oracle
(``assert_feeds_equivalent(..., bitwise=True)`` compares every array
of every feed byte for byte).

The interruption is the deterministic ``kill`` fault
(:mod:`repro.simulation.faults`), so CI exercises a real mid-run abort
— completed days checkpointed, the rest missing — without signals or
subprocess choreography.
"""

import datetime as dt

import pytest

from repro.simulation.checkpoint import CheckpointStore
from repro.simulation.clock import StudyCalendar
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulator
from repro.simulation.faults import RecoverySettings, ShardExecutionError

from tests.simulation.harness import assert_feeds_equivalent

SHARD_COUNTS = (1, 2, 4)

_CALENDAR = StudyCalendar(first_day=dt.date(2020, 2, 24), num_days=14)
_KILL_DAY = 9


def _config(shards: int) -> SimulationConfig:
    return (
        SimulationConfig.tiny(seed=11)
        .with_overrides(
            num_users=160,
            target_site_count=40,
            calendar=_CALENDAR,
            recovery=RecoverySettings(max_retries=0),  # fail fast
        )
        .with_parallelism(shards)
    )


_BASELINES: dict[int, object] = {}


def _baseline(shards: int):
    if shards not in _BASELINES:
        _BASELINES[shards] = Simulator(_config(shards)).run()
    return _BASELINES[shards]


def _interrupt(directory, shards: int) -> None:
    """Run with a mid-run kill so ``directory`` holds a partial run."""
    faulty = _config(shards).with_overrides(
        fault_spec=f"kill:day={_KILL_DAY}"
    )
    with pytest.raises(ShardExecutionError):
        Simulator(faulty).run(checkpoint_dir=directory)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
class TestCrashAndResume:
    def test_resume_is_bitwise_identical(self, shards, tmp_path):
        rundir = tmp_path / "run"
        _interrupt(rundir, shards)
        # The abort left a resumable directory: checkpoints, no feeds.
        assert CheckpointStore.present(rundir)
        assert not (rundir / "manifest.json").exists()
        store = CheckpointStore.open(rundir)
        for shard in range(shards):
            days = store.completed_days(shard)
            assert days == list(range(_KILL_DAY)), (
                f"shard {shard} checkpointed {days}"
            )

        feeds = Simulator.resume(rundir)
        assert_feeds_equivalent(_baseline(shards), feeds, bitwise=True)

    def test_second_resume_restores_everything(self, shards, tmp_path):
        # Resuming twice is idempotent: the second pass restores every
        # day from disk (nothing left to compute) and still matches.
        rundir = tmp_path / "run"
        _interrupt(rundir, shards)
        first = Simulator.resume(rundir)
        second = Simulator.resume(rundir)
        assert_feeds_equivalent(first, second, bitwise=True)


class TestResumeConfig:
    def test_resume_uses_stored_config(self, tmp_path):
        # resume() takes no configuration: the one pickled with the
        # store drives the run, so a resumed run can't silently diverge
        # from what the interrupted run was computing.
        rundir = tmp_path / "run"
        _interrupt(rundir, 2)
        feeds = Simulator.resume(rundir)
        assert feeds.config.seed == 11
        assert feeds.config.calendar.num_days == _CALENDAR.num_days

    def test_resume_strips_the_fault_plan(self, tmp_path):
        # The kill fault is part of the stored config; replaying it on
        # resume would abort forever.  resume() must clear it.
        rundir = tmp_path / "run"
        _interrupt(rundir, 2)
        assert Simulator.resume(rundir) is not None  # completes

    def test_resume_without_checkpoints_fails_precisely(self, tmp_path):
        from repro.simulation.checkpoint import CheckpointError

        with pytest.raises(CheckpointError, match="nothing to resume"):
            Simulator.resume(tmp_path / "empty")

    def test_store_of_another_version_is_refused_on_resume(self, tmp_path):
        # A store whose config.pkl no longer hashes to the digest in
        # state.json (another version of repro wrote it) cannot be
        # resumed, and resume says so: it did use the stored
        # configuration.
        import json

        from repro import api
        from repro.simulation.checkpoint import CheckpointError

        rundir = tmp_path / "run"
        _interrupt(rundir, 2)
        state_path = rundir / "checkpoints" / "state.json"
        state = json.loads(state_path.read_text(encoding="utf-8"))
        state["config_digest"] = "0" * 64
        state_path.write_text(json.dumps(state), encoding="utf-8")
        with pytest.raises(
            CheckpointError, match="another version of repro"
        ) as exc:
            api.resume(rundir)
        assert exc.value.path == state_path
        assert "delete" in str(exc.value)

    def test_simulate_onto_another_configuration_is_refused(self, tmp_path):
        # Simulating into a directory that holds the checkpoints of
        # another configuration names the configuration mismatch.
        from repro import api
        from repro.simulation.checkpoint import CheckpointError

        rundir = tmp_path / "run"
        _interrupt(rundir, 2)
        other = _config(2).with_overrides(seed=12)
        with pytest.raises(
            CheckpointError, match="different configuration"
        ) as exc:
            api.simulate(other, rundir)
        assert exc.value.path == rundir / "checkpoints" / "state.json"
