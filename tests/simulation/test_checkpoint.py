"""Unit tests for the per-shard, per-day checkpoint store.

The store's whole value is that a resumed run is *bitwise* the
uninterrupted run, so the contract under test is strict: a round-trip
through disk reproduces every array exactly, anything damaged —
flipped bytes, a file renamed onto another (shard, day), a config that
doesn't match — is rejected with :class:`CheckpointError` naming the
offending file, and partial writes (the ``.tmp`` of a crashed
``save_day``) are invisible.
"""

import datetime as dt
import pathlib

import numpy as np
import pytest

from repro import api
from repro.simulation.checkpoint import (
    CheckpointError,
    CheckpointStore,
    config_digest,
)
from repro.simulation.clock import StudyCalendar
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import _compute_shard, _RunContext, build_world
from repro.simulation.faults import RecoverySettings, corrupt_file

from tests.simulation.harness import assert_feeds_equivalent

_CALENDAR = StudyCalendar(first_day=dt.date(2020, 2, 24), num_days=7)


def _config(**overrides):
    return SimulationConfig.tiny(seed=9).with_overrides(
        num_users=120, target_site_count=40, calendar=_CALENDAR, **overrides
    )


@pytest.fixture(scope="module")
def day_loads():
    """Real per-day shard loads to round-trip (computed once)."""
    config = _config()
    context = _RunContext.from_world(build_world(config))
    result = _compute_shard(context, None)
    return config, result.days


class TestRoundTrip:
    def test_bitwise(self, day_loads, tmp_path):
        config, days = day_loads
        store = CheckpointStore.attach(tmp_path / "run", config)
        for day, load in enumerate(days):
            store.save_day(0, day, load)
        for day, load in enumerate(days):
            back = store.load_day(0, day)
            for field in load.__dataclass_fields__:
                original = getattr(load, field)
                restored = getattr(back, field)
                if original is None:
                    assert restored is None, field
                elif isinstance(original, float):
                    assert original == restored, field
                else:
                    assert np.array_equal(
                        np.asarray(original), np.asarray(restored)
                    ), f"{field} not bitwise equal"

    def test_completed_days(self, day_loads, tmp_path):
        config, days = day_loads
        store = CheckpointStore.attach(tmp_path / "run", config)
        store.save_day(2, 0, days[0])
        store.save_day(2, 3, days[3])
        assert store.completed_days(2) == [0, 3]
        assert store.completed_days(0) == []

    def test_reattach_and_reopen(self, day_loads, tmp_path):
        config, days = day_loads
        store = CheckpointStore.attach(tmp_path / "run", config)
        store.save_day(0, 1, days[1])
        # A second attach with the same config sees the saved day...
        again = CheckpointStore.attach(tmp_path / "run", config)
        assert again.completed_days(0) == [1]
        # ...and open() restores the pickled config itself.
        reopened = CheckpointStore.open(tmp_path / "run")
        assert config_digest(reopened.load_config()) == config_digest(config)

    def test_clear(self, day_loads, tmp_path):
        config, days = day_loads
        store = CheckpointStore.attach(tmp_path / "run", config)
        store.save_day(0, 0, days[0])
        assert CheckpointStore.present(tmp_path / "run")
        store.clear()
        assert not CheckpointStore.present(tmp_path / "run")


class TestRejection:
    def test_missing_day(self, day_loads, tmp_path):
        config, _ = day_loads
        store = CheckpointStore.attach(tmp_path / "run", config)
        assert store.load_day(0, 5, missing_ok=True) is None
        with pytest.raises(CheckpointError, match="missing"):
            store.load_day(0, 5)

    def test_corrupt_file_named(self, day_loads, tmp_path):
        config, days = day_loads
        store = CheckpointStore.attach(tmp_path / "run", config)
        store.save_day(0, 0, days[0])
        corrupt_file(store.day_path(0, 0))
        with pytest.raises(CheckpointError, match=r"shard000_day000\.npz"):
            store.load_day(0, 0)

    def test_misplaced_file_rejected(self, day_loads, tmp_path):
        # A checkpoint renamed onto another (shard, day) slot must not
        # be restored as that slot — identity is embedded, not just
        # the filename.
        config, days = day_loads
        store = CheckpointStore.attach(tmp_path / "run", config)
        store.save_day(0, 0, days[0])
        store.day_path(0, 0).rename(store.day_path(0, 1))
        with pytest.raises(CheckpointError, match="misplaced"):
            store.load_day(0, 1)

    def test_tmp_leftover_invisible(self, day_loads, tmp_path):
        # A crash mid-save leaves only the .tmp; the day reads as
        # absent and the leftover never shadows a later save.
        config, days = day_loads
        store = CheckpointStore.attach(tmp_path / "run", config)
        final = store.day_path(0, 0)
        final.with_name(final.name + ".tmp").write_bytes(b"half a write")
        assert store.load_day(0, 0, missing_ok=True) is None
        assert store.completed_days(0) == []
        store.save_day(0, 0, days[0])
        assert store.load_day(0, 0) is not None

    def test_torn_state_write_leaves_no_store(self, tmp_path, monkeypatch):
        # A crash halfway through writing state.json must not leave a
        # store that present() reports and open() cannot read: the
        # directory has to stay usable for a fresh simulate.
        config = _config()
        write_text = pathlib.Path.write_text

        def crash_halfway(path, text, *args, **kwargs):
            if path.name.startswith("state.json"):
                write_text(path, text[: len(text) // 2], *args, **kwargs)
                raise OSError("simulated crash mid-write")
            return write_text(path, text, *args, **kwargs)

        rundir = tmp_path / "run"
        monkeypatch.setattr(pathlib.Path, "write_text", crash_halfway)
        with pytest.raises(OSError, match="mid-write"):
            api.simulate(config, rundir)
        monkeypatch.undo()
        assert not CheckpointStore.present(rundir)

        run = api.simulate(config, rundir)
        assert_feeds_equivalent(
            api.simulate(config).feeds, run.feeds, bitwise=True
        )

    def test_foreign_config_rejected(self, day_loads, tmp_path):
        config, _ = day_loads
        CheckpointStore.attach(tmp_path / "run", config)
        other = _config(seed=10)
        with pytest.raises(CheckpointError, match="config"):
            CheckpointStore.attach(tmp_path / "run", other)


class TestConfigDigest:
    def test_operational_fields_ignored(self):
        # Faults, retry policy and worker count cannot change results,
        # so a resume that strips them must still match the store.
        base = _config()
        assert config_digest(base) == config_digest(
            base.with_overrides(
                fault_spec="kill:day=3",
                recovery=RecoverySettings(max_retries=9),
            )
        )
        assert config_digest(
            base.with_parallelism(2, workers=1)
        ) == config_digest(base.with_parallelism(2, workers=4))

    def test_result_shaping_fields_kept(self):
        base = _config()
        assert config_digest(base) != config_digest(_config(seed=10))
        assert config_digest(
            base.with_parallelism(2)
        ) != config_digest(base.with_parallelism(4))
