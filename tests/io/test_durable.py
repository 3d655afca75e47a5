"""The one write seam of a run directory: stage, write, publish."""

import threading

import pytest

from repro.io.durable import staged, writing


class TestStaged:
    def test_threads_get_distinct_staging_names(self, tmp_path):
        final = tmp_path / "manifest.json"
        names = []
        thread = threading.Thread(target=lambda: names.append(staged(final)))
        thread.start()
        thread.join()
        names.append(staged(final))
        assert names[0] != names[1]
        for name in names:
            assert name.parent == final.parent
            assert name.name.startswith("manifest.json.")
            assert name.suffix == ".tmp"

    def test_each_call_gets_its_own_staging_name(self, tmp_path):
        final = tmp_path / "radio_kpis.npy"
        assert staged(final) != staged(final)


class TestWriting:
    def test_publishes_the_written_bytes(self, tmp_path):
        final = tmp_path / "table.npy"
        final.write_bytes(b"old")
        with writing(final) as staging:
            staging.write_bytes(b"new")
            # Nothing is visible under the final name before the block ends.
            assert final.read_bytes() == b"old"
        assert final.read_bytes() == b"new"
        assert list(tmp_path.iterdir()) == [final]

    def test_a_raising_block_keeps_the_old_bytes(self, tmp_path):
        final = tmp_path / "config.pkl"
        final.write_bytes(b"old")
        with pytest.raises(RuntimeError, match="mid-write"):
            with writing(final) as staging:
                staging.write_bytes(b"half")
                raise RuntimeError("crash mid-write")
        assert final.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [final]
