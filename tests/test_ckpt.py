"""Unit tests for the checkpoint substrate (stores + manager)."""

from __future__ import annotations

import pytest

from repro.ckpt.manager import CheckpointManager
from repro.ckpt.store import FileCheckpointStore, MemoryCheckpointStore
from repro.errors import CheckpointError


@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryCheckpointStore()
    return FileCheckpointStore(tmp_path / "ckpts")


class TestStore:
    def test_save_load_roundtrip(self, store):
        store.save("k1", {"segments_done": 3, "note": "x"})
        assert store.load("k1") == {"segments_done": 3, "note": "x"}

    def test_overwrite_replaces(self, store):
        store.save("k1", {"v": 1})
        store.save("k1", {"v": 2})
        assert store.load("k1") == {"v": 2}

    def test_load_missing_raises(self, store):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            store.load("missing")

    def test_delete_then_load_raises(self, store):
        store.save("k1", {"v": 1})
        store.delete("k1")
        with pytest.raises(CheckpointError):
            store.load("k1")

    def test_delete_missing_is_noop(self, store):
        store.delete("missing")

    def test_keys_sorted(self, store):
        store.save("b", {})
        store.save("a", {})
        assert store.keys() == ["a", "b"]

    def test_contains(self, store):
        assert not store.contains("k")
        store.save("k", {})
        assert store.contains("k")

    def test_empty_key_rejected(self, store):
        with pytest.raises(CheckpointError):
            store.save("", {})

    def test_load_returns_copy(self, store):
        store.save("k", {"v": 1})
        loaded = store.load("k")
        loaded["v"] = 99
        assert store.load("k") == {"v": 1}


class TestMemoryStore:
    def test_write_counter(self):
        store = MemoryCheckpointStore()
        store.save("a", {})
        store.save("a", {})
        assert store.writes == 2


class TestFileStore:
    def test_persists_across_instances(self, tmp_path):
        d = tmp_path / "ckpts"
        FileCheckpointStore(d).save("job@1", {"x": 1})
        assert FileCheckpointStore(d).load("job@1") == {"x": 1}

    def test_unusual_characters_in_keys(self, tmp_path):
        store = FileCheckpointStore(tmp_path)
        store.save("act#job-000001@7.5", {"x": 1})
        assert store.load("act#job-000001@7.5") == {"x": 1}

    def test_unserialisable_state_raises(self, tmp_path):
        store = FileCheckpointStore(tmp_path)
        with pytest.raises(CheckpointError):
            store.save("k", {"fn": lambda: None})

    def test_corrupt_file_raises_checkpoint_error(self, tmp_path):
        store = FileCheckpointStore(tmp_path)
        store.save("k", {"x": 1})
        path = next(tmp_path.glob("*.ckpt.json"))
        path.write_text("{corrupt")
        with pytest.raises(CheckpointError, match="cannot load"):
            store.load("k")


class TestManager:
    def test_record_marks_checkpoint_enabled(self):
        mgr = CheckpointManager()
        assert mgr.flag_for("act") is None
        mgr.record("act", "flag-1", progress=0.25, at=3.0)
        assert mgr.flag_for("act") == "flag-1"
        assert mgr.progress_of("act") == 0.25

    def test_latest_flag_wins(self):
        mgr = CheckpointManager()
        mgr.record("act", "flag-1")
        mgr.record("act", "flag-2")
        assert mgr.flag_for("act") == "flag-2"

    def test_clear_forgets(self):
        mgr = CheckpointManager()
        mgr.record("act", "flag-1")
        mgr.clear("act")
        assert mgr.flag_for("act") is None
        assert mgr.progress_of("act") == 0.0

    def test_unknown_activity_has_no_flag(self):
        assert CheckpointManager().flag_for("nope") is None

    def test_snapshot_restore_roundtrip(self):
        mgr = CheckpointManager()
        mgr.record("a", "f1", progress=0.5, at=2.0)
        mgr.record("b", "f2")
        restored = CheckpointManager.restore(mgr.snapshot())
        assert restored.flag_for("a") == "f1"
        assert restored.progress_of("a") == 0.5
        assert restored.flag_for("b") == "f2"
