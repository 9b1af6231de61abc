"""Unit tests for the object store, WAL and single-site recovery."""

import pytest

from repro.db.recovery import compute_cover, run_single_site_recovery
from repro.db.store import INITIAL_VERSION, ObjectStore
from repro.db.wal import (
    AbortRecord,
    BaselineRecord,
    BeginRecord,
    CommitRecord,
    NoopRecord,
    PersistentStorage,
    WriteRecord,
)


class TestObjectStore:
    def test_initial_objects_have_initial_version(self):
        store = ObjectStore({"a": 1})
        assert store.read("a") == (1, INITIAL_VERSION)

    def test_write_and_read(self):
        store = ObjectStore()
        store.write("a", 5, 3)
        assert store.read("a") == (5, 3)
        assert store.version("a") == 3
        assert store.value("a") == 5

    def test_contains_len_objects(self):
        store = ObjectStore({"b": 0, "a": 0})
        assert "a" in store and len(store) == 2
        assert list(store.objects()) == ["a", "b"]

    def test_missing_object_raises(self):
        with pytest.raises(KeyError):
            ObjectStore().read("ghost")

    def test_snapshot_roundtrip(self):
        store = ObjectStore({"a": 1})
        store.write("b", 2, 7)
        clone = ObjectStore()
        clone.load_snapshot(store.snapshot())
        assert clone.content_digest() == store.content_digest()

    def test_apply_keeps_newest_version(self):
        store = ObjectStore()
        store.write("a", "new", 10)
        store.apply([("a", "old", 5), ("b", "fresh", 3)])
        assert store.read("a") == ("new", 10)
        assert store.read("b") == ("fresh", 3)

    def test_apply_equal_version_overwrites(self):
        store = ObjectStore()
        store.write("a", "x", 5)
        store.apply([("a", "y", 5)])
        assert store.value("a") == "y"

    def test_remove(self):
        store = ObjectStore({"a": 1})
        store.remove("a")
        assert "a" not in store
        store.remove("a")  # idempotent

    def test_content_digest_is_deterministic(self):
        a = ObjectStore({"x": 1, "y": 2})
        b = ObjectStore({"y": 2, "x": 1})
        assert a.content_digest() == b.content_digest()


class TestComputeCover:
    def test_no_deliveries_is_baseline(self):
        assert compute_cover(5, [], set()) == 5

    def test_all_terminated(self):
        assert compute_cover(-1, [0, 1, 2], {0, 1, 2}) == 2

    def test_unterminated_caps_cover(self):
        assert compute_cover(-1, [0, 1, 2, 3], {0, 1, 3}) == 1

    def test_unterminated_below_baseline_keeps_baseline(self):
        # Defensive: baseline wins when stale unterminated entries remain.
        assert compute_cover(10, [11, 12], {12}) == 10

    def test_gaps_in_gids_allowed(self):
        # gseq gaps (minority-view numbering) do not block the cover.
        assert compute_cover(-1, [0, 5, 9], {0, 5, 9}) == 9


class TestRecovery:
    def test_redo_committed_write(self):
        storage = PersistentStorage()
        storage.append(BaselineRecord(-1))
        storage.checkpoint({"a": (0, INITIAL_VERSION)})
        storage.append(BeginRecord(0))
        storage.append(WriteRecord(0, "a", 0, INITIAL_VERSION, 42))
        storage.append(CommitRecord(0))
        result = run_single_site_recovery(storage)
        assert result.store.read("a") == (42, 0)
        assert result.cover_gid == 0
        assert result.redone == 1

    def test_uncommitted_write_discarded(self):
        storage = PersistentStorage()
        storage.checkpoint({"a": (0, INITIAL_VERSION)})
        storage.append(BeginRecord(0))
        storage.append(WriteRecord(0, "a", 0, INITIAL_VERSION, 42))
        result = run_single_site_recovery(storage)
        assert result.store.read("a") == (0, INITIAL_VERSION)
        assert result.cover_gid == -1  # gid 0 unterminated
        assert result.discarded == 1

    def test_aborted_txn_terminates_cover(self):
        storage = PersistentStorage()
        storage.append(BeginRecord(0))
        storage.append(AbortRecord(0))
        result = run_single_site_recovery(storage)
        assert result.cover_gid == 0

    def test_noop_counts_as_terminated(self):
        storage = PersistentStorage()
        storage.append(NoopRecord(0))
        storage.append(BeginRecord(1))
        storage.append(CommitRecord(1))
        result = run_single_site_recovery(storage)
        assert result.cover_gid == 1

    def test_checkpoint_newer_than_log_replay(self):
        """Fuzzy checkpoint may already contain the committed value."""
        storage = PersistentStorage()
        storage.append(BeginRecord(3))
        storage.append(WriteRecord(3, "a", 0, INITIAL_VERSION, 9))
        storage.append(CommitRecord(3))
        storage.checkpoint({"a": (9, 3)})
        result = run_single_site_recovery(storage)
        assert result.store.read("a") == (9, 3)
        assert result.redone == 0

    def test_redo_in_gid_order(self):
        storage = PersistentStorage()
        for gid, value in ((1, "one"), (0, "zero")):
            storage.append(BeginRecord(gid))
            storage.append(WriteRecord(gid, "a", None, INITIAL_VERSION, value))
            storage.append(CommitRecord(gid))
        result = run_single_site_recovery(storage)
        assert result.store.read("a") == ("one", 1)

    def test_baseline_floors_cover(self):
        storage = PersistentStorage()
        storage.append(BaselineRecord(50))
        result = run_single_site_recovery(storage)
        assert result.cover_gid == 50
        assert result.last_delivered_gid == 50

    def test_baseline_subsumes_an_earlier_unterminated_gid(self):
        """Crash with gid 5 in flight, transfer baseline 20, commit 21 and
        22: the cover is 22, as ``Database.set_baseline`` keeps it live —
        not 20, which would make the next transfer re-ship 21 and 22."""
        storage = PersistentStorage()
        storage.append(BeginRecord(5))
        storage.append(BaselineRecord(20))
        for gid in (21, 22):
            storage.append(BeginRecord(gid))
            storage.append(CommitRecord(gid))
        result = run_single_site_recovery(storage)
        assert result.cover_gid == 22
        assert result.last_delivered_gid == 22

    def test_committed_gids_reported(self):
        storage = PersistentStorage()
        storage.append(BeginRecord(0))
        storage.append(CommitRecord(0))
        storage.append(BeginRecord(1))
        storage.append(AbortRecord(1))
        result = run_single_site_recovery(storage)
        assert result.committed_gids == {0}
