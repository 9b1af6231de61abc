"""Unit tests for the per-site database facade."""

import pytest

from repro.db.database import Database
from repro.db.store import INITIAL_VERSION
from repro.db.wal import AbortRecord, CommitRecord, PersistentStorage


def committed(db):
    return [r.gid for r in db.storage.records() if isinstance(r, CommitRecord)]


def aborted(db):
    return [r.gid for r in db.storage.records() if isinstance(r, AbortRecord)]


def make_db(initial=None):
    storage = PersistentStorage()
    db = Database(storage)
    db.bootstrap(initial or {"a": 0, "b": 0})
    return db


class TestVersionCheck:
    def test_fresh_read_passes(self):
        db = make_db()
        assert db.version_check({"a": INITIAL_VERSION})

    def test_stale_read_fails(self):
        db = make_db()
        db.tag_writes(5, ["a"])
        assert not db.version_check({"a": INITIAL_VERSION})

    def test_tag_accounts_for_unapplied_writers(self):
        """The check must see transactions that are serialized but whose
        write phase has not run yet (section 2.2 III.2)."""
        db = make_db()
        db.log_begin(3)
        db.tag_writes(3, ["a"])  # write not applied yet
        assert db.effective_version("a") == 3
        assert not db.version_check({"a": INITIAL_VERSION})

    def test_tags_are_monotone(self):
        db = make_db()
        db.tag_writes(7, ["a"])
        db.tag_writes(3, ["a"])
        assert db.effective_version("a") == 7

    def test_tags_survive_writer_abort(self):
        db = make_db()
        db.log_begin(7)
        db.tag_writes(7, ["a"])
        db.abort(7)
        assert db.effective_version("a") == 7

    def test_unknown_object_has_initial_version(self):
        db = make_db()
        assert db.effective_version("ghost") == INITIAL_VERSION

    def test_store_version_from_transfer_overrides_stale_tag(self):
        """Regression: a data transfer can install a version newer than
        any local tag (the site never processed those writers); the
        version check must see the newer one or stale readers would
        commit divergently at the recovered site."""
        db = make_db()
        db.tag_writes(26, ["a"])
        db.store.apply([("a", "transferred", 98)])
        assert db.effective_version("a") == 98
        assert not db.version_check({"a": 26})


class TestCommitAbort:
    def test_commit_applies_and_registers(self):
        db = make_db()
        db.log_begin(0)
        db.apply_write(0, "a", 99)
        db.commit(0)
        assert db.store.read("a") == (99, 0)
        db.rectable.ensure_current()
        assert db.rectable.last_writer("a") == 0
        assert committed(db) == [0]

    def test_abort_restores_before_images(self):
        db = make_db()
        db.log_begin(0)
        db.apply_write(0, "a", 99)
        db.abort(0)
        assert db.store.read("a") == (0, INITIAL_VERSION)
        assert aborted(db) == [0]

    def test_rollback_keeps_transaction_unterminated(self):
        db = make_db()
        db.log_begin(0)
        db.apply_write(0, "a", 99)
        db.rollback(0)
        assert db.store.read("a") == (0, INITIAL_VERSION)
        assert db.cover_gid() == -1  # gid 0 still unterminated

    def test_cover_advances_with_terminations(self):
        db = make_db()
        for gid in (0, 1, 2):
            db.log_begin(gid)
        db.commit(0)
        assert db.cover_gid() == 0
        db.abort(2)
        assert db.cover_gid() == 0  # 1 still open
        db.commit(1)
        assert db.cover_gid() == 2

    def test_noop_advances_cover(self):
        db = make_db()
        db.log_noop(0)
        assert db.cover_gid() == 0


class TestBaselineAndCheckpoint:
    def test_set_baseline_floors_cover(self):
        db = make_db()
        db.set_baseline(41)
        assert db.cover_gid() == 41
        assert db.baseline_gid == 41

    def test_checkpoint_excludes_uncommitted(self):
        db = make_db()
        db.log_begin(0)
        db.apply_write(0, "a", 99)
        db.checkpoint()
        assert db.storage.checkpoint_image["a"] == (0, INITIAL_VERSION)
        db.commit(0)
        db.checkpoint()
        assert db.storage.checkpoint_image["a"] == (99, 0)

    def test_recover_from_roundtrip(self):
        db = make_db()
        db.log_begin(0)
        db.apply_write(0, "a", 99)
        db.commit(0)
        db.log_begin(1)
        db.apply_write(1, "b", 77)  # uncommitted at crash
        recovered, result = Database.recover_from(db.storage)
        assert recovered.store.read("a") == (99, 0)
        assert recovered.store.read("b") == (0, INITIAL_VERSION)
        assert result.cover_gid == 0

    def test_recover_rebuilds_rectable(self):
        db = make_db()
        db.log_begin(0)
        db.apply_write(0, "a", 5)
        db.commit(0)
        recovered, _ = Database.recover_from(db.storage)
        assert recovered.rectable.changed_since(-1) == {"a": 0}


class TestVersionSnapshots:
    def test_preserves_pre_limit_version(self):
        db = make_db()
        db.log_begin(0)
        db.apply_write(0, "a", "old")
        db.commit(0)
        db.begin_version_snapshot(5)
        db.log_begin(7)
        db.apply_write(7, "a", "new")
        db.commit(7)
        snap = db.read_as_of(5)
        assert snap["a"] == ("old", 0)
        assert db.store.read("a") == ("new", 7)

    def test_pre_limit_writer_updates_snapshot_view(self):
        db = make_db()
        db.begin_version_snapshot(5)
        db.log_begin(3)
        db.apply_write(3, "a", "three")
        db.commit(3)
        assert db.read_as_of(5)["a"] == ("three", 3)

    def test_only_first_overwrite_preserved(self):
        db = make_db()
        db.begin_version_snapshot(5)
        for gid, value in ((6, "six"), (8, "eight")):
            db.log_begin(gid)
            db.apply_write(gid, "a", value)
            db.commit(gid)
        assert db.read_as_of(5)["a"] == (0, INITIAL_VERSION)

    def test_end_snapshot_releases(self):
        db = make_db()
        db.begin_version_snapshot(5)
        db.end_version_snapshot(5)
        try:
            db.read_as_of(5)
            assert False, "expected KeyError"
        except KeyError:
            pass

    def test_unbalanced_end_fails_loudly(self):
        """Sessions at one sync point share a reference-counted snapshot:
        an end with no begin left would drop a sibling's, so it raises
        at once instead of at the sibling's next read."""
        db = make_db()
        db.begin_version_snapshot(5)
        db.begin_version_snapshot(5)
        db.end_version_snapshot(5)
        db.end_version_snapshot(5)
        with pytest.raises(ValueError, match="no version snapshot at limit 5"):
            db.end_version_snapshot(5)
        with pytest.raises(ValueError, match="no version snapshot at limit 9"):
            db.end_version_snapshot(9)


class TestCommittedReads:
    def test_read_committed_sees_before_image_of_open_writer(self):
        db = make_db()
        db.log_begin(0)
        db.apply_write(0, "a", 99)
        assert db.read_committed("a") == (0, INITIAL_VERSION)
        db.commit(0)
        assert db.read_committed("a") == (99, 0)


class TestCreationScan:
    def test_committed_writes_above(self):
        db = make_db()
        for gid, value in ((0, "zero"), (1, "one"), (2, "two")):
            db.log_begin(gid)
            db.apply_write(gid, "a", value)
            db.commit(gid)
        db.log_begin(3)
        db.apply_write(3, "a", "uncommitted")
        result = db.committed_writes_above(0)
        assert result == ((1, (("a", "one"),)), (2, (("a", "two"),)))
