"""Unit tests for phantom-commit reconciliation at the database layer."""

from repro.db.database import Database
from repro.db.store import INITIAL_VERSION
from repro.db.wal import PersistentStorage


def make_db():
    storage = PersistentStorage()
    db = Database(storage)
    db.bootstrap({"a": 0, "b": 0})
    return db


class TestPhantomQueries:
    def test_committed_gids_above(self):
        db = make_db()
        for gid in (5, 9):
            db.log_begin(gid)
            db.apply_write(gid, "a", gid)
            db.commit(gid)
        assert db.committed_gids_above(-1) == (5, 9)
        assert db.committed_gids_above(5) == (9,)

    def test_reconciled_gids_excluded(self):
        db = make_db()
        db.log_begin(5)
        db.apply_write(5, "a", "x")
        db.commit(5)
        db.reconcile_phantoms([5])
        assert db.committed_gids_above(-1) == ()

    def test_verify_committed_flags_unknown(self):
        db = make_db()
        db.log_begin(5)
        db.commit(5)
        assert db.verify_committed([5, 6, 7]) == (6, 7)

    def test_verify_committed_trusts_baseline(self):
        db = make_db()
        db.set_baseline(10)
        assert db.verify_committed([3, 7]) == ()


class TestCompensation:
    def test_restores_before_images(self):
        db = make_db()
        db.log_begin(5)
        db.apply_write(5, "a", "phantom")
        db.commit(5)
        undone = db.reconcile_phantoms([5])
        assert undone == 1
        assert db.store.read("a") == (0, INITIAL_VERSION)

    def test_chained_phantoms_reversed_newest_first(self):
        db = make_db()
        for gid, value in ((5, "v5"), (7, "v7")):
            db.log_begin(gid)
            db.apply_write(gid, "a", value)
            db.commit(gid)
        db.reconcile_phantoms([5, 7])
        assert db.store.read("a") == (0, INITIAL_VERSION)

    def test_skips_objects_overwritten_by_later_writers(self):
        db = make_db()
        db.log_begin(5)
        db.apply_write(5, "a", "phantom")
        db.commit(5)
        db.store.write("a", "legit", 9)  # e.g. installed by a transfer batch
        db.reconcile_phantoms([5])
        assert db.store.read("a") == ("legit", 9)

    def test_recovery_does_not_redo_reconciled(self):
        db = make_db()
        db.log_begin(5)
        db.apply_write(5, "a", "phantom")
        db.commit(5)
        db.reconcile_phantoms([5])
        recovered, result = Database.recover_from(db.storage)
        assert recovered.store.read("a") == (0, INITIAL_VERSION)
        assert 5 not in result.committed_gids
        # And the gid counts as terminated for the cover.
        assert result.cover_gid >= 5

    def test_empty_phantom_list_noop(self):
        db = make_db()
        assert db.reconcile_phantoms([]) == 0
