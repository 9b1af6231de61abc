"""Tests for WAL truncation at checkpoints (bounded log growth)."""

from repro.db.database import Database
from repro.db.wal import BaselineRecord, PersistentStorage
from repro.replication.node import NodeConfig
from repro.replication.node import SiteStatus
from tests.conftest import quick_cluster, run_load


def make_db():
    storage = PersistentStorage()
    db = Database(storage)
    db.bootstrap({"a": 0, "b": 0})
    return db


class TestTruncation:
    def test_truncate_drops_subsumed_prefix(self):
        db = make_db()
        for gid in range(5):
            db.log_begin(gid)
            db.apply_write(gid, "a", gid)
            db.commit(gid)
        before = len(db.storage)
        db.checkpoint(truncate_log=True)
        assert len(db.storage) < before
        # The summary baseline is present.
        assert any(isinstance(r, BaselineRecord) and r.gid == 4
                   for r in db.storage.records())

    def test_recovery_equivalent_after_truncation(self):
        db = make_db()
        for gid in range(5):
            db.log_begin(gid)
            db.apply_write(gid, "a", gid)
            db.commit(gid)
        db.checkpoint(truncate_log=True)
        # More work after the checkpoint, cut short by a "crash".
        db.log_begin(5)
        db.apply_write(5, "b", "five")
        db.commit(5)
        recovered, result = Database.recover_from(db.storage)
        assert recovered.store.read("a") == (4, 4)
        assert recovered.store.read("b") == ("five", 5)
        assert result.cover_gid == 5

    def test_open_transactions_never_truncated(self):
        db = make_db()
        db.log_begin(0)
        db.apply_write(0, "a", "committed")
        db.commit(0)
        db.log_begin(1)
        db.apply_write(1, "b", "open")  # still running
        db.checkpoint(truncate_log=True)  # cover is -1... gid 1 open -> cover 0
        recovered, result = Database.recover_from(db.storage)
        assert recovered.store.read("b") == (0, -1)  # discarded, not redone
        assert result.cover_gid >= 0

    def test_rectable_rebuild_survives_truncation(self):
        db = make_db()
        for gid, obj in ((0, "a"), (1, "b")):
            db.log_begin(gid)
            db.apply_write(gid, obj, f"v{gid}")
            db.commit(gid)
        db.checkpoint(truncate_log=True)
        recovered, _ = Database.recover_from(db.storage)
        assert recovered.rectable.changed_since(-1) == {"a": 0, "b": 1}

    def test_cluster_log_stays_bounded(self):
        node_config = NodeConfig(checkpoint_interval=0.2,
                                 truncate_log_at_checkpoint=True)
        cluster = quick_cluster(db_size=30, node_config=node_config)
        storage = cluster.nodes["S1"].storage
        # Sample the log as each checkpoint finds it, just before it
        # truncates: a sample taken at a checkpoint instant sees the log
        # just truncated, whatever it held a moment before.
        peaks = []
        truncate = storage.truncate_through

        def sampled(gid):
            peaks.append(len(storage))
            return truncate(gid)

        storage.truncate_through = sampled
        run_load(cluster, duration=1.0, rate=200)
        first = max(peaks)
        sampled_first = len(peaks)
        run_load(cluster, duration=1.0, rate=200)
        second = max(peaks[sampled_first:])
        # Without truncation the log would roughly double; with it, the
        # tail stays around one checkpoint interval of records.
        assert second < first * 1.8
        cluster.check()

    def test_recovery_with_truncation_end_to_end(self):
        node_config = NodeConfig(checkpoint_interval=0.2,
                                 truncate_log_at_checkpoint=True)
        cluster = quick_cluster(db_size=40, node_config=node_config,
                                strategy="version_check")
        run_load(cluster, duration=0.5, rate=150)
        cluster.crash("S3")
        run_load(cluster, duration=0.5, rate=150)
        cluster.recover("S3")
        assert cluster.await_condition(
            lambda: cluster.nodes["S3"].status is SiteStatus.ACTIVE, timeout=30
        )
        cluster.settle(0.5)
        cluster.check()
