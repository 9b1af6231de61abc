"""Unit tests for the transfer channel sessions, run against a live
mini-cluster so the sessions see real nodes but with scripted events."""

import pytest

from repro.reconfig.transfer import (
    LastRoundReady,
    PartitionComplete,
    ReconcileNotice,
    TransferAccept,
    TransferBatch,
    TransferBatchAck,
    TransferComplete,
    TransferOffer,
)
from tests.conftest import quick_cluster


def make_session(cluster, peer="S1", joiner="S3", strategy="rectable"):
    from repro.reconfig.strategies import strategy_by_name

    node = cluster.nodes[peer]
    from repro.reconfig.transfer import PeerTransferSession

    return PeerTransferSession(node, joiner, strategy_by_name(strategy),
                               sync_gid=node.last_processed_gid)


class TestPeerSession:
    def test_offer_sent_and_retried(self):
        cluster = quick_cluster()
        session = make_session(cluster)
        sent = []
        cluster.network.add_tap(
            lambda s, d, p: sent.append(p) if isinstance(p, TransferOffer) else None
        )
        cluster.run_for(0.2)
        assert len(sent) >= 2  # initial + at least one retry (no accept)
        session.cancel()

    def test_duplicate_accept_ignored(self):
        cluster = quick_cluster()
        session = make_session(cluster)
        accept = TransferAccept(session_id=session.session_id, cover_gid=-1,
                                resume_through=-1, needs_full=False)
        session.on_accept(accept)
        state_after_first = session.accepted
        session.on_accept(accept)
        assert state_after_first and session.accepted

    def test_cancel_releases_locks(self):
        cluster = quick_cluster(strategy="full")
        session = make_session(cluster, strategy="full")
        node = cluster.nodes["S1"]
        held = [o for o, hs in node.db.locks._holders.items() if session.owner in hs]
        assert held  # full strategy grabbed read locks at creation
        session.cancel()
        held = [o for o, hs in node.db.locks._holders.items() if session.owner in hs]
        assert not held

    def test_batching_respects_batch_size(self):
        from repro import NodeConfig

        cluster = quick_cluster(strategy="full", db_size=100,
                                node_config=NodeConfig(transfer_batch_size=10))
        session = make_session(cluster, strategy="full")
        batches = []
        cluster.network.add_tap(
            lambda s, d, p: batches.append(p) if isinstance(p, TransferBatch) else None
        )
        session.on_accept(TransferAccept(session_id=session.session_id, cover_gid=-1,
                                         resume_through=-1, needs_full=True))
        # Ack every batch as it arrives (joiner side is not wired here).
        cluster.run_for(2.0)
        # Nothing acked yet -> a single batch in flight; any extra copies
        # on the wire are retransmissions of it (same sequence number).
        assert {b.seq for b in batches} == {1}
        session.on_batch_ack(TransferBatchAck(session_id=session.session_id, count=10))
        cluster.run_for(0.2)
        assert {b.seq for b in batches} == {1, 2}
        assert all(len(b.items) <= 10 for b in batches)
        session.cancel()

    def test_payload_bytes_accounted(self):
        cluster = quick_cluster(strategy="full", db_size=20)
        session = make_session(cluster, strategy="full")
        session.on_accept(TransferAccept(session_id=session.session_id, cover_gid=-1,
                                         resume_through=-1, needs_full=True))
        cluster.run_for(0.2)
        assert session.bytes_sent == session.objects_sent * 256


class TestJoinerSession:
    def make_joiner(self, cluster, joiner="S3"):
        from repro.reconfig.transfer import JoinerTransferSession

        offer = TransferOffer(session_id="sess", peer="S1", strategy="rectable",
                              sync_gid=10)
        return JoinerTransferSession(cluster.nodes[joiner], offer, resume_through=5)

    def test_batch_applies_items(self):
        cluster = quick_cluster()
        joiner = self.make_joiner(cluster)
        batch = TransferBatch(session_id="sess", round_no=1,
                              items=(("obj0", "new", 9),), payload_bytes=256)
        joiner.on_batch(batch)
        assert cluster.nodes["S3"].db.store.read("obj0") == ("new", 9)
        assert joiner.objects_received == 1

    def test_round_boundary_advances_resume(self):
        cluster = quick_cluster()
        joiner = self.make_joiner(cluster)
        batch = TransferBatch(session_id="sess", round_no=1, items=(),
                              payload_bytes=0, round_boundary=42)
        joiner.on_batch(batch)
        assert joiner.resume_through == 42

    def test_complete_records_baseline(self):
        cluster = quick_cluster()
        joiner = self.make_joiner(cluster)
        joiner.on_complete(TransferComplete(session_id="sess", baseline_gid=77))
        assert joiner.complete and joiner.baseline_gid == 77
        assert joiner.resume_through == 77

    def test_duplicate_or_stale_complete_is_traced_once(self):
        """``transfer/complete`` means "a baseline was installed": the
        retransmitted notice is re-acked but not traced again, and a
        notice for a superseded session is not traced at all."""
        from repro.tracing import attach_tracer

        cluster = quick_cluster()
        tracer = attach_tracer(cluster)
        manager = cluster.nodes["S3"].reconfig
        manager.joiner_session = self.make_joiner(cluster)
        baseline = cluster.nodes["S3"].db.cover_gid()
        notice = TransferComplete(session_id="sess", baseline_gid=baseline)
        stale = TransferComplete(session_id="older", baseline_gid=baseline)
        for msg in (stale, notice, notice, stale):
            manager.on_transfer_message("S1", msg)
        assert manager.transfers_completed == 1
        completes = tracer.of("transfer", site="S3", kind="complete")
        assert [e.data["baseline"] for e in completes] == [baseline]

    def test_cancelled_session_ignores_batches(self):
        cluster = quick_cluster()
        joiner = self.make_joiner(cluster)
        joiner.cancel()
        joiner.on_batch(TransferBatch(session_id="sess", round_no=1,
                                      items=(("obj0", "x", 9),), payload_bytes=256))
        assert joiner.objects_received == 0

    def test_partition_complete_tracked(self):
        cluster = quick_cluster()
        joiner = self.make_joiner(cluster)
        joiner.on_partition_complete(
            PartitionComplete(session_id="sess", partition="part2", boundary_gid=30)
        )
        assert joiner.done_partitions == {"part2": 30}
        # Boundaries are monotone.
        joiner.on_partition_complete(
            PartitionComplete(session_id="sess", partition="part2", boundary_gid=10)
        )
        assert joiner.done_partitions == {"part2": 30}

    def test_reconcile_notice_triggers_compensation(self):
        cluster = quick_cluster()
        node = cluster.nodes["S3"]
        node.db.log_begin(500)
        node.db.apply_write(500, "obj1", "phantom")
        node.db.commit(500)
        joiner = self.make_joiner(cluster)
        joiner.on_reconcile_notice(
            ReconcileNotice(session_id="sess", phantom_gids=(500,))
        )
        assert node.db.store.value("obj1") == 0
