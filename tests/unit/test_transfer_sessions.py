"""Unit tests for the transfer channel sessions, run against a live
mini-cluster so the sessions see real nodes but with scripted events."""

from collections import OrderedDict

import pytest

from repro import NodeConfig
from repro.db.locks import LockMode
from repro.reconfig.strategies import strategy_by_name
from repro.reconfig.strategies.base import TransferStrategy
from repro.reconfig.transfer import (
    LastRoundReady,
    PartitionComplete,
    PeerTransferSession,
    ReconcileNotice,
    TransferAccept,
    TransferBatch,
    TransferBatchAck,
    TransferComplete,
    TransferOffer,
)
from repro.replication.messages import TransactionMessage
from repro.replication.node import SiteStatus
from tests.conftest import quick_cluster


def make_session(cluster, peer="S1", joiner="S3", strategy="rectable"):
    """``strategy`` is a registry name or a strategy instance."""
    node = cluster.nodes[peer]
    if isinstance(strategy, str):
        strategy = strategy_by_name(strategy)
    return PeerTransferSession(node, joiner, strategy, sync_gid=node.last_processed_gid)


def accept(session, needs_full=True):
    session.on_accept(TransferAccept(session_id=session.session_id, cover_gid=-1,
                                     resume_through=-1, needs_full=needs_full))


class ScriptedJoiner:
    """Stands in for the joiner of one session: records each batch as it
    is delivered and acknowledges it ``ACK_DELAY`` later, except the
    copies ``lose(seq, copy)`` names (a lost batch or a lost ack)."""

    ACK_DELAY = 0.001

    def __init__(self, cluster, session, lose=lambda seq, copy: False):
        self.cluster = cluster
        self.session = session
        self.lose = lose
        self.batches = []  # first copy of each, in delivery order
        self.copies = {}  # seq -> copies delivered
        self.delivered_at = {}  # seq -> sim time of the first copy
        self.acked_at = {}  # seq -> sim time the peer saw the first ack
        cluster.network.add_tap(self._tap)

    def _tap(self, _src, _dst, payload):
        if not isinstance(payload, TransferBatch) or payload.session_id != self.session.session_id:
            return
        copy = self.copies[payload.seq] = self.copies.get(payload.seq, 0) + 1
        if copy == 1:
            self.batches.append(payload)
            self.delivered_at[payload.seq] = self.cluster.sim.now
        if not self.lose(payload.seq, copy):
            self.cluster.sim.schedule(self.ACK_DELAY, self._ack, payload)

    def _ack(self, batch):
        self.acked_at.setdefault(batch.seq, self.cluster.sim.now)
        self.session.on_batch_ack(TransferBatchAck(
            session_id=self.session.session_id, count=len(batch.items), seq=batch.seq))

    def shipped(self):
        return [obj for batch in self.batches for obj, _value, _version in batch.items]


def blocked_writer(cluster, node, obj, txn="W"):
    """An exclusive request on ``obj`` at ``node``; the returned list
    receives the sim time of its grant."""
    granted_at = []
    request = node.db.locks.request(
        txn, obj, LockMode.EXCLUSIVE, lambda _r: granted_at.append(cluster.sim.now))
    assert not request.granted
    return granted_at


class IdleStrategy(TransferStrategy):
    """Queues nothing by itself; the test drives ``queue_item``."""

    name = "idle"

    def begin(self, session, accept) -> None:
        pass


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
        cluster = quick_cluster(strategy="full", db_size=100,
                                node_config=NodeConfig(transfer_batch_size=10))
        session = make_session(cluster, strategy="full")
        batches = []
        cluster.network.add_tap(
            lambda s, d, p: batches.append(p) if isinstance(p, TransferBatch) else None
        )
        accept(session)
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
        accept(session)
        cluster.run_for(0.2)
        assert session.bytes_sent == session.objects_sent * 256


class TestTransferOrder:
    """Writers-first shipping, the one batch order of every strategy
    (sections 4.3-4.5 leave the order open): which object leaves when,
    and that nothing else moved."""

    BATCH = 10

    def cluster(self, strategy="full", db_size=95):
        return quick_cluster(strategy=strategy, db_size=db_size,
                             node_config=NodeConfig(transfer_batch_size=self.BATCH))

    def test_blocked_writer_object_ships_in_next_batch(self):
        cluster = self.cluster()
        node = cluster.nodes["S1"]
        session = make_session(cluster, strategy="full")
        joiner = ScriptedJoiner(cluster, session)
        accept(session)  # batch 1 is formed here, before any writer waits
        fifo = list(node.db.store.objects())
        victim = fifo[-1]  # in the last batch of the grant order
        granted_at = blocked_writer(cluster, node, victim)
        cluster.run_for(1.0)
        assert [obj for obj, _, _ in joiner.batches[0].items] == fifo[:self.BATCH]
        second = [obj for obj, _, _ in joiner.batches[1].items]
        assert second == [victim] + fifo[self.BATCH:2 * self.BATCH - 1]
        assert granted_at == [joiner.acked_at[2]]
        assert session.completed

    def test_longest_waiting_writer_first(self):
        cluster = self.cluster()
        node = cluster.nodes["S1"]
        session = make_session(cluster, strategy="full")
        joiner = ScriptedJoiner(cluster, session)
        accept(session)
        fifo = list(node.db.store.objects())
        waits = [fifo[70], fifo[30], fifo[90], fifo[50]]
        for index, obj in enumerate(waits):
            blocked_writer(cluster, node, obj, txn=f"W{index}")
        cluster.run_for(1.0)
        assert [obj for obj, _, _ in joiner.batches[1].items][:4] == waits

    def test_more_waiters_than_a_batch_holds(self):
        """The batch stays at ``transfer_batch_size``; the writers that
        did not fit lead the following one."""
        cluster = self.cluster()
        node = cluster.nodes["S1"]
        session = make_session(cluster, strategy="full")
        joiner = ScriptedJoiner(cluster, session)
        accept(session)
        fifo = list(node.db.store.objects())
        waits = fifo[:self.BATCH - 1:-1][:self.BATCH + 3]  # from the back, 13 of them
        for index, obj in enumerate(waits):
            blocked_writer(cluster, node, obj, txn=f"W{index}")
        cluster.run_for(1.0)
        assert [obj for obj, _, _ in joiner.batches[1].items] == waits[:self.BATCH]
        assert [obj for obj, _, _ in joiner.batches[2].items][:3] == waits[self.BATCH:]
        assert all(len(batch.items) == self.BATCH for batch in joiner.batches[:-1])

    def test_without_waiters_ships_in_grant_order(self):
        """One read lock is granted late (a writer held the object at the
        synchronisation point): it is queued, and shipped, last."""
        cluster = self.cluster()
        node = cluster.nodes["S1"]
        fifo = list(node.db.store.objects())
        late = fifo[3]
        node.db.locks.request("W0", late, LockMode.EXCLUSIVE)
        session = make_session(cluster, strategy="full")
        joiner = ScriptedJoiner(cluster, session)
        accept(session)
        cluster.run_for(0.005)
        node.db.locks.release("W0")
        cluster.run_for(1.0)
        assert joiner.shipped() == [obj for obj in fifo if obj != late] + [late]
        assert session.completed

    @pytest.mark.parametrize("waiter", [False, True], ids=["idle", "blocked-writer"])
    def test_totals_equal_fifo_shipping(self, waiter, monkeypatch):
        """Every object ships exactly once, in as many batches and as much
        time as in grant order, with and without a waiter."""
        runs = {}
        for grant_order in (True, False):
            cluster = self.cluster()
            node = cluster.nodes["S1"]
            if grant_order:
                # The control: no writer is ever reported waiting, so every
                # batch is taken from the front of the outbox.
                monkeypatch.setattr(node.db.locks, "contended", lambda _owner: [])
            session = make_session(cluster, strategy="full")
            joiner = ScriptedJoiner(cluster, session)
            accept(session)
            fifo = list(node.db.store.objects())
            if waiter:
                blocked_writer(cluster, node, fifo[-1])
            cluster.run_for(1.0)
            assert session.completed
            assert sorted(joiner.shipped()) == sorted(fifo)
            assert len(joiner.shipped()) == len(fifo)
            runs[grant_order] = (
                session.objects_sent, session._batch_seq, session.finished_at,
                [len(batch.items) for batch in joiner.batches],
            )
            if waiter:
                assert (joiner.shipped() == fifo) == grant_order
        assert runs[True] == runs[False]
        assert runs[True][:2] == (95, 10)

    def test_lost_batch_releases_locks_only_at_its_ack(self):
        """The batch carrying the writer's object is lost once: the lock
        stays with the session through the retransmission timeout and
        goes to the writer when the retransmitted copy is acknowledged."""
        cluster = self.cluster()
        node = cluster.nodes["S1"]
        session = make_session(cluster, strategy="full")
        joiner = ScriptedJoiner(cluster, session, lose=lambda seq, copy: seq == 2 and copy == 1)
        accept(session)
        victim = list(node.db.store.objects())[-1]
        granted_at = blocked_writer(cluster, node, victim)
        cluster.run_for(node.config.transfer_ack_timeout / 2)
        assert joiner.copies == {1: 1, 2: 1} and victim in joiner.shipped()
        assert granted_at == [] and node.db.locks.holds(session.owner, victim)
        cluster.await_condition(lambda: 2 in joiner.acked_at, timeout=1, step=0.001)
        assert joiner.copies[2] == 2 and session.retransmissions == 1
        cluster.run_for(1.0)
        assert granted_at == [joiner.acked_at[2]]
        assert joiner.acked_at[2] - joiner.delivered_at[2] >= node.config.transfer_ack_timeout
        assert session.completed and len(joiner.shipped()) == 95

    @pytest.mark.parametrize("strategy", ["rectable", "version_check"])
    def test_writer_object_ships_next(self, strategy):
        """Not only ``full``: a strategy that reads after the accept and
        keeps each lock until the ack ships the writer's object in the
        first batch formed after the writer queued, not at its turn in
        the last one."""
        cluster = self.cluster(strategy=strategy)
        node = cluster.nodes["S1"]
        session = make_session(cluster, strategy=strategy)
        joiner = ScriptedJoiner(cluster, session)
        accept(session)
        assert session._inflight is not None  # streaming started
        fifo = sorted(node.db.store.objects())
        victim = fifo[-1]
        granted_at = blocked_writer(cluster, node, victim)
        cluster.run_for(1.0)
        assert session.completed
        assert joiner.batches[1].items[0][0] == victim
        assert [obj for obj in joiner.shipped() if obj != victim] == fifo[:-1]
        assert granted_at == [joiner.acked_at[2]]

    def test_forming_a_batch_touches_only_the_batch(self):
        """10 000 queued objects, two blocked writers: picking a batch
        looks up the two contended objects and pops the rest off the
        front — no pass over the outbox."""

        class CountingOutbox(OrderedDict):
            touched = 0

            def pop(self, *args):
                self.touched += 1
                return super().pop(*args)

            def popitem(self, last=True):
                self.touched += 1
                return super().popitem(last)

            def __getitem__(self, key):
                self.touched += 1
                return super().__getitem__(key)

            def __contains__(self, key):
                self.touched += 1
                return super().__contains__(key)

            def _no_pass(self, *args):
                raise AssertionError("batch formation iterated over the outbox")

            __iter__ = keys = values = items = _no_pass

        cluster = quick_cluster(node_config=NodeConfig(transfer_batch_size=50))
        node = cluster.nodes["S1"]
        session = make_session(cluster, strategy=IdleStrategy())
        names = [f"bulk{i:05d}" for i in range(10_000)]
        for name in names:
            session.queue_item(name, 0, 0, release_after_ack=True)
        for index, name in enumerate((names[9_000], names[5_000])):
            session.request_read_lock(name, None)
            blocked_writer(cluster, node, name, txn=f"W{index}")
        session._outbox = counting = CountingOutbox(session._outbox)
        joiner = ScriptedJoiner(cluster, session)
        accept(session)
        assert session._inflight == 50 and len(counting) == 9_950
        assert counting.touched <= 50 + 2
        cluster.await_condition(lambda: joiner.batches, timeout=1, step=0.001)
        assert [obj for obj, _, _ in joiner.batches[0].items] == (
            [names[9_000], names[5_000]] + names[:48])
        session.cancel()


def test_mixed_release_flags_release_only_acked_objects():
    """Each queued object carries its own release flag: acknowledging
    a keep-the-lock object must not hand back the lock of the object
    queued behind it."""
    cluster = quick_cluster(node_config=NodeConfig(transfer_batch_size=1))
    node = cluster.nodes["S1"]
    locks = node.db.locks
    session = make_session(cluster, strategy=IdleStrategy())
    joiner = ScriptedJoiner(cluster, session)
    for obj in ("obj0", "obj1"):
        session.request_read_lock(obj, None)
    session.queue_item("obj0", *node.db.store.read("obj0"), release_after_ack=False)
    session.queue_item("obj1", *node.db.store.read("obj1"), release_after_ack=True)
    accept(session)  # both are queued when the first batch is formed
    cluster.await_condition(lambda: 1 in joiner.acked_at, timeout=1, step=0.0001)
    assert joiner.shipped() == ["obj0"]
    assert locks.holds(session.owner, "obj0") and locks.holds(session.owner, "obj1")
    cluster.await_condition(lambda: 2 in joiner.acked_at, timeout=1, step=0.0001)
    assert joiner.shipped() == ["obj0", "obj1"]
    assert locks.holds(session.owner, "obj0") and not locks.holds(session.owner, "obj1")
    session.cancel()
    assert not locks.holds(session.owner, "obj0")


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


class TestJoinerReplay:
    """The replay queue owns its messages: a message leaves ``enqueued``
    when its step runs, not when the step is scheduled."""

    def test_superseding_offer_keeps_the_in_flight_replay_step(self):
        """One replay step is scheduled when a newer session's offer
        arrives with a baseline *below* the step's gid: the step is
        cancelled, its message waits in the queue, and the new session's
        replay applies it — once."""
        cluster = quick_cluster()
        node = cluster.nodes["S3"]
        manager = node.reconfig
        base = node.db.cover_gid()
        in_flight, behind = base + 1, base + 2
        node._set_status(SiteStatus.RECOVERING, "scripted joiner")
        manager.enqueue_mode = True
        for gid, obj in ((in_flight, "obj1"), (behind, "obj2")):
            manager.on_recovering_message(gid, TransactionMessage(
                origin="S1", local_id=f"T{gid}", read_set=(),
                write_set=((obj, f"by-{gid}"),)))

        def offer(session_id, created_at):
            manager.on_transfer_message("S1", TransferOffer(
                session_id=session_id, peer="S1", strategy="rectable",
                sync_gid=base, created_at=created_at))
            assert manager.joiner_session.session_id == session_id

        def complete(session_id):
            manager.on_transfer_message("S1", TransferComplete(
                session_id=session_id, baseline_gid=base))

        offer("first", created_at=1.0)
        complete("first")
        assert manager.replaying  # the step for ``in_flight`` is scheduled
        offer("second", created_at=2.0)  # supersedes mid-step
        assert not manager.replaying
        cluster.run_for(0.01)  # past the cancelled step's time
        assert node.db.store.version("obj1") < in_flight
        complete("second")
        cluster.run_for(0.01)
        assert not manager.enqueued and manager.replayed_transactions == 2
        assert node.db.store.read("obj1") == (f"by-{in_flight}", in_flight)
        assert node.db.store.read("obj2") == (f"by-{behind}", behind)
        assert cluster.history.commits_of("S3").count(in_flight) == 1
