"""Unit tests for the transfer channel sessions, run against a live
mini-cluster so the sessions see real nodes but with scripted events."""

from collections import deque

import pytest

from repro import NodeConfig
from repro.db.locks import DB_RESOURCE, LockMode
from repro.reconfig.strategies import strategy_by_name
from repro.reconfig.transfer import (
    PartitionComplete,
    PeerTransferSession,
    ReconcileNotice,
    TransferAccept,
    TransferBatch,
    TransferBatchAck,
    TransferComplete,
    TransferOffer,
)
from repro.replication.messages import LastRoundDelimiter, TransactionMessage
from repro.replication.node import SiteStatus
from tests.conftest import quick_cluster


def make_session(cluster, peer="S1", joiner="S3", strategy="rectable"):
    node = cluster.nodes[peer]
    return PeerTransferSession(node, joiner, strategy_by_name(strategy),
                               sync_gid=node.last_processed_gid)


def accept(session, needs_full=True):
    session.on_accept(TransferAccept(session_id=session.session_id, cover_gid=-1,
                                     needs_full=needs_full))


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


def idle_session(cluster, peer="S1"):
    """A ``rectable`` session whose database lock waits behind a writer,
    so it captures nothing by itself; the test drives ``queue_item``."""
    node = cluster.nodes[peer]
    node.db.locks.request("W-idle", next(iter(node.db.store.objects())), LockMode.EXCLUSIVE)
    session = make_session(cluster, peer=peer)
    assert not node.db.locks.holds(session.owner, DB_RESOURCE)
    return session


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
                                needs_full=False)
        session.on_accept(accept)
        state_after_first = session.accepted
        session.on_accept(accept)
        assert state_after_first and session.accepted

    def test_cancel_releases_locks(self):
        cluster = quick_cluster(strategy="version_check")
        session = make_session(cluster, strategy="version_check")
        node = cluster.nodes["S1"]
        held = [o for o, hs in node.db.locks._holders.items() if session.owner in hs]
        assert held  # read locks granted before the accept wait for its cover
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

    def test_completed_then_cancelled_keeps_a_siblings_snapshot(self):
        """Two ``log_filter`` sessions at one synchronization point share
        one reference-counted snapshot.  One completes, and is cancelled
        later (its joiner left before acknowledging); the sibling, whose
        joiner accepts only now, still reads the state as of the sync
        point, because a session gives its snapshot back once."""
        cluster = quick_cluster(strategy="log_filter", db_size=30)
        node = cluster.nodes["S1"]
        first = make_session(cluster, joiner="S2", strategy="log_filter")
        sibling = make_session(cluster, joiner="S3", strategy="log_filter")
        assert first.sync_gid == sibling.sync_gid
        captured = sorted((obj, *node.db.store.read(obj)) for obj in node.db.store.objects())
        ScriptedJoiner(cluster, first)
        accept(first)
        cluster.await_condition(lambda: first.completed, timeout=1, step=0.001)
        first.cancel()
        late = first.sync_gid + 1000  # a writer after the sync point
        node.db.log_begin(late)
        node.db.apply_write(late, "obj0", "late")
        node.db.commit(late)
        joiner = ScriptedJoiner(cluster, sibling)
        accept(sibling)
        cluster.run_for(1.0)
        assert sibling.completed
        assert [item for batch in joiner.batches for item in batch.items] == captured

    def test_payload_bytes_accounted(self):
        cluster = quick_cluster(strategy="full", db_size=20)
        session = make_session(cluster, strategy="full")
        accept(session)
        cluster.run_for(0.2)
        manager = cluster.nodes["S1"].reconfig
        assert manager.bytes_sent_total == manager.objects_sent_total * 256


class TestTransferOrder:
    """Release at capture, the one lock rule of every lock-holding
    strategy: a read lock goes back the moment its object's copy is in
    the outbox, so no writer waits for a batch, and the batches ship in
    grant order."""

    BATCH = 10

    def cluster(self, strategy="full", db_size=95):
        return quick_cluster(strategy=strategy, db_size=db_size,
                             node_config=NodeConfig(transfer_batch_size=self.BATCH))

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

    def test_full_capture_locks_only_what_a_writer_holds(self):
        """A writer delivered before the synchronisation point holds one
        object.  The ``full`` capture reads every other object straight
        into the outbox in store order, under no lock, and takes one read
        lock, on the writer's object (one grant, not one per object):
        that object ships last, with the writer's committed value."""
        cluster = self.cluster()
        node = cluster.nodes["S1"]
        db = node.db
        fifo = list(db.store.objects())
        held = fifo[3]
        gid = node.last_processed_gid + 1
        db.log_begin(gid)
        assert db.locks.request("W", held, LockMode.EXCLUSIVE).granted
        db.apply_write(gid, held, "written")
        grants = db.locks.grants
        session = PeerTransferSession(node, "S3", strategy_by_name("full"), sync_gid=gid)
        others = [(obj, *db.store.read(obj)) for obj in fifo if obj != held]
        assert list(session._outbox) == others
        assert db.locks.grants == grants
        db.commit(gid)
        db.locks.release("W")
        assert db.locks.grants == grants + 1
        assert not db.locks.holds(session.owner, held)
        joiner = ScriptedJoiner(cluster, session)
        accept(session)
        cluster.run_for(1.0)
        assert session.completed
        assert [item for batch in joiner.batches for item in batch.items] == (
            others + [(held, "written", gid)])

    def test_version_check_holds_every_lock_until_the_accept(self):
        """``version_check`` learns its cover only at the accept, so its
        capture read-locks every object until then."""
        cluster = self.cluster(strategy="version_check")
        db = cluster.nodes["S1"].db
        fifo = list(db.store.objects())
        grants = db.locks.grants
        session = make_session(cluster, strategy="version_check")
        assert db.locks.grants == grants + len(fifo)
        cluster.run_for(0.1)
        assert all(db.locks.holds(session.owner, obj) for obj in fifo)
        ScriptedJoiner(cluster, session)
        accept(session)
        assert not any(db.locks.holds(session.owner, obj) for obj in fifo)
        cluster.run_for(1.0)
        assert session.completed

    @pytest.mark.parametrize("waiter", [False, True], ids=["idle", "blocked-writer"])
    def test_totals_equal_fifo_shipping(self, waiter):
        """Every object ships exactly once, as captured, in as many
        batches and as much time as in grant order with no writer about,
        with and without a writer blocked on the transfer's read lock:
        the lock goes back at capture, so the writer changes no batch."""
        runs = {}
        for writer in (False, True):
            cluster = self.cluster()
            node = cluster.nodes["S1"]
            fifo = list(node.db.store.objects())
            last = fifo[-1]
            captured = [(obj, *node.db.store.read(obj)) for obj in fifo]
            if waiter:
                # The session's read lock on the last object queues behind
                # W0, so a writer can queue behind the session's.
                node.db.locks.request("W0", last, LockMode.EXCLUSIVE)
            session = make_session(cluster, strategy="full")
            joiner = ScriptedJoiner(cluster, session)
            granted_at = blocked_writer(cluster, node, last, txn="W1") if waiter and writer else None
            accept(session)
            if waiter:
                cluster.run_for(0.005)
                node.db.locks.release("W0")
            if granted_at is not None:
                assert granted_at == [cluster.sim.now]
                assert not node.db.locks.holds(session.owner, last)
                node.db.store.write(last, "late", 10**6)
            cluster.run_for(1.0)
            assert session.completed
            shipped = [item for batch in joiner.batches for item in batch.items]
            assert shipped == captured
            runs[writer] = (
                node.reconfig.objects_sent_total, session._batch_seq,
                joiner.acked_at, [len(batch.items) for batch in joiner.batches],
            )
        assert runs[True] == runs[False]
        assert runs[True][:2] == (95, 10)

    def test_lost_batch_delays_no_writer(self):
        """The batch carrying the writer's object is lost once: the
        writer has the lock before the batch is even formed, and the
        retransmitted copy is still the value captured at the grant."""
        cluster = self.cluster()
        node = cluster.nodes["S1"]
        session = make_session(cluster, strategy="full")
        joiner = ScriptedJoiner(cluster, session, lose=lambda seq, copy: seq == 2 and copy == 1)
        accept(session)
        victim = list(node.db.store.objects())[-1]
        captured = node.db.store.read(victim)
        assert not node.db.locks.holds(session.owner, victim)
        assert node.db.locks.request("W", victim, LockMode.EXCLUSIVE).granted
        node.db.store.write(victim, "late", 10**6)
        cluster.await_condition(lambda: 2 in joiner.acked_at, timeout=1, step=0.001)
        assert joiner.copies[2] == 2 and node.reconfig.transfer_retransmissions == 1
        assert joiner.acked_at[2] - joiner.delivered_at[2] >= session.ACK_TIMEOUT
        cluster.run_for(1.0)
        assert session.completed and len(joiner.shipped()) == 95
        shipped = {obj: (value, version) for batch in joiner.batches
                   for obj, value, version in batch.items}
        assert shipped[victim] == captured

    @pytest.mark.parametrize("strategy", ["full", "rectable", "version_check"])
    def test_writer_is_granted_at_capture(self, strategy):
        """A writer queued behind the session's read lock on an object is
        granted the instant that object is captured — before any batch
        is acknowledged — and the joiner gets the value from before its
        write."""
        cluster = self.cluster(strategy=strategy)
        node = cluster.nodes["S1"]
        fifo = sorted(node.db.store.objects())
        victim = fifo[-1]
        node.db.locks.request("W0", victim, LockMode.EXCLUSIVE)
        session = make_session(cluster, strategy=strategy)
        joiner = ScriptedJoiner(cluster, session)
        granted_at = blocked_writer(cluster, node, victim, txn="W1")
        accept(session)
        released_at = cluster.sim.now
        captured = node.db.store.read(victim)
        node.db.locks.release("W0")
        assert granted_at == [released_at]
        assert not node.db.locks.holds(session.owner, victim)
        node.db.store.write(victim, "late", 10**6)
        cluster.run_for(1.0)
        assert session.completed and granted_at[0] < min(joiner.acked_at.values())
        assert sorted(joiner.shipped()) == fifo
        shipped = {obj: (value, version) for batch in joiner.batches
                   for obj, value, version in batch.items}
        assert shipped[victim] == captured

    def test_forming_a_batch_touches_only_the_batch(self):
        """10 000 queued objects: forming a batch pops it off the front of
        the outbox — no pass over the rest."""

        class CountingOutbox(deque):
            touched = 0

            def popleft(self):
                self.touched += 1
                return super().popleft()

            def _no_pass(self, *args):
                raise AssertionError("batch formation iterated over the outbox")

            __iter__ = __getitem__ = _no_pass

        cluster = quick_cluster(node_config=NodeConfig(transfer_batch_size=50))
        session = idle_session(cluster)
        names = [f"bulk{i:05d}" for i in range(10_000)]
        for name in names:
            session.queue_item(name, 0, 0)
        session._outbox = counting = CountingOutbox(session._outbox)
        joiner = ScriptedJoiner(cluster, session)
        accept(session)
        assert session._inflight == 50 and len(counting) == 9_950
        assert counting.touched == 50
        cluster.await_condition(lambda: joiner.batches, timeout=1, step=0.001)
        assert [obj for obj, _, _ in joiner.batches[0].items] == names[:50]
        session.cancel()


class TestJoinerSession:
    def make_joiner(self, cluster, joiner="S3"):
        from repro.reconfig.transfer import JoinerTransferSession

        offer = TransferOffer(session_id="sess", peer="S1", strategy="rectable",
                              sync_gid=10)
        return JoinerTransferSession(cluster.nodes[joiner], offer)

    def test_batch_applies_items(self):
        cluster = quick_cluster()
        joiner = self.make_joiner(cluster)
        batch = TransferBatch(session_id="sess", boundary=10,
                              items=(("obj0", "new", 9),), payload_bytes=256)
        joiner.on_batch(batch)
        assert cluster.nodes["S3"].db.store.read("obj0") == ("new", 9)
        assert cluster.nodes["S3"].reconfig.objects_received_total == 1

    def test_complete_records_baseline(self):
        cluster = quick_cluster()
        joiner = self.make_joiner(cluster)
        joiner.on_complete(TransferComplete(session_id="sess", baseline_gid=77))
        assert joiner.complete and joiner.baseline_gid == 77

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
        joiner.on_batch(TransferBatch(session_id="sess", boundary=10,
                                      items=(("obj0", "x", 9),), payload_bytes=256))
        assert cluster.nodes["S3"].reconfig.objects_received_total == 0

    def test_partition_complete_tracked(self):
        cluster = quick_cluster()
        joiner = self.make_joiner(cluster)
        manager = cluster.nodes["S3"].reconfig
        joiner.on_partition_complete(
            PartitionComplete(session_id="sess", partition="part2", boundary_gid=30)
        )
        assert manager.done_partitions == {"part2": 30}
        # Boundaries are monotone.
        joiner.on_partition_complete(
            PartitionComplete(session_id="sess", partition="part2", boundary_gid=10)
        )
        assert manager.done_partitions == {"part2": 30}

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


class TestLazyDelimiter:
    """Section 4.7's delimiter transaction is one point in the total
    order: the peer captures as of it, and the joiner enqueues every
    transaction delivered after it."""

    def test_baseline_is_the_delimiters_gseq(self, monkeypatch):
        """The rounds end with one multicast delimiter.  The peer
        captures where it is delivered, having processed every gid up to
        it, and completes with that gseq as the baseline."""
        cluster = quick_cluster(strategy="lazy", db_size=30)
        peer, joiner = cluster.nodes["S1"], cluster.nodes["S3"]
        # S3 stands in for a joiner: its own answers are scripted.
        monkeypatch.setattr(joiner.reconfig, "_on_transfer_offer", lambda offer: None)
        delivered = []
        handler = peer.reconfig._on_last_round_delimiter

        def on_delimiter(msg, gseq):
            delivered.append((msg.session_id, gseq))
            handler(msg, gseq)
            assert peer.last_processed_gid == gseq

        monkeypatch.setattr(peer.reconfig, "_on_last_round_delimiter", on_delimiter)
        completes = []
        cluster.network.add_tap(lambda _s, _d, p: completes.append(p)
                                if isinstance(p, TransferComplete) else None)
        session = make_session(cluster, strategy="lazy")
        peer.reconfig.sessions_out["S3"] = session
        ScriptedJoiner(cluster, session)
        accept(session)
        cluster.run_for(1.0)
        assert delivered == [(session.session_id, delivered[0][1])]
        assert session.completed
        assert {msg.baseline_gid for msg in completes} == {delivered[0][1]}

    @pytest.mark.parametrize("complete_first", [False, True],
                             ids=["delimiter-first", "complete-first"])
    def test_joiner_replays_exactly_the_gids_above_the_delimiter(self, complete_first):
        """The joiner discards what is delivered before the delimiter and
        replays what is delivered after it, also when the peer's
        TransferComplete overtakes the joiner's own delivery of the
        delimiter."""
        cluster = quick_cluster(strategy="lazy")
        node = cluster.nodes["S3"]
        manager = node.reconfig
        base = node.db.cover_gid() + 100
        delimiter = base + 3
        node._set_status(SiteStatus.RECOVERING, "scripted joiner")
        manager.on_transfer_message("S1", TransferOffer(
            session_id="lazy", peer="S1", strategy="lazy", sync_gid=base, created_at=1.0))
        assert not manager.enqueue_mode

        def complete():
            manager.on_transfer_message("S1", TransferComplete(
                session_id="lazy", baseline_gid=delimiter))

        if complete_first:
            complete()
        for gid in range(base + 1, base + 6):
            if gid == delimiter:
                node.on_message("S1", LastRoundDelimiter(session_id="lazy"), gid)
                assert manager.enqueue_mode
                continue
            node.on_message("S1", TransactionMessage(
                origin="S1", local_id=f"T{gid}", read_set=(),
                write_set=((f"obj{gid % 5}", f"by-{gid}"),)), gid)
        assert [gid for gid, _message in manager.enqueued] == [base + 4, base + 5]
        if not complete_first:
            complete()
        assert node.db.baseline_gid == delimiter
        cluster.run_for(0.05)
        assert manager.replayed_transactions == 2
        assert cluster.history.commits_of("S3") == [base + 4, base + 5]

    def test_a_delimiter_of_another_session_starts_no_enqueueing(self):
        cluster = quick_cluster(strategy="lazy")
        node = cluster.nodes["S3"]
        node._set_status(SiteStatus.RECOVERING, "scripted joiner")
        node.reconfig.on_transfer_message("S1", TransferOffer(
            session_id="current", peer="S1", strategy="lazy", sync_gid=0, created_at=1.0))
        node.on_message("S2", LastRoundDelimiter(session_id="superseded"), 10_000)
        assert not node.reconfig.enqueue_mode
