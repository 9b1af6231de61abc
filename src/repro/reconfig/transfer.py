"""The peer <-> joiner data transfer channel and sessions.

The transfer runs point-to-point outside the group communication system
(section 4.2: "the data transfer need not occur through the group
communication platform but could, e.g., be performed via TCP"), on a
dedicated network endpoint per site.

A :class:`PeerTransferSession` lives at the peer.  Its
:class:`repro.reconfig.strategies.Strategy` row says what it captures
at the synchronization point, which objects it filters out and whether
it runs lazy rounds; the session does all of it, and around it the
offer/accept handshake, batching with a single in-flight batch,
per-object marshalling cost and completion signalling.

A :class:`JoinerTransferSession` lives at the joining site; it installs
incoming batches and records the baseline the transfer completes at;
the manager replays the enqueued transaction messages above it (the
synchronization-point rule of section 4.2/4.7).
"""

from __future__ import annotations

import pickle
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.db.locks import DB_RESOURCE, LockMode
from repro.db.partitions import partition_names, partition_of
from repro.reconfig.strategies import (
    NO_COVER, Capture, Filter, Strategy, changed_objects, effective_cover)
from repro.replication.messages import LastRoundDelimiter
from repro.replication.node import ReplicatedDatabaseNode


def encode_batch_items(items: Tuple[Tuple[str, Any, int], ...]) -> bytes:
    """Compress a transfer batch for the wire (``transfer_compression``).

    Adjacent objects of a chunk usually share long name prefixes
    (``obj-000123``, ``obj-000124``, ...), so names are front-coded —
    each entry stores only (shared-prefix length, suffix) relative to
    the previous name — before the whole chunk is pickled and deflated.
    The resulting length is what the byte-accounting metrics count.
    """
    coded: List[Tuple[int, str, Any, int]] = []
    prev = ""
    for obj, value, version in items:
        shared = 0
        limit = min(len(prev), len(obj))
        while shared < limit and prev[shared] == obj[shared]:
            shared += 1
        coded.append((shared, obj[shared:], value, version))
        prev = obj
    return zlib.compress(pickle.dumps(coded, protocol=pickle.HIGHEST_PROTOCOL))


def decode_batch_items(blob: bytes) -> Tuple[Tuple[str, Any, int], ...]:
    """Inverse of :func:`encode_batch_items`."""
    coded = pickle.loads(zlib.decompress(blob))
    items: List[Tuple[str, Any, int]] = []
    prev = ""
    for shared, suffix, value, version in coded:
        obj = prev[:shared] + suffix
        items.append((obj, value, version))
        prev = obj
    return tuple(items)


# ----------------------------------------------------------------------
# Wire messages of the transfer channel
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TransferOffer:
    session_id: str
    peer: str
    strategy: str
    sync_gid: int  # transfer covers transactions with gid <= sync_gid (eager)
    #: Session creation time at the peer (shared simulation clock).  The
    #: transfer channel is not FIFO under fault injection: a duplicated
    #: or reordered offer from a *superseded* session can arrive after a
    #: newer session already completed, and without an ordering key the
    #: joiner would tear down the fresh state for a peer that no longer
    #: answers.  Offers not newer than the current session are ignored.
    created_at: float = 0.0


@dataclass(frozen=True)
class TransferAccept:
    session_id: str
    cover_gid: int
    needs_full: bool  # new site without any database copy (section 4.3)
    #: Locally committed gids above the cover: under plain reliable
    #: delivery these may be phantoms (section 2.3) and must be checked
    #: against the peer's history before any data is installed.
    committed_above_cover: Tuple[int, ...] = ()
    #: Per-partition resume points ((partition, complete-through gid)):
    #: partitions a previous peer already shipped in lazy round 1.
    done_partitions: Tuple[Tuple[str, int], ...] = ()


@dataclass(frozen=True)
class PartitionComplete:
    """Lazy round 1 per data partition (section 4.7): the named partition
    is now complete at the joiner through ``boundary_gid``.  On peer
    fail-over the replacement "does not need to restart but simply
    continue the transfer for those partitions the joiner has not yet
    received"."""

    session_id: str
    partition: str
    boundary_gid: int


@dataclass(frozen=True)
class ReconcileNotice:
    """Peer -> joiner: these locally committed transactions never
    committed in the primary lineage; compensate them before installing
    the transferred state (section 2.3's reconciliation, ref [13])."""

    session_id: str
    phantom_gids: Tuple[int, ...]


@dataclass(frozen=True)
class ReconcileAck:
    """Joiner -> peer: compensation done, streaming may start."""

    session_id: str
    undone_writes: int


@dataclass(frozen=True)
class TransferBatch:
    session_id: str
    #: The items are the peer's committed state at this gid.
    boundary: int
    items: Tuple[Tuple[str, Any, int], ...]  # (object, value, version)
    payload_bytes: int
    #: Per-session monotone sequence number; lets the joiner recognise a
    #: retransmitted or duplicated batch (re-ack without re-counting) and
    #: the peer discard stale acks.
    seq: int = 0
    #: With ``transfer_compression`` the chunk travels as a front-coded,
    #: deflated blob instead of ``items`` (which is then empty), and
    #: ``payload_bytes`` counts the compressed size.
    blob: Optional[bytes] = None
    compressed: bool = False

    def decoded_items(self) -> Tuple[Tuple[str, Any, int], ...]:
        """The (object, value, version) triples, decompressing if needed."""
        if self.compressed:
            assert self.blob is not None
            return decode_batch_items(self.blob)
        return self.items


@dataclass(frozen=True)
class TransferBatchAck:
    session_id: str
    count: int
    seq: int = 0


@dataclass(frozen=True)
class TransferComplete:
    session_id: str
    baseline_gid: int  # the joiner's state now covers all gids <= baseline
    #: Sequence number of the last batch of the session.  The transfer
    #: channel does not guarantee FIFO under fault injection, so the
    #: completion notice could overtake the final batch; the joiner must
    #: not install the baseline before it has applied batches through
    #: this seq (0 = unknown, accept immediately).
    final_seq: int = 0
    #: Exactly-once outcome table rows whose deciding gid is at or below
    #: ``baseline_gid`` (``(client_id, seq, attempt, gid, committed)``).
    #: Outcomes above the baseline are excluded on purpose: the joiner
    #: replays those gids itself and must reach the same decisions.
    outcomes: Tuple[Tuple[str, int, int, int, bool], ...] = ()


@dataclass(frozen=True)
class TransferCompleteAck:
    """Joiner -> peer: the TransferComplete arrived.  Without this the
    peer cannot distinguish a lost completion notice from a slow joiner
    and would hold the session (and its locks) forever under a one-way
    link fault."""

    session_id: str


@dataclass(frozen=True)
class TransferSolicit:
    """Joiner -> prospective peer: my current transfer stalled (or no
    offer ever arrived); please start a session towards me.  This is the
    fail-over path that works *without* a view change — the stalled peer
    is still a group member, only its transfer channel is degraded."""

    joiner: str
    reason: str = "stall"


@dataclass(frozen=True)
class TransferDecline:
    """Addressee -> peer: I am ACTIVE and up to date, the transfer you
    offered is unnecessary.  Happens when a peer's view of the recipient's
    up-to-dateness lags (e.g. an announcement that was still in flight
    when the peer's flushed state was captured).  The peer must tear the
    session down *immediately* — sessions hold database locks from
    creation, and a session nobody will ever accept would otherwise pin
    those locks through the whole retransmission budget."""

    session_id: str
    joiner: str


@dataclass(frozen=True)
class CatchUpComplete:
    """Joiner -> peer: enqueued transactions replayed; under EVS the peer
    answers with the SubviewMerge that ends reconfiguration."""

    session_id: str
    joiner: str


# ----------------------------------------------------------------------
# Peer side
# ----------------------------------------------------------------------
class PeerTransferSession:
    """Peer-side transfer engine: captures, filters and ships the state
    the way its strategy row says, and owns what it captured."""

    # Offers retry quickly: the first one can race ahead of the view
    # change installation at the joiner and be dropped.
    OFFER_RETRY = 0.05
    #: Transfer hardening: an unacked point-to-point transfer message is
    #: retransmitted after ``ACK_TIMEOUT``, backing off by
    #: ``RETRY_BACKOFF`` per attempt; after ``MAX_RETRIES``
    #: retransmissions the session is declared stalled and fails over
    #: to another peer even without a view change.
    ACK_TIMEOUT = 0.25
    RETRY_BACKOFF = 2.0
    MAX_RETRIES = 6
    #: Modelled wire size of one object in an uncompressed batch.
    OBJECT_SIZE_BYTES = 256

    def __init__(
        self,
        node: ReplicatedDatabaseNode,
        joiner: str,
        strategy: Strategy,
        sync_gid: int,
        on_done: Optional[Callable[["PeerTransferSession"], None]] = None,
    ) -> None:
        self.node = node
        self.joiner = joiner
        self.strategy = strategy
        self.sync_gid = sync_gid
        #: What is queued now is the committed state at this gid (lazy: the round's).
        self.boundary = sync_gid
        self.on_done = on_done
        self.session_id = f"{node.site_id}->{joiner}@{node.sim.now:.6f}"
        self.owner = f"xfer:{self.session_id}"
        self.active = True
        self.accepted = False
        self.completed = False

        # Captured (object, value, version) triples in queueing order.
        self._outbox: Deque[Tuple[str, Any, int]] = deque()
        self._inflight: Optional[int] = None  # item count of the batch in flight
        self._finished_baseline: Optional[int] = None
        self._batch_cb: Optional[Callable[[], None]] = None
        self._pending_accept: Optional[TransferAccept] = None

        # The capture, all of it given back by _close(), exactly once.
        #: The gid the captured state is as of: the synchronization
        #: point; lazy: the delimiter's, once it is delivered.
        self._capture_gid: Optional[int] = None if strategy.lazy else sync_gid
        #: The joiner's state is complete through this gid: fixed from the
        #: start when every object ships, else known at the accept (lazy:
        #: advanced round by round).
        self._cover: Optional[int] = NO_COVER if strategy.filter is Filter.ALL else None
        self._begun = False  # the joiner accepted and reconciled
        self._db_ticket: Optional[int] = None
        self._db_granted = False
        self._capturing = False
        #: Locked objects not yet read into the outbox or let go.
        self._remaining = 0
        #: Object locks granted before the joiner's cover was known.
        self._granted_early: List[str] = []
        self._snapshot_limit: Optional[int] = None
        self._round = 1
        self._partitions: List[str] = []
        self._done_partitions: Dict[str, int] = {}
        self._closed = False

        # Retransmission state: every point-to-point message that expects
        # an answer is *tracked* — resent with exponential backoff until
        # acknowledged, and the session declared stalled after
        # ``MAX_RETRIES`` retransmissions (transfer hardening).
        self._tracked: Dict[str, Dict[str, Any]] = {}
        self._offer_attempts = 0
        self._batch_seq = 0
        self._last_acked_seq = 0
        self.started_at = node.sim.now

        # Every strategy finishes at a baseline at or above the sync gid:
        # keep the outcome table's rows down to it until the snapshot.
        self.db.outcomes.pin(self.owner, sync_gid)
        if not strategy.lazy:
            self._capture_at_sync_point()
        self._send_offer()

    # ------------------------------------------------------------------
    # Handshake
    # ------------------------------------------------------------------
    # How many offers go out at the fast OFFER_RETRY cadence before the
    # retry interval starts backing off exponentially.
    OFFER_FAST_ATTEMPTS = 5

    def _send_offer(self) -> None:
        if not self.active or self.accepted:
            return
        if self._offer_attempts >= self.OFFER_FAST_ATTEMPTS + self.MAX_RETRIES:
            self._fail_stalled("offer")
            return
        self._offer_attempts += 1
        self.node.send_transfer(
            self.joiner,
            TransferOffer(
                session_id=self.session_id,
                peer=self.node.site_id,
                strategy=self.strategy.name,
                sync_gid=self.sync_gid,
                created_at=self.started_at,
            ),
        )
        if self._offer_attempts <= self.OFFER_FAST_ATTEMPTS:
            delay = self.OFFER_RETRY
        else:
            # Constant cadence, no exponential growth: the offer is a
            # tiny idempotent handshake, and an exponentially backed-off
            # sender aliases against the heal windows of a flapping link
            # and can miss every single one — while the whole cluster
            # may be suspended waiting for exactly this transfer (a
            # creation companion).  The attempt budget still bounds it.
            delay = self.ACK_TIMEOUT
        self.node.proc.after(delay, self._send_offer)

    # ------------------------------------------------------------------
    # Tracked (acknowledged) control sends with retransmission
    # ------------------------------------------------------------------
    def send_tracked(self, kind: str, message: Any) -> None:
        """Send a message that expects an acknowledgement; retransmit
        with exponential backoff until :meth:`ack_tracked` is called for
        the same ``kind``, declaring the session stalled after
        ``MAX_RETRIES`` retransmissions."""
        self._tracked[kind] = {"msg": message, "attempts": 0, "event": None}
        self._transmit_tracked(kind)

    def _transmit_tracked(self, kind: str) -> None:
        entry = self._tracked.get(kind)
        if entry is None or not self.active:
            return
        if entry["attempts"] > self.MAX_RETRIES:
            self._fail_stalled(kind)
            return
        if entry["attempts"]:
            self.node.reconfig.transfer_retransmissions += 1
            self.node.trace(
                "fault", "xfer_retransmit",
                f"{kind} -> {self.joiner} attempt {entry['attempts'] + 1}",
            )
        self.node.send_transfer(self.joiner, entry["msg"])
        timeout = self.ACK_TIMEOUT * self.RETRY_BACKOFF ** entry["attempts"]
        entry["attempts"] += 1
        entry["event"] = self.node.proc.after(timeout, self._transmit_tracked, kind)

    def ack_tracked(self, kind: str) -> None:
        entry = self._tracked.pop(kind, None)
        if entry is not None and entry["event"] is not None:
            entry["event"].cancel()

    def _fail_stalled(self, kind: str) -> None:
        """Too many unanswered retransmissions: give up on this session
        so the manager can fail over to another peer (or the joiner can
        solicit one) without waiting for a view change."""
        if not self.active:
            return
        self.node.trace("fault", "xfer_stalled",
                        f"session -> {self.joiner} gave up on {kind}")
        self.cancel()
        self.node.reconfig.on_peer_session_stalled(self)

    def on_accept(self, accept: TransferAccept) -> None:
        if not self.active or self.accepted:
            return
        self.accepted = True
        # Reconciliation gate (section 2.3): before shipping any state,
        # tell the joiner which of its above-cover commits never made it
        # into the primary lineage, and wait until it compensated them —
        # otherwise the phantom versions could outrank transferred ones.
        phantoms = self.db.verify_committed(accept.committed_above_cover)
        if phantoms:
            self._pending_accept = accept
            self.send_tracked(
                "reconcile",
                ReconcileNotice(session_id=self.session_id, phantom_gids=phantoms),
            )
            return
        self._begin(accept)
        self._maybe_send_batch()

    def on_reconcile_ack(self, ack: "ReconcileAck") -> None:
        accept = self._pending_accept
        if not self.active or accept is None:
            return
        self.ack_tracked("reconcile")
        self._pending_accept = None
        self._begin(accept)
        self._maybe_send_batch()

    @property
    def db(self):
        return self.node.db

    # ------------------------------------------------------------------
    # Capture and filter (the strategy row)
    # ------------------------------------------------------------------
    def _capture_at_sync_point(self) -> None:
        """Eager strategies: take the capture right at the
        synchronization point (view change or SubviewSetMerge)."""
        capture = self.strategy.capture
        if capture is Capture.SNAPSHOT:
            self._snapshot_limit = self.sync_gid + 1
            self.db.begin_version_snapshot(self._snapshot_limit)
        elif capture is Capture.OBJECT_LOCKS:
            # One atomic step, store order; each grant is filtered as
            # soon as the cover is known.  With the cover known already
            # (full: every object ships), an object no writer holds or
            # waits for is read straight into the outbox: its read lock
            # would be granted and given back in this same step.
            store, locks = self.db.store, self.db.locks
            objects = list(store.objects())
            if self.strategy.filter is Filter.ALL:
                locked = []
                for obj in objects:
                    if locks.shared_grantable(obj):
                        self._outbox.append((obj, *store.read(obj)))
                    else:
                        locked.append(obj)
                objects = locked
            self._remaining = len(objects)
            for obj in objects:
                locks.request(self.owner, obj, LockMode.SHARED, self._on_object_grant)
        else:
            self._request_db_lock()

    def _begin(self, accept: TransferAccept) -> None:
        """The joiner accepted (and reconciled): its cover is known."""
        self._begun = True
        if self._cover is None:
            self._cover = effective_cover(accept)
        if self.strategy.lazy:
            self._done_partitions = dict(accept.done_partitions)
            self._start_round()
            return
        capture = self.strategy.capture
        if capture is Capture.OBJECT_LOCKS:
            early, self._granted_early = self._granted_early, []
            for obj in early:
                self._filter_object(obj)
            self._maybe_finish_scan()
        elif capture is Capture.SNAPSHOT:
            # Writers below the boundary may still be in their write
            # phase; the snapshot is complete once they have terminated.
            self.node.call_when_quiescent_below(self.sync_gid, self._capture)
        else:
            self._maybe_capture()

    def _on_object_grant(self, request) -> None:
        if not self.active:
            return
        if self._cover is None:
            self._granted_early.append(request.resource)
            return
        self._filter_object(request.resource)

    def _filter_object(self, obj: str) -> None:
        """Section 4.4: ship the object if its version is above the
        cover, else "ignore X and release the lock immediately"."""
        value, version = self.db.store.read(obj)
        if version > self._cover:
            self.queue_item(obj, value, version)
        else:
            self.db.locks.release(self.owner, obj)
        self._remaining -= 1
        if self._remaining == 0:
            self._maybe_finish_scan()

    def _maybe_finish_scan(self) -> None:
        if self.accepted and self._remaining == 0:
            self._finish()

    def _request_db_lock(self) -> None:
        request = self.db.locks.request(
            self.owner, DB_RESOURCE, LockMode.SHARED, self._on_db_grant
        )
        self._db_ticket = request.ticket

    def _on_db_grant(self, request) -> None:
        self._db_granted = True
        self._db_ticket = request.ticket
        self._maybe_capture()

    def _maybe_capture(self) -> None:
        if self._db_granted and self._begun and not self._capturing:
            self._capturing = True
            self.node.call_when_quiescent_below(self._capture_gid, self._capture)

    def _capture(self) -> None:
        """Every transaction at or below the capture gid has terminated:
        read the state as of it."""
        if not self.active:
            return
        if self.strategy.capture is Capture.DOWNGRADE:
            self.boundary = self._capture_gid
            self._downgrade(changed_objects(self.db, self._cover))
            return
        if self.strategy.capture is Capture.SNAPSHOT:
            items = sorted(self.db.read_as_of(self._snapshot_limit).items())
        else:
            # The database lock stays held until the session closes:
            # exactly the suspension section 4.1's baseline exhibits.
            store = self.db.store
            items = ((obj, store.read(obj)) for obj in store.objects())
        for obj, (value, version) in items:
            if version > self._cover:
                self.queue_item(obj, value, version)
        self._finish()

    def _downgrade(self, objects: List[str]) -> None:
        """Section 4.5: object read locks inherit the database lock's
        queue position, then the database lock is released."""
        self._remaining = len(objects)
        for obj in objects:
            self.db.locks.request(self.owner, obj, LockMode.SHARED,
                                  self._on_downgraded_grant, inherit_ticket=self._db_ticket)
        self.db.locks.release(self.owner, DB_RESOURCE)
        if not objects:
            self._finish()

    def _on_downgraded_grant(self, request) -> None:
        if not self.active:
            return
        obj = request.resource
        self.queue_item(obj, *self.db.store.read(obj))
        self._remaining -= 1
        if self._remaining == 0:
            self._finish()

    # ------------------------------------------------------------------
    # Lazy rounds (section 4.7)
    # ------------------------------------------------------------------
    # The joiner discards transaction messages while rounds ship the
    # objects updated during the previous one, under no lock.  The last
    # round (the residual set is small or the round budget spent) starts
    # with the delimiter transaction, multicast in the total order.  Where
    # it is delivered, at gseq d, the peer requests the database read lock
    # for the capture above, with baseline d, and the joiner starts
    # enqueueing: one ordered point, as the view change is for the eager
    # strategies.  Round 1 may go partition by partition; the joiner keeps
    # the completed partitions, so a replacement peer skips them.
    def _start_round(self) -> None:
        if not self.active:
            return
        g0 = self.node.last_processed_gid
        self.node.call_when_quiescent_below(g0, lambda: self._run_round(g0))

    def _run_round(self, g0: int) -> None:
        if not self.active:
            return
        config = self.node.config
        self.boundary = g0
        if self._round == 1 and config.partition_count > 0:
            # The first round goes partition by partition, with
            # per-partition completion markers for fail-over resume.
            self._partitions = partition_names(config.partition_count)
            self._next_partition(g0)
            return
        objects = changed_objects(self.db, self._cover)
        # Termination checks I and II: enter the last round when the
        # residual set is small enough or the round budget is spent
        # (in round 1: when nothing changed since the cover).
        if (not objects if self._round == 1
                else (len(objects) <= config.lazy_round_threshold
                      or self._round >= config.lazy_max_rounds)):
            self.node._multicast(LastRoundDelimiter(session_id=self.session_id))
            return
        self._queue_committed(objects, g0)
        self._cover = g0
        self._round += 1
        self._call_on_outbox_drained(self._start_round)

    def _queue_committed(self, objects: List[str], g0: int) -> None:
        # "Read committed", no held lock.  Every writer at or below g0
        # has terminated, so a last committed version at or below g0 is
        # the object as of g0; one written since waits for the next
        # round, which ships it anyway.
        for obj in objects:
            value, version = self.db.read_committed(obj)
            if version <= g0:
                self.queue_item(obj, value, version)

    def _next_partition(self, g0: int) -> None:
        if not self.active:
            return
        if not self._partitions:
            self._cover = g0
            self._round = 2
            self._start_round()
            return
        partition = self._partitions.pop(0)
        count = self.node.config.partition_count
        cover = max(self._cover, self._done_partitions.get(partition, NO_COVER))
        self._queue_committed([obj for obj in changed_objects(self.db, cover)
                               if partition_of(obj, count) == partition], g0)

        def partition_done() -> None:
            self.node.send_transfer(self.joiner, PartitionComplete(
                session_id=self.session_id, partition=partition, boundary_gid=g0))
            self._next_partition(g0)

        self._call_on_outbox_drained(partition_done)

    def on_delimiter(self, gid: int) -> None:
        """The delimiter was delivered here at ``gid``: capture as of it,
        under the database lock requested in this same ordered step."""
        self._capture_gid = gid
        self._request_db_lock()

    # ------------------------------------------------------------------
    # Outbox
    # ------------------------------------------------------------------
    def queue_item(self, obj: str, value: Any, version: int) -> None:
        """Queue one object's captured ``(value, version)`` and hand back
        the session's read lock on it, if any: the copy is what ships,
        retransmissions included (DESIGN.md "Transfer order").  An object
        is queued at most once between two drains of the outbox."""
        if not self.active:
            return
        self._outbox.append((obj, value, version))
        self._maybe_send_batch()
        self.db.locks.release(self.owner, obj)

    def _finish(self) -> None:
        """Everything is queued: complete at the capture gid once the
        outbox drains."""
        self._finished_baseline = self._capture_gid
        self._maybe_send_batch()

    def _call_on_outbox_drained(self, callback: Callable[[], None]) -> None:
        """Lazy transfer: run ``callback`` when the current round's items
        have all been sent and acknowledged."""
        self._batch_cb = callback
        self._maybe_send_batch()

    # ------------------------------------------------------------------
    # Batching engine (single in-flight batch, per-object marshalling cost)
    # ------------------------------------------------------------------
    def _maybe_send_batch(self) -> None:
        if not self.active or not self.accepted or self._inflight is not None:
            return
        outbox = self._outbox
        if outbox:
            size = min(len(outbox), self.node.config.transfer_batch_size)
            items = tuple([outbox.popleft() for _ in range(size)])
            self._inflight = size
            delay = size * self.node.config.transfer_obj_time
            self.node.proc.after(delay, self._transmit_batch, items)
            return
        # Outbox empty and nothing in flight.
        if self._batch_cb is not None:
            callback, self._batch_cb = self._batch_cb, None
            callback()
            return
        if self._finished_baseline is not None and not self.completed:
            self._complete()

    def _transmit_batch(self, items: Tuple[Tuple[str, Any, int], ...]) -> None:
        if not self.active:
            return
        blob: Optional[bytes] = None
        compressed = False
        if self.node.config.transfer_compression:
            blob = encode_batch_items(items)
            compressed = True
            payload_bytes = len(blob)
            wire_items: Tuple[Tuple[str, Any, int], ...] = ()
        else:
            payload_bytes = len(items) * self.OBJECT_SIZE_BYTES
            wire_items = items
        self._batch_seq += 1
        manager = self.node.reconfig
        manager.objects_sent_total += len(items)
        manager.bytes_sent_total += payload_bytes
        self.send_tracked(
            "batch",
            TransferBatch(
                session_id=self.session_id,
                items=wire_items,
                payload_bytes=payload_bytes,
                boundary=self.boundary,
                seq=self._batch_seq,
                blob=blob,
                compressed=compressed,
            ),
        )

    def on_batch_ack(self, ack: TransferBatchAck) -> None:
        if not self.active or self._inflight is None:
            return
        if ack.seq:
            if ack.seq != self._batch_seq:
                return  # stale ack of an earlier (retransmitted) batch
            if ack.seq <= self._last_acked_seq:
                # Duplicated ack of the current batch: the first copy
                # already advanced the engine (the next transmission may
                # still be sitting in its marshalling delay, so
                # _batch_seq alone cannot tell the copies apart).
                return
            self._last_acked_seq = ack.seq
        self.ack_tracked("batch")
        self._inflight = None
        self._maybe_send_batch()

    def on_complete_ack(self, ack: TransferCompleteAck) -> None:
        self.ack_tracked("complete")

    def on_catch_up_complete(self, msg: CatchUpComplete) -> None:
        self.ack_tracked("complete")
        if self.on_done is not None:
            self.on_done(self)

    # ------------------------------------------------------------------
    def _close(self) -> None:
        """Give back the capture and the outcome pin, exactly once: a
        completed session stays active until the joiner acknowledges the
        completion, and a cancel may still follow."""
        if self._closed:
            return
        self._closed = True
        # cancel(), not release(): a session torn down while one of its
        # lock requests is still queued (e.g. the joiner died before
        # accepting and the database lock was contended) must also drop
        # that waiting request — otherwise it is granted to the dead
        # session later and the database lock is held forever, freezing
        # every writer on this site.
        self.db.locks.cancel(self.owner)
        if self._snapshot_limit is not None:
            self.db.end_version_snapshot(self._snapshot_limit)
        self.db.outcomes.unpin(self.owner)

    def _complete(self) -> None:
        self.completed = True
        # Unpinned before the outcome snapshot below: the pin only holds
        # back a checkpoint's collapse, and none runs in between.
        self._close()
        self.send_tracked(
            "complete",
            TransferComplete(session_id=self.session_id,
                             baseline_gid=self._finished_baseline,
                             final_seq=self._batch_seq,
                             outcomes=self.db.outcomes.snapshot_through(
                                 self._finished_baseline)),
        )

    def cancel(self) -> None:
        """Stop the session (joiner left, peer stalled, superseded)."""
        if not self.active:
            return
        self.active = False
        for entry in self._tracked.values():
            if entry["event"] is not None:
                entry["event"].cancel()
        self._tracked.clear()
        self._close()


# ----------------------------------------------------------------------
# Joiner side
# ----------------------------------------------------------------------
class JoinerTransferSession:
    """Joiner-side transfer state: installs batches, records the baseline."""

    def __init__(self, node: ReplicatedDatabaseNode, offer: TransferOffer) -> None:
        self.node = node
        self.session_id = offer.session_id
        self.peer = offer.peer
        self.sync_gid = offer.sync_gid
        self.offer_time = offer.created_at
        self.active = True
        self.complete = False
        self.baseline_gid: Optional[int] = None
        self._last_batch_seq = 0
        #: EVS: this session's own CatchUpComplete signal is out.
        self.catch_up_sent = False

    def accept(self) -> None:
        needs_full = len(self.node.db.store) == 0
        cover = self.node.db.cover_gid()
        # Phantom candidates exist only under plain reliable delivery
        # (section 2.3): with uniform (safe) delivery a site can never
        # have committed something the primary lineage lacks.  Suspects
        # are the commits above the last provably synchronized point
        # (the baseline) — the cover itself may be poisoned by phantoms.
        if self.node.member.config.uniform:
            suspects: Tuple[int, ...] = ()
        else:
            suspects = self.node.db.committed_gids_above(self.node.db.baseline_gid)
        self.node.send_transfer(
            self.peer,
            TransferAccept(
                session_id=self.session_id,
                cover_gid=cover,
                needs_full=needs_full,
                committed_above_cover=suspects,
                done_partitions=tuple(sorted(
                    self.node.reconfig.done_partitions.items())),
            ),
        )

    def on_partition_complete(self, msg: PartitionComplete) -> None:
        if self.active:
            self.node.reconfig.note_partition_complete(msg.partition, msg.boundary_gid)

    def on_reconcile_notice(self, notice: ReconcileNotice) -> None:
        if not self.active:
            return
        undone = self.node.db.reconcile_phantoms(notice.phantom_gids)
        self.node.send_transfer(
            self.peer,
            ReconcileAck(session_id=self.session_id, undone_writes=undone),
        )

    def on_batch(self, batch: TransferBatch) -> None:
        if not self.active:
            return
        items = batch.decoded_items()
        duplicate = bool(batch.seq) and batch.seq <= self._last_batch_seq
        if not duplicate:
            # Installing is idempotent anyway (the store keeps the newest
            # version), but the seq guard keeps counters honest under
            # duplication/retransmission.
            self._last_batch_seq = max(self._last_batch_seq, batch.seq)
            self.node.db.store.apply(items)
            if self.node.on_transfer_install is not None:
                self.node.on_transfer_install(self.node.site_id, batch.boundary, items)
            # Transferred versions bypass the commit path, so register
            # them in the RecTable here — otherwise this site, acting as
            # peer for a *later* joiner, would silently omit objects it
            # only ever received via transfer (its RecTable rebuild at
            # recovery predates them).
            for obj, _value, version in items:
                if version >= 0:
                    self.node.db.rectable.register(obj, version)
            manager = self.node.reconfig
            manager.objects_received_total += len(items)
            manager.bytes_received_total += batch.payload_bytes
        # Always (re-)ack — the previous ack may have been lost.
        self.node.send_transfer(
            self.peer,
            TransferBatchAck(
                session_id=self.session_id, count=len(items), seq=batch.seq
            ),
        )

    def on_complete(self, msg: TransferComplete) -> None:
        if not self.active:
            return
        self.complete = True
        self.baseline_gid = msg.baseline_gid

    def cancel(self) -> None:
        self.active = False
