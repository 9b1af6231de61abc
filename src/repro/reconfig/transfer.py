"""The peer <-> joiner data transfer channel and sessions.

The transfer runs point-to-point outside the group communication system
(section 4.2: "the data transfer need not occur through the group
communication platform but could, e.g., be performed via TCP"), on a
dedicated network endpoint per site.

A :class:`PeerTransferSession` lives at the peer; the concrete
:class:`repro.reconfig.strategies.TransferStrategy` decides *what* to
send and under which locks, while the session provides the shared
machinery: offer/accept handshake, batching with a single in-flight
batch, per-object marshalling cost and completion signalling.

A :class:`JoinerTransferSession` lives at the joining site; it installs
incoming batches, tracks lazy-transfer resume points for peer fail-over,
and replays the enqueued transaction messages once the transfer
completes (the synchronization-point rule of section 4.2/4.7).
"""

from __future__ import annotations

import pickle
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.db.locks import LockMode
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
    resume_through: int  # lazy fail-over: data already held up to this gid
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
    round_boundary: Optional[int] = None  # lazy: state complete through this gid
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
class LastRoundStart:
    """Lazy transfer: the peer announces the final round; the joiner must
    start enqueueing and report the last gid it saw-and-discarded."""

    session_id: str


@dataclass(frozen=True)
class LastRoundReady:
    session_id: str
    last_discarded_gid: int


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
    """Peer-side transfer engine, driven by a strategy."""

    # Offers retry quickly: the first one can race ahead of the view
    # change installation at the joiner and be dropped.
    OFFER_RETRY = 0.05

    def __init__(
        self,
        node: ReplicatedDatabaseNode,
        joiner: str,
        strategy,
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
        self._round_boundary: Optional[int] = None
        self._batch_cb: Optional[Callable[[], None]] = None
        self._pending_accept: Optional[TransferAccept] = None

        # Retransmission state: every point-to-point message that expects
        # an answer is *tracked* — resent with exponential backoff until
        # acknowledged, and the session declared stalled after
        # ``transfer_max_retries`` retransmissions (transfer hardening).
        self._tracked: Dict[str, Dict[str, Any]] = {}
        self._offer_attempts = 0
        self._batch_seq = 0
        self._last_acked_seq = 0
        self.retransmissions = 0
        self.stalled = False

        self.objects_sent = 0
        self.bytes_sent = 0
        self.started_at = node.sim.now
        self.finished_at: Optional[float] = None

        # Strategies may grab locks / snapshots synchronously right here,
        # at the synchronization point (view change or SubviewSetMerge).
        self.strategy.on_session_created(self)
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
        config = self.node.config
        if self._offer_attempts >= self.OFFER_FAST_ATTEMPTS + config.transfer_max_retries:
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
            delay = config.transfer_ack_timeout
        self.node.proc.after(delay, self._send_offer)

    # ------------------------------------------------------------------
    # Tracked (acknowledged) control sends with retransmission
    # ------------------------------------------------------------------
    def send_tracked(self, kind: str, message: Any) -> None:
        """Send a message that expects an acknowledgement; retransmit
        with exponential backoff until :meth:`ack_tracked` is called for
        the same ``kind``, declaring the session stalled after
        ``transfer_max_retries`` retransmissions."""
        self._tracked[kind] = {"msg": message, "attempts": 0, "event": None}
        self._transmit_tracked(kind)

    def _transmit_tracked(self, kind: str) -> None:
        entry = self._tracked.get(kind)
        if entry is None or not self.active:
            return
        config = self.node.config
        if entry["attempts"] > config.transfer_max_retries:
            self._fail_stalled(kind)
            return
        if entry["attempts"]:
            self.retransmissions += 1
            self.node.reconfig.transfer_retransmissions += 1
            self.node.trace(
                "fault", "xfer_retransmit",
                f"{kind} -> {self.joiner} attempt {entry['attempts'] + 1}",
            )
        self.node.send_transfer(self.joiner, entry["msg"])
        timeout = config.transfer_ack_timeout * (
            config.transfer_retry_backoff ** entry["attempts"]
        )
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
        self.stalled = True
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
        self.strategy.begin(self, accept)
        self._maybe_send_batch()

    def on_reconcile_ack(self, ack: "ReconcileAck") -> None:
        accept = self._pending_accept
        if not self.active or accept is None:
            return
        self.ack_tracked("reconcile")
        self._pending_accept = None
        self.strategy.begin(self, accept)
        self._maybe_send_batch()

    # ------------------------------------------------------------------
    # Strategy-facing helpers
    # ------------------------------------------------------------------
    @property
    def db(self):
        return self.node.db

    def request_read_lock(self, obj: str, on_grant) -> None:
        self.db.locks.request(self.owner, obj, LockMode.SHARED, on_grant)

    def release_lock(self, obj: str) -> None:
        self.db.locks.release(self.owner, obj)

    def release_all_locks(self) -> None:
        # cancel(), not release(): a session torn down while one of its
        # lock requests is still queued (e.g. the joiner died before
        # accepting and the database lock was contended) must also drop
        # that waiting request — otherwise it is granted to the dead
        # session later and the database lock is held forever, freezing
        # every writer on this site.
        self.db.locks.cancel(self.owner)

    def queue_item(self, obj: str, value: Any, version: int) -> None:
        """Queue one object's captured ``(value, version)`` and hand back
        the session's read lock on it, if any: the copy is what ships,
        retransmissions included (DESIGN.md "Transfer order").  An object
        is queued at most once between two drains of the outbox."""
        if not self.active:
            return
        self._outbox.append((obj, value, version))
        self._maybe_send_batch()
        self.release_lock(obj)

    def announce_partition_complete(self, partition: str, boundary_gid: int) -> None:
        """Lazy round 1: tell the joiner this partition is complete."""
        self.node.send_transfer(
            self.joiner,
            PartitionComplete(
                session_id=self.session_id, partition=partition, boundary_gid=boundary_gid
            ),
        )

    def set_round_boundary(self, gid: int) -> None:
        """Lazy transfer: the current round brings the joiner's state up
        to ``gid``; piggybacked on the round's last batch for fail-over."""
        self._round_boundary = gid

    def finish(self, baseline_gid: int) -> None:
        """Strategy is done queueing; complete once the outbox drains."""
        self._finished_baseline = baseline_gid
        self._maybe_send_batch()

    def call_on_outbox_drained(self, callback: Callable[[], None]) -> None:
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
            payload_bytes = len(items) * self.node.config.object_size_bytes
            wire_items = items
        round_boundary = None
        if self._round_boundary is not None and not self._outbox:
            round_boundary = self._round_boundary
        self._batch_seq += 1
        self.objects_sent += len(items)
        self.bytes_sent += payload_bytes
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
                round_boundary=round_boundary,
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

    def on_last_round_ready(self, msg: LastRoundReady) -> None:
        if self.active:
            self.ack_tracked("last_round")
            self.strategy.on_last_round_ready(self, msg)

    def on_complete_ack(self, ack: TransferCompleteAck) -> None:
        self.ack_tracked("complete")

    def on_catch_up_complete(self, msg: CatchUpComplete) -> None:
        self.ack_tracked("complete")
        if self.on_done is not None:
            self.on_done(self)

    # ------------------------------------------------------------------
    def _complete(self) -> None:
        self.completed = True
        self.finished_at = self.node.sim.now
        self.release_all_locks()
        self.strategy.on_session_closed(self)
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
        self.release_all_locks()
        self.strategy.on_session_closed(self)


# ----------------------------------------------------------------------
# Joiner side
# ----------------------------------------------------------------------
class JoinerTransferSession:
    """Joiner-side transfer state: installs batches, tracks resume info."""

    def __init__(self, node: ReplicatedDatabaseNode, offer: TransferOffer,
                 resume_through: int,
                 done_partitions: Optional[Dict[str, int]] = None) -> None:
        self.node = node
        self.session_id = offer.session_id
        self.peer = offer.peer
        self.strategy_name = offer.strategy
        self.sync_gid = offer.sync_gid
        self.offer_time = offer.created_at
        self.resume_through = resume_through
        self.done_partitions: Dict[str, int] = dict(done_partitions or {})
        self.active = True
        self.complete = False
        self.baseline_gid: Optional[int] = None
        self.objects_received = 0
        self.bytes_received = 0
        self._last_batch_seq = 0

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
                resume_through=self.resume_through,
                needs_full=needs_full,
                committed_above_cover=suspects,
                done_partitions=tuple(sorted(self.done_partitions.items())),
            ),
        )

    def on_partition_complete(self, msg: PartitionComplete) -> None:
        if not self.active:
            return
        current = self.done_partitions.get(msg.partition, -(2**60))
        self.done_partitions[msg.partition] = max(current, msg.boundary_gid)
        self.node.reconfig.note_partition_complete(
            msg.partition, self.done_partitions[msg.partition])

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
            self.objects_received += len(items)
            self.bytes_received += batch.payload_bytes
            manager = self.node.reconfig
            manager.objects_received_total += len(items)
            manager.bytes_received_total += batch.payload_bytes
            if batch.round_boundary is not None:
                self.resume_through = max(self.resume_through, batch.round_boundary)
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
        self.resume_through = max(self.resume_through, msg.baseline_gid)

    def cancel(self) -> None:
        self.active = False
