"""Uniform total-order multicast within a view (fixed sequencer).

Protocol (per view):

1. The *sequencer* is the lexicographically smallest view member.
2. A member multicasts by unicasting ``Data`` to the sequencer, which
   assigns the next view sequence number and the next *global* sequence
   number (gseq), and multicasts ``Ordered`` to every member.
3. Every member, upon holding ``Ordered`` s, broadcasts a cumulative
   ``Ack`` (highest gap-free sequence it holds).
4. A message is **delivered** in sequence order once the view's
   *delivery quorum* has acknowledged it (safe / uniform delivery): in a
   primary view of a quorum-delivering member, q = ⌊n/2⌋ + 1 of the n
   members; everywhere else — non-primary views, the EVS layer — all n.
   The horizon is the q-th highest cumulative ack.  This is what makes
   the multicast uniform in the sense of the paper's section 2.1:
   anything delivered by any member — including one that crashes or
   walks into a minority partition right after — is held by q members,
   and every later primary view either counts one of them among the
   members it flushes directly out of this view (n − q + 1 of those meet
   every q-set) or marks all its members stale
   (:mod:`repro.gcs.membership`), so the flush hands it to every survivor
   that is treated as up to date.  A crashed member therefore stalls no
   delivery in a primary view.

With ``uniform=False`` step 4 degrades to plain in-order delivery upon
receipt, which is the setting used by the atomicity ablation (E9c).

Liveness of the ack horizon: a member that has delivered everything it
holds never re-acks on its own, so a member whose held messages wait a
whole maintenance period on the same horizon solicits the cumulative
acks of the members below it (``AckSolicit``) — one lost ``Ack`` would
otherwise strand it for as long as the view lasts.

Global sequence numbers: each ``Ordered`` carries ``gseq``; the view's
``base_gseq`` is agreed during the view change (max of the participants'
counters), so gseq values are monotone across consecutive views and all
members of a view agree on the gseq of every message.  The replica
control layer uses gseq directly as the transaction global identifier.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.gcs.messages import Ack, AckSolicit, Data, Nak, Ordered, OrderedBatch
from repro.gcs.view import View

DeliverFn = Callable[[Ordered], None]
SendFn = Callable[[str, object], None]
SendManyFn = Callable[[Tuple[str, ...], object], None]
DeferFn = Callable[[Callable[[], None]], object]
StrayFn = Callable[[object], None]


class ViewTotalOrder:
    """Per-view total order state machine for one member.

    A fresh instance is created at every view installation; the old one
    is discarded after its flush cut has been extracted.

    When ``defer`` is given and ``batch`` is True, the sequencer ships
    the Ordered messages produced within one delivery round (one
    simulator tick) as a single :class:`OrderedBatch` per member — same
    arrival times, far fewer wire messages.  The (mutable) batch goes on
    the wire when the round's first message is sequenced, reserving that
    message's delivery slot so same-time event ordering at the receivers
    matches unbatched mode exactly; it is sealed by the deferred
    end-of-tick flush, before any delivery can fire.  Local
    self-delivery stays immediate, so the sequencer's own protocol state
    is identical either way.

    ``quorum`` is the number of members whose acks make a message
    deliverable (step 4); None means every member.

    ``stray`` receives every ``Ordered``, ``OrderedBatch`` and ``Ack``
    this instance turns away — stamped with another view, or arriving
    while it is closed — so the member can keep those of the view it is
    about to install; None drops them.
    """

    def __init__(
        self,
        view: View,
        me: str,
        base_gseq: int,
        send: SendFn,
        deliver: DeliverFn,
        uniform: bool = True,
        defer: Optional[DeferFn] = None,
        batch: bool = False,
        send_many: Optional[SendManyFn] = None,
        quorum: Optional[int] = None,
        stray: Optional[StrayFn] = None,
    ) -> None:
        self.view = view
        self.me = me
        self.base_gseq = base_gseq
        self._send = send
        self._deliver = deliver
        self.uniform = uniform
        self.quorum = len(view.members) if quorum is None else quorum
        self.sequencer = min(view.members)
        self.closed = False
        self._stray = stray if stray is not None else (lambda msg: None)
        #: Every member but this one, in view order — the broadcast fan-out.
        self._others: Tuple[str, ...] = tuple(m for m in view.members if m != me)
        if send_many is None:
            def send_many(dsts: Tuple[str, ...], payload: object) -> None:
                for dst in dsts:
                    send(dst, payload)
        self._send_many = send_many

        # Sequencer-side state.
        self._next_seq = 0
        self._sequenced_msg_ids: set = set()
        self._history: Dict[int, Ordered] = {}
        self._defer = defer
        self._batch = batch and defer is not None
        self._stage: List[Ordered] = []
        #: The in-flight mutable batch of the current round (already on
        #: the wire, sealed by :meth:`flush_staged`); None between rounds.
        self._open_batch: Optional[OrderedBatch] = None
        self._flush_scheduled = False
        self._ack_deferred = False
        self.batches_sent = 0

        # Receiver-side state.
        self.received: Dict[int, Ordered] = {}
        self.recv_highwater = -1  # highest gap-free seq held
        self.delivered_seq = -1  # highest seq delivered to the app
        self.ack_high: Dict[str, int] = {m: -1 for m in view.members}
        #: The delivery horizon: the quorum-th highest of ack_high.
        #: ack_high entries only ever increase (in
        #: :meth:`on_ack`), so it is maintained incrementally instead of
        #: recomputed per ack.
        self._horizon = -1
        #: delivered_seq at the last maintenance period that found held
        #: messages undeliverable (None: nothing was waiting).
        self._stuck_at: Optional[int] = None

    # ------------------------------------------------------------------
    # Sequencer side
    # ------------------------------------------------------------------
    def on_data(self, msg: Data) -> None:
        """Sequencer: assign the next (seq, gseq) and multicast Ordered."""
        if self.closed or self.me != self.sequencer:
            return
        key = (msg.sender, msg.msg_id)
        if key in self._sequenced_msg_ids:
            return  # duplicate (sender retransmission)
        self._sequenced_msg_ids.add(key)
        seq = self._next_seq
        self._next_seq += 1
        ordered = Ordered(
            view_id=self.view.view_id,
            seq=seq,
            gseq=self.base_gseq + seq,
            sender=msg.sender,
            msg_id=msg.msg_id,
            payload=msg.payload,
        )
        self._history[seq] = ordered
        if self._batch:
            # Stage the remote sends; deliver to self immediately so the
            # sequencer's own ack/highwater state matches unbatched mode.
            self._stage.append(ordered)
            if self._open_batch is None:
                # Ship the (still empty) batch now, at the wire slot the
                # first per-message send would have occupied: delivery
                # events fire in insertion order at equal virtual times,
                # so sending only at end of tick would let same-time
                # timers scheduled mid-tick overtake the delivery and
                # observably reorder events relative to unbatched mode.
                # The seal (the deferred flush) runs before any delivery
                # of this tick's sends can fire.
                self._flush_scheduled = True
                self._defer(self.flush_staged)
                self._open_batch = OrderedBatch(view_id=self.view.view_id, items=())
                self._send_many(self._others, self._open_batch)
            self.on_ordered(ordered)
            return
        for member in self.view.members:
            if member == self.me:
                self.on_ordered(ordered)
            else:
                self._send(member, ordered)

    def flush_staged(self) -> None:
        """Seal the in-flight OrderedBatch of the current delivery round
        (it is already on the wire, see :meth:`on_data`).  Called at
        end-of-tick by the deferred flush, and synchronously when the
        view freezes for a membership round so nothing stays staged
        across a view change."""
        self._flush_scheduled = False
        ack_high = self.recv_highwater if self._ack_deferred else -1
        self._ack_deferred = False
        batch = self._open_batch
        if batch is not None:
            self._open_batch = None
            batch.items = tuple(self._stage)
            batch.ack_high = ack_high
            self._stage.clear()
            self.batches_sent += 1
            return
        if ack_high >= 0:
            ack = Ack(sender=self.me, view_id=self.view.view_id, highwater=ack_high)
            self._send_many(self._others, ack)

    def on_nak(self, msg: Nak) -> None:
        """Sequencer: retransmit the requested sequence numbers."""
        if self.me != self.sequencer:
            return
        for seq in msg.missing:
            ordered = self._history.get(seq)
            if ordered is not None:
                self._send(msg.sender, ordered)

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def on_ordered(self, msg: Ordered) -> None:
        if msg.view_id != self.view.view_id:
            self._stray(msg)
            return
        if msg.seq in self.received:
            return
        # Record even while closed (frozen for a membership round): the
        # message becomes part of the flush cut, and if the round aborts
        # and this view resumes, a discarded top-seq message would leave
        # no gap below it — nothing would ever NAK it back.
        self.received[msg.seq] = msg
        advanced = False
        while self.recv_highwater + 1 in self.received:
            self.recv_highwater += 1
            advanced = True
        if self.closed:
            return
        if advanced:
            self._broadcast_ack()
        self._maybe_deliver()

    def on_ordered_batch(self, batch: OrderedBatch) -> None:
        """Receive a coalesced round of Ordered messages.

        Record them all, then send a *single* cumulative ack: the acks
        the per-message path would emit for each item of the batch all
        travel at the same tick and are subsumed by the final (highest)
        one, so skipping the intermediates changes no receiver state at
        any virtual time.  A piggybacked sequencer ack is applied last,
        in the position its separate wire message would have had."""
        vid = batch.view_id
        if vid is not self.view.view_id and vid != self.view.view_id:
            self._stray(batch)
            return
        advanced = False
        for msg in batch.items:
            if msg.seq in self.received:
                continue
            self.received[msg.seq] = msg
            while self.recv_highwater + 1 in self.received:
                self.recv_highwater += 1
                advanced = True
        if self.closed:
            return
        if advanced:
            self._broadcast_ack()
        self._maybe_deliver()
        if batch.ack_high >= 0:
            self.on_ack(Ack(sender=self.sequencer, view_id=batch.view_id,
                            highwater=batch.ack_high))

    def on_ack(self, msg: Ack) -> None:
        if self.closed:
            self._stray(msg)
            return
        vid = msg.view_id
        # Identity check first: in-process, every message of this view
        # carries the very ViewId instance the Sync installed, so the
        # dataclass comparison only runs for cross-view stragglers.
        if vid is not self.view.view_id and vid != self.view.view_id:
            self._stray(msg)
            return
        prev = self.ack_high.get(msg.sender)
        if prev is None or msg.highwater <= prev:
            return
        self.ack_high[msg.sender] = msg.highwater
        if prev <= self._horizon:
            # The sender crossed the delivery horizon, so it may have been
            # one of the acks the horizon waited for: recompute, and only
            # then can a delivery become possible.  (A sender already
            # above the horizon moves no order statistic below it.)
            horizon = sorted(self.ack_high.values())[-self.quorum]
            if horizon != self._horizon:
                self._horizon = horizon
                self._maybe_deliver()
        elif not self.uniform:
            self._maybe_deliver()

    def on_ack_solicit(self, msg: AckSolicit) -> None:
        """A member stuck on the ack horizon asks for our cumulative ack
        (see :meth:`maintenance`)."""
        if self.closed or msg.view_id != self.view.view_id:
            return
        self._send(msg.sender, Ack(sender=self.me, view_id=self.view.view_id,
                                   highwater=self.recv_highwater))

    def _broadcast_ack(self) -> None:
        ack = Ack(sender=self.me, view_id=self.view.view_id, highwater=self.recv_highwater)
        self.on_ack(ack)
        if self._flush_scheduled:
            # The sequencer mid-round: the staged flush fires at this
            # same tick and ships one cumulative ack subsuming this one.
            self._ack_deferred = True
            return
        self._send_many(self._others, ack)

    @property
    def stable_seq(self) -> int:
        """The delivery horizon: the highest seq the view's delivery
        quorum has acknowledged (what the flush may cut a trimmed union
        at)."""
        return self._horizon

    def _maybe_deliver(self) -> None:
        limit = self._horizon if self.uniform else self.recv_highwater
        while not self.closed and self.delivered_seq + 1 <= limit:
            nxt = self.received.get(self.delivered_seq + 1)
            if nxt is None:
                break
            self.delivered_seq += 1
            self._deliver(nxt)

    # ------------------------------------------------------------------
    # Maintenance (loss recovery) and flush support
    # ------------------------------------------------------------------
    def gaps(self) -> Tuple[int, ...]:
        """Missing sequence numbers below the highest received one."""
        if not self.received:
            return ()
        top = max(self.received)
        return tuple(s for s in range(self.recv_highwater + 1, top) if s not in self.received)

    #: How many Ordered messages the sequencer pushes per laggard per
    #: maintenance tick.  Keeps a recovering member from being flooded.
    RETRANSMIT_WINDOW = 16

    def maintenance(self) -> None:
        """Periodic loss recovery: NAK gaps, re-ACK while undelivered,
        and sequencer-driven retransmission to lagging members.

        The sequencer push matters for the *top* of the sequence: a
        member that missed the highest Ordered sees no gap and never
        NAKs, yet its cumulative ack stays behind — which the sequencer
        can observe and repair without waiting for a view change."""
        if self.closed:
            return
        missing = self.gaps()
        if missing and self.me != self.sequencer:
            self._send(self.sequencer, Nak(sender=self.me, view_id=self.view.view_id, missing=missing))
        if self.recv_highwater > self.delivered_seq:
            self._broadcast_ack()
            if self._stuck_at == self.delivered_seq:
                # A whole period on the same horizon: the missing acks may
                # be lost for good, so ask the members below it.
                solicit = AckSolicit(sender=self.me, view_id=self.view.view_id)
                for member, high in self.ack_high.items():
                    if high <= self.delivered_seq and member != self.me:
                        self._send(member, solicit)
            self._stuck_at = self.delivered_seq
        else:
            self._stuck_at = None
        if self.me == self.sequencer:
            top = self._next_seq - 1
            for member, high in self.ack_high.items():
                if member == self.me or high >= top:
                    continue
                stop = min(high + self.RETRANSMIT_WINDOW, top)
                for seq in range(high + 1, stop + 1):
                    ordered = self._history.get(seq)
                    if ordered is not None:
                        self._send(member, ordered)

    def flush_cut(self) -> Tuple[Ordered, ...]:
        """Everything received that some member may lack, for FLUSH:
        beyond the delivered prefix and, under uniform delivery, beyond
        the all-ack horizon too — under quorum delivery another survivor
        may not hold what this member already delivered (under all-ack
        that horizon is never below the delivered prefix)."""
        floor = self.delivered_seq
        if self.uniform:
            floor = min(floor, min(self.ack_high.values()))
        return tuple(self.received[s] for s in sorted(self.received) if s > floor)

    def deliver_sync(self, union: Tuple[Ordered, ...]) -> None:
        """Deliver the gap-free continuation of the flush union, then close.

        Called during view change installation: ``union`` is the merged
        set of Ordered messages gathered from every survivor of this
        view (a superset of every participant's own buffer, possibly
        truncated to the stable prefix when the new view is not
        primary).  Every installer ends up having delivered exactly the
        same prefix, which is the virtual synchrony guarantee.
        """
        by_seq = {m.seq: m for m in union}
        while by_seq.get(self.delivered_seq + 1) is not None:
            self.delivered_seq += 1
            self._deliver(by_seq[self.delivered_seq])
        self.closed = True

    @property
    def next_gseq(self) -> int:
        """gseq the next delivery would get (continuation counter)."""
        return self.base_gseq + self.delivered_seq + 1
