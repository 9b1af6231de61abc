"""The group member facade: what applications program against.

A :class:`GroupMember` gives its application the paper's interface:

* ``multicast(payload)`` — uniform total-order multicast to the current
  view (delivered back to the sender as well);
* ``on_message(sender, payload, gseq)`` — totally ordered delivery with
  a global sequence number (monotone across consecutive views);
* ``on_view_change(view, states)`` — view installation, with the opaque
  per-node flush state exchanged during the view change;
* crash / recovery of the member, which boots back into a singleton
  view and is merged by the membership protocol.

Every node of the universe runs one ``GroupMember``; there is a single
process group (the paper's model: "each site is a group member").
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Protocol, Tuple

from repro.gcs.config import GCSConfig
from repro.gcs.failure_detector import FailureDetector
from repro.gcs.membership import MembershipEngine
from repro.gcs.messages import (
    Ack,
    AckSolicit,
    Data,
    FlushNack,
    FlushReply,
    Nak,
    Ordered,
    OrderedBatch,
    Presence,
    Propose,
    RoundAbort,
    Sync,
    round_priority,
)
from repro.gcs.primary import PrimaryLineage, is_primary
from repro.gcs.total_order import ViewTotalOrder
from repro.gcs.view import View, ViewId, singleton_view
from repro.net.network import Network
from repro.sim.core import Simulator
from repro.sim.process import Process


class GroupApplication(Protocol):
    """What the layer above the GCS must implement."""

    def on_view_change(self, view: View, states: Dict[str, Dict[str, Any]]) -> None:
        """A new view was installed; ``states`` maps member -> flush state."""

    def on_message(self, sender: str, payload: Any, gseq: int) -> None:
        """A multicast message was delivered in total order."""

    def flush_state(self) -> Dict[str, Any]:
        """Opaque state contributed to the view change (may return {})."""


class GroupMember(Process):
    """One site's group communication endpoint."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: str,
        universe: Tuple[str, ...],
        config: Optional[GCSConfig] = None,
        app: Optional[GroupApplication] = None,
        quorum_delivery: bool = True,
    ) -> None:
        super().__init__(sim)
        self.node_id = node_id
        #: Deliver at a majority of acks in primary views (see
        #: :meth:`delivery_quorum`); False keeps all-ack everywhere, which
        #: the EVS layer needs.
        self.quorum_delivery = quorum_delivery
        self.universe = tuple(sorted(universe))
        if node_id not in self.universe:
            raise ValueError(f"{node_id} not in universe {universe}")
        self.config = config or GCSConfig()
        self.config.validate()
        self.app = app
        self.endpoint = network.endpoint(node_id)
        self.endpoint.attach(self._on_network)
        self.network = network
        self.fd = FailureDetector(node_id)
        self.membership = MembershipEngine(self)

        # Stable-storage analogue: the epoch floor survives crashes so a
        # recovering node never reuses an old epoch.  The gseq floor lets
        # the application (which logs global sequence numbers durably)
        # restore numbering continuity after a total failure — without it
        # a fully restarted group would reuse old gseqs, colliding with
        # identifiers already in the replicas' logs.
        self.epoch_floor = 0
        self.gseq_floor = 0

        self.lineage: Optional[PrimaryLineage] = None
        #: The lineage this member claimed in the round that installed
        #: its current view: its knowledge before that view, and None
        #: unless this incarnation had installed a primary view by then.
        #: A restarted member inherits the best claim of any non-primary
        #: round it passes through, which cannot tell whether it was in
        #: a newer primary view before the crash.
        self.lineage_claim: Optional[PrimaryLineage] = None
        self._installed_primary = False
        self._view_primary = False

        self.view: View = singleton_view(node_id, 0)
        self.to: ViewTotalOrder = self._new_total_order(self.view, 0)
        self._blocked = False
        self._next_msg_id = 0
        self._pending: Dict[int, Any] = {}  # msg_id -> payload, until self-delivery
        #: Messages of the view a running round would install, received
        #: before its SYNC (see :meth:`_hold`).
        self._held: List[Any] = []
        self.views_installed: List[View] = []
        self.messages_delivered = 0
        #: How many global sequence numbers the lineage delivered that this
        #: member never saw, as of the last view installation.  Non-zero
        #: means the member's state is stale even though it may never have
        #: noticed leaving the primary component (lost SYNC, stale view).
        self.last_install_missed = 0
        #: All members the last view change identified as stale (their
        #: delivery position was behind the agreed base).
        self.stale_members: Tuple[str, ...] = ()
        #: The last SYNC's per-previous-view unions, ``{prev_view_id:
        #: (Ordered, ...)}``: what each group of installers delivered
        #: between its flush reply and the install.  The flushed
        #: application states cannot show those messages, and members of
        #: another group never deliver them, so the layers above read them
        #: here at installation: EVS merge requests (else a merged majority
        #: fragments apart) and up-to-date announcements (else a stale
        #: member sees nobody up to date, see
        #: ``VsMembership.view_up_to_date``).
        self.sync_unions: Dict[ViewId, Tuple[Ordered, ...]] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Boot (or recover) the member into a fresh singleton view."""
        super().start()
        self.network.bring_up(self.node_id)
        self.fd.reset()
        self.membership.reset()
        self.epoch_floor += 1
        self._blocked = False
        self._pending = {}
        self._held = []
        self._next_msg_id = 0
        self.lineage = None  # volatile group knowledge, lost in the crash
        self.lineage_claim = None
        self._installed_primary = False
        self.stale_members = ()
        self.sync_unions = {}
        self.view = singleton_view(self.node_id, self.epoch_floor)
        self._view_primary = is_primary(
            self.config.primary_policy, self.view.members, len(self.universe),
            [self.lineage])
        self.to = self._new_total_order(self.view, self.gseq_floor)
        if self.app is not None:
            self.app.on_view_change(self.view, {self.node_id: self.collect_flush_state()})
        self.every(self.config.presence_interval, self._beacon)
        self.every(self.config.retransmit_interval, self._maintenance)
        self._beacon()

    def crash(self) -> None:
        """Fail-stop: lose all volatile state, leave the network."""
        self.network.take_down(self.node_id)
        self.stop()

    def is_primary(self) -> bool:
        """Is the current view primary under the configured policy?

        The decision is made once per view by the membership-round
        coordinator (from the collected lineage claims) and shipped in
        SYNC, so all installers agree."""
        return self._view_primary

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def multicast(self, payload: Any) -> int:
        """Uniform total-order multicast to the current view.

        The message is retained and automatically resubmitted across view
        changes until the member observes its own delivery.  Returns the
        local message id (use :meth:`cancel_pending` to withdraw).
        """
        if not self.alive:
            raise RuntimeError(f"{self.node_id} is down")
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        self._pending[msg_id] = payload
        if not self._blocked:
            self._transmit(msg_id, payload)
        return msg_id

    def cancel_pending(self) -> int:
        """Withdraw every not-yet-delivered multicast (used by the
        replication layer when the site lands in a non-primary view).
        Returns the number of messages withdrawn."""
        count = len(self._pending)
        self._pending.clear()
        return count

    def _transmit(self, msg_id: int, payload: Any) -> None:
        data = Data(
            sender=self.node_id, msg_id=msg_id, view_id=self.view.view_id, payload=payload
        )
        if self.to.sequencer == self.node_id:
            self.to.on_data(data)
        else:
            self.endpoint.send(self.to.sequencer, data)

    # ------------------------------------------------------------------
    # Periodic tasks
    # ------------------------------------------------------------------
    def _beacon(self) -> None:
        presence = Presence(
            sender=self.node_id,
            view_id=self.view.view_id,
            view_members=self.view.members,
            epoch=max(self.epoch_floor, self.fd.max_epoch_seen),
        )
        for node in self.universe:
            if node != self.node_id:
                self.endpoint.send(node, presence)
        self.fd.on_beacon(self.node_id)
        self.membership.decide()

    def _maintenance(self) -> None:
        self.to.maintenance()
        self._check_stale_view()
        if not self._blocked:
            for msg_id, payload in list(self._pending.items()):
                self._transmit(msg_id, payload)

    def _check_stale_view(self) -> None:
        """The paper's "thin software layer" (section 2.1): concurrent
        views must not overlap, so a member whose view-mates moved on to
        a higher-epoch view that excludes it must stop considering its
        own (stale) view primary — otherwise it could keep acting as an
        up-to-date primary member while a concurrent primary progresses
        without it.  Demotion lasts until the next view installation."""
        if not self._view_primary or len(self.view) <= 1:
            return
        mine = round_priority((self.view.view_id.epoch, self.view.view_id.coordinator))
        defectors = 0
        for node in self.view.members:
            if node == self.node_id:
                continue
            claimed = self.fd.claimed_view(node)
            if (
                claimed is not None
                # Same-epoch views are concurrent too: two racing rounds
                # can install 25@S1 and 25@S2, and the loser (larger
                # coordinator id) must demote just as if it were a whole
                # epoch behind — otherwise it keeps acting as a phantom
                # primary whose claimed members installed the other view.
                and round_priority((claimed.epoch, claimed.coordinator)) > mine
                and self.node_id not in self.fd.claimed_members(node)
            ):
                defectors += 1
        loyal = len(self.view) - defectors
        if loyal * 2 <= len(self.view):
            self._view_primary = False
            if self.app is not None:
                handler = getattr(self.app, "on_primary_demoted", None)
                if handler is not None:
                    handler()

    # ------------------------------------------------------------------
    # Network dispatch
    # ------------------------------------------------------------------
    def _on_network(self, src: str, payload: Any) -> None:
        if not self.alive:
            return
        # Dispatch in descending traffic order (acks dominate) — every
        # payload matches exactly one branch, so the order is free.
        if isinstance(payload, Ack):
            self.to.on_ack(payload)
        elif isinstance(payload, Ordered):
            self.to.on_ordered(payload)
        elif isinstance(payload, OrderedBatch):
            self.to.on_ordered_batch(payload)
        elif isinstance(payload, Data):
            if not self._blocked and payload.view_id == self.view.view_id:
                self.to.on_data(payload)
            else:
                self._hold(payload)
        elif isinstance(payload, Presence):
            if self.config.dynamic_universe and payload.sender not in self.universe:
                self.universe = tuple(sorted(set(self.universe) | {payload.sender}))
            self.fd.on_presence(payload)
            self.membership.decide()
        elif isinstance(payload, Nak):
            self.to.on_nak(payload)
        elif isinstance(payload, AckSolicit):
            self.to.on_ack_solicit(payload)
        elif isinstance(payload, Propose):
            self.membership.on_propose(src, payload)
        elif isinstance(payload, FlushReply):
            self.membership.on_flush_reply(src, payload)
        elif isinstance(payload, FlushNack):
            self.membership.on_flush_nack(src, payload)
        elif isinstance(payload, RoundAbort):
            self.membership.on_round_abort(src, payload)
        elif isinstance(payload, Sync):
            self.membership.on_sync(src, payload)

    # ------------------------------------------------------------------
    # Delivery and view installation (called by lower layers)
    # ------------------------------------------------------------------
    def _deliver(self, ordered: Ordered) -> None:
        if ordered.sender == self.node_id:
            self._pending.pop(ordered.msg_id, None)
        self.messages_delivered += 1
        if self.app is not None:
            self.app.on_message(ordered.sender, ordered.payload, ordered.gseq)

    def delivery_quorum(self, size: int, primary: bool) -> int:
        """How many acks of a view of ``size`` members make a message
        deliverable: a majority in a primary view, every member anywhere
        else (and always without quorum delivery or uniformity)."""
        if primary and self.quorum_delivery and self.config.uniform:
            return size // 2 + 1
        return size

    def _new_total_order(self, view: View, base_gseq: int) -> ViewTotalOrder:
        return ViewTotalOrder(
            view=view,
            me=self.node_id,
            base_gseq=base_gseq,
            send=self.endpoint.send,
            deliver=self._deliver,
            uniform=self.config.uniform,
            defer=lambda fn: self.after(0.0, fn),
            batch=self.config.sequencer_batching,
            send_many=self.endpoint.send_many,
            quorum=self.delivery_quorum(len(view.members), self._view_primary),
            stray=self._hold,
        )

    def _hold(self, msg: Any) -> None:
        """Keep a turned-away ``Data``/``Ordered``/``OrderedBatch``/``Ack``
        if it is stamped with the view the round this member is frozen in
        would install: on jittered links the new sequencer's first batch
        can overtake SYNC, and a dropped one waits for the sequencer's
        next maintenance push.  :meth:`install_view` replays what it
        holds."""
        round_id = self.membership.current_round
        if round_id is not None and msg.view_id == ViewId(*round_id):
            self._held.append(msg)

    def freeze_for_flush(self) -> None:
        """Stop sending and delivering while a membership round runs."""
        # Ship any Ordered messages still staged for end-of-tick batching
        # first: remote members can then contribute them to their own
        # flush replies instead of relying solely on the sequencer's cut.
        self.to.flush_staged()
        self._blocked = True
        self.to.closed = True

    def resume_after_aborted_round(self) -> None:
        """A round died without SYNC: resume the previous view."""
        self._blocked = False
        self.to.closed = False
        self.to._maybe_deliver()

    def collect_flush_state(self) -> Dict[str, Any]:
        if self.app is not None:
            return dict(self.app.flush_state())
        return {}

    def install_view(
        self,
        view: View,
        base_gseq: int,
        states: Dict[str, Dict[str, Any]],
        primary: Optional[bool] = None,
        lineage: Optional[PrimaryLineage] = None,
    ) -> None:
        if primary is None:
            primary = view.is_primary(len(self.universe))
        self._view_primary = primary
        self.lineage_claim = self.lineage if self._installed_primary else None
        self._installed_primary = self._installed_primary or primary
        if lineage is not None:
            self.lineage = lineage
        # A positive gap between the agreed base and what we actually
        # delivered means the lineage moved on without us at some point
        # (lost SYNC, stale view): the application must not treat this
        # member as up to date.
        self.last_install_missed = max(0, base_gseq - self.to.next_gseq)
        self.view = view
        self.epoch_floor = max(self.epoch_floor, view.view_id.epoch)
        self.fd.note_epoch(view.view_id.epoch)
        self.to = self._new_total_order(view, base_gseq)
        self._blocked = False
        self.views_installed.append(view)
        if self.app is not None:
            self.app.on_view_change(view, states)
        # Replay what arrived for this view before SYNC, once the
        # application has seen the view; a different view's are dropped.
        # (``src`` is read by membership messages only.)
        held, self._held = self._held, []
        for msg in held:
            if msg.view_id == view.view_id:
                self._on_network(self.to.sequencer, msg)
        for msg_id, payload in list(self._pending.items()):
            self._transmit(msg_id, payload)
        self.membership.decide()
