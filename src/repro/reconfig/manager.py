"""Reconfiguration management: one manager, composed with a membership.

:class:`ReconfigManager` owns everything the ``vs``, ``evs`` and
``logless`` backends share: the peer-side session table, the joiner-side
enqueue/replay machinery (the synchronization-point rule of section
4.2), lazy round 1's partition progress, the creation protocol after total
failures (section 3), and the routing tables of both message channels.
What a backend *is* is its membership object, which defines exactly the
methods :data:`MEMBERSHIP_SEAM` names and is asked through them.

:class:`VsMembership` is *plain virtual synchrony*'s (section 5 /
Figure 1): because a member of a primary view is not necessarily
up to date, reconfiguration completion must be announced explicitly
(``UpToDateAnnouncement``), peers are (re-)elected from the up-to-date
set at every view change, and a primary view with no up-to-date member
must be detected and resolved via the creation protocol.  That flow is
the functions above it, which the logless membership uses too.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.db.recovery import RecoveryResult
from repro.gcs.primary import most_recent
from repro.gcs.view import View
from repro.replication.messages import (
    CreationReport, LastRoundDelimiter, TransactionMessage, UpToDateAnnouncement)
from repro.replication.node import ReplicatedDatabaseNode, SiteStatus
from repro.reconfig.strategies import Strategy
from repro.reconfig.transfer import (
    CatchUpComplete,
    JoinerTransferSession,
    PartitionComplete,
    PeerTransferSession,
    ReconcileAck,
    ReconcileNotice,
    TransferAccept,
    TransferBatch,
    TransferBatchAck,
    TransferComplete,
    TransferDecline,
    TransferCompleteAck,
    TransferOffer,
    TransferSolicit,
)


#: Transfer-channel routing: message type -> (side, method).  A ``peer``
#: row goes to the active peer-side session the message's ``session_id``
#: names, a ``joiner`` row to the current joiner-side session if the id
#: is its own (anything else is a leftover of a dead session and is
#: dropped); a ``manager`` row is a handler with logic of its own on the
#: manager.  Every handler takes the message as its only argument.
TRANSFER_ROUTES = {
    TransferOffer: ("manager", "_on_transfer_offer"),
    TransferSolicit: ("manager", "_on_transfer_solicit"),
    TransferDecline: ("manager", "_on_transfer_decline"),
    TransferComplete: ("manager", "_on_transfer_complete"),
    TransferAccept: ("peer", "on_accept"),
    ReconcileAck: ("peer", "on_reconcile_ack"),
    TransferBatchAck: ("peer", "on_batch_ack"),
    TransferCompleteAck: ("peer", "on_complete_ack"),
    CatchUpComplete: ("peer", "on_catch_up_complete"),
    PartitionComplete: ("joiner", "on_partition_complete"),
    ReconcileNotice: ("joiner", "on_reconcile_notice"),
    TransferBatch: ("joiner", "on_batch"),
}


def elect_peer(candidates, index: int) -> Optional[str]:
    """Deterministic peer election "based on the compositions of the
    views" (section 4.2): task ``index`` (a joiner, a subview) goes to
    the sorted candidates round-robin, so concurrent transfers share the
    load."""
    candidates = sorted(candidates)
    if not candidates:
        return None
    return candidates[index % len(candidates)]


#: What a backend decides, and all it decides: every membership class
#: defines exactly these, with no default (docs/RECONFIG_BACKENDS.md,
#: "Adding a backend", has one row each).
MEMBERSHIP_SEAM = (
    "CONTROL_ROUTES", "flush_extra", "on_gcs_change", "any_up_to_date",
    "view_up_to_date", "on_caught_up", "on_creation_source", "on_activated",
    "on_peer_session_end", "join_settled", "forget",
)


class ReconfigManager:
    """State and behaviour shared by all reconfiguration backends, asking
    the backend's membership what differs."""

    #: Ordered-channel routing the backends share: message type -> method
    #: taking ``(message, gseq)``.  A membership routes the control
    #: messages of its own in its ``CONTROL_ROUTES``; the node routes
    #: through :meth:`on_control` and never names the type.
    CONTROL_ROUTES = {CreationReport: "on_creation_report",
                      LastRoundDelimiter: "_on_last_round_delimiter"}

    #: Cost of replaying one write of an enqueued transaction at a joiner.
    REPLAY_OP_TIME = 0.0004
    #: Joiner-side watchdog (transfer hardening): a transfer session
    #: making no progress for this long is cancelled and re-solicited
    #: from a different peer.
    STALL_TIMEOUT = 1.0

    def __init__(self, node: ReplicatedDatabaseNode, strategy: Strategy,
                 backend) -> None:
        self.node = node
        self.strategy = strategy
        #: Registry name of the backend, surfaced in reports and metrics.
        self.backend_name = backend.name
        self.sessions_out: Dict[str, PeerTransferSession] = {}
        self.joiner_session: Optional[JoinerTransferSession] = None
        self.enqueue_mode = False
        self.enqueued: List[Tuple[int, TransactionMessage]] = []
        #: One past the last delivery this site dropped while stalled
        #: (:meth:`on_dropped`): a transfer anchored below it would leave
        #: that delivery out of both the state and the replay.
        self.stream_from = 0
        self.replaying = False
        #: The scheduled replay step, if one is in flight.  Its message
        #: stays at the head of ``enqueued`` until the step runs, so a
        #: cancelled step loses nothing.
        self._replay_step = None
        self.caught_up = False
        self.activation_authorized = False
        self._announced = False
        #: Lazy round 1's completed partitions (partition -> complete
        #: through gid), offered to every later peer of this join.
        self.done_partitions: Dict[str, int] = {}
        self._creation_reports: Dict[str, CreationReport] = {}
        self._creation_started = False
        # View the running creation round belongs to.  The round is
        # per-view: a new installation re-arms it, otherwise a site whose
        # round was interrupted (or that was the source in an *earlier*
        # total-failure episode) would never contribute its report again.
        self._creation_view: Optional[object] = None
        # Sites whose reports the running round is collecting (the
        # creation view's members; the whole universe when delivery is
        # not uniform — see check_creation).
        self._creation_members: Optional[frozenset] = None

        # Joiner-side stall watchdog (transfer hardening): time
        # of the last inbound message for the current joiner session; a
        # RECOVERING site with no progress for STALL_TIMEOUT
        # cancels the session and solicits a different peer.
        self._last_transfer_progress: Optional[float] = None
        self._stalled_peers: Dict[str, float] = {}
        self._solicit_rr = 0

        self.transfers_started = 0
        self.transfers_completed = 0
        self.announcements_sent = 0
        self.replayed_transactions = 0
        self.objects_sent_total = 0
        self.bytes_sent_total = 0
        self.objects_received_total = 0
        self.bytes_received_total = 0
        self.transfer_stalls = 0
        self.transfer_failovers = 0
        self.solicits_sent = 0
        self.transfer_retransmissions = 0
        membership = self.membership = backend.membership(self)
        # The node's membership callbacks and its two view-change
        # questions are the membership's to answer.
        self.on_view_change = self.on_eview_change = membership.on_gcs_change
        self.any_up_to_date = membership.any_up_to_date
        self.view_up_to_date = membership.view_up_to_date
        self.flush_extra = membership.flush_extra

    # ------------------------------------------------------------------
    # Node lifecycle hooks
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        """Called from the node's (re)start path: arm periodic watchdogs.

        The events are owned by ``node.proc``, so a crash cancels them."""
        self._last_transfer_progress = None
        interval = self.STALL_TIMEOUT / 2.0
        self.node.proc.every(interval, self._stall_tick)

    def on_crash(self) -> None:
        for session in list(self.sessions_out.values()):
            session.cancel()
        self.sessions_out.clear()
        self._reset_joiner_state()
        self.membership.forget(crashed=True)

    def on_recover(self, recovery: RecoveryResult) -> None:
        self._reset_joiner_state()
        self.done_partitions = {}

    def on_control(self, payload: Any, gseq: int) -> None:
        """A delivered message that is neither a transaction nor pure
        cover bookkeeping: hand it to the method the manager or the
        membership routes it to."""
        for owner in (self, self.membership):
            method = owner.CONTROL_ROUTES.get(type(payload))
            if method is not None:
                getattr(owner, method)(payload, gseq)
                return
        raise TypeError(
            f"{self.node.site_id}: the {self.backend_name} backend has no "
            f"route for a delivered {type(payload).__name__} (gseq {gseq})"
        )

    def on_demoted(self) -> None:
        """The site left the primary component — its view went stale
        (section 2.1's thin layer) or a minority view was installed:
        stop all reconfiguration activity."""
        self.cancel_all_sessions()
        self._drop_join()
        self._reset_creation()
        self.membership.forget(crashed=False)

    def on_dropped(self, gid: int) -> None:
        """A stalled site dropped the delivery of ``gid`` (section 2.3):
        only a transfer anchored at or above it can cover it."""
        self.stream_from = gid + 1

    def note_partition_complete(self, partition: str, boundary_gid: int) -> None:
        """Record lazy round-1 progress so a replacement peer can skip
        already-shipped partitions (section 4.7)."""
        current = self.done_partitions.get(partition, -(2**60))
        self.done_partitions[partition] = max(current, boundary_gid)

    def restart_join(self) -> None:
        """The GCS skipped sequence numbers while we were recovering (we
        missed an intermediate view): the enqueued message stream has a
        hole, so the current transfer cannot be completed consistently.
        Drop it and wait for a fresh offer anchored at the new view —
        already-installed transfer data stays (it is only ever a valid
        prefix of the lineage's state)."""
        self._drop_join()
        self.enqueued.clear()

    def _joiner_view_rule(self, view: View) -> bool:
        """Joiner side of a view change: an install that skipped
        sequence numbers restarts the join; a peer that left the view
        takes its session with it — enqueued messages and resume state
        stay, a newly elected peer will contact us."""
        if self.node.member.last_install_missed > 0:
            self.restart_join()
        if self.joiner_session is not None and self.joiner_session.peer not in view:
            self.joiner_session.cancel()
            self.joiner_session = None

    def _enqueue_from_sync_point(self) -> None:
        """Section 4.2: this joiner stands at or past its synchronization
        point, so an eager strategy keeps every transaction delivered
        from here on for replay (lazy discards until its delimiter)."""
        if not self.strategy.lazy:
            self.enqueue_mode = True

    def _reset_joiner_state(self) -> None:
        self._drop_join()
        self.enqueue_mode = False
        self.enqueued = []
        self.stream_from = 0
        self._reset_creation()

    def _drop_join(self) -> None:
        """Abandon the join in progress: the session, any running replay
        and everything earned through them.  Leaves ``enqueued`` /
        ``enqueue_mode`` to the caller."""
        if self.joiner_session is not None:
            self.joiner_session.cancel()
            self.joiner_session = None
        self._abort_replay()
        self.caught_up = False
        self.activation_authorized = False
        self._announced = False

    def _reset_creation(self) -> None:
        """Forget the creation round (section 3) this site was part of."""
        self._creation_reports = {}
        self._creation_started = False
        self._creation_view = None
        self._creation_members = None

    # ------------------------------------------------------------------
    # Joiner side: message enqueueing and replay (section 4.2)
    # ------------------------------------------------------------------
    def on_recovering_message(self, gid: int, message: TransactionMessage) -> None:
        if not self.enqueue_mode:
            return
        self.enqueued.append((gid, message))
        if len(self.enqueued) > self.node.enqueue_high_watermark:
            self.node.enqueue_high_watermark = len(self.enqueued)
        if self.caught_up and not self.replaying:
            # Already drained once but not active yet: keep up as we go.
            self._start_replay()

    def _transfer_snapshot(self) -> Dict[str, int]:
        """Receiver-side transfer counters at this instant (embedded in
        transfer events so epoch analytics can diff them)."""
        return {
            "bytes_received": self.bytes_received_total,
            "objects_received": self.objects_received_total,
            "retransmissions": self.transfer_retransmissions,
        }

    def _on_transfer_complete(self, msg: TransferComplete) -> None:
        session = self.joiner_session
        if session is None or session.session_id != msg.session_id:
            return
        if msg.final_seq > session._last_batch_seq:
            # The completion notice overtook the session's final batch
            # (the transfer channel is not FIFO under fault injection).
            # Don't ack and don't install the baseline: the batch is in
            # flight and the peer retransmits the notice until we do.
            return
        # Always (re-)ack — the peer retransmits TransferComplete until
        # it hears this, and our previous ack may have been lost.
        self.node.send_transfer(
            session.peer, TransferCompleteAck(session_id=msg.session_id)
        )
        if session.complete:
            return  # duplicate delivery: baseline already installed
        session.on_complete(msg)
        self.node.trace("transfer", "complete", f"baseline={msg.baseline_gid}",
                        data={"baseline": msg.baseline_gid,
                              **self._transfer_snapshot()})
        db = self.node.db
        # Adopt the peer's settled client-request outcomes through the
        # baseline.  A *replace* (not a merge): an up-to-date peer's table
        # is complete, and any local entry it lacks was decided outside
        # the new primary lineage (a phantom or a rolled-back in-flight
        # delivery) and must not survive the rejoin.
        db.outcomes.reset_to(msg.outcomes)
        # Persist the transferred state before moving the baseline, so a
        # crash right after recovers to a consistent (state, cover) pair.
        db.checkpoint()
        db.set_baseline(msg.baseline_gid)
        # Sessions this site serves take their sync point from it: below
        # the baseline it would label their state as older than it is
        # (chaos --mode evs --seed 170; a creation source, --seed 179).
        self.node.last_processed_gid = max(self.node.last_processed_gid, msg.baseline_gid)
        self.transfers_completed += 1
        self._start_replay()

    def _abort_replay(self) -> None:
        """Stop the running replay, in-flight step included.  ``enqueued``
        is the caller's to keep or clear."""
        if self._replay_step is not None:
            self._replay_step.cancel()
            self._replay_step = None
        self.replaying = False

    def _start_replay(self) -> None:
        if self.replaying:
            return
        self.replaying = True
        self.node.trace("replay", "start")
        self._replay_next()

    def _replay_next(self) -> None:
        if not self.node.alive:
            return
        baseline = self.node.db.baseline_gid
        while self.enqueued and self.enqueued[0][0] <= baseline:
            self.enqueued.pop(0)  # already contained in the transferred state
        if not self.enqueued:
            self.replaying = False
            self.caught_up = True
            self.node.trace("replay", "caught_up",
                            data={"replayed": self.replayed_transactions})
            # The membership announces (VS), proposes (logless) or
            # signals the peer (EVS); then activation is tried.
            self.membership.on_caught_up()
            self.maybe_activate()
            return
        _gid, message = self.enqueued[0]
        delay = max(len(message.write_set), 1) * self.REPLAY_OP_TIME
        self._replay_step = self.node.proc.after(delay, self._apply_replayed)

    def _apply_replayed(self) -> None:
        self._replay_step = None
        gid, message = self.enqueued.pop(0)
        db = self.node.db
        node = self.node
        # node.certify is the live delivery path's decision too, so the
        # replayed stream reaches the identical decisions the ACTIVE
        # sites made for these gids, including the suppressions.
        if node.certify(gid, message):
            writes = message.writes()
            db.tag_writes(gid, writes.keys())
            for obj, value in sorted(writes.items()):
                db.apply_write(gid, obj, value)
            db.commit(gid, message.request)
            node._emit("commit", gid, message)
        self.replayed_transactions += 1
        self._replay_next()

    def maybe_activate(self) -> None:
        if (
            self.activation_authorized
            and self.membership.join_settled()
            and not self.replaying
            and not self.enqueued
        ):
            self.joiner_session = None
            self.enqueue_mode = False
            self.node._become_active()
            self.membership.on_activated()

    def _became_up_to_date(self, sites: Tuple[str, ...], gseq: int) -> None:
        """The ordered up-to-date marker of ``sites`` — an announcement,
        or the config write that made them members — was delivered at
        ``gseq``."""
        node = self.node
        me = node.site_id
        for site in sites:
            node.note_up_to_date(site, gseq)
        others = [site for site in sites if site != me]
        if others and node.status is SiteStatus.SUSPENDED:
            # Someone (e.g. the creation-protocol source) is now up to
            # date: we can recover from it.
            node._set_status(SiteStatus.RECOVERING)
        if me in sites:
            if node.status is SiteStatus.ACTIVE:
                # Already active (creation source, bootstrap): the
                # delivery of our own marker is the ordered point from
                # which we can serve the still-recovering members.
                self.membership.on_activated()
            else:
                self.activation_authorized = True
                self.maybe_activate()
        for site in others:
            # A joiner I was serving completed (possibly via another peer).
            self.cancel_session(site)
        if others and node.status is SiteStatus.RECOVERING:
            # Tested after the flip above: the marker is the
            # synchronization point of the site it just turned
            # RECOVERING, whose transfer will be anchored at ``gseq``.
            self._enqueue_from_sync_point()

    # ------------------------------------------------------------------
    # Peer side helpers
    # ------------------------------------------------------------------
    def start_session(self, joiner: str, sync_gid: int) -> None:
        existing = self.sessions_out.get(joiner)
        if existing is not None and existing.active:
            return
        self.transfers_started += 1
        self.sessions_out[joiner] = PeerTransferSession(
            self.node, joiner, self.strategy, sync_gid, on_done=self._peer_session_done
        )
        self.node.trace("transfer", "start", f"-> {joiner} sync={sync_gid}",
                        data={"joiner": joiner, "sync": sync_gid})

    def _split_view(self, view: View) -> Tuple[List[str], List[str]]:
        """The view's members as (up to date, joiners), each sorted."""
        site_utd = self.node.site_utd
        utd = sorted(s for s in view.members if site_utd.get(s, False))
        joiners = sorted(s for s in view.members if not site_utd.get(s, False))
        return utd, joiners

    def _joiner_lost(self, joiner: str, view: View) -> bool:
        """Peer side of a view change: the joiner left the view, or it
        missed part of the lineage during this transfer (it restarted its
        join) and must be re-anchored at the new view's synchronization
        point.  Either way its session is cancelled."""
        return joiner not in view or joiner in self.node.member.stale_members

    def cancel_session(self, joiner: str) -> None:
        session = self.sessions_out.pop(joiner, None)
        if session is not None:
            self.node.trace("transfer", "cancel", f"-> {joiner}",
                            data={"joiner": joiner})
            session.cancel()

    def cancel_all_sessions(self) -> None:
        for joiner in list(self.sessions_out):
            self.cancel_session(joiner)

    def _peer_session_done(self, session: PeerTransferSession) -> None:
        """The joiner reported catch-up completion for this session."""
        self.sessions_out.pop(session.joiner, None)
        self.membership.on_peer_session_end(session, caught_up=True)

    def on_peer_session_stalled(self, session: PeerTransferSession) -> None:
        """A peer-side session exhausted its retransmissions (the joiner
        never answered): drop it.  The joiner's own watchdog solicits a
        replacement peer; if the joiner is truly gone the next view
        change cleans up for good."""
        self.transfer_stalls += 1
        self.sessions_out.pop(session.joiner, None)
        self.membership.on_peer_session_end(session, caught_up=False)

    # ------------------------------------------------------------------
    # Joiner-side stall detection and peer fail-over (no view change)
    # ------------------------------------------------------------------
    def _stall_tick(self) -> None:
        node = self.node
        if node.status is not SiteStatus.RECOVERING:
            self._last_transfer_progress = None
            return
        now = node.sim.now
        if self._last_transfer_progress is None:
            self._last_transfer_progress = now
            return
        if now - self._last_transfer_progress < self.STALL_TIMEOUT:
            return
        # A full stall window with no inbound transfer traffic: either
        # our session's peer went silent (one-way degradation) or the
        # elected peer's offers never reach us.  Fail over.
        stalled_peer = None
        if self.joiner_session is not None:
            stalled_peer = self.joiner_session.peer
            self._stalled_peers[stalled_peer] = now
            self.joiner_session.cancel()
            self.joiner_session = None
        self.transfer_stalls += 1
        node.trace("fault", "xfer_joiner_stall",
                   f"no transfer progress (peer {stalled_peer or 'none'})")
        self._last_transfer_progress = now
        self._solicit_transfer(exclude=stalled_peer)

    def _solicit_transfer(self, exclude: Optional[str] = None) -> None:
        """Ask an up-to-date member to start a transfer towards us,
        avoiding recently stalled peers while the cool-off lasts."""
        node = self.node
        now = node.sim.now
        cooloff = self.STALL_TIMEOUT * 4.0
        utd, _joiners = self._split_view(node.member.view)
        candidates = [site for site in utd if site != node.site_id]
        fresh = [
            site for site in candidates
            if site != exclude and now - self._stalled_peers.get(site, -1e18) >= cooloff
        ]
        # Fall back to stale candidates (the degradation may have healed)
        # rather than not soliciting at all.
        pool = fresh or [site for site in candidates if site != exclude] or candidates
        if not pool:
            return
        target = pool[self._solicit_rr % len(pool)]
        self._solicit_rr += 1
        self.solicits_sent += 1
        node.trace("fault", "xfer_solicit", f"-> {target}")
        node.send_transfer(target, TransferSolicit(joiner=node.site_id))

    def _on_transfer_solicit(self, msg: TransferSolicit) -> None:
        """Peer side: a stalled joiner asks us to take over its transfer.

        Served regardless of the view-change-time peer election — the
        elected peer is exactly the one that went silent."""
        node = self.node
        if node.status is not SiteStatus.ACTIVE or not node.up_to_date:
            return
        joiner = msg.joiner
        if joiner == node.site_id or joiner not in node.member.view.members:
            return
        existing = self.sessions_out.get(joiner)
        if existing is not None and existing.active:
            if existing.accepted:
                return  # already serving this joiner
            # Offers in flight, or refused as anchored below a delivery
            # the joiner dropped while stalled: re-anchor here.
            self.cancel_session(joiner)
        self.transfer_failovers += 1
        node.trace("fault", "xfer_failover", f"serving solicited joiner {joiner}")
        self.start_session(joiner, sync_gid=node.last_processed_gid)

    # ------------------------------------------------------------------
    # Transfer channel dispatch
    # ------------------------------------------------------------------
    def on_transfer_message(self, src: str, payload: Any) -> None:
        route = TRANSFER_ROUTES.get(type(payload))
        if route is None:
            raise TypeError(
                f"{self.node.site_id}: no transfer route for a "
                f"{type(payload).__name__} (from {src})"
            )
        side, method = route
        joiner = self.joiner_session
        session_id = getattr(payload, "session_id", None)
        current = joiner is not None and joiner.session_id == session_id
        # Any inbound message for the current joiner session counts as
        # progress for the stall watchdog; fresh offers do too.
        if current or type(payload) is TransferOffer:
            self._last_transfer_progress = self.node.sim.now
        if side == "manager":
            getattr(self, method)(payload)
        elif side == "peer":
            session = self._session_by_id(session_id)
            if session is not None:
                getattr(session, method)(payload)
        elif current:
            getattr(joiner, method)(payload)

    def _on_transfer_offer(self, offer: TransferOffer) -> None:
        node = self.node
        if node.status not in (SiteStatus.RECOVERING, SiteStatus.SUSPENDED):
            if node.status is SiteStatus.ACTIVE and node.up_to_date:
                # The peer thinks we need a transfer but we are fully
                # caught up (its utd knowledge lagged ours).  Decline
                # explicitly so the session — which holds database
                # locks from creation — is torn down now instead of
                # dangling through the retransmission budget.
                node.trace("view", "xfer_decline",
                           f"declining offer from {offer.peer}: already active")
                node.send_transfer(
                    offer.peer,
                    TransferDecline(session_id=offer.session_id, joiner=node.site_id))
            return
        if offer.sync_gid + 1 < self.stream_from:
            # Anchored below a delivery this site dropped while stalled:
            # it would be in neither the state nor the replay.
            node.send_transfer(offer.peer, TransferSolicit(joiner=node.site_id))
            return
        current = self.joiner_session
        if current is not None and current.session_id == offer.session_id:
            if not current.complete:
                current.accept()  # duplicate offer (retry): re-accept
            return
        if current is not None and offer.created_at <= current.offer_time:
            # A duplicated or reordered offer from a *superseded*
            # session: its peer session is long gone, so accepting
            # would cancel the current (possibly completed) session
            # in favour of one that can never finish.
            return
        if current is not None:
            current.cancel()
        # A replacement session's batches will rewrite the store to a
        # newer synchronization point: any replay of the old stream
        # must stop *now*, or it would check old messages against the
        # newer state.  (The enqueued messages stay: those above the
        # new baseline are still needed, the rest get skipped.)
        if self.replaying or self.caught_up:
            self._abort_replay()
            self.caught_up = False
        self.joiner_session = JoinerTransferSession(node, offer)
        self._enqueue_from_sync_point()
        node.trace("transfer", "accept",
                   data={"peer": offer.peer, **self._transfer_snapshot()})
        self.joiner_session.accept()

    def _on_transfer_decline(self, msg: TransferDecline) -> None:
        session = self._session_by_id(msg.session_id)
        if session is not None:
            self.node.trace("view", "xfer_declined",
                            f"{msg.joiner} is up to date; dropping session")
            self.node.site_utd[msg.joiner] = True
            self.cancel_session(msg.joiner)

    def _on_last_round_delimiter(self, msg: LastRoundDelimiter, gseq: int) -> None:
        """Section 4.7's delimiter transaction, delivered at ``gseq``: the
        lazy session it names captures as of it here, and its joiner
        enqueues every transaction delivered after it."""
        session = self._session_by_id(msg.session_id)
        if session is not None:
            session.on_delimiter(gseq)
        joiner = self.joiner_session
        if joiner is not None and joiner.session_id == msg.session_id:
            self.enqueue_mode = True

    def _session_by_id(self, session_id: str) -> Optional[PeerTransferSession]:
        for session in self.sessions_out.values():
            if session.session_id == session_id and session.active:
                return session
        return None

    # ------------------------------------------------------------------
    # Creation protocol (section 3)
    # ------------------------------------------------------------------
    def check_creation(self, view: View) -> None:
        """In a primary view with no up-to-date member, compare the
        surviving logs to elect the most current site (section 3).

        A committed transaction is certain to be in one log only: its
        committer's (commit is the WAL force point).  Uniform delivery
        puts it in the *memory* of a delivery quorum, which a crash
        erases — so after a total failure the one site that committed it
        may be the absent one, and only comparing *all* logs is safe
        (the paper's rule).  ``NodeConfig.creation_majority`` lets a
        primary view start the round anyway, so a flapping straggler
        cannot starve a suspended majority, but the reports elect a
        source only when :meth:`majority_covers` proves they hold every
        commit."""
        # No member is up to date, so no transfer or replay in progress
        # can finish with state the lineage keeps: creation settles what
        # was in flight from the reports alone, and every joiner is then
        # re-anchored at the source.  Neither serve nor complete one, and
        # keep nothing enqueued (a joiner replaying a late TransferComplete
        # here committed transactions the creation source rolled back:
        # chaos --seed 84 --mode evs).
        self.cancel_all_sessions()
        self.restart_join()
        members = frozenset(view.members)
        if self.node.config.creation_majority and self.node.member.config.uniform:
            if not view.is_primary(len(self.node.member.universe)):
                return
        elif members != set(self.node.member.universe):
            return
        if self._creation_started and self._creation_view == view.view_id:
            return
        self._creation_started = True
        self._creation_view = view.view_id
        self._creation_members = members
        self._creation_reports = {}
        db = self.node.db
        cover = db.cover_gid()
        self.node.trace("creation", "report", f"cover={cover}")
        report = CreationReport(
            site=self.node.site_id,
            cover_gid=cover,
            last_delivered_gid=self.node.last_processed_gid,
            committed_above_cover=db.committed_writes_above(cover),
            outcomes=db.outcomes.rows(),
            lineage=self.node.member.lineage_claim,
            utd_lineage=self.node.utd_lineage,
        )
        self.node._multicast(report)

    def majority_covers(self, reports: Dict[str, CreationReport]) -> bool:
        """Do the reports of a view short of the universe hold every
        commit?  Yes when (1) every member claims a lineage it knows
        first-hand — it has been in a primary view since its last
        restart, so by majority intersection the newest claim L is the
        newest primary view there ever was; (2) all of L's members are
        here, so every commit made in L is in a log here; and (3) one
        member was up to date in L, so its state holds everything
        committed before L.  A member with no first-hand claim (a
        restarted one inherits the claim of any non-primary view it
        passes through, and may have been in a newer primary view before
        the crash), an absent member of L, or an L that never had an
        up-to-date member (it was suspended from the start) leaves the
        round to wait for the universe."""
        claims = [report.lineage for report in reports.values()]
        if None in claims:
            return False
        newest = most_recent(claims)
        return set(newest.members) <= set(reports) and any(
            report.utd_lineage == newest for report in reports.values())

    def on_creation_report(self, report: CreationReport, gseq: int) -> None:
        self._creation_reports[report.site] = report
        if self._creation_members is None:
            return
        if set(self._creation_reports) != self._creation_members:
            return
        reports = self._creation_reports
        if (self._creation_members != set(self.node.member.universe)
                and not self.majority_covers(reports)):
            # This view's round is over without a source; the next view
            # change starts another.
            self._creation_reports = {}
            self._creation_members = None
            return
        source = min(reports.values(), key=lambda r: (-r.cover_gid, r.site)).site
        if source != self.node.site_id:
            self._reset_creation()
            return
        # I am the source: apply every committed transaction above my
        # cover found in any log, in gid order.
        db = self.node.db
        my_cover = db.cover_gid()
        merged: Dict[int, Dict[str, Any]] = {}
        for rep in reports.values():
            for gid, writes in rep.committed_above_cover:
                if gid > my_cover:
                    merged.setdefault(gid, {}).update(dict(writes))
        applied_max = my_cover
        for gid in sorted(merged):
            for obj, value in sorted(merged[gid].items()):
                db.store.write(obj, value, gid)
                # The merge bypasses the commit path: register it, or a
                # RecTable transfer to a joiner whose cover is below gid
                # omits the object (chaos --seed 157 --mode vs).
                db.rectable.register(obj, gid)
            applied_max = gid
        # Complete the outcome table the same way: every settled client
        # request known to any surviving log is settled system-wide.
        for rep in reports.values():
            db.outcomes.merge(rep.outcomes)
        db.checkpoint()
        db.set_baseline(max(applied_max, my_cover))
        # As after a transfer (_on_transfer_complete).
        self.node.last_processed_gid = max(self.node.last_processed_gid, db.baseline_gid)
        self._creation_reports = {}
        self.membership.on_creation_source(gseq)


# ----------------------------------------------------------------------
# Section 5.1's flow, for a membership whose up-to-date marker is an
# ordered message (vs: an announcement; logless: a config write)
# ----------------------------------------------------------------------
def marked_view_change(membership, view: View, states: Dict[str, Dict[str, Any]]) -> None:
    """A view change under plain virtual synchrony: fold it into the
    node, then act on the status it leaves."""
    manager, node = membership.manager, membership.node
    if not node.alive:
        return
    node._handle_membership_change(view, states)
    status = node.status
    if status is SiteStatus.STALLED:
        # Rule: leaving the primary component stops everything.
        manager.on_demoted()
        return

    if status is SiteStatus.ACTIVE:
        _manage_peers(manager, view)
    elif status is SiteStatus.RECOVERING:
        manager.activation_authorized = False  # re-earned via the marker
        manager._announced = False
        manager._joiner_view_rule(view)
        manager._enqueue_from_sync_point()
    elif status is SiteStatus.SUSPENDED:
        manager.check_creation(view)


def _manage_peers(manager: ReconfigManager, view: View) -> None:
    node = manager.node
    utd, joiners = manager._split_view(view)
    for joiner in list(manager.sessions_out):
        if (manager._joiner_lost(joiner, view) or joiner not in joiners
                or elect_peer(utd, joiners.index(joiner)) != node.site_id):
            # Rule: joiner left or restarted its join, already became
            # up to date (its marker can land before this view's peer
            # review), or was re-elected away.
            manager.cancel_session(joiner)
    sync_gid = node.member.to.base_gseq - 1
    for index, joiner in enumerate(joiners):
        if elect_peer(utd, index) == node.site_id:
            manager.start_session(joiner, sync_gid)


def serve_if_only_up_to_date(membership) -> None:
    """On becoming active *as the only up-to-date member* (creation
    source), serve everyone else; otherwise the already-active members
    keep their view-change-time peer assignments."""
    manager, node = membership.manager, membership.node
    utd, joiners = manager._split_view(node.member.view)
    if utd != [node.site_id]:
        return
    sync_gid = node.last_processed_gid
    for joiner in joiners:
        manager.start_session(joiner, sync_gid)


def any_marked_up_to_date(membership, view: View) -> bool:
    """A member of ``view`` is up to date by a delivered marker or a
    flushed claim: there is someone to recover from."""
    site_utd = membership.node.site_utd
    return any(site_utd.get(site, False) for site in view.members)


def replayed_transfer(membership) -> bool:
    """The joiner's session completed and its stream was replayed."""
    session = membership.manager.joiner_session
    return session is not None and session.complete and membership.manager.caught_up


class VsMembership:
    """Cascading reconfiguration under plain virtual synchrony.

    Implements the behaviour the paper's section 5 shows to be necessary
    (Figure 1): explicit status announcements, deterministic peer
    re-election when a peer leaves mid-transfer, transfer restart/resume,
    and detection of primary views without any up-to-date member.
    """

    CONTROL_ROUTES = {UpToDateAnnouncement: "_on_up_to_date"}

    def __init__(self, manager: ReconfigManager) -> None:
        self.manager = manager
        self.node = manager.node

    on_gcs_change = marked_view_change
    any_up_to_date = any_marked_up_to_date
    on_activated = serve_if_only_up_to_date
    join_settled = replayed_transfer

    def flush_extra(self) -> Dict[str, Any]:
        return {}

    def view_up_to_date(self) -> Dict[str, bool]:
        """The announcements the installing SYNC delivered to any group
        of installers, except for members it found stale.  A flushed
        claim predates the union, and a member from another previous
        view never delivers that union: it would see nobody up to date,
        stay SUSPENDED and drop what a transfer from that very site needs
        it to enqueue (chaos --seed 47 --mode vs)."""
        member = self.node.member
        return {
            ordered.payload.site: True
            for union in member.sync_unions.values()
            for ordered in union
            if isinstance(ordered.payload, UpToDateAnnouncement)
            and ordered.payload.site not in member.stale_members
        }

    def on_caught_up(self) -> None:
        if not self.manager._announced:
            self._announce()

    def on_creation_source(self, gseq: int) -> None:
        # The source is up-to-date by construction; announce so everyone
        # else switches to RECOVERING and awaits a transfer from us.
        self.node._become_active()
        self._announce()

    def on_peer_session_end(self, session: PeerTransferSession, caught_up: bool) -> None:
        """Nothing more: a stalled joiner's own watchdog solicits anew."""

    def forget(self, crashed: bool) -> None:
        """No state of its own."""

    def _on_up_to_date(self, msg: UpToDateAnnouncement, gseq: int) -> None:
        self.manager._became_up_to_date((msg.site,), gseq)

    def _announce(self) -> None:
        """Tell the group, through the total order, that this site is up
        to date: having caught up, or as the elected creation source."""
        self.manager._announced = True
        self.manager.announcements_sent += 1
        self.node._multicast(
            UpToDateAnnouncement(site=self.node.site_id, cover_gid=self.node.db.cover_gid())
        )
