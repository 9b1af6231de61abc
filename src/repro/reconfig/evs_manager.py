"""Reconfiguration using Enriched View Synchrony (section 5.2).

The manager encodes the paper's handling rules:

I.   On a view change:
     1. for every subview-set other than the primary's, a deterministic
        peer in the primary subview issues Subview-SetMerge "whenever
        appropriate";
     2. if a peer left, the newly elected peer either issues the merge
        (the old peer died before initiating it) or *resumes* the data
        transfer (joiner already in the peer's subview-set);
     3. transfers to joiners that left the view stop;
     4. a site that left the primary subview stops processing and stops
        its transfers.
II.  On a Subview-SetMerge e-view change: the peer starts the data
     transfer to every site of each newly merged subview.
III. On a SubviewMerge e-view change: the merged sites are up-to-date;
     the peer issues it once every site of the subview has caught up.

Implementation note: merge requests are totally ordered, but a request
issued against identities that a concurrently delivered merge rewrote is
dropped by the EVS layer as a no-op.  Every e-view change therefore ends
in a *reconciliation pass* that re-derives pending work from the current
structure; racing re-issues are themselves no-ops, so the system makes
progress without duplicating merges.

The key property (benchmark E2 measures exactly this): the up-to-date
bookkeeping that plain VS needs explicit announcements for is
*structural* here — "the notion of up-to-date member depends on the
membership of the primary subview, not of the primary view".
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set

from repro.gcs.evs import EView, SubviewId
from repro.reconfig.manager import ReconfigManager, elect_peer
from repro.reconfig.transfer import CatchUpComplete, PeerTransferSession
from repro.replication.node import SiteStatus


class EvsMembership:
    """Section 5.2's reconfiguration rules, driven by e-view changes."""

    CONTROL_ROUTES: Dict[type, str] = {}

    #: Settle time between deciding on a Subview-SetMerge and issuing it.
    MERGE_DELAY = 0.02

    def __init__(self, manager: ReconfigManager) -> None:
        self.manager = manager
        self.node = manager.node
        #: The enriched group member this backend's sites run on.
        self._evs = manager.node.gcs
        self._pending_svs_merges: Set[SubviewId] = set()
        self._caught_up_joiners: Set[str] = set()
        self._sv_merges_requested: Set[SubviewId] = set()
        self._creation_source = False
        self.svs_merges_issued = 0
        self.sv_merges_issued = 0

    def flush_extra(self) -> Dict[str, Any]:
        return {}

    # ------------------------------------------------------------------
    def _primary_subview(self, eview: EView):
        return eview.primary_subview(len(self.node.universe))

    def _is_coordinating(self, eview: EView) -> bool:
        """Am I responsible for driving reconfigurations right now?"""
        primary = self._primary_subview(eview)
        if primary is not None:
            return self.node.site_id in primary
        return self._creation_source

    # ------------------------------------------------------------------
    # Membership policy: up-to-dateness is structural (section 5.2)
    # ------------------------------------------------------------------
    def any_up_to_date(self, view) -> bool:
        return self._primary_subview(self._evs.eview) is not None

    def view_up_to_date(self) -> Dict[str, bool]:
        """Every site observing an e-view — including a recovering
        joiner — can refresh its map of who is up to date from it; the
        flushed states can predate a Rule III promotion (they were
        captured while everyone was still suspended).  Without this, a
        joiner whose flushed states predate the merge that activated the
        primary subview sees no up-to-date member and its transfer-stall
        watchdog has no peer to solicit from.  A site wrongly presumed
        up to date (a data-stale companion inside the primary subview)
        is harmless: the serving side re-checks its own status before
        honouring a solicit."""
        eview = self._evs.eview
        primary = self._primary_subview(eview)
        if primary is None:
            return {}
        return {site: site in primary for site in eview.view.members}

    # ------------------------------------------------------------------
    # E-view change dispatch
    # ------------------------------------------------------------------
    def on_gcs_change(self, eview: EView, reason: str, states, gseq=None) -> None:
        node = self.node
        if not node.alive:
            return
        if reason == "view_change":
            # Up-to-dateness is structural under EVS: member of the
            # primary subview <=> up to date (section 5.2) — unless the
            # replay queue has not drained: a site carried into the
            # primary subview with enqueued messages left is structurally
            # current but data-stale, and acting up to date would drop
            # them.  Such a site stays a joiner; maybe_activate promotes
            # it once the replay finishes.
            replay_pending = self.manager.replaying or self.manager.enqueued
            node.up_to_date = self._evs.in_primary_subview() and not replay_pending
            node._handle_membership_change(eview.view, states)
        else:
            node.trace("eview", reason, repr(eview))
            node.site_utd.update(self.view_up_to_date())
            primary = self._primary_subview(eview)
            if (
                node.status is SiteStatus.SUSPENDED
                and primary is not None
                and (node.site_id not in primary or not node.up_to_date)
            ):
                # A merge e-view change can create the primary subview
                # (e.g. after the creation protocol): sites outside it
                # switch to RECOVERING so they enqueue instead of
                # dropping messages.  So does a data-stale site *inside*
                # it — a companion of the creation source was carried
                # into the primary subview by the merge without holding
                # the source's merged state, and it catches up via
                # transfer like any other joiner.
                node._set_status(SiteStatus.RECOVERING)
        self._pending_svs_merges.clear()
        self._sv_merges_requested.clear()
        if reason == "view_change":
            self._on_view_change(eview)
        elif reason == "subview_set_merge":
            self._on_subview_set_merge(eview, gseq)
        elif reason == "subview_merge":
            self._on_subview_merge(eview, gseq)

    # ------------------------------------------------------------------
    # Rule I: view changes
    # ------------------------------------------------------------------
    def _on_view_change(self, eview: EView) -> None:
        node = self.node
        primary = self._primary_subview(eview)
        self._caught_up_joiners &= set(eview.view.members)

        if node.status in (SiteStatus.STALLED, SiteStatus.DOWN):
            # Rule I.4: out of the primary component.
            self.manager.on_demoted()
            return

        if primary is None or node.site_id not in primary:
            # Authorization to activate is structural and per-merge: any
            # view change that leaves me outside a primary subview voids it.
            self.manager.activation_authorized = False

        if primary is None:
            # Primary view but no operational primary subview: every site
            # realizes locally that processing must be suspended, and the
            # creation protocol runs once all sites are present.  The
            # previous round's source runs it too: every joiner drops its
            # transfer here, so sessions the source kept would retransmit
            # into the void while the new round waits for its report
            # (chaos --seed 196 --mode evs).
            self._creation_source = False
            self.manager.check_creation(eview.view)
            return

        if node.site_id not in primary:
            # I'm a joiner.  Enqueueing starts once my subview-set has
            # been merged with the primary's (rule II); re-check here for
            # the cascaded / resume case.
            self.manager._joiner_view_rule(eview.view)
            if primary <= eview.subview_set_of(node.site_id):
                self.manager._enqueue_from_sync_point()
            return

        self._reconcile(eview, sync_gid=node.member.to.base_gseq - 1)

    # ------------------------------------------------------------------
    # Rule II: subview-set merged
    # ------------------------------------------------------------------
    def _on_subview_set_merge(self, eview: EView, gseq: Optional[int]) -> None:
        node = self.node
        primary = self._primary_subview(eview)
        sync_gid = gseq if gseq is not None else node.last_processed_gid
        if self._is_coordinating(eview):
            self._reconcile(eview, sync_gid)
            return
        # Joiner side: "discards transactions until it is in the same
        # subview-set as the primary subview, then starts enqueueing".
        # During creation (no primary subview yet) nothing is processing,
        # but switching to enqueue mode is the safe equivalent.
        my_svs = eview.subview_set_of(node.site_id)
        merged_with_primary = primary is not None and primary <= my_svs
        if merged_with_primary or primary is None:
            self.manager._enqueue_from_sync_point()

    # ------------------------------------------------------------------
    # Rule III: subview merged -> recovery of those sites completed
    # ------------------------------------------------------------------
    def _on_subview_merge(self, eview: EView, gseq: Optional[int]) -> None:
        node = self.node
        primary = self._primary_subview(eview)
        if primary is not None and node.site_id in primary:
            for site in primary:
                node.site_utd[site] = True
            if not node.up_to_date:
                # I was just merged into the primary subview: the final
                # synchronization point (activation still waits for the
                # replay queue to drain).
                self.manager.activation_authorized = True
                self.manager.maybe_activate()
            self._caught_up_joiners -= set(primary)
            if self._is_coordinating(eview):
                sync_gid = gseq if gseq is not None else node.last_processed_gid
                self._reconcile(eview, sync_gid)
            return
        if self._creation_source:
            sync_gid = gseq if gseq is not None else node.last_processed_gid
            self._reconcile(eview, sync_gid)

    # ------------------------------------------------------------------
    # The reconciliation pass (rules I.1-I.3, II, III precondition)
    # ------------------------------------------------------------------
    def _reconcile(self, eview: EView, sync_gid: int) -> None:
        node = self.node
        manager = self.manager
        primary = self._primary_subview(eview)
        if (
            primary is not None
            and node.site_id in primary
            and not node.up_to_date
            and not self._creation_source
        ):
            # Structurally primary but data-stale: a companion of the
            # creation source whose subview survived a total failure is
            # *in* the primary subview without holding the source's
            # merged state.  It must not coordinate merges or serve
            # transfers until its own catch-up completes.
            return
        if primary is not None:
            coordinators = sorted(primary)
            my_sv = eview.subview_id_of(node.site_id)
            my_svs_id = eview.subview_set_id_of(node.site_id)
        elif self._creation_source:
            coordinators = [node.site_id]
            my_sv = eview.subview_id_of(node.site_id)
            my_svs_id = eview.subview_set_id_of(node.site_id)
        else:
            return

        # Rule I.3: stop transfers to joiners that left the view; also
        # re-anchor transfers whose joiner missed part of the lineage.
        for joiner in list(manager.sessions_out):
            if manager._joiner_lost(joiner, eview.view):
                manager.cancel_session(joiner)

        # Rule I.1: merge foreign subview-sets into ours.
        foreign_svs = sorted(
            (svs_id for svs_id in eview.subview_sets() if svs_id != my_svs_id), key=str
        )
        for index, svs_id in enumerate(foreign_svs):
            if elect_peer(coordinators, index) == node.site_id:
                self._schedule_svs_merge(my_svs_id, svs_id)

        # Rules I.2 / II / III precondition, for every subview of my
        # subview-set that is not (part of) the primary subview.
        my_svs_members = eview.subview_set_of(node.site_id)
        anchor = primary if primary is not None else frozenset({node.site_id})
        foreign_subviews = sorted(
            (
                sv_id
                for sv_id, members in eview.subviews().items()
                if members <= my_svs_members and not (members & anchor)
            ),
            key=str,
        )
        if self._creation_source:
            # A total failure dissolves the pre-failure subview
            # structure: my subview companions are not guaranteed to
            # hold the merged state the creation protocol just built
            # here, so they recover like any other joiner.
            my_sv_members = eview.subviews().get(my_sv, frozenset())
            for joiner in sorted(my_sv_members - {node.site_id}):
                if joiner not in self._caught_up_joiners:
                    manager.start_session(joiner, sync_gid)

        for index, sv_id in enumerate(foreign_subviews):
            members = eview.subviews()[sv_id]
            if members <= self._caught_up_joiners:
                # Rule III precondition: every site of the subview caught
                # up -> merge it into the primary subview.  Issued by any
                # coordinator that *knows* the catch-up happened, not only
                # the elected one: a stalled transfer may have failed over
                # (TransferSolicit) to a non-elected peer, which is then
                # the only site holding this knowledge.  Racing duplicate
                # merges are no-ops at the EVS layer.
                if sv_id not in self._sv_merges_requested:
                    self._sv_merges_requested.add(sv_id)
                    self.sv_merges_issued += 1
                    node.trace(
                        "eview", "sv_merge_issued",
                        f"subview {sv_id} caught up, merging into {my_sv}",
                        data={"subview": str(sv_id)},
                    )
                    self._evs.subview_merge((my_sv, sv_id))
                continue
            if elect_peer(coordinators, index) != node.site_id:
                continue
            for joiner in sorted(members):
                if joiner not in self._caught_up_joiners:
                    manager.start_session(joiner, sync_gid)  # start or resume (rule I.2/II)

    def _schedule_svs_merge(self, my_svs_id: SubviewId, svs_id: SubviewId) -> None:
        if svs_id in self._pending_svs_merges:
            return
        self._pending_svs_merges.add(svs_id)
        self.node.proc.after(self.MERGE_DELAY, self._issue_svs_merge, my_svs_id, svs_id)

    def _issue_svs_merge(self, my_svs_id: SubviewId, svs_id: SubviewId) -> None:
        eview = self._evs.eview
        if eview is None or svs_id not in eview.subview_sets():
            return
        if not self._is_coordinating(eview):
            return
        self.svs_merges_issued += 1
        self.node.trace(
            "eview", "svs_merge_issued",
            f"merging subview-set {svs_id} into {my_svs_id}",
            data={"subview_set": str(svs_id)},
        )
        self._evs.subview_set_merge((my_svs_id, svs_id))

    # ------------------------------------------------------------------
    # Catch-up completion -> CatchUpComplete -> SubviewMerge
    # ------------------------------------------------------------------
    def forget(self, crashed: bool) -> None:
        """A demotion ends the coordination and the creation round."""
        if not crashed:
            self._creation_source = False
            self._caught_up_joiners.clear()

    def on_caught_up(self) -> None:
        session = self.manager.joiner_session
        if session is not None and session.complete and not session.catch_up_sent:
            session.catch_up_sent = True
            self._send_catch_up(session.session_id, session.peer)

    def _send_catch_up(self, session_id: str, peer: str) -> None:
        """Send (and keep re-sending) CatchUpComplete until the merge
        arrives — the signal may race a peer failure and be lost."""
        session = self.manager.joiner_session
        if (
            session is None
            or session.session_id != session_id
            or not session.catch_up_sent
            or self.manager.activation_authorized
            or not self.node.alive
        ):
            return
        self.node.send_transfer(
            peer, CatchUpComplete(session_id=session_id, joiner=self.node.site_id)
        )
        self.node.proc.after(0.25, self._send_catch_up, session_id, peer)

    def on_peer_session_end(self, session: PeerTransferSession, caught_up: bool) -> None:
        """A joiner caught up: record it and reconcile (possibly issuing
        the SubviewMerge that ends its recovery).  A stalled session,
        unlike under plain VS, cannot always rely on the joiner's own
        watchdog: during the creation protocol the source is the *only*
        possible peer and every site (including the joiner) is SUSPENDED,
        so nobody solicits and the cluster stays unavailable until this
        transfer lands.  Keep retrying while Rule III waits on the joiner."""
        if caught_up:
            self._caught_up_joiners.add(session.joiner)
            eview = self._evs.eview
            if eview is not None:
                self._sv_merges_requested.clear()
                self._reconcile(eview, sync_gid=self.node.last_processed_gid)
            return
        self.node.proc.after(
            PeerTransferSession.ACK_TIMEOUT,
            self._retry_stalled_session,
            session.joiner,
        )

    def _retry_stalled_session(self, joiner: str) -> None:
        node = self.node
        eview = self._evs.eview
        if (
            not node.alive
            or eview is None
            or joiner in self._caught_up_joiners
            or joiner not in eview.view.members
        ):
            return
        # _reconcile re-derives who still needs a session (and whether we
        # are the one to serve it) with all its usual guards; a demotion
        # or completed catch-up in the meantime makes this a no-op.
        self._reconcile(eview, sync_gid=node.last_processed_gid)

    # ------------------------------------------------------------------
    def join_settled(self) -> bool:
        # Under EVS the structural signal can arrive without a transfer
        # session (e.g. nothing needed transferring after creation), and
        # an empty replay queue is all the catch-up it asks for.
        session = self.manager.joiner_session
        return self._creation_source or (session is not None and session.complete)

    # ------------------------------------------------------------------
    # Creation protocol under EVS (total failure / bootstrap)
    # ------------------------------------------------------------------
    def on_creation_source(self, gseq: int) -> None:
        """Elected source: merge every subview-set, transfer to everyone,
        then SubviewMerges form the primary subview and the whole system
        resumes in lockstep."""
        self._creation_source = True
        eview = self._evs.eview
        assert eview is not None
        svs_ids = tuple(sorted(eview.subview_sets(), key=str))
        if len(svs_ids) >= 2:
            self.svs_merges_issued += 1
            self.node.trace(
                "eview", "svs_merge_issued",
                "creation source: merging every subview-set",
            )
            self._evs.subview_set_merge(svs_ids)
        else:
            # Already a single subview-set (the view change itself can
            # pre-merge the structure): the merge request would be a
            # silent no-op at delivery and the e-view change it normally
            # triggers never happens, so reconcile directly to start the
            # companion transfers.
            self._reconcile(eview, sync_gid=gseq)

    def on_activated(self) -> None:
        self._creation_source = False
