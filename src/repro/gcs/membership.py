"""Coordinator-driven view-synchronous membership.

A *membership round* replaces the current view(s) of a set of nodes with
one new view, preserving virtual synchrony:

* **PROPOSE** — the initiator (deterministically, the smallest node id
  among the mutually reachable alive nodes) proposes a composition.
* **FLUSH** — every proposed member freezes message delivery and replies
  with its delivered prefix and every sequenced-but-undelivered message
  it holds, plus opaque per-layer application state.
* **SYNC** — the initiator merges, per previous view, the union of the
  reported messages; every participant delivers the gap-free
  continuation of that union (so all installers of the new view have
  delivered the same set in the old view — virtual synchrony), then
  installs the new view with an agreed ``base_gseq`` (the maximum
  continuation counter among participants, which keeps global sequence
  numbers monotone across consecutive views).

Failure handling: the initiator abandons a round when FLUSH replies are
missing past a timeout (force-suspecting the silent nodes and retrying
with a higher epoch); participants abandon a round when SYNC does not
arrive and resume their previous view.  Competing rounds are resolved by
round priority (higher epoch wins, ties broken toward the smaller
initiator id) with explicit NACKs.

Rounds are started and abandoned only by :meth:`MembershipEngine.decide`,
which runs whenever one of its inputs changes — a beacon heard or sent,
which is also when a suspicion falls due — and at the instants the join
wait or a round deadline ends; never on a period.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.gcs.messages import (
    FlushNack,
    FlushReply,
    Ordered,
    Propose,
    RoundAbort,
    RoundId,
    Sync,
    round_priority,
)
from repro.gcs.primary import PrimaryLineage, is_primary, most_recent
from repro.gcs.view import View, ViewId
from repro.sim.core import Event
from repro.sim.process import delay_until

if TYPE_CHECKING:  # pragma: no cover
    from repro.gcs.member import GroupMember


class MembershipEngine:
    """Runs membership rounds for one :class:`GroupMember`."""

    def __init__(self, member: "GroupMember") -> None:
        self.member = member
        self.current_round: Optional[RoundId] = None
        self.initiating = False
        self._round_members: Tuple[str, ...] = ()
        self._flushes: Dict[str, FlushReply] = {}
        self._flush_deadline = 0.0
        self._sync_deadline = 0.0
        self._mismatch_since: Optional[float] = None
        self._wake: Optional[Event] = None
        self.rounds_initiated = 0
        self.rounds_completed = 0
        self.rounds_aborted = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        self.current_round = None
        self.initiating = False
        self._round_members = ()
        self._flushes = {}
        self._mismatch_since = None
        self._wake = None  # cancelled with the member's other events

    # ------------------------------------------------------------------
    # The decision and its wake-up
    # ------------------------------------------------------------------
    def decide(self) -> None:
        """Take the membership decision that is due now, and arm the
        wake-up for the earliest instant it can next change.

        Called when an input changes — a beacon heard or sent, the end
        of a view installation, an aborted or resumed round — and by the
        wake-up itself at the end of the join wait, flush deadline or
        sync deadline; never on a period."""
        member = self.member
        if self.current_round is not None:
            now = member.sim.now
            if self.initiating:
                # Waiting out the full flush timeout for a member the
                # failure detector has already given up on only extends
                # the delivery freeze — a crashed joiner will never
                # reply, so abandon the round as soon as it is suspected.
                alive = member.fd.alive_nodes() | {member.node_id}
                pending = [n for n in self._round_members if n not in self._flushes]
                if now >= self._flush_deadline or any(n not in alive for n in pending):
                    for node in pending:
                        member.fd.force_suspect(node)
                    self._abort_round()
                else:
                    self._arm_deadline(self._flush_deadline)
            elif now >= self._sync_deadline:
                self._abort_round()
            else:
                self._arm_deadline(self._sync_deadline)
        if self.current_round is None:
            self._maybe_initiate()

    def _arm_deadline(self, deadline: float) -> None:
        now = self.member.sim.now
        self._arm(delay_until(now, deadline, lambda t: t >= deadline))

    def _arm(self, delay: float) -> None:
        """Wake at ``now + delay`` unless an earlier wake-up is armed.

        One owned timer serves every condition: waking before one falls
        due only re-evaluates and re-arms, and a crash cancels it."""
        member = self.member
        wake = self._wake
        if wake is not None and not wake.cancelled:
            if wake.time <= member.sim.now + delay:
                return
            wake.cancel()
        self._wake = member.after(delay, self._on_wake)

    def _on_wake(self) -> None:
        self._wake = None
        self.decide()

    def _maybe_initiate(self) -> None:
        """Start a round once the view differs from what the failure
        detector sees, and the difference has had time to settle.

        A removal — the alive set a strict subset of the view, every
        remaining member advertising this view — starts at once: a crash
        has already cost its detection.  It waits, at most one
        ``presence_interval``, while another alive node is one beacon
        from suspicion (a partition's suspicions spread over one beacon
        period).  Every other mismatch — a newcomer, a foreign or stale
        view claim — waits one ``presence_interval`` from when it
        appeared (the join wait): every beacon of a concurrent restart
        or merge arrives within one period."""
        member = self.member
        fd = member.fd
        view_id = member.view.view_id
        desired = fd.alive_nodes() | {member.node_id}
        view_members = set(member.view.members)
        claims = [fd.claimed_view(n) for n in desired if n != member.node_id]
        if desired == view_members and all(c in (None, view_id) for c in claims):
            self._mismatch_since = None
            return
        if member.node_id != min(desired):
            self._mismatch_since = None
            return
        now = member.sim.now
        if self._mismatch_since is None:
            self._mismatch_since = now
        since = self._mismatch_since
        window = member.config.presence_interval
        removal = desired < view_members and all(c == view_id for c in claims)
        if (fd.suspicion_due_within(since + window - now) if removal
                else now - since < window):
            self._arm(delay_until(now, since + window, lambda t: t - since >= window))
            return
        self._initiate(tuple(sorted(desired)))

    def _initiate(self, members: Tuple[str, ...]) -> None:
        member = self.member
        epoch = max(member.epoch_floor, member.fd.max_epoch_seen) + 1
        round_id: RoundId = (epoch, member.node_id)
        self.current_round = round_id
        self.initiating = True
        self._round_members = members
        self._flushes = {}
        self._flush_deadline = member.sim.now + member.config.flush_timeout
        self._arm_deadline(self._flush_deadline)
        self._mismatch_since = None
        self.rounds_initiated += 1
        propose = Propose(round_id=round_id, members=members)
        for node in members:
            if node == member.node_id:
                self.on_propose(node, propose)
            else:
                member.endpoint.send(node, propose)

    def _abort_round(self) -> None:
        member = self.member
        self.rounds_aborted += 1
        if self.initiating and self.current_round is not None:
            # Unfreeze the participants right away: without this they sit
            # blocked until their own round_timeout expires, and repeated
            # aborted rounds (a flapping joiner) starve the surviving
            # majority of message delivery for seconds at a time.
            abort = RoundAbort(round_id=self.current_round)
            for node in self._round_members:
                if node != member.node_id:
                    member.endpoint.send(node, abort)
        self.current_round = None
        self.initiating = False
        self._round_members = ()
        self._flushes = {}
        self._mismatch_since = None
        member.resume_after_aborted_round()

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------
    def on_propose(self, src: str, msg: Propose) -> None:
        member = self.member
        if member.node_id not in msg.members:
            return
        member.fd.note_epoch(msg.round_id[0])
        installed = member.view.view_id
        if round_priority(msg.round_id) <= round_priority(
            (installed.epoch, installed.coordinator)
        ):
            # Stale PROPOSE: the round is not beyond the view we already
            # installed — typically a duplicated copy of the very round
            # that produced this view, arriving after its SYNC.  Joining
            # it would freeze the installed view's delivery for a full
            # round_timeout waiting on a SYNC that never comes (the
            # initiator drops replies for rounds it is not running), so
            # refuse and point the sender at the installed view instead.
            if msg.round_id[1] != member.node_id:
                member.endpoint.send(
                    msg.round_id[1],
                    FlushNack(
                        round_id=msg.round_id,
                        sender=member.node_id,
                        better_round=(installed.epoch, installed.coordinator),
                    ),
                )
            return
        if self.current_round is not None and self.current_round != msg.round_id:
            if round_priority(self.current_round) >= round_priority(msg.round_id):
                reply = FlushNack(
                    round_id=msg.round_id,
                    sender=member.node_id,
                    better_round=self.current_round,
                )
                if msg.round_id[1] == member.node_id:
                    self.on_flush_nack(member.node_id, reply)
                else:
                    member.endpoint.send(msg.round_id[1], reply)
                return
            # The incoming round wins: abandon ours and join it.  The
            # abandoned round must not limp on without us — if we
            # initiated it, release its frozen participants; if we
            # already FLUSH-replied to it, retract the reply, or its
            # initiator may complete the round with our stale reply and
            # install, alone, a view we will never join (a phantom
            # primary forking the global sequence).
            old_round = self.current_round
            if self.initiating:
                abort = RoundAbort(round_id=old_round)
                for node in self._round_members:
                    if node != member.node_id:
                        member.endpoint.send(node, abort)
            elif old_round[1] != member.node_id:
                retraction = FlushNack(
                    round_id=old_round,
                    sender=member.node_id,
                    better_round=msg.round_id,
                )
                member.endpoint.send(old_round[1], retraction)
            self.current_round = None
            self.initiating = False
            self._round_members = ()
            self._flushes = {}
        if self.current_round == msg.round_id and not self.initiating:
            return  # duplicate PROPOSE
        if not self.initiating or self.current_round != msg.round_id:
            self.current_round = msg.round_id
            self._sync_deadline = member.sim.now + member.config.round_timeout
            self._arm_deadline(self._sync_deadline)
        self._freeze_and_reply(msg.round_id)

    def _freeze_and_reply(self, round_id: RoundId) -> None:
        member = self.member
        member.freeze_for_flush()
        reply = FlushReply(
            round_id=round_id,
            sender=member.node_id,
            prev_view=member.view,
            delivered_seq=member.to.delivered_seq,
            next_gseq=member.to.next_gseq,
            received=member.to.flush_cut(),
            app_state=member.collect_flush_state(),
            stable_seq=member.to.stable_seq,
            lineage=member.lineage,
        )
        initiator = round_id[1]
        if initiator == member.node_id:
            self.on_flush_reply(member.node_id, reply)
        else:
            member.endpoint.send(initiator, reply)

    def on_flush_reply(self, src: str, msg: FlushReply) -> None:
        if not self.initiating or msg.round_id != self.current_round:
            return
        self._flushes[msg.sender] = msg
        if set(self._flushes) == set(self._round_members):
            self._complete_round()

    def on_flush_nack(self, src: str, msg: FlushNack) -> None:
        # Learn the refusing side's epoch either way, so our next attempt
        # proposes an epoch beyond whatever beat us.
        self.member.fd.note_epoch(msg.better_round[0])
        if self.initiating and msg.round_id == self.current_round:
            self._abort_round()
            self.decide()

    def on_round_abort(self, src: str, msg: RoundAbort) -> None:
        """The initiator abandoned the round we are frozen for: resume
        the previous view now rather than waiting for the sync timeout.
        Only the round's own initiator may abort it, and an abort for any
        other round (stale, already superseded) is ignored."""
        if self.initiating or msg.round_id != self.current_round:
            return
        if src != msg.round_id[1]:
            return
        self.current_round = None
        self._round_members = ()
        self._flushes = {}
        self.member.resume_after_aborted_round()
        self.decide()

    def _complete_round(self) -> None:
        member = self.member
        round_id = self.current_round
        assert round_id is not None
        epoch, initiator = round_id
        new_view = View(ViewId(epoch, initiator), self._round_members)

        # Group flush replies by previous view and merge message unions.
        groups: Dict[ViewId, List[FlushReply]] = {}
        for reply in self._flushes.values():
            groups.setdefault(reply.prev_view.view_id, []).append(reply)

        # Primacy under the configured policy, from the collected lineage
        # claims (section 2.1: static majority, or majority of the
        # previous primary view).
        claims = [reply.lineage for reply in self._flushes.values()]
        new_view_primary = is_primary(
            member.config.primary_policy, new_view.members,
            len(member.universe), claims)
        best = most_recent(claims)
        if new_view_primary:
            generation = (best.generation + 1) if best is not None else 1
            new_lineage = PrimaryLineage(generation, new_view.members)
        else:
            new_lineage = best
        # The direct-member rule (:meth:`_carries_lineage`): a flush that
        # cannot vouch for what the newest primary view delivered leaves
        # nobody up to date, and delivers no union beyond a quorum cut.
        vouched = best is None or self._carries_lineage(best)
        sync_messages: Dict[ViewId, Tuple[Ordered, ...]] = {}
        base_gseq = 0
        final_gseq: Dict[str, int] = {}
        for view_id, replies in groups.items():
            union: Dict[int, Ordered] = {}
            for reply in replies:
                for ordered in reply.received:
                    union[ordered.seq] = ordered
            generation = max(
                (reply.lineage.generation for reply in replies if reply.lineage),
                default=0,
            )
            superseded = best is not None and generation < best.generation
            if (not new_view_primary or superseded or not vouched) and member.config.uniform:
                # Uniformity adaptation (section 2.1): a flush into a
                # non-primary view may only deliver messages the previous
                # view's delivery quorum provably holds — what some member
                # may have delivered anyway — so the deliveries of sites
                # leaving the primary component stay a subset of the next
                # primary view's.  The same holds for a previous view
                # whose lineage a later primary view already continued
                # without these members, and for every previous view when
                # the flush cannot vouch for the newest one: an
                # undeliverable tail may sit at gseqs another view used
                # (a coordinator that alone installed a primary view its
                # members had abandoned flushes its own tail here).
                stable_cut = max(reply.stable_seq for reply in replies)
                union = {s: m for s, m in union.items() if s <= stable_cut}
            ordered_union = tuple(union[s] for s in sorted(union))
            sync_messages[view_id] = ordered_union
            for reply in replies:
                base_gseq = max(base_gseq, reply.next_gseq)
                # Walk the union from this member's delivered prefix to
                # find the gseq it will have after applying SYNC.
                seq = reply.delivered_seq
                gseq = reply.next_gseq
                while seq + 1 in union:
                    seq += 1
                    gseq = union[seq].gseq + 1
                final_gseq[reply.sender] = gseq
                base_gseq = max(base_gseq, gseq)

        stale = tuple(sorted(
            sender for sender, gseq in final_gseq.items() if gseq < base_gseq))
        if new_view_primary and not vouched:
            stale = new_view.members
        states = {reply.sender: reply.app_state for reply in self._flushes.values()}
        sync = Sync(
            round_id=round_id,
            view=new_view,
            base_gseq=base_gseq,
            sync_messages=sync_messages,
            states=states,
            primary=new_view_primary,
            lineage=new_lineage,
            stale=stale,
        )
        self.rounds_completed += 1
        # Ship SYNC to the remote members *before* processing our own:
        # installing the view locally resubmits pending messages, which
        # then leave after SYNC.  On jittered links they can still
        # overtake it; a member frozen in this round holds them until it
        # installs (``GroupMember._hold``).
        for node in self._round_members:
            if node != member.node_id:
                member.endpoint.send(node, sync)
        self.on_sync(member.node_id, sync)

    def _carries_lineage(self, newest: PrimaryLineage) -> bool:
        """The direct-member rule: does this round's flush hold
        everything the newest primary view V delivered?

        A message V delivered is held by a delivery quorum of q(V) of
        its members, but a member's flush carries it only if the member
        replies straight out of V: a recovered incarnation lost its
        buffer, and one that passed through a non-primary view delivered
        a trimmed union.  Any |V| − q(V) + 1 such direct members meet
        every q(V)-set; with fewer, the round marks every member stale,
        and the replication layer compares logs instead."""
        size = len(newest.members)
        direct = sum(
            1 for reply in self._flushes.values()
            if reply.lineage == newest and reply.prev_view.members == newest.members
        )
        return direct > size - self.member.delivery_quorum(size, primary=True)

    def on_sync(self, src: str, msg: Sync) -> None:
        member = self.member
        if msg.round_id != self.current_round:
            return
        self.current_round = None
        self.initiating = False
        self._flushes = {}
        self._round_members = ()
        union = msg.sync_messages.get(member.view.view_id, ())
        member.to.deliver_sync(union)
        member.stale_members = msg.stale
        member.sync_unions = msg.sync_messages
        member.install_view(msg.view, msg.base_gseq, msg.states,
                            primary=msg.primary, lineage=msg.lineage)
