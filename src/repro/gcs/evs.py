"""Enriched View Synchrony (EVS), section 5.1 of the paper.

EVS replaces the view by the *e-view*: a view whose members are grouped
into non-overlapping **subviews**, which are in turn grouped into
non-overlapping **subview-sets**.  Two properties matter to the
reconfiguration algorithms:

* the structure is maintained across view changes (a node that leaves
  and re-enters is still in its own subview and subview-set);
* structure changes (**e-view changes**) are requested explicitly by
  the application through ``Subview-SetMerge`` and ``SubviewMerge`` and
  are delivered totally ordered with respect to application messages.

Implementation: every node carries a (subview id, subview-set id) pair.
The pair travels in the flush state during view changes, so all members
of a view agree on the grouping; merge requests are ordinary totally
ordered multicasts whose delivery rewrites the ids deterministically
(the new id embeds the global sequence number of the merge message, so
all members compute the same id).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Protocol, Tuple

from repro.gcs.config import GCSConfig
from repro.gcs.member import GroupMember
from repro.gcs.messages import EvsRequest
from repro.gcs.view import View
from repro.net.network import Network
from repro.sim.core import Simulator

SubviewId = Tuple[Any, ...]


class EView:
    """An enriched view: a view plus its subview / subview-set structure."""

    def __init__(
        self,
        view: View,
        sv_of: Dict[str, SubviewId],
        svs_of: Dict[str, SubviewId],
    ) -> None:
        self.view = view
        self._sv_of = dict(sv_of)
        self._svs_of = dict(svs_of)

    # -- structure queries ---------------------------------------------
    @property
    def members(self) -> Tuple[str, ...]:
        return self.view.members

    def subview_id_of(self, node: str) -> SubviewId:
        return self._sv_of[node]

    def subview_set_id_of(self, node: str) -> SubviewId:
        return self._svs_of[node]

    def subview_of(self, node: str) -> FrozenSet[str]:
        sv = self._sv_of[node]
        return frozenset(n for n in self.members if self._sv_of[n] == sv)

    def subview_set_of(self, node: str) -> FrozenSet[str]:
        """All nodes whose subview belongs to the node's subview-set."""
        svs = self._svs_of[node]
        return frozenset(n for n in self.members if self._svs_of[n] == svs)

    def subviews(self) -> Dict[SubviewId, FrozenSet[str]]:
        result: Dict[SubviewId, set] = {}
        for node in self.members:
            result.setdefault(self._sv_of[node], set()).add(node)
        return {k: frozenset(v) for k, v in result.items()}

    def subview_sets(self) -> Dict[SubviewId, FrozenSet[str]]:
        result: Dict[SubviewId, set] = {}
        for node in self.members:
            result.setdefault(self._svs_of[node], set()).add(node)
        return {k: frozenset(v) for k, v in result.items()}

    def primary_subview(self, universe_size: int) -> Optional[FrozenSet[str]]:
        """The subview holding a majority of the universe, if any."""
        for members in self.subviews().values():
            if 2 * len(members) > universe_size:
                return members
        return None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EView)
            and self.view == other.view
            and self._sv_of == other._sv_of
            and self._svs_of == other._svs_of
        )

    def __repr__(self) -> str:
        sets = []
        for svs_id, nodes in sorted(self.subview_sets().items(), key=lambda kv: sorted(kv[1])):
            inner = sorted(
                {self._sv_of[n] for n in nodes},
                key=lambda sv: sorted(m for m in nodes if self._sv_of[m] == sv),
            )
            parts = [
                "{" + ",".join(sorted(m for m in nodes if self._sv_of[m] == sv)) + "}"
                for sv in inner
            ]
            sets.append("[" + " ".join(parts) + "]")
        return f"EView({self.view.view_id}: {' '.join(sets)})"


class EnrichedApplication(Protocol):
    """Interface for applications running above the EVS layer."""

    def on_eview_change(
        self,
        eview: EView,
        reason: str,
        states: Dict[str, Dict[str, Any]],
        gseq: Optional[int] = None,
    ) -> None:
        """Structure changed.  ``reason`` is ``view_change``,
        ``subview_set_merge`` or ``subview_merge``; for the merge events
        ``gseq`` is the global sequence number of the merge message,
        which reconfiguration uses as its synchronization point."""

    def on_message(self, sender: str, payload: Any, gseq: int) -> None:
        """Application multicast delivered in total order."""

    def flush_state(self) -> Dict[str, Any]:
        """Opaque state contributed to view changes."""


class EnrichedGroupMember:
    """EVS layer wrapping a :class:`GroupMember`.

    Exposes the same multicast/crash/recover API plus the two e-view
    change primitives of the paper: :meth:`subview_set_merge` and
    :meth:`subview_merge`.
    """

    STATE_KEY = "evs"

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: str,
        universe: Tuple[str, ...],
        config: Optional[GCSConfig] = None,
        app: Optional[EnrichedApplication] = None,
    ) -> None:
        self.node_id = node_id
        self.app = app
        # All-ack delivery in every view: quorum delivery broke decision
        # agreement and replica convergence in EVS chaos storms
        # (DESIGN.md, "Quorum-stable delivery").
        self.member = GroupMember(sim, network, node_id, universe, config, app=self,
                                  quorum_delivery=False)
        self.sv_id: SubviewId = ("sv", node_id, 0)
        self.svs_id: SubviewId = ("svs", node_id, 0)
        self._incarnation = 0
        self.eview: Optional[EView] = None
        self.eviews_installed: List[EView] = []

    # ------------------------------------------------------------------
    # Pass-through lifecycle / messaging API
    # ------------------------------------------------------------------
    @property
    def sim(self) -> Simulator:
        return self.member.sim

    @property
    def alive(self) -> bool:
        return self.member.alive

    @property
    def universe(self) -> Tuple[str, ...]:
        return self.member.universe

    @property
    def view(self) -> View:
        return self.member.view

    def start(self) -> None:
        self._incarnation += 1
        self.sv_id = ("sv", self.node_id, self._incarnation)
        self.svs_id = ("svs", self.node_id, self._incarnation)
        self.member.start()

    def crash(self) -> None:
        self.member.crash()

    def multicast(self, payload: Any) -> int:
        return self.member.multicast(payload)

    def cancel_pending(self) -> int:
        return self.member.cancel_pending()

    def is_primary(self) -> bool:
        return self.member.is_primary()

    def in_primary_subview(self) -> bool:
        """Transaction processing is allowed only here (section 5.2)."""
        if self.eview is None:
            return False
        primary = self.eview.primary_subview(len(self.universe))
        return primary is not None and self.node_id in primary

    # ------------------------------------------------------------------
    # EVS primitives (section 5.1)
    # ------------------------------------------------------------------
    def subview_set_merge(self, svs_ids: Tuple[SubviewId, ...]) -> None:
        """Request the merge of the given subview-sets into a new one."""
        self.member.multicast(EvsRequest(kind="subview_set_merge", targets=tuple(svs_ids)))

    def subview_merge(self, sv_ids: Tuple[SubviewId, ...]) -> None:
        """Request the merge of the given subviews (same subview-set)."""
        self.member.multicast(EvsRequest(kind="subview_merge", targets=tuple(sv_ids)))

    # ------------------------------------------------------------------
    # GroupApplication callbacks from the underlying member
    # ------------------------------------------------------------------
    def flush_state(self) -> Dict[str, Any]:
        state: Dict[str, Any] = {}
        if self.app is not None:
            state.update(self.app.flush_state())
        state[self.STATE_KEY] = {
            "sv": self.sv_id,
            "svs": self.svs_id,
            "pv": self.member.view.view_id,
        }
        return state

    def on_view_change(self, view: View, states: Dict[str, Dict[str, Any]]) -> None:
        # Fragmenting rule: nodes stay in the same subview across a view
        # change only if they were in the same subview *and* installed the
        # same previous view.  A subview split across concurrent views thus
        # yields distinct fragments — a node that left and re-enters is back
        # "in its own subview and subview-set" (paper, Figure 2), it does
        # not silently rejoin the primary subview.
        claims: Dict[str, Dict[str, Any]] = {}
        for node in view.members:
            claim = states.get(node, {}).get(self.STATE_KEY)
            if claim is None:
                # Should not happen (every participant flushes), but a
                # deterministic singleton default keeps all members agreed.
                claim = {"sv": ("sv", node, -1), "svs": ("svs", node, -1), "pv": None}
            claims[node] = dict(claim)
        # The claims are flush-time snapshots, but merge requests keep
        # being delivered between a member's flush reply and the
        # installation (via the SYNC union).  A merge landing in that
        # window is invisible to (some of) the claims, and a structurally
        # merged majority would wrongly fragment apart — triggering a
        # spurious creation protocol and a cluster-wide outage.  Replay
        # the union's requests over the claims: the gseq-embedded merge
        # ids make the replay idempotent for claims that already reflect
        # them, and every installer computes the same result from the
        # same SYNC.
        self._replay_sync_requests(view, claims)

        def fragment_ids(key: str, tag: str) -> Dict[str, SubviewId]:
            groups: Dict[Any, List[str]] = {}
            for node in view.members:
                groups.setdefault((claims[node][key], claims[node]["pv"]), []).append(node)
            ids: Dict[str, SubviewId] = {}
            for (old_id, prev_view), nodes in groups.items():
                epoch = prev_view.epoch if prev_view is not None else -1
                coord = prev_view.coordinator if prev_view is not None else "?"
                fragment_id: SubviewId = (tag, epoch, coord, min(nodes))
                for node in nodes:
                    ids[node] = fragment_id
            return ids

        sv_of = fragment_ids("sv", "sv")
        svs_of = fragment_ids("svs", "svs")
        self.sv_id = sv_of[self.node_id]
        self.svs_id = svs_of[self.node_id]
        self.eview = EView(view, sv_of, svs_of)
        self.eviews_installed.append(self.eview)
        if self.app is not None:
            self.app.on_eview_change(self.eview, "view_change", states, None)

    def _replay_sync_requests(self, view: View, claims: Dict[str, Dict[str, Any]]) -> None:
        """Apply the SYNC union's EVS requests on top of the flush-time
        structure claims, per previous-view group, in gseq order."""
        unions = self.member.sync_unions
        by_pv: Dict[Any, List[str]] = {}
        for node in view.members:
            by_pv.setdefault(claims[node]["pv"], []).append(node)
        for pv, nodes in by_pv.items():
            if pv is None:
                continue
            for ordered in unions.get(pv, ()):
                request, gseq = ordered.payload, ordered.gseq
                if not isinstance(request, EvsRequest):
                    continue
                if request.kind == "subview_set_merge":
                    key, new_id = "svs", ("svsm", gseq)
                elif request.kind == "subview_merge":
                    key, new_id = "sv", ("svm", gseq)
                else:
                    continue
                held = {claims[n][key] for n in nodes}
                targets = [t for t in request.targets if t in held]
                # A claim already carrying the gseq-embedded id proves the
                # request applied at delivery (some members flushed after
                # delivering it); otherwise require two live targets, like
                # the delivery-time validity check.
                applied = new_id in held
                if not applied and len(targets) < 2:
                    continue
                if key == "sv" and not applied:
                    owners = {
                        claims[n]["svs"] for n in nodes if claims[n]["sv"] in targets
                    }
                    if len(owners) != 1:
                        continue
                for n in nodes:
                    if claims[n][key] in targets:
                        claims[n][key] = new_id

    def on_message(self, sender: str, payload: Any, gseq: int) -> None:
        if isinstance(payload, EvsRequest):
            self._apply_request(payload, gseq)
            return
        if self.app is not None:
            self.app.on_message(sender, payload, gseq)

    def on_primary_demoted(self) -> None:
        """Stale-view demotion from the underlying member (section 2.1)."""
        if self.app is not None:
            handler = getattr(self.app, "on_primary_demoted", None)
            if handler is not None:
                handler()

    # ------------------------------------------------------------------
    def _apply_request(self, request: EvsRequest, gseq: int) -> None:
        assert self.eview is not None
        if request.kind == "subview_set_merge":
            existing = set(self.eview.subview_sets())
            targets = [t for t in request.targets if t in existing]
            if len(targets) < 2:
                return
            new_id: SubviewId = ("svsm", gseq)
            svs_of = {
                node: (new_id if self.eview.subview_set_id_of(node) in targets
                       else self.eview.subview_set_id_of(node))
                for node in self.eview.members
            }
            sv_of = {node: self.eview.subview_id_of(node) for node in self.eview.members}
            reason = "subview_set_merge"
        elif request.kind == "subview_merge":
            existing_svs = self.eview.subviews()
            targets = [t for t in request.targets if t in existing_svs]
            if len(targets) < 2:
                return
            # All merged subviews must belong to the same subview-set.
            owners = set()
            for target in targets:
                for node in existing_svs[target]:
                    owners.add(self.eview.subview_set_id_of(node))
            if len(owners) != 1:
                return
            new_id = ("svm", gseq)
            sv_of = {
                node: (new_id if self.eview.subview_id_of(node) in targets
                       else self.eview.subview_id_of(node))
                for node in self.eview.members
            }
            svs_of = {node: self.eview.subview_set_id_of(node) for node in self.eview.members}
            reason = "subview_merge"
        else:
            return
        if self.node_id in sv_of:
            self.sv_id = sv_of[self.node_id]
            self.svs_id = svs_of[self.node_id]
        self.eview = EView(self.eview.view, sv_of, svs_of)
        self.eviews_installed.append(self.eview)
        if self.app is not None:
            self.app.on_eview_change(self.eview, reason, {}, gseq)
