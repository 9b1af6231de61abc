"""Logless reconfiguration: config as replicated state (arXiv:2102.11960).

MongoDB's dynamic reconfiguration stores the active configuration as an
ordinary replicated object — a member set plus a version counter —
instead of writing dedicated membership entries into the log.  This
module reproduces that idea on top of the paper's machinery:

* The configuration is a :class:`ReplicatedConfig` value held in
  volatile state on every site and re-learned from view-change flush
  states after a crash (the max version among the flushed copies wins —
  a site can only ever hold a *prefix* of the group's config history, so
  the maximum is the group's current config).
* Changes travel as :class:`~repro.replication.messages.ConfigChange`
  messages in the uniform total-order stream and apply with a
  compare-and-swap on the version: ``base_version`` must equal the
  current version or the proposal is stale and discarded — everywhere,
  deterministically, because every site sees the same message sequence.
* There are **no membership log entries**: delivered config writes are
  recorded as no-ops exactly like the vs backend records announcements,
  so the gid stream stays aligned across backends and the transfer
  strategies' ``sync_gid`` reasoning carries over unchanged.

The join protocol becomes: catch up via any transfer strategy (inherited
from :class:`~repro.reconfig.manager.VsReconfigManager` wholesale), then
propose ``add self`` instead of multicasting an
``UpToDateAnnouncement``.  The delivery of that config write is the
ordered synchronization point that authorizes activation — the same
role the vs backend gives the joiner's own announcement delivery.  A
conflicting concurrent change simply bumps the version past the
proposal's base; the joiner observes this (its own discarded proposal is
still delivered to it) and re-proposes against the new version.

Membership hygiene is the *coordinator*'s job: the smallest up-to-date
member of the current view proposes removals for config members that
crashed or went stale.  Removals are not required for safety — an add is
idempotent on membership and still authorizes its subject — they keep
the replicated config an honest mirror of who is actually serving.

After a total failure the creation protocol (section 3, inherited
unchanged) elects the most current site; that source proposes a
``replace`` with itself as the sole member, which flips the remaining
suspended sites to recovering — mirroring how the vs creation source's
announcement does it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.reconfig.manager import BaseReconfigManager, VsReconfigManager
from repro.replication.messages import ConfigChange
from repro.replication.node import SiteStatus


@dataclass(frozen=True)
class ReplicatedConfig:
    """The replicated configuration object: a versioned member set."""

    version: int = 0
    members: Tuple[str, ...] = ()


class LoglessReconfigManager(VsReconfigManager):
    """Reconfiguration via config-as-replicated-state (logless backend).

    Runs on the plain-VS membership layer; everything about transfer
    sessions, enqueue/replay, stall failover and the creation round is
    inherited.  Only the *membership bookkeeping* differs: explicit
    announcements are replaced by CAS'd config writes.
    """

    backend_name = "logless"

    #: Config writes replace the vs announcements, which this backend
    #: never multicasts (and therefore does not route).
    CONTROL_ROUTES = {**BaseReconfigManager.CONTROL_ROUTES,
                      ConfigChange: "on_config_message"}

    def __init__(self, node, strategy) -> None:
        super().__init__(node, strategy)
        self.config = ReplicatedConfig()
        #: Base version of our in-flight write adding ourselves (add-self,
        #: or the creation source's replace), and how many add-self
        #: proposals this join attempt has made.  A join attempt is what
        #: one ``_announce`` starts; both are read only while
        #: ``_announced``, which everything that abandons the attempt
        #: clears.
        self._add_proposed_version: Optional[int] = None
        self._add_attempts = 0
        self.config_proposals_sent = 0
        self.config_changes_applied = 0
        self.config_conflicts = 0

    # ------------------------------------------------------------------
    # Config state: flush, adoption, proposal
    # ------------------------------------------------------------------
    def flush_extra(self) -> Dict[str, Any]:
        return {
            "config_version": self.config.version,
            "config_members": self.config.members,
        }

    def _adopt_flushed_config(self, states: Dict[str, Dict[str, Any]]) -> None:
        """Adopt the highest-version config among the flushed states.

        Any site's volatile copy is a prefix of the group's config
        history (a site that missed deliveries missed config writes
        too), so the maximum version in a flush — which is common
        knowledge at the view change — is the current config."""
        best = self.config
        for state in states.values():
            repl = state.get("repl") or {}
            version = repl.get("config_version")
            if version is not None and version > best.version:
                best = ReplicatedConfig(version, tuple(repl["config_members"]))
        self.config = best

    def _propose(self, add=(), remove=(), replace=None, reason="") -> None:
        self.config_proposals_sent += 1
        # Config writes are this backend's announcements: count them as
        # such so cross-backend metric summaries stay comparable.
        self.announcements_sent += 1
        self.node._multicast(
            ConfigChange(
                proposer=self.node.site_id,
                base_version=self.config.version,
                add=tuple(add),
                remove=tuple(remove),
                replace=None if replace is None else tuple(replace),
                reason=reason,
            )
        )

    def _propose_add_self(self) -> None:
        self._add_proposed_version = self.config.version
        self._add_attempts += 1
        self._propose(add=(self.node.site_id,), reason="join")

    def _maybe_repropose_add(self) -> None:
        """Re-propose add-self after our previous proposal lost a CAS
        race.  Triggered from config deliveries, so a lost race (which
        by definition delivered *some* change) always re-arms it."""
        node = self.node
        if (
            node.status is SiteStatus.RECOVERING
            and self.caught_up
            and self._announced
            and not self.activation_authorized
            and self._add_proposed_version is not None
            and self._add_proposed_version != self.config.version
            and self._add_attempts < node.config.logless_repropose_limit
        ):
            self._propose_add_self()

    # ------------------------------------------------------------------
    # Delivery: the CAS apply rule
    # ------------------------------------------------------------------
    def on_config_message(self, payload: ConfigChange, gseq: int) -> None:
        if payload.base_version != self.config.version:
            self.config_conflicts += 1
            self._maybe_repropose_add()
            return
        if payload.replace is not None:
            members = tuple(sorted(payload.replace))
        else:
            merged = set(self.config.members)
            merged.difference_update(payload.remove)
            merged.update(payload.add)
            members = tuple(sorted(merged))
        self.config = ReplicatedConfig(self.config.version + 1, members)
        self.config_changes_applied += 1
        self._apply_membership_effects(payload, members, gseq)
        self._maybe_repropose_add()

    def _apply_membership_effects(
        self, change: ConfigChange, members: Tuple[str, ...], gseq: int
    ) -> None:
        node = self.node
        me = node.site_id
        for site in change.remove:
            node.site_utd[site] = False
        if change.replace is not None:
            for site in list(node.site_utd):
                if site not in members:
                    node.site_utd[site] = False
        joined = (
            tuple(change.replace) if change.replace is not None else change.add
        )
        if me in joined:
            self._add_proposed_version = None
        # Config membership is the backend's up-to-date set: joining it
        # at ``gseq`` is this backend's up-to-date marker.
        self._became_up_to_date(joined, gseq)
        if (
            node.status is SiteStatus.SUSPENDED
            and members
            and me not in members
        ):
            # A write that adds nobody still leaves a config with serving
            # members: we can recover from them.
            node._set_status(SiteStatus.RECOVERING)

    # ------------------------------------------------------------------
    # Joiner / source hooks (vs announcements replaced by config writes)
    # ------------------------------------------------------------------
    def _announce(self, as_source: bool) -> None:
        self._announced = True
        if as_source:
            self._add_proposed_version = self.config.version
            self._propose(replace=(self.node.site_id,), reason="creation")
        else:
            self._add_attempts = 0  # the re-proposal limit is per join attempt
            self._propose_add_self()

    # ------------------------------------------------------------------
    # View changes: adopt flushed config, then coordinator repair
    # ------------------------------------------------------------------
    def on_view_change(self, view, states: Dict[str, Dict[str, Any]]) -> None:
        self._adopt_flushed_config(states)
        super().on_view_change(view, states)
        self._coordinator_repair(view)

    def _coordinator_repair(self, view) -> None:
        """The smallest up-to-date member reconciles the config with the
        installed view: add serving members the config misses (also the
        bootstrap path — the initial config is empty), drop members that
        left the view or were identified stale by the flush."""
        node = self.node
        if node.status is not SiteStatus.ACTIVE:
            return
        if self._announced and self._add_proposed_version == self.config.version:
            # Our own membership write is in flight on the current
            # version: a repair sequenced first would discard it by CAS.
            # Lost, the creation source's replace flips no suspended
            # site to recovering, and one listed in the config keeps
            # dropping what its transfer needs (chaos --seed 27 --mode
            # logless).  The next view change repairs.
            return
        utd, _joiners = self._split_view(view)
        if not utd or utd[0] != node.site_id:
            return
        current = set(self.config.members)
        add = tuple(s for s in utd if s not in current)
        remove = tuple(
            sorted(
                s
                for s in current
                if s not in view.members or s in node.member.stale_members
            )
        )
        if add or remove:
            self._propose(add=add, remove=remove, reason="repair")

    # ------------------------------------------------------------------
    # Lifecycle: the config is volatile state
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        super().on_crash()
        self.config = ReplicatedConfig()


__all__ = ["LoglessReconfigManager", "ReplicatedConfig"]
