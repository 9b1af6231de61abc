"""Test-side mutations: how the checkers and monitors are proven
non-vacuous without a switch in production code.

Each helper monkeypatches **one** method so that one site (or, for
``no_dedup`` and the delivery quorum, every site) misbehaves in one
precise way; the test then
asserts that the checker whose job it is to notice does notice.
``src/repro`` has no sabotage flag, config field, environment variable
or node attribute: a run is mutated from here or not at all.

Victims are found at call time, through the receiver: a campaign builds
its cluster inside ``run()``, and ``node.recover()`` rebuilds
``node.db``, so the helpers here take a site *name* (:func:`at_site`)
and a test holding a cluster may also pass an identity predicate such as
``lambda db: db is cluster.nodes["S2"].db`` to :func:`patch_where`.

A monkeypatch lives in this interpreter.  Everything that runs a mutated
campaign does so at ``jobs=1``, where :func:`repro.fleet.run_fleet` runs
inline; a spawned worker would import the unmutated code.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import audit
from repro.db.outcomes import OutcomeTable
from repro.gcs.total_order import ViewTotalOrder
from repro.reconfig.manager import BaseReconfigManager
from repro.reconfig.transfer import PeerTransferSession
from repro.replication.node import SiteStatus
from repro.sim.core import Simulator


def patch_where(monkeypatch, cls, method: str, is_victim, mutant) -> None:
    """Replace ``cls.method`` by ``mutant(real, self, *args)`` for the
    receivers ``is_victim(self)`` picks — asked at every call — and leave
    everyone else with the real method."""
    real = getattr(cls, method)

    def patched(self, *args, **kwargs):
        if is_victim(self):
            return mutant(real, self, *args, **kwargs)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cls, method, patched)


def at_site(site: str):
    """Victim predicate: the receiver is the node at ``site``, or holds
    it as ``.node`` (managers, sessions)."""
    return lambda receiver: getattr(receiver, "node", receiver).site_id == site


def no_dedup(monkeypatch) -> None:
    """*No dedup*: the replicated outcome table never recognises a
    resubmission, so a request retried after an in-doubt failover
    executes again.  Killed by ``check_exactly_once``."""
    monkeypatch.setattr(OutcomeTable, "is_duplicate",
                        lambda table, request: False)


def skip_outcome_merge(monkeypatch, site: str) -> None:
    """*One site skips the outcome merge*: at transfer completion
    ``site`` keeps its own outcome table instead of adopting the peer's,
    so it replays with a stale dedup view and decides differently.
    Killed by ``check_decision_agreement`` at the next quiescent sweep."""

    def keep_own_table(real, manager, msg):
        real(manager, replace(msg, outcomes=manager.node.db.outcomes.rows()))

    patch_where(monkeypatch, BaseReconfigManager, "_on_transfer_complete",
                at_site(site), keep_own_table)


def skip_first_replayed_gid(monkeypatch, site: str) -> list:
    """*One joiner skips its first replayed gid*: the first message
    ``site`` would replay above its transfer baseline vanishes from the
    queue (what a superseding offer did to the in-flight replay step
    before PR 21).  Returns the list the skipped gid is appended to.
    Killed by the activation monitor, at the activation."""
    skipped: list = []

    def drop_the_head(real, manager):
        if not skipped:
            baseline = manager.node.db.baseline_gid
            live = [entry for entry in manager.enqueued if entry[0] > baseline]
            if live:
                manager.enqueued.remove(live[0])
                skipped.append(live[0][0])
        real(manager)

    patch_where(monkeypatch, BaseReconfigManager, "_replay_next",
                at_site(site), drop_the_head)
    return skipped


def discard_until_the_offer(monkeypatch, site: str) -> list:
    """*One site discards past its synchronization point*: when an
    up-to-date marker turns ``site`` from SUSPENDED to RECOVERING it does
    not start enqueueing, so what is delivered until its transfer offer
    arrives is lost (the logless backend before PR 23, whose copy of the
    marker rule tested the status before flipping it).  Returns the list
    the markers' gids are appended to.  Killed by the activation monitor."""
    markers: list = []

    def forget_to_enqueue(real, manager, sites, gseq):
        was_suspended = manager.node.status is SiteStatus.SUSPENDED
        real(manager, sites, gseq)
        if was_suspended and manager.node.status is SiteStatus.RECOVERING:
            manager.enqueue_mode = False
            markers.append(gseq)

    patch_where(monkeypatch, BaseReconfigManager, "_became_up_to_date",
                at_site(site), forget_to_enqueue)
    return markers


def capture_at_transmit(monkeypatch) -> None:
    """*The peer captures after the release*: every peer reads each
    object when its batch leaves, not when the object's read lock is
    granted — what a lock held only until capture must not be paired
    with.  A writer granted in between leaks a version above the
    boundary into the joiner; replay re-applies the same write, so the
    replicas still converge.  Killed by ``check_installed_state``."""
    real = PeerTransferSession._transmit_batch

    def read_now(session, items):
        real(session, tuple((obj, *session.db.store.read(obj))
                            for obj, _value, _version in items))

    monkeypatch.setattr(PeerTransferSession, "_transmit_batch", read_now)


def delivery_quorum_one_too_small(monkeypatch) -> None:
    """*The delivery quorum is one too small*: a primary view of n
    members delivers what ⌊n/2⌋ of them hold instead of ⌊n/2⌋ + 1, while
    the next view's direct-member rule still counts on the right quorum,
    so a delivery can miss every member the next view trusts.  Killed by
    ``check_gid_consistency``."""
    real = ViewTotalOrder.__init__

    def init(self, *args, **kwargs):
        real(self, *args, **kwargs)
        if self.quorum < len(self.view.members):
            self.quorum -= 1

    monkeypatch.setattr(ViewTotalOrder, "__init__", init)


def reseed_second_run(monkeypatch, offset: int = 100003) -> None:
    """*Second determinism run re-seeded*: variant ``b`` of every audit
    case runs on a simulator seeded ``offset`` higher, so the audit's two
    "identical" runs are genuinely different simulations.  Killed by the
    determinism audit (``run_audit`` must report a divergence)."""
    real_execute, real_init = audit.execute_variant, Simulator.__init__

    def execute_variant(case_id, variant, materials=False):
        if variant != "b":
            return real_execute(case_id, variant, materials=materials)
        with pytest.MonkeyPatch.context() as second_run:
            second_run.setattr(
                Simulator, "__init__",
                lambda sim, seed=0: real_init(sim, seed + offset))
            return real_execute(case_id, variant, materials=materials)

    monkeypatch.setattr(audit, "execute_variant", execute_variant)
