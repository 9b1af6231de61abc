"""Pluggable reconfiguration backends.

A *backend* bundles the two decisions that together define how the
cluster reconfigures itself online:

* which group-communication handle a site runs on (``gcs_factory``):
  a plain virtually synchronous group member, or one wrapped in
  Enriched View Synchrony (section 5.2 of the paper); and
* which reconfiguration manager decides who is up to date and drives
  joins, transfer sessions, activation, and the creation protocol on
  top of it.

Three backends ship today:

``vs``
    The paper's section 5.1 baseline: plain virtual synchrony with
    explicit ``UpToDateAnnouncement`` membership log entries.
``evs``
    The paper's section 5.2 protocol: up-to-dateness is structural
    (primary-subview membership), announcements are replaced by subview
    merges.
``logless``
    Logless reconfiguration in the style of MongoDB (arXiv:2102.11960):
    the active configuration is replicated *state* — a versioned member
    set written through the total-order stream via ``ConfigChange``
    compare-and-swap messages — with no dedicated membership log
    entries.  Joiners catch up via the ordinary transfer strategies and
    activate when the config write that adds them is delivered.

All three expose the same contract (see ``docs/RECONFIG_BACKENDS.md``):
the manager returned by :meth:`ReconfigBackend.make_manager` is a
:class:`repro.reconfig.manager.BaseReconfigManager`, and the full
invariant battery (``repro.checkers.run_all_checks``) must hold on any
of them under the conformance suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class ReconfigBackend:
    """One named reconfiguration strategy: membership layer + manager."""

    name: str
    #: ``(sim, network, site_id, universe, gcs_config, app) -> (handle,
    #: member)``: the object the site starts, crashes and multicasts
    #: through, and the ``GroupMember`` underneath it.
    gcs_factory: Callable
    #: ``(node, strategy) -> BaseReconfigManager``
    manager_factory: Callable
    description: str

    def make_manager(self, node, strategy):
        return self.manager_factory(node, strategy)


def _plain_member(sim, network, site_id, universe, gcs_config, app):
    from repro.gcs.member import GroupMember

    member = GroupMember(sim, network, site_id, universe, gcs_config, app=app)
    return member, member


def _enriched_member(sim, network, site_id, universe, gcs_config, app):
    from repro.gcs.evs import EnrichedGroupMember

    if gcs_config is not None and gcs_config.dynamic_universe:
        raise ValueError(
            "dynamic_universe needs a backend on the plain group member "
            "('vs' or 'logless'): the primary subview of section 5.2 is "
            "defined against a static universe"
        )
    handle = EnrichedGroupMember(sim, network, site_id, universe, gcs_config, app=app)
    return handle, handle.member


def _vs_manager(node, strategy):
    from repro.reconfig.manager import VsReconfigManager

    return VsReconfigManager(node, strategy)


def _evs_manager(node, strategy):
    from repro.reconfig.evs_manager import EvsReconfigManager

    return EvsReconfigManager(node, strategy)


def _logless_manager(node, strategy):
    from repro.reconfig.logless import LoglessReconfigManager

    return LoglessReconfigManager(node, strategy)


_REGISTRY = {
    backend.name: backend
    for backend in (
        ReconfigBackend(
            name="vs",
            gcs_factory=_plain_member,
            manager_factory=_vs_manager,
            description="plain virtual synchrony with explicit "
            "up-to-date announcements (section 5.1)",
        ),
        ReconfigBackend(
            name="evs",
            gcs_factory=_enriched_member,
            manager_factory=_evs_manager,
            description="Enriched View Synchrony: structural "
            "up-to-dateness via subview merges (section 5.2)",
        ),
        ReconfigBackend(
            name="logless",
            gcs_factory=_plain_member,
            manager_factory=_logless_manager,
            description="logless reconfiguration: versioned config as "
            "replicated state in the total-order stream "
            "(arXiv:2102.11960)",
        ),
    )
}

ALL_BACKEND_NAMES = tuple(sorted(_REGISTRY))


def backend_by_name(name: str) -> ReconfigBackend:
    """Look up a backend from its registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


__all__ = [
    "ALL_BACKEND_NAMES",
    "ReconfigBackend",
    "backend_by_name",
]
