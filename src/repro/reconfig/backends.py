"""Pluggable reconfiguration backends.

A *backend* bundles the two decisions that together define how the
cluster reconfigures itself online:

* which group-communication handle a site runs on (``gcs_factory``):
  a plain virtually synchronous group member, or one wrapped in
  Enriched View Synchrony (section 5.2 of the paper); and
* which membership decides who is up to date for the one
  :class:`~repro.reconfig.manager.ReconfigManager` that drives joins,
  transfer sessions, activation and the creation protocol on top of it.

The three that ship, ``vs`` (section 5.1), ``evs`` (section 5.2) and
``logless`` (arXiv:2102.11960), are the registry rows below.  All expose
the same contract (see ``docs/RECONFIG_BACKENDS.md``): a membership
class defines exactly the methods
:data:`repro.reconfig.manager.MEMBERSHIP_SEAM` names, and the full
invariant battery (``repro.checkers.run_all_checks``) must hold on any
of them under the conformance suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.reconfig.evs_manager import EvsMembership
from repro.reconfig.logless import LoglessMembership
from repro.reconfig.manager import ReconfigManager, VsMembership


@dataclass(frozen=True)
class ReconfigBackend:
    """One named reconfiguration backend: group member + membership."""

    name: str
    #: ``(sim, network, site_id, universe, gcs_config, app) -> (handle,
    #: member)``: the object the site starts, crashes and multicasts
    #: through, and the ``GroupMember`` underneath it.
    gcs_factory: Callable
    #: ``manager -> membership``: the class the manager asks what differs.
    membership: type
    description: str

    def make_manager(self, node, strategy) -> ReconfigManager:
        return ReconfigManager(node, strategy, self)


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


_REGISTRY = {
    backend.name: backend
    for backend in (
        ReconfigBackend(
            name="vs",
            gcs_factory=_plain_member,
            membership=VsMembership,
            description="plain virtual synchrony with explicit "
            "up-to-date announcements (section 5.1)",
        ),
        ReconfigBackend(
            name="evs",
            gcs_factory=_enriched_member,
            membership=EvsMembership,
            description="Enriched View Synchrony: structural "
            "up-to-dateness via subview merges (section 5.2)",
        ),
        ReconfigBackend(
            name="logless",
            gcs_factory=_plain_member,
            membership=LoglessMembership,
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
