"""The data transfer strategies of sections 4.1 and 4.3-4.7, one row each.

Every strategy is the same loop: capture the state as of the
synchronization point, filter it against the joiner's cover, and ship
it.  They differ in three choices, which are the columns of a
:class:`Strategy` row:

* *capture* — what pins the state as of the synchronization point
  (:class:`Capture`);
* *filter* — which captured objects ship (:class:`Filter`);
* *rounds* — one, or lazy's rounds ending in a synchronized last round
  (``lazy``; section 4.7).  A lazy joiner discards transaction messages
  until the last round, an eager one enqueues from the synchronization
  point.

:class:`repro.reconfig.transfer.PeerTransferSession` reads the row; the
locks and the snapshot it captures are its own, given back once when it
closes.  Sessions are created synchronously inside a totally ordered
event handler (a view change, an e-view change, or a delivered
announcement), with ``sync_gid`` equal to that event's position in the
total order; the capture requested at creation then lands *before* any
later-delivered writer, which is what makes the transferred state exactly
the state as of the synchronization point.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List

#: Sentinel cover used when the joiner has no database at all (a new
#: site): every object is stale relative to it, so filtered strategies
#: degrade to a full transfer, which the paper notes is "the only
#: solution in the case of a new site".
NO_COVER = -(2**60)


class Capture(Enum):
    """What pins the transferred state as of the synchronization point."""

    #: Section 4.3: "request in an atomic step read locks for all objects
    #: in the database"; each goes back when its object is read into the
    #: outbox (DESIGN.md "Transfer order").
    OBJECT_LOCKS = "object_locks"
    #: Section 4.5: one read lock on the database, then, once every
    #: transaction delivered before the synchronization point has
    #: terminated, read locks on the objects to ship that inherit its
    #: queue position, and the database lock goes.
    DOWNGRADE = "downgrade"
    #: Section 4.1: the database read lock is held until the transfer
    #: completes — the suspension of processing the paper rejects.
    DB_LOCK = "db_lock"
    #: Section 4.6: no lock at all; the database keeps, per object, the
    #: last version below the synchronization point that a later writer
    #: overwrote ("the versions of the objects that were current when the
    #: view change was delivered").
    SNAPSHOT = "snapshot"


class Filter(Enum):
    """Which captured objects ship to the joiner.  ``RECTABLE`` goes with
    the ``DOWNGRADE`` capture, which needs the set before it locks; the
    others test each captured object's version against the cover."""

    #: Every object: the version filter with the cover fixed at
    #: ``NO_COVER`` from the start, whatever the joiner reports.
    ALL = "all"
    #: Section 4.4: versions above the joiner's cover transaction.
    VERSION = "version"
    #: Section 4.5: the objects the RecTable lists as changed since the
    #: cover, without scanning the database.
    RECTABLE = "rectable"


@dataclass(frozen=True)
class Strategy:
    """One transfer strategy: a registry name and its three choices."""

    name: str
    capture: Capture
    filter: Filter
    #: Rounds: ``False`` is one round at the synchronization point;
    #: ``True`` is section 4.7's rounds, whose last round captures under
    #: ``capture`` at the delimiter transaction.
    lazy: bool
    #: One line for ``repro strategies``.
    summary: str


_ROWS = (
    Strategy("full", Capture.OBJECT_LOCKS, Filter.ALL, False,
             "entire database under per-object read locks (section 4.3)"),
    Strategy("version_check", Capture.OBJECT_LOCKS, Filter.VERSION, False,
             "whole-db scan, ship only versions above the joiner's cover (4.4)"),
    Strategy("rectable", Capture.DOWNGRADE, Filter.RECTABLE, False,
             "RecTable-filtered set, DB lock downgraded to object locks (4.5)"),
    Strategy("log_filter", Capture.SNAPSHOT, Filter.VERSION, False,
             "multiversion snapshot, no transfer locks at all (4.6)"),
    Strategy("lazy", Capture.DOWNGRADE, Filter.RECTABLE, True,
             "multi-round deltas, delimiter transaction, fail-over resume (4.7)"),
    Strategy("gcs_level", Capture.DB_LOCK, Filter.ALL, False,
             "whole DB inside the view change — the rejected baseline (4.1)"),
)
_REGISTRY = {row.name: row for row in _ROWS}

ALL_STRATEGY_NAMES = tuple(sorted(_REGISTRY))


def strategy_by_name(name: str) -> Strategy:
    """The row a registry name selects."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown strategy {name!r}; known: {sorted(_REGISTRY)}") from None


def effective_cover(accept) -> int:
    """The joiner's cover as a filter sees it: ``NO_COVER`` for a site
    with no database copy."""
    return NO_COVER if accept.needs_full else accept.cover_gid


def changed_objects(db, cover_gid: int) -> List[str]:
    """The RecTable filter: the sorted objects a joiner covered through
    ``cover_gid`` must receive (every object for ``NO_COVER``).

    Answers from the RecTable when it is still complete for that
    cover.  When garbage collection has purged records above the
    joiner's cover — possible when a stabilization start regresses a
    site's cover below an earlier announcement, breaking the
    monotonicity section 4.5's GC rule relies on — the table would
    silently under-report, so fall back to scanning the store's
    version tags, which always name the last committed writer.
    """
    if cover_gid == NO_COVER:
        return sorted(db.store.objects())
    rectable = db.rectable
    rectable.ensure_current()
    if rectable.can_answer(cover_gid):
        return sorted(obj for obj in rectable.changed_since(cover_gid) if obj in db.store)
    return sorted(obj for obj in db.store.objects() if db.store.version(obj) > cover_gid)
