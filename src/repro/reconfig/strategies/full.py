"""Transferring the entire database (section 4.3).

"Upon delivery of the view change, create transaction T_dt and request
in an atomic step read locks for all objects in the database.  [...]
Whenever a lock on object X is granted, read X and transfer it to the
joiner [...] As soon as the acknowledgment is received, release the
lock."

Mandatory for new sites; attractive when the database is small or most
of it changed while the joiner was down.  Reads continue unhindered on
the peer.  The object is read into the outbox when its lock is granted
and a retransmission resends that copy, so the lock goes back right
then, not at the acknowledgment: a write waits only until its object is
captured (DESIGN.md "Transfer order").
"""

from __future__ import annotations

from repro.reconfig.strategies.base import NO_COVER
from repro.reconfig.strategies.version_check import VersionCheckStrategy


class FullTransferStrategy(VersionCheckStrategy):
    """Entire-database transfer: the version-check scan with the cover
    fixed at ``NO_COVER`` from session creation, so every object is
    read and queued the moment its lock is granted.
    """

    name = "full"

    def on_session_created(self, session) -> None:
        self._lock_every_object(session, cover=NO_COVER)

    def begin(self, session, accept) -> None:
        # Nothing cover-dependent: everything goes.  Items queued before
        # the accept arrived start flowing now; finish once all are in.
        self._maybe_finish(session)
