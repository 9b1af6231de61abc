"""Data transfer within the group communication system (section 4.1).

The baseline the paper argues *against*: the GCS performs the state
transfer during the view change, so (i) it "can only send the entire
database, because the system does not know which data has actually been
changed", and (ii) "the database would have to remain unchanged for the
entire data transfer".

We model it for the E9b ablation: the whole database is shipped
regardless of staleness, under a database-wide read lock held for the
*entire* transfer — i.e. every writer at the peer blocks until the last
batch is acknowledged, approximating the suspension of processing the
paper criticises.
"""

from __future__ import annotations

from repro.db.locks import DB_RESOURCE, LockMode
from repro.reconfig.strategies.base import TransferStrategy


class GcsLevelTransferStrategy(TransferStrategy):
    name = "gcs_level"

    def on_session_created(self, session) -> None:
        state = {"db_granted": False, "accepted": False}
        session.strategy_state = state

        def on_db_grant(_request) -> None:
            state["db_granted"] = True
            self._maybe_stream(session)

        session.db.locks.request(session.owner, DB_RESOURCE, LockMode.SHARED, on_db_grant)

    def begin(self, session, accept) -> None:
        session.strategy_state["accepted"] = True
        self._maybe_stream(session)

    def _maybe_stream(self, session) -> None:
        state = session.strategy_state
        if not (state["db_granted"] and state["accepted"]) or state.get("streamed"):
            return
        state["streamed"] = True
        session.node.call_when_quiescent_below(session.sync_gid, lambda: self._stream(session))

    def _stream(self, session) -> None:
        if not session.active:
            return
        for obj in session.db.store.objects():
            value, version = session.db.store.read(obj)
            session.queue_item(obj, value, version)
        # The DB lock is *not* released per object: it is held until the
        # session completes (release_all_locks in _complete), which is
        # exactly the suspension this baseline is meant to exhibit.
        session.finish(session.sync_gid)
