"""Restricting the set of objects to check via RecTable (section 4.5).

"Upon delivery of the view change, create T_dt, request a single read
lock on the entire database and wait until all transactions delivered
before the view change have terminated and their updates are registered
in RecTable.  [Compute the transfer set from RecTable], request read
locks on those objects and release the lock on the database."

Compared to section 4.4 this (i) does not scan the whole database,
(ii) never locks non-relevant objects for long, and (iii) does not rely
on version tags on objects (though our store has them anyway).
"""

from __future__ import annotations

from repro.db.locks import DB_RESOURCE, LockMode
from repro.reconfig.strategies.base import TransferStrategy


class RecTableStrategy(TransferStrategy):
    name = "rectable"

    def on_session_created(self, session) -> None:
        state = {"db_granted": False, "accept": None, "db_ticket": None}
        session.strategy_state = state

        def on_db_grant(request) -> None:
            state["db_granted"] = True
            state["db_ticket"] = request.ticket
            self._maybe_proceed(session)

        request = session.db.locks.request(
            session.owner, DB_RESOURCE, LockMode.SHARED, on_db_grant
        )
        state["db_ticket"] = request.ticket

    def begin(self, session, accept) -> None:
        session.strategy_state["accept"] = accept
        self._maybe_proceed(session)

    def _maybe_proceed(self, session) -> None:
        state = session.strategy_state
        if not (state["db_granted"] and state["accept"] is not None) or state.get("running"):
            return
        state["running"] = True
        session.node.call_when_quiescent_below(
            session.sync_gid, lambda: self._determine_and_stream(session)
        )

    def _determine_and_stream(self, session) -> None:
        if not session.active:
            return
        state = session.strategy_state
        accept = state["accept"]
        if accept.needs_full:
            transfer_set = sorted(session.db.store.objects())
        else:
            transfer_set = self.stale_objects_since(session, accept.cover_gid)
        state["remaining"] = len(transfer_set)
        # Downgrade: fine-grained locks inherit the database lock's queue
        # position, then the database lock is released (section 4.5).
        on_grant = self._make_grant_handler(session)
        for obj in transfer_set:
            session.db.locks.request(
                session.owner,
                obj,
                LockMode.SHARED,
                on_grant,
                inherit_ticket=state["db_ticket"],
            )
        session.db.locks.release(session.owner, DB_RESOURCE)
        if not transfer_set:
            session.finish(session.sync_gid)

    def _make_grant_handler(self, session):
        # One handler per session: the granted request names its object.
        def on_grant(request) -> None:
            if not session.active:
                return
            obj = request.resource
            session.queue_item(obj, *session.db.store.read(obj))
            state = session.strategy_state
            state["remaining"] -= 1
            if state["remaining"] == 0:
                session.finish(session.sync_gid)

        return on_grant
