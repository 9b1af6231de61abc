"""Checking version numbers (section 4.4).

The joiner reports its *cover transaction* gid; since object versions
are writer gids and identical at all sites at a given logical time, the
peer transfers exactly the objects whose version exceeds the cover and
"ignores X and releases the lock immediately" otherwise.

Still scans (and briefly locks) the entire database — the shortcoming
the RecTable strategy removes.  The scan is also section 4.3's: a full
transfer is this one with the cover known before the joiner answers
(``full.py``).
"""

from __future__ import annotations

from repro.reconfig.strategies.base import TransferStrategy


class VersionCheckStrategy(TransferStrategy):
    name = "version_check"

    def on_session_created(self, session) -> None:
        self._lock_every_object(session, cover=None)

    def _lock_every_object(self, session, cover) -> None:
        """Request, in one atomic step, a read lock per object in store
        order.  ``cover=None``: not known before the accept."""
        state = {"remaining": 0, "all_queued": False, "cover": cover, "granted": []}
        session.strategy_state = state
        objects = list(session.db.store.objects())
        state["remaining"] = len(objects)
        if not objects:
            state["all_queued"] = True
            return
        on_grant = self._make_grant_handler(session)
        for obj in objects:
            session.request_read_lock(obj, on_grant)

    def begin(self, session, accept) -> None:
        state = session.strategy_state
        state["cover"] = self.effective_cover(accept)
        for obj in state.pop("granted"):
            self._process(session, obj)
        state["granted"] = None
        self._maybe_finish(session)

    def _make_grant_handler(self, session):
        # One handler per session: the granted request names its object.
        def on_grant(request) -> None:
            if not session.active:
                return
            obj = request.resource
            state = session.strategy_state
            if state["cover"] is None:
                # Lock granted before the accept arrived: remember it and
                # filter once we know the joiner's cover.
                state["granted"].append(obj)
                return
            self._process(session, obj)

        return on_grant

    def _process(self, session, obj: str) -> None:
        state = session.strategy_state
        value, version = session.db.store.read(obj)
        if version > state["cover"]:
            session.queue_item(obj, value, version, release_after_ack=True)
        else:
            session.release_lock(obj)
        state["remaining"] -= 1
        if state["remaining"] == 0:
            state["all_queued"] = True
            self._maybe_finish(session)

    def _maybe_finish(self, session) -> None:
        if session.accepted and session.strategy_state["all_queued"]:
            session.finish(session.sync_gid)
