"""Filtering the log / multiversion transfer (section 4.6).

"We can avoid setting locks on the current database if the database
system maintains multiple object versions.  Transactions can update the
objects unhindered while the peer simply transfers the versions of the
objects that were current when the view change was delivered."

Our :class:`repro.db.database.Database` provides the multiversion
mechanism: a version snapshot registered at the synchronization point
preserves, for every object, the last version below the boundary the
first time a post-boundary writer overwrites it (the information a
physical redo log with after-images provides).  No transfer locks at
all; peer-side interference is zero.
"""

from __future__ import annotations

from repro.reconfig.strategies.base import TransferStrategy


class LogFilterStrategy(TransferStrategy):
    name = "log_filter"

    def on_session_created(self, session) -> None:
        session.strategy_state = {"limit": session.sync_gid + 1}
        session.db.begin_version_snapshot(session.strategy_state["limit"])

    def begin(self, session, accept) -> None:
        cover = self.effective_cover(accept)
        limit = session.strategy_state["limit"]
        # Writers below the boundary may still be in their write phase;
        # the snapshot is complete once they have terminated.
        session.node.call_when_quiescent_below(
            session.sync_gid, lambda: self._stream(session, cover, limit)
        )

    def _stream(self, session, cover: int, limit: int) -> None:
        if not session.active:
            return
        for obj, (value, version) in sorted(session.db.read_as_of(limit).items()):
            if version > cover:
                session.queue_item(obj, value, version)
        session.finish(session.sync_gid)

    def on_session_closed(self, session) -> None:
        session.db.end_version_snapshot(session.strategy_state["limit"])
