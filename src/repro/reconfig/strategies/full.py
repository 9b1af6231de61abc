"""Transferring the entire database (section 4.3).

"Upon delivery of the view change, create transaction T_dt and request
in an atomic step read locks for all objects in the database.  [...]
Whenever a lock on object X is granted, read X and transfer it to the
joiner [...] As soon as the acknowledgment is received, release the
lock."

Mandatory for new sites; attractive when the database is small or most
of it changed while the joiner was down.  Reads continue unhindered on
the peer; a write is delayed until the batch carrying "its" object has
been acknowledged.  The paper leaves the order objects leave in open:
the session ships the objects writers are queued on first, so that delay
is at most the batch in flight plus the writer's own, not the object's
turn in a database-long queue.
"""

from __future__ import annotations

from repro.db.locks import LockMode
from repro.db.partitions import partition_of, partition_resource
from repro.reconfig.strategies.base import NO_COVER
from repro.reconfig.strategies.version_check import VersionCheckStrategy


class FullTransferStrategy(VersionCheckStrategy):
    """Entire-database transfer: the version-check scan with the cover
    fixed at ``NO_COVER`` from session creation, so every object is
    read and queued the moment its lock is granted.

    ``granularity="partition"`` uses coarse locks "e.g., on relations"
    (section 4.3): one read lock per data partition instead of one per
    object.  Fewer lock-manager operations, but each lock covers more
    data and is held until the whole session completes — the classic
    granularity trade-off.  Requires ``NodeConfig.partition_count > 0``
    (checked when the cluster is built).
    """

    name = "full"

    def __init__(self, granularity: str = "object") -> None:
        if granularity not in ("object", "partition"):
            raise ValueError(f"granularity must be 'object' or 'partition', got {granularity!r}")
        self.granularity = granularity

    def check_config(self, config) -> None:
        if self.granularity == "partition" and config.partition_count <= 0:
            raise ValueError(
                "FullTransferStrategy(granularity='partition') needs data partitions to "
                f"lock, but NodeConfig.partition_count is {config.partition_count}; set "
                "partition_count > 0 or use granularity='object'"
            )

    def on_session_created(self, session) -> None:
        if self.granularity == "partition":
            self._lock_by_partition(session)
        else:
            self._lock_every_object(session, cover=NO_COVER)

    def _lock_by_partition(self, session) -> None:
        state = {"remaining": 0, "all_queued": False}
        session.strategy_state = state
        partition_count = session.node.config.partition_count
        by_partition = {}
        for obj in session.db.store.objects():
            by_partition.setdefault(partition_of(obj, partition_count), []).append(obj)
        state["remaining"] = len(by_partition)
        if not by_partition:
            state["all_queued"] = True
            return
        for partition, objects in sorted(by_partition.items()):
            session.db.locks.request(
                session.owner,
                partition_resource(partition),
                LockMode.SHARED,
                self._make_partition_grant_handler(session, objects),
            )

    def _make_partition_grant_handler(self, session, objects):
        def on_grant(_request) -> None:
            if not session.active:
                return
            # The partition lock is held until the session completes
            # (released by release_all_locks), covering all its objects.
            for obj in objects:
                value, version = session.db.store.read(obj)
                session.queue_item(obj, value, version, release_after_ack=False)
            session.strategy_state["remaining"] -= 1
            if session.strategy_state["remaining"] == 0:
                session.strategy_state["all_queued"] = True
                self._maybe_finish(session)

        return on_grant

    def begin(self, session, accept) -> None:
        # Nothing cover-dependent: everything goes.  Items queued before
        # the accept arrived start flowing now; finish once all are in.
        self._maybe_finish(session)
