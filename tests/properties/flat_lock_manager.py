"""REFERENCE ONLY: the flat-list lock manager as it stood before the wait
queue was indexed by resource, kept verbatim (below this paragraph) as the
executable specification that ``test_lock_queue_equivalence.py`` drives
``repro.db.locks.LockManager`` against.  Every ``release`` re-scans the
whole ``_waiting`` list; that is the behaviour to match, not the cost.
Never import this from ``src/``.

Strict two-phase lock manager with a coarse database-level lock.

Requirements taken directly from the paper:

* shared (read) and exclusive (write) locks on individual objects with
  FIFO queues — "write/read conflicts are handled by traditional
  2-phase-locking (the read waits until the write releases the lock)";
* a transfer transaction must be able to hold read locks that are
  ordered *after* the write locks of transactions delivered before the
  view change and *before* those delivered after it (section 4.3) — our
  global ticket order provides this, because lock requests are issued
  synchronously in delivery order;
* a single read lock **on the entire database** that conflicts with all
  object-level writers (section 4.5), later downgraded to fine-grained
  object locks.

Deadlock freedom: the replica control protocol acquires write locks in
total-order delivery position, aborts local-phase readers instead of
waiting for them, and readers only ever wait for writers; all waits-for
edges therefore point from later to earlier ticket numbers and no cycle
can form.  The manager still exposes :meth:`waiting_for` so tests can
assert this invariant.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

#: Resource name of the whole-database lock (section 4.5).
DB_RESOURCE = "__DATABASE__"


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


def _conflicting(a: LockMode, b: LockMode) -> bool:
    return a is LockMode.EXCLUSIVE or b is LockMode.EXCLUSIVE


class LockRequest:
    """One lock request; fires ``on_grant`` exactly once when granted."""

    __slots__ = (
        "txn_id",
        "resource",
        "mode",
        "ticket",
        "granted",
        "cancelled",
        "on_grant",
        "enqueued_at",
        "granted_at",
    )

    def __init__(
        self,
        txn_id: str,
        resource: str,
        mode: LockMode,
        ticket: int,
        on_grant: Optional[Callable[["LockRequest"], None]],
        enqueued_at: float,
    ) -> None:
        self.txn_id = txn_id
        self.resource = resource
        self.mode = mode
        self.ticket = ticket
        self.granted = False
        self.cancelled = False
        self.on_grant = on_grant
        self.enqueued_at = enqueued_at
        self.granted_at: Optional[float] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "granted" if self.granted else ("cancelled" if self.cancelled else "waiting")
        return f"<Lock {self.txn_id}:{self.mode.value} {self.resource} #{self.ticket} {state}>"


class LockManager:
    """Two-level (database / object) strict lock manager."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        partition_fn: Optional[Callable[[str], str]] = None,
    ) -> None:
        self._clock = clock or (lambda: 0.0)
        self._partition_fn = partition_fn
        self._ticket = itertools.count()
        # resource -> {txn_id: mode} (a txn holds at most one mode per resource;
        # EXCLUSIVE subsumes SHARED on upgrade).
        self._holders: Dict[str, Dict[str, LockMode]] = {}
        # txn_id -> resources it holds; mirror of _holders so releasing
        # a whole transaction is O(locks held), not O(locks held by all).
        self._held_by: Dict[str, Set[str]] = {}
        self._waiting: List[LockRequest] = []
        #: Time spent queued, one entry per grant that had to wait.
        self.wait_times: List[float] = []
        self.grants = 0
        #: Requests that could not be granted immediately (conflicts).
        self.conflicts = 0
        #: High-watermark of the wait-queue depth.
        self.max_waiting = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def holders(self, resource: str) -> Dict[str, LockMode]:
        return dict(self._holders.get(resource, {}))

    def holder_items(self, resource: str) -> Tuple[Tuple[str, LockMode], ...]:
        """Snapshot of ``holders(resource).items()`` as a tuple.

        Safe to iterate while releasing locks, and free for the common
        case of an uncontended resource (no dict is allocated).
        """
        holders = self._holders.get(resource)
        if not holders:
            return ()
        return tuple(holders.items())

    def holds(self, txn_id: str, resource: str) -> bool:
        return txn_id in self._holders.get(resource, {})

    def waiting_requests(self) -> List[LockRequest]:
        return [r for r in self._waiting if not r.cancelled]

    def waiting_for(self, request: LockRequest) -> Set[str]:
        """Transaction ids this waiting request is blocked behind."""
        blockers: Set[str] = set()
        for resource, holders in self._overlapping_items(request.resource):
            for txn_id, mode in holders.items():
                if txn_id != request.txn_id and _conflicting(request.mode, mode):
                    blockers.add(txn_id)
        for other in self._waiting:
            if (
                not other.cancelled
                and other.ticket < request.ticket
                and other.txn_id != request.txn_id
                and self._resources_overlap(request.resource, other.resource)
                and _conflicting(request.mode, other.mode)
            ):
                blockers.add(other.txn_id)
        return blockers

    # ------------------------------------------------------------------
    # Requesting and releasing
    # ------------------------------------------------------------------
    def request(
        self,
        txn_id: str,
        resource: str,
        mode: LockMode,
        on_grant: Optional[Callable[[LockRequest], None]] = None,
        inherit_ticket: Optional[int] = None,
    ) -> LockRequest:
        """Request a lock; grants immediately when possible.

        The returned request's ``granted`` flag tells whether the caller
        can proceed; otherwise ``on_grant`` fires later (synchronously
        from the release that unblocks it).

        ``inherit_ticket`` lets a coarse lock be *downgraded* to finer
        locks without losing its queue position (section 4.5: "Request
        read locks on objects ... and release the lock on the database"
        — the object locks replace the database lock in the ordering).
        """
        request = LockRequest(
            txn_id,
            resource,
            mode,
            next(self._ticket) if inherit_ticket is None else inherit_ticket,
            on_grant,
            self._clock(),
        )
        if self._grantable(request):
            self._grant(request)
        else:
            self.conflicts += 1
            self._waiting.append(request)
            depth = len(self._waiting)
            if depth > self.max_waiting:
                self.max_waiting = depth
        return request

    def release(self, txn_id: str, resource: Optional[str] = None) -> None:
        """Release one resource (or, with ``resource=None``, everything)
        held by the transaction, then re-examine the wait queue."""
        held = self._held_by.get(txn_id)
        if resource is None:
            resources = list(held) if held else []
        else:
            resources = [resource] if held and resource in held else []
        for res in resources:
            held.discard(res)
            holders = self._holders[res]
            holders.pop(txn_id, None)
            if not holders:
                del self._holders[res]
        if held is not None and not held:
            del self._held_by[txn_id]
        if resources:
            self._pump()

    def cancel(self, txn_id: str) -> None:
        """Drop every waiting request of the transaction and release its
        holds (used when a local-phase reader is aborted)."""
        for req in self._waiting:
            if req.txn_id == txn_id:
                req.cancelled = True
        self._waiting = [r for r in self._waiting if not r.cancelled]
        self.release(txn_id)
        self._pump()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resources_overlap(self, a: str, b: str) -> bool:
        """The database-level lock covers every object; a partition-level
        lock (coarse granularity, section 4.3) covers its objects."""
        if a == b or a == DB_RESOURCE or b == DB_RESOURCE:
            return True
        if self._partition_fn is not None:
            from repro.db.partitions import PARTITION_PREFIX

            a_part = a.startswith(PARTITION_PREFIX)
            b_part = b.startswith(PARTITION_PREFIX)
            if a_part and not b_part:
                return self._partition_fn(b) == a
            if b_part and not a_part:
                return self._partition_fn(a) == b
        return False

    def _overlapping_items(self, resource: str):
        """The held (resource, holders) entries that can overlap
        ``resource``.  Without partition locks, an object lock overlaps
        only itself and the database-level lock, so the common case is
        two dict lookups instead of a scan over everything held."""
        if self._partition_fn is None and resource != DB_RESOURCE:
            items = []
            holders = self._holders.get(resource)
            if holders is not None:
                items.append((resource, holders))
            db_holders = self._holders.get(DB_RESOURCE)
            if db_holders is not None:
                items.append((DB_RESOURCE, db_holders))
            return items
        return [
            (other, holders)
            for other, holders in self._holders.items()
            if self._resources_overlap(resource, other)
        ]

    def _grantable(self, request: LockRequest) -> bool:
        txn_id = request.txn_id
        mode = request.mode
        resource = request.resource
        if self._partition_fn is None and resource != DB_RESOURCE:
            # Fast path mirroring _overlapping_items' common case, but
            # with no list/tuple allocation: an object lock can only
            # overlap itself and the database-level lock.
            exclusive = mode is LockMode.EXCLUSIVE
            holders = self._holders.get(resource)
            if holders:
                for other_txn, other_mode in holders.items():
                    if other_txn != txn_id and (
                        exclusive or other_mode is LockMode.EXCLUSIVE
                    ):
                        return False
            db_holders = self._holders.get(DB_RESOURCE)
            if db_holders:
                for other_txn, other_mode in db_holders.items():
                    if other_txn != txn_id and (
                        exclusive or other_mode is LockMode.EXCLUSIVE
                    ):
                        return False
        else:
            for _res, holders in self._overlapping_items(resource):
                for other_txn, other_mode in holders.items():
                    if other_txn != txn_id and _conflicting(mode, other_mode):
                        return False
        # FIFO fairness across both levels: never overtake an earlier
        # conflicting waiter (this is what orders a transfer transaction's
        # read locks between pre- and post-view-change writers).
        waiting = self._waiting
        if waiting:
            ticket = request.ticket
            for other in waiting:
                if (
                    not other.cancelled
                    and other.ticket < ticket
                    and other.txn_id != txn_id
                    and self._resources_overlap(resource, other.resource)
                    and _conflicting(mode, other.mode)
                ):
                    return False
        return True

    def _grant(self, request: LockRequest, waited: bool = False) -> None:
        holders = self._holders.get(request.resource)
        if holders is None:
            holders = self._holders[request.resource] = {}
        current = holders.get(request.txn_id)
        if current is None or request.mode is LockMode.EXCLUSIVE:
            holders[request.txn_id] = request.mode
        held = self._held_by.get(request.txn_id)
        if held is None:
            held = self._held_by[request.txn_id] = set()
        held.add(request.resource)
        request.granted = True
        request.granted_at = self._clock()
        if waited:
            self.wait_times.append(request.granted_at - request.enqueued_at)
        self.grants += 1
        if request.on_grant is not None:
            request.on_grant(request)

    def _pump(self) -> None:
        """Grant every waiting request that has become eligible, in order."""
        progress = True
        while progress:
            progress = False
            for request in list(self._waiting):
                if request.cancelled:
                    self._waiting.remove(request)
                    continue
                if self._grantable(request):
                    self._waiting.remove(request)
                    self._grant(request, waited=True)
                    progress = True
                    break
