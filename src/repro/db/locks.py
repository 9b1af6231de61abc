"""Strict two-phase lock manager with a coarse database-level lock.

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

from repro.db.partitions import PARTITION_PREFIX

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
        "seq",
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
        #: Enqueue stamp; None for a request that never had to wait.
        self.seq: Optional[int] = None

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
        # resource -> its waiting requests in enqueue order.  A request's
        # grantability depends only on holders and earlier waiters of
        # *overlapping* resources, so a release re-examines just the
        # queues overlapping what it freed, never every waiter on the site.
        self._queues: Dict[str, List[LockRequest]] = {}
        # txn_id -> its waiting requests; mirror of _queues, as _held_by
        # is of _holders.
        self._waiting_by: Dict[str, List[LockRequest]] = {}
        self._waiting_count = 0
        self._enqueue_seq = itertools.count()
        # Resources freed (released, or dequeued by cancel) since the wait
        # queues last reached a fixpoint.  Shared by nested pumps, so a
        # release made from a grant handler sees the outer release's too.
        self._dirty: Set[str] = set()
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
        """Every waiting request, in enqueue order."""
        waiting = [r for queue in self._queues.values() for r in queue]
        waiting.sort(key=lambda r: r.seq)
        return waiting

    def waiting_for(self, request: LockRequest) -> Set[str]:
        """Transaction ids this waiting request is blocked behind."""
        blockers: Set[str] = set()
        for holders in self._overlapping(self._holders, request.resource):
            for txn_id, mode in holders.items():
                if txn_id != request.txn_id and _conflicting(request.mode, mode):
                    blockers.add(txn_id)
        for queue in self._overlapping(self._queues, request.resource):
            for other in queue:
                if (
                    other.ticket < request.ticket
                    and other.txn_id != request.txn_id
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
            request.seq = next(self._enqueue_seq)
            self._queues.setdefault(resource, []).append(request)
            self._waiting_by.setdefault(txn_id, []).append(request)
            self._waiting_count = depth = self._waiting_count + 1
            if depth > self.max_waiting:
                self.max_waiting = depth
        return request

    def release(self, txn_id: str, resource: Optional[str] = None) -> None:
        """Release one resource (or, with ``resource=None``, everything)
        held by the transaction, then re-examine the waiters behind it."""
        if self._unhold(txn_id, resource):
            self._pump()

    def cancel(self, txn_id: str) -> None:
        """Drop every waiting request of the transaction and release its
        holds (used when a local-phase reader is aborted)."""
        for request in list(self._waiting_by.get(txn_id, ())):
            request.cancelled = True
            self._dequeue(request)
            self._dirty.add(request.resource)
        self._unhold(txn_id, None)
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
            a_part = a.startswith(PARTITION_PREFIX)
            b_part = b.startswith(PARTITION_PREFIX)
            if a_part and not b_part:
                return self._partition_fn(b) == a
            if b_part and not a_part:
                return self._partition_fn(a) == b
        return False

    def _overlapping(self, table: Dict[str, Any], resource: str) -> List[Any]:
        """The entries of ``table`` (``_holders`` or ``_queues``) whose
        resource can overlap ``resource``.  An object lock overlaps only
        itself, the database-level lock and its partition's lock, so the
        common case is dict lookups instead of a scan over the table."""
        partition_fn = self._partition_fn
        if resource == DB_RESOURCE or (
            partition_fn is not None and resource.startswith(PARTITION_PREFIX)
        ):
            return [
                entry
                for other, entry in table.items()
                if self._resources_overlap(resource, other)
            ]
        keys = [resource, DB_RESOURCE]
        if partition_fn is not None:
            keys.append(partition_fn(resource))
        return [table[key] for key in keys if key in table]

    def _grantable(self, request: LockRequest) -> bool:
        txn_id = request.txn_id
        mode = request.mode
        resource = request.resource
        if self._partition_fn is None and resource != DB_RESOURCE:
            # Fast path mirroring _overlapping's common case, but with
            # no list allocation: an object lock can only overlap itself
            # and the database-level lock.
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
            for holders in self._overlapping(self._holders, resource):
                for other_txn, other_mode in holders.items():
                    if other_txn != txn_id and _conflicting(mode, other_mode):
                        return False
        # FIFO fairness across both levels: never overtake an earlier
        # conflicting waiter (this is what orders a transfer transaction's
        # read locks between pre- and post-view-change writers).  Earlier
        # means a lower *ticket*; a queue is in enqueue order, which an
        # inherited ticket breaks, so the whole queue is read.
        if self._queues:
            ticket = request.ticket
            for queue in self._overlapping(self._queues, resource):
                for other in queue:
                    if (
                        other.ticket < ticket
                        and other.txn_id != txn_id
                        and _conflicting(mode, other.mode)
                    ):
                        return False
        return True

    def _grant(self, request: LockRequest) -> None:
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
        if request.seq is not None:
            self.wait_times.append(request.granted_at - request.enqueued_at)
        self.grants += 1
        if request.on_grant is not None:
            request.on_grant(request)

    def _unhold(self, txn_id: str, resource: Optional[str]) -> bool:
        """Drop one hold (or all) of the transaction; True when that
        freed a resource while someone waits, so a pump is due."""
        held = self._held_by.get(txn_id)
        if not held or (resource is not None and resource not in held):
            return False
        resources = list(held) if resource is None else [resource]
        for res in resources:
            held.discard(res)
            holders = self._holders[res]
            holders.pop(txn_id, None)
            if not holders:
                del self._holders[res]
        if not held:
            del self._held_by[txn_id]
        if not self._queues:
            return False
        self._dirty.update(resources)
        return True

    def _dequeue(self, request: LockRequest) -> None:
        for index, key in ((self._queues, request.resource), (self._waiting_by, request.txn_id)):
            entries = index[key]
            entries.remove(request)
            if not entries:
                del index[key]
        self._waiting_count -= 1

    def _pump(self) -> None:
        """Grant every waiting request that has become eligible, earliest
        enqueued first, re-examining after each grant.

        Between pumps no waiter is grantable, and a grant or an enqueue
        never unblocks anyone (the new holder conflicts with exactly what
        the waiter it was did), so an eligible request can only sit in a
        queue overlapping a dirty resource.  A grant handler may release
        or cancel: its nested pump works on the same dirty set and leaves
        it empty, which ends this one.
        """
        dirty = self._dirty
        while dirty and self._queues:
            best = None
            for resource in dirty:
                for queue in self._overlapping(self._queues, resource):
                    for request in queue:
                        if best is not None and request.seq >= best.seq:
                            break
                        if self._grantable(request):
                            best = request
                            break
            if best is None:
                break
            self._dequeue(best)
            self._grant(best)
        dirty.clear()
