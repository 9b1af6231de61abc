"""Per-site database facade used by the replica control layer.

Combines store, locks, log, RecTable and cover bookkeeping.  All methods
are synchronous state changes; the replica control node schedules them
on the simulated clock to model processing cost.

Version bookkeeping: the serialization phase of the protocol (section
2.2) performs its version check "after applying all updates of
transactions delivered before T" — but the write phase is asynchronous,
so at check time earlier writes may not be installed yet.  The facade
therefore tracks the version each object *will* have once all
already-serialized writers finish (:attr:`_tagged_version`); the check
compares against that, which keeps the decision deterministic and
identical at every site.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.db.locks import LockManager
from repro.db.outcomes import OutcomeTable
from repro.db.recovery import RecoveryResult, run_single_site_recovery
from repro.db.rectable import RecTable
from repro.db.store import INITIAL_VERSION, ObjectStore
from repro.db.wal import (
    AbortRecord,
    BaselineRecord,
    BeginRecord,
    CommitRecord,
    NoopRecord,
    PersistentStorage,
    ReconcileRecord,
    WriteRecord,
)


class Database:
    """Volatile database instance bound to a crash-surviving storage."""

    def __init__(self, storage: PersistentStorage, clock=None) -> None:
        self.storage = storage
        self.store = ObjectStore()
        self.locks = LockManager(clock)
        self.rectable = RecTable()
        #: Replicated exactly-once table of settled client-request
        #: outcomes (updated deterministically at delivery-decision time).
        self.outcomes = OutcomeTable()
        self._tagged_version: Dict[str, int] = {}
        self._uncommitted_writes: Dict[int, List[Tuple[str, Any, int]]] = {}
        self._snapshots: Dict[int, Dict[str, Tuple[Any, int]]] = {}
        self._snapshot_refs: Dict[int, int] = {}
        self.baseline_gid = -1
        #: Last gid delivered (logged as begin or no-op) above the
        #: baseline; ``None`` when nothing above it was delivered.
        self.last_delivered_gid: Optional[int] = None
        #: Delivered gids above the baseline not yet committed or aborted.
        self._unterminated: Set[int] = set()
        self.commits = 0
        self.aborts = 0

    # ------------------------------------------------------------------
    # Bootstrap and recovery
    # ------------------------------------------------------------------
    def bootstrap(self, initial: Dict[str, Any]) -> None:
        """Load the initial database copy (version -1 on every object)."""
        for obj, value in initial.items():
            self.store.write(obj, value, INITIAL_VERSION)
        self.storage.append(BaselineRecord(-1))
        self.storage.checkpoint(self.store.snapshot())
        self.storage.flush()

    @classmethod
    def recover_from(
        cls, storage: PersistentStorage, clock=None
    ) -> Tuple["Database", RecoveryResult]:
        """Single-site recovery: rebuild a fresh instance from stable storage."""
        result = run_single_site_recovery(storage)
        db = cls(storage, clock)
        db.store = result.store
        db.outcomes = result.outcomes
        db.baseline_gid = result.cover_gid
        # Rebuild the RecTable so a recovered site can act as peer later.
        # The recovered store's version tags *are* the last committed
        # writers (redo applied committed after-images in gid order), and
        # unlike a log scan this survives log truncation at checkpoints.
        for obj in result.store.objects():
            version = result.store.version(obj)
            if version >= 0:
                db.rectable.register(obj, version)
        db.rectable.ensure_current()
        # Anything beyond the cover is treated as not executed; the data
        # transfer will (re)deliver those updates.
        return db, result

    # ------------------------------------------------------------------
    # Serialization-phase primitives
    # ------------------------------------------------------------------
    def log_begin(self, gid: int) -> None:
        self.storage.append(BeginRecord(gid))
        self.last_delivered_gid = gid
        self._unterminated.add(gid)

    def log_noop(self, gid: int) -> None:
        """Record a delivered non-transactional message (cover continuity)."""
        self.storage.append(NoopRecord(gid))
        self.last_delivered_gid = gid

    def version_check(self, read_set: Dict[str, int]) -> bool:
        """True iff every read version is still current (section 2.2, III.2)."""
        # Inlined effective_version: max(tag, stored) > read_version is
        # equivalent to either component exceeding it.  Using the read
        # version itself as the missing-key default keeps each test to a
        # single comparison (versions are monotone, so a missing entry
        # can never exceed anything).
        tagged = self._tagged_version
        version_or = self.store.version_or
        for obj, read_version in read_set.items():
            if (
                tagged.get(obj, read_version) > read_version
                or version_or(obj, read_version) > read_version
            ):
                return False
        return True

    def effective_version(self, obj: str) -> int:
        """Version the object will have once serialized writers finish.

        The maximum of the pending write tag and the stored version: a
        data transfer can install versions newer than any local tag (the
        site missed those writers entirely), and a tag can be ahead of
        the store (the writer's write phase has not run yet).
        """
        tag = self._tagged_version.get(obj, INITIAL_VERSION)
        stored = self.store.version_or(obj)
        return max(tag, stored)

    def tag_writes(self, gid: int, objs) -> None:
        """Reserve the version tag for the lock phase of transaction gid.

        Tags are monotone: they only ever increase, and they survive the
        writer's abort.  A too-high tag can only cause a (deterministic,
        system-wide) version-check abort of a reader, never a stale read.
        """
        for obj in objs:
            if self._tagged_version.get(obj, INITIAL_VERSION) < gid:
                self._tagged_version[obj] = gid

    # ------------------------------------------------------------------
    # Write / commit / abort
    # ------------------------------------------------------------------
    def apply_write(self, gid: int, obj: str, value: Any) -> None:
        """Install one write (logging physical before/after images)."""
        before_value, before_version = self.store.peek(obj)
        self.storage.append(WriteRecord(gid, obj, before_value, before_version, value))
        self._uncommitted_writes.setdefault(gid, []).append((obj, before_value, before_version))
        # Multiversion support for the log-filter transfer strategy
        # (section 4.6): preserve the last version below each snapshot
        # limit the first time a post-limit writer overwrites it.
        for limit, saved in self._snapshots.items():
            if gid >= limit and before_version < limit and obj not in saved:
                saved[obj] = (before_value, before_version)
        self.store.write(obj, value, gid)

    def commit(self, gid: int, request=None) -> None:
        # Commit is the WAL force point: the commit record and every
        # record before it must survive a crash (write-ahead rule), so a
        # torn tail can only ever lose begin/write records of in-flight
        # transactions — work that never externally took effect.
        self.storage.append(CommitRecord(gid, request))
        self.storage.flush()
        for obj, _, _ in self._uncommitted_writes.pop(gid, ()):
            self.rectable.register(obj, gid)
        self._unterminated.discard(gid)
        self.commits += 1

    def abort(self, gid: int, request=None) -> None:
        """Undo any installed writes and terminate the transaction."""
        for obj, before_value, before_version in reversed(self._uncommitted_writes.pop(gid, [])):
            self.store.write(obj, before_value, before_version)
        self.storage.append(AbortRecord(gid, request))
        self.storage.flush()
        self._unterminated.discard(gid)
        self.aborts += 1

    def rollback(self, gid: int) -> None:
        """Undo installed writes *without* terminating the transaction.

        Used when the site leaves the primary component mid-execution:
        the transaction may have committed elsewhere, so the cover must
        stay below it (no Abort record; the Begin stays unterminated and
        the data transfer will re-supply the committed state).
        """
        for obj, before_value, before_version in reversed(self._uncommitted_writes.pop(gid, [])):
            self.store.write(obj, before_value, before_version)

    # ------------------------------------------------------------------
    # Cover transaction (section 4.4)
    # ------------------------------------------------------------------
    def cover_gid(self) -> int:
        """:func:`repro.db.recovery.compute_cover` of the gids delivered
        since the baseline, in O(transactions in flight): delivery is in
        gid order, so the last delivered gid is the highest."""
        if self._unterminated:
            return max(self.baseline_gid, min(self._unterminated) - 1)
        if self.last_delivered_gid is None:
            return self.baseline_gid
        return max(self.baseline_gid, self.last_delivered_gid)

    def set_baseline(self, gid: int) -> None:
        """The store now incorporates everything up to ``gid`` (data transfer)."""
        self.storage.append(BaselineRecord(gid))
        self.storage.flush()
        self.baseline_gid = gid
        self._unterminated = {g for g in self._unterminated if g > gid}
        if self.last_delivered_gid is not None and self.last_delivered_gid <= gid:
            self.last_delivered_gid = None

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, truncate_log: bool = False) -> None:
        """Fuzzy, no-steal checkpoint: flush committed values only.

        With ``truncate_log`` the log prefix through the current cover is
        dropped (it is fully subsumed by the image): the cover guarantees
        every transaction at or below it terminated, and committed values
        at or below it are — by no-steal — in the image being written.
        """
        image = self.store.snapshot()
        for gid, writes in self._uncommitted_writes.items():
            for obj, before_value, before_version in writes:
                image[obj] = (before_value, before_version)
        self.storage.checkpoint(image)
        self.storage.outcome_image = self.outcomes.rows()
        self.storage.flush()
        if truncate_log:
            self.storage.truncate_through(self.cover_gid())

    # ------------------------------------------------------------------
    # Multiversion snapshots (log-filter strategy, section 4.6)
    # ------------------------------------------------------------------
    def begin_version_snapshot(self, limit_gid: int) -> None:
        """Start preserving the last object versions below ``limit_gid``.

        Reference-counted: several concurrent transfer sessions created at
        the same synchronization point share one snapshot."""
        self._snapshots.setdefault(limit_gid, {})
        self._snapshot_refs[limit_gid] = self._snapshot_refs.get(limit_gid, 0) + 1

    def read_as_of(self, limit_gid: int) -> Dict[str, Tuple[Any, int]]:
        """State as of the snapshot limit: for every object, the newest
        version with version < limit_gid.  Requires that all writers
        below the limit have finished (quiescence below the boundary)."""
        if limit_gid not in self._snapshots:
            raise KeyError(f"no snapshot at limit {limit_gid}")
        result: Dict[str, Tuple[Any, int]] = {}
        for obj in self.store.objects():
            value, version = self.store.read(obj)
            if version < limit_gid:
                result[obj] = (value, version)
        result.update(self._snapshots[limit_gid])
        return result

    def end_version_snapshot(self, limit_gid: int) -> None:
        refs = self._snapshot_refs.get(limit_gid, 0) - 1
        if refs > 0:
            self._snapshot_refs[limit_gid] = refs
        else:
            self._snapshot_refs.pop(limit_gid, None)
            self._snapshots.pop(limit_gid, None)

    # ------------------------------------------------------------------
    # Reads of committed state (lazy transfer's "short read lock")
    # ------------------------------------------------------------------
    def read_committed(self, obj: str) -> Tuple[Any, int]:
        """Latest *committed* value of the object: when the newest writer
        is still uncommitted, return the before-image it saved."""
        value, version = self.store.read(obj)
        for gid, writes in self._uncommitted_writes.items():
            for wobj, before_value, before_version in writes:
                if wobj == obj and version == gid:
                    return before_value, before_version
        return value, version

    # ------------------------------------------------------------------
    # Log scans used by the creation protocol (section 3)
    # ------------------------------------------------------------------
    def committed_writes_above(self, cover_gid: int):
        """After-images of committed transactions with gid > cover, as
        ((gid, ((obj, value), ...)), ...) sorted by gid."""
        committed: set = set()
        writes: Dict[int, Dict[str, Any]] = {}
        for record in self.storage.records():
            if isinstance(record, CommitRecord):
                committed.add(record.gid)
            elif isinstance(record, WriteRecord) and record.gid > cover_gid:
                writes.setdefault(record.gid, {})[record.obj] = record.after_value
        return tuple(
            (gid, tuple(sorted(writes[gid].items())))
            for gid in sorted(writes)
            if gid in committed and gid > cover_gid
        )

    def reset_version_tags(self) -> None:
        """Drop all pending version tags.

        Only valid once every in-flight serialized writer has been rolled
        back (stall / demotion): each remaining tag then either
        duplicates the committed store version or belongs to a
        rolled-back transaction.  The latter kind is poison — no other
        site carries it (tags are never transferred), so keeping it
        would make this site's later version checks diverge from the
        rest of the group.
        """
        self._tagged_version.clear()

    # ------------------------------------------------------------------
    # Reconciliation of phantom commits (section 2.3)
    # ------------------------------------------------------------------
    def committed_gids_above(self, cover_gid: int) -> Tuple[int, ...]:
        """Locally committed gids above the cover — the candidates a
        rejoining site must have checked against the primary's history
        when running without uniform delivery."""
        committed: set = set()
        reconciled: set = set()
        for record in self.storage.records():
            if isinstance(record, CommitRecord) and record.gid > cover_gid:
                committed.add(record.gid)
            elif isinstance(record, ReconcileRecord):
                reconciled.add(record.gid)
        return tuple(sorted(committed - reconciled))

    def verify_committed(self, gids) -> Tuple[int, ...]:
        """Which of ``gids`` did this site *not* commit (nor subsume in a
        baseline)?  One log scan; used by the reconciliation gate."""
        candidates = {gid for gid in gids if gid > self.baseline_gid}
        if not candidates:
            return ()
        committed: set = set()
        reconciled: set = set()
        for record in self.storage.records():
            if isinstance(record, CommitRecord) and record.gid in candidates:
                committed.add(record.gid)
            elif isinstance(record, ReconcileRecord) and record.gid in candidates:
                reconciled.add(record.gid)
        return tuple(sorted(candidates - (committed - reconciled)))

    def reconcile_phantoms(self, gids) -> int:
        """Compensate locally committed transactions that never committed
        in the primary lineage: restore their before-images (newest
        first) and log ReconcileRecords so recovery stops redoing them.

        Returns the number of writes undone.  Must run *before* the
        transferred state is installed, otherwise the phantom versions
        (which may exceed the legitimate ones) would survive the merge.
        """
        phantom = set(gids)
        if not phantom:
            return 0
        undone = 0
        writes = [
            record
            for record in self.storage.records()
            if isinstance(record, WriteRecord) and record.gid in phantom
        ]
        for record in sorted(writes, key=lambda r: r.gid, reverse=True):
            if record.obj in self.store and self.store.version(record.obj) == record.gid:
                self.store.write(record.obj, record.before_value, record.before_version)
                undone += 1
        for gid in sorted(phantom):
            self.storage.append(ReconcileRecord(gid))
        # Outcomes decided at phantom gids never settled in the primary
        # lineage; the client will retry and the primary's decision (at a
        # different gid) must win.
        self.outcomes.expunge_gids(phantom)
        self.storage.flush()
        return undone
