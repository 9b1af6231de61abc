"""Single-site recovery (section 3 of the paper).

Before a crashed site rejoins the group it "first needs to bring its own
database into a consistent state": redo the updates of committed
transactions not yet reflected in the stable image, and discard the
effects of transactions that were active or aborted at crash time (our
checkpointer is no-steal, so uncommitted state never reaches the image
and undo is a no-op on the image — uncommitted work simply is not
replayed).

The scan also computes the **cover transaction** of section 4.4: the
transaction with the highest gid such that the site has successfully
terminated every transaction with gid' <= gid it delivered.  Because
total-order delivery is gap-free along the primary lineage, the cover is
the last delivered gid if everything delivered has terminated, and
``min(unterminated) - 1`` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.db.outcomes import OutcomeTable
from repro.db.store import ObjectStore
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


@dataclass
class RecoveryResult:
    """Outcome of a single-site recovery pass."""

    store: ObjectStore
    cover_gid: int
    last_delivered_gid: int
    redone: int
    discarded: int
    committed_gids: Set[int] = field(default_factory=set)
    #: True when the WAL tail failed its checksum scan: the log was
    #: physically truncated at the first corrupt record and the caller
    #: must treat local state as a stale-but-consistent baseline (the
    #: site rejoins via data transfer rather than trusting the tail).
    tail_torn: bool = False
    #: Records dropped because they sat at/after the first corrupt one.
    corrupt_records: int = 0
    #: Exactly-once outcome table rebuilt from the checkpointed snapshot
    #: plus surviving commit/abort records that carried request ids.
    outcomes: OutcomeTable = field(default_factory=OutcomeTable)


def compute_cover(
    baseline_gid: int, delivered: List[int], terminated: Set[int]
) -> int:
    """Cover gid given the delivered gid sequence and terminated set."""
    unterminated = [gid for gid in delivered if gid not in terminated]
    if not unterminated:
        return max([baseline_gid] + delivered)
    return max(baseline_gid, min(unterminated) - 1)


def run_single_site_recovery(storage: PersistentStorage) -> RecoveryResult:
    """Rebuild the volatile store and cover gid from stable storage.

    The log is first verified record-by-record against its CRC32
    checksums; a mismatch means the tail was torn by a crash
    mid-write, so the log is truncated at the first corrupt record and
    only the clean prefix is replayed.  Because commit/abort records are
    flushed before they take effect, a torn tail can only lose work that
    never externally mattered — but the site's cover is computed from
    the surviving prefix, so it honestly rejoins as further behind.
    """
    records, corrupt_at = storage.verified_records()
    tail_torn = corrupt_at is not None
    corrupt_records = 0
    if corrupt_at is not None:
        corrupt_records = storage.truncate_at(corrupt_at)

    baseline_gid = -1
    delivered: List[int] = []
    terminated: Set[int] = set()
    committed: Set[int] = set()
    writes_by_gid: Dict[int, List[WriteRecord]] = {}
    outcomes = OutcomeTable()
    outcomes.merge(getattr(storage, "outcome_image", ()))

    for record in records:
        if isinstance(record, BaselineRecord):
            baseline_gid = max(baseline_gid, record.gid)
        elif isinstance(record, BeginRecord):
            delivered.append(record.gid)
        elif isinstance(record, NoopRecord):
            delivered.append(record.gid)
            terminated.add(record.gid)
        elif isinstance(record, WriteRecord):
            writes_by_gid.setdefault(record.gid, []).append(record)
        elif isinstance(record, (CommitRecord, AbortRecord)):
            terminated.add(record.gid)
            commit = isinstance(record, CommitRecord)
            if commit:
                committed.add(record.gid)
            request = record.request
            if request is not None:
                outcomes.merge(((request.client_id, request.seq, request.attempt,
                                 record.gid, commit),))
        elif isinstance(record, ReconcileRecord):
            terminated.add(record.gid)
            committed.discard(record.gid)
            outcomes.expunge_gids((record.gid,))

    store = ObjectStore()
    store.load_snapshot(storage.checkpoint_image)

    # Redo committed work in gid order; the image may already contain a
    # newer version (fuzzy checkpoint after the write), so apply only
    # forward version steps.
    redone = 0
    for gid in sorted(committed):
        for record in writes_by_gid.get(gid, ()):
            if obj_version(store, record.obj) < gid:
                store.write(record.obj, record.after_value, gid)
                redone += 1

    discarded = sum(len(v) for gid, v in writes_by_gid.items() if gid not in committed)
    # The same rule as the live ``Database.set_baseline``: a transfer
    # baseline subsumes every gid at or below it, so a transaction left
    # in flight by an earlier crash must not hold the cover down.
    delivered = [gid for gid in delivered if gid > baseline_gid]
    cover = compute_cover(baseline_gid, delivered, terminated)
    last = max([baseline_gid] + delivered)
    return RecoveryResult(
        store=store,
        cover_gid=cover,
        last_delivered_gid=last,
        redone=redone,
        discarded=discarded,
        committed_gids=committed,
        tail_torn=tail_torn,
        corrupt_records=corrupt_records,
        outcomes=outcomes,
    )


def obj_version(store: ObjectStore, obj: str) -> int:
    """Version of ``obj`` in ``store``; -(2**60) when the object is absent."""
    if obj in store:
        return store.version(obj)
    return -(2**60)
