"""Write-ahead log and the stable storage that survives crashes.

The paper (section 3, Single Site Recovery): "each site usually
maintains a log during normal processing such that for each write
operation on object X the before- and after-images of X are appended to
the log".  We log physical images plus begin/commit/abort/baseline
markers; :mod:`repro.db.recovery` replays them.

:class:`PersistentStorage` is the crash-surviving part of a site: the
log plus a (possibly stale) checkpoint image flushed by a fuzzy
checkpointer with a no-steal policy (only committed values reach the
image, so recovery is pure redo).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.replication.messages import RequestId


def record_checksum(record: "LogRecord") -> int:
    """CRC32 of a log record's canonical serialization.

    The record dataclasses are frozen and their ``repr`` is canonical, so
    it stands in for the on-disk byte encoding a real WAL would checksum.
    """
    return zlib.crc32(repr(record).encode("utf-8"))


@dataclass(frozen=True, slots=True)
class BaselineRecord:
    """The database state incorporates every transaction with gid <= gid.

    Written when the initial copy is loaded (gid = -1) and when a data
    transfer completes (gid = the synchronization point).
    """

    gid: int


@dataclass(frozen=True, slots=True)
class BeginRecord:
    """A transaction message with this gid entered the serialization phase."""

    gid: int


@dataclass(frozen=True, slots=True)
class WriteRecord:
    """Physical before/after images of one write operation."""

    gid: int
    obj: str
    before_value: Any
    before_version: int
    after_value: Any


@dataclass(frozen=True, slots=True)
class CommitRecord:
    gid: int
    #: The client request this commit settles, or ``None`` for anonymous
    #: transactions.  Logged so single site recovery can rebuild the
    #: exactly-once outcome table; the record holds the delivered
    #: message's own (immutable) id rather than a copy of its fields.
    request: Optional["RequestId"] = None


@dataclass(frozen=True, slots=True)
class AbortRecord:
    gid: int
    #: See :class:`CommitRecord`; aborted attempts are also settled
    #: outcomes (a stale duplicate must not commit later).
    request: Optional["RequestId"] = None


@dataclass(frozen=True, slots=True)
class ReconcileRecord:
    """A locally committed transaction turned out to be a *phantom*: it
    never committed in the primary lineage (possible only under plain
    reliable delivery, section 2.3) and its effects were compensated
    during recovery.  Recovery must stop treating the gid as committed."""

    gid: int


@dataclass(frozen=True, slots=True)
class NoopRecord:
    """A delivered message at this gid carried no transaction (e.g. a
    control message); logged so the cover computation can account for it."""

    gid: int


LogRecord = Any  # union of the record dataclasses above


class PersistentStorage:
    """Crash-surviving state of one site: the WAL plus a checkpoint image.

    Every record carries a CRC32 checksum (:func:`record_checksum`), and
    the log distinguishes a *durable prefix* — records covered by an
    explicit :meth:`flush` — from an unflushed tail still in the OS/page
    cache.  A crash can tear the unflushed tail: drop some suffix of it
    and leave at most one garbage (checksum-mismatching) record where the
    tear happened.  Recovery uses :meth:`verified_records` to read only
    the prefix that checksums clean.
    """

    def __init__(self) -> None:
        self.log: List[LogRecord] = []
        #: Stored checksums of a *prefix* of the log, one per record;
        #: ``None`` = not materialized, and every record past the end of
        #: the list is unmaterialized too.  CRCs exist to catch crash-time
        #: corruption (:meth:`tear_tail`), so they are computed lazily — a
        #: record that was never exposed to a fault trivially checksums
        #: clean, the hot commit path skips ~one repr+crc32 per log
        #: record, and a log no fault touched keeps no list entry at all.
        self._crcs: List[Optional[int]] = []
        #: Records below this index survived an explicit flush and can
        #: never be lost or torn by a crash.
        self.durable_length = 0
        self.checkpoint_image: Dict[str, Tuple[Any, int]] = {}
        #: Exactly-once outcome rows flushed with each checkpoint, so
        #: entries whose commit/abort records were truncated from the log
        #: still survive a crash.
        self.outcome_image: Tuple[Tuple[str, int, int, int, bool], ...] = ()
        self.flushes = 0
        #: Total records ever appended (monotone; unlike ``len(log)`` it
        #: is not reduced by checkpoint truncation or torn tails).
        self.records_appended = 0
        #: Diagnostics from the last torn-tail event (fault injection).
        self.torn_records = 0
        self.corrupt_records = 0

    # ------------------------------------------------------------------
    def append(self, record: LogRecord) -> None:
        self.log.append(record)
        self.records_appended += 1

    def flush(self) -> None:
        """Force the whole log to stable storage (fsync)."""
        if self.durable_length < len(self.log):
            self.flushes += 1
        self.durable_length = len(self.log)

    @property
    def unflushed_count(self) -> int:
        return len(self.log) - self.durable_length

    def records(self) -> Iterator[LogRecord]:
        return iter(self.log)

    def __len__(self) -> int:
        return len(self.log)

    def verified_records(self) -> Tuple[List[LogRecord], Optional[int]]:
        """Longest clean log prefix and the index of the first corrupt
        record (or None if every record checksums correctly)."""
        log = self.log
        for index, crc in enumerate(self._crcs):
            if crc is not None and crc != record_checksum(log[index]):
                return log[:index], index
        return list(log), None

    def truncate_at(self, index: int) -> int:
        """Physically discard log records from ``index`` on.

        Used by recovery after a checksum mismatch: everything at and
        beyond the first corrupt record is untrustworthy.  Returns the
        number of records removed.
        """
        removed = len(self.log) - index
        del self.log[index:]
        del self._crcs[index:]
        self.durable_length = min(self.durable_length, len(self.log))
        return removed

    # ------------------------------------------------------------------
    # Crash-time fault hooks (used by repro.faults.storage)
    # ------------------------------------------------------------------
    def tear_tail(self, keep_unflushed: int, corrupt_next: bool = False) -> int:
        """Simulate a torn write at crash time.

        Keeps the durable prefix plus the first ``keep_unflushed``
        unflushed records; if ``corrupt_next`` and another unflushed
        record exists, it is kept but its stored checksum no longer
        matches (a partially-written sector); the rest of the tail is
        lost.  Returns the number of records dropped.
        """
        keep = self.durable_length + max(0, keep_unflushed)
        if keep >= len(self.log):
            return 0
        if corrupt_next:
            crcs = self._crcs
            if len(crcs) <= keep:
                crcs.extend([None] * (keep + 1 - len(crcs)))
            if crcs[keep] is None:
                crcs[keep] = record_checksum(self.log[keep])
            crcs[keep] ^= 0xDEADBEEF
            self.corrupt_records += 1
            keep += 1
        dropped = len(self.log) - keep
        del self.log[keep:]
        del self._crcs[keep:]
        self.torn_records += dropped
        return dropped

    # ------------------------------------------------------------------
    def checkpoint(self, image: Dict[str, Tuple[Any, int]]) -> None:
        """Install a fuzzy checkpoint of committed values.

        The caller guarantees no-steal (no uncommitted values in
        ``image``); recovery therefore never needs to undo image state.
        The log is kept whole unless :meth:`truncate_through` is called —
        recovery replays committed after-images whose version exceeds the
        image's.
        """
        self.checkpoint_image = dict(image)
        self.flushes += 1

    def truncate_through(self, gid: int) -> int:
        """Drop log records the checkpoint image subsumes.

        Safe precondition (enforced by the caller): every transaction
        with gid' <= gid has terminated and its committed effects are in
        the checkpoint image.  A ``BaselineRecord(gid)`` summarises the
        dropped prefix so recovery still computes the right cover.
        Returns the number of records removed.
        """
        kept: List[LogRecord] = [BaselineRecord(gid)]
        removed = 0
        for record in self.log:
            record_gid = getattr(record, "gid", None)
            if record_gid is not None and record_gid <= gid:
                removed += 1
            else:
                kept.append(record)
        self.log = kept
        self._crcs = []
        # Rewriting the log is itself a durable operation.
        self.durable_length = len(self.log)
        return removed
