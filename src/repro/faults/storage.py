"""Storage fault models applied at crash time.

A real crash can tear the WAL tail: records sitting in the OS page
cache (appended but not yet fsynced) may be lost wholesale, and the
sector being written at the instant of the crash may be half-written
garbage.  :class:`TornTailFaults` reproduces exactly that against
:class:`repro.db.wal.PersistentStorage`, which tracks the durable
(flushed) prefix separately from the volatile tail.

The model is installed on a node (``node.storage_faults``) or cluster
(``cluster.install_storage_faults``) and consulted by
``ReplicatedDatabaseNode.crash()``; recovery then detects the damage via
the per-record CRC32 checksums and rejoins through data transfer.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.db.wal import PersistentStorage


class TornTailFaults:
    """Tear the unflushed WAL tail on crash.

    With probability ``tear_probability`` a crash loses a random suffix
    of the unflushed records; with probability ``corrupt_probability``
    the record at the tear point is kept but fails its checksum (a
    partially-written sector) instead of disappearing cleanly.  The
    durable prefix — everything up to the last flush — is never touched.
    """

    def __init__(
        self,
        tear_probability: float = 1.0,
        corrupt_probability: float = 0.5,
    ) -> None:
        if not 0.0 <= tear_probability <= 1.0:
            raise ValueError(f"tear_probability must be in [0, 1], got {tear_probability}")
        if not 0.0 <= corrupt_probability <= 1.0:
            raise ValueError(f"corrupt_probability must be in [0, 1], got {corrupt_probability}")
        self.tear_probability = tear_probability
        self.corrupt_probability = corrupt_probability
        self.tears = 0
        self.corruptions = 0

    def on_crash(self, storage: PersistentStorage, rng: random.Random) -> int:
        """Apply the fault to ``storage``; returns records affected
        (dropped outright plus the one left corrupted, if any)."""
        unflushed = storage.unflushed_count
        if unflushed == 0 or rng.random() >= self.tear_probability:
            return 0
        keep = rng.randrange(unflushed)  # damage at least one record
        corrupt = rng.random() < self.corrupt_probability
        corrupt_before = storage.corrupt_records
        dropped = storage.tear_tail(keep, corrupt_next=corrupt)
        corrupted = storage.corrupt_records > corrupt_before
        affected = dropped + (1 if corrupted else 0)
        if affected:
            self.tears += 1
            if corrupted:
                self.corruptions += 1
        return affected

    def describe(self) -> str:
        return (
            f"torn-tail(tear={self.tear_probability}, "
            f"corrupt={self.corrupt_probability})"
        )


class StableStateCorruptor:
    """Corrupted-but-CRC-valid stable state for self-stabilization starts.

    Unlike :class:`TornTailFaults` (which damages records so recovery's
    checksum scan *detects* them), this model produces states every
    record of which checksums clean — the damage is structural, the kind
    a disk that lied about fsync or a buggy checkpointer leaves behind.
    Single-site recovery has no local way to notice; the endurance runs
    (:mod:`repro.endurance`) boot sites from such states and require the
    protocol stack to converge anyway.

    Every operation only *loses* or *duplicates* genuine state, never
    fabricates it, so the result is always a plausible stale replica:

    * ``lost_suffix`` — drop a suffix of the log **including durable
      records** (the fsync lie).  The surviving prefix may be older than
      the checkpoint image; the recomputed cover is honestly lower and
      the data transfer resends everything above it.
    * ``outcome_amnesia`` — forget a random subset of the checkpointed
      exactly-once outcome rows (one per client plus those above the
      collapse floor, see :mod:`repro.db.outcomes`).  Healed because
      transfer completion replaces the joiner's table wholesale
      (``OutcomeTable.reset_to``) before any replay decision consults it.
    * ``duplicate_records`` — stutter a chunk of log records (a replayed
      journal segment).  Recovery's terminated-set bookkeeping and
      forward-version-only redo make the second copy a no-op.

    Applied to a crashed site's storage between ``crash()`` and
    ``recover()``; decisions draw from a dedicated seeded RNG so a
    corruption campaign is reproducible independent of the simulation.
    """

    OPS = ("lost_suffix", "outcome_amnesia", "duplicate_records")

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"stabilize-{seed}")
        #: ``(site, op, detail)`` per corruption applied, in order.
        self.applied = []

    def corrupt(self, storage: PersistentStorage, site: str = "?",
                op: "str | None" = None) -> str:
        """Apply one corruption; returns ``"op: detail"``.

        ``op`` pins the operation explicitly (the schedule-search genome
        carries it as a gene field so a replay makes the identical
        choice); None keeps the historical random pick."""
        if op is None:
            op = self.rng.choice(self.OPS)
        elif op not in self.OPS:
            raise ValueError(f"unknown corruption op {op!r}; "
                             f"valid: {', '.join(self.OPS)}")
        detail = getattr(self, f"_{op}")(storage)
        self.applied.append((site, op, detail))
        return f"{op}: {detail}"

    def _lost_suffix(self, storage: PersistentStorage) -> str:
        if len(storage.log) <= 1:
            return "log too short, nothing lost"
        # Keep at least the leading baseline record so the site still
        # looks like it once held a copy.
        cut = self.rng.randrange(1, len(storage.log))
        durable_before = storage.durable_length
        removed = storage.truncate_at(cut)
        durable_lost = max(0, durable_before - storage.durable_length)
        return (f"dropped {removed} records from index {cut} "
                f"({durable_lost} of them durable)")

    def _outcome_amnesia(self, storage: PersistentStorage) -> str:
        """Drop each checkpointed outcome row with probability 1/2.  The
        image holds each client's newest row at or below the collapse
        floor plus every row above it, so "forgot k of n" counts those
        rows — under uniform delivery about one per client, not one per
        request."""
        rows = storage.outcome_image
        if not rows:
            return "no checkpointed outcome rows to forget"
        kept = tuple(row for row in rows if self.rng.random() >= 0.5)
        storage.outcome_image = kept
        return f"forgot {len(rows) - len(kept)} of {len(rows)} outcome rows"

    def _duplicate_records(self, storage: PersistentStorage) -> str:
        if not storage.log:
            return "empty log, nothing to duplicate"
        start = self.rng.randrange(len(storage.log))
        length = min(1 + self.rng.randrange(4), len(storage.log) - start)
        chunk = storage.log[start:start + length]
        insert_at = start + length
        storage.log[insert_at:insert_at] = chunk
        if insert_at < len(storage._crcs):  # past it, checksums are implicit
            storage._crcs[insert_at:insert_at] = [None] * len(chunk)
        # A duplicated durable segment is itself durable.
        if insert_at <= storage.durable_length:
            storage.durable_length += len(chunk)
        return f"stuttered {length} records at index {start}"

    def describe(self) -> str:
        return f"stable-state-corruptor({len(self.applied)} applied)"
