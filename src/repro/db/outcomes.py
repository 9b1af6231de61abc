"""Replicated exactly-once outcome table (client request dedup).

Every client-session transaction carries a durable ``(client_id, seq,
attempt)`` request id in its totally-ordered write-set message.  At
delivery time — the moment the deterministic version-check decision is
known — every site records the settled outcome here, keyed by
``(client_id, seq)``.  A later delivery of the *same* request (a
failover resubmission whose original message made it into the total
order after all) hits the table and is suppressed instead of
re-executed.  Because the table is updated at delivery-decision time as
a deterministic function of the gid prefix, it is identical at every
site that delivered the same prefix, and it travels with state transfer
(entries at gid <= baseline) so joiners and recoverers learn settled
outcomes they never delivered.

Entry semantics, for request ``(c, s, a)`` at delivery:

* no entry for ``(c, s)``          -> execute (first attempt to arrive)
* entry committed                  -> suppress; answer from the table
* entry aborted, ``a`` > recorded  -> execute (genuine retry after a
                                      definitive abort)
* entry aborted, ``a`` <= recorded -> suppress (stale duplicate of an
                                      attempt the client already gave
                                      up on; letting it run could
                                      commit a request the client
                                      believes aborted)
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

#: ``(client_id, seq, attempt, gid, committed)`` — the wire/log row shape.
OutcomeRow = Tuple[str, int, int, int, bool]


class OutcomeTable:
    """Per-site replica of the settled client-request outcomes.

    Each entry is stored as its wire row, so the rows handed to a
    checkpoint image, a transfer snapshot or a creation report are the
    table's own tuples, and a table installed from such rows keeps them.
    """

    def __init__(self) -> None:
        #: ``(client_id, seq) -> (client_id, seq, attempt, gid, committed)``
        self._entries: Dict[Tuple[str, int], OutcomeRow] = {}

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Delivery-time protocol
    # ------------------------------------------------------------------
    def lookup(self, request) -> Optional[OutcomeRow]:
        """Settled row for the request, if any."""
        return self._entries.get((request.client_id, request.seq))

    def is_duplicate(self, request) -> bool:
        """Apply the dedup rule from the module docstring."""
        row = self._entries.get((request.client_id, request.seq))
        if row is None:
            return False
        if row[4]:
            return True
        return request.attempt <= row[2]

    def record(self, request, gid: int, committed: bool) -> None:
        """Record the deterministic delivery decision for the request.

        A committed entry is final and never downgraded; an aborted entry
        is superseded by the decision on a higher attempt.
        """
        key = (request.client_id, request.seq)
        existing = self._entries.get(key)
        if existing is not None and existing[4] and not committed:
            return
        self._entries[key] = (request.client_id, request.seq, request.attempt, gid, committed)

    # ------------------------------------------------------------------
    # Transfer / recovery / creation plumbing
    # ------------------------------------------------------------------
    def rows(self) -> Tuple[OutcomeRow, ...]:
        """All entries as sorted wire rows (deterministic).  Keys are
        unique, so sorting the rows sorts by ``(client_id, seq)``."""
        return tuple(sorted(self._entries.values()))

    def snapshot_through(self, baseline_gid: int) -> Tuple[OutcomeRow, ...]:
        """Rows whose deciding gid is at or below the transfer baseline.

        Entries above the baseline are deliberately excluded: the joiner
        replays those gids itself and must reach (and record) the same
        decisions — handing it the outcome early would make it suppress
        its own first replay of the message and skip the writes.
        """
        return tuple(row for row in self.rows() if row[3] <= baseline_gid)

    def merge(self, rows: Iterable[OutcomeRow]) -> int:
        """Install rows from a peer, preferring settled-committed entries
        and higher attempts.  Returns how many entries changed."""
        changed = 0
        entries = self._entries
        for row in rows:
            key = (row[0], row[1])
            existing = entries.get(key)
            if existing is not None:
                if existing[4]:
                    continue
                if not row[4] and row[2] <= existing[2]:
                    continue
            entries[key] = row
            changed += 1
        return changed

    def reset_to(self, rows: Iterable[OutcomeRow]) -> None:
        """Replace the whole table with a peer's transferred snapshot.

        Used at transfer completion: the peer's snapshot through the
        baseline is complete (an up-to-date site's table holds every
        settled outcome), and any local entry it lacks belongs to a
        delivery outside the new primary lineage (a phantom) or to an
        in-flight transaction rolled back at stall time.
        """
        self._entries = {(row[0], row[1]): row for row in rows}

    def expunge_gids(self, gids) -> int:
        """Drop entries decided at the given (phantom) gids."""
        doomed = set(gids)
        if not doomed:
            return 0
        victims = [key for key, row in self._entries.items() if row[3] in doomed]
        for key in victims:
            del self._entries[key]
        return len(victims)
