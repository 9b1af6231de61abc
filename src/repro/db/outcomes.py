"""Replicated exactly-once outcome table (client request dedup).

Every client-session transaction carries a durable ``(client_id, seq,
attempt)`` request id in its totally-ordered write-set message.  At
delivery time — the moment the deterministic version-check decision is
known — every site records the settled outcome here.  A later delivery
of the *same* request (a failover resubmission whose original message
made it into the total order after all) hits the table and is
suppressed instead of re-executed.  Because the table is updated at
delivery-decision time as a deterministic function of the gid prefix,
it decides identically at every site that delivered the same prefix,
and it travels with state transfer so joiners and recoverers learn
settled outcomes they never delivered.

The table is keyed by client.  A client session has at most one
outstanding request and reuses its seq for every resubmission, so only
the client's *newest* row decides a delivery of request ``(c, s, a)``:

* no row for ``c``, or ``s`` above the newest seq -> execute
* ``s`` below the newest seq -> suppress, with no answer (a stale
  attempt of a request the client has moved on from; it can no longer
  commit late)
* ``s`` equal, row committed -> suppress; answer from the table
* ``s`` equal, row aborted, ``a`` > recorded -> execute (genuine retry
  after a definitive abort)
* ``s`` equal, row aborted, ``a`` <= recorded -> suppress (stale
  duplicate of an attempt the client already gave up on)

Older rows are kept only while something may still need them: a
rollback or phantom expunge drops the newest row and must find the one
before it, and a transfer snapshot through a baseline must find each
client's newest row *at or below* that baseline.  Each client's rows
form a chain ordered by seq, and every row at or below the **floor**
collapses into the newest of them.  Nothing at or below the cover is
ever expunged under uniform delivery, and an open peer transfer session
pins its synchronization gid, so each log-truncating checkpoint raises
the floor to ``min(cover, pins)``; under plain reliable delivery the
floor stays at -1.  The table then holds O(clients + log tail) rows, not
one per request.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Tuple

#: ``(client_id, seq, attempt, gid, committed)`` — the wire/log row shape.
OutcomeRow = Tuple[str, int, int, int, bool]

_seq = itemgetter(1)


class OutcomeTable:
    """Per-site replica of the settled client-request outcomes.

    Each entry is stored as its wire row, so the rows handed to a
    checkpoint image, a transfer snapshot or a creation report are the
    table's own tuples, and a table installed from such rows keeps them.
    """

    def __init__(self) -> None:
        #: ``client_id -> [row, ...]`` in ascending seq, one row per seq.
        self._chains: Dict[str, List[OutcomeRow]] = {}
        #: Every row at or below this gid has collapsed into its
        #: client's newest such row; no snapshot can be taken below it.
        self.floor = -1
        #: Open peer transfer session -> the sync gid it will snapshot
        #: at or above; the floor never passes a pin.
        self.pins: Dict[str, int] = {}

    def __len__(self) -> int:
        return sum(map(len, self._chains.values()))

    # ------------------------------------------------------------------
    # Delivery-time protocol
    # ------------------------------------------------------------------
    def lookup(self, request) -> Optional[OutcomeRow]:
        """The client's newest row, if it settles this request's seq."""
        chain = self._chains.get(request.client_id)
        if chain and chain[-1][1] == request.seq:
            return chain[-1]
        return None

    def is_duplicate(self, request) -> bool:
        """Apply the dedup rule from the module docstring."""
        chain = self._chains.get(request.client_id)
        if not chain:
            return False
        row = chain[-1]
        if request.seq != row[1]:
            return request.seq < row[1]
        return row[4] or request.attempt <= row[2]

    def record(self, request, gid: int, committed: bool) -> None:
        """Record the deterministic delivery decision for a request that
        :meth:`is_duplicate` let through (its seq is at least the
        client's newest).

        A committed entry is final and never downgraded; an aborted entry
        is superseded by the decision on a higher attempt.
        """
        row = (request.client_id, request.seq, request.attempt, gid, committed)
        chain = self._chains.get(request.client_id)
        if not chain:
            self._chains[request.client_id] = [row]
        elif request.seq > chain[-1][1]:
            chain.append(row)
        elif request.seq == chain[-1][1] and (committed or not chain[-1][4]):
            chain[-1] = row

    # ------------------------------------------------------------------
    # Transfer / recovery / creation plumbing
    # ------------------------------------------------------------------
    def rows(self) -> Tuple[OutcomeRow, ...]:
        """All entries as sorted wire rows (deterministic).  Chains are
        in seq order, so this sorts by ``(client_id, seq)``."""
        chains = self._chains
        return tuple(row for client in sorted(chains) for row in chains[client])

    def snapshot_through(self, baseline_gid: int) -> Tuple[OutcomeRow, ...]:
        """Each client's newest row decided at or below the transfer
        baseline.

        Rows above the baseline are deliberately excluded: the joiner
        replays those gids itself and must reach (and record) the same
        decisions — handing it the outcome early would make it suppress
        its own first replay of the message and skip the writes.  Below
        the floor the newest such row may have been collapsed away, so a
        snapshot there raises rather than come back short.
        """
        if baseline_gid < self.floor:
            raise ValueError(f"outcome snapshot through {baseline_gid} is below "
                             f"the collapsed floor {self.floor}")
        chains = self._chains
        snapshot = []
        for client in sorted(chains):
            for row in reversed(chains[client]):
                if row[3] <= baseline_gid:
                    snapshot.append(row)
                    break
        return tuple(snapshot)

    def merge(self, rows: Iterable[OutcomeRow]) -> int:
        """Install rows from a peer, preferring settled-committed entries
        and higher attempts.  Returns how many entries changed."""
        changed = 0
        chains = self._chains
        for row in rows:
            chain = chains.get(row[0])
            if not chain:
                chains[row[0]] = [row]
            elif row[1] > chain[-1][1]:
                chain.append(row)
            else:
                at = bisect_left(chain, row[1], key=_seq)
                if chain[at][1] != row[1]:
                    chain.insert(at, row)
                elif chain[at][4] or (not row[4] and row[2] <= chain[at][2]):
                    continue
                else:
                    chain[at] = row
            changed += 1
        return changed

    def reset_to(self, rows: Iterable[OutcomeRow]) -> None:
        """Replace the whole table with a peer's transferred snapshot.

        Used at transfer completion: the peer's snapshot through the
        baseline is complete (an up-to-date site's table holds each
        client's newest settled outcome), and any local entry it lacks
        belongs to a delivery outside the new primary lineage (a phantom)
        or to an in-flight transaction rolled back at stall time.  The
        table has collapsed nothing of the new rows itself, so its floor
        restarts.
        """
        self._chains = {}
        self.floor = -1
        self.merge(rows)

    def expunge_gids(self, gids) -> int:
        """Drop entries decided at the given (phantom) gids."""
        doomed = set(gids)
        if not doomed:
            return 0
        removed = 0
        chains = self._chains
        for client, chain in list(chains.items()):
            kept = [row for row in chain if row[3] not in doomed]
            if len(kept) < len(chain):
                removed += len(chain) - len(kept)
                if kept:
                    chains[client] = kept
                else:
                    del chains[client]
        return removed

    # ------------------------------------------------------------------
    # The floor
    # ------------------------------------------------------------------
    def pin(self, owner: str, sync_gid: int) -> None:
        """Hold the floor at or below ``sync_gid`` until :meth:`unpin`."""
        self.pins[owner] = sync_gid

    def unpin(self, owner: str) -> None:
        self.pins.pop(owner, None)

    def raise_floor(self, cover_gid: int) -> None:
        """Collapse every chain at ``min(cover_gid, pins)``.  Only valid
        where nothing at or below the cover can be expunged any more
        (uniform delivery)."""
        floor = min([cover_gid, *self.pins.values()])
        self.floor = max(self.floor, floor)
        for chain in self._chains.values():
            below = [row for row in chain if row[3] <= floor]
            if len(below) > 1:
                chain[:] = [row for row in chain if row[3] > floor or row is below[-1]]
