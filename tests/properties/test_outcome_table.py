"""Differential test: the client-keyed outcome table of
``repro.db.outcomes`` against the per-request table it replaced
(``keyed_outcome_table.py``, the executable specification).

One site's table is driven with a generated run — deliveries (each
client's seq monotone, retries with higher attempts, stale lower-seq
duplicates), rollback of the unterminated gids, log-truncating
checkpoints, peer transfer sessions pinned at a sync gid and completed
through a baseline, creation merges of an earlier report, and a crash
rebuilt from checkpoint image plus log.  The reference sees the same
decisions (it records what the subject let through) and never collapses.
After every step:

* every request at or above its client's newest seq gets the same
  ``is_duplicate`` verdict and ``lookup`` row from both tables;
* a joiner built from a completed session's ``snapshot_through`` that
  replays the gids above the baseline reaches the site's live decisions;
* ``snapshot_through`` below the floor raises.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.db.outcomes import OutcomeTable
from repro.replication.messages import RequestId

from tests.properties import keyed_outcome_table as keyed

CLIENTS = ["A", "B"]

DELIVER = st.tuples(st.just("deliver"), st.sampled_from(CLIENTS),
                    st.sampled_from(["next", "next", "retry", "stale"]),
                    st.booleans(), st.integers(1, 3), st.integers(1, 4))
OPS = st.one_of(
    DELIVER, DELIVER, DELIVER, DELIVER, DELIVER,
    st.tuples(st.just("settle")),
    st.tuples(st.just("rollback")),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("pin")),
    st.tuples(st.just("complete"), st.integers(0, 5), st.integers(0, 4)),
    st.tuples(st.just("cancel"), st.integers(0, 5)),
    st.tuples(st.just("save")),
    st.tuples(st.just("merge")),
    st.tuples(st.just("crash")),
)


def newest_seq(table: OutcomeTable, client: str) -> int:
    return max((row[1] for row in table.rows() if row[0] == client), default=0)


def probes(table: OutcomeTable):
    """Requests at and just above each client's newest seq."""
    for client in CLIENTS:
        seq = newest_seq(table, client)
        for attempt in range(1, 6):
            yield RequestId(client, max(seq, 1), attempt)
        yield RequestId(client, seq + 1, 1)


class Site:
    """One site: the table under test, the reference fed the same
    decisions, and the stable storage and stream both are rebuilt from."""

    def __init__(self):
        self.table = OutcomeTable()
        self.ref = keyed.OutcomeTable()
        self.gid = 0
        self.stream = []          # (gid, request) of every surviving delivery
        self.decisions = {}       # gid -> suppressed?
        self.pending = []         # delivered gids not yet terminated
        self.recorded = {}        # gid -> (request, committed) the table recorded
        self.cover = 0
        self.image = ((), ())     # (subject rows, reference rows)
        self.log = []             # (gid, request, committed) above the truncation
        self.sessions = []        # [owner, sync_gid]
        self.saved = None
        self.client_seq = dict.fromkeys(CLIENTS, 0)
        self.client_attempt = dict.fromkeys(CLIENTS, 0)
        self.opened = 0

    # -- the run ------------------------------------------------------
    def deliver(self, client, kind, committed, back, attempt):
        if kind == "next" or not self.client_seq[client]:
            self.client_seq[client] += 1
            self.client_attempt[client] = 1
            request = RequestId(client, self.client_seq[client], 1)
        elif kind == "retry":
            self.client_attempt[client] += 1
            request = RequestId(client, self.client_seq[client],
                                self.client_attempt[client])
        else:
            request = RequestId(client, max(1, self.client_seq[client] - back), attempt)
        self.gid += 1
        suppressed = self.table.is_duplicate(request)
        if not suppressed:
            self.table.record(request, self.gid, committed)
            self.ref.record(request, self.gid, committed)
            self.recorded[self.gid] = (request, committed)
        self.stream.append((self.gid, request))
        self.decisions[self.gid] = suppressed
        self.pending.append(self.gid)

    def settle(self):
        """Terminate every pending gid; a recorded one logs its outcome
        (a suppressed one logs a no-op, which carries none)."""
        for gid in self.pending:
            if gid in self.recorded:
                request, committed = self.recorded[gid]
                self.log.append((gid, request, committed))
        self.pending = []
        self.cover = self.gid

    def rollback(self):
        doomed = set(self.pending)
        self.table.expunge_gids(doomed)
        self.ref.expunge_gids(doomed)
        self.stream = [(g, r) for g, r in self.stream if g not in doomed]
        self.pending = []

    def checkpoint(self):
        self.table.raise_floor(self.cover)
        self.image = (self.table.rows(), self.ref.rows())
        self.log = [entry for entry in self.log if entry[0] > self.cover]

    def pin(self):
        owner = f"xfer{self.opened}"
        self.opened += 1
        self.table.pin(owner, self.gid)
        self.sessions.append([owner, self.gid])

    def complete(self, which, ahead):
        if not self.sessions:
            return
        owner, sync_gid = self.sessions.pop(which % len(self.sessions))
        if sync_gid > self.cover:
            self.table.unpin(owner)  # never quiescent below its sync gid here
            return
        baseline = min(self.cover, sync_gid + ahead)
        snapshot = self.table.snapshot_through(baseline)
        self.table.unpin(owner)
        joiner = OutcomeTable()
        joiner.reset_to(snapshot)
        for gid, request in self.stream:
            if gid <= baseline:
                continue
            suppressed = joiner.is_duplicate(request)
            assert suppressed == self.decisions[gid], (gid, request)
            if not suppressed:
                joiner.record(request, gid, self.recorded[gid][1])
        for request in probes(self.table):
            assert joiner.is_duplicate(request) == self.table.is_duplicate(request)
            assert joiner.lookup(request) == self.table.lookup(request)

    def cancel(self, which):
        if self.sessions:
            self.table.unpin(self.sessions.pop(which % len(self.sessions))[0])

    def save(self):
        if not self.pending:
            self.saved = self.table.rows()

    def merge(self):
        if self.saved is not None:
            self.table.merge(self.saved)
            self.ref.merge(self.saved)

    def crash(self):
        """Rebuild both tables the way single-site recovery does: the
        checkpointed rows, then every terminated request logged since."""
        self.rollback()
        self.sessions = []
        tables = []
        for rows, fresh in zip(self.image, (OutcomeTable(), keyed.OutcomeTable())):
            fresh.merge(rows)
            for gid, request, committed in self.log:
                fresh.merge(((request.client_id, request.seq, request.attempt,
                              gid, committed),))
            tables.append(fresh)
        self.table, self.ref = tables

    # -- the checks ---------------------------------------------------
    def check(self):
        table, ref = self.table, self.ref
        for request in probes(table):
            assert table.is_duplicate(request) == ref.is_duplicate(request), request
            assert table.lookup(request) == ref.lookup(request), request
        if table.floor >= 0:
            with pytest.raises(ValueError, match="below the collapsed floor"):
                table.snapshot_through(table.floor - 1)
        assert set(table.pins) == {owner for owner, _ in self.sessions}


NEXT = ("deliver", "A", "next", True, 1, 1)


@given(st.lists(OPS, max_size=80))
@settings(max_examples=400, deadline=None)
# The floor stops at an open session's sync gid, below the cover.
@example([("pin",), NEXT, NEXT, ("settle",), ("checkpoint",), ("complete", 0, 0)])
# It collapses only at or below the cover: a rollback finds the row before.
@example([NEXT, NEXT, ("settle",), NEXT, ("checkpoint",), ("rollback",)])
def test_keyed_table_decides_like_the_per_request_table(ops):
    site = Site()
    for op in ops:
        getattr(site, op[0])(*op[1:])
        site.check()


@given(st.lists(DELIVER, max_size=40))
@settings(max_examples=100, deadline=None)
def test_a_quiet_checkpoint_leaves_one_row_per_client(deliveries):
    site = Site()
    for op in deliveries:
        site.deliver(*op[1:])
    site.settle()
    site.checkpoint()
    assert len(site.table) == len({request.client_id for _, request in site.stream})
