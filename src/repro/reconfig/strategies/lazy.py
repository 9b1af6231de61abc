"""Lazy data transfer (section 4.7).

The synchronization point is decoupled from the view change: the joiner
*discards* transaction messages while the peer ships data in rounds —
each round sends the objects updated during the previous one.  Only the
last round (entered when the residual set is small or a round budget is
exhausted) synchronizes with concurrent processing:

1. the peer announces the last round; the joiner starts enqueueing and
   reports the last gid it saw-and-discarded;
2. the peer picks the *delimiter transaction* d = max(joiner's last
   discarded gid, last gid delivered at the peer) and — in the same
   atomic step — requests the database read lock, so every transaction
   delivered later queues behind it;
3. once quiescent below d, the residual set is transferred under short
   object locks (inheriting the database lock's position) and the
   transfer completes with baseline d; the joiner replays enqueued
   transactions with gid > d.

Round boundaries are piggybacked on the last batch of each round, so a
replacement peer resumes from the joiner's reported progress instead of
restarting from scratch — the fail-over property the paper highlights.
"""

from __future__ import annotations

from repro.db.locks import DB_RESOURCE, LockMode
from repro.db.partitions import partition_names, partition_of
from repro.reconfig.strategies.base import NO_COVER, TransferStrategy


class LazyTransferStrategy(TransferStrategy):
    name = "lazy"
    lazy = True

    def __init__(self, round_threshold: int = None, max_rounds: int = None) -> None:
        self.round_threshold = round_threshold
        self.max_rounds = max_rounds

    def on_session_created(self, session) -> None:
        session.strategy_state = {
            "round": 1,
            "boundary_prev": None,  # state sent so far covers gids <= this
            "needs_full": False,
            "final": False,
        }

    # ------------------------------------------------------------------
    def begin(self, session, accept) -> None:
        state = session.strategy_state
        state["needs_full"] = accept.needs_full
        if accept.needs_full:
            state["boundary_prev"] = NO_COVER
        else:
            state["boundary_prev"] = max(accept.cover_gid, accept.resume_through)
        state["done_partitions"] = dict(accept.done_partitions)
        self._start_round(session)

    # ------------------------------------------------------------------
    def _thresholds(self, session):
        config = session.node.config
        threshold = self.round_threshold or config.lazy_round_threshold
        max_rounds = self.max_rounds or config.lazy_max_rounds
        return threshold, max_rounds

    def _start_round(self, session) -> None:
        if not session.active:
            return
        g0 = session.node.last_processed_gid
        session.node.call_when_quiescent_below(g0, lambda: self._run_round(session, g0))

    def _run_round(self, session, g0: int) -> None:
        if not session.active:
            return
        state = session.strategy_state
        threshold, max_rounds = self._thresholds(session)
        partition_count = session.node.config.partition_count
        session.boundary = g0
        if state["round"] == 1 and partition_count > 0:
            # Section 4.7: the first round goes partition by partition,
            # with per-partition completion markers for fail-over resume.
            state["partition_queue"] = partition_names(partition_count)
            self._next_partition(session, g0)
            return
        if state["needs_full"] and state["round"] == 1:
            transfer_set = sorted(session.db.store.objects())
        else:
            transfer_set = self.stale_objects_since(session, state["boundary_prev"])
        # Termination checks I and II (section 4.7): enter the last,
        # synchronized round when the residual set is small enough or
        # the round budget is exhausted.
        if state["round"] > 1 and (len(transfer_set) <= threshold or state["round"] >= max_rounds):
            self._announce_last_round(session)
            return
        if state["round"] == 1 and not transfer_set:
            self._announce_last_round(session)
            return
        # Regular round: short "read committed" access, no held locks.
        # Every writer at or below g0 has terminated, so a last committed
        # version at or below g0 is the object as of g0; an object
        # written since waits for the next round, which ships it anyway.
        for obj in transfer_set:
            value, version = session.db.read_committed(obj)
            if version <= g0:
                session.queue_item(obj, value, version)
        session.set_round_boundary(g0)
        state["boundary_prev"] = g0
        state["round"] += 1
        session.call_on_outbox_drained(lambda: self._start_round(session))

    # ------------------------------------------------------------------
    # Per-partition first round (section 4.7)
    # ------------------------------------------------------------------
    def _next_partition(self, session, g0: int) -> None:
        if not session.active:
            return
        state = session.strategy_state
        queue = state["partition_queue"]
        if not queue:
            state["boundary_prev"] = g0
            state["round"] = 2
            self._start_round(session)
            return
        partition = queue.pop(0)
        partition_count = session.node.config.partition_count
        done_through = state["done_partitions"].get(partition, NO_COVER)
        boundary = max(state["boundary_prev"], done_through)
        if state["needs_full"] and boundary == NO_COVER:
            candidates = session.db.store.objects()
        else:
            candidates = self.stale_objects_since(session, boundary)
        for obj in sorted(candidates):
            if partition_of(obj, partition_count) != partition:
                continue
            value, version = session.db.read_committed(obj)
            if version <= g0:  # as in a regular round
                session.queue_item(obj, value, version)

        def partition_done(partition=partition) -> None:
            session.announce_partition_complete(partition, g0)
            self._next_partition(session, g0)

        session.call_on_outbox_drained(partition_done)

    # ------------------------------------------------------------------
    # Last round (the delimiter transaction)
    # ------------------------------------------------------------------
    def _announce_last_round(self, session) -> None:
        from repro.reconfig.transfer import LastRoundStart

        session.strategy_state["final"] = True
        # Tracked: acknowledged by LastRoundReady, retransmitted on loss —
        # an unanswered announcement would otherwise hang the last round.
        session.send_tracked("last_round", LastRoundStart(session_id=session.session_id))

    def on_last_round_ready(self, session, msg) -> None:
        if not session.active:
            return
        state = session.strategy_state
        if state.get("delimiter") is not None:
            return  # duplicate
        delimiter = max(msg.last_discarded_gid, session.node.last_processed_gid)
        state["delimiter"] = delimiter

        def on_db_grant(request) -> None:
            state["db_ticket"] = request.ticket
            session.node.call_when_quiescent_below(
                delimiter, lambda: self._final_transfer(session, delimiter)
            )

        request = session.db.locks.request(
            session.owner, DB_RESOURCE, LockMode.SHARED, on_db_grant
        )
        state["db_ticket"] = request.ticket

    def _final_transfer(self, session, delimiter: int) -> None:
        if not session.active:
            return
        state = session.strategy_state
        session.boundary = delimiter
        transfer_set = self.stale_objects_since(session, state["boundary_prev"])
        state["remaining"] = len(transfer_set)
        on_grant = self._make_final_grant_handler(session, delimiter)
        for obj in transfer_set:
            session.db.locks.request(
                session.owner,
                obj,
                LockMode.SHARED,
                on_grant,
                inherit_ticket=state["db_ticket"],
            )
        session.db.locks.release(session.owner, DB_RESOURCE)
        if not transfer_set:
            session.set_round_boundary(delimiter)
            session.finish(delimiter)

    def _make_final_grant_handler(self, session, delimiter: int):
        # One handler per round: the granted request names its object.
        def on_grant(request) -> None:
            if not session.active:
                return
            obj = request.resource
            session.queue_item(obj, *session.db.store.read(obj))
            state = session.strategy_state
            state["remaining"] -= 1
            if state["remaining"] == 0:
                session.set_round_boundary(delimiter)
                session.finish(delimiter)

        return on_grant
