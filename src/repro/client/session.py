"""Client sessions: durable request ids, timeouts, backoff and failover.

A :class:`ClientSession` is the paper's missing end user.  It submits
logical requests to an ACTIVE site, tags every one with a durable
``(client_id, seq)`` id (:class:`repro.replication.messages.RequestId`),
and supervises each attempt with a response timeout.  When the contact
site crashes, leaves the primary component, or simply stops answering,
the session *fails over*: after an exponential backoff it resubmits the
same request — attempt counter bumped — at another ACTIVE site.

The resubmission is safe because every site runs the replicated
exactly-once outcome table (:mod:`repro.db.outcomes`): if the original
write-set message was delivered after all, the resubmitted copy is
suppressed at every site and the session is answered from the table.
The in-doubt window of a classical client (did my crashed server commit
or not?) therefore always resolves to a definite outcome.

Determinism: every timer runs on the cluster's simulated clock and every
random choice (contact site, think times) draws from ``cluster.sim.rng``,
so client-mode runs replay bit-identically under ``repro audit``.
"""

from __future__ import annotations

import enum
import itertools
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.replication.messages import RequestId
from repro.replication.transaction import AbortReason, Transaction
from repro.workload.generator import WorkloadConfig, draw_request

#: Abort reasons that settle an attempt definitively: the attempt's
#: message either was never multicast or deterministically aborts at
#: every site, so resubmitting cannot double-execute.
_DEFINITIVE_ABORTS = (
    AbortReason.VERSION_CHECK,
    AbortReason.LOCAL_READER_CONFLICT,
    AbortReason.DUPLICATE,
)


class RequestState(enum.Enum):
    PENDING = "pending"
    #: Exactly one commit of this request exists system-wide.
    COMMITTED = "committed"
    #: Every attempt settled as an abort and none is in doubt: the
    #: request provably never committed anywhere.
    ABORTED = "aborted"
    #: The session gave up with at least one attempt in doubt; at most
    #: one commit may exist (the checker enforces the at-most-once side).
    EXHAUSTED = "exhausted"


@dataclass(slots=True)
class RequestRecord:
    """One logical client request across all its attempts."""

    client_id: str
    seq: int
    reads: List[str]
    writes: Dict[str, Any]
    submitted_at: float
    state: RequestState = RequestState.PENDING
    finished_at: Optional[float] = None
    committed_gid: Optional[int] = None
    #: Attempt counter of the attempt currently in flight (also the id
    #: carried by its message); stale completions are told apart by it.
    current_attempt: int = 0
    attempts_used: int = 0
    #: Attempts that ended without a definitive outcome (contact crashed
    #: or timed out after the message may have been sequenced).
    in_doubt_attempts: int = 0
    failovers: int = 0
    #: Backoff delays actually waited, in order (unit-test observable).
    backoff_schedule: List[float] = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.state is not RequestState.PENDING

    @property
    def latency(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at


class ClientSession:
    """One closed-loop client: at most one outstanding request.

    ``backoff_jitter`` in [0, 1] spreads the retries of different
    clients after a mass failover (0 = none).  The jittered delay is
    ``delay * (1 - j + j*u)`` where ``u`` is a deterministic hash of
    (client_id, seq, attempt): no RNG is consumed, so runs replay
    bit-identically and two clients never share a retry schedule.
    """

    #: Give up on an attempt that produced no response for this long.
    RESPONSE_TIMEOUT = 1.0
    #: Exponential backoff between attempts: ``base * factor**k`` capped
    #: at ``BACKOFF_MAX`` (k = completed attempts so far).  The base
    #: schedule is a pure function of the attempt index, which the
    #: determinism unit tests pin down.
    BACKOFF_BASE = 0.02
    BACKOFF_FACTOR = 2.0
    BACKOFF_MAX = 1.0
    #: Total attempts per logical request before the session gives up.
    MAX_ATTEMPTS = 8

    def __init__(self, cluster, client_id: str, *, backoff_jitter: float = 0.0,
                 on_request_done: Optional[Callable[[RequestRecord], None]] = None,
                 ) -> None:
        if not 0.0 <= backoff_jitter <= 1.0:
            raise ValueError("backoff_jitter must be in [0, 1]")
        self.cluster = cluster
        self.client_id = client_id
        self.backoff_jitter = backoff_jitter
        self.on_request_done = on_request_done
        self.records: List[RequestRecord] = []
        self.current: Optional[RequestRecord] = None
        self._seq = 0
        self._timeout_event = None
        #: Times an attempt found no ACTIVE site (waited without
        #: consuming an attempt).
        self.no_site_waits = 0

    # ------------------------------------------------------------------
    # Issuing requests
    # ------------------------------------------------------------------
    def submit(self, reads: List[str], writes: Dict[str, Any]) -> RequestRecord:
        if self.current is not None and not self.current.done:
            raise RuntimeError(f"{self.client_id} already has an outstanding request")
        self._seq += 1
        record = RequestRecord(
            client_id=self.client_id,
            seq=self._seq,
            reads=list(reads),
            writes=dict(writes),
            submitted_at=self.cluster.sim.now,
        )
        self.records.append(record)
        self.current = record
        self._start_attempt(record)
        return record

    def _start_attempt(self, record: RequestRecord) -> None:
        if record.done:
            return
        record.current_attempt += 1
        record.attempts_used += 1
        attempt = record.current_attempt
        site = self._pick_site()
        if site is None:
            # No ACTIVE site right now: wait (backoff) without burning
            # the attempt — nothing was submitted anywhere.
            record.current_attempt -= 1
            record.attempts_used -= 1
            self.no_site_waits += 1
            self._sleep_then_retry(record)
            return
        request = RequestId(self.client_id, record.seq, attempt)
        node = self.cluster.nodes[site]
        try:
            node.submit(
                list(record.reads), dict(record.writes),
                request=request,
                on_done=lambda txn, a=attempt, r=record: self._on_attempt_done(r, a, txn),
            )
        except RuntimeError:
            # The site demoted between the status check and the call:
            # nothing was sent, same as finding no ACTIVE site.
            record.current_attempt -= 1
            record.attempts_used -= 1
            self.no_site_waits += 1
            self._sleep_then_retry(record)
            return
        self._arm_timeout(record, attempt)

    def _pick_site(self) -> Optional[str]:
        active = self.cluster.active_sites()
        if not active:
            return None
        return active[self.cluster.sim.rng.randrange(len(active))]

    # ------------------------------------------------------------------
    # Attempt supervision
    # ------------------------------------------------------------------
    def _arm_timeout(self, record: RequestRecord, attempt: int) -> None:
        self._cancel_timeout()
        self._timeout_event = self.cluster.sim.schedule(
            self.RESPONSE_TIMEOUT, self._on_timeout, record, attempt,
            label=f"client-timeout:{self.client_id}:{record.seq}#{attempt}",
        )

    def _cancel_timeout(self) -> None:
        if self._timeout_event is not None:
            self._timeout_event.cancel()
            self._timeout_event = None

    def _on_attempt_done(self, record: RequestRecord, attempt: int,
                         txn: Transaction) -> None:
        if record.done:
            return
        if txn.committed:
            # A commit settles the request no matter how old the attempt:
            # the outcome table guarantees there is only one, and any
            # newer attempt still in flight will be suppressed and
            # answered with the same gid.
            self._finish(record, RequestState.COMMITTED, gid=txn.gid)
            return
        if attempt != record.current_attempt:
            return  # stale abort of an attempt we already failed over
        if txn.abort_reason in _DEFINITIVE_ABORTS:
            self._next_attempt(record, in_doubt=False)
        else:
            # SITE_CRASHED / SITE_LEFT_PRIMARY.  If the write-set was
            # multicast before the site went down, the message may still
            # be sequenced: the attempt is in doubt until the outcome
            # table answers the resubmission.
            in_doubt = txn.sent_at is not None
            self._next_attempt(record, in_doubt=in_doubt)

    def _on_timeout(self, record: RequestRecord, attempt: int) -> None:
        if record.done or attempt != record.current_attempt:
            return
        # No response within the window.  The attempt's transaction may
        # still be alive at a reachable-but-slow site, so this is always
        # in doubt.
        self._next_attempt(record, in_doubt=True)

    def _next_attempt(self, record: RequestRecord, in_doubt: bool) -> None:
        self._cancel_timeout()
        if in_doubt:
            record.in_doubt_attempts += 1
            record.failovers += 1
        if record.attempts_used >= self.MAX_ATTEMPTS:
            if record.in_doubt_attempts > 0:
                self._finish(record, RequestState.EXHAUSTED)
            else:
                self._finish(record, RequestState.ABORTED)
            return
        self._sleep_then_retry(record)

    def _sleep_then_retry(self, record: RequestRecord) -> None:
        delay = self.jittered_delay(record.seq, record.attempts_used)
        record.backoff_schedule.append(delay)
        self.cluster.sim.schedule(
            delay, self._start_attempt, record,
            label=f"client-retry:{self.client_id}:{record.seq}",
        )

    def backoff_delay(self, completed_attempts: int) -> float:
        return min(
            self.BACKOFF_BASE * (self.BACKOFF_FACTOR ** completed_attempts),
            self.BACKOFF_MAX,
        )

    def jittered_delay(self, seq: int, completed_attempts: int) -> float:
        """The backoff delay with the configured jitter applied.

        The jitter coefficient is a CRC32 hash of (client_id, seq,
        attempt) mapped to [0, 1]: deterministic across processes
        (unlike ``hash``) and distinct per client, so a mass failover
        desynchronizes without consuming simulator randomness.
        """
        delay = self.backoff_delay(completed_attempts)
        jitter = self.backoff_jitter
        if jitter <= 0.0:
            return delay
        token = f"{self.client_id}:{seq}:{completed_attempts}"
        unit = zlib.crc32(token.encode("utf-8")) / 0xFFFFFFFF
        return delay * (1.0 - jitter + jitter * unit)

    def _finish(self, record: RequestRecord, state: RequestState,
                gid: Optional[int] = None) -> None:
        self._cancel_timeout()
        record.state = state
        record.committed_gid = gid
        record.finished_at = self.cluster.sim.now
        if self.current is record:
            self.current = None
        if self.on_request_done is not None:
            self.on_request_done(record)

    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        return self.current is None or self.current.done

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ClientSession {self.client_id} requests={len(self.records)}>"


class ClientFleet:
    """N closed-loop client sessions driving a cluster.

    Together the sessions approximate the generator's open-loop arrival
    rate: each session's think time between requests is exponential with
    mean ``n_clients / arrival_rate``.  Request shapes (read/write counts
    and hot-set skew) reuse the workload configuration.
    """

    def __init__(self, cluster, n_clients: int, workload_config: WorkloadConfig,
                 *, backoff_jitter: float = 0.0) -> None:
        if n_clients < 1:
            raise ValueError("n_clients must be at least 1")
        workload_config.validate()
        self.cluster = cluster
        self.workload_config = workload_config
        self.sessions: List[ClientSession] = [
            ClientSession(
                cluster, f"C{i + 1}", backoff_jitter=backoff_jitter,
                on_request_done=self._on_request_done,
            )
            for i in range(n_clients)
        ]
        self._running = False
        self._objects = sorted(cluster.initial_db)
        self._values = itertools.count(1)

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._running = True
        for session in self.sessions:
            self._schedule_next(session)

    def stop(self) -> None:
        """Stop issuing new requests; in-flight ones run to completion."""
        self._running = False

    def _think_time(self) -> float:
        rate = self.workload_config.arrival_rate / len(self.sessions)
        return self.cluster.sim.rng.expovariate(rate)

    def _schedule_next(self, session: ClientSession) -> None:
        self.cluster.sim.schedule(
            self._think_time(), self._issue, session,
            label=f"client-issue:{session.client_id}",
        )

    def _issue(self, session: ClientSession) -> None:
        if not self._running or not session.idle:
            return
        session.submit(*draw_request(self.cluster.sim.rng, self._objects,
                                     self.workload_config, self._values))

    def _on_request_done(self, record: RequestRecord) -> None:
        if self._running:
            session = next(
                s for s in self.sessions if s.client_id == record.client_id
            )
            self._schedule_next(session)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def records(self) -> List[RequestRecord]:
        return [r for s in self.sessions for r in s.records]

    def committed(self) -> List[RequestRecord]:
        return [r for r in self.records if r.state is RequestState.COMMITTED]

    def aborted(self) -> List[RequestRecord]:
        return [r for r in self.records if r.state is RequestState.ABORTED]

    def exhausted(self) -> List[RequestRecord]:
        return [r for r in self.records if r.state is RequestState.EXHAUSTED]

    def unresolved(self) -> List[RequestRecord]:
        return [r for r in self.records if not r.done]

    def drained(self) -> bool:
        return all(session.idle for session in self.sessions)

    def latencies(self) -> List[float]:
        return [r.latency for r in self.committed() if r.latency is not None]

    def metrics(self) -> Dict[str, float]:
        records = self.records
        failovers = sum(r.failovers for r in records)
        in_doubt_resolved = sum(
            1 for r in records
            if r.in_doubt_attempts > 0
            and r.state in (RequestState.COMMITTED, RequestState.ABORTED)
        )
        return {
            "client.sessions": float(len(self.sessions)),
            "client.requests": float(len(records)),
            "client.committed": float(len(self.committed())),
            "client.aborted": float(len(self.aborted())),
            "client.exhausted": float(len(self.exhausted())),
            "client.unresolved": float(len(self.unresolved())),
            "client.failovers": float(failovers),
            "client.in_doubt_resolved": float(in_doubt_resolved),
            "client.no_site_waits": float(
                sum(s.no_site_waits for s in self.sessions)),
        }
