"""Unit tests for client sessions (repro.client).

The session's supervision logic — timeouts, backoff, failover, giving
up — is exercised against a minimal fake cluster so every edge can be
driven deterministically; the real end-to-end behaviour (including the
replicated dedup table) is covered by the integration tests in
tests/integration/test_client_failover.py.
"""

from typing import Dict, List, Optional

import pytest

from repro import ClusterBuilder, LoadGenerator, WorkloadConfig
from repro.client import ClientFleet, ClientSession, RequestState
from repro.replication.transaction import AbortReason, Transaction, TxnState
from repro.sim.core import Simulator


class FakeNode:
    """Records submissions; the test settles them by hand."""

    def __init__(self, site_id: str) -> None:
        self.site_id = site_id
        self.submissions: List[Transaction] = []
        self.raise_on_submit = False

    def submit(self, reads, writes, request=None, on_done=None) -> Transaction:
        if self.raise_on_submit:
            raise RuntimeError(f"site {self.site_id} is not ACTIVE")
        txn = Transaction(
            txn_id=f"{self.site_id}-T{len(self.submissions) + 1}",
            origin=self.site_id, reads=list(reads), writes=dict(writes),
            request=request, on_done=on_done,
        )
        self.submissions.append(txn)
        return txn

    def settle(self, txn: Transaction, *, commit: bool,
               reason: Optional[AbortReason] = None,
               gid: Optional[int] = None,
               sent: bool = False) -> None:
        txn.state = TxnState.COMMITTED if commit else TxnState.ABORTED
        txn.abort_reason = reason
        txn.gid = gid
        if sent:
            txn.sent_at = 0.0
        if txn.on_done is not None:
            txn.on_done(txn)


class FakeCluster:
    """Just enough surface for a ClientSession: sim, nodes, active set."""

    def __init__(self, sites=("S1", "S2")) -> None:
        self.sim = Simulator(seed=7)
        self.nodes: Dict[str, FakeNode] = {s: FakeNode(s) for s in sites}
        self.active: List[str] = list(sites)

    def active_sites(self) -> List[str]:
        return list(self.active)


#: The supervision constants every test here runs with.
CONFIG = {"RESPONSE_TIMEOUT": 0.5, "BACKOFF_BASE": 0.02,
          "BACKOFF_FACTOR": 2.0, "BACKOFF_MAX": 1.0, "MAX_ATTEMPTS": 3}


@pytest.fixture(autouse=True)
def session_constants(monkeypatch):
    for name, value in CONFIG.items():
        monkeypatch.setattr(ClientSession, name, value)


def all_submissions(cluster: FakeCluster) -> List[Transaction]:
    """Every submission across sites, in attempt order."""
    txns = [t for node in cluster.nodes.values() for t in node.submissions]
    return sorted(txns, key=lambda t: t.request.attempt)


class TestNoActiveSite:
    def test_waits_without_consuming_attempts(self):
        cluster = FakeCluster()
        cluster.active = []
        session = ClientSession(cluster, "C1")
        record = session.submit(["x"], {"y": 1})
        cluster.sim.run(until=1.0)
        assert record.state is RequestState.PENDING
        assert record.attempts_used == 0
        assert session.no_site_waits > 0
        assert all_submissions(cluster) == []

    def test_resumes_when_a_site_returns(self):
        cluster = FakeCluster()
        cluster.active = []
        session = ClientSession(cluster, "C1")
        record = session.submit(["x"], {"y": 1})
        cluster.sim.run(until=0.3)
        cluster.active = ["S2"]
        cluster.sim.run(until=0.4)  # next wait tick submits for real
        txns = cluster.nodes["S2"].submissions
        assert len(txns) == 1
        assert txns[0].request.attempt == 1  # the wait burned no attempt
        cluster.nodes["S2"].settle(txns[0], commit=True, gid=10)
        assert record.state is RequestState.COMMITTED
        assert record.committed_gid == 10

    def test_submit_raising_counts_as_no_site(self):
        cluster = FakeCluster(sites=("S1",))
        cluster.nodes["S1"].raise_on_submit = True
        session = ClientSession(cluster, "C1")
        record = session.submit(["x"], {"y": 1})
        cluster.sim.run(until=0.5)
        assert record.attempts_used == 0
        assert session.no_site_waits > 0


class TestFailover:
    def test_in_doubt_crash_fails_over_with_bumped_attempt(self):
        cluster = FakeCluster()
        session = ClientSession(cluster, "C1")
        record = session.submit(["x"], {"y": 1})  # attempt 1 is synchronous
        (txn,) = all_submissions(cluster)
        cluster.nodes[txn.origin].settle(
            txn, commit=False, reason=AbortReason.SITE_CRASHED, sent=True)
        cluster.sim.run(until=0.1)  # past the backoff, before the timeout
        txns = all_submissions(cluster)
        assert len(txns) == 2
        assert txns[1].request.key == txns[0].request.key
        assert txns[1].request.attempt == 2
        assert record.in_doubt_attempts == 1
        assert record.failovers == 1

    def test_timeout_is_in_doubt(self):
        cluster = FakeCluster()
        session = ClientSession(cluster, "C1")
        record = session.submit(["x"], {"y": 1})
        cluster.sim.run(until=CONFIG["RESPONSE_TIMEOUT"] + 0.01)
        assert record.in_doubt_attempts == 1

    def test_stale_abort_after_failover_is_ignored(self):
        cluster = FakeCluster()
        session = ClientSession(cluster, "C1")
        record = session.submit(["x"], {"y": 1})
        (first,) = all_submissions(cluster)
        # Time the first attempt out, then deliver its abort late.
        cluster.sim.run(until=0.6)  # timeout at 0.5 + backoff: attempt 2
        assert record.current_attempt == 2
        cluster.nodes[first.origin].settle(
            first, commit=False, reason=AbortReason.SITE_CRASHED, sent=True)
        assert record.state is RequestState.PENDING
        assert record.current_attempt == 2

    def test_late_commit_settles_regardless_of_attempt(self):
        cluster = FakeCluster()
        session = ClientSession(cluster, "C1")
        record = session.submit(["x"], {"y": 1})
        (first,) = all_submissions(cluster)
        cluster.sim.run(until=0.6)  # attempt 2 is now in flight
        cluster.nodes[first.origin].settle(first, commit=True, gid=42)
        assert record.state is RequestState.COMMITTED
        assert record.committed_gid == 42


class TestExhaustion:
    def test_all_timeouts_exhausts_in_doubt(self):
        cluster = FakeCluster()
        session = ClientSession(cluster, "C1")
        record = session.submit(["x"], {"y": 1})
        cluster.sim.run(until=20.0)
        assert record.state is RequestState.EXHAUSTED
        assert record.attempts_used == CONFIG["MAX_ATTEMPTS"]
        assert record.in_doubt_attempts == CONFIG["MAX_ATTEMPTS"]

    def test_all_definitive_aborts_is_aborted_not_exhausted(self):
        cluster = FakeCluster()
        session = ClientSession(cluster, "C1")
        record = session.submit(["x"], {"y": 1})
        for _ in range(CONFIG["MAX_ATTEMPTS"]):
            cluster.sim.run(until=cluster.sim.now + 0.2)
            pending = [t for t in all_submissions(cluster) if not t.done]
            for txn in pending:
                cluster.nodes[txn.origin].settle(
                    txn, commit=False, reason=AbortReason.VERSION_CHECK)
        assert record.state is RequestState.ABORTED
        assert record.in_doubt_attempts == 0
        assert record.failovers == 0

    def test_duplicate_abort_retries_with_fresh_attempt(self):
        cluster = FakeCluster()
        session = ClientSession(cluster, "C1")
        session.submit(["x"], {"y": 1})
        (txn,) = all_submissions(cluster)
        cluster.nodes[txn.origin].settle(
            txn, commit=False, reason=AbortReason.DUPLICATE)
        cluster.sim.run(until=0.1)
        txns = all_submissions(cluster)
        assert len(txns) == 2 and txns[1].request.attempt == 2


class TestBackoffDeterminism:
    def test_backoff_delay_is_a_pure_schedule(self):
        session = ClientSession(FakeCluster(), "C1")
        delays = [session.backoff_delay(k) for k in range(8)]
        assert delays == [min(0.02 * 2.0 ** k, 1.0) for k in range(8)]
        assert delays == sorted(delays)  # monotone up to the cap
        assert delays[-1] == 1.0

    def test_recorded_schedule_matches_the_formula(self):
        cluster = FakeCluster()
        session = ClientSession(cluster, "C1")
        record = session.submit(["x"], {"y": 1})
        cluster.sim.run(until=20.0)  # every attempt times out
        assert record.state is RequestState.EXHAUSTED
        # Attempts 1..max-1 each wait backoff_delay(attempts_used so far);
        # the final attempt exhausts without another wait.
        assert record.backoff_schedule == [
            session.backoff_delay(k) for k in range(1, CONFIG["MAX_ATTEMPTS"])
        ]

    def test_two_sessions_same_seed_same_schedule(self):
        schedules = []
        for _ in range(2):
            cluster = FakeCluster()
            session = ClientSession(cluster, "C1")
            record = session.submit(["x"], {"y": 1})
            cluster.sim.run(until=20.0)
            schedules.append(list(record.backoff_schedule))
        assert schedules[0] == schedules[1]


class TestSessionConfigValidation:
    def test_outstanding_request_guard(self):
        cluster = FakeCluster()
        session = ClientSession(cluster, "C1")
        session.submit(["x"], {"y": 1})
        with pytest.raises(RuntimeError):
            session.submit(["x"], {"y": 2})


class TestFleetValidation:
    @pytest.mark.parametrize("workload", [
        WorkloadConfig(arrival_rate=0.0),
        WorkloadConfig(hot_fraction=1.5, hot_access_probability=1.0),
    ], ids=["zero_arrival_rate", "hot_fraction_above_one"])
    def test_rejects_the_workloads_the_generator_rejects(self, workload):
        """Checked when the fleet is built, not as a ZeroDivisionError or
        IndexError once the first request is drawn."""
        cluster = ClusterBuilder(n_sites=2, db_size=10).build()
        with pytest.raises(ValueError) as generator:
            LoadGenerator(cluster, workload)
        with pytest.raises(ValueError) as fleet:
            ClientFleet(cluster, 2, workload)
        assert str(fleet.value) == str(generator.value)
