"""End-to-end client sessions under chaos: exactly-once failover.

Three layers of evidence:

* the pinned chaos regression seeds re-run in client mode (closed-loop
  ClientSession fleets with failover) must satisfy the full invariant
  suite *plus* ``check_exactly_once`` over the session ledger;
* a mutated run — ``tests.mutations.no_dedup``: no site recognises a
  resubmission — must FAIL the exactly-once checker, proving the checker
  actually catches double execution (a checker that cannot fail verifies
  nothing);
* the replicated dedup table answers a resubmitted request from the
  table instead of re-executing it, observable on a healthy cluster;
* the table keeps one row per client: a request the client abandoned
  cannot commit after the client moved on, and a cascade of crashes and
  partitions under a client fleet ends with one row per client.
"""

import pytest

from repro import WorkloadConfig
from repro.checkers import check_exactly_once, run_all_checks
from repro.client import ClientFleet
from repro.client.session import ClientSession, RequestState
from repro.faults.chaos import run_chaos
from repro.replication.messages import RequestId
from repro.replication.node import SiteStatus
from tests import mutations
from tests.conftest import quick_cluster

#: Same pinned storms as test_chaos_regressions, driven by 6 sessions.
CLIENT_CASES = [
    ("evs", 9),
    ("evs", 2),   # once: tentative outcome rows answered clients from
                  # phantom gids / leaked through creation reports
    ("evs", 14),
    ("evs", 23),  # heaviest failover traffic of the pinned set
    ("evs", 12),
    ("vs", 23),
]


@pytest.mark.parametrize("mode,seed", CLIENT_CASES)
def test_pinned_seeds_are_exactly_once(mode, seed):
    report = run_chaos(seed=seed, mode=mode, clients=6)
    assert report.ok, f"chaos {mode} seed={seed} clients=6: {report.error}"
    # The run must have actually exercised the client path.
    assert report.metrics["client.requests"] > 0
    assert report.metrics["client.unresolved"] == 0


@pytest.mark.parametrize("seed", [9, 23])
def test_pinned_seeds_are_exactly_once_per_backend(backend, seed):
    """Conformance: the exactly-once ledger holds under the heaviest
    pinned storms on every reconfiguration backend."""
    report = run_chaos(seed=seed, mode=backend, clients=6)
    assert report.ok, f"chaos {backend} seed={seed} clients=6: {report.error}"
    assert report.metrics["client.requests"] > 0
    assert report.metrics["client.unresolved"] == 0


@pytest.mark.parametrize("mode,seed", [("evs", 23), ("vs", 23)])
def test_sabotaged_dedup_is_caught(monkeypatch, mode, seed):
    """With the outcome table answering "never seen", resubmission after
    an in-doubt crash re-executes the request; the checker must call it
    out.  (Which seeds bite moves with the membership timing: ``vs`` 23
    stopped when primary views began delivering on a majority of acks,
    and ``evs`` 12 and ``vs`` 25, pinned then, stopped when a removal
    stopped waiting the 60 ms debounce.  Of seeds 0..39, 17 ``evs`` and
    25 ``vs`` seeds bite now, 23 on both.)"""
    mutations.no_dedup(monkeypatch)
    report = run_chaos(seed=seed, mode=mode, clients=6)
    assert not report.ok
    assert "committed under 2 distinct gids" in report.error


def test_failing_chaos_fleet_cell_leaves_evidence(monkeypatch, capsys,
                                                  tmp_path):
    """A failing cell on the ``--seeds`` fleet path (one seed, so the
    fleet runs inline and the mutation reaches it): the cell dumps the
    same evidence bundle a failing single run does, and the table prints
    its paths."""
    from repro.cli import main

    mutations.no_dedup(monkeypatch)
    code = main(["chaos", "--seeds", "23", "--mode", "evs", "--clients", "6",
                 "--artifacts-dir", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    bundle = tmp_path / "chaos-seed23-evs"
    for name in ("repro.txt", "schedule.txt", "trace.txt", "metrics.txt",
                 "wal_S1.log"):
        assert (bundle / name).exists(), name
        assert f"artifact: {bundle / name}" in captured.out
    assert "--seed 23 --mode evs --clients 6" in \
        (bundle / "repro.txt").read_text()
    assert "reproduce: PYTHONPATH=src python -m repro chaos --seed 23" \
        in captured.err


def test_resubmission_is_answered_from_the_table(backend):
    cluster = quick_cluster(mode=backend)
    node = cluster.nodes[cluster.active_sites()[0]]
    results = []
    first = node.submit(["obj0"], {"obj1": 111},
                        request=RequestId("CX", 1, 1),
                        on_done=results.append)
    cluster.settle(1.0)
    assert first.committed and first.gid is not None
    suppressed_before = node.duplicates_suppressed
    # Same (client_id, seq), bumped attempt: a failover resubmission.
    second = node.submit(["obj0"], {"obj1": 222},
                         request=RequestId("CX", 1, 2),
                         on_done=results.append)
    cluster.settle(1.0)
    assert second.committed
    assert second.gid == first.gid  # answered with the original commit
    assert node.duplicates_suppressed > suppressed_before
    # The duplicate write-set was never applied anywhere.
    for site_node in cluster.nodes.values():
        assert site_node.db.store.read("obj1")[0] == 111
    assert len(results) == 2


def test_client_metrics_surface_in_report():
    report = run_chaos(seed=23, mode="evs", clients=6)
    assert report.ok
    for key in ("client.sessions", "client.requests", "client.committed",
                "client.failovers", "client.in_doubt_resolved",
                "client.duplicates_suppressed"):
        assert key in report.metrics, key
    assert report.metrics["client.sessions"] == 6.0


def test_an_abandoned_request_cannot_commit_late(monkeypatch):
    """A client gives up on seq 1 with its only attempt in doubt
    (EXHAUSTED) and moves on to seq 2.  The seq 1 attempt's message
    reaches the total order only after seq 2 settled: it is a stale
    delivery, suppressed at every site, so the abandoned request never
    commits."""
    cluster = quick_cluster()
    held = []
    for node in cluster.nodes.values():
        def hold(payload, real=node._multicast):
            request = getattr(payload, "request", None)
            if request is not None and request.seq == 1:
                held.append((real, payload))
            else:
                real(payload)
        monkeypatch.setattr(node, "_multicast", hold)
    monkeypatch.setattr(ClientSession, "MAX_ATTEMPTS", 1)
    monkeypatch.setattr(ClientSession, "RESPONSE_TIMEOUT", 0.2)
    session = ClientSession(cluster, "CL")

    first = session.submit(["obj0"], {"obj1": "late"})
    assert cluster.await_condition(lambda: first.done, timeout=5)
    assert first.state is RequestState.EXHAUSTED and len(held) == 1
    second = session.submit(["obj2"], {"obj3": "next"})
    assert cluster.await_condition(lambda: second.done, timeout=5)
    assert second.state is RequestState.COMMITTED
    suppressed = {site: node.duplicates_suppressed
                  for site, node in cluster.nodes.items()}

    real, message = held.pop()
    real(message)
    cluster.settle(1.0)
    for site, node in cluster.nodes.items():
        assert node.duplicates_suppressed == suppressed[site] + 1, site
        assert node.db.store.read("obj1")[0] != "late", site
    assert not [event for event in cluster.history.events
                if event.kind == "commit" and event.message.request is not None
                and event.message.request.key == ("CL", 1)]
    check_exactly_once(cluster.history, [session])


@pytest.mark.parametrize("mode", ["vs", "evs", "logless"])
def test_a_client_cascade_leaves_one_outcome_row_per_client(mode):
    """Crash, recover, partition and heal under a client fleet: once the
    fleet drains and every site has checkpointed, each site's outcome
    table holds one row per client and no transfer session still pins
    it."""
    cluster = quick_cluster(mode=mode, n_sites=5, db_size=200)
    fleet = ClientFleet(cluster, 8, WorkloadConfig(
        arrival_rate=200.0, reads_per_txn=1, writes_per_txn=2))

    def await_active():
        assert cluster.await_condition(
            lambda: all(node.status is SiteStatus.ACTIVE
                        for node in cluster.nodes.values()),
            timeout=60, step=0.01)

    fleet.start()
    cluster.run_for(0.5)
    cluster.crash("S5")
    cluster.run_for(0.5)
    cluster.recover("S5")
    await_active()
    cluster.partition([["S1", "S2", "S3"], ["S4", "S5"]])
    cluster.run_for(1.0)
    cluster.heal()
    await_active()
    cluster.run_for(0.5)
    fleet.stop()
    assert cluster.await_condition(fleet.drained, timeout=60, step=0.01)
    cluster.settle(1.5)
    run_all_checks(cluster.history, list(cluster.nodes.values()),
                   sessions=fleet.sessions)
    assert len(fleet.records) > 8 * 10
    for site, node in cluster.nodes.items():
        assert len(node.db.outcomes) == len(fleet.sessions), site
        assert node.db.outcomes.pins == {}, site
