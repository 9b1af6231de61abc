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
  table instead of re-executing it, observable on a healthy cluster.
"""

import pytest

from repro.faults.chaos import run_chaos
from repro.replication.messages import RequestId
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
