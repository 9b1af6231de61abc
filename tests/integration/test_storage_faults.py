"""Torn-WAL-tail crash faults: damage is detected via checksums at
recovery, the log is truncated at the first corrupt record, and the
site rejoins through data transfer without violating any invariant."""

import pytest

from repro import ClusterBuilder, LoadGenerator, WorkloadConfig
from repro.checkers import (
    check_decision_agreement,
    check_gid_consistency,
    check_convergence,
    check_one_copy_serializability,
)
from repro.faults.storage import TornTailFaults


def crash_with_dirty_tail(cluster, site, timeout=5.0):
    """Crash ``site`` the moment its WAL holds unflushed records (the
    only window in which a torn tail can exist), mirroring the chaos
    engine's armed-crash behaviour."""
    node = cluster.nodes[site]
    deadline = cluster.sim.now + timeout
    while cluster.sim.now < deadline:
        if node.storage.unflushed_count > 0:
            break
        cluster.run_for(0.001)
    dirty = node.storage.unflushed_count
    cluster.crash(site)
    return dirty


@pytest.mark.parametrize("corrupt", [0.0, 1.0], ids=["clean-tear", "corrupting-tear"])
def test_torn_tail_crash_recovers_and_rejoins(corrupt):
    cluster = ClusterBuilder(n_sites=3, db_size=40, seed=1234, strategy="rectable").build()
    model = TornTailFaults(tear_probability=1.0, corrupt_probability=corrupt)
    cluster.install_storage_faults(model, sites=["S3"])
    cluster.start()
    assert cluster.await_all_active(timeout=10)

    load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=120, reads_per_txn=1,
                                                 writes_per_txn=2))
    load.start()
    cluster.run_for(0.3)
    dirty = crash_with_dirty_tail(cluster, "S3")
    assert dirty > 0, "crash was not armed on a dirty WAL tail"
    assert model.tears == 1
    if corrupt:
        assert model.corruptions == 1

    cluster.run_for(0.5)
    cluster.recover("S3")
    assert cluster.await_all_active(timeout=20), "torn site failed to rejoin"
    cluster.run_for(0.5)
    load.stop()
    cluster.settle(2.0)

    check_gid_consistency(cluster.history)
    check_decision_agreement(cluster.history)
    check_one_copy_serializability(cluster.history)
    check_convergence(list(cluster.nodes.values()))


def test_torn_tail_never_loses_flushed_commits():
    """The write-ahead rule: a commit forces the WAL, so a torn tail can
    only ever lose in-flight work — every commit the crashed site
    acknowledged must still be present after recovery."""
    cluster = ClusterBuilder(n_sites=3, db_size=40, seed=77, strategy="rectable").build()
    model = TornTailFaults(tear_probability=1.0, corrupt_probability=1.0)
    cluster.install_storage_faults(model, sites=["S2"])
    cluster.start()
    assert cluster.await_all_active(timeout=10)

    load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=120, reads_per_txn=1,
                                                 writes_per_txn=2))
    load.start()
    cluster.run_for(0.4)
    node = cluster.nodes["S2"]
    committed_before = set(cluster.history.commits_of("S2"))
    crash_with_dirty_tail(cluster, "S2")
    cluster.run_for(0.3)
    cluster.recover("S2")
    assert cluster.await_all_active(timeout=20)
    load.stop()
    cluster.settle(2.0)

    from repro.db.wal import CommitRecord

    node = cluster.nodes["S2"]  # recovery swaps in a fresh db
    recovered_commits = {
        record.gid for record in node.db.storage.records()
        if isinstance(record, CommitRecord)
    }
    # The transfer may have advanced the baseline past old commits; those
    # are subsumed, not lost.  Everything above the baseline must match.
    baseline = node.db.baseline_gid
    lost = {g for g in committed_before if g > baseline} - recovered_commits
    assert not lost, f"flushed commits lost by the torn tail: {sorted(lost)}"
    check_decision_agreement(cluster.history)
    check_convergence(list(cluster.nodes.values()))
