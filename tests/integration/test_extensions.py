"""Integration tests for the paper's extension features:

* serial vs concurrent application of delivered transactions (§2.2);
* per-partition lazy round 1 with partition-level fail-over (§4.7);
* reconciliation of phantom commits (§2.3);
* the dynamic primary-view definition (§2.1) driving availability.
"""

from repro import (
    ClusterBuilder,
    LoadGenerator,
    NodeConfig,
    WorkloadConfig,
)
from repro.gcs.config import GCSConfig
from repro.replication.node import SiteStatus
from tests.conftest import quick_cluster, run_load


class TestSerialProcessing:
    def test_serial_outcomes_match_concurrent(self):
        """Same seeds, same workload: commit/abort decisions and final
        state must be identical — only timing differs."""
        digests = {}
        for serial in (False, True):
            nc = NodeConfig(serial_processing=serial)
            cluster = quick_cluster(db_size=60, seed=91, node_config=nc)
            load = run_load(cluster, duration=1.0, rate=150)
            cluster.settle(1.0)
            cluster.check()
            digests[serial] = cluster.nodes["S1"].db.store.content_digest()
            assert not load.unresolved()
        assert digests[False] == digests[True]

    def test_serial_latency_suffers_under_load(self):
        from repro.workload.metrics import summarize_latencies

        latencies = {}
        for serial in (False, True):
            nc = NodeConfig(write_op_time=0.003, serial_processing=serial)
            cluster = quick_cluster(db_size=300, seed=93, node_config=nc)
            load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=250,
                                                         reads_per_txn=0,
                                                         writes_per_txn=2))
            load.start()
            cluster.run_for(1.5)
            load.stop()
            cluster.settle(5.0)
            latencies[serial] = summarize_latencies(load.latencies()).p95
            cluster.check()
        assert latencies[True] > latencies[False] * 2

    def test_serial_mode_recovers_too(self):
        nc = NodeConfig(serial_processing=True)
        cluster = quick_cluster(db_size=60, seed=95, node_config=nc)
        load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=80,
                                                     reads_per_txn=1, writes_per_txn=2))
        load.start()
        cluster.run_for(0.5)
        cluster.crash("S3")
        cluster.run_for(0.5)
        cluster.recover("S3")
        ok = cluster.await_condition(
            lambda: cluster.nodes["S3"].status is SiteStatus.ACTIVE, timeout=30
        )
        load.stop()
        cluster.settle(1.0)
        assert ok
        cluster.check()


class TestPartitionedLazyFailover:
    def test_done_partitions_skipped_on_resume(self):
        nc = NodeConfig(partition_count=6, transfer_obj_time=0.002,
                        transfer_batch_size=20)
        cluster = quick_cluster(n_sites=5, db_size=300, seed=5, strategy="lazy",
                                node_config=nc)
        load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=60,
                                                     reads_per_txn=1, writes_per_txn=2))
        load.start()
        cluster.run_for(0.5)
        cluster.crash("S5")
        cluster.run_for(0.5)
        cluster.recover("S5")

        def transfer_running():
            return any(n.alive and n.reconfig.sessions_out.get("S5")
                       for n in cluster.nodes.values())

        assert cluster.await_condition(transfer_running, timeout=10)
        peer = next(s for s, n in cluster.nodes.items()
                    if n.alive and n.reconfig.sessions_out.get("S5"))
        assert cluster.await_condition(
            lambda: len(cluster.nodes["S5"].reconfig._done_partitions) >= 2, timeout=20
        )
        received_before = cluster.nodes["S5"].reconfig.objects_received_total
        cluster.crash(peer)
        ok = cluster.await_condition(
            lambda: cluster.nodes["S5"].status is SiteStatus.ACTIVE, timeout=60
        )
        load.stop()
        cluster.settle(0.5)
        assert ok
        cluster.check()
        after = cluster.nodes["S5"].reconfig.objects_received_total - received_before
        assert after < 300  # strictly less than a from-scratch full copy


class TestReconciliation:
    def build(self, uniform=False):
        cluster = ClusterBuilder(
            n_sites=3, db_size=10, seed=3, strategy="version_check",
            gcs_config=GCSConfig(uniform=uniform),
            node_config=NodeConfig(write_op_time=0.0),
        ).build()
        cluster.start()
        assert cluster.await_all_active(timeout=10)
        return cluster

    def phantom_commit(self, cluster):
        txn = cluster.nodes["S1"].submit([], {"obj0": "phantom"})
        cluster.partition([["S1"], ["S2", "S3"]])
        cluster.run_for(3.0)
        return txn

    def test_phantom_rolled_back_on_rejoin(self):
        cluster = self.build(uniform=False)
        txn = self.phantom_commit(cluster)
        assert txn.committed
        cluster.heal()
        assert cluster.await_all_active(timeout=30)
        cluster.settle(0.5)
        assert cluster.nodes["S1"].db.store.value("obj0") == 0
        digests = {s: cluster.nodes[s].db.store.content_digest()
                   for s in cluster.universe}
        assert len(set(digests.values())) == 1

    def test_reconciliation_survives_crash(self):
        cluster = self.build(uniform=False)
        self.phantom_commit(cluster)
        cluster.heal()
        assert cluster.await_all_active(timeout=30)
        cluster.crash("S1")
        cluster.run_for(0.3)
        cluster.recover("S1")
        assert cluster.await_all_active(timeout=30)
        assert cluster.nodes["S1"].db.store.value("obj0") == 0

    def test_uniform_mode_skips_the_gate(self):
        """Under safe delivery the suspect list is empty by construction."""
        cluster = self.build(uniform=True)
        txn = self.phantom_commit(cluster)
        assert not txn.committed  # could not even commit
        cluster.heal()
        assert cluster.await_all_active(timeout=30)
        cluster.check()

    def test_legitimate_commits_not_rolled_back(self):
        cluster = self.build(uniform=False)
        txn = cluster.nodes["S1"].submit([], {"obj5": "legit"})
        cluster.settle(0.3)
        assert txn.committed
        cluster.crash("S1")
        cluster.run_for(0.5)
        cluster.recover("S1")
        assert cluster.await_all_active(timeout=30)
        cluster.settle(0.3)
        assert cluster.nodes["S1"].db.store.value("obj5") == "legit"


class TestDynamicPrimaryAvailability:
    def test_dynamic_policy_keeps_shrunken_cluster_available(self):
        """5 sites; {S3,S4,S5} primary after a split; then S5 leaves.
        Static policy: processing stops (2 of 5).  Dynamic-linear: the
        {S3,S4} remnant is a majority of the previous primary and keeps
        committing."""
        outcomes = {}
        for policy in ("static", "dynamic_linear"):
            cluster = ClusterBuilder(
                n_sites=5, db_size=40, seed=97, strategy="rectable",
                gcs_config=GCSConfig(primary_policy=policy),
            ).build()
            cluster.start()
            assert cluster.await_all_active(timeout=10)
            cluster.partition([["S3", "S4", "S5"], ["S1", "S2"]])
            cluster.run_for(1.5)
            assert cluster.nodes["S3"].status is SiteStatus.ACTIVE
            cluster.partition([["S3", "S4"], ["S5"], ["S1", "S2"]])
            cluster.run_for(1.5)
            outcomes[policy] = cluster.nodes["S3"].status
            if outcomes[policy] is SiteStatus.ACTIVE:
                txn = cluster.submit_via("S3", [], {"obj0": "still-alive"})
                cluster.settle(0.3)
                assert txn.committed
        assert outcomes["static"] is not SiteStatus.ACTIVE
        assert outcomes["dynamic_linear"] is SiteStatus.ACTIVE
