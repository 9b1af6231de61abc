"""Integration: network partitions, minority stall, merge recovery."""

import pytest

from repro import LoadGenerator, WorkloadConfig
from repro.replication.node import SiteStatus
from tests.conftest import quick_cluster


def partitioned_cluster(mode="vs", strategy="rectable", n_sites=5, seed=21):
    cluster = quick_cluster(n_sites=n_sites, db_size=60, strategy=strategy,
                            mode=mode, seed=seed)
    load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=100, reads_per_txn=1,
                                                 writes_per_txn=2))
    load.start()
    cluster.run_for(0.5)
    cluster.partition([["S1", "S2", "S3"], ["S4", "S5"]])
    cluster.run_for(1.5)
    return cluster, load


class TestMinorityBehaviour:
    @pytest.mark.parametrize("mode", ["vs", "evs"])
    def test_minority_stalls_majority_continues(self, mode):
        cluster, load = partitioned_cluster(mode=mode)
        for site in ("S1", "S2", "S3"):
            assert cluster.nodes[site].status is SiteStatus.ACTIVE
        for site in ("S4", "S5"):
            assert cluster.nodes[site].status is SiteStatus.STALLED
        load.stop()

    def test_minority_stalls_on_every_backend(self, backend):
        """Conformance: quorum stall semantics are backend-independent."""
        cluster, load = partitioned_cluster(mode=backend)
        for site in ("S1", "S2", "S3"):
            assert cluster.nodes[site].status is SiteStatus.ACTIVE
        for site in ("S4", "S5"):
            assert cluster.nodes[site].status is SiteStatus.STALLED
        load.stop()

    def test_minority_rejects_submissions(self):
        cluster, load = partitioned_cluster()
        with pytest.raises(RuntimeError):
            cluster.nodes["S4"].submit([], {"obj0": 1})
        load.stop()

    def test_majority_commits_during_partition(self):
        cluster, load = partitioned_cluster()
        before = len(load.committed())
        cluster.run_for(0.5)
        load.stop()
        cluster.settle(0.5)
        assert len(load.committed()) > before

    def test_minority_local_transactions_aborted(self):
        cluster = quick_cluster(n_sites=5, db_size=60)
        txn = cluster.submit_via("S4", ["obj0", "obj1", "obj2"], {"obj3": 1})
        cluster.partition([["S1", "S2", "S3"], ["S4", "S5"]])
        cluster.run_for(1.5)
        # Either committed before the partition took effect or aborted when
        # S4 left the primary component — never left dangling.
        assert txn.done

    def test_even_split_stalls_everyone(self):
        cluster = quick_cluster(n_sites=4, db_size=40)
        cluster.partition([["S1", "S2"], ["S3", "S4"]])
        cluster.run_for(1.5)
        statuses = {cluster.nodes[s].status for s in cluster.universe}
        assert statuses == {SiteStatus.STALLED}


class TestMergeRecovery:
    @pytest.mark.parametrize("mode,strategy", [
        ("vs", "rectable"), ("vs", "lazy"), ("evs", "rectable"), ("evs", "full"),
    ])
    def test_heal_brings_minority_back(self, mode, strategy):
        cluster, load = partitioned_cluster(mode=mode, strategy=strategy)
        cluster.heal()
        ok = cluster.await_all_active(timeout=30)
        load.stop()
        cluster.settle(1.0)
        assert ok
        cluster.check()

    def test_heal_brings_minority_back_backends(self, backend):
        """Conformance: merge recovery works on every backend."""
        cluster, load = partitioned_cluster(mode=backend)
        cluster.heal()
        ok = cluster.await_all_active(timeout=30)
        load.stop()
        cluster.settle(1.0)
        assert ok
        cluster.check()

    def test_minority_receives_partition_era_writes(self, backend):
        cluster, load = partitioned_cluster(mode=backend)
        load.stop()
        marker = cluster.submit_via("S1", [], {"obj0": "during-partition"})
        cluster.settle(0.5)
        assert marker.committed
        cluster.heal()
        assert cluster.await_all_active(timeout=30)
        cluster.settle(0.5)
        assert cluster.nodes["S4"].db.store.value("obj0") == "during-partition"

    def test_repeated_partition_cycles(self):
        cluster = quick_cluster(n_sites=5, db_size=50)
        load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=80, reads_per_txn=1,
                                                     writes_per_txn=2))
        load.start()
        for _ in range(2):
            cluster.run_for(0.4)
            cluster.partition([["S1", "S2", "S3"], ["S4", "S5"]])
            cluster.run_for(0.8)
            cluster.heal()
            assert cluster.await_all_active(timeout=30)
        load.stop()
        cluster.settle(1.0)
        cluster.check()

    def test_alternating_minorities(self):
        cluster = quick_cluster(n_sites=5, db_size=50)
        load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=80, reads_per_txn=1,
                                                     writes_per_txn=2))
        load.start()
        cluster.run_for(0.4)
        cluster.partition([["S1", "S2", "S3"], ["S4", "S5"]])
        cluster.run_for(0.8)
        cluster.heal()
        assert cluster.await_all_active(timeout=30)
        cluster.run_for(0.4)
        cluster.partition([["S3", "S4", "S5"], ["S1", "S2"]])
        cluster.run_for(0.8)
        cluster.heal()
        assert cluster.await_all_active(timeout=30)
        load.stop()
        cluster.settle(1.0)
        cluster.check()

    def test_transaction_atomicity_across_partition(self):
        """Section 2.3: a transaction committed by the primary side is
        eventually committed at every site that stays long enough."""
        cluster, load = partitioned_cluster()
        load.stop()
        cluster.settle(0.3)
        committed_gids = {
            e.gid for e in cluster.history.events if e.kind == "commit"
        }
        cluster.heal()
        assert cluster.await_all_active(timeout=30)
        cluster.settle(0.5)
        # Every committed write is reflected at the returned minority sites.
        for gid in committed_gids:
            message = next(e.message for e in cluster.history.events if e.gid == gid)
            for obj, _ in message.write_set:
                assert cluster.nodes["S4"].db.store.version(obj) >= -1
        cluster.check()
