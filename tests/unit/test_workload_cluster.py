"""Unit tests for the workload generator and cluster harness."""

import pytest

from repro import ClusterBuilder, LoadGenerator, WorkloadConfig
from repro.replication.node import SiteStatus
from repro.replication.transaction import AbortReason
from tests.conftest import quick_cluster


class TestLoadGenerator:
    def test_generates_transactions_at_rate(self):
        cluster = quick_cluster()
        load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=200))
        load.start()
        cluster.run_for(1.0)
        load.stop()
        cluster.settle(0.5)
        assert 120 < len(load.transactions) < 300

    def test_stop_stops(self):
        cluster = quick_cluster()
        load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=200))
        load.start()
        cluster.run_for(0.5)
        load.stop()
        count = len(load.transactions)
        cluster.run_for(0.5)
        assert len(load.transactions) == count

    def test_skips_when_no_active_site(self):
        cluster = quick_cluster()
        for site in cluster.universe:
            cluster.crash(site)
        load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=100))
        load.start()
        cluster.run_for(0.5)
        assert load.transactions == []
        assert load.skipped > 10

    def test_operation_counts_respected(self):
        cluster = quick_cluster()
        load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=50,
                                                     reads_per_txn=3, writes_per_txn=2))
        load.start()
        cluster.run_for(0.5)
        load.stop()
        cluster.settle(0.5)
        for txn in load.transactions:
            assert len(txn.writes) <= 2  # duplicate write targets collapse
            assert len(txn.reads) <= 3

    def test_hot_spot_skews_access(self):
        cluster = quick_cluster(db_size=100)
        config = WorkloadConfig(arrival_rate=400, reads_per_txn=0, writes_per_txn=1,
                                hot_fraction=0.1, hot_access_probability=0.9)
        load = LoadGenerator(cluster, config)
        load.start()
        cluster.run_for(1.0)
        load.stop()
        cluster.settle(0.5)
        hot = sorted(cluster.initial_db)[:10]
        hot_writes = sum(1 for t in load.transactions for o in t.writes if o in hot)
        total_writes = sum(len(t.writes) for t in load.transactions)
        assert hot_writes / total_writes > 0.6

    def test_abort_rate_metric(self):
        cluster = quick_cluster()
        load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=50))
        load.start()
        cluster.run_for(0.5)
        load.stop()
        cluster.settle(0.5)
        assert 0.0 <= load.abort_rate() <= 1.0

    def test_metrics_split_crash_aborts_by_whether_they_were_sent(self):
        """Under load, S3 crashes and then S2, so S1 leaves the primary
        component too.  ``workload.in_doubt`` counts the SITE_CRASHED /
        SITE_LEFT_PRIMARY aborts whose write-set was multicast,
        ``workload.lost_to_crash`` those that never left their site;
        no other abort counts."""
        cluster = quick_cluster(db_size=30)
        load = LoadGenerator(cluster, WorkloadConfig(
            arrival_rate=300, reads_per_txn=4, writes_per_txn=2))
        load.start()
        cluster.run_for(0.3)
        cluster.crash("S3")
        cluster.run_for(0.2)
        cluster.crash("S2")
        cluster.run_for(0.3)
        load.stop()
        cluster.settle(0.5)
        crash_reasons = (AbortReason.SITE_CRASHED, AbortReason.SITE_LEFT_PRIMARY)
        crashed = [t for t in load.transactions if t.abort_reason in crash_reasons]
        sent = [t for t in crashed if t.sent_at is not None]
        unsent = [t for t in crashed if t.sent_at is None]
        assert {t.abort_reason for t in crashed} == set(crash_reasons)
        assert sent and unsent
        assert any(t.aborted and t.abort_reason not in crash_reasons
                   for t in load.transactions)
        # A lost transaction provably reached no site's history.
        seen = {(e.message.origin, e.message.local_id)
                for e in cluster.history.events}
        assert not any((t.origin, t.txn_id) in seen for t in unsent)
        assert load.metrics() == {
            "workload.in_doubt": float(len(sent)),
            "workload.lost_to_crash": float(len(unsent)),
            "workload.skipped": float(load.skipped),
        }


class TestClusterHelpers:
    def test_scheduled_crash_and_recover(self):
        cluster = quick_cluster()
        cluster.sim.schedule_at(0.5, cluster.crash, "S3")
        cluster.sim.schedule_at(1.2, cluster.recover, "S3")
        cluster.run_until(0.8)
        assert not cluster.nodes["S3"].alive
        cluster.run_until(1.5)
        assert cluster.nodes["S3"].alive
        assert cluster.await_all_active(timeout=20)
        cluster.check()

    def test_scheduled_partition_and_heal(self):
        cluster = quick_cluster(n_sites=5)
        cluster.sim.schedule_at(0.5, cluster.partition,
                                [["S1", "S2", "S3"], ["S4", "S5"]])
        cluster.sim.schedule_at(2.0, cluster.heal)
        cluster.run_until(1.8)
        assert cluster.nodes["S4"].status is SiteStatus.STALLED
        cluster.run_until(3.0)
        assert cluster.await_all_active(timeout=20)

    def test_await_condition_times_out(self):
        cluster = quick_cluster()
        assert not cluster.await_condition(lambda: False, timeout=0.3)

    def test_initial_sites_subset(self):
        cluster = ClusterBuilder(n_sites=4, db_size=10, seed=1,
                                 initial_sites=["S1", "S2", "S3"]).build()
        assert cluster.nodes["S4"].has_initial_copy is False
        assert cluster.nodes["S1"].has_initial_copy is True
