"""Unit tests for the workload generator and cluster harness."""

import pytest

from repro import ClusterBuilder, FaultEvent, FaultSchedule, LoadGenerator, WorkloadConfig
from repro.replication.node import SiteStatus
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


class TestFaultSchedule:
    def test_fluent_builder_sorts_events(self):
        schedule = FaultSchedule().heal(3.0).crash(1.0, "S1").recover(2.0, "S1")
        # events are appended, applied in time order by the scheduler
        kinds = [(e.time, e.action) for e in schedule.events]
        assert (1.0, "crash") in kinds and (3.0, "heal") in kinds

    def test_schedule_applied_to_cluster(self):
        cluster = quick_cluster()
        schedule = (
            FaultSchedule()
            .crash(0.5, "S3")
            .recover(1.2, "S3")
        )
        cluster.apply_fault_schedule(schedule)
        cluster.run_until(0.8)
        assert not cluster.nodes["S3"].alive
        cluster.run_until(1.5)
        assert cluster.nodes["S3"].alive
        assert cluster.await_all_active(timeout=20)
        cluster.check()

    def test_partition_event(self):
        cluster = quick_cluster(n_sites=5)
        schedule = FaultSchedule().partition(0.5, [["S1", "S2", "S3"], ["S4", "S5"]]).heal(2.0)
        cluster.apply_fault_schedule(schedule)
        cluster.run_until(1.8)
        assert cluster.nodes["S4"].status is SiteStatus.STALLED
        cluster.run_until(3.0)
        assert cluster.await_all_active(timeout=20)

    def test_unknown_action_rejected(self):
        cluster = quick_cluster()
        schedule = FaultSchedule([FaultEvent(1.0, "meteor", "S1")])
        with pytest.raises(ValueError):
            cluster.apply_fault_schedule(schedule)


class TestClusterHelpers:
    def test_await_condition_times_out(self):
        cluster = quick_cluster()
        assert not cluster.await_condition(lambda: False, timeout=0.3)

    def test_initial_sites_subset(self):
        cluster = ClusterBuilder(n_sites=4, db_size=10, seed=1,
                                 initial_sites=["S1", "S2", "S3"]).build()
        assert cluster.nodes["S4"].has_initial_copy is False
        assert cluster.nodes["S1"].has_initial_copy is True
