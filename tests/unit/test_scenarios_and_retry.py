"""Tests for the scenario helpers and the workload retry semantics."""

import pytest

from repro import LoadGenerator, WorkloadConfig
from repro.scenarios import ScenarioReport, run_recovery_experiment
from tests.conftest import quick_cluster


class TestRecoveryExperiment:
    def test_report_fields_present(self):
        report = run_recovery_experiment(strategy="rectable", db_size=60,
                                         downtime=0.3, arrival_rate=60, seed=7)
        assert isinstance(report, ScenarioReport)
        assert report.completed
        for key in ("recovery_time", "objects_sent", "bytes_sent",
                    "enqueue_high_watermark", "throughput_dip",
                    "mean_latency", "p95_latency", "lock_wait_total"):
            assert key in report.extra

    def test_strategy_instance_accepted(self):
        from repro import LazyTransferStrategy, NodeConfig

        report = run_recovery_experiment(
            strategy=LazyTransferStrategy(), db_size=60,
            downtime=0.3, arrival_rate=60, seed=7,
            node_config=NodeConfig(lazy_round_threshold=10),
        )
        assert report.completed
        assert report.strategy == "lazy"

    def test_coordination_events_metric(self):
        report = ScenarioReport(
            mode="vs", strategy="x", completed=True, duration=1.0, commits=0,
            aborts=0, transfers_started=0, transfers_completed=0,
            announcements=3, svs_merges=2, sv_merges=1,
        )
        assert report.coordination_events() == 6


class TestRetrySemantics:
    def test_retries_capped(self):
        cluster = quick_cluster(db_size=5)  # tiny db: heavy contention
        config = WorkloadConfig(arrival_rate=400, reads_per_txn=2, writes_per_txn=2,
                                retry_aborted=True, max_retries=2)
        load = LoadGenerator(cluster, config)
        load.start()
        cluster.run_for(1.0)
        load.stop()
        cluster.settle(1.0)
        assert load.retries > 0
        # attempts per logical txn never exceed 1 original + max_retries
        for attempts in load._attempts.values():
            assert attempts <= 1 + config.max_retries
        cluster.check()

    def test_no_retry_when_disabled(self):
        cluster = quick_cluster(db_size=5)
        load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=300,
                                                     reads_per_txn=2,
                                                     writes_per_txn=2))
        load.start()
        cluster.run_for(0.8)
        load.stop()
        cluster.settle(0.5)
        assert load.retries == 0

    def test_crash_aborts_not_retried(self):
        cluster = quick_cluster(db_size=30)
        config = WorkloadConfig(arrival_rate=150, reads_per_txn=1, writes_per_txn=1,
                                retry_aborted=True)
        load = LoadGenerator(cluster, config)
        load.start()
        cluster.run_for(0.3)
        cluster.crash("S3")  # in-flight local txns at S3 abort as SITE_CRASHED
        cluster.run_for(0.5)
        load.stop()
        cluster.settle(0.5)
        from repro.replication.transaction import AbortReason

        crash_aborts = [t for t in load.transactions
                        if t.abort_reason is AbortReason.SITE_CRASHED]
        # none of them may have spawned a retry entry keyed on their id
        for txn in crash_aborts:
            retried_from = [k for k, v in load._attempts.items() if k == txn.txn_id]
            assert not retried_from

    def test_retry_improves_commit_ratio_under_contention(self):
        results = {}
        for retry in (False, True):
            cluster = quick_cluster(db_size=5, seed=55)
            config = WorkloadConfig(arrival_rate=300, reads_per_txn=2,
                                    writes_per_txn=2, retry_aborted=retry,
                                    max_retries=3)
            load = LoadGenerator(cluster, config)
            load.start()
            cluster.run_for(1.0)
            load.stop()
            cluster.settle(1.0)
            results[retry] = len(load.committed())
            cluster.check()
        assert results[True] > results[False]
