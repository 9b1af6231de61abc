"""Tests for the recovery-experiment scenario helper."""

from repro.scenarios import ScenarioReport, run_recovery_experiment


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
        # Every extra is a float, an idle lock-wait total (0.0) included,
        # so a sweep's JSON keeps one type per column.
        assert report.extra["lock_wait_total"] == 0.0
        assert all(type(value) is float for value in report.extra.values()), report.extra

    def test_coordination_events_metric(self):
        report = ScenarioReport(
            mode="vs", strategy="x", completed=True, duration=1.0, commits=0,
            aborts=0, transfers_started=0, transfers_completed=0,
            announcements=3, svs_merges=2, sv_merges=1,
        )
        assert report.coordination_events() == 6
