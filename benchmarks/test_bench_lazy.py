"""E8 — lazy transfer internals (section 4.7).

Measures the round structure: how the last-round threshold trades the
number of rounds against the size of the final synchronized window, and
verifies that peer fail-over *resumes* instead of restarting.
"""

from benchmarks.conftest import once, print_table
from repro import LoadGenerator, NodeConfig, WorkloadConfig
from repro.replication.node import SiteStatus
from repro.scenarios import run_recovery_experiment
from tests.conftest import quick_cluster


def test_threshold_sweep(benchmark):
    rows = []

    def sweep():
        for threshold in (5, 20, 80):
            report = run_recovery_experiment(
                strategy="lazy", db_size=500, downtime=1.0,
                arrival_rate=200.0, seed=61,
                node_config=NodeConfig(transfer_obj_time=0.001,
                                       lazy_round_threshold=threshold,
                                       lazy_max_rounds=8),
            )
            rows.append([
                threshold, report.completed,
                int(report.extra["objects_sent"]),
                int(report.extra["enqueue_high_watermark"]),
                report.replayed,
                report.extra["recovery_time"],
            ])
        return rows

    once(benchmark, sweep)
    print_table(
        "E8 — lazy transfer: last-round threshold sweep (db=500, 200 txn/s)",
        ["threshold", "ok", "objects sent", "enqueue high-water", "replayed",
         "recovery time"],
        rows,
    )
    assert all(r[1] for r in rows)
    # Higher thresholds end the rounds earlier: fewer objects re-sent,
    # but a larger synchronized window (more enqueued messages).
    assert rows[-1][3] >= rows[0][3] - 2


def test_failover_resume_vs_restart(benchmark):
    """The fail-over property: a replacement peer continues from the
    joiner's reported round boundary (compare with 'full', which must
    restart from scratch)."""
    rows = []

    def run():
        for strategy_name, strategy in (
            ("lazy", "lazy"),
            ("full", "full"),
        ):
            node_config = NodeConfig(transfer_obj_time=0.002, transfer_batch_size=20)
            cluster = quick_cluster(n_sites=5, db_size=300, strategy=strategy,
                                    seed=5, node_config=node_config)
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
            cluster.run_for(0.15)
            received_before_failover = cluster.nodes["S5"].reconfig.objects_received_total
            cluster.crash(peer)
            ok = cluster.await_condition(
                lambda: cluster.nodes["S5"].status is SiteStatus.ACTIVE, timeout=60
            )
            load.stop()
            cluster.settle(0.5)
            total = cluster.nodes["S5"].reconfig.objects_received_total
            rows.append([strategy_name, ok, received_before_failover, total,
                         total - received_before_failover])
            cluster.check()
        return rows

    once(benchmark, run)
    print_table(
        "E8b — peer fail-over: resume (lazy) vs restart (full), db=300",
        ["strategy", "ok", "objects before fail-over", "objects total",
         "objects after fail-over"],
        rows,
    )
    lazy_row = next(r for r in rows if r[0] == "lazy")
    full_row = next(r for r in rows if r[0] == "full")
    assert lazy_row[1] and full_row[1]
    # Full restarts: the replacement sends a whole copy again.
    assert full_row[4] >= 300
    # Lazy resumes: far less than a whole copy after fail-over.
    assert lazy_row[4] < full_row[4]
