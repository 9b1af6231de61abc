"""E7 — the interference microscope: how much does each strategy delay
concurrent transaction processing at the peer during the transfer?

Expected ordering (sections 4.3-4.7): gcs_level (whole DB locked for the
whole transfer) >> full > version_check >= rectable > lazy > log_filter
(multiversion, ~zero blocking).
"""

from benchmarks.conftest import once, print_table
from repro import NodeConfig
from repro.scenarios import run_recovery_experiment

STRATEGIES = ("gcs_level", "full", "version_check", "rectable", "lazy", "log_filter")


def test_peer_interference_by_strategy(benchmark):
    rows = []

    def sweep():
        for strategy in STRATEGIES:
            report = run_recovery_experiment(
                strategy=strategy, db_size=600, downtime=0.5,
                arrival_rate=150.0, seed=59,
                node_config=NodeConfig(transfer_obj_time=0.002, transfer_batch_size=30),
                rejoin_timeout=120.0,
            )
            rows.append([
                strategy, report.completed,
                report.extra["recovery_time"],
                report.extra["lock_wait_total"],
                int(report.extra["throughput_dip"]),
                report.extra["p95_latency"],
            ])
        return rows

    once(benchmark, sweep)
    print_table(
        "E7 — peer-side interference during a slow transfer (db=600)",
        ["strategy", "ok", "recovery time", "total lock wait (s)",
         "worst 100ms bucket (commits)", "p95 latency"],
        rows,
    )
    assert all(r[1] for r in rows)
    wait = {r[0]: r[3] for r in rows}
    # The rejected GCS-level design shows the worst blocking of all.
    assert wait["gcs_level"] >= wait["rectable"]
    assert wait["gcs_level"] >= wait["log_filter"]
    # The multiversion strategy is the least intrusive lock-wise.
    assert wait["log_filter"] <= min(wait["full"], wait["gcs_level"])
    # Filtered locking beats whole-database locking.
    assert wait["rectable"] <= wait["full"] * 1.5
    # The paper's order survives writers-first shipping of `full`: locking
    # every object still delays writers more than locking the changed ones.
    assert wait["full"] > wait["version_check"]
    assert wait["version_check"] >= wait["rectable"] * 0.99
