"""E9 — ablations of the paper's design decisions.

(a) RecTable maintenance overhead during normal processing (section 4.5
    estimates it to be small and asynchronous);
(b) GCS-level whole-database transfer (section 4.1) vs database-level
    strategies — the alternative the paper rejects;
(c) uniform (safe) vs plain reliable delivery — section 2.3's atomicity
    argument.
"""

from benchmarks.conftest import once, print_table
from repro import ClusterBuilder, LoadGenerator, NodeConfig, WorkloadConfig
from repro.gcs.config import GCSConfig
from repro.scenarios import run_recovery_experiment
from tests.conftest import quick_cluster, run_load


def test_rectable_maintenance_overhead(benchmark):
    """E9a: RecTable registrations are queued at commit and applied by a
    background task; measure the bookkeeping volume per committed txn."""
    rows = []

    def run():
        cluster = quick_cluster(db_size=200, strategy="rectable", seed=67)
        load = run_load(cluster, duration=2.0, rate=200, writes=2)
        for site in cluster.universe:
            table = cluster.nodes[site].db.rectable
            commits = cluster.nodes[site].commits
            rows.append([
                site, commits, table.registrations, table.flushes,
                round(table.registrations / max(commits, 1), 2), len(table),
            ])
        cluster.check()
        return rows

    once(benchmark, run)
    print_table(
        "E9a — RecTable maintenance during normal processing (2s @ 200 txn/s)",
        ["site", "commits", "registrations", "background flushes",
         "registrations/commit", "table size"],
        rows,
    )
    # One registration per write; writes/txn = 2, so the ratio is ~2 and
    # the table is bounded by the database size.
    for row in rows:
        assert row[4] <= 2.5
        assert row[5] <= 200


def test_gcs_level_baseline_vs_database_level(benchmark):
    """E9b: the section-4.1 alternative ships the whole database under a
    transfer-long database lock; compare against RecTable."""
    rows = []

    def run():
        for strategy in ("gcs_level", "rectable"):
            report = run_recovery_experiment(
                strategy=strategy, db_size=500, downtime=0.3,
                arrival_rate=150.0, seed=71,
                node_config=NodeConfig(transfer_obj_time=0.002),
                rejoin_timeout=120.0,
            )
            rows.append([
                strategy, report.completed,
                int(report.extra["objects_sent"]),
                report.extra["recovery_time"],
                report.extra["lock_wait_total"],
            ])
        return rows

    once(benchmark, run)
    print_table(
        "E9b — GCS-level transfer (section 4.1 baseline) vs RecTable",
        ["strategy", "ok", "objects sent", "recovery time", "total lock wait (s)"],
        rows,
    )
    gcs = next(r for r in rows if r[0] == "gcs_level")
    rectable = next(r for r in rows if r[0] == "rectable")
    assert gcs[1] and rectable[1]
    assert gcs[2] >= 500  # always the whole database
    assert rectable[2] < gcs[2] / 3  # only the changed part
    assert rectable[4] < gcs[4]  # and far less blocking


def test_uniform_vs_reliable_delivery(benchmark):
    """E9c: with plain reliable delivery an isolated sequencer can commit
    a transaction the surviving primary never received; uniform (safe)
    delivery makes that impossible."""
    rows = []

    def run_one(uniform: bool):
        cluster = ClusterBuilder(
            n_sites=3, db_size=10, seed=3, strategy="version_check",
            gcs_config=GCSConfig(uniform=uniform),
            node_config=NodeConfig(write_op_time=0.0),
        ).build()
        cluster.start()
        assert cluster.await_all_active(timeout=10)
        violations = 0
        txn = cluster.nodes["S1"].submit([], {"obj0": "phantom"})
        cluster.partition([["S1"], ["S2", "S3"]])
        cluster.run_for(3.0)
        if txn.committed:
            committed_at = {e.site for e in cluster.history.events
                            if e.kind == "commit" and e.gid == txn.gid}
            if committed_at == {"S1"}:
                violations = 1
        return violations

    def run():
        for uniform in (True, False):
            violations = run_one(uniform)
            rows.append(["uniform (safe)" if uniform else "plain reliable", violations])
        return rows

    once(benchmark, run)
    print_table(
        "E9c — atomicity violations: isolated-sequencer interleaving",
        ["delivery mode", "violations"],
        rows,
    )
    assert rows[0][1] == 0  # uniform: impossible
    assert rows[1][1] == 1  # reliable: the section-2.3 anomaly
