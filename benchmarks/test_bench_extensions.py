"""E11 and E13 — extension ablations.

E11: serial vs concurrent application of delivered transactions — the
paper's section 2.2 argues that "processing messages serially as assumed
for most applications deployed over group communication ... would result
in significantly lower throughput rates".

E13: the dynamic primary-view definition (section 2.1) buys availability
in shrinking-cluster scenarios the static-majority rule cannot serve.
"""

from benchmarks.conftest import once, print_table
from repro import ClusterBuilder, LoadGenerator, NodeConfig, WorkloadConfig
from repro.gcs.config import GCSConfig
from repro.replication.node import SiteStatus
from repro.workload.metrics import summarize_latencies
from tests.conftest import quick_cluster


def test_e11_serial_vs_concurrent(benchmark):
    rows = []

    def run():
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
            cluster.check()
            latency = summarize_latencies(load.latencies())
            rows.append([
                "serial" if serial else "concurrent",
                len(load.committed()), latency.mean * 1000, latency.p95 * 1000,
                latency.maximum * 1000,
            ])
        return rows

    once(benchmark, run)
    print_table(
        "E11 — serial vs concurrent write phases (250 txn/s, 3ms/write)",
        ["application mode", "commits", "mean latency (ms)", "p95 (ms)", "max (ms)"],
        rows,
    )
    concurrent = next(r for r in rows if r[0] == "concurrent")
    serial = next(r for r in rows if r[0] == "serial")
    assert serial[3] > concurrent[3] * 2  # p95 at least doubles
    assert serial[1] == concurrent[1]  # same decisions, same commits


def test_e13_dynamic_primary_availability(benchmark):
    rows = []

    def run():
        for policy in ("static", "dynamic_linear"):
            cluster = ClusterBuilder(
                n_sites=5, db_size=40, seed=97, strategy="rectable",
                gcs_config=GCSConfig(primary_policy=policy),
            ).build()
            cluster.start()
            assert cluster.await_all_active(timeout=10)
            load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=100,
                                                         reads_per_txn=1,
                                                         writes_per_txn=2))
            load.start()
            cluster.run_for(0.5)
            cluster.partition([["S3", "S4", "S5"], ["S1", "S2"]])
            cluster.run_for(1.0)
            commits_mid = len(load.committed())
            cluster.partition([["S3", "S4"], ["S5"], ["S1", "S2"]])
            cluster.run_for(1.5)
            load.stop()
            cluster.settle(0.5)
            available = cluster.nodes["S3"].status is SiteStatus.ACTIVE
            rows.append([
                policy, available,
                len(load.committed()) - commits_mid,
                len(load.committed()),
            ])
        return rows

    once(benchmark, run)
    print_table(
        "E13 — availability after a shrinking primary chain (5 -> 3 -> 2 sites)",
        ["primary policy", "processing after 2nd split",
         "commits after 2nd split", "total commits"],
        rows,
    )
    static = next(r for r in rows if r[0] == "static")
    dynamic = next(r for r in rows if r[0] == "dynamic_linear")
    assert not static[1] and dynamic[1]
    assert dynamic[2] > static[2]
