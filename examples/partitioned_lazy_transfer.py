#!/usr/bin/env python3
"""Per-partition lazy transfer with peer fail-over (section 4.7).

"We suggest that in the first round data are transferred per data
partition (e.g., per relation).  In case of failures during this round,
the new peer site does not need to restart but simply continue the
transfer for those partitions that the joiner has not yet received."

The example partitions a 300-object database into 6 relations, starts a
lazy recovery, kills the peer mid-round-1, and shows the replacement
peer skipping the partitions the joiner already holds.

Run:  python examples/partitioned_lazy_transfer.py
"""

from repro import ClusterBuilder, LoadGenerator, NodeConfig, WorkloadConfig
from repro.replication.node import SiteStatus


def main() -> None:
    node_config = NodeConfig(partition_count=6, transfer_obj_time=0.002,
                             transfer_batch_size=20)
    cluster = ClusterBuilder(n_sites=5, db_size=300, seed=5, strategy="lazy",
                             node_config=node_config).build()
    cluster.start()
    assert cluster.await_all_active(timeout=10)
    load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=60,
                                                 reads_per_txn=1, writes_per_txn=2))
    load.start()
    cluster.run_for(0.5)

    print("t=%.2f  S5 crashes, stays down, recovers" % cluster.sim.now)
    cluster.crash("S5")
    cluster.run_for(0.5)
    cluster.recover("S5")

    def transfer_running():
        return any(node.alive and node.reconfig.sessions_out.get("S5")
                   for node in cluster.nodes.values())

    assert cluster.await_condition(transfer_running, timeout=10)
    peer = next(site for site, node in cluster.nodes.items()
                if node.alive and node.reconfig.sessions_out.get("S5"))
    print(f"t={cluster.sim.now:.2f}  peer {peer} starts the lazy transfer "
          "(round 1 goes partition by partition)")

    joiner_manager = cluster.nodes["S5"].reconfig
    assert cluster.await_condition(
        lambda: len(joiner_manager.done_partitions) >= 2, timeout=20
    )
    done = sorted(joiner_manager.done_partitions)
    received = joiner_manager.objects_received_total
    print(f"t={cluster.sim.now:.2f}  partitions complete at the joiner: {done} "
          f"({received} objects) — killing the peer NOW")
    cluster.crash(peer)

    ok = cluster.await_condition(
        lambda: cluster.nodes["S5"].status is SiteStatus.ACTIVE, timeout=60
    )
    load.stop()
    cluster.settle(0.5)
    cluster.check()

    total = joiner_manager.objects_received_total
    print(f"t={cluster.sim.now:.2f}  S5 active again: {'yes' if ok else 'NO'}")
    print(f"   objects before fail-over: {received}")
    print(f"   objects after fail-over:  {total - received} "
          f"(a full restart would have re-sent all 300)")
    print("   the replacement peer skipped the partitions the joiner "
          "already reported complete")


if __name__ == "__main__":
    main()
