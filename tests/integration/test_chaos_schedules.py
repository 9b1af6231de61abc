"""Deterministic "chaos" schedules: aggressive, overlapping fault
sequences that exercise the cascading-reconfiguration machinery harder
than any single scenario.  Every run must end with all guarantees
intact once the dust settles."""

import pytest

from repro import ClusterBuilder, LoadGenerator, NodeConfig, WorkloadConfig
from repro.reconfig.manager import elect_peer
from repro.replication.node import SiteStatus
from tests.conftest import quick_cluster


class TestElectPeer:
    def test_round_robin_spread(self):
        utd = ["S1", "S2"]
        joiners = ["S3", "S4", "S5"]
        peers = [elect_peer(utd, joiners.index(j)) for j in joiners]
        assert peers == ["S1", "S2", "S1"]

    def test_deterministic_regardless_of_order(self):
        # The task index is the caller's (a joiner's place among the
        # sorted joiners); the candidates' order does not matter.
        assert elect_peer(["S2", "S1"], 1) == elect_peer(["S1", "S2"], 1) == "S2"

    def test_no_candidates(self):
        assert elect_peer([], 0) is None


def run_chaos(schedule, n_sites=5, seed=31, mode="vs", strategy="rectable",
              rate=80.0):
    cluster = quick_cluster(n_sites=n_sites, db_size=60, seed=seed,
                            strategy=strategy, mode=mode,
                            node_config=NodeConfig(transfer_obj_time=0.001))
    load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=rate,
                                                 reads_per_txn=1, writes_per_txn=2))
    load.start()
    for action, arg, pause in schedule:
        if action == "crash" and cluster.nodes[arg].alive:
            cluster.crash(arg)
        elif action == "recover" and not cluster.nodes[arg].alive:
            cluster.recover(arg)
        elif action == "partition":
            cluster.partition(arg)
        elif action == "heal":
            cluster.heal()
        cluster.run_for(pause)
    # settle: everything back
    cluster.heal()
    for site in cluster.universe:
        if not cluster.nodes[site].alive:
            cluster.recover(site)
    ok = cluster.await_all_active(timeout=60)
    load.stop()
    cluster.settle(1.0)
    assert ok, {s: cluster.nodes[s].status for s in cluster.universe}
    cluster.check()
    return cluster, load


class TestChaos:
    def test_rolling_restarts(self):
        schedule = []
        for site in ("S5", "S4", "S3", "S2"):
            schedule.append(("crash", site, 0.4))
            schedule.append(("recover", site, 0.6))
        run_chaos(schedule)

    def test_overlapping_crashes(self):
        schedule = [
            ("crash", "S5", 0.2),
            ("crash", "S4", 0.4),
            ("recover", "S5", 0.2),
            ("crash", "S3", 0.3),   # S3 dies while S5 still catching up
            ("recover", "S4", 0.4),
            ("recover", "S3", 0.4),
        ]
        run_chaos(schedule)

    def test_partition_during_recovery(self):
        schedule = [
            ("crash", "S5", 0.4),
            ("recover", "S5", 0.1),  # transfer starts...
            ("partition", [["S1", "S2", "S3"], ["S4", "S5"]], 0.8),
            ("heal", None, 0.5),
        ]
        run_chaos(schedule)

    def test_crash_during_partition(self):
        schedule = [
            ("partition", [["S1", "S2", "S3"], ["S4", "S5"]], 0.4),
            ("crash", "S4", 0.4),     # minority member dies while isolated
            ("heal", None, 0.3),
            ("recover", "S4", 0.5),
        ]
        run_chaos(schedule)

    def test_flip_flopping_partitions(self):
        schedule = [
            ("partition", [["S1", "S2", "S3"], ["S4", "S5"]], 0.5),
            ("heal", None, 0.3),
            ("partition", [["S1", "S2"], ["S3", "S4", "S5"]], 0.5),
            ("heal", None, 0.3),
            ("partition", [["S1", "S4", "S5"], ["S2", "S3"]], 0.5),
            ("heal", None, 0.3),
        ]
        run_chaos(schedule)

    @pytest.mark.parametrize("strategy", ["full", "lazy", "log_filter"])
    def test_overlapping_crashes_other_strategies(self, strategy):
        schedule = [
            ("crash", "S5", 0.3),
            ("recover", "S5", 0.1),
            ("crash", "S4", 0.5),
            ("recover", "S4", 0.5),
        ]
        run_chaos(schedule, strategy=strategy)

    def test_chaos_under_evs(self):
        schedule = [
            ("crash", "S5", 0.4),
            ("recover", "S5", 0.3),
            ("partition", [["S1", "S2", "S3", "S4"], ["S5"]], 0.6),
            ("heal", None, 0.4),
        ]
        run_chaos(schedule, mode="evs")

    def test_double_failure_of_peers(self):
        """Both elected peers die in sequence during one recovery."""
        cluster = quick_cluster(n_sites=5, db_size=200, seed=33,
                                node_config=NodeConfig(transfer_obj_time=0.003,
                                                       transfer_batch_size=15))
        load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=60,
                                                     reads_per_txn=1,
                                                     writes_per_txn=2))
        load.start()
        cluster.run_for(0.4)
        cluster.crash("S5")
        cluster.run_for(0.4)
        cluster.recover("S5")
        for _ in range(2):
            def transferring():
                return any(n.alive and n.reconfig.sessions_out.get("S5")
                           for n in cluster.nodes.values())
            if not cluster.await_condition(transferring, timeout=15):
                break
            peer = next(s for s, n in cluster.nodes.items()
                        if n.alive and n.reconfig.sessions_out.get("S5"))
            cluster.run_for(0.1)
            cluster.crash(peer)
        for site in cluster.universe:
            if not cluster.nodes[site].alive:
                cluster.recover(site)
        ok = cluster.await_all_active(timeout=60)
        load.stop()
        cluster.settle(1.0)
        assert ok
        cluster.check()
