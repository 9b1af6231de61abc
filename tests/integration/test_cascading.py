"""Integration: cascading reconfigurations (section 5) — peer/joiner
failures during the data transfer, and the Figure 1 / Figure 2 scenarios."""

import pytest

from repro import LoadGenerator, NodeConfig, WorkloadConfig
from repro.reconfig.strategies import changed_objects
from repro.reconfig.transfer import TransferAccept, TransferBatch
from repro.replication.node import SiteStatus
from repro.scenarios import run_figure1_scenario
from tests.conftest import quick_cluster

# Every activation in this suite is checked as it happens (tests/monitors.py).
pytestmark = pytest.mark.usefixtures("activation_monitor")


def slow_transfer_cluster(mode="vs", strategy="full", n_sites=5, seed=5):
    node_config = NodeConfig(transfer_obj_time=0.002, transfer_batch_size=20)
    cluster = quick_cluster(n_sites=n_sites, db_size=300, strategy=strategy,
                            mode=mode, seed=seed, node_config=node_config)
    load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=60, reads_per_txn=1,
                                                 writes_per_txn=2))
    load.start()
    cluster.run_for(0.5)
    return cluster, load


def start_recovery(cluster, victim):
    cluster.crash(victim)
    cluster.run_for(0.5)
    cluster.recover(victim)

    def transfer_running():
        return any(
            node.alive and node.reconfig.sessions_out.get(victim)
            for node in cluster.nodes.values()
        )

    assert cluster.await_condition(transfer_running, timeout=10)
    return next(
        site for site, node in cluster.nodes.items()
        if node.alive and node.reconfig.sessions_out.get(victim)
    )


class TestPeerFailure:
    @pytest.mark.parametrize("mode,strategy", [
        ("vs", "full"), ("vs", "rectable"), ("vs", "lazy"),
        ("evs", "full"), ("evs", "lazy"),
    ])
    def test_new_peer_takes_over(self, mode, strategy):
        cluster, load = slow_transfer_cluster(mode=mode, strategy=strategy)
        peer = start_recovery(cluster, "S5")
        # Strike early: the rectable transfer window is ~0.1s of virtual
        # time, and the crash must land while the session is still open.
        cluster.run_for(0.05)
        cluster.crash(peer)
        ok = cluster.await_condition(
            lambda: cluster.nodes["S5"].status is SiteStatus.ACTIVE, timeout=40
        )
        load.stop()
        cluster.settle(1.0)
        assert ok
        cluster.check()
        # A second transfer session was opened by the replacement peer.
        started = sum(n.reconfig.transfers_started for n in cluster.nodes.values())
        assert started >= 2

    def test_lazy_failover_resumes_not_restarts(self):
        """Section 4.7: the peer dies mid-transfer and the replacement
        continues from the joiner's cover instead of sending the whole
        database again: its rounds ship only objects the RecTable lists
        as changed since that cover.  (What resumes is the cover, and
        round 1's completed partitions when there are any — not the
        round the dead peer had reached.)"""
        cluster, load = slow_transfer_cluster(strategy="lazy")
        joiner = cluster.nodes["S5"]
        peer = start_recovery(cluster, "S5")
        assert cluster.await_condition(
            lambda: joiner.reconfig.objects_received_total > 0, timeout=20, step=0.001)
        assert joiner.status is SiteStatus.RECOVERING
        assert not joiner.reconfig.joiner_session.complete
        shipped, accepted = set(), set()

        def tap(src, dst, payload):
            src, dst = src.split(":")[0], dst.split(":")[0]
            if src not in (peer, "S5") and dst == "S5" and isinstance(payload, TransferBatch):
                shipped.update(obj for obj, _value, _version in payload.decoded_items())
            if src == "S5" and dst != peer and isinstance(payload, TransferAccept):
                accepted.add((dst, payload.cover_gid))

        cluster.network.add_tap(tap)
        cluster.crash(peer)
        ok = cluster.await_condition(
            lambda: joiner.status is SiteStatus.ACTIVE, timeout=40
        )
        load.stop()
        cluster.settle(1.0)
        assert ok
        cluster.check()
        (replacement, cover), = accepted
        changed = changed_objects(cluster.nodes[replacement].db, cover)
        assert shipped and shipped <= set(changed)
        assert len(changed) < 300  # less than the whole database

    def test_full_strategy_failover_restarts(self):
        cluster, load = slow_transfer_cluster(strategy="full")
        peer = start_recovery(cluster, "S5")
        cluster.run_for(0.2)  # some batches landed
        received_before = cluster.nodes["S5"].reconfig.objects_received_total
        assert received_before > 0
        cluster.crash(peer)
        ok = cluster.await_condition(
            lambda: cluster.nodes["S5"].status is SiteStatus.ACTIVE, timeout=40
        )
        load.stop()
        cluster.settle(1.0)
        assert ok
        # Restart: the replacement sent (at least) a whole copy again.
        assert cluster.nodes["S5"].reconfig.objects_received_total >= 300
        cluster.check()


class TestJoinerFailure:
    def test_transfer_stops_when_joiner_dies(self):
        cluster, load = slow_transfer_cluster(strategy="full")
        peer = start_recovery(cluster, "S5")
        cluster.run_for(0.1)
        cluster.crash("S5")
        cluster.await_condition(
            lambda: not cluster.nodes[peer].reconfig.sessions_out.get("S5"), timeout=15
        )
        assert "S5" not in cluster.nodes[peer].reconfig.sessions_out
        load.stop()
        cluster.settle(0.5)
        # Peer released all transfer locks: processing is unimpeded.
        assert not any(
            owner.startswith("xfer:")
            for owner_map in cluster.nodes[peer].db.locks._holders.values()
            for owner in owner_map
        )
        cluster.check()

    def test_joiner_crash_then_second_recovery(self):
        cluster, load = slow_transfer_cluster(strategy="rectable")
        start_recovery(cluster, "S5")
        cluster.run_for(0.1)
        cluster.crash("S5")
        cluster.run_for(0.5)
        cluster.recover("S5")
        ok = cluster.await_condition(
            lambda: cluster.nodes["S5"].status is SiteStatus.ACTIVE, timeout=40
        )
        load.stop()
        cluster.settle(1.0)
        assert ok
        cluster.check()


class TestFigureScenarios:
    def test_figure1_vs(self):
        report = run_figure1_scenario(mode="vs", strategy="rectable", seed=17)
        assert report.completed
        assert report.announcements >= 1  # the plain-VS sub-protocol ran
        assert report.svs_merges == 0 and report.sv_merges == 0

    def test_figure2_evs(self):
        report = run_figure1_scenario(mode="evs", strategy="rectable", seed=17)
        assert report.completed
        assert report.announcements == 0  # structural: no announcements
        assert report.svs_merges >= 1 and report.sv_merges >= 1

    def test_scenario_with_lazy_strategy(self):
        report = run_figure1_scenario(mode="vs", strategy="lazy", seed=19)
        assert report.completed
