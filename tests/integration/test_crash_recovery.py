"""Integration: single-site crash and online recovery, all strategies."""

import pytest

from repro.reconfig.strategies import ALL_STRATEGY_NAMES
from repro.replication.node import SiteStatus
from tests.conftest import quick_cluster, run_load

# Every activation in this suite is checked as it happens (tests/monitors.py).
pytestmark = pytest.mark.usefixtures("activation_monitor")


def crash_recover_cycle(cluster, victim="S3", down=0.6, rate=120.0):
    from repro import LoadGenerator, WorkloadConfig

    load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=rate, reads_per_txn=1,
                                                 writes_per_txn=2))
    load.start()
    cluster.run_for(0.6)
    cluster.crash(victim)
    cluster.run_for(down)
    cluster.recover(victim)
    rejoined = cluster.await_condition(
        lambda: cluster.nodes[victim].status is SiteStatus.ACTIVE, timeout=30
    )
    load.stop()
    cluster.settle(1.0)
    return load, rejoined


class TestAllStrategies:
    @pytest.mark.parametrize("strategy", ALL_STRATEGY_NAMES)
    def test_rejoin_and_consistency_vs(self, strategy):
        cluster = quick_cluster(db_size=80, strategy=strategy)
        _, rejoined = crash_recover_cycle(cluster)
        assert rejoined
        cluster.check()

    @pytest.mark.parametrize("strategy", ["full", "rectable", "lazy", "log_filter"])
    def test_rejoin_and_consistency_evs(self, strategy):
        cluster = quick_cluster(n_sites=5, db_size=80, strategy=strategy, mode="evs")
        _, rejoined = crash_recover_cycle(cluster, victim="S5")
        assert rejoined
        cluster.check()

    @pytest.mark.parametrize("strategy", ["rectable", "lazy"])
    def test_rejoin_and_consistency_backends(self, backend, strategy):
        """Conformance: rejoin + 1CS hold on every backend."""
        cluster = quick_cluster(db_size=80, strategy=strategy, mode=backend)
        _, rejoined = crash_recover_cycle(cluster)
        assert rejoined
        cluster.check()


class TestRecoverySemantics:
    def test_recovered_site_serves_reads_of_new_state(self, backend):
        cluster = quick_cluster(db_size=30, mode=backend)
        cluster.submit_via("S1", [], {"obj0": "pre-crash"})
        cluster.settle(0.3)
        cluster.crash("S3")
        cluster.submit_via("S1", [], {"obj0": "while-down"})
        cluster.settle(0.3)
        cluster.recover("S3")
        assert cluster.await_condition(
            lambda: cluster.nodes["S3"].status is SiteStatus.ACTIVE, timeout=20
        )
        assert cluster.nodes["S3"].db.store.value("obj0") == "while-down"

    def test_local_transactions_aborted_on_crash(self):
        cluster = quick_cluster()
        txn = cluster.submit_via("S3", ["obj0", "obj1"], {"obj2": 1})
        cluster.crash("S3")  # immediately, mid read-phase
        assert txn.aborted

    def test_missed_writes_arrive_via_transfer_not_messages(self):
        cluster = quick_cluster(db_size=30, strategy="version_check")
        cluster.crash("S3")
        for i in range(5):
            cluster.submit_via("S1", [], {f"obj{i}": f"v{i}"})
        cluster.settle(0.5)
        cluster.recover("S3")
        assert cluster.await_condition(
            lambda: cluster.nodes["S3"].status is SiteStatus.ACTIVE, timeout=20
        )
        for i in range(5):
            assert cluster.nodes["S3"].db.store.value(f"obj{i}") == f"v{i}"
        cluster.check()

    def test_filtered_strategy_sends_only_changed_objects(self):
        cluster = quick_cluster(db_size=200, strategy="rectable")
        cluster.crash("S3")
        for i in range(8):
            cluster.submit_via("S1", [], {f"obj{i}": i})
        cluster.settle(0.5)
        cluster.recover("S3")
        assert cluster.await_condition(
            lambda: cluster.nodes["S3"].status is SiteStatus.ACTIVE, timeout=20
        )
        sent = sum(n.reconfig.objects_sent_total for n in cluster.nodes.values())
        assert sent <= 16  # roughly the changed set, not the whole database

    def test_full_strategy_sends_whole_database(self):
        cluster = quick_cluster(db_size=200, strategy="full")
        cluster.crash("S3")
        cluster.submit_via("S1", [], {"obj0": 1})
        cluster.settle(0.5)
        cluster.recover("S3")
        assert cluster.await_condition(
            lambda: cluster.nodes["S3"].status is SiteStatus.ACTIVE, timeout=20
        )
        sent = sum(n.reconfig.objects_sent_total for n in cluster.nodes.values())
        assert sent >= 200

    def test_transactions_continue_during_transfer(self):
        """Online reconfiguration: the remaining sites keep committing
        while the joiner is brought up to date."""
        from repro import NodeConfig

        cluster = quick_cluster(
            db_size=400, strategy="rectable",
            node_config=NodeConfig(transfer_obj_time=0.002),
        )
        load, rejoined = crash_recover_cycle(cluster, down=1.0, rate=100)
        assert rejoined
        assert len(load.committed()) > 100

    def test_second_transfer_ships_only_what_was_written_since(self):
        """A transaction left in flight by the first crash is subsumed by
        the first transfer's baseline: after the second crash the site
        recovers with the cover it had, and the peer ships only the
        objects written while it was down the second time."""
        cluster = quick_cluster(db_size=60, strategy="rectable")
        s3 = cluster.nodes["S3"]
        cluster.submit_via("S1", [], {"obj0": "in-flight"})
        while s3.db.last_delivered_gid is None or s3.db.cover_gid() == s3.db.last_delivered_gid:
            cluster.sim.run(max_events=1)  # until the writer is delivered, not committed
        cluster.crash("S3")
        cluster.settle(0.3)
        cluster.recover("S3")
        assert cluster.await_all_active(timeout=20)
        for i in range(10, 15):
            cluster.submit_via("S1", [], {f"obj{i}": "while-up"})
        cluster.settle(0.3)
        cluster.crash("S3")
        cluster.submit_via("S1", [], {"obj20": "while-down"})
        cluster.settle(0.3)
        sent_before = sum(n.reconfig.objects_sent_total for n in cluster.nodes.values())
        cluster.recover("S3")
        assert cluster.await_all_active(timeout=20)
        sent = sum(n.reconfig.objects_sent_total for n in cluster.nodes.values())
        assert sent - sent_before == 1
        assert cluster.nodes["S3"].db.store.value("obj20") == "while-down"
        cluster.check()

    def test_repeated_crash_recover_cycles(self):
        cluster = quick_cluster(db_size=60, strategy="rectable")
        for _ in range(3):
            _, rejoined = crash_recover_cycle(cluster, down=0.4)
            assert rejoined
        cluster.check()

    def test_two_sites_down_sequentially(self):
        cluster = quick_cluster(n_sites=5, db_size=60, strategy="rectable")
        _, ok1 = crash_recover_cycle(cluster, victim="S5", down=0.4)
        _, ok2 = crash_recover_cycle(cluster, victim="S4", down=0.4)
        assert ok1 and ok2
        cluster.check()

    def test_two_concurrent_joiners(self, backend):
        from repro import LoadGenerator, WorkloadConfig

        cluster = quick_cluster(n_sites=5, db_size=80, strategy="rectable",
                                mode=backend)
        load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=100,
                                                     reads_per_txn=1, writes_per_txn=2))
        load.start()
        cluster.run_for(0.5)
        cluster.crash("S4")
        cluster.crash("S5")
        cluster.run_for(0.5)
        cluster.recover("S4")
        cluster.recover("S5")
        ok = cluster.await_all_active(timeout=30)
        load.stop()
        cluster.settle(1.0)
        assert ok
        cluster.check()

    def test_peers_share_concurrent_joiners(self):
        """Peer election spreads joiners round-robin over up-to-date sites."""
        cluster = quick_cluster(n_sites=5, db_size=80, strategy="rectable")
        cluster.crash("S4")
        cluster.crash("S5")
        cluster.run_for(0.5)
        cluster.recover("S4")
        cluster.recover("S5")
        assert cluster.await_all_active(timeout=30)
        peers_used = [
            site for site, node in cluster.nodes.items()
            if node.reconfig.transfers_started > 0
        ]
        assert len(peers_used) >= 2


class TestCoverTransaction:
    def test_cover_reported_in_flush_state(self):
        cluster = quick_cluster()
        state = cluster.nodes["S1"].flush_state()
        assert "repl" in state and "cover" in state["repl"]

    def test_cover_advances_with_commits(self):
        cluster = quick_cluster()
        before = cluster.nodes["S1"].db.cover_gid()
        run_load(cluster, duration=0.5)
        assert cluster.nodes["S1"].db.cover_gid() > before

    def test_recovered_site_cover_below_missed_work(self):
        cluster = quick_cluster(db_size=30)
        run_load(cluster, duration=0.3)
        cover_at_crash = cluster.nodes["S3"].db.cover_gid()
        cluster.crash("S3")
        run_load(cluster, duration=0.3)
        from repro.db.database import Database

        recovered, result = Database.recover_from(cluster.nodes["S3"].storage)
        assert result.cover_gid <= cover_at_crash + 5
