"""Integration: brand-new sites (no initial copy) and lazy-transfer internals."""

import pytest

from repro import ClusterBuilder, LazyTransferStrategy, LoadGenerator, NodeConfig, WorkloadConfig
from repro.reconfig.strategies import ALL_STRATEGY_NAMES
from repro.replication.node import SiteStatus
from tests.conftest import quick_cluster


def new_site_cluster(strategy, seed=13, db_size=120, **kwargs):
    cluster = ClusterBuilder(
        n_sites=4, db_size=db_size, seed=seed, strategy=strategy,
        initial_sites=["S1", "S2", "S3"], **kwargs
    ).build()
    cluster.start(only=["S1", "S2", "S3"])
    assert cluster.await_all_active(sites=["S1", "S2", "S3"], timeout=10)
    return cluster


class TestNewSites:
    @pytest.mark.parametrize("strategy", ALL_STRATEGY_NAMES)
    def test_empty_site_joins_and_converges(self, strategy):
        cluster = new_site_cluster(strategy)
        load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=80, reads_per_txn=1,
                                                     writes_per_txn=2))
        load.start()
        cluster.run_for(0.4)
        cluster.nodes["S4"].start()
        ok = cluster.await_condition(
            lambda: cluster.nodes["S4"].status is SiteStatus.ACTIVE, timeout=30
        )
        load.stop()
        cluster.settle(1.0)
        assert ok
        assert len(cluster.nodes["S4"].db.store) == 120
        cluster.check()

    def test_new_site_forces_whole_copy_even_with_filters(self):
        """Section 4.3: a full copy is the only option for a new site;
        the version-check strategy must degrade to it."""
        cluster = new_site_cluster("version_check")
        cluster.nodes["S4"].start()
        assert cluster.await_condition(
            lambda: cluster.nodes["S4"].status is SiteStatus.ACTIVE, timeout=30
        )
        sent = sum(n.reconfig.objects_sent_total for n in cluster.nodes.values())
        assert sent >= 120

    def test_new_site_can_process_after_join(self):
        cluster = new_site_cluster("rectable")
        cluster.nodes["S4"].start()
        assert cluster.await_condition(
            lambda: cluster.nodes["S4"].status is SiteStatus.ACTIVE, timeout=30
        )
        txn = cluster.submit_via("S4", ["obj0"], {"obj1": "from-new-site"})
        cluster.settle(0.5)
        assert txn.committed
        cluster.check()


class TestLazyInternals:
    def make(self, threshold=10, max_rounds=4, rate=150.0, db_size=400):
        node_config = NodeConfig(transfer_obj_time=0.001, transfer_batch_size=40,
                                 lazy_round_threshold=threshold,
                                 lazy_max_rounds=max_rounds)
        cluster = quick_cluster(db_size=db_size, strategy="lazy", seed=37,
                                node_config=node_config)
        load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=rate, reads_per_txn=1,
                                                     writes_per_txn=2))
        load.start()
        return cluster, load

    def test_lazy_enqueues_less_than_eager(self):
        """The headline advantage of section 4.7: far fewer transaction
        messages must be enqueued and replayed by the joiner."""
        results = {}
        for strategy in ("full", "lazy"):
            node_config = NodeConfig(transfer_obj_time=0.001, transfer_batch_size=40)
            cluster = quick_cluster(db_size=400, strategy=strategy, seed=37,
                                    node_config=node_config)
            load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=150,
                                                         reads_per_txn=1, writes_per_txn=2))
            load.start()
            cluster.run_for(0.5)
            cluster.crash("S3")
            cluster.run_for(0.8)
            cluster.recover("S3")
            assert cluster.await_condition(
                lambda: cluster.nodes["S3"].status is SiteStatus.ACTIVE, timeout=40
            )
            load.stop()
            cluster.settle(0.5)
            results[strategy] = cluster.nodes["S3"].enqueue_high_watermark
            cluster.check()
        assert results["lazy"] < results["full"]

    def test_lazy_transfers_in_multiple_rounds(self):
        cluster, load = self.make()
        cluster.run_for(0.5)
        cluster.crash("S3")
        cluster.run_for(0.8)
        cluster.recover("S3")
        assert cluster.await_condition(
            lambda: cluster.nodes["S3"].status is SiteStatus.ACTIVE, timeout=40
        )
        load.stop()
        cluster.settle(0.5)
        # Round boundaries advanced the joiner's resume point beyond its
        # cover before completion — evidence of multi-round operation.
        cluster.check()

    def test_lazy_discards_before_last_round(self):
        cluster, load = self.make()
        cluster.run_for(0.3)
        cluster.crash("S3")
        cluster.run_for(0.5)
        cluster.recover("S3")
        node = cluster.nodes["S3"]
        # While the first rounds run, nothing is enqueued (discard phase).
        cluster.await_condition(
            lambda: node.reconfig.joiner_session is not None, timeout=10
        )
        assert node.reconfig.enqueue_mode is False
        assert cluster.await_condition(
            lambda: node.status is SiteStatus.ACTIVE, timeout=40
        )
        load.stop()
        cluster.settle(0.5)
        cluster.check()

    def test_lazy_max_rounds_forces_termination(self, monkeypatch):
        """Termination check I: at threshold 0 only the round budget can
        end the rounds, so the last round is announced at round
        ``lazy_max_rounds`` with objects still stale.  Round 2's residual
        is a handful of objects here, so any positive threshold would
        have ended the rounds one round earlier."""
        stale = LazyTransferStrategy.stale_objects_since
        announce = LazyTransferStrategy._announce_last_round
        residuals, last_rounds = [], []

        def spy_stale(session, cover_gid):
            objects = stale(session, cover_gid)
            residuals.append(len(objects))
            return objects

        def spy_announce(strategy, session):
            last_rounds.append((session.strategy_state["round"], residuals[-1]))
            announce(strategy, session)

        monkeypatch.setattr(LazyTransferStrategy, "stale_objects_since",
                            staticmethod(spy_stale))
        monkeypatch.setattr(LazyTransferStrategy, "_announce_last_round", spy_announce)
        cluster, load = self.make(threshold=0, max_rounds=3, rate=60.0)
        cluster.run_for(0.4)
        cluster.crash("S3")
        cluster.run_for(0.6)
        cluster.recover("S3")
        ok = cluster.await_condition(
            lambda: cluster.nodes["S3"].status is SiteStatus.ACTIVE, timeout=40
        )
        load.stop()
        cluster.settle(0.5)
        assert ok
        cluster.check()
        assert last_rounds and all(
            round_ == 3 and residual > 0 for round_, residual in last_rounds
        ), last_rounds
