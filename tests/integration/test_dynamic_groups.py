"""Dynamic groups (section 2.1's second named extension): the member set
grows at runtime; new sites discovered by presence join the universe and
are brought up to date with a full online transfer."""

import pytest

from repro import ClusterBuilder, LoadGenerator, WorkloadConfig
from repro.gcs.config import GCSConfig
from repro.replication.node import SiteStatus


def dynamic_cluster(n_sites=3, seed=7, **kwargs):
    gcs = GCSConfig(dynamic_universe=True, primary_policy="dynamic_linear")
    cluster = ClusterBuilder(n_sites=n_sites, db_size=60, seed=seed,
                             strategy="rectable", gcs_config=gcs, **kwargs).build()
    cluster.start()
    assert cluster.await_all_active(timeout=10)
    return cluster


class TestGuards:
    def test_requires_dynamic_config(self):
        from tests.conftest import quick_cluster

        cluster = quick_cluster()
        with pytest.raises(RuntimeError):
            cluster.add_site("S4")

    def test_dynamic_requires_linear_policy(self):
        with pytest.raises(ValueError):
            GCSConfig(dynamic_universe=True, primary_policy="static").validate()

    def test_dynamic_forbidden_under_evs(self):
        gcs = GCSConfig(dynamic_universe=True, primary_policy="dynamic_linear")
        with pytest.raises(ValueError):
            ClusterBuilder(mode="evs", gcs_config=gcs).build()

    def test_duplicate_site_rejected(self):
        cluster = dynamic_cluster()
        with pytest.raises(ValueError):
            cluster.add_site("S1")


class TestGrowth:
    def test_new_site_joins_and_converges(self):
        cluster = dynamic_cluster()
        load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=100,
                                                     reads_per_txn=1,
                                                     writes_per_txn=2))
        load.start()
        cluster.run_for(0.5)
        node = cluster.add_site("S4")
        ok = cluster.await_condition(lambda: node.status is SiteStatus.ACTIVE,
                                     timeout=30)
        load.stop()
        cluster.settle(1.0)
        assert ok
        assert len(node.db.store) == 60
        cluster.check()

    def test_site_added_to_an_observed_cluster_is_observed(self):
        """A site added after attach shares the cluster's event sink and
        instruments, so its join shows up in the timeline, the spans and
        the epoch analytics like any other recovery."""
        from repro.obs.epochs import extract_epochs

        cluster = dynamic_cluster()
        obs = cluster.attach_observability()
        node = cluster.add_site("S4")
        assert node.tracer is cluster.tracer
        assert node.obs is cluster.nodes["S1"].obs
        assert node.db.locks.obs is cluster.nodes["S1"].db.locks.obs
        assert cluster.await_condition(lambda: node.status is SiteStatus.ACTIVE,
                                       timeout=30)
        cluster.settle(0.3)
        joined = [(e.category, e.kind) for e in obs.tracer.of(site="S4")
                  if e.category in ("transfer", "replay", "status")]
        wanted = [("transfer", "accept"), ("transfer", "complete"),
                  ("replay", "start"), ("replay", "caught_up"),
                  ("status", "active")]
        assert [pair for pair in joined if pair in wanted] == wanted
        epochs = [epoch for epoch in extract_epochs(obs.tracer.events,
                                                    end_time=cluster.sim.now)
                  if epoch.site == "S4"]
        assert len(epochs) == 1 and not epochs[0].truncated
        assert obs.spans.of(category="reconfig", site="S4")

    def test_universe_grows_at_every_member(self):
        cluster = dynamic_cluster()
        cluster.add_site("S4")
        assert cluster.await_condition(
            lambda: all("S4" in n.member.universe
                        for n in cluster.nodes.values() if n.alive),
            timeout=15,
        )

    def test_new_site_processes_transactions(self):
        cluster = dynamic_cluster()
        node = cluster.add_site("S4")
        assert cluster.await_condition(lambda: node.status is SiteStatus.ACTIVE,
                                       timeout=30)
        txn = cluster.submit_via("S4", ["obj0"], {"obj1": "hi"})
        cluster.settle(0.3)
        assert txn.committed
        cluster.check()

    def test_sequential_growth_to_double_size(self):
        cluster = dynamic_cluster()
        for index in (4, 5, 6):
            node = cluster.add_site(f"S{index}")
            assert cluster.await_condition(
                lambda n=node: n.status is SiteStatus.ACTIVE, timeout=30
            )
        assert len(cluster.active_sites()) == 6
        cluster.check()

    def test_grown_member_counts_for_availability(self):
        """After growth, the primary lineage includes the new members:
        losing one original site must not stop a grown five-site group."""
        cluster = dynamic_cluster()
        for index in (4, 5):
            node = cluster.add_site(f"S{index}")
            assert cluster.await_condition(
                lambda n=node: n.status is SiteStatus.ACTIVE, timeout=30
            )
        cluster.crash("S1")
        cluster.run_for(1.0)
        txn = cluster.submit_via("S4", [], {"obj0": "still-on"})
        cluster.settle(0.3)
        assert txn.committed
        cluster.check()

    def test_grown_member_can_recover_others(self):
        """A site added at runtime later acts as transfer peer."""
        cluster = dynamic_cluster()
        node = cluster.add_site("S4")
        assert cluster.await_condition(lambda: node.status is SiteStatus.ACTIVE,
                                       timeout=30)
        load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=80,
                                                     reads_per_txn=1,
                                                     writes_per_txn=2))
        load.start()
        cluster.run_for(0.3)
        cluster.crash("S3")
        cluster.run_for(0.5)
        cluster.recover("S3")
        ok = cluster.await_condition(
            lambda: cluster.nodes["S3"].status is SiteStatus.ACTIVE, timeout=30
        )
        load.stop()
        cluster.settle(1.0)
        assert ok
        cluster.check()
