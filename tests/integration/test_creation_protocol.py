"""Integration: the creation protocol after total failures (section 3)."""

import pytest

from repro import LoadGenerator, WorkloadConfig
from repro.replication.node import SiteStatus
from tests.conftest import _backend_params, quick_cluster, run_load

# A site activated on stale data fails at the activation, with the site,
# gid and object named (tests/monitors.py).
pytestmark = pytest.mark.usefixtures("activation_monitor")


def total_failure_and_recovery(cluster, order):
    """Crash every site (staggered), then recover in ``order``."""
    load = run_load(cluster, duration=0.6, rate=120)
    cluster.crash("S3")
    run_load(cluster, duration=0.3, rate=120)  # S1, S2 get ahead of S3
    cluster.crash("S1")
    cluster.crash("S2")
    cluster.run_for(0.5)
    for site in order:
        cluster.recover(site)
        cluster.run_for(0.3)
    return cluster.await_all_active(timeout=30)


def total_failure_under_load(cluster):
    """The same total failure with 800 txn/s running from start to end:
    through the crashes, the creation round and the transfers."""
    load = LoadGenerator(cluster, WorkloadConfig(
        arrival_rate=800.0, reads_per_txn=1, writes_per_txn=2))
    load.start()
    cluster.run_for(0.6)
    cluster.crash("S3")
    cluster.run_for(0.3)  # S1, S2 get ahead of S3
    cluster.crash("S1")
    cluster.crash("S2")
    cluster.run_for(0.5)
    for site in ("S3", "S1", "S2"):
        cluster.recover(site)
        cluster.run_for(0.1)
    ok = cluster.await_all_active(timeout=30)
    cluster.run_for(0.5)
    load.stop()
    cluster.settle(1.0)
    return ok


class TestCreation:
    @pytest.mark.parametrize("mode", ["vs", "evs"])
    def test_total_failure_recovery(self, mode):
        cluster = quick_cluster(mode=mode, db_size=50, strategy="version_check")
        ok = total_failure_and_recovery(cluster, ["S3", "S1", "S2"])
        assert ok
        cluster.settle(1.0)
        cluster.check()

    def test_total_failure_recovery_backends(self, backend):
        """Conformance: the creation protocol holds on every backend."""
        cluster = quick_cluster(mode=backend, db_size=50,
                                strategy="version_check")
        ok = total_failure_and_recovery(cluster, ["S3", "S1", "S2"])
        assert ok
        cluster.settle(1.0)
        cluster.check()

    @pytest.mark.parametrize("seed", (3, 13, 28))
    @pytest.mark.parametrize(
        "backend", dict.fromkeys(("vs",) + _backend_params()), indirect=True)
    def test_total_failure_under_continuous_load(self, backend, seed):
        """Load keeps running through the creation episode: the marker
        that turns a suspended site RECOVERING — the source's
        announcement, or its ``replace`` config write — is that site's
        synchronization point, and nothing delivered after it may be
        dropped while the transfer offer is on its way."""
        cluster = quick_cluster(mode=backend, db_size=50, seed=seed)
        assert total_failure_under_load(cluster)
        cluster.check()

    def test_source_is_most_current_site(self):
        """The stale site (S3, crashed first) must not become the source:
        the max-cover site provides the state."""
        cluster = quick_cluster(db_size=50, strategy="version_check")
        ok = total_failure_and_recovery(cluster, ["S3", "S1", "S2"])
        assert ok
        # S3's database must now include work it missed while down.
        digests = {
            s: cluster.nodes[s].db.store.content_digest() for s in cluster.universe
        }
        assert digests["S3"] == digests["S1"] == digests["S2"]

    def test_creation_waits_for_all_sites(self, backend):
        """Section 3: neither a majority nor the last primary view
        suffices — the logs of *all* sites must be considered."""
        cluster = quick_cluster(db_size=30, mode=backend)
        run_load(cluster, duration=0.4)
        for site in cluster.universe:
            cluster.crash(site)
        cluster.run_for(0.3)
        cluster.recover("S1")
        cluster.recover("S2")  # majority present, but S3 still down
        cluster.run_for(3.0)
        assert cluster.nodes["S1"].status is SiteStatus.SUSPENDED
        assert cluster.nodes["S2"].status is SiteStatus.SUSPENDED
        cluster.recover("S3")
        assert cluster.await_all_active(timeout=30)
        cluster.settle(0.5)
        cluster.check()

    def test_papers_three_site_example(self):
        """The section-3 scenario: a transaction commits only at one site
        which then fails; the other sites leave before committing.  After
        total failure, only that site's log has the commit — creation
        must still surface it."""
        cluster = quick_cluster(db_size=20, strategy="version_check")
        txn = cluster.submit_via("S1", [], {"obj0": "phantom"})
        cluster.settle(0.5)
        assert txn.committed  # committed everywhere in this run
        # Now force the asymmetric case: S1 commits more work than S2/S3
        # ever process, by crashing S2/S3 right after submission.
        txn2 = cluster.submit_via("S1", [], {"obj1": "only-s1"})
        cluster.run_for(0.004)  # delivered+committed at S1; others mid-ack
        cluster.crash("S2")
        cluster.crash("S3")
        cluster.run_for(0.2)
        cluster.crash("S1")
        cluster.run_for(0.2)
        for site in ("S2", "S3", "S1"):
            cluster.recover(site)
        assert cluster.await_all_active(timeout=30)
        cluster.settle(0.5)
        # Whatever S1 committed must have survived into everyone's state.
        if txn2.committed:
            for site in cluster.universe:
                assert cluster.nodes[site].db.store.value("obj1") == "only-s1"
        cluster.check()

    def test_processing_resumes_after_creation(self, backend):
        cluster = quick_cluster(db_size=30, mode=backend)
        assert total_failure_and_recovery(cluster, ["S1", "S2", "S3"])
        txn = cluster.submit_via("S2", [], {"obj0": "post-creation"})
        cluster.settle(0.5)
        assert txn.committed
        cluster.check()

    def test_bootstrap_without_initial_majority_blocks(self):
        """Only one site of three started: no primary view, no processing."""
        cluster = quick_cluster.__wrapped__ if hasattr(quick_cluster, "__wrapped__") else None
        from repro import ClusterBuilder

        cluster = ClusterBuilder(n_sites=3, db_size=10, seed=2).build()
        cluster.start(only=["S1"])
        cluster.run_for(2.0)
        assert cluster.nodes["S1"].status is not SiteStatus.ACTIVE
        with pytest.raises(RuntimeError):
            cluster.nodes["S1"].submit([], {"obj0": 1})
