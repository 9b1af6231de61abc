"""Rule-by-rule verification of the EVS manager against section 5.2."""

import os

import pytest

# These tests pin mode="evs" by construction: they assert on subview
# structure and merge rules that only the EVS backend has.  When the
# CI backend matrix forces a different backend via REPRO_BACKEND the
# whole file is skipped rather than silently re-testing EVS.
# Every activation in this suite is checked as it happens (tests/monitors.py).
pytestmark = [
    pytest.mark.skipif(
        os.environ.get("REPRO_BACKEND", "evs") not in ("", "evs"),
        reason="EVS rules (section 5.2) are specific to the evs backend",
    ),
    pytest.mark.usefixtures("activation_monitor"),
]

from repro import LoadGenerator, NodeConfig, WorkloadConfig
from repro.replication.node import SiteStatus
from tests.conftest import quick_cluster


def recovering_evs_cluster(seed=5, db_size=250, n_sites=5):
    """A cluster with S-last crashed and just recovered: transfer pending."""
    node_config = NodeConfig(transfer_obj_time=0.003, transfer_batch_size=15)
    cluster = quick_cluster(mode="evs", n_sites=n_sites, db_size=db_size,
                            seed=seed, node_config=node_config)
    load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=60,
                                                 reads_per_txn=1, writes_per_txn=2))
    load.start()
    cluster.run_for(0.4)
    victim = f"S{n_sites}"
    cluster.crash(victim)
    cluster.run_for(0.4)
    cluster.recover(victim)
    return cluster, load, victim


class TestRuleI1:
    def test_exactly_one_member_issues_the_svs_merge(self):
        cluster, load, victim = recovering_evs_cluster()
        cluster.await_condition(
            lambda: any(n.reconfig.membership.svs_merges_issued > 0
                        for n in cluster.nodes.values()),
            timeout=10,
        )
        cluster.run_for(0.3)
        issuers = [s for s, n in cluster.nodes.items()
                   if n.reconfig.membership.svs_merges_issued > 0]
        assert len(issuers) == 1  # the deterministically elected peer
        load.stop()

    def test_merge_delivered_to_all_members(self):
        cluster, load, victim = recovering_evs_cluster()
        ok = cluster.await_condition(
            lambda: all(
                len(n.gcs.eview.subview_sets()) == 1
                for n in cluster.nodes.values() if n.alive
            ),
            timeout=15,
        )
        assert ok
        load.stop()


class TestRuleII:
    def test_transfer_starts_only_after_svs_merge(self):
        cluster, load, victim = recovering_evs_cluster()
        node = cluster.nodes[victim]

        def transfer_started():
            return any(n.alive and n.reconfig.sessions_out.get(victim)
                       for n in cluster.nodes.values())

        assert cluster.await_condition(transfer_started, timeout=15)
        # At this point the joiner's subview-set must contain the primary.
        eview = node.gcs.eview
        primary = eview.primary_subview(5)
        assert primary is not None
        assert primary <= eview.subview_set_of(victim)
        load.stop()

    def test_joiner_enqueues_after_merge(self):
        cluster, load, victim = recovering_evs_cluster()
        node = cluster.nodes[victim]
        assert cluster.await_condition(
            lambda: node.reconfig.enqueue_mode, timeout=15
        )
        load.stop()


class TestRuleIII:
    def test_subview_merge_only_after_catch_up(self):
        cluster, load, victim = recovering_evs_cluster()
        node = cluster.nodes[victim]
        assert cluster.await_condition(
            lambda: node.status is SiteStatus.ACTIVE, timeout=40
        )
        # By the time the merge made it active, it had fully caught up.
        assert not node.reconfig.enqueued
        assert node.gcs.in_primary_subview()
        load.stop()
        cluster.settle(0.5)
        cluster.check()

    def test_all_members_see_joiner_in_primary_subview(self):
        cluster, load, victim = recovering_evs_cluster()
        assert cluster.await_condition(
            lambda: cluster.nodes[victim].status is SiteStatus.ACTIVE, timeout=40
        )
        cluster.settle(0.2)
        for node in cluster.nodes.values():
            primary = node.gcs.eview.primary_subview(5)
            assert primary is not None and victim in primary
        load.stop()


class TestRuleI4:
    def test_member_leaving_primary_subview_stops_transfers(self):
        cluster, load, victim = recovering_evs_cluster()

        def transfer_started():
            return any(n.alive and n.reconfig.sessions_out.get(victim)
                       for n in cluster.nodes.values())

        assert cluster.await_condition(transfer_started, timeout=15)
        peer = next(s for s, n in cluster.nodes.items()
                    if n.alive and n.reconfig.sessions_out.get(victim))
        # Isolate the peer: it leaves the primary view and subview.
        others = [s for s in cluster.universe if s != peer]
        cluster.partition([others, [peer]])
        assert cluster.await_condition(
            lambda: not cluster.nodes[peer].reconfig.sessions_out, timeout=15
        )
        assert cluster.nodes[peer].status is SiteStatus.STALLED
        cluster.heal()
        for site in cluster.universe:
            if not cluster.nodes[site].alive:
                cluster.recover(site)
        assert cluster.await_all_active(timeout=60)
        load.stop()
        cluster.settle(0.5)
        cluster.check()
