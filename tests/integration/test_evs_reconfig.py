"""Integration: EVS-specific reconfiguration semantics (section 5.2)."""

import os

import pytest

# EVS-only semantics (primary subviews, structural up-to-dateness):
# skipped when the CI backend matrix pins another backend.
pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_BACKEND", "evs") not in ("", "evs"),
    reason="EVS reconfiguration semantics are specific to the evs backend",
)

from repro import LoadGenerator, NodeConfig, WorkloadConfig
from repro.checkers import run_all_checks
from repro.client import ClientFleet
from repro.net.latency import FixedLatency
from repro.replication.node import SiteStatus
from tests.conftest import quick_cluster


class TestStructuralUpToDate:
    def test_processing_only_in_primary_subview(self):
        cluster = quick_cluster(mode="evs", n_sites=5, db_size=40)
        for node in cluster.nodes.values():
            assert node.gcs.in_primary_subview()
            assert node.up_to_date

    def test_rejoiner_outside_primary_subview_until_merged(self):
        node_config = NodeConfig(transfer_obj_time=0.003, transfer_batch_size=10)
        cluster = quick_cluster(mode="evs", n_sites=5, db_size=200,
                                node_config=node_config)
        load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=60,
                                                     reads_per_txn=1, writes_per_txn=1))
        load.start()
        cluster.run_for(0.3)
        cluster.crash("S5")
        cluster.run_for(0.5)
        cluster.recover("S5")
        # While recovering, S5 is in the view but not the primary subview.
        cluster.await_condition(
            lambda: cluster.nodes["S5"].member.view.is_primary(5), timeout=10
        )
        node5 = cluster.nodes["S5"]
        assert not node5.gcs.in_primary_subview()
        assert node5.status is not SiteStatus.ACTIVE
        ok = cluster.await_condition(
            lambda: node5.status is SiteStatus.ACTIVE, timeout=30
        )
        load.stop()
        cluster.settle(0.5)
        assert ok
        assert node5.gcs.in_primary_subview()
        cluster.check()

    def test_no_announcements_under_evs(self):
        """The whole point of EVS: completion is structural, no explicit
        up-to-date announcements are multicast."""
        cluster = quick_cluster(mode="evs", n_sites=5, db_size=40)
        cluster.crash("S5")
        cluster.run_for(0.5)
        cluster.recover("S5")
        assert cluster.await_all_active(timeout=30)
        assert all(n.reconfig.announcements_sent == 0 for n in cluster.nodes.values())
        assert any(
            getattr(n.reconfig, "sv_merges_issued", 0) > 0
            for n in cluster.nodes.values()
        )

    def test_merge_sequence_matches_paper(self):
        """Subview-SetMerge (reconfiguration starts) strictly before the
        SubviewMerge (final synchronization point)."""
        cluster = quick_cluster(mode="evs", n_sites=5, db_size=40)
        reasons = []
        node = cluster.nodes["S1"]
        original = node.reconfig.on_eview_change

        def spy(eview, reason, states, gseq=None):
            reasons.append(reason)
            return original(eview, reason, states, gseq)

        node.reconfig.on_eview_change = spy
        cluster.crash("S5")
        cluster.run_for(0.5)
        cluster.recover("S5")
        assert cluster.await_all_active(timeout=30)
        assert "subview_set_merge" in reasons and "subview_merge" in reasons
        assert reasons.index("subview_set_merge") < reasons.index("subview_merge")


class TestSuspension:
    def test_no_primary_subview_suspends_despite_primary_view(self):
        """Section 5.2: peer loss can shrink the primary subview below a
        majority while the *view* stays primary — everyone suspends."""
        node_config = NodeConfig(transfer_obj_time=0.003, transfer_batch_size=10)
        cluster = quick_cluster(mode="evs", n_sites=4, db_size=200, seed=5,
                                node_config=node_config)
        load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=60,
                                                     reads_per_txn=1, writes_per_txn=1))
        load.start()
        cluster.run_for(0.3)
        cluster.crash("S4")
        cluster.run_for(0.5)
        cluster.recover("S4")

        def transfer_running():
            return any(n.alive and n.reconfig.sessions_out.get("S4")
                       for n in cluster.nodes.values())

        assert cluster.await_condition(transfer_running, timeout=10)
        peer = next(s for s, n in cluster.nodes.items()
                    if n.alive and n.reconfig.sessions_out.get("S4"))
        cluster.run_for(0.05)
        cluster.crash(peer)
        load.stop()
        cluster.run_for(3.0)
        survivors = [s for s in cluster.universe if cluster.nodes[s].alive]
        view = cluster.nodes[survivors[0]].member.view
        assert view.is_primary(4)  # 3 of 4: the view IS primary
        for site in survivors:
            assert cluster.nodes[site].status is SiteStatus.SUSPENDED

    def test_suspension_resolved_by_creation_when_all_back(self):
        node_config = NodeConfig(transfer_obj_time=0.003, transfer_batch_size=10)
        cluster = quick_cluster(mode="evs", n_sites=4, db_size=150, seed=5,
                                node_config=node_config)
        load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=60,
                                                     reads_per_txn=1, writes_per_txn=1))
        load.start()
        cluster.run_for(0.3)
        cluster.crash("S4")
        cluster.run_for(0.4)
        cluster.recover("S4")

        def transfer_running():
            return any(n.alive and n.reconfig.sessions_out.get("S4")
                       for n in cluster.nodes.values())

        assert cluster.await_condition(transfer_running, timeout=10)
        peer = next(s for s, n in cluster.nodes.items()
                    if n.alive and n.reconfig.sessions_out.get("S4"))
        cluster.run_for(0.05)
        cluster.crash(peer)
        cluster.run_for(1.0)
        cluster.recover(peer)
        ok = cluster.await_all_active(timeout=40)
        load.stop()
        cluster.settle(1.0)
        assert ok
        cluster.check()


class TestEvsVsPlainVs:
    def test_same_schedule_both_modes_converge(self):
        from repro.scenarios import run_figure1_scenario

        vs_report = run_figure1_scenario(mode="vs", seed=29)
        evs_report = run_figure1_scenario(mode="evs", seed=29)
        assert vs_report.completed and evs_report.completed

    def test_vs_uses_announcements_evs_uses_merges(self):
        from repro.scenarios import run_figure1_scenario

        vs_report = run_figure1_scenario(mode="vs", seed=31)
        evs_report = run_figure1_scenario(mode="evs", seed=31)
        assert vs_report.announcements > 0
        assert vs_report.svs_merges == vs_report.sv_merges == 0
        assert evs_report.announcements == 0
        assert evs_report.svs_merges > 0 and evs_report.sv_merges > 0


@pytest.mark.usefixtures("activation_monitor")
class TestKnownDivergence:
    @pytest.mark.parametrize("seed", [17, 13, 11])
    def test_cascade_with_client_sessions_converges(self, seed):
        """The Figure-1 cascade under closed-loop clients on fixed 1 ms
        links.  Until PR 21 all three seeds left S5 ACTIVE with stale
        objects: a superseding transfer offer dropped the joiner's
        in-flight replay step together with its message (DESIGN.md,
        "Joiner replay: the queue owns its messages").  The activation
        monitor names the step if it ever comes back."""
        cluster = quick_cluster(
            seed=seed, mode="evs", n_sites=5, db_size=2000,
            latency=FixedLatency(0.001),
            node_config=NodeConfig(transfer_obj_time=0.002,
                                   transfer_batch_size=25))
        fleet = ClientFleet(cluster, 16, WorkloadConfig(
            arrival_rate=400.0, reads_per_txn=1, writes_per_txn=2))

        def await_active(sites):
            nodes = [cluster.nodes[site] for site in sites]
            assert cluster.await_condition(
                lambda: all(n.status is SiteStatus.ACTIVE for n in nodes),
                timeout=60, step=0.01), f"{sites} not ACTIVE"

        fleet.start()
        cluster.run_for(0.5)
        cluster.crash("S5")
        cluster.run_for(0.5)
        cluster.recover("S5")
        cluster.run_for(0.15)
        cluster.crash("S1")  # S5's transfer is in flight
        await_active(["S5"])
        cluster.recover("S1")
        await_active(cluster.universe)
        cluster.run_for(0.3)
        cluster.partition([["S1", "S2", "S3"], ["S4", "S5"]])
        cluster.run_for(1.0)
        cluster.heal()
        await_active(cluster.universe)
        fleet.stop()
        assert cluster.await_condition(fleet.drained, timeout=60, step=0.01)
        cluster.settle(1.0)
        run_all_checks(cluster.history, list(cluster.nodes.values()),
                       sessions=fleet.sessions)
