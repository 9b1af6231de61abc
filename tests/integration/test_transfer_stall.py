"""Mid-transfer silent stalls: the serving peer's transfer channel goes
one-way-dead (data lost, everything else flows), and the joiner must
still finish its catch-up — via its stall watchdog and peer fail-over —
without any view change being forced."""

from repro import ClusterBuilder, LoadGenerator, WorkloadConfig
from repro.checkers import (
    check_convergence,
    check_decision_agreement,
    check_gid_consistency,
    check_one_copy_serializability,
)
from repro.faults.injectors import FaultInjector, site_of


class XferBlackout(FaultInjector):
    """Drop transfer-channel traffic *into* one site, leaving the group
    communication endpoints untouched — a silent stall, invisible to the
    failure detector."""

    def __init__(self, dst_site: str) -> None:
        self.dst_site = dst_site

    def transform(self, src, dst, payload, delays, rng, now):
        if dst.endswith(":xfer") and site_of(dst) == self.dst_site:
            return []
        return delays


def test_stalled_transfer_fails_over_without_view_change(backend):
    cluster = ClusterBuilder(n_sites=3, db_size=40, seed=5150,
                             strategy="rectable", mode=backend).build()
    cluster.start()
    assert cluster.await_all_active(timeout=10)

    load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=80, reads_per_txn=1,
                                                 writes_per_txn=2))
    load.start()
    cluster.run_for(0.3)
    cluster.crash("S3")
    cluster.run_for(0.5)

    # Black out S3's inbound transfer channel *before* it rejoins: every
    # offer and batch from the elected peer silently vanishes while all
    # GCS traffic (including S3's own solicits, which travel outbound)
    # still flows.
    blackout = cluster.network.add_injector(XferBlackout("S3"))
    cluster.recover("S3")

    joiner = cluster.nodes["S3"].reconfig
    # Let the stall watchdog observe at least one full silent window.
    deadline = cluster.sim.now + 5.0
    while cluster.sim.now < deadline and joiner.transfer_stalls == 0:
        cluster.run_for(0.1)
    assert joiner.transfer_stalls >= 1, "joiner watchdog never detected the stall"
    assert not cluster.nodes["S3"].up_to_date

    views_at_stall = {
        site: node.member.view.view_id
        for site, node in cluster.nodes.items()
        if site != "S3"
    }

    # Heal the channel: the next solicited peer's offer now gets through
    # and recovery completes — no view change required.
    cluster.network.remove_injector(blackout)
    assert cluster.await_all_active(timeout=20), "joiner never recovered after heal"
    assert joiner.solicits_sent >= 1

    views_after = {
        site: node.member.view.view_id
        for site, node in cluster.nodes.items()
        if site != "S3"
    }
    assert views_after == views_at_stall, "recovery forced a view change"

    cluster.run_for(0.5)
    load.stop()
    cluster.settle(2.0)
    check_gid_consistency(cluster.history)
    check_decision_agreement(cluster.history)
    check_one_copy_serializability(cluster.history)
    check_convergence(list(cluster.nodes.values()))


def test_peer_failover_serves_solicited_joiner(backend):
    """When the elected peer itself is the dead link, a *different*
    up-to-date member answers the joiner's solicit (fail-over), observed
    through the serving-side counter."""
    cluster = ClusterBuilder(n_sites=3, db_size=40, seed=4242,
                             strategy="rectable", mode=backend).build()
    cluster.start()
    assert cluster.await_all_active(timeout=10)

    load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=80, reads_per_txn=1,
                                                 writes_per_txn=2))
    load.start()
    cluster.run_for(0.3)
    cluster.crash("S3")
    cluster.run_for(0.5)

    # Peer election is deterministic (round-robin over sorted up-to-date
    # members): the single joiner S3 always gets S1.  Kill exactly S1's
    # transfer path towards S3 *before* the rejoin, so the elected
    # peer's session is silently stillborn and only a fail-over to S2
    # can complete the recovery.
    class OneWayXfer(FaultInjector):
        def transform(self, src, dst, payload, delays, rng, now):
            if (site_of(src) == "S1" and site_of(dst) == "S3"
                    and dst.endswith(":xfer")):
                return []
            return delays

    cluster.network.add_injector(OneWayXfer())
    cluster.recover("S3")
    assert cluster.await_all_active(timeout=30), "fail-over did not complete"
    failovers = sum(n.reconfig.transfer_failovers for n in cluster.nodes.values())
    assert failovers >= 1, "no peer served the solicited joiner"

    load.stop()
    cluster.settle(2.0)
    check_decision_agreement(cluster.history)
    check_convergence(list(cluster.nodes.values()))
