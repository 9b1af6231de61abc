"""The reconfiguration control flow has one copy of each mechanism:
table-routed messages on both channels, one certification decision for
live delivery and replay, one status writer whose every change is an
event, and one up-to-date stamp shared by the vs announcement and the
logless config write."""

import dataclasses
import inspect

import pytest

from repro import ClusterBuilder, NodeConfig
from repro.gcs.messages import Presence
from repro.gcs.view import ViewId
from repro.reconfig import transfer
from repro.reconfig.evs_manager import EvsMembership
from repro.reconfig.logless import LoglessMembership
from repro.reconfig.manager import TRANSFER_ROUTES, ReconfigManager, VsMembership
from repro.replication import messages
from repro.replication.messages import (
    ConfigChange,
    CoverAnnouncement,
    LastRoundDelimiter,
    RequestId,
    TransactionMessage,
    UpToDateAnnouncement,
)
from repro.replication.node import SiteStatus
from repro.tracing import attach_tracer
from tests.conftest import quick_cluster, run_load

BACKENDS = ("vs", "evs", "logless")
#: Every owner of an ordered-message route: the manager's shared
#: routes, and each backend's membership.
ROUTE_OWNERS = (ReconfigManager, VsMembership, EvsMembership, LoglessMembership)


# ----------------------------------------------------------------------
# (a) The trace never lies about status
# ----------------------------------------------------------------------
def observed_cluster(backend):
    """A bootstrapped cluster whose tracer checks, at every event of a
    site, that the status reconstructed from that site's ``status/*``
    events is the status the node really has."""
    cluster = ClusterBuilder(n_sites=3, db_size=40, seed=42,
                             strategy="version_check", mode=backend).build()
    tracer = attach_tracer(cluster)
    told = {}
    lies = []

    def check(event):
        if event.category == "status":
            told[event.site] = event.kind
        actual = cluster.nodes[event.site].status.value
        if told.get(event.site, "down") != actual:
            lies.append(f"{event}: trace says {told.get(event.site, 'down')}, "
                        f"node is {actual}")

    tracer.add_listener(check)
    cluster.start()
    assert cluster.await_all_active(timeout=10)
    return cluster, tracer, told, lies


def assert_trace_told_the_truth(cluster, told, lies):
    assert not lies, "\n".join(lies[:5])
    for site, node in cluster.nodes.items():
        assert told.get(site, "down") == node.status.value, site


def crash_recover(cluster):
    run_load(cluster, duration=0.3)
    cluster.crash("S3")
    run_load(cluster, duration=0.3)
    cluster.recover("S3")
    assert cluster.await_all_active(timeout=30)
    return ("stalled", "restarted")


def total_failure_and_creation(cluster):
    run_load(cluster, duration=0.4, rate=120)
    cluster.crash("S3")
    run_load(cluster, duration=0.3, rate=120)
    cluster.crash("S1")
    cluster.crash("S2")
    cluster.run_for(0.5)
    for site in ("S3", "S1", "S2"):
        cluster.recover(site)
        cluster.run_for(0.3)
    assert cluster.await_all_active(timeout=30)
    # The creation source's announcement / merge / config write moves
    # the other sites from SUSPENDED to RECOVERING.
    return ("recovering", "was suspended")


def stale_view_demotion(cluster):
    victim = cluster.nodes["S3"]
    newer = ViewId(victim.member.view.view_id.epoch + 1, "S1")
    for sender in ("S1", "S2"):
        victim.member.fd.on_presence(Presence(
            sender=sender, view_id=newer, view_members=("S1", "S2"),
            epoch=newer.epoch))
    victim.member._check_stale_view()
    assert victim.status is SiteStatus.STALLED
    cluster.run_for(0.5)
    return ("stalled", "was active")


@pytest.mark.parametrize("scenario", (crash_recover, total_failure_and_creation,
                                      stale_view_demotion))
@pytest.mark.parametrize("backend", BACKENDS)
def test_the_trace_never_lies_about_status(backend, scenario):
    cluster, tracer, told, lies = observed_cluster(backend)
    expected = scenario(cluster)
    assert_trace_told_the_truth(cluster, told, lies)
    hops = {(e.kind, e.detail) for e in tracer.of("status")}
    assert expected in hops
    # Booting is an event too, and the first one of every site.
    for site in cluster.nodes:
        first = tracer.of("status", site=site)[0]
        assert (first.kind, first.detail) == ("stalled", "started")


# ----------------------------------------------------------------------
# (b) One status writer
# ----------------------------------------------------------------------
def test_status_is_read_only():
    node = quick_cluster().nodes["S1"]
    with pytest.raises(AttributeError):
        node.status = SiteStatus.SUSPENDED
    assert node.status is SiteStatus.ACTIVE


def test_a_down_site_only_restarts_into_stalled():
    cluster = quick_cluster()
    tracer = attach_tracer(cluster)
    node = cluster.nodes["S2"]
    cluster.crash("S2")
    with pytest.raises(RuntimeError, match=r"S2 .*active.*late announcement"):
        node._set_status(SiteStatus.ACTIVE, "late announcement")
    assert node.status is SiteStatus.DOWN
    # Writing the status it already has is a no-op, not an event.
    events = len(tracer.events)
    node._set_status(SiteStatus.DOWN, "crashed again")
    assert len(tracer.events) == events


# ----------------------------------------------------------------------
# (c) The logless config write stamps ``asof`` like the vs announcement
# ----------------------------------------------------------------------
def test_logless_add_outranks_a_staler_flushed_claim():
    cluster = quick_cluster(mode="logless")
    node = cluster.nodes["S1"]
    manager = node.reconfig
    node.site_utd["S3"] = False
    manager.on_control(
        ConfigChange(proposer="S3", base_version=manager.membership.config.version,
                     add=("S3",)),
        gseq=500)
    assert node.site_utd["S3"]
    # S3's own flushed state was captured before it saw its add-self
    # delivered: a negative claim, but older than what S1 delivered.
    states = {site: other.flush_state() for site, other in cluster.nodes.items()}
    states["S3"]["repl"].update(utd=False, asof=499)
    node.on_view_change(node.member.view, states)
    assert node.site_utd["S3"] is True
    assert "S3" not in manager.sessions_out


# ----------------------------------------------------------------------
# (d) Routing tables: complete, and loud about what they do not know
# ----------------------------------------------------------------------
def message_types(module):
    return {obj for obj in vars(module).values()
            if dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__}


def test_every_transfer_message_has_one_route_to_an_existing_handler():
    assert set(TRANSFER_ROUTES) == message_types(transfer)
    owner = {"manager": ReconfigManager,
             "peer": transfer.PeerTransferSession,
             "joiner": transfer.JoinerTransferSession}
    for message_type, (side, method) in TRANSFER_ROUTES.items():
        handler = getattr(owner[side], method, None)
        assert inspect.isfunction(handler), (message_type.__name__, side, method)
        # One signature for every route: the message and nothing else.
        assert len(inspect.signature(handler).parameters) == 2, method
    # A peer session hears only the accept, acknowledgements and the
    # catch-up on this channel: where it captures is never negotiated
    # point to point, but read off the total order (the view change, or
    # lazy's delimiter).
    assert {message_type.__name__ for message_type, (side, _method)
            in TRANSFER_ROUTES.items() if side == "peer"} == {
        "TransferAccept", "ReconcileAck", "TransferBatchAck",
        "TransferCompleteAck", "CatchUpComplete"}


def test_every_ordered_message_is_bookkeeping_or_routed_by_a_backend():
    routed = set()
    for owner in ROUTE_OWNERS:
        for message_type, method in owner.CONTROL_ROUTES.items():
            handler = getattr(owner, method, None)
            assert inspect.isfunction(handler), (owner.__name__, method)
            # One signature for every route: (message, gseq).
            parameters = list(inspect.signature(handler).parameters)
            assert len(parameters) == 3 and parameters[2] == "gseq", method
            routed.add(message_type)
    control = message_types(messages) - {RequestId, TransactionMessage}
    assert control == routed | {CoverAnnouncement}
    # Pure cover bookkeeping is the node's, not a backend's.
    assert CoverAnnouncement not in routed
    # Lazy's last round is an ordered point every backend shares.
    assert ReconfigManager.CONTROL_ROUTES[LastRoundDelimiter] == "_on_last_round_delimiter"


@dataclasses.dataclass(frozen=True)
class Bogus:
    session_id: str = "nobody"


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_unrouted_message_fails_loudly_on_both_channels(backend):
    node = quick_cluster(mode=backend).nodes["S1"]
    with pytest.raises(TypeError, match=r"S1.*Bogus"):
        node.reconfig.on_transfer_message("S2", Bogus())
    with pytest.raises(TypeError, match=r"S1.*Bogus"):
        node.on_message("S2", Bogus(), 10_000)


def test_logless_does_not_route_the_announcements_it_never_sends():
    node = quick_cluster(mode="logless").nodes["S1"]
    with pytest.raises(TypeError, match=r"S1.*logless.*UpToDateAnnouncement"):
        node.on_message("S2", UpToDateAnnouncement(site="S2", cover_gid=0), 10_000)


# ----------------------------------------------------------------------
# (e) Replay equals live: one certification decision
# ----------------------------------------------------------------------
def test_replay_reaches_the_decisions_live_delivery_made():
    """A joiner replays a stream holding a commit, a duplicate of a
    settled client request and a version-check abort, and ends where a
    site that processed the same stream live did."""
    cluster = quick_cluster(strategy="full",
                            node_config=NodeConfig(transfer_obj_time=0.01))
    live, joiner = cluster.nodes["S1"], cluster.nodes["S3"]
    live.submit([], {"obj0": "base"})
    cluster.settle(0.5)
    cluster.crash("S3")
    cluster.run_for(0.5)
    cluster.recover("S3")
    assert cluster.await_condition(
        lambda: joiner.reconfig.joiner_session is not None, timeout=10)
    suppressed = {site: cluster.nodes[site].duplicates_suppressed
                  for site in ("S1", "S3")}
    first_gid = live.last_processed_gid + 1

    live.submit(["obj1"], {"obj2": "once"}, request=RequestId("CX", 1, 1))
    cluster.run_for(0.05)
    live.submit(["obj1"], {"obj2": "twice"}, request=RequestId("CX", 1, 2))
    stale = live.db.store.read("obj0")[1] - 1
    live._multicast(TransactionMessage(
        origin="S1", local_id="S1#forged", read_set=(("obj0", stale),),
        write_set=(("obj3", "never"),), request=RequestId("CX", 2, 1)))
    cluster.run_for(0.05)
    # The whole stream is waiting behind the transfer: S3 will replay it.
    assert joiner.status is SiteStatus.RECOVERING
    assert len(joiner.reconfig.enqueued) >= 3
    replayed = joiner.reconfig.replayed_transactions

    assert cluster.await_all_active(timeout=30)
    cluster.settle(0.5)
    assert joiner.reconfig.replayed_transactions >= replayed + 3
    # Only a client's newest row decides a delivery (older rows collapse
    # at checkpoints, at different times at different sites).
    newest = {site: {row[0]: row for row in cluster.nodes[site].db.outcomes.rows()}
              for site in ("S1", "S3")}
    assert newest["S3"] == newest["S1"]
    assert [row[1:3] + row[4:] for row in newest["S1"].values()] == [(2, 1, False)]
    for site in ("S1", "S3"):
        assert cluster.nodes[site].duplicates_suppressed == suppressed[site] + 1

    def decisions(site):
        return {event.gid: event.kind for event in cluster.history.by_site()[site]
                if event.gid >= first_gid}

    assert decisions("S3") == decisions("S1")
    assert sorted(decisions("S1").values()) == ["abort", "commit"]
    assert joiner.db.store.read("obj2")[0] == "once"
    cluster.check()
