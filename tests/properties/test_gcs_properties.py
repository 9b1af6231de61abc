"""Property-based tests for the group communication guarantees."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.gcs.config import GCSConfig
from tests.conftest import make_group


def run_group_schedule(n, seed, sends, crash_at, recover_at, lossy=False):
    """Drive a group with interleaved multicasts and one crash/recovery."""
    from repro.net.latency import FixedLatency
    from repro.net.network import Network
    from repro.sim.core import Simulator
    from repro.gcs.member import GroupMember
    from tests.conftest import RecordingApp

    sim = Simulator(seed=seed)
    network = Network(sim, latency=FixedLatency(0.001),
                      loss_rate=0.05 if lossy else 0.0)
    universe = tuple(f"S{i + 1}" for i in range(n))
    apps = {node: RecordingApp(node, universe_size=n) for node in universe}
    members = {
        node: GroupMember(sim, network, node, universe, GCSConfig(), apps[node])
        for node in universe
    }
    for member in members.values():
        member.start()
    sim.run(until=2.0)
    victim = universe[-1]
    for i, (sender_index, at) in enumerate(sends):
        sender = universe[sender_index % n]
        sim.schedule_at(2.0 + at, lambda s=sender, i=i: (
            members[s].multicast(f"m{i}") if members[s].alive else None
        ))
    if crash_at is not None:
        sim.schedule_at(2.0 + crash_at, members[victim].crash)
        if recover_at is not None:
            sim.schedule_at(2.0 + crash_at + recover_at, members[victim].start)
    sim.run(until=12.0)
    return members, apps


sends_strategy = st.lists(
    st.tuples(st.integers(0, 4), st.floats(0.0, 1.5, allow_nan=False)),
    min_size=0, max_size=12,
)


class TestGroupGuarantees:
    @given(seed=st.integers(0, 100_000), sends=sends_strategy)
    @settings(max_examples=15, deadline=None, suppress_health_check=list(HealthCheck))
    def test_total_order_no_faults(self, seed, sends):
        members, apps = run_group_schedule(3, seed, sends, None, None)
        sequences = [tuple(app.payloads()) for app in apps.values()]
        assert len(set(sequences)) == 1

    @given(
        seed=st.integers(0, 100_000),
        sends=sends_strategy,
        crash_at=st.floats(0.1, 1.2, allow_nan=False),
        recover=st.booleans(),
    )
    @settings(max_examples=15, deadline=None, suppress_health_check=list(HealthCheck))
    def test_prefix_consistency_with_crash(self, seed, sends, crash_at, recover):
        """Gseqs delivered *in primary views* are bound to unique payloads
        across all members (minority views may diverge — the replica
        control layer ignores them, section 2.3), and survivors agree
        exactly on their full delivery sequences."""
        members, apps = run_group_schedule(
            3, seed, sends, crash_at, 1.0 if recover else None
        )
        by_gseq = {}
        for app in apps.values():
            for gseq, _, payload in app.primary_messages:
                if gseq in by_gseq:
                    assert by_gseq[gseq] == payload, f"gseq {gseq} payload mismatch"
                else:
                    by_gseq[gseq] = payload
        survivors = [app for node, app in apps.items() if node != "S3"]
        assert tuple(survivors[0].payloads()) == tuple(survivors[1].payloads())

    @given(seed=st.integers(0, 100_000), sends=sends_strategy)
    @settings(max_examples=10, deadline=None, suppress_health_check=list(HealthCheck))
    def test_total_order_under_message_loss(self, seed, sends):
        """Retransmission machinery: loss may delay but not reorder.

        Loss can also stall the initial merge past the first sends (or
        tear the view), so a multicast may land while components are
        still disjoint.  Deliveries in non-primary components are
        reconciled by the replica layer (section 2.3) and exempt here,
        as in the crash test above; within primary views the gseq ->
        payload binding must be unique across members and every member
        must deliver in gseq order without duplicates.
        """
        members, apps = run_group_schedule(3, seed, sends, None, None, lossy=True)
        by_gseq = {}
        for app in apps.values():
            gseqs = [gseq for gseq, _, _ in app.primary_messages]
            assert gseqs == sorted(gseqs), "delivery reordered"
            assert len(set(gseqs)) == len(gseqs), "duplicate delivery"
            for gseq, _, payload in app.primary_messages:
                assert by_gseq.setdefault(gseq, payload) == payload

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=10, deadline=None, suppress_health_check=list(HealthCheck))
    def test_views_converge_after_churn(self, seed):
        members, apps = run_group_schedule(5, seed, [], 0.2, 1.0)
        views = {m.view for m in members.values() if m.alive}
        assert len(views) == 1


# ----------------------------------------------------------------------
# Quorum-stable delivery across primary views
# ----------------------------------------------------------------------
class ViewLog:
    """GCS application that files every delivery under the view it was
    delivered in, and every installation with its primacy, its stale
    list and the view it replaced (a restart installs a singleton, so a
    recovered incarnation never replaces a view directly)."""

    def __init__(self) -> None:
        self.member = None
        self.view = None
        self.installs = []  # (view, primary, stale, previous view)
        self.delivered = {}  # view id -> [(gseq, payload)]

    def on_view_change(self, view, states) -> None:
        member = self.member
        self.installs.append((view, member.is_primary(), member.stale_members, self.view))
        self.view = view

    def on_message(self, sender, payload, gseq) -> None:
        self.delivered.setdefault(self.view.view_id, []).append((gseq, payload))

    def flush_state(self):
        return {}


def run_faulty_group(n, seed, sends, faults, slow):
    """n members under multicasts and a fault script.  ``faults`` is a
    list of (at, kind, index) with kind crash / recover / isolate /
    heal; ``slow`` delays everything sent to one member by 30 ms, so
    the others can deliver on a quorum it is not part of."""
    from repro.faults.injectors import OneWayLinkInjector
    from repro.gcs.member import GroupMember
    from repro.net.latency import FixedLatency
    from repro.net.network import Network
    from repro.sim.core import Simulator

    sim = Simulator(seed=seed)
    network = Network(sim, latency=FixedLatency(0.001))
    universe = tuple(f"S{i + 1}" for i in range(n))
    logs = {node: ViewLog() for node in universe}
    members = {node: GroupMember(sim, network, node, universe, GCSConfig(), logs[node])
               for node in universe}
    for node, member in members.items():
        logs[node].member = member
        member.start()
    if slow is not None:
        for node in universe:
            if node != universe[slow]:
                network.add_injector(OneWayLinkInjector(node, universe[slow], 0.0, 0.03))
    sim.run(until=2.0)

    def fault(kind, node):
        member = members[node]
        if kind == "crash" and member.alive:
            member.crash()
        elif kind == "recover" and not member.alive:
            member.start()
        elif kind == "isolate":
            network.set_partitions([[node], [m for m in universe if m != node]])
        elif kind == "heal":
            network.heal()

    for i, (sender_index, at) in enumerate(sends):
        sender = universe[sender_index % n]
        sim.schedule_at(2.0 + at, lambda s=sender, i=i: (
            members[s].multicast(f"m{i}") if members[s].alive else None))
    for at, kind, index in faults:
        sim.schedule_at(2.0 + at, fault, kind, universe[index % n])
    sim.run(until=8.0)
    return logs


def quorum_violations(logs):
    """Messages delivered in a primary view V that a member of a later
    primary view, installed straight out of V and not marked stale,
    never delivered in V."""
    delivered_in = {}
    for log in logs.values():
        for view_id, items in log.delivered.items():
            delivered_in.setdefault(view_id, set()).update(items)
    primary_views = {view.view_id for log in logs.values()
                     for view, primary, _, _ in log.installs if primary}
    violations = []
    for node, log in logs.items():
        for view, primary, stale, previous in log.installs:
            if not primary or previous is None or node in stale:
                continue
            if previous.view_id not in primary_views:
                continue
            missing = delivered_in.get(previous.view_id, set()) - set(
                log.delivered.get(previous.view_id, ()))
            if missing:
                violations.append((node, previous.view_id, view.view_id, sorted(missing)))
    return violations


random_faults = st.lists(
    st.tuples(st.floats(0.0, 2.0, allow_nan=False),
              st.sampled_from(["crash", "recover", "isolate", "heal"]),
              st.integers(0, 2)),
    max_size=6,
)


@st.composite
def cut_off_crashes(draw):
    """The shapes where a quorum delivers without a member that lives
    on: one member is cut off and crashes inside the cut, or the cut-off
    member survives while the other two crash; a crashed member may come
    back, mostly before the survivor notices the crash.  The crashing
    members multicast four times inside the cut."""
    start = draw(st.floats(0.1, 1.2, allow_nan=False))
    cut = draw(st.floats(0.005, 0.1, allow_nan=False))
    first, second, third = draw(st.permutations(range(3)))
    end = start + cut
    if draw(st.booleans()):
        faults = [(start, "isolate", third), (end, "crash", first), (end, "crash", second)]
    else:
        faults = [(start, "isolate", first), (end, "crash", first)]
    faults.append((end + 0.001, "heal", 0))
    back = draw(st.one_of(st.floats(0.01, 0.2, allow_nan=False),
                          st.none(), st.floats(0.2, 0.6, allow_nan=False)))
    if back is not None:
        faults.append((end + back, "recover", first))
    sends = [(draw(st.sampled_from((first, second))), start + cut * k / 4)
             for k in range(4)]
    return sends, faults


class TestQuorumStableDelivery:
    """Section 2.1's uniformity across primary views, under majority-ack
    delivery: whatever any member delivered in a primary view V, every
    member of a later primary view that flushed straight out of V and is
    not marked stale delivered too (before leaving V)."""

    @given(seed=st.integers(0, 100_000), sends=sends_strategy,
           schedule=st.one_of(cut_off_crashes(),
                              random_faults.map(lambda faults: ([], faults))),
           slow=st.one_of(st.none(), st.integers(0, 2)))
    @settings(max_examples=60, deadline=None, suppress_health_check=list(HealthCheck))
    def test_primary_deliveries_reach_every_up_to_date_successor(
            self, seed, sends, schedule, slow):
        burst, faults = schedule
        logs = run_faulty_group(3, seed, sends + burst, faults, slow)
        assert quorum_violations(logs) == []

    @pytest.mark.parametrize("back", [0.05, 0.5])
    def test_two_crash_one_recovers(self, back):
        """S3 is cut off while S1 and S2 deliver on their own quorum,
        both crash, and S1 comes back ``back`` seconds later — before S3
        has noticed the crash (S3 still in the old view) or after (S3
        alone in a non-primary view).  The primary view {S1,S3} holds
        nobody who carries what S1 and S2 delivered, so both are stale."""
        sends = [(0, 0.4 + 0.01 * i) for i in range(4)]
        faults = [(0.395, "isolate", 2), (0.44, "crash", 0), (0.44, "crash", 1),
                  (0.441, "heal", 0), (0.44 + back, "recover", 0)]
        logs = run_faulty_group(3, 7, sends, faults, None)
        assert quorum_violations(logs) == []
        old = logs["S2"].installs[-1][0].view_id
        assert len(logs["S2"].delivered[old]) == 4
        assert not logs["S3"].delivered.get(old)
        view, primary, stale, _ = logs["S3"].installs[-1]
        assert view.members == ("S1", "S3") and primary
        assert stale == ("S1", "S3")
