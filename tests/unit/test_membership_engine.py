"""Targeted tests for membership-round edge cases: competing rounds,
NACKs, timeouts, force-suspicion, round metrics, when the decision is
taken, messages of the next view that overtake its SYNC, and how a
round merges previous views."""

import pytest

from repro.gcs.config import GCSConfig
from repro.gcs.messages import (
    FlushReply,
    Ordered,
    OrderedBatch,
    Presence,
    Propose,
    Sync,
    round_priority,
)
from repro.gcs.primary import PrimaryLineage
from repro.gcs.view import View, ViewId
from tests.conftest import make_group


class TestRoundPriority:
    def test_higher_epoch_wins(self):
        assert round_priority((2, "S9")) > round_priority((1, "S1"))

    def test_lower_initiator_wins_at_equal_epoch(self):
        assert round_priority((3, "S1")) > round_priority((3, "S2"))

    def test_max_selects_winner(self):
        rounds = [(1, "S2"), (2, "S3"), (2, "S1")]
        assert max(rounds, key=round_priority) == (2, "S1")


class TestCompetingRounds:
    def test_nack_aborts_lower_priority_initiator(self):
        sim, net, members, _ = make_group(3, seed=2)
        sim.run(until=2.0)
        s2 = members["S2"]
        s1 = members["S1"]
        # S2 (not the canonical min-id initiator) starts a round...
        s2.membership._initiate(("S1", "S2", "S3"))
        assert s2.membership.initiating
        # ...and S1 starts a higher-epoch round concurrently.
        s1.fd.note_epoch(s2.membership.current_round[0])
        s1.membership._initiate(("S1", "S2", "S3"))
        sim.run(until=3.0)
        # Exactly one view results, everyone agrees.
        views = {m.view for m in members.values()}
        assert len(views) == 1
        assert s2.membership.rounds_aborted >= 1 or not s2.membership.initiating

    def test_participant_switches_to_better_round(self):
        sim, net, members, _ = make_group(3, seed=2)
        sim.run(until=2.0)
        s3 = members["S3"]
        low = Propose(round_id=(members["S3"].epoch_floor + 1, "S2"),
                      members=("S1", "S2", "S3"))
        high = Propose(round_id=(members["S3"].epoch_floor + 5, "S1"),
                       members=("S1", "S2", "S3"))
        s3.membership.on_propose("S2", low)
        assert s3.membership.current_round == low.round_id
        s3.membership.on_propose("S1", high)
        assert s3.membership.current_round == high.round_id

    def test_propose_excluding_me_ignored(self):
        sim, net, members, _ = make_group(3, seed=2)
        sim.run(until=2.0)
        s3 = members["S3"]
        foreign = Propose(round_id=(99, "S1"), members=("S1", "S2"))
        s3.membership.on_propose("S1", foreign)
        assert s3.membership.current_round is None


class TestTimeouts:
    def test_initiator_timeout_force_suspects_silent_members(self):
        config = GCSConfig(flush_timeout=0.3, round_timeout=0.8)
        sim, net, members, _ = make_group(3, seed=2, config=config)
        sim.run(until=2.0)
        # S3 goes silent; S1 starts a round that still proposes it.
        net.take_down("S3")
        s1 = members["S1"]
        s1.membership._initiate(("S1", "S2", "S3"))
        sim.run(until=6.0)
        # The round aborted (missing FLUSH), S3 was force-suspected, and
        # the group reformed without it.
        assert s1.membership.rounds_aborted >= 1
        assert members["S1"].view.members == ("S1", "S2")
        assert members["S1"].view == members["S2"].view

    def test_participant_sync_timeout_recovers(self):
        """A participant that never receives SYNC must not stay frozen."""
        config = GCSConfig(flush_timeout=0.3, round_timeout=0.6)
        sim, net, members, apps = make_group(3, seed=2, config=config)
        sim.run(until=2.0)
        s3 = members["S3"]
        # Fake a PROPOSE from a round whose initiator will never answer.
        ghost = Propose(round_id=(s3.epoch_floor + 50, "S1"),
                        members=("S1", "S2", "S3"))
        s3.membership.on_propose("S1", ghost)
        assert s3._blocked
        sim.run(until=6.0)
        assert not s3._blocked
        # And the group still works end to end.
        members["S1"].multicast("after-ghost-round")
        sim.run(until=8.0)
        assert "after-ghost-round" in apps["S3"].payloads()

    def test_round_metrics_counted(self):
        sim, net, members, _ = make_group(3, seed=2)
        sim.run(until=2.0)
        total_completed = sum(m.membership.rounds_completed for m in members.values())
        assert total_completed >= 1


LINK_S = 0.001
#: One membership round on 1 ms links: a beacon or PROPOSE out, FLUSH
#: back, SYNC out — plus one more link delay of slack.
ROUND_S = 4 * LINK_S


def install_times(sim, app):
    """Record ``(time, view)`` at every view installation ``app`` sees."""
    installs = []
    real = app.on_view_change

    def on_view_change(view, states):
        installs.append((sim.now, view))
        real(view, states)

    app.on_view_change = on_view_change
    return installs


def beacons_heard(sim, net, srcs, dst):
    """Record the arrival time of every Presence from ``srcs`` at ``dst``."""
    heard = []
    net.add_tap(lambda src, to, payload: heard.append(sim.now)
                if src in srcs and to == dst and isinstance(payload, Presence)
                else None)
    return heard


@pytest.mark.parametrize("retransmit_interval", [0.1, 0.5])
class TestDecisionTiming:
    """The membership decision is taken when an input changes or a
    deadline falls due — never on the maintenance period, which only
    drives loss repair.  A removal costs its detection and one round; a
    join waits one ``presence_interval`` for concurrent beacons."""

    def test_crash_installed_out_within_detection_and_one_round(
            self, retransmit_interval):
        config = GCSConfig(retransmit_interval=retransmit_interval)
        sim, net, members, apps = make_group(3, seed=1, latency=LINK_S, config=config)
        heard = beacons_heard(sim, net, ("S3",), "S1")
        sim.run(until=2.0)
        installs = install_times(sim, apps["S1"])
        members["S3"].crash()
        sim.run(until=3.0)
        (installed, view), = installs
        assert view.members == ("S1", "S2")
        blocked = installed - heard[-1]
        assert config.suspect_timeout <= blocked <= config.suspect_timeout + ROUND_S

    def test_join_installed_within_debounce_and_one_beacon(self, retransmit_interval):
        """The join wait — the debounce of every mismatch but a removal —
        is one ``presence_interval``, counted from the first beacon the
        initiator hears."""
        config = GCSConfig(retransmit_interval=retransmit_interval)
        sim, net, members, apps = make_group(3, seed=1, latency=LINK_S, config=config)
        sim.run(until=2.0)
        members["S1"].crash()  # the restarted site is the initiator:
        sim.run(until=3.0)     # it must first hear the others' beacons
        installs = install_times(sim, apps["S2"])
        heard = beacons_heard(sim, net, ("S2", "S3"), "S1")
        restarted = sim.now
        members["S1"].start()
        sim.run(until=4.0)
        (installed, view), = installs
        assert view.members == ("S1", "S2", "S3")
        wait = config.presence_interval
        assert wait <= installed - restarted <= 2 * wait + ROUND_S
        assert wait <= installed - heard[0] <= wait + ROUND_S


def staggered_group(n, config=None):
    """:func:`make_group`, but member i boots at i · 7 ms, so the beacon
    phases spread over one ``presence_interval`` instead of coinciding."""
    sim, net, members, apps = make_group(n, seed=1, latency=LINK_S, config=config)
    for index, member in enumerate(members.values()):
        member.crash()
        sim.schedule(0.007 * index, member.start)
    return sim, net, members, apps


class TestPartitionDecision:
    def test_split_installs_one_view_per_side_at_detection(self):
        """A 3 | 2 partition silences several nodes at once; their
        suspicions fall due within one beacon period, and each side waits
        for them all: one round and one view per side, installed one round
        after the last suspicion — no round that proposes a silent node
        (it could only be abandoned, freezing its members meanwhile), and
        no fixed wait on top."""
        config = GCSConfig()
        sim, net, members, apps = staggered_group(5, config)
        sides = (("S1", "S2", "S3"), ("S4", "S5"))
        heard = {side[0]: beacons_heard(sim, net, other, side[0])
                 for side, other in (sides, sides[::-1])}
        sim.run(until=2.0)
        assert {m.view.members for m in members.values()} == {sum(sides, ())}
        installs = {site: install_times(sim, apps[site]) for site in members}
        started = {site: m.membership.rounds_initiated for site, m in members.items()}
        net.set_partitions(sides)
        sim.run(until=3.0)
        for side in sides:
            for site in side:
                (_, view), = installs[site]
                assert view.members == side
            initiator = members[side[0]].membership
            assert initiator.rounds_initiated == started[side[0]] + 1
            (installed, _), = installs[side[0]]
            blocked = installed - heard[side[0]][-1]
            assert config.suspect_timeout <= blocked <= config.suspect_timeout + ROUND_S


class DelaySync:
    """Network injector: every SYNC from ``src`` to ``dst`` takes
    ``extra`` seconds longer, so traffic sent after it overtakes it."""

    def __init__(self, src, dst, extra):
        self.link, self.extra = (src, dst), extra

    def transform(self, src, dst, payload, delays, rng, now):
        if (src, dst) == self.link and isinstance(payload, Sync):
            return [delay + self.extra for delay in delays]
        return delays


class TestNextViewHold:
    def test_first_batch_before_sync_is_delivered_at_the_install(self):
        """The sequencer S1 crashes with S2's message unsequenced.  S2
        coordinates {S2, S3}, installs, becomes the sequencer and ships
        the message at once; its SYNC to S3 is late, so the batch reaches
        S3 first, while S3 is frozen in the round.  S3 holds the batch
        and delivers it at the install, instead of dropping it as
        view-mismatched and waiting for S2's next maintenance push."""
        sim, net, members, apps = make_group(3, seed=1, latency=LINK_S)
        sim.run(until=2.0)
        members["S1"].crash()
        members["S2"].multicast("m")  # lost with the sequencer
        net.add_injector(DelaySync("S2", "S3", 5 * LINK_S))
        batches = []
        net.add_tap(lambda src, dst, payload: batches.append(sim.now)
                    if (src, dst) == ("S2", "S3") and isinstance(payload, OrderedBatch)
                    else None)
        installs = install_times(sim, apps["S3"])
        delivered = []
        real = apps["S3"].on_message
        apps["S3"].on_message = lambda sender, payload, gseq: (
            delivered.append(sim.now), real(sender, payload, gseq))
        sim.run(until=3.0)
        (installed, view), = installs
        assert view.members == ("S2", "S3")
        assert batches[0] < installed
        assert apps["S3"].payloads() == ["m"]
        assert delivered[0] - installed <= LINK_S


class TestCompleteRound:
    def test_superseded_view_delivers_only_its_stable_cut(self):
        """S1, cut off in view 2, misses view 4 {S2,S3,S4} and coordinates
        view 5.  Its view-2 messages beyond the stable cut sit at gseqs
        view 4 already used: delivering them would inflate the base and
        mark the real lineage stale.  The superseded group is trimmed to
        its stable cut; the current lineage's own unstable tail is not."""
        _, _, members, _ = make_group(4, seed=1)
        engine = members["S1"].membership
        everyone = ("S1", "S2", "S3", "S4")
        view2 = View(ViewId(2, "S1"), everyone)
        view4 = View(ViewId(4, "S2"), ("S2", "S3", "S4"))
        round_id = (5, "S1")

        def ordered(view, seq, gseq):
            return Ordered(view.view_id, seq, gseq, "S2", seq, f"m{gseq}")

        flushes = {"S1": FlushReply(
            round_id=round_id, sender="S1", prev_view=view2, delivered_seq=4,
            next_gseq=20, received=tuple(ordered(view2, s, 15 + s) for s in (5, 6, 7)),
            stable_seq=4, lineage=PrimaryLineage(1, everyone))}
        for site in view4.members:
            flushes[site] = FlushReply(
                round_id=round_id, sender=site, prev_view=view4, delivered_seq=9,
                next_gseq=21,
                received=(ordered(view4, 10, 21),) if site == "S2" else (),
                stable_seq=9, lineage=PrimaryLineage(2, view4.members))
        synced = []
        engine.on_sync = lambda src, msg: synced.append(msg)
        engine.current_round, engine.initiating = round_id, True
        engine._round_members, engine._flushes = everyone, flushes
        engine._complete_round()

        (sync,) = synced
        assert sync.sync_messages[view2.view_id] == ()
        assert [o.seq for o in sync.sync_messages[view4.view_id]] == [10]
        assert sync.base_gseq == 22
        assert sync.stale == ("S1",)
