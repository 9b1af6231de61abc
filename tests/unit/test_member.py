"""Tests for GroupMember + MembershipEngine (small multi-member groups).

These run the real protocol over the simulated network — unit-sized
scenarios targeting the paper's section 2.1 guarantees.
"""

import pytest

from repro.gcs.config import GCSConfig
from tests.conftest import make_group


class TestBootstrap:
    def test_members_converge_on_one_view(self):
        sim, _, members, _ = make_group(3)
        sim.run(until=2.0)
        views = {m.view.view_id for m in members.values()}
        assert len(views) == 1
        assert all(len(m.view) == 3 for m in members.values())

    def test_bootstrap_view_is_primary(self):
        sim, _, members, _ = make_group(3)
        sim.run(until=2.0)
        assert all(m.is_primary() for m in members.values())

    def test_singleton_start_view_delivered_to_app(self):
        sim, _, members, apps = make_group(2)
        assert apps["S1"].views[0].members == ("S1",)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GCSConfig(flush_timeout=1.0, round_timeout=0.5).validate()
        with pytest.raises(TypeError):  # detection counts beacons: no timeout
            GCSConfig(suspect_timeout=0.5)

    def test_universe_membership_required(self):
        from repro.gcs.member import GroupMember
        from repro.net.network import Network
        from repro.sim.core import Simulator

        sim = Simulator()
        net = Network(sim)
        with pytest.raises(ValueError):
            GroupMember(sim, net, "X9", ("S1", "S2"))


class TestTotalOrderAcrossGroup:
    def test_all_members_deliver_same_order(self):
        sim, _, members, apps = make_group(3, seed=2)
        sim.run(until=2.0)
        members["S1"].multicast("a")
        members["S3"].multicast("b")
        members["S2"].multicast("c")
        sim.run(until=3.0)
        sequences = {node: tuple(app.payloads()) for node, app in apps.items()}
        assert len(set(sequences.values())) == 1
        assert set(sequences["S1"]) == {"a", "b", "c"}

    def test_sender_receives_own_message(self):
        sim, _, members, apps = make_group(3)
        sim.run(until=2.0)
        members["S2"].multicast("mine")
        sim.run(until=3.0)
        assert "mine" in apps["S2"].payloads()

    def test_gseq_agrees_across_members(self):
        sim, _, members, apps = make_group(3)
        sim.run(until=2.0)
        for i in range(5):
            members["S1"].multicast(i)
        sim.run(until=3.0)
        gseq_maps = [
            {payload: gseq for gseq, _, payload in app.messages} for app in apps.values()
        ]
        assert gseq_maps[0] == gseq_maps[1] == gseq_maps[2]

    def test_multicast_from_down_member_rejected(self):
        sim, _, members, _ = make_group(2)
        sim.run(until=2.0)
        members["S1"].crash()
        with pytest.raises(RuntimeError):
            members["S1"].multicast("x")

    def test_cancel_pending_withdraws(self):
        sim, _, members, apps = make_group(3)
        sim.run(until=2.0)
        members["S1"]._blocked = True  # simulate flush window
        members["S1"].multicast("never")
        assert members["S1"].cancel_pending() == 1
        members["S1"]._blocked = False
        sim.run(until=3.0)
        assert "never" not in apps["S2"].payloads()


class TestCrashAndExclusion:
    def test_crash_triggers_view_change(self):
        sim, _, members, _ = make_group(3)
        sim.run(until=2.0)
        members["S3"].crash()
        sim.run(until=4.0)
        assert members["S1"].view.members == ("S1", "S2")
        assert members["S1"].view == members["S2"].view

    def test_messages_flow_after_exclusion(self):
        sim, _, members, apps = make_group(3)
        sim.run(until=2.0)
        members["S3"].crash()
        sim.run(until=4.0)
        members["S1"].multicast("post")
        sim.run(until=5.0)
        assert "post" in apps["S2"].payloads()

    def test_two_of_three_still_primary(self):
        sim, _, members, _ = make_group(3)
        sim.run(until=2.0)
        members["S3"].crash()
        sim.run(until=4.0)
        assert members["S1"].is_primary()

    def test_one_of_three_not_primary(self):
        sim, _, members, _ = make_group(3)
        sim.run(until=2.0)
        members["S2"].crash()
        members["S3"].crash()
        sim.run(until=4.0)
        assert not members["S1"].is_primary()
        assert members["S1"].view.members == ("S1",)

    def test_recovered_member_rejoins(self):
        sim, _, members, _ = make_group(3)
        sim.run(until=2.0)
        members["S3"].crash()
        sim.run(until=4.0)
        members["S3"].start()
        sim.run(until=7.0)
        assert members["S3"].view.members == ("S1", "S2", "S3")
        assert members["S3"].view == members["S1"].view

    def test_epoch_monotone_across_recovery(self):
        sim, _, members, _ = make_group(3)
        sim.run(until=2.0)
        epoch_before = members["S3"].view.view_id.epoch
        members["S3"].crash()
        sim.run(until=4.0)
        members["S3"].start()
        sim.run(until=7.0)
        assert members["S3"].view.view_id.epoch > epoch_before


class TestVirtualSynchrony:
    def test_survivors_deliver_same_set_before_view_change(self):
        """Virtual synchrony: both installers of the next view delivered
        the same messages in the previous one."""
        sim, _, members, apps = make_group(3, seed=4)
        sim.run(until=2.0)
        for i in range(10):
            members["S1"].multicast(f"m{i}")
        members["S3"].crash()
        sim.run(until=5.0)
        assert apps["S1"].payloads() == apps["S2"].payloads()

    def test_gseq_continuity_for_survivors(self):
        sim, _, members, apps = make_group(3, seed=4)
        sim.run(until=2.0)
        members["S1"].multicast("before")
        sim.run(until=3.0)
        members["S3"].crash()
        sim.run(until=5.0)
        members["S1"].multicast("after")
        sim.run(until=6.0)
        gseqs = [g for g, _, _ in apps["S2"].messages]
        assert gseqs == sorted(gseqs)
        assert len(set(gseqs)) == len(gseqs)

    def test_rejoiner_skips_missed_gseqs(self):
        sim, _, members, apps = make_group(3, seed=4)
        sim.run(until=2.0)
        members["S3"].crash()
        sim.run(until=4.0)
        members["S1"].multicast("missed")
        sim.run(until=5.0)
        members["S3"].start()
        sim.run(until=8.0)
        members["S1"].multicast("seen")
        sim.run(until=9.0)
        payloads3 = apps["S3"].payloads()
        assert "missed" not in payloads3 and "seen" in payloads3
        seen_gseq = {p: g for g, _, p in apps["S1"].messages}
        got_gseq = {p: g for g, _, p in apps["S3"].messages}
        assert got_gseq["seen"] == seen_gseq["seen"]


class TestPartitions:
    def expand(self, groups):
        return groups

    def test_majority_side_stays_primary(self):
        sim, net, members, _ = make_group(5, seed=6)
        sim.run(until=2.0)
        net.set_partitions([{"S1", "S2", "S3"}, {"S4", "S5"}])
        sim.run(until=5.0)
        assert members["S1"].is_primary()
        assert not members["S4"].is_primary()
        assert members["S4"].view.members == ("S4", "S5")

    def test_concurrent_views_do_not_overlap(self):
        sim, net, members, _ = make_group(5, seed=6)
        sim.run(until=2.0)
        net.set_partitions([{"S1", "S2", "S3"}, {"S4", "S5"}])
        sim.run(until=5.0)
        side_a = set(members["S1"].view.members)
        side_b = set(members["S4"].view.members)
        assert not (side_a & side_b)

    def test_merge_after_heal(self):
        sim, net, members, _ = make_group(5, seed=6)
        sim.run(until=2.0)
        net.set_partitions([{"S1", "S2", "S3"}, {"S4", "S5"}])
        sim.run(until=5.0)
        net.heal()
        sim.run(until=8.0)
        views = {m.view for m in members.values()}
        assert len(views) == 1
        assert len(members["S1"].view) == 5

    def test_flush_state_exchanged_at_view_change(self):
        sim, _, members, apps = make_group(2, seed=1)
        sim.run(until=2.0)
        # the merge view change carries each member's flush state dict
        states = apps["S1"].states_seen[-1]
        assert set(states) == {"S1", "S2"}
