"""Unit tests for views, view ids and the failure detector."""

from repro.gcs.failure_detector import THETA, FailureDetector
from repro.gcs.messages import Presence
from repro.gcs.view import View, ViewId, majority, singleton_view


class TestViewId:
    def test_ordering_by_epoch_then_coordinator(self):
        assert ViewId(1, "S2") < ViewId(2, "S1")
        assert ViewId(2, "S1") < ViewId(2, "S2")

    def test_str(self):
        assert str(ViewId(3, "S1")) == "3@S1"


class TestView:
    def test_members_sorted_and_deduped_order(self):
        view = View(ViewId(1, "S1"), ("S3", "S1", "S2"))
        assert view.members == ("S1", "S2", "S3")

    def test_contains_and_len(self):
        view = View(ViewId(1, "S1"), ("S1", "S2"))
        assert "S1" in view and "S9" not in view
        assert len(view) == 2

    def test_primary_is_strict_majority(self):
        view = View(ViewId(1, "S1"), ("S1", "S2"))
        assert view.is_primary(3)
        assert not view.is_primary(4)  # 2 of 4 is not a majority
        assert not View(ViewId(1, "S1"), ("S1",)).is_primary(2)

    def test_singleton_view(self):
        view = singleton_view("S5", 7)
        assert view.members == ("S5",)
        assert view.view_id == ViewId(7, "S5")

    def test_majority_helper(self):
        assert majority(["a", "b", "c"], ["a", "b"])
        assert not majority(["a", "b", "c", "d"], ["a", "b"])
        assert not majority(["a", "b"], ["x", "y", "z"])  # outsiders don't count


class TestFailureDetector:
    """The counting rule: p is suspected once THETA beacons have arrived
    from every third party since p's own last one — in beacons, never in
    seconds."""

    def make(self):
        return FailureDetector("S1")

    def presence(self, sender, epoch=1):
        return Presence(sender=sender, view_id=ViewId(epoch, sender), view_members=(sender,), epoch=epoch)

    def hear(self, fd, *senders, times=1):
        for _ in range(times):
            for sender in senders:
                fd.on_presence(self.presence(sender))

    def test_self_always_alive(self):
        fd = self.make()
        assert fd.is_alive("S1")

    def test_unheard_node_not_alive(self):
        fd = self.make()
        assert not fd.is_alive("S2")

    def test_alive_until_theta_beacons_of_every_third_party(self):
        fd = self.make()
        self.hear(fd, "S2", "S3", "S4")  # S3 and S4 count one since S2
        self.hear(fd, "S3", "S4", times=THETA - 2)
        assert fd.is_alive("S2")
        self.hear(fd, "S3")  # S4 still owes one
        assert fd.is_alive("S2")
        self.hear(fd, "S4")
        assert not fd.is_alive("S2")
        self.hear(fd, "S2")
        assert fd.is_alive("S2")

    def test_alive_nodes_set(self):
        fd = self.make()
        self.hear(fd, "S2", "S3", "S4")
        self.hear(fd, "S3", "S4", times=THETA)
        assert fd.alive_nodes() == {"S3", "S4"}

    def test_a_view_of_two_counts_its_own_beacons(self):
        fd = self.make()
        self.hear(fd, "S2")
        for _ in range(THETA - 1):
            fd.on_beacon("S1")
        assert fd.is_alive("S2")
        fd.on_beacon("S1")
        assert not fd.is_alive("S2")

    def test_a_silent_third_party_does_not_shield_a_silent_node(self):
        """Tied arrivals: S3's last beacon landed just after S2's, so it
        counts once since S2's — but S3 is silent too, and once it is
        suspected it no longer counts as a third party."""
        fd = self.make()
        self.hear(fd, "S4", "S2", "S3")
        self.hear(fd, "S4", times=THETA)
        assert fd.alive_nodes() == {"S4"}

    def test_force_suspect(self):
        fd = self.make()
        fd.on_presence(self.presence("S2"))
        fd.force_suspect("S2")
        assert not fd.is_alive("S2")

    def test_claimed_view_only_for_alive(self):
        fd = self.make()
        fd.on_presence(self.presence("S2", epoch=4))
        assert fd.claimed_view("S2") == ViewId(4, "S2")
        for _ in range(THETA):
            fd.on_beacon("S1")
        assert fd.claimed_view("S2") is None

    def test_max_epoch_tracking(self):
        fd = self.make()
        fd.on_presence(self.presence("S2", epoch=9))
        fd.note_epoch(4)
        assert fd.max_epoch_seen == 9
        fd.note_epoch(12)
        assert fd.max_epoch_seen == 12

    def test_reset_clears_everything(self):
        fd = self.make()
        fd.on_presence(self.presence("S2"))
        fd.reset()
        assert not fd.is_alive("S2")
        assert fd.alive_nodes() == set()

    def test_suspicion_due_one_beacon_away_and_never_in_a_spent_window(self):
        fd = self.make()
        assert not fd.suspicion_due_within(0.05)  # nobody alive
        self.hear(fd, "S2", "S3")  # S3 counts one since S2
        self.hear(fd, "S3", times=THETA - 3)
        assert not fd.suspicion_due_within(0.05)
        self.hear(fd, "S3")  # THETA - 1: one beacon away
        assert fd.suspicion_due_within(0.05)
        # A spent window must say no, or the join-wait wake-up would
        # re-arm at the same instant forever.
        assert not fd.suspicion_due_within(0.0)
        assert not fd.suspicion_due_within(-0.01)
