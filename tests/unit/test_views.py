"""Unit tests for views, view ids and the failure detector."""

from repro.gcs.failure_detector import FailureDetector
from repro.gcs.messages import Presence
from repro.gcs.view import View, ViewId, majority, singleton_view
from repro.sim.core import Simulator


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
    def make(self, timeout=1.0):
        sim = Simulator()
        fd = FailureDetector(sim, "S1", timeout)
        return sim, fd

    def presence(self, sender, epoch=1):
        return Presence(sender=sender, view_id=ViewId(epoch, sender), view_members=(sender,), epoch=epoch)

    def test_self_always_alive(self):
        _, fd = self.make()
        assert fd.is_alive("S1")

    def test_unheard_node_not_alive(self):
        _, fd = self.make()
        assert not fd.is_alive("S2")

    def test_alive_within_timeout(self):
        sim, fd = self.make(timeout=1.0)
        fd.on_presence(self.presence("S2"))
        sim.now = 0.9
        assert fd.is_alive("S2")
        sim.now = 1.1
        assert not fd.is_alive("S2")

    def test_alive_nodes_set(self):
        sim, fd = self.make(timeout=1.0)
        fd.on_presence(self.presence("S2"))
        fd.on_presence(self.presence("S3"))
        sim.now = 0.5
        fd.on_presence(self.presence("S2"))
        sim.now = 1.2
        assert fd.alive_nodes() == {"S2"}

    def test_force_suspect(self):
        _, fd = self.make()
        fd.on_presence(self.presence("S2"))
        fd.force_suspect("S2")
        assert not fd.is_alive("S2")

    def test_claimed_view_only_for_alive(self):
        sim, fd = self.make(timeout=1.0)
        fd.on_presence(self.presence("S2", epoch=4))
        assert fd.claimed_view("S2") == ViewId(4, "S2")
        sim.now = 2.0
        assert fd.claimed_view("S2") is None

    def test_max_epoch_tracking(self):
        _, fd = self.make()
        fd.on_presence(self.presence("S2", epoch=9))
        fd.note_epoch(4)
        assert fd.max_epoch_seen == 9
        fd.note_epoch(12)
        assert fd.max_epoch_seen == 12

    def test_reset_clears_everything(self):
        _, fd = self.make()
        fd.on_presence(self.presence("S2"))
        fd.reset()
        assert not fd.is_alive("S2")
        assert fd.alive_nodes() == set()

    def test_suspicion_delay_lands_on_the_first_suspected_instant(self):
        """Armed with the delay it returns, a wake-up fires at the first
        instant the liveness check calls the node stale — never while it
        still calls it alive — on awkward floats, without an epsilon."""
        import math
        import random

        rng = random.Random(7)
        for _ in range(500):
            sim, fd = self.make(timeout=0.22)
            sim.now = rng.uniform(0.0, 20.0)
            fd.on_presence(self.presence("S2"))
            sim.now += rng.uniform(0.0, 0.2)
            delay = fd.suspicion_delay()
            fired = []
            sim.schedule(delay, lambda: fired.append(fd.alive_nodes()))
            before = math.nextafter(sim.now + delay, -math.inf)
            sim.run()
            assert fired == [set()]
            sim.now = before
            assert fd.is_alive("S2")

    def test_no_suspicion_pending_when_nobody_is_alive(self):
        sim, fd = self.make(timeout=1.0)
        assert fd.suspicion_delay() is None
        fd.on_presence(self.presence("S2"))
        sim.now = 1.5
        assert fd.suspicion_delay() is None
