"""Unit tests for the per-view total order state machine (sequencer)."""

from repro.gcs.messages import Ack, AckSolicit, Data, Nak, Ordered
from repro.gcs.total_order import ViewTotalOrder
from repro.gcs.view import View, ViewId


class Harness:
    """Drives one member's ViewTotalOrder with a loopback transport."""

    def __init__(self, me="S1", members=("S1", "S2", "S3"), base_gseq=0, uniform=True,
                 quorum=None):
        self.sent = []  # (dst, msg)
        self.delivered = []
        view = View(ViewId(1, "S1"), members)
        self.to = ViewTotalOrder(
            view=view,
            me=me,
            base_gseq=base_gseq,
            send=lambda dst, msg: self.sent.append((dst, msg)),
            deliver=self.delivered.append,
            uniform=uniform,
            quorum=quorum,
        )

    def ordered(self, seq, sender="S2", payload=None, gseq=None):
        return Ordered(
            view_id=self.to.view.view_id,
            seq=seq,
            gseq=self.to.base_gseq + seq if gseq is None else gseq,
            sender=sender,
            msg_id=seq,
            payload=payload if payload is not None else f"m{seq}",
        )

    def ack_from_all(self, highwater):
        for member in self.to.view.members:
            self.to.on_ack(Ack(sender=member, view_id=self.to.view.view_id, highwater=highwater))


class TestSequencing:
    def test_sequencer_is_min_member(self):
        assert Harness(me="S1").to.sequencer == "S1"

    def test_sequencer_assigns_and_multicasts(self):
        h = Harness(me="S1")
        h.to.on_data(Data(sender="S2", msg_id=0, view_id=h.to.view.view_id, payload="x"))
        ordered = [msg for _, msg in h.sent if isinstance(msg, Ordered)]
        assert len(ordered) == 2  # to S2 and S3; self handled locally
        assert ordered[0].seq == 0 and ordered[0].gseq == 0

    def test_sequencer_dedupes_retransmitted_data(self):
        h = Harness(me="S1")
        data = Data(sender="S2", msg_id=0, view_id=h.to.view.view_id, payload="x")
        h.to.on_data(data)
        before = len(h.sent)
        h.to.on_data(data)
        assert len(h.sent) == before

    def test_non_sequencer_ignores_data(self):
        h = Harness(me="S2")
        h.to.on_data(Data(sender="S3", msg_id=0, view_id=h.to.view.view_id, payload="x"))
        assert h.sent == []

    def test_gseq_uses_base(self):
        h = Harness(me="S1", base_gseq=100)
        h.to.on_data(Data(sender="S2", msg_id=0, view_id=h.to.view.view_id, payload="x"))
        ordered = next(m for _, m in h.sent if isinstance(m, Ordered))
        assert ordered.gseq == 100

    def test_nak_retransmits_from_history(self):
        h = Harness(me="S1")
        h.to.on_data(Data(sender="S2", msg_id=0, view_id=h.to.view.view_id, payload="x"))
        h.sent.clear()
        h.to.on_nak(Nak(sender="S3", view_id=h.to.view.view_id, missing=(0,)))
        assert any(isinstance(m, Ordered) and m.seq == 0 for dst, m in h.sent if dst == "S3")


class TestUniformDelivery:
    def test_not_delivered_until_all_ack(self):
        h = Harness(me="S2")
        h.to.on_ordered(h.ordered(0))
        assert h.delivered == []  # only our own ack so far
        h.ack_from_all(0)
        assert [m.seq for m in h.delivered] == [0]

    def test_in_order_delivery_with_gap(self):
        h = Harness(me="S2")
        h.to.on_ordered(h.ordered(1))
        h.ack_from_all(1)
        assert h.delivered == []  # seq 0 missing
        h.to.on_ordered(h.ordered(0))
        h.ack_from_all(1)
        assert [m.seq for m in h.delivered] == [0, 1]

    def test_ack_broadcast_on_highwater_advance(self):
        h = Harness(me="S2")
        h.to.on_ordered(h.ordered(0))
        acks = [m for _, m in h.sent if isinstance(m, Ack)]
        assert acks and acks[-1].highwater == 0

    def test_duplicate_ordered_ignored(self):
        h = Harness(me="S2")
        h.to.on_ordered(h.ordered(0))
        count = len(h.sent)
        h.to.on_ordered(h.ordered(0))
        assert len(h.sent) == count

    def test_wrong_view_ordered_ignored(self):
        h = Harness(me="S2")
        bad = Ordered(ViewId(9, "S9"), 0, 0, "S2", 0, "x")
        h.to.on_ordered(bad)
        assert h.to.received == {}

    def test_ack_from_non_member_ignored(self):
        h = Harness(me="S2")
        h.to.on_ack(Ack(sender="S9", view_id=h.to.view.view_id, highwater=5))
        assert "S9" not in h.to.ack_high

    def test_non_uniform_delivers_on_receipt(self):
        h = Harness(me="S2", uniform=False)
        h.to.on_ordered(h.ordered(0))
        assert [m.seq for m in h.delivered] == [0]

    def test_quorum_delivers_on_the_quorum_th_highest_ack(self):
        h = Harness(me="S2", members=("S1", "S2", "S3", "S4", "S5"), quorum=3)
        h.to.on_ordered(h.ordered(0))
        h.to.on_ordered(h.ordered(1))
        h.to.on_ack(Ack(sender="S1", view_id=h.to.view.view_id, highwater=1))
        assert [m.seq for m in h.delivered] == []  # S1 and S2 hold 1: two acks
        h.to.on_ack(Ack(sender="S4", view_id=h.to.view.view_id, highwater=0))
        assert [m.seq for m in h.delivered] == [0]  # 0 is held by three
        assert h.to.stable_seq == 0
        h.to.on_ack(Ack(sender="S5", view_id=h.to.view.view_id, highwater=1))
        assert [m.seq for m in h.delivered] == [0, 1]

    def test_quorum_flush_cut_reaches_below_the_delivered_prefix(self):
        """A survivor may lack what this member delivered on a quorum it
        was not part of, so the cut starts at the all-ack horizon."""
        h = Harness(me="S2", quorum=2)
        h.to.on_ordered(h.ordered(0))
        h.to.on_ack(Ack(sender="S1", view_id=h.to.view.view_id, highwater=0))
        assert [m.seq for m in h.delivered] == [0]
        assert [m.seq for m in h.to.flush_cut()] == [0]


class TestAckSolicitation:
    def test_a_member_stuck_a_whole_period_solicits_the_members_below(self):
        h = Harness(me="S2")
        h.to.on_ordered(h.ordered(0))
        h.to.on_ack(Ack(sender="S1", view_id=h.to.view.view_id, highwater=0))
        h.to.maintenance()  # first period on this horizon: re-ack only
        assert not [m for _, m in h.sent if isinstance(m, AckSolicit)]
        h.to.maintenance()
        assert [dst for dst, m in h.sent if isinstance(m, AckSolicit)] == ["S3"]

    def test_solicit_is_answered_with_the_cumulative_ack(self):
        h = Harness(me="S3")
        h.to.on_ordered(h.ordered(0))
        h.sent.clear()
        h.to.on_ack_solicit(AckSolicit(sender="S2", view_id=h.to.view.view_id))
        assert h.sent == [("S2", Ack(sender="S3", view_id=h.to.view.view_id,
                                     highwater=0))]


class TestFlushSupport:
    def test_gaps_reported(self):
        h = Harness(me="S2")
        h.to.on_ordered(h.ordered(0))
        h.to.on_ordered(h.ordered(2))
        h.to.on_ordered(h.ordered(5))
        assert h.to.gaps() == (1, 3, 4)

    def test_maintenance_naks_gaps(self):
        h = Harness(me="S2")
        h.to.on_ordered(h.ordered(2))
        h.sent.clear()
        h.to.maintenance()
        naks = [m for dst, m in h.sent if isinstance(m, Nak) and dst == "S1"]
        assert naks and naks[0].missing == (0, 1)

    def test_flush_cut_excludes_delivered(self):
        h = Harness(me="S2")
        h.to.on_ordered(h.ordered(0))
        h.ack_from_all(0)
        h.to.on_ordered(h.ordered(1))
        cut = h.to.flush_cut()
        assert [m.seq for m in cut] == [1]

    def test_deliver_sync_delivers_gap_free_prefix(self):
        h = Harness(me="S2")
        h.to.on_ordered(h.ordered(0))
        h.ack_from_all(0)
        union = (h.ordered(1), h.ordered(3))  # 2 missing everywhere
        h.to.deliver_sync(union)
        assert [m.seq for m in h.delivered] == [0, 1]
        assert h.to.closed

    def test_deliver_sync_ignores_own_unstable_buffer(self):
        """A message only this member holds must not be delivered by the
        flush unless the (possibly truncated) union contains it."""
        h = Harness(me="S2")
        h.to.on_ordered(h.ordered(0))
        h.to.deliver_sync(())
        assert h.delivered == []

    def test_stable_seq_property(self):
        h = Harness(me="S2")
        assert h.to.stable_seq == -1
        h.to.on_ordered(h.ordered(0))
        h.ack_from_all(0)
        assert h.to.stable_seq == 0

    def test_next_gseq_tracks_deliveries(self):
        h = Harness(me="S2", base_gseq=10)
        assert h.to.next_gseq == 10
        h.to.on_ordered(h.ordered(0))
        h.ack_from_all(0)
        assert h.to.next_gseq == 11

    def test_closed_blocks_normal_delivery(self):
        h = Harness(me="S2")
        h.to.closed = True
        h.to.on_ordered(h.ordered(0))
        h.ack_from_all(0)
        assert h.delivered == []


class TestBufferTrim:
    """``received`` and the sequencer's history keep only what some
    member may still lack; maintenance trims the rest."""

    def test_received_keeps_what_the_flush_cut_may_still_need(self):
        h = Harness(me="S2", quorum=2)
        for seq in range(4):
            h.to.on_ordered(h.ordered(seq))
        h.to.on_ack(Ack(sender="S1", view_id=h.to.view.view_id, highwater=3))
        h.to.on_ack(Ack(sender="S3", view_id=h.to.view.view_id, highwater=1))
        assert [m.seq for m in h.delivered] == [0, 1, 2, 3]
        cut = h.to.flush_cut()
        h.to.maintenance()
        assert sorted(h.to.received) == [2, 3]  # S3 may lack 2 and 3
        assert h.to.flush_cut() == cut

    def test_a_duplicate_below_the_highwater_is_not_re_inserted(self):
        h = Harness(me="S2")
        h.to.on_ordered(h.ordered(0))
        h.ack_from_all(0)
        h.to.maintenance()
        assert h.to.received == {}
        count = len(h.sent)
        h.to.on_ordered(h.ordered(0))
        assert h.to.received == {} and len(h.sent) == count
        assert [m.seq for m in h.delivered] == [0]

    def test_sequencer_history_keeps_what_the_lowest_ack_lacks(self):
        h = Harness(me="S1")
        for msg_id in range(3):
            h.to.on_data(Data(sender="S2", msg_id=msg_id,
                              view_id=h.to.view.view_id, payload=msg_id))
        h.to.on_ack(Ack(sender="S2", view_id=h.to.view.view_id, highwater=2))
        h.to.on_ack(Ack(sender="S3", view_id=h.to.view.view_id, highwater=0))
        h.to.maintenance()
        assert sorted(h.to._history) == [1, 2]
        h.sent.clear()
        h.to.on_nak(Nak(sender="S3", view_id=h.to.view.view_id, missing=(1,)))
        assert [m.seq for _, m in h.sent] == [1]
