"""Tests for the tracing subsystem."""

import pytest

from repro.tracing import TraceEvent, Tracer, attach_tracer
from repro.replication.node import SiteStatus
from tests.conftest import quick_cluster


class TestTracer:
    def test_emit_and_query(self):
        now = {"t": 1.0}
        tracer = Tracer(clock=lambda: now["t"])
        tracer.emit("S1", "view", "install", "v1")
        now["t"] = 2.0
        tracer.emit("S2", "status", "active")
        assert len(tracer.events) == 2
        assert tracer.of("view") == [TraceEvent(1.0, "S1", "view", "install", "v1")]
        assert tracer.of(site="S2")[0].kind == "active"
        assert tracer.kinds("status") == ["active"]

    def test_between(self):
        now = {"t": 0.0}
        tracer = Tracer(clock=lambda: now["t"])
        for t in (0.5, 1.5, 2.5):
            now["t"] = t
            tracer.emit("S1", "txn", f"at{t}")
        assert [e.kind for e in tracer.between(1.0, 2.0)] == ["at1.5"]

    def test_disabled_tracer_collects_nothing(self):
        tracer = Tracer(clock=lambda: 0.0)
        tracer.enabled = False
        tracer.emit("S1", "view", "install")
        assert tracer.events == []

    def test_assert_order_passes(self):
        tracer = Tracer(clock=lambda: 0.0)
        tracer.emit("S1", "transfer", "start")
        tracer.emit("S1", "transfer", "complete")
        tracer.assert_order(("transfer", "start"), ("transfer", "complete"))

    def test_assert_order_fails(self):
        tracer = Tracer(clock=lambda: 0.0)
        tracer.emit("S1", "transfer", "complete")
        with pytest.raises(AssertionError):
            tracer.assert_order(("transfer", "start"), ("transfer", "complete"))

    def test_assert_order_failure_message_names_the_missing_event(self):
        tracer = Tracer(clock=lambda: 0.0)
        tracer.emit("S1", "transfer", "complete")
        with pytest.raises(AssertionError) as excinfo:
            tracer.assert_order(("transfer", "start"), ("transfer", "complete"))
        message = str(excinfo.value)
        # Names the expectation that was not met...
        assert "('transfer', 'start')" in message
        # ...and dumps what actually happened, for debugging.
        assert "('transfer', 'complete')" in message

    def test_assert_order_consumes_events(self):
        # Each expectation must match strictly *after* the previous one:
        # a single event cannot satisfy the same pair twice.
        tracer = Tracer(clock=lambda: 0.0)
        tracer.emit("S1", "transfer", "start")
        tracer.emit("S1", "transfer", "complete")
        with pytest.raises(AssertionError):
            tracer.assert_order(
                ("transfer", "complete"), ("transfer", "start"))

    def test_between_boundaries_are_half_open(self):
        now = {"t": 0.0}
        tracer = Tracer(clock=lambda: now["t"])
        for t in (1.0, 1.5, 2.0):
            now["t"] = t
            tracer.emit("S1", "txn", f"at{t}")
        # [start, end): the event at exactly start is included, the one
        # at exactly end is not.
        assert [e.kind for e in tracer.between(1.0, 2.0)] == ["at1.0", "at1.5"]
        assert [e.kind for e in tracer.between(2.0, 3.0)] == ["at2.0"]
        assert tracer.between(2.5, 2.5) == []

    def test_of_filters_by_kind(self):
        tracer = Tracer(clock=lambda: 0.0)
        tracer.emit("S1", "status", "recovering")
        tracer.emit("S1", "status", "active")
        tracer.emit("S2", "status", "active")
        assert len(tracer.of("status", kind="active")) == 2
        assert len(tracer.of("status", site="S1", kind="active")) == 1
        assert tracer.of("status", kind="down") == []

    def test_kinds_filters_by_site(self):
        tracer = Tracer(clock=lambda: 0.0)
        tracer.emit("S1", "status", "recovering")
        tracer.emit("S2", "status", "active")
        assert tracer.kinds("status") == ["recovering", "active"]
        assert tracer.kinds("status", site="S2") == ["active"]
        assert tracer.kinds("transfer") == []

    def test_listeners_see_events_as_emitted(self):
        tracer = Tracer(clock=lambda: 0.0)
        seen = []
        tracer.add_listener(seen.append)
        tracer.emit("S1", "txn", "submit", data={"txn": "S1#0"})
        assert len(seen) == 1
        assert seen[0].data == {"txn": "S1#0"}
        tracer.enabled = False
        tracer.emit("S1", "txn", "submit")
        assert len(seen) == 1  # disabled tracer notifies nobody

    def test_timeline_renders(self):
        tracer = Tracer(clock=lambda: 1.25)
        tracer.emit("S1", "view", "install", "v")
        assert "S1" in tracer.timeline()
        assert tracer.timeline(limit=1).count("\n") == 0


class TestAttachedTracer:
    def test_recovery_produces_expected_sequence(self):
        cluster = quick_cluster(db_size=30)
        tracer = attach_tracer(cluster)
        cluster.crash("S3")
        cluster.submit_via("S1", [], {"obj0": 1})
        cluster.settle(0.3)
        cluster.recover("S3")
        assert cluster.await_condition(
            lambda: cluster.nodes["S3"].status is SiteStatus.ACTIVE, timeout=30
        )
        cluster.settle(0.3)
        tracer.assert_order(
            ("transfer", "start"),
            ("transfer", "complete"),
            ("status", "active"),
        )
        assert any(e.site == "S3" and e.kind == "recovering"
                   for e in tracer.of("status"))
        # assert_order is site-blind; the joiner's own events, in causal
        # order: the completed transfer triggers the replay, not vice versa.
        joiner = [(e.category, e.kind) for e in tracer.of(site="S3")]
        joiner = joiner[joiner.index(("transfer", "accept")):]
        assert joiner == [
            ("transfer", "accept"),
            ("transfer", "complete"),
            ("replay", "start"),
            ("replay", "caught_up"),
            ("status", "active"),
        ]

    def test_evs_run_traces_merges(self):
        cluster = quick_cluster(mode="evs", n_sites=5, db_size=30)
        tracer = attach_tracer(cluster)
        cluster.crash("S5")
        cluster.run_for(0.5)
        cluster.recover("S5")
        assert cluster.await_all_active(timeout=30)
        kinds = tracer.kinds("eview")
        assert "subview_set_merge" in kinds and "subview_merge" in kinds

    def test_creation_traced(self):
        cluster = quick_cluster(db_size=20)
        tracer = attach_tracer(cluster)
        for site in cluster.universe:
            cluster.crash(site)
        cluster.run_for(0.3)
        for site in cluster.universe:
            cluster.recover(site)
        assert cluster.await_all_active(timeout=30)
        assert tracer.of("creation")

    def test_every_creation_round_is_traced(self):
        """A creation round is per view: a re-round in the next view sends
        a fresh report, and the trace says so (same view: no new round)."""
        from repro.gcs.view import View, ViewId

        cluster = quick_cluster(db_size=20)
        tracer = attach_tracer(cluster)
        manager = cluster.nodes["S1"].reconfig
        view = cluster.nodes["S1"].member.view
        later = View(ViewId(view.view_id.epoch + 1, "S1"), view.members)
        for round_view in (view, view, later):
            manager.check_creation(round_view)
        assert len(tracer.of("creation", site="S1", kind="report")) == 2
