"""Unit tests for the observability layer (repro.obs)."""

import json

import pytest

from repro.obs import (
    COUNT_BUCKETS,
    Histogram,
    MetricsRegistry,
    RunData,
    Span,
    SpanTracker,
    TIME_BUCKETS,
    chrome_trace,
    load_jsonl,
    prometheus_text,
    render_summary,
    write_jsonl,
)
from repro.tracing import TraceEvent


class TestMetricsRegistry:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        counter = registry.counter("net.messages", "help text")
        counter.inc()
        counter.inc(4)
        gauge = registry.gauge("queue.depth")
        gauge.set(7)
        gauge.dec(2)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["net.messages"] == 5
        assert snapshot["gauges"]["queue.depth"] == 5

    def test_instruments_are_idempotent_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")
        registry.counter("a").inc()
        assert registry.snapshot()["counters"]["a"] == 1

    def test_histogram_buckets(self):
        histogram = Histogram("sizes", bounds=(10, 100))
        for value in (5, 10, 50, 1000):
            histogram.observe(value)
        data = histogram.to_dict()
        assert data["count"] == 4
        assert data["sum"] == 1065
        # Per-bucket (non-cumulative): <=10 gets 5 and 10, <=100 gets 50,
        # +Inf gets 1000.
        assert data["buckets"]["10"] == 2
        assert data["buckets"]["100"] == 1
        assert data["buckets"]["+Inf"] == 1
        assert histogram.mean == pytest.approx(1065 / 4)

    def test_collectors_merge_into_counters(self):
        registry = MetricsRegistry()
        registry.add_collector(lambda: {"pull.value": 42})
        registry.counter("push.value").inc(3)
        counters = registry.snapshot()["counters"]
        assert counters == {"push.value": 3, "pull.value": 42}

    def test_bucket_presets_are_sorted(self):
        assert list(COUNT_BUCKETS) == sorted(COUNT_BUCKETS)
        assert list(TIME_BUCKETS) == sorted(TIME_BUCKETS)


def event(time, site, category, kind, **data):
    return TraceEvent(time, site, category, kind, data=data or None)


class TestSpanTracker:
    def test_transaction_lifecycle(self):
        tracker = SpanTracker()
        tracker.on_trace_event(event(1.0, "S1", "txn", "submit", txn="S1#0"))
        tracker.on_trace_event(event(1.1, "S1", "txn", "deliver", txn="S1#0", gid=3))
        tracker.on_trace_event(event(1.1, "S2", "txn", "deliver", txn="S1#0", gid=3))
        tracker.on_trace_event(event(1.2, "S1", "txn", "commit", txn="S1#0", gid=3))
        tracker.on_trace_event(event(1.3, "S2", "txn", "commit", txn="S1#0", gid=3))
        tracker.on_trace_event(event(1.2, "S1", "txn", "done", txn="S1#0",
                                     state="committed"))
        roots = tracker.of("txn")
        assert len(roots) == 1
        root = roots[0]
        assert root.start == 1.0 and root.end == 1.2
        assert root.attrs["outcome"] == "committed"
        assert root.attrs["gid"] == 3
        applies = tracker.children_of(root)
        assert sorted(s.site for s in applies) == ["S1", "S2"]
        assert all(s.end is not None for s in applies)

    def test_late_replay_apply_attaches_to_finished_root(self):
        tracker = SpanTracker()
        tracker.on_trace_event(event(1.0, "S1", "txn", "submit", txn="S1#0"))
        tracker.on_trace_event(event(1.2, "S1", "txn", "done", txn="S1#0",
                                     state="committed"))
        # S3 replays the transaction after the origin finished it.
        tracker.on_trace_event(event(5.0, "S3", "txn", "commit", txn="S1#0", gid=3))
        roots = tracker.of("txn")
        assert len(roots) == 1  # no duplicate root
        replayed = tracker.children_of(roots[0])
        assert len(replayed) == 1
        assert replayed[0].name == "apply(replay)"
        assert replayed[0].end == 5.0

    def test_recovery_with_phases(self):
        tracker = SpanTracker()
        tracker.on_trace_event(event(2.0, "S3", "status", "recovering"))
        tracker.on_trace_event(event(2.0, "S1", "transfer", "start",
                                     joiner="S3", sync=10))
        tracker.on_trace_event(event(2.1, "S3", "transfer", "accept", peer="S1"))
        tracker.on_trace_event(event(2.5, "S3", "transfer", "complete", baseline=10))
        tracker.on_trace_event(event(2.5, "S3", "replay", "start"))
        tracker.on_trace_event(event(2.7, "S3", "replay", "caught_up"))
        tracker.on_trace_event(event(2.8, "S3", "status", "active"))
        roots = tracker.of("reconfig")
        assert len(roots) == 1
        root = roots[0]
        assert root.site == "S3" and root.start == 2.0 and root.end == 2.8
        children = {s.name: s for s in tracker.children_of(root)}
        assert set(children) == {"serve S3", "state_transfer", "replay"}
        # The serving peer's span lives on its own timeline but is
        # parented cross-site to the joiner's recovery.
        assert children["serve S3"].site == "S1"
        assert children["serve S3"].end == 2.5
        assert children["state_transfer"].attrs["peer"] == "S1"
        assert children["replay"].duration == pytest.approx(0.2)

    def test_peer_start_before_joiner_status_still_parents(self):
        tracker = SpanTracker()
        # Same view change: the peer's event can arrive first.
        tracker.on_trace_event(event(2.0, "S1", "transfer", "start",
                                     joiner="S3", sync=10))
        tracker.on_trace_event(event(2.0, "S3", "status", "recovering"))
        roots = tracker.of("reconfig")
        assert len(roots) == 1
        serve = [s for s in tracker.spans if s.name == "serve S3"]
        assert serve[0].parent_id == roots[0].span_id

    def test_superseded_transfer_session(self):
        tracker = SpanTracker()
        tracker.on_trace_event(event(2.0, "S3", "status", "recovering"))
        tracker.on_trace_event(event(2.1, "S3", "transfer", "accept", peer="S1"))
        tracker.on_trace_event(event(2.4, "S3", "transfer", "accept", peer="S2"))
        tracker.on_trace_event(event(2.8, "S3", "transfer", "complete", baseline=9))
        transfers = [s for s in tracker.spans if s.name == "state_transfer"]
        assert len(transfers) == 2
        superseded = [s for s in transfers if s.attrs.get("superseded")]
        assert len(superseded) == 1 and superseded[0].end == 2.4

    def test_crash_mid_recovery_abandons(self):
        tracker = SpanTracker()
        tracker.on_trace_event(event(2.0, "S3", "status", "recovering"))
        tracker.on_trace_event(event(2.1, "S3", "transfer", "accept", peer="S1"))
        tracker.on_trace_event(event(2.2, "S3", "status", "down"))
        root = tracker.of("reconfig")[0]
        assert root.end == 2.2 and root.attrs["abandoned"] is True

    def test_finalize_closes_open_spans(self):
        tracker = SpanTracker()
        tracker.on_trace_event(event(1.0, "S1", "txn", "submit", txn="S1#0"))
        tracker.finalize(9.0)
        span = tracker.spans[0]
        assert span.end == 9.0 and span.attrs["open_at_end"] is True

    def test_events_without_data_are_ignored(self):
        tracker = SpanTracker()
        tracker.on_trace_event(TraceEvent(1.0, "S1", "txn", "submit"))
        tracker.on_trace_event(TraceEvent(1.0, "S1", "view", "install"))
        assert tracker.spans == []


def make_run():
    tracker = SpanTracker()
    tracker.on_trace_event(event(1.0, "S1", "txn", "submit", txn="S1#0"))
    tracker.on_trace_event(event(1.1, "S1", "txn", "deliver", txn="S1#0", gid=0))
    tracker.on_trace_event(event(1.2, "S1", "txn", "commit", txn="S1#0", gid=0))
    tracker.on_trace_event(event(1.2, "S1", "txn", "done", txn="S1#0",
                                 state="committed"))
    tracker.on_trace_event(event(2.0, "S2", "status", "recovering"))
    tracker.on_trace_event(event(2.5, "S2", "status", "active"))
    events = [
        TraceEvent(1.0, "S1", "txn", "submit", data={"txn": "S1#0"}),
        TraceEvent(2.0, "S2", "status", "recovering", "was down"),
    ]
    registry = MetricsRegistry()
    registry.counter("net.messages").inc(12)
    registry.histogram("locks.wait_time", (0.001, 0.01)).observe(0.002)
    return RunData(
        meta={"name": "unit run", "virtual_time": 3.0, "sites": ["S1", "S2"]},
        events=events,
        spans=list(tracker.spans),
        metrics=registry.snapshot(),
    )


class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        run = make_run()
        path = tmp_path / "run.jsonl"
        write_jsonl(run, str(path))
        loaded = load_jsonl(str(path))
        assert loaded.meta == run.meta
        assert len(loaded.events) == len(run.events)
        assert loaded.events[0].data == {"txn": "S1#0"}
        assert [s.to_dict() for s in loaded.spans] == \
               [s.to_dict() for s in run.spans]
        assert loaded.metrics == run.metrics

    def test_chrome_trace_structure(self):
        run = make_run()
        trace = chrome_trace(run)
        payload = json.dumps(trace)  # must be valid JSON
        assert "traceEvents" in payload
        events = trace["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        # One thread_name metadata row per site.
        names = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
        assert {"S1", "S2"} <= names
        # Spans became complete events with microsecond timestamps.
        txn = [e for e in complete if e["name"].startswith("txn ")]
        assert txn and txn[0]["ts"] == 1_000_000 and txn[0]["dur"] == pytest.approx(200_000)
        assert instants, "raw trace events should appear as instants"

    def test_prometheus_text(self):
        run = make_run()
        text = prometheus_text(run.metrics)
        assert "# TYPE repro_net_messages counter" in text
        assert "repro_net_messages 12" in text
        # Cumulative buckets with le labels and +Inf.
        assert 'le="+Inf"' in text
        assert "repro_locks_wait_time_count 1" in text
        assert text.endswith("\n")

    def test_render_summary(self):
        run = make_run()
        summary = render_summary(run)
        assert "unit run" in summary
        assert "net.messages" in summary
        assert "recovery (view change -> active)" in summary
        assert "1 transaction, 1 reconfiguration" in summary

    def test_span_dict_round_trip(self):
        span = Span(3, "apply", "txn_apply", "S2", 1.0, end=1.5,
                    parent_id=1, attrs={"gid": 7})
        assert Span.from_dict(span.to_dict()) == span


class TestMetricKeyPadding:
    """Metric snapshots are padded to one fixed key set across backends
    so diff tables stay column-stable (missing counters read 0)."""

    def build(self, backend):
        from repro import ClusterBuilder

        cluster = ClusterBuilder(n_sites=3, db_size=20, seed=5,
                                 mode=backend).build()
        cluster.start()
        assert cluster.await_all_active(timeout=15)
        return cluster

    def test_same_key_set_across_backends(self):
        from repro.obs import collect_cluster_metrics, metric_key_set

        canonical = metric_key_set()
        for backend in ("vs", "evs", "logless"):
            metrics = collect_cluster_metrics(self.build(backend))
            assert set(metrics) == set(canonical), backend

    def test_missing_backend_counters_read_zero(self):
        from repro.obs import collect_cluster_metrics

        # A VS cluster has no EVS merge or logless consensus counters;
        # they must still be present, as zeros.
        metrics = collect_cluster_metrics(self.build("vs"))
        assert metrics["reconfig.svs_merges"] == 0
        assert metrics["reconfig.config_proposals"] == 0
        assert metrics["reconfig.config_conflicts"] == 0
