"""Unit tests for the observability layer (repro.obs)."""

import json

import pytest

from repro.obs import (
    RunData,
    chrome_trace,
    extract_epochs,
    load_jsonl,
    prometheus_text,
    render_summary,
    spans_of,
    write_jsonl,
)
from repro.tracing import TraceEvent


def event(time, site, category, kind, **data):
    return TraceEvent(time, site, category, kind, data=data or None)


def crash_recovery(site="S3"):
    """A crash -> active trace of one site, served by S1."""
    return [
        event(1.0, site, "status", "down"),
        event(1.5, site, "status", "stalled"),
        event(1.6, site, "view", "install"),
        event(1.6, site, "status", "recovering"),
        event(1.6, "S1", "transfer", "start", joiner=site, sync=10),
        event(1.7, site, "transfer", "accept", peer="S1", bytes_received=0),
        event(2.1, site, "transfer", "complete", baseline=10,
              bytes_received=640),
        event(2.1, site, "replay", "start"),
        event(2.3, site, "replay", "caught_up", replayed=4),
        event(2.4, site, "status", "active"),
    ]


def children(spans, root):
    return [s for s in spans if s.parent_id == root.span_id]


class TestSpansOf:
    def test_transaction_lifecycle(self):
        spans = spans_of([
            event(1.0, "S1", "txn", "submit", txn="S1#0"),
            event(1.1, "S1", "txn", "deliver", txn="S1#0", gid=3),
            event(1.1, "S2", "txn", "deliver", txn="S1#0", gid=3),
            event(1.2, "S1", "txn", "commit", txn="S1#0", gid=3),
            event(1.3, "S2", "txn", "commit", txn="S1#0", gid=3),
            event(1.2, "S1", "txn", "done", txn="S1#0", state="committed"),
        ])
        roots = [s for s in spans if s.category == "txn"]
        assert len(roots) == 1
        root = roots[0]
        assert root.start == 1.0 and root.end == 1.2
        assert root.attrs["outcome"] == "committed"
        assert root.attrs["gid"] == 3
        applies = children(spans, root)
        assert sorted(s.site for s in applies) == ["S1", "S2"]
        assert [s.end for s in applies] == [1.2, 1.3]
        assert not any("open_at_end" in s.attrs for s in spans)

    def test_late_replay_apply_is_a_point_span_of_the_finished_root(self):
        spans = spans_of([
            event(1.0, "S1", "txn", "submit", txn="S1#0"),
            event(1.2, "S1", "txn", "done", txn="S1#0", state="committed"),
            # S3 replays the transaction after the origin finished it.
            event(5.0, "S3", "txn", "commit", txn="S1#0", gid=3),
        ])
        roots = [s for s in spans if s.category == "txn"]
        assert len(roots) == 1  # no duplicate root
        [replayed] = children(spans, roots[0])
        assert replayed.name == "apply(replay)" and replayed.site == "S3"
        assert replayed.start == replayed.end == 5.0
        assert roots[0].attrs["gid"] == 3

    def test_replay_without_submit_opens_the_root_at_its_origin(self):
        spans = spans_of([event(5.0, "S3", "txn", "commit", txn="S1#4",
                                gid=9)])
        [root] = [s for s in spans if s.category == "txn"]
        assert root.site == "S1" and root.attrs["gid"] == 9

    def test_recovery_is_its_epoch_with_serve_transfer_and_replay(self):
        events = crash_recovery()
        spans = spans_of(events)
        [epoch] = extract_epochs(events)
        [root] = [s for s in spans if s.category == "reconfig"]
        assert (root.site, root.start, root.end) == ("S3", 1.0, 2.4)
        assert root.duration == epoch.duration
        assert root.attrs == {"trigger": "crash", "bytes_received": 640,
                              "retransmissions": 0, "failovers": 0,
                              "replayed": 4}
        phases = {s.name: s for s in children(spans, root)
                  if s.category == "phase"}
        assert list(phases) == ["down", "membership", "transfer_wait",
                                "transfer", "replay", "drain"]
        assert phases["transfer"].duration == pytest.approx(0.4)
        assert phases["replay"].duration == pytest.approx(0.2)
        # The serving peer's span lives on its own timeline but is
        # parented cross-site to the joiner's recovery.
        [serve] = [s for s in spans if s.category == "serve"]
        assert serve.name == "serve S3" and serve.site == "S1"
        assert serve.parent_id == root.span_id
        assert (serve.start, serve.end) == (1.6, 2.1)
        assert serve.attrs == {"joiner": "S3", "sync": 10}

    def test_empty_phases_get_no_span(self):
        events = [e for e in crash_recovery()
                  if e.category not in ("transfer", "replay")]
        spans = spans_of(events)
        assert [s.name for s in spans if s.category == "phase"] == [
            "down", "membership", "drain"]

    def test_peer_start_before_joiner_status_still_parents(self):
        spans = spans_of([
            # Same view change: the peer installs it, and starts serving,
            # a link delay before the joiner opens its join epoch.
            event(1.999, "S1", "transfer", "start", joiner="S3", sync=10),
            event(2.0, "S3", "status", "recovering"),
            event(2.5, "S3", "status", "active"),
        ])
        [root] = [s for s in spans if s.category == "reconfig"]
        assert root.attrs["trigger"] == "join"
        [serve] = [s for s in spans if s.category == "serve"]
        assert serve.parent_id == root.span_id

    def test_serve_outside_every_epoch_has_no_parent(self):
        spans = spans_of([
            event(1.0, "S1", "transfer", "start", joiner="S2", sync=6),
            event(1.1, "S1", "transfer", "cancel", joiner="S2"),
            event(2.0, "S2", "status", "recovering"),
            event(2.5, "S2", "status", "active"),
        ])
        [serve] = [s for s in spans if s.category == "serve"]
        assert serve.parent_id is None and serve.attrs["cancelled"]

    def test_fail_over_cancels_one_serve_and_counts_on_the_root(self):
        spans = spans_of([
            event(2.0, "S3", "status", "recovering"),
            event(2.0, "S1", "transfer", "start", joiner="S3", sync=10),
            event(2.1, "S3", "transfer", "accept", peer="S1"),
            event(2.4, "S1", "transfer", "cancel", joiner="S3"),
            event(2.4, "S2", "transfer", "start", joiner="S3", sync=12),
            event(2.4, "S3", "transfer", "accept", peer="S2"),
            event(2.8, "S3", "transfer", "complete", baseline=12),
            event(2.9, "S3", "status", "active"),
        ])
        [root] = [s for s in spans if s.category == "reconfig"]
        assert root.attrs["failovers"] == 1
        serves = {s.site: s for s in spans if s.category == "serve"}
        assert serves["S1"].end == 2.4 and serves["S1"].attrs["cancelled"]
        assert serves["S2"].end == 2.8 and "cancelled" not in serves["S2"].attrs
        assert all(s.parent_id == root.span_id for s in serves.values())

    def test_crash_mid_recovery_abandons(self):
        spans = spans_of([
            event(2.0, "S3", "status", "recovering"),
            event(2.1, "S3", "transfer", "accept", peer="S1"),
            event(2.2, "S3", "status", "down"),
            event(3.0, "S3", "status", "stalled"),
        ], end_time=4.0)
        first, second = [s for s in spans if s.category == "reconfig"]
        assert first.end == 2.2 and first.attrs["abandoned"] is True
        assert second.end == 4.0 and second.attrs["open_at_end"] is True

    def test_open_spans_close_at_end_time(self):
        """A span the run has not ended yet is closed at ``end_time`` and
        marked; a longer slice of the same trace shows its real end."""
        events = [event(1.0, "S1", "txn", "submit", txn="S1#0"),
                  event(1.0, "S3", "status", "down")]
        spans = spans_of(events, end_time=9.0)
        roots = [s for s in spans if s.parent_id is None]
        assert [s.category for s in roots] == ["reconfig", "txn"]
        assert all(s.end == 9.0 and s.attrs["open_at_end"] for s in roots)
        events += [event(12.0, "S1", "txn", "done", txn="S1#0",
                         state="committed"),
                   event(12.0, "S3", "status", "recovering"),
                   event(13.0, "S3", "status", "active")]
        closed = spans_of(events, end_time=20.0)
        assert [s.end for s in closed if s.parent_id is None] == [13.0, 12.0]
        assert not any("open_at_end" in s.attrs for s in closed)

    def test_events_without_data_are_ignored(self):
        assert spans_of([TraceEvent(1.0, "S1", "txn", "submit"),
                         TraceEvent(1.0, "S1", "view", "install")]) == []


def make_run():
    events = [
        event(1.0, "S1", "txn", "submit", txn="S1#0"),
        event(1.1, "S1", "txn", "deliver", txn="S1#0", gid=0),
        event(1.2, "S1", "txn", "commit", txn="S1#0", gid=0),
        event(1.2, "S1", "txn", "done", txn="S1#0", state="committed"),
        TraceEvent(2.0, "S2", "status", "recovering", "was down"),
        TraceEvent(2.5, "S2", "status", "active"),
    ]
    return RunData(
        meta={"name": "unit run", "virtual_time": 3.0, "sites": ["S1", "S2"]},
        events=events,
        metrics={"counters": {"net.messages": 12, "locks.wait_time_total": 0.5}},
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
        assert loaded.spans == run.spans
        assert loaded.metrics == run.metrics
        records = [json.loads(line)["type"] for line in path.open()]
        assert "span" not in records

    def test_load_skips_span_records_of_older_files(self, tmp_path):
        run = make_run()
        path = tmp_path / "run.jsonl"
        write_jsonl(run, str(path))
        lines = path.read_text().splitlines()
        old_span = {"type": "span", "span_id": 0, "name": "recovery",
                    "category": "reconfig", "site": "S2", "start": 2.0,
                    "end": 2.5, "parent_id": None, "attrs": {}}
        lines.insert(-1, json.dumps(old_span))
        path.write_text("\n".join(lines) + "\n")
        assert load_jsonl(str(path)).spans == run.spans

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
        assert text == ("# TYPE repro_locks_wait_time_total counter\n"
                        "repro_locks_wait_time_total 0.5\n"
                        "# TYPE repro_net_messages counter\n"
                        "repro_net_messages 12\n")

    def test_render_summary(self):
        run = make_run()
        summary = render_summary(run)
        assert "unit run" in summary
        assert "net.messages" in summary
        assert "apply (deliver -> commit/abort)" in summary
        assert "recovery" not in summary.split("per-site timeline")[0]
        assert "1 transaction, 1 reconfiguration" in summary
        # S2's per-site recovery time is its epoch's duration.
        row = next(line for line in summary.splitlines()
                   if line.startswith("  S2 "))
        assert row.split()[-2:] == ["1", "0.5000"]

    def test_render_summary_without_a_bin_width_skips_the_timeline(self):
        sample = TraceEvent(1.0, "--", "endurance", "availability_sample",
                            data={"t": 1.0, "commits": 3,
                                  "maintenance": False})
        run = RunData(meta={"virtual_time": 1.0}, events=[sample])
        assert "availability timeline" not in render_summary(run)


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

    @pytest.mark.parametrize("backend", ("vs", "evs", "logless"))
    def test_campaign_payload_carries_every_key(self, backend):
        """A campaign's metrics are the collector's keys plus the load
        driver's, so every reader can index a canonical key."""
        from repro.faults.campaign import run_cell
        from repro.obs import metric_key_set

        _engine, payload = run_cell("chaos", seed=1, mode=backend,
                                    duration=0.5, clients=2)
        metrics = payload["metrics"]
        assert set(metric_key_set()) <= set(metrics), backend
        assert metrics["client.sessions"] == 2
        assert metrics["txn.commits"] > 0

    def test_missing_backend_counters_read_zero(self):
        from repro.obs import collect_cluster_metrics

        # A VS cluster has no EVS merge or logless consensus counters;
        # they must still be present, as zeros.
        metrics = collect_cluster_metrics(self.build("vs"))
        assert metrics["reconfig.svs_merges"] == 0
        assert metrics["reconfig.config_proposals"] == 0
        assert metrics["reconfig.config_conflicts"] == 0
