"""End-to-end tests for the observability layer on a live cluster."""

import json

from repro import ClusterBuilder, LoadGenerator, WorkloadConfig
from repro.obs import (attach_observability, chrome_trace,
                       collect_cluster_metrics, extract_epochs, load_jsonl,
                       run_data, write_jsonl)
from repro.replication.node import SiteStatus


def observed_recovery_run(seed=7, observe=True):
    """A crash + recovery under load; optionally with obs attached."""
    cluster = ClusterBuilder(n_sites=3, db_size=40, seed=seed,
                             strategy="rectable").build()
    tracer = attach_observability(cluster) if observe else None
    cluster.start()
    assert cluster.await_all_active(timeout=10)
    load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=80.0))
    load.start()
    cluster.run_for(0.3)
    cluster.crash("S3")
    cluster.run_for(0.5)
    cluster.recover("S3")
    assert cluster.await_condition(
        lambda: cluster.nodes["S3"].status is SiteStatus.ACTIVE, timeout=30)
    cluster.run_for(0.3)
    load.stop()
    cluster.settle(0.5)
    cluster.check()
    return cluster, tracer


def s3_recoveries(run):
    return [s for s in run.spans if s.category == "reconfig" and s.site == "S3"]


class TestObservedRecovery:
    def test_spans_cover_transactions_and_reconfiguration(self):
        cluster, tracer = observed_recovery_run()
        run = run_data(cluster, tracer, "integration run")

        txn_roots = [s for s in run.spans if s.category == "txn"]
        assert txn_roots, "no transaction spans recorded"
        finished = [s for s in txn_roots if not s.attrs.get("open_at_end")]
        assert finished, "every txn span was still open at end of run"
        assert all(s.end >= s.start for s in run.spans if s.end is not None)

        reconfig = [s for s in run.spans if s.category == "reconfig"]
        assert len(reconfig) == 1, "expected exactly one recovery span"
        root = reconfig[0]
        assert root.site == "S3" and root.attrs["trigger"] == "crash"
        phases = {s.name for s in run.spans
                  if s.category == "phase" and s.parent_id == root.span_id}
        assert {"down", "membership", "transfer", "replay"} <= phases
        # The serving peer's span is parented cross-site to the recovery.
        assert any(s.name == "serve S3" and s.site != "S3" for s in run.spans
                   if s.parent_id == root.span_id)

    def test_recovery_roots_are_the_epochs(self):
        """One recovery root per epoch, with its duration and counters,
        and the root's phase children tile it exactly."""
        cluster, tracer = observed_recovery_run()
        run = run_data(cluster, tracer)
        epochs = extract_epochs(run.events, end_time=cluster.sim.now)
        roots = [s for s in run.spans if s.category == "reconfig"]
        assert [(r.site, r.start, r.end) for r in roots] == [
            (e.site, e.start, e.end) for e in epochs]
        for root, epoch in zip(roots, epochs):
            assert root.attrs["bytes_received"] == epoch.bytes_received > 0
            assert root.attrs["replayed"] == epoch.replayed
            phases = [s for s in run.spans if s.category == "phase"
                      and s.parent_id == root.span_id]
            assert phases[0].start == root.start
            assert phases[-1].end == root.end
            assert all(a.end == b.start for a, b in zip(phases, phases[1:]))
            assert {p.name: p.duration for p in phases} == {
                name: seconds for name, seconds
                in epoch.phase_durations().items() if seconds > 0}

    def test_reloaded_run_has_the_live_spans(self, tmp_path):
        cluster, tracer = observed_recovery_run()
        path = str(tmp_path / "run.jsonl")
        live = run_data(cluster, tracer)
        write_jsonl(live, path)
        assert live.spans and load_jsonl(path).spans == live.spans

    def test_attach_registers_no_listener(self):
        cluster = ClusterBuilder(n_sites=3, db_size=10, seed=1).build()
        tracer = attach_observability(cluster)
        assert tracer is cluster.tracer and tracer._listeners == []

    def test_chrome_export_is_valid_and_metrics_flow(self, tmp_path):
        cluster, tracer = observed_recovery_run()
        run = run_data(cluster, tracer, "export run")
        trace = chrome_trace(run)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace))
        reloaded = json.loads(path.read_text())
        events = reloaded["traceEvents"]
        assert events
        assert all("ts" in e for e in events if e["ph"] != "M")

        assert run.metrics == {"counters": collect_cluster_metrics(cluster)}
        counters = run.metrics["counters"]
        assert counters["txn.commits"] > 0
        assert counters["xfer.transfers_completed"] >= 1

    def test_mid_run_export_leaves_live_spans_open(self):
        """An export while S3 is still recovering closes its recovery
        span at the export time; a later export of the same run shows
        where the recovery really ended."""
        cluster = ClusterBuilder(n_sites=3, db_size=1000, seed=3,
                                 strategy="full").build()
        tracer = attach_observability(cluster)
        cluster.start()
        assert cluster.await_all_active(timeout=10)
        load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=80.0))
        load.start()
        cluster.run_until(0.3)
        cluster.crash("S3")
        cluster.run_until(0.8)
        cluster.recover("S3")
        cluster.run_until(1.0)
        [early] = s3_recoveries(run_data(cluster, tracer))
        assert early.end == 1.0 and early.attrs["open_at_end"]
        cluster.run_until(1.5)
        assert cluster.nodes["S3"].status is SiteStatus.ACTIVE
        [final] = s3_recoveries(run_data(cluster, tracer))
        assert 1.0 < final.end <= 1.5
        assert "open_at_end" not in final.attrs

    def test_attach_is_idempotent(self):
        cluster, tracer = observed_recovery_run()
        assert attach_observability(cluster) is tracer

    def test_observation_does_not_change_outcomes(self):
        """Same seed, with and without obs => identical commit counts."""
        observed, _ = observed_recovery_run(seed=11, observe=True)
        bare, _ = observed_recovery_run(seed=11, observe=False)
        with_obs = collect_cluster_metrics(observed)
        without = collect_cluster_metrics(bare)
        for key in ("txn.commits", "txn.aborts", "txn.site_commits",
                    "net.messages_sent", "gcs.views_installed"):
            assert with_obs[key] == without[key], key
        assert with_obs["sim.virtual_time"] == without["sim.virtual_time"]
