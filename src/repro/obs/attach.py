"""Attach the observability layer to a cluster.

Metrics are pulled, never pushed: :func:`collect_cluster_metrics` reads
the plain integer counters every subsystem maintains anyway and returns
a flat dict.  It never touches a hot path, so the benchmark (``perf/``)
can take a snapshot per workload without perturbing the measurement,
and it needs nothing attached.

:func:`attach_observability` attaches the event side: the tracer, the
span tracker listening on it, and ``node.obs``, which switches on the
per-transaction ``txn`` events the spans are built from.  Reachable as
``cluster.attach_observability()`` / ``cluster.obs`` once attached.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.export import (
    RunData,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.obs.spans import SpanTracker
from repro.tracing import attach_tracer


#: Backend-specific reconfiguration counters, read with ``getattr(..., 0)``
#: so every backend reports the full set (absent counters as 0) and
#: diff metric tables stay column-stable across ``--backend``.
BACKEND_COUNTER_KEYS: Dict[str, str] = {
    "reconfig.svs_merges": "svs_merges_issued",          # EVS backend
    "reconfig.sv_merges": "sv_merges_issued",            # EVS backend
    "reconfig.config_proposals": "config_proposals_sent",  # logless backend
    "reconfig.config_changes": "config_changes_applied",   # logless backend
    "reconfig.config_conflicts": "config_conflicts",       # logless backend
}


def metric_key_set() -> tuple:
    """The canonical, backend-independent key set every snapshot from
    :func:`collect_cluster_metrics` contains — in emission order."""
    return _CANONICAL_METRIC_KEYS


def collect_cluster_metrics(cluster) -> Dict[str, float]:
    """Flat metric snapshot from a cluster's existing counters.

    Safe to call on any cluster at any time — requires no prior
    attachment and has no effect on the run.  The returned dict always
    contains the same keys regardless of the reconfiguration backend:
    counters a backend does not maintain are reported as 0.
    """
    network = cluster.network
    metrics: Dict[str, float] = {
        "sim.virtual_time": cluster.sim.now,
        "sim.events_processed": cluster.sim.events_processed,
        "net.messages_sent": sum(
            endpoint.messages_sent for endpoint in network._endpoints.values()
        ),
        "net.messages_delivered": network.messages_delivered,
        "net.messages_dropped": network.messages_dropped,
        "net.messages_duplicated": network.messages_duplicated,
        "net.messages_injector_dropped": network.messages_injector_dropped,
        "net.delivery_batches": network.delivery_batches,
        "net.messages_in_flight": network.messages_in_flight,
    }
    commits = {e.gid for e in cluster.history.events if e.kind == "commit"}
    aborts = {e.gid for e in cluster.history.events if e.kind == "abort"}
    metrics["txn.commits"] = len(commits)
    metrics["txn.aborts"] = len(aborts)

    lock_grants = lock_conflicts = lock_queue_peak = 0
    lock_wait_total = 0.0
    wal_records = wal_flushes = wal_torn = wal_corrupt = 0
    node_commits = node_local_aborts = 0
    dedup_suppressed = outcome_entries = 0
    to_batches = gcs_delivered = views = 0
    xfer = {
        "started": 0, "completed": 0, "objects_sent": 0, "bytes_sent": 0,
        "objects_received": 0, "bytes_received": 0, "retransmissions": 0,
        "stalls": 0, "failovers": 0, "solicits": 0, "replayed": 0,
        "announcements": 0,
    }
    backend_counters = {key: 0 for key in BACKEND_COUNTER_KEYS}
    for node in cluster.nodes.values():
        locks = node.db.locks
        lock_grants += locks.grants
        lock_conflicts += locks.conflicts
        lock_queue_peak = max(lock_queue_peak, locks.max_waiting)
        lock_wait_total += sum(locks.wait_times)
        storage = node.storage
        wal_records += storage.records_appended
        wal_flushes += storage.flushes
        wal_torn += storage.torn_records
        wal_corrupt += storage.corrupt_records
        node_commits += node.commits
        node_local_aborts += node.local_aborts
        dedup_suppressed += node.duplicates_suppressed
        outcome_entries = max(outcome_entries, len(node.db.outcomes))
        member = node.member
        views = max(views, len(member.views_installed))
        gcs_delivered += member.messages_delivered
        to_batches += member.to.batches_sent
        manager = node.reconfig
        if manager is not None:
            xfer["started"] += manager.transfers_started
            xfer["completed"] += manager.transfers_completed
            xfer["objects_sent"] += manager.objects_sent_total
            xfer["bytes_sent"] += manager.bytes_sent_total
            xfer["objects_received"] += manager.objects_received_total
            xfer["bytes_received"] += manager.bytes_received_total
            xfer["retransmissions"] += manager.transfer_retransmissions
            xfer["stalls"] += manager.transfer_stalls
            xfer["failovers"] += manager.transfer_failovers
            xfer["solicits"] += manager.solicits_sent
            xfer["replayed"] += manager.replayed_transactions
            xfer["announcements"] += manager.announcements_sent
            for key, attr in BACKEND_COUNTER_KEYS.items():
                backend_counters[key] += getattr(manager, attr, 0)
    metrics.update({
        "locks.grants": lock_grants,
        "locks.conflicts": lock_conflicts,
        "locks.queue_depth_peak": lock_queue_peak,
        "locks.wait_time_total": lock_wait_total,
        "wal.records_appended": wal_records,
        "wal.fsyncs": wal_flushes,
        "wal.torn_records": wal_torn,
        "wal.corrupt_records": wal_corrupt,
        "txn.site_commits": node_commits,
        "txn.local_aborts": node_local_aborts,
        "client.duplicates_suppressed": dedup_suppressed,
        "client.outcome_entries": outcome_entries,
        "gcs.views_installed": views,
        "gcs.messages_delivered": gcs_delivered,
        "to.batches_sent": to_batches,
        "xfer.transfers_started": xfer["started"],
        "xfer.transfers_completed": xfer["completed"],
        "xfer.objects_sent": xfer["objects_sent"],
        "xfer.bytes_sent": xfer["bytes_sent"],
        "xfer.objects_received": xfer["objects_received"],
        "xfer.bytes_received": xfer["bytes_received"],
        "xfer.retransmissions": xfer["retransmissions"],
        "xfer.stalls": xfer["stalls"],
        "xfer.failovers": xfer["failovers"],
        "xfer.solicits": xfer["solicits"],
        "xfer.replayed_transactions": xfer["replayed"],
        "xfer.announcements": xfer["announcements"],
    })
    metrics.update(backend_counters)
    for key in _CANONICAL_METRIC_KEYS:
        metrics.setdefault(key, 0)
    return metrics


#: Every key :func:`collect_cluster_metrics` emits, in order — the
#: column set diff tables can rely on for any backend.
_CANONICAL_METRIC_KEYS: tuple = (
    "sim.virtual_time", "sim.events_processed",
    "net.messages_sent", "net.messages_delivered", "net.messages_dropped",
    "net.messages_duplicated", "net.messages_injector_dropped",
    "net.delivery_batches", "net.messages_in_flight",
    "txn.commits", "txn.aborts",
    "locks.grants", "locks.conflicts", "locks.queue_depth_peak",
    "locks.wait_time_total",
    "wal.records_appended", "wal.fsyncs", "wal.torn_records",
    "wal.corrupt_records",
    "txn.site_commits", "txn.local_aborts",
    "client.duplicates_suppressed", "client.outcome_entries",
    "gcs.views_installed", "gcs.messages_delivered", "to.batches_sent",
    "xfer.transfers_started", "xfer.transfers_completed",
    "xfer.objects_sent", "xfer.bytes_sent",
    "xfer.objects_received", "xfer.bytes_received",
    "xfer.retransmissions", "xfer.stalls", "xfer.failovers",
    "xfer.solicits", "xfer.replayed_transactions", "xfer.announcements",
) + tuple(BACKEND_COUNTER_KEYS)


# ----------------------------------------------------------------------
# The handle
# ----------------------------------------------------------------------
class Observability:
    """Everything attached to one cluster: the tracer and the spans it
    feeds.  Metrics are read from the cluster on demand."""

    def __init__(self, cluster, spans: SpanTracker, tracer) -> None:
        self.cluster = cluster
        self.spans = spans
        self.tracer = tracer

    def snapshot(self) -> Dict[str, Any]:
        return {"counters": collect_cluster_metrics(self.cluster)}

    def run_data(self, name: str = "repro run",
                 meta: Optional[Dict[str, Any]] = None) -> RunData:
        """Snapshot the whole run; still-open spans are exported closed
        at now, and stay open in the tracker."""
        now = self.cluster.sim.now
        merged: Dict[str, Any] = {
            "name": name,
            "virtual_time": now,
            "sites": list(self.cluster.universe),
        }
        if meta:
            merged.update(meta)
        return RunData(
            meta=merged,
            events=list(self.tracer.events),
            spans=self.spans.finalize(now),
            metrics=self.snapshot(),
        )

    # Convenience exporters ---------------------------------------------
    def export_jsonl(self, path: str, name: str = "repro run") -> RunData:
        run = self.run_data(name)
        write_jsonl(run, path)
        return run

    def export_chrome_trace(self, path: str, name: str = "repro run") -> RunData:
        run = self.run_data(name)
        write_chrome_trace(run, path)
        return run

    def export_prometheus(self, path: str) -> None:
        write_prometheus(self.snapshot(), path)


def attach_observability(cluster) -> Observability:
    """Observe a cluster: tracer + spans, and the ``txn`` span sources.

    Idempotent; reuses an already-attached tracer (e.g. from the chaos
    engine).  Attach before ``cluster.start()`` for complete coverage —
    late attachment still works, it just misses earlier events.
    """
    if cluster.obs is not None:
        return cluster.obs
    tracer = cluster.tracer or attach_tracer(cluster)
    spans = SpanTracker()
    tracer.add_listener(spans.on_trace_event)
    cluster.obs = Observability(cluster, spans, tracer)
    for node in cluster.nodes.values():
        node.obs = cluster.obs
    return cluster.obs
