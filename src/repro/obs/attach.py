"""Attach the observability layer to a cluster.

Metrics are pulled, never pushed: :func:`collect_cluster_metrics` reads
the plain integer counters every subsystem maintains anyway and returns
a flat dict.  It never touches a hot path, so the benchmark (``perf/``)
can take a snapshot per workload without perturbing the measurement,
and it needs nothing attached.

:func:`attach_observability` attaches the event side: the tracer and
the nodes' ``trace_txns`` flag, which switches on the per-transaction
``txn`` events the transaction spans are computed from at export
(:func:`repro.obs.spans.spans_of`).  :func:`run_data` snapshots a run
from the cluster and its tracer for the exporters.
"""

from __future__ import annotations

from typing import Dict

from repro.obs.export import RunData
from repro.tracing import attach_tracer


def _peak(values):
    return max(values, default=0)


def _float_sum(values):
    """A float total, also when every value is the int 0 (no lock waited)."""
    return sum(values, 0.0)


def _manager(attr: str):
    """A counter the node's reconfiguration manager keeps."""
    return lambda node: 0 if node.reconfig is None else getattr(node.reconfig, attr)


def _membership(attr: str):
    """A backend-specific counter, read off ``manager.membership`` with
    ``getattr(..., 0)`` so every backend reports the full set (absent
    ones as 0) and diff metric tables stay column-stable across
    ``--mode``."""
    return lambda node: (0 if node.reconfig is None
                         else getattr(node.reconfig.membership, attr, 0))


def _distinct_gids(kind: str):
    return lambda cluster: len({e.gid for e in cluster.history.events if e.kind == kind})


#: Every metric :func:`collect_cluster_metrics` emits, in emission order,
#: as ``(key, reader, combine)``: a row with a ``combine`` reads every
#: node and folds the per-node values with it; a row without one reads
#: the cluster once.
_METRICS = (
    ("sim.virtual_time", lambda cluster: cluster.sim.now, None),
    ("sim.events_processed", lambda cluster: cluster.sim.events_processed, None),
    ("net.messages_sent", lambda cluster: sum(
        endpoint.messages_sent for endpoint in cluster.network._endpoints.values()), None),
    ("net.messages_delivered", lambda cluster: cluster.network.messages_delivered, None),
    ("net.messages_dropped", lambda cluster: cluster.network.messages_dropped, None),
    ("net.messages_duplicated", lambda cluster: cluster.network.messages_duplicated, None),
    ("net.messages_injector_dropped",
     lambda cluster: cluster.network.messages_injector_dropped, None),
    ("net.delivery_batches", lambda cluster: cluster.network.delivery_batches, None),
    ("net.messages_in_flight", lambda cluster: cluster.network.messages_in_flight, None),
    ("txn.commits", _distinct_gids("commit"), None),
    ("txn.aborts", _distinct_gids("abort"), None),
    ("locks.grants", lambda node: node.db.locks.grants, sum),
    ("locks.conflicts", lambda node: node.db.locks.conflicts, sum),
    ("locks.queue_depth_peak", lambda node: node.db.locks.max_waiting, _peak),
    ("locks.wait_time_total", lambda node: sum(node.db.locks.wait_times), _float_sum),
    ("wal.records_appended", lambda node: node.storage.records_appended, sum),
    ("wal.fsyncs", lambda node: node.storage.flushes, sum),
    ("wal.torn_records", lambda node: node.storage.torn_records, sum),
    ("wal.corrupt_records", lambda node: node.storage.corrupt_records, sum),
    ("txn.site_commits", lambda node: node.commits, sum),
    ("txn.local_aborts", lambda node: node.local_aborts, sum),
    ("client.duplicates_suppressed", lambda node: node.duplicates_suppressed, sum),
    ("client.outcome_entries", lambda node: len(node.db.outcomes), _peak),
    ("gcs.views_installed", lambda node: len(node.member.views_installed), _peak),
    ("gcs.messages_delivered", lambda node: node.member.messages_delivered, sum),
    ("to.batches_sent", lambda node: node.member.to.batches_sent, sum),
    ("xfer.transfers_started", _manager("transfers_started"), sum),
    ("xfer.transfers_completed", _manager("transfers_completed"), sum),
    ("xfer.objects_sent", _manager("objects_sent_total"), sum),
    ("xfer.bytes_sent", _manager("bytes_sent_total"), sum),
    ("xfer.objects_received", _manager("objects_received_total"), sum),
    ("xfer.bytes_received", _manager("bytes_received_total"), sum),
    ("xfer.retransmissions", _manager("transfer_retransmissions"), sum),
    ("xfer.stalls", _manager("transfer_stalls"), sum),
    ("xfer.failovers", _manager("transfer_failovers"), sum),
    ("xfer.solicits", _manager("solicits_sent"), sum),
    ("xfer.replayed_transactions", _manager("replayed_transactions"), sum),
    ("xfer.announcements", _manager("announcements_sent"), sum),
    ("reconfig.svs_merges", _membership("svs_merges_issued"), sum),  # evs
    ("reconfig.sv_merges", _membership("sv_merges_issued"), sum),  # evs
    ("reconfig.config_proposals", _membership("config_proposals_sent"), sum),  # logless
    ("reconfig.config_changes", _membership("config_changes_applied"), sum),  # logless
    ("reconfig.config_conflicts", _membership("config_conflicts"), sum),  # logless
)


def metric_key_set() -> tuple:
    """The canonical, backend-independent key set every snapshot from
    :func:`collect_cluster_metrics` contains — in emission order."""
    return tuple(key for key, _reader, _combine in _METRICS)


def collect_cluster_metrics(cluster) -> Dict[str, float]:
    """Flat metric snapshot from a cluster's existing counters.

    Safe to call on any cluster at any time — requires no prior
    attachment and has no effect on the run.  The returned dict always
    contains the same keys regardless of the reconfiguration backend:
    counters a backend does not maintain are reported as 0.
    """
    nodes = list(cluster.nodes.values())
    return {key: reader(cluster) if combine is None
            else combine([reader(node) for node in nodes])
            for key, reader, combine in _METRICS}


def run_data(cluster, tracer, name: str = "repro run") -> RunData:
    """Snapshot a whole run: its trace events and the cluster's metrics.
    Its spans end where the events say, or at now (``open_at_end``) if
    the run has not ended them yet."""
    return RunData(
        meta={"name": name, "virtual_time": cluster.sim.now,
              "sites": list(cluster.universe)},
        events=list(tracer.events),
        metrics={"counters": collect_cluster_metrics(cluster)},
    )


def attach_observability(cluster):
    """Observe a cluster: the tracer, and the ``txn`` events the
    transaction spans are computed from.  Returns the tracer.

    Idempotent; reuses an already-attached tracer (e.g. from the chaos
    engine).  Attach before ``cluster.start()`` for complete coverage —
    late attachment still works, it just misses earlier events.
    """
    tracer = cluster.tracer or attach_tracer(cluster)
    cluster.trace_txns = True
    for node in cluster.nodes.values():
        node.trace_txns = True
    return tracer
