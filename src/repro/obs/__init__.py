"""repro.obs — the unified observability layer.

One attach call instruments a whole cluster::

    from repro.obs import attach_observability

    cluster = ClusterBuilder(...).build()
    obs = attach_observability(cluster)   # before cluster.start()
    ...
    obs.export_chrome_trace("trace.json")  # chrome://tracing / Perfetto
    obs.export_jsonl("run.jsonl")          # replayable event log
    obs.export_prometheus("metrics.prom")  # text exposition snapshot

See docs/OBSERVABILITY.md for the metric catalog, the span model and
the exporter formats.  Every metric comes from one pull collector,
:func:`collect_cluster_metrics`, which needs nothing attached; the
benchmark (``perf/workloads.py``) reads its counters through it.
"""

from repro.obs.attach import (
    Observability,
    attach_observability,
    collect_cluster_metrics,
    metric_key_set,
)
from repro.obs.epochs import (
    EpochRecord,
    PhaseSlice,
    PHASE_ORDER,
    blocked_windows,
    epoch_signature,
    epoch_signatures,
    epoch_summary,
    extract_epochs,
    render_epoch_table,
    render_phase_comparison,
    uncovered_blocked_time,
)
from repro.obs.profile import (
    SimProfiler,
    attach_profiler,
    parse_collapsed,
)
from repro.obs.export import (
    RunData,
    chrome_trace,
    load_jsonl,
    prometheus_text,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.obs.report import (availability_samples, render_availability,
                              render_one_screen, render_summary,
                              span_durations)
from repro.obs.spans import Span, SpanTracker

__all__ = [
    "EpochRecord",
    "Observability",
    "PHASE_ORDER",
    "PhaseSlice",
    "RunData",
    "SimProfiler",
    "Span",
    "SpanTracker",
    "attach_observability",
    "attach_profiler",
    "blocked_windows",
    "chrome_trace",
    "collect_cluster_metrics",
    "epoch_signature",
    "epoch_signatures",
    "epoch_summary",
    "extract_epochs",
    "load_jsonl",
    "metric_key_set",
    "parse_collapsed",
    "prometheus_text",
    "availability_samples",
    "render_availability",
    "render_epoch_table",
    "render_one_screen",
    "render_phase_comparison",
    "render_summary",
    "span_durations",
    "uncovered_blocked_time",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
]
