"""repro.obs — the unified observability layer.

One attach call instruments a whole cluster; one function snapshots
the run for the exporters::

    from repro.obs import attach_observability, run_data

    cluster = ClusterBuilder(...).build()
    tracer = attach_observability(cluster)  # before cluster.start()
    ...
    run = run_data(cluster, tracer)
    write_chrome_trace(run, "trace.json")  # chrome://tracing / Perfetto
    write_jsonl(run, "run.jsonl")          # replayable event log
    write_prometheus(run.metrics, "metrics.prom")  # text exposition

See docs/OBSERVABILITY.md for the metric catalog, the span model and
the exporter formats.  Every metric comes from one pull collector,
:func:`collect_cluster_metrics`, which needs nothing attached; the
benchmark (``perf/workloads.py``) reads its counters through it.
"""

from repro.obs.attach import (
    attach_observability,
    collect_cluster_metrics,
    metric_key_set,
    run_data,
)
from repro.obs.epochs import (
    EpochRecord,
    PhaseSlice,
    PHASE_ORDER,
    availability_samples,
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
from repro.obs.report import (render_availability, render_one_screen,
                              render_summary, span_durations)
from repro.obs.spans import Span, spans_of

__all__ = [
    "EpochRecord",
    "PHASE_ORDER",
    "PhaseSlice",
    "RunData",
    "SimProfiler",
    "Span",
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
    "run_data",
    "span_durations",
    "spans_of",
    "uncovered_blocked_time",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
]
