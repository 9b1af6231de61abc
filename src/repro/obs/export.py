"""Exporters: JSON-lines run log, Chrome trace_event JSON, Prometheus text.

Everything operates on a :class:`RunData` — one self-contained record of
a run (meta, trace events, spans, metric snapshot) that can be written
to a JSON-lines file and loaded back, so ``python -m repro report`` can
render a summary either from a live cluster or from a recorded file.

The Chrome trace output loads directly in ``chrome://tracing`` or
https://ui.perfetto.dev: one process, one track ("thread") per site,
complete (``"ph": "X"``) events for spans and instant (``"ph": "i"``)
events for the raw trace stream.  Virtual-time seconds map to trace
microseconds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.spans import Span
from repro.tracing import TraceEvent

#: Virtual seconds -> Chrome trace microseconds.
_US = 1_000_000.0


@dataclass
class RunData:
    """Everything one observed run produced."""

    meta: Dict[str, Any] = field(default_factory=dict)
    events: List[TraceEvent] = field(default_factory=list)
    spans: List[Span] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)

    def sites(self) -> List[str]:
        seen = {s.site for s in self.spans} | {e.site for e in self.events}
        return sorted(seen)


# ----------------------------------------------------------------------
# JSON-lines event log
# ----------------------------------------------------------------------
def _event_to_dict(event: TraceEvent) -> Dict[str, Any]:
    record: Dict[str, Any] = {
        "time": event.time,
        "site": event.site,
        "category": event.category,
        "kind": event.kind,
        "detail": event.detail,
    }
    if event.data is not None:
        record["data"] = dict(event.data)
    return record


def _event_from_dict(record: Dict[str, Any]) -> TraceEvent:
    return TraceEvent(
        time=record["time"],
        site=record["site"],
        category=record["category"],
        kind=record["kind"],
        detail=record.get("detail", ""),
        data=record.get("data"),
    )


def write_jsonl(run: RunData, path: str) -> None:
    """One JSON object per line: meta, then events, spans, metrics."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"type": "meta", **run.meta}) + "\n")
        for event in run.events:
            handle.write(json.dumps({"type": "event", **_event_to_dict(event)}) + "\n")
        for span in run.spans:
            handle.write(json.dumps({"type": "span", **span.to_dict()}) + "\n")
        handle.write(json.dumps({"type": "metrics", "snapshot": run.metrics}) + "\n")


def load_jsonl(path: str) -> RunData:
    """Inverse of :func:`write_jsonl`."""
    run = RunData()
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.pop("type", None)
            if kind == "meta":
                run.meta = record
            elif kind == "event":
                run.events.append(_event_from_dict(record))
            elif kind == "span":
                run.spans.append(Span.from_dict(record))
            elif kind == "metrics":
                run.metrics = record.get("snapshot", {})
    return run


# ----------------------------------------------------------------------
# Chrome trace_event JSON
# ----------------------------------------------------------------------
def chrome_trace(run: RunData) -> Dict[str, Any]:
    """Build the ``chrome://tracing`` / Perfetto payload."""
    sites = run.sites()
    tids = {site: index + 1 for index, site in enumerate(sites)}
    trace_events: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": run.meta.get("name", "repro cluster")},
    }]
    for site, tid in tids.items():
        trace_events.append({
            "name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
            "args": {"name": site},
        })
        trace_events.append({
            "name": "thread_sort_index", "ph": "M", "pid": 0, "tid": tid,
            "args": {"sort_index": tid},
        })
    for span in run.spans:
        end = span.end if span.end is not None else span.start
        args: Dict[str, Any] = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args.update(span.attrs)
        trace_events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": span.start * _US,
            "dur": max(0.0, (end - span.start)) * _US,
            "pid": 0,
            "tid": tids.get(span.site, 0),
            "args": args,
        })
    for event in run.events:
        args = {"detail": event.detail} if event.detail else {}
        if event.data:
            args.update(event.data)
        trace_events.append({
            "name": f"{event.category}.{event.kind}",
            "cat": event.category,
            "ph": "i",
            "s": "t",
            "ts": event.time * _US,
            "pid": 0,
            "tid": tids.get(event.site, 0),
            "args": args,
        })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(run: RunData, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(run), handle)
        handle.write("\n")


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    sanitized = "".join(
        c if c.isalnum() or c == "_" else "_" for c in name
    )
    return f"repro_{sanitized}"


def prometheus_text(snapshot: Dict[str, Any]) -> str:
    """Render an :meth:`Observability.snapshot` in text exposition
    format (the format a /metrics endpoint would serve): one counter
    family per collected key."""
    lines: List[str] = []
    for name in sorted(snapshot.get("counters", {})):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {snapshot['counters'][name]}")
    return "\n".join(lines) + "\n"


def write_prometheus(snapshot: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(prometheus_text(snapshot))
