"""Render a human-readable run summary from a :class:`RunData`.

Used by ``python -m repro report``: top metrics, transaction and serve
span durations, a per-site timeline digest and the epoch table, where a
recovery and its phases print once.  Pure formatting — everything here
works identically on a live run and on a reloaded JSON-lines file.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.obs.epochs import (availability_samples, blocked_windows,
                              extract_epochs, render_epoch_table,
                              sample_bin_width)
from repro.obs.export import RunData
from repro.workload.metrics import summarize_latencies

#: How many counters the "top metrics" table shows.
TOP_METRICS = 16

#: The span table's rows, by span category.  Recovery spans are the
#: epochs, so they and their phases print in the epoch table instead.
_SPAN_LABELS = {
    "txn": "txn (submit -> done)",
    "txn_apply": "apply (deliver -> commit/abort)",
    "serve": "serve",
}


def span_durations(run: RunData) -> Dict[str, List[float]]:
    """Transaction, apply and serve span durations by label."""
    groups: Dict[str, List[float]] = {}
    for span in run.spans:
        label = _SPAN_LABELS.get(span.category)
        if label is not None:
            groups.setdefault(label, []).append(span.duration)
    return groups


def render_availability(samples: List[Tuple[float, int, bool]],
                        bin_width: float, warmup: float = 0.0,
                        columns: int = 60) -> str:
    """Compact availability timeline: one character per sample bin.

    ``#`` serving at/above the run mean, ``+`` below it, ``0`` a
    zero-commit serving bin (the outage signature), ``m`` maintenance
    (quiescent sweep), ``.`` warmup.
    """
    serving = [c for t, c, m in samples if not m and t > warmup]
    mean = (sum(serving) / len(serving)) if serving else 0.0
    rows: List[str] = []
    line: List[str] = []
    start = samples[0][0] - bin_width if samples else 0.0
    for t, commits, maintenance in samples:
        if t <= warmup:
            line.append(".")
        elif maintenance:
            line.append("m")
        elif commits == 0:
            line.append("0")
        else:
            line.append("#" if commits >= mean else "+")
        if len(line) == columns:
            rows.append(f"  {start:7.2f}s  {''.join(line)}")
            line = []
            start = t
    if line:
        rows.append(f"  {start:7.2f}s  {''.join(line)}")
    legend = ("  [# >= mean rate, + below mean, 0 ZERO commits, "
              "m maintenance sweep, . warmup]")
    return "\n".join(["availability timeline "
                      f"({bin_width:g}s bins, mean {mean / bin_width:.1f}/s):"]
                     + rows + [legend])


def render_summary(run: RunData) -> str:
    lines: List[str] = []
    meta = run.meta
    lines.append(f"run: {meta.get('name', 'repro run')}  "
                 f"virtual_time={meta.get('virtual_time', 0.0):.3f}s  "
                 f"sites={','.join(meta.get('sites', run.sites()))}")
    lines.append("")

    counters: Dict[str, Any] = dict(run.metrics.get("counters", {}))
    if counters:
        lines.append("top metrics")
        lines.append("-" * 48)
        ranked = sorted(counters.items(), key=lambda kv: (-abs(kv[1]), kv[0]))
        for name, value in ranked[:TOP_METRICS]:
            rendered = f"{value:.4f}".rstrip("0").rstrip(".") \
                if isinstance(value, float) else str(value)
            lines.append(f"  {name:34s} {rendered:>10s}")
        lines.append("")

    groups = span_durations(run)
    if groups:
        lines.append("span durations by phase (virtual seconds)")
        header = (f"  {'phase':34s} {'count':>6s} {'mean':>9s} "
                  f"{'p95':>9s} {'max':>9s}")
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for label in sorted(groups):
            summary = summarize_latencies(groups[label])
            lines.append(
                f"  {label:34s} {summary.count:6d} {summary.mean:9.4f} "
                f"{summary.p95:9.4f} {summary.maximum:9.4f}")
        lines.append("")

    epochs = extract_epochs(run.events, end_time=meta.get("virtual_time"))
    # "--" carries the fault engines' global events, not a site's.
    sites = [site for site in run.sites() if site != "--"]
    if sites:
        lines.append("per-site timeline")
        header = (f"  {'site':6s} {'events':>7s} {'applies':>8s} "
                  f"{'commits':>8s} {'recoveries':>11s} {'recovery s':>11s}")
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for site in sites:
            events = sum(1 for e in run.events if e.site == site)
            applies = [s for s in run.spans
                       if s.category == "txn_apply" and s.site == site]
            commits = sum(1 for s in applies
                          if s.attrs.get("outcome") == "commit")
            recoveries = [e for e in epochs if e.site == site]
            lines.append(f"  {site:6s} {events:7d} {len(applies):8d} "
                         f"{commits:8d} {len(recoveries):11d} "
                         f"{sum(e.duration for e in recoveries):11.4f}")
        lines.append("")

    if epochs:
        lines.append(render_epoch_table(epochs, limit=12))
        lines.append("")

    samples = availability_samples(run.events)
    bin_width = sample_bin_width(samples)
    if bin_width is not None:
        lines.append(render_availability(samples, bin_width))
        lines.append("")

    txn_spans = sum(1 for s in run.spans if s.category == "txn")
    reconfig_spans = sum(1 for s in run.spans if s.category == "reconfig")
    lines.append(f"{len(run.spans)} spans total "
                 f"({txn_spans} transaction, {reconfig_spans} reconfiguration), "
                 f"{len(run.events)} trace events")
    return "\n".join(lines)


def render_one_screen(run: RunData) -> str:
    """``repro report --summary``: the whole run on one screen —
    commits, aborts, availability, epoch count and the worst epoch."""
    meta = run.meta
    counters: Dict[str, Any] = dict(run.metrics.get("counters", {}))
    virtual_time = float(meta.get("virtual_time", 0.0)) or 1.0
    commits = int(counters.get("txn.commits", 0))
    aborts = int(counters.get("txn.aborts", 0))
    epochs = extract_epochs(run.events, end_time=meta.get("virtual_time"))
    downtime = sum(e.duration for e in epochs)
    samples = availability_samples(run.events)
    windows = blocked_windows(run.events)
    blocked = sum(end - start for start, end in windows)

    width = 58
    rows = [
        ("run", str(meta.get("name", "repro run"))),
        ("virtual time", f"{virtual_time:.3f} s"),
        ("sites", ",".join(meta.get("sites", run.sites()))),
        ("commits", f"{commits}  ({commits / virtual_time:.1f}/s)"),
        ("aborts", str(aborts)),
        ("reconfig epochs", f"{len(epochs)}"
         + (f"  ({sum(1 for e in epochs if e.truncated)} truncated)"
            if any(e.truncated for e in epochs) else "")),
        ("total downtime", f"{downtime:.3f} s"),
    ]
    if samples:
        serving = [c for t, c, m in samples if not m]
        zero = sum(1 for c in serving if c == 0)
        availability = (1 - zero / len(serving)) if serving else 1.0
        rows.append(("availability", f"{availability * 100:.1f}% of bins "
                     f"serving ({blocked:.2f} s blocked)"))
    worst = max(epochs, key=lambda e: e.duration, default=None)
    if worst is not None:
        phases = worst.phase_durations()
        dominant = max(phases, key=lambda name: phases[name])
        rows.append(("worst epoch",
                     f"{worst.site} {worst.trigger} {worst.duration:.3f} s "
                     f"(mostly {dominant}: {phases[dominant]:.3f} s)"))
    lines = ["=" * width]
    lines += [f"  {label:16s} {value}" for label, value in rows]
    lines.append("=" * width)
    if epochs:
        lines.append(render_epoch_table(epochs, limit=6))
    return "\n".join(lines)
