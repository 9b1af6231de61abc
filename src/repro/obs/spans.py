"""Causal spans, computed from a trace event list.

A span is a named interval on one site's timeline with an optional
parent.  :func:`spans_of` builds two causal stories from the events:

* **Transaction spans** — a ``txn`` root per transaction from submit at
  its origin to local termination, with one ``apply`` child per site
  from total-order delivery to commit/abort there.
* **Reconfiguration spans** — one ``recovery`` root per epoch of
  :func:`repro.obs.epochs.extract_epochs`, with one ``phase`` child per
  non-empty phase slice, so a recovery has the duration the epoch table
  shows.  The peer serving a transfer gets a ``serve <joiner>`` span on
  *its* timeline, parented to the first of the joiner's epochs it
  overlaps: the cross-site link that shows workload/transfer
  interference in the Chrome trace.

Nothing listens on the tracer: a run reloaded from its JSON-lines
export has the spans of the live run.  A span the run's end cuts short
is closed at ``end_time`` and marked ``open_at_end``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.epochs import extract_epochs


@dataclass
class Span:
    span_id: int
    name: str
    category: str  # "txn" | "txn_apply" | "reconfig" | "phase" | "serve"
    site: str
    start: float
    end: Optional[float] = None  # None only while spans_of builds it
    parent_id: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def spans_of(events: Iterable[Any],
             end_time: Optional[float] = None) -> List[Span]:
    """Every span of a run, closed, in creation order (recovery roots and
    their phases first, then transaction and serve spans in event order).

    ``events`` is any iterable of :class:`repro.tracing.TraceEvent`;
    ``end_time`` defaults to the last event's timestamp.
    """
    events = list(events)
    if end_time is None:
        end_time = events[-1].time if events else 0.0
    spans: List[Span] = []

    def begin(name: str, category: str, site: str, start: float,
              parent: Optional[Span] = None, end: Optional[float] = None,
              **attrs: Any) -> Span:
        span = Span(len(spans), name, category, site, start, end,
                    None if parent is None else parent.span_id, attrs)
        spans.append(span)
        return span

    def finish(span: Span, end: float, **attrs: Any) -> None:
        if span.end is None:
            span.end = end
        span.attrs.update(attrs)

    # -- reconfiguration: one root per epoch -----------------------------
    recoveries: Dict[str, List[Span]] = {}
    for epoch in extract_epochs(events, end_time=end_time):
        root = begin("recovery", "reconfig", epoch.site, epoch.start,
                     end=epoch.end, trigger=epoch.trigger,
                     bytes_received=epoch.bytes_received,
                     retransmissions=epoch.retransmissions,
                     failovers=epoch.failovers, replayed=epoch.replayed)
        if epoch.truncated:
            # Cut by the run's end, or by a second fault (abandoned).
            root.attrs["open_at_end" if epoch.end >= end_time
                       else "abandoned"] = True
        for phase in epoch.phases:
            if phase.duration > 0:
                begin(phase.name, "phase", epoch.site, phase.start, root,
                      end=phase.end)
        recoveries.setdefault(epoch.site, []).append(root)

    # -- transactions and serve spans: one pass --------------------------
    txn_roots: Dict[str, Span] = {}                # txn_id -> root
    applies: Dict[Tuple[str, str], Span] = {}      # (site, txn) -> child
    serving: Dict[Tuple[str, str], Span] = {}      # (peer, joiner) -> span

    def txn_root(txn_id: str, t: float) -> Span:
        # Opened at the origin (the id's prefix) at the first sighting:
        # the submit, or the delivery or replay of a transaction whose
        # submit the trace does not hold.
        root = txn_roots.get(txn_id)
        if root is None:
            root = begin(f"txn {txn_id}", "txn", txn_id.split("#", 1)[0], t,
                         txn=txn_id)
            txn_roots[txn_id] = root
        return root

    for event in events:
        site, t, kind = event.site, event.time, event.kind
        data = event.data or {}
        if event.category == "txn":
            txn_id = data.get("txn")
            if txn_id is None:
                continue
            if kind == "submit":
                txn_root(txn_id, t)
            elif kind == "deliver":
                root = txn_root(txn_id, t)
                if root.attrs.get("gid") is None and data.get("gid") is not None:
                    root.attrs["gid"] = data["gid"]
                applies[(site, txn_id)] = begin(
                    "apply", "txn_apply", site, t, root,
                    txn=txn_id, gid=data.get("gid"))
            elif kind in ("commit", "abort"):
                child = applies.pop((site, txn_id), None)
                if child is None:
                    # Replay-applied commit: delivery happened before the
                    # site recovered, so it is a point span.
                    child = begin("apply(replay)", "txn_apply", site, t,
                                  txn_root(txn_id, t), txn=txn_id,
                                  gid=data.get("gid"))
                finish(child, t, outcome=kind)
                if data.get("gid") is not None:
                    txn_roots[txn_id].attrs.setdefault("gid", data["gid"])
            elif kind == "done":
                # The root stays indexed: a recovering site replays the
                # transaction after the origin finished it, and those
                # late applies attach to the same root.
                root = txn_roots.get(txn_id)
                if root is not None:
                    finish(root, t, outcome=data.get("state"))
        elif event.category == "transfer":
            if kind == "start" and data.get("joiner") is not None:
                joiner = data["joiner"]
                serving[(site, joiner)] = begin(
                    f"serve {joiner}", "serve", site, t, joiner=joiner,
                    sync=data.get("sync"))
            elif kind == "cancel":
                serve = serving.pop((site, data.get("joiner")), None)
                if serve is not None:
                    finish(serve, t, cancelled=True)
            elif kind == "complete":
                # The joiner installed a transfer: every session still
                # serving it is over.
                for key in [key for key in serving if key[1] == site]:
                    finish(serving.pop(key), t)

    for span in spans:
        if span.end is None:
            finish(span, end_time, open_at_end=True)
        if span.category == "serve":
            # The first of the joiner's epochs the session overlaps: a
            # peer can start serving before the joiner has installed the
            # view and opened its join epoch.
            joiner_epochs = recoveries.get(span.attrs["joiner"], ())
            span.parent_id = next(
                (root.span_id for root in joiner_epochs
                 if root.start <= span.end and root.end >= span.start), None)
    return spans
