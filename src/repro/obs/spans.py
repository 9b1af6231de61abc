"""Causal spans assembled from the :class:`repro.tracing.Tracer` bus.

A span is a named interval on one site's timeline with an optional
parent, which is what turns the flat trace-event stream into the two
causal stories the paper's evaluation needs to tell:

* **Transaction spans** — a root span per transaction from its submit
  at the origin site to its local termination, with one ``apply`` child
  span per site from total-order delivery to commit/abort there.
* **Reconfiguration spans** — a root ``recovery`` span per site from the
  view/e-view change that put it into RECOVERING/SUSPENDED until it is
  an up-to-date ACTIVE member, with ``state_transfer`` and ``replay``
  phase children.  The peer serving the transfer gets a ``serve``
  span on *its* timeline, parented to the joiner's recovery span —
  that cross-site link is what makes workload/transfer interference
  visible in the Chrome trace.

The tracker is a pure listener: it subscribes to ``Tracer`` events (the
span-relevant ones carry a structured ``data`` payload; the ``txn``
ones are emitted only on observed clusters) and never touches the
protocols.  Without an attached tracer it costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    category: str  # "txn" | "txn_apply" | "reconfig" | "phase"
    site: str
    start: float
    end: Optional[float] = None
    parent_id: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "category": self.category,
            "site": self.site,
            "start": self.start,
            "end": self.end,
            "parent_id": self.parent_id,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        return cls(
            span_id=data["span_id"],
            name=data["name"],
            category=data["category"],
            site=data["site"],
            start=data["start"],
            end=data.get("end"),
            parent_id=data.get("parent_id"),
            attrs=dict(data.get("attrs", {})),
        )


class SpanTracker:
    """Builds the span forest from trace events.

    Attach with ``tracer.add_listener(tracker.on_trace_event)`` (done by
    ``attach_observability``).  An export reads :meth:`finalize`, which
    closes copies of the still-open spans and leaves the tracker's own
    open, so the run can go on and a later export sees their real end.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._next_id = 0
        # Open-span indexes.
        self._txn_roots: Dict[str, Span] = {}          # txn_id -> root
        self._txn_applies: Dict[Tuple[str, str], Span] = {}  # (site, txn) -> child
        self._recoveries: Dict[str, Span] = {}         # site -> recovery root
        self._phases: Dict[Tuple[str, str], Span] = {}  # (site, phase) -> child
        self._serving: Dict[str, Span] = {}            # joiner -> peer-side span

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def begin(self, name: str, category: str, site: str, start: float,
              parent_id: Optional[int] = None, **attrs: Any) -> Span:
        span = Span(self._next_id, name, category, site, start,
                    parent_id=parent_id, attrs=attrs)
        self._next_id += 1
        self.spans.append(span)
        return span

    def finish(self, span: Span, end: float, **attrs: Any) -> None:
        if span.end is None:
            span.end = end
        span.attrs.update(attrs)

    def finalize(self, now: float) -> List[Span]:
        """Every span, each still-open one as a copy closed at ``now``
        and marked ``open_at_end``; the tracker's spans are untouched."""
        return [
            span if span.end is not None else replace(
                span, end=now, attrs={**span.attrs, "open_at_end": True})
            for span in self.spans
        ]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def of(self, category: Optional[str] = None,
           site: Optional[str] = None) -> List[Span]:
        return [
            s for s in self.spans
            if (category is None or s.category == category)
            and (site is None or s.site == site)
        ]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    # ------------------------------------------------------------------
    # The tracer listener
    # ------------------------------------------------------------------
    def on_trace_event(self, event) -> None:
        category = event.category
        if category == "txn":
            self._on_txn(event)
        elif category == "status":
            self._on_status(event)
        elif category == "transfer":
            self._on_transfer(event)
        elif category == "replay":
            self._on_replay(event)

    # -- transactions ---------------------------------------------------
    def _txn_root(self, txn_id: str, origin_site: str, t: float) -> Span:
        root = self._txn_roots.get(txn_id)
        if root is None:
            # First sighting was not the submit (replayed or remote-only
            # transaction): open the root lazily at delivery time.
            root = self.begin(f"txn {txn_id}", "txn", origin_site, t, txn=txn_id)
            self._txn_roots[txn_id] = root
        return root

    def _on_txn(self, event) -> None:
        data = event.data or {}
        txn_id = data.get("txn")
        if txn_id is None:
            return
        site, t, kind = event.site, event.time, event.kind
        if kind == "submit":
            if txn_id not in self._txn_roots:
                self._txn_roots[txn_id] = self.begin(
                    f"txn {txn_id}", "txn", site, t, txn=txn_id)
        elif kind == "deliver":
            root = self._txn_root(txn_id, txn_id.split("#", 1)[0], t)
            if root.attrs.get("gid") is None and data.get("gid") is not None:
                root.attrs["gid"] = data["gid"]
            self._txn_applies[(site, txn_id)] = self.begin(
                "apply", "txn_apply", site, t, parent_id=root.span_id,
                txn=txn_id, gid=data.get("gid"))
        elif kind in ("commit", "abort"):
            child = self._txn_applies.pop((site, txn_id), None)
            if child is None:
                # Replay-applied commit: delivery happened before the
                # site recovered, so represent it as a point span.
                root = self._txn_root(txn_id, txn_id.split("#", 1)[0], t)
                child = self.begin("apply(replay)", "txn_apply", site, t,
                                   parent_id=root.span_id, txn=txn_id,
                                   gid=data.get("gid"))
            self.finish(child, t, outcome=kind)
            root = self._txn_roots.get(txn_id)
            if root is not None and data.get("gid") is not None:
                root.attrs.setdefault("gid", data["gid"])
        elif kind == "done":
            # Keep the root indexed: the recovered site replays this
            # transaction *after* the origin finished it, and those late
            # apply children must attach to the same root rather than
            # lazily opening a duplicate.
            root = self._txn_roots.get(txn_id)
            if root is not None:
                self.finish(root, t, outcome=data.get("state"))

    # -- reconfiguration -------------------------------------------------
    def _recovery_root(self, site: str, t: float) -> Span:
        root = self._recoveries.get(site)
        if root is None:
            root = self.begin("recovery", "reconfig", site, t)
            self._recoveries[site] = root
        return root

    def _on_status(self, event) -> None:
        site, t, kind = event.site, event.time, event.kind
        if kind in ("recovering", "suspended"):
            self._recovery_root(site, t)
        elif kind == "active":
            for phase_key in [k for k in self._phases if k[0] == site]:
                self.finish(self._phases.pop(phase_key), t)
            root = self._recoveries.pop(site, None)
            if root is not None:
                self.finish(root, t)
        elif kind == "down":
            # Crashed mid-recovery: the episode is over (abandoned).
            for phase_key in [k for k in self._phases if k[0] == site]:
                self.finish(self._phases.pop(phase_key), t, abandoned=True)
            root = self._recoveries.pop(site, None)
            if root is not None:
                self.finish(root, t, abandoned=True)

    def _on_transfer(self, event) -> None:
        site, t, kind = event.site, event.time, event.kind
        data = event.data or {}
        if kind == "accept":
            root = self._recovery_root(site, t)
            previous = self._phases.pop((site, "state_transfer"), None)
            if previous is not None:  # superseded session (fail-over)
                self.finish(previous, t, superseded=True)
            self._phases[(site, "state_transfer")] = self.begin(
                "state_transfer", "phase", site, t, parent_id=root.span_id,
                peer=data.get("peer"))
        elif kind == "complete":
            phase = self._phases.pop((site, "state_transfer"), None)
            if phase is not None:
                self.finish(phase, t, baseline=data.get("baseline"))
            serving = self._serving.pop(site, None)
            if serving is not None:
                self.finish(serving, t)
        elif kind == "start":
            joiner = data.get("joiner")
            if joiner is None:
                return
            # The peer's view install (and thus this event) can precede
            # the joiner's own status transition within the same view
            # change, so open the joiner's recovery root lazily here —
            # the cross-site parent link is the point of this span.
            joiner_root = self._recovery_root(joiner, t)
            self._serving[joiner] = self.begin(
                f"serve {joiner}", "phase", site, t,
                parent_id=joiner_root.span_id,
                joiner=joiner, sync=data.get("sync"))
        elif kind == "cancel":
            joiner = data.get("joiner")
            if joiner is not None:
                serving = self._serving.pop(joiner, None)
                if serving is not None and serving.site == site:
                    self.finish(serving, t, cancelled=True)

    def _on_replay(self, event) -> None:
        site, t, kind = event.site, event.time, event.kind
        if kind == "start":
            root = self._recovery_root(site, t)
            if (site, "replay") not in self._phases:
                self._phases[(site, "replay")] = self.begin(
                    "replay", "phase", site, t, parent_id=root.span_id)
        elif kind == "caught_up":
            phase = self._phases.pop((site, "replay"), None)
            if phase is not None:
                self.finish(phase, t)
