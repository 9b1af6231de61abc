"""Structured event tracing for protocol runs.

A :class:`Tracer` collects timestamped, categorised events from every
layer of a cluster — view changes, e-view changes, status transitions,
transfer lifecycle, creation-protocol steps — so that examples can print
readable timelines and tests can assert event *sequences* rather than
just end states.

The protocol code emits these events itself, at its own decision points,
through ``node.trace()`` — one ``tracer is not None`` check per emit
point when nothing is attached.  :func:`attach_tracer` makes a
:class:`Tracer` and points every node's ``tracer`` at it.  The catalogue
of every ``(category, kind)`` and the function that emits it is in
docs/OBSERVABILITY.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class TraceEvent:
    time: float
    site: str
    category: str  # "view" | "eview" | "status" | "transfer" | "txn" | "replay" | "creation" | "fault"
    kind: str
    detail: str = ""
    #: Optional structured payload (ids, sizes) for machine consumers —
    #: the span tracker and the exporters; ``detail`` stays the
    #: human-readable rendering.
    data: Optional[Dict[str, Any]] = None

    def __str__(self) -> str:
        return f"{self.time:8.3f}  {self.site:4s}  {self.category:8s} {self.kind}" + (
            f"  {self.detail}" if self.detail else ""
        )


class Tracer:
    """Collects and queries trace events of one simulation run."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self.events: List[TraceEvent] = []
        self._listeners: List[Callable[[TraceEvent], None]] = []

    def add_listener(self, listener: Callable[[TraceEvent], None]) -> None:
        """Subscribe to every event as it is emitted (the span tracker
        layers on the tracer this way)."""
        self._listeners.append(listener)

    def emit(self, site: str, category: str, kind: str, detail: str = "",
             data: Optional[Dict[str, Any]] = None) -> None:
        event = TraceEvent(self._clock(), site, category, kind, detail, data)
        self.events.append(event)
        for listener in self._listeners:
            listener(event)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def of(self, category: Optional[str] = None, site: Optional[str] = None,
           kind: Optional[str] = None) -> List[TraceEvent]:
        return [
            e for e in self.events
            if (category is None or e.category == category)
            and (site is None or e.site == site)
            and (kind is None or e.kind == kind)
        ]

    def kinds(self, category: str, site: Optional[str] = None) -> List[str]:
        return [e.kind for e in self.of(category, site)]

    def between(self, start: float, end: float) -> List[TraceEvent]:
        return [e for e in self.events if start <= e.time < end]

    def timeline(self, limit: int = 0) -> str:
        """A printable timeline (all events, or the last ``limit``)."""
        events = self.events[-limit:] if limit else self.events
        return "\n".join(str(e) for e in events)

    def assert_order(self, *expectations: Tuple[str, str]) -> None:
        """Assert that events matching (category, kind) pairs occur in the
        given relative order (each after the previous match)."""
        index = 0
        for category, kind in expectations:
            while index < len(self.events):
                event = self.events[index]
                index += 1
                if event.category == category and event.kind == kind:
                    break
            else:
                raise AssertionError(
                    f"event {(category, kind)!r} not found in order; "
                    f"have: {[(e.category, e.kind) for e in self.events]}"
                )


def attach_tracer(cluster) -> Tracer:
    """Give every node of a cluster one shared event sink.

    Returns the tracer; the cluster keeps it in ``cluster.tracer`` and
    hands it to sites added later (``Cluster.add_site``).  Works before
    or after ``cluster.start()`` — late attachment misses earlier events.
    """
    tracer = Tracer(clock=lambda: cluster.sim.now)
    cluster.tracer = tracer
    for node in cluster.nodes.values():
        node.tracer = tracer
    return tracer
