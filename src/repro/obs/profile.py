"""Deterministic profiler for the discrete-event simulation loop.

Attribution layer over :class:`repro.sim.core.Simulator`: when attached
(``SimProfiler().attach(sim)`` or ``attach_profiler(cluster)``), every
event the kernel fires is bucketed by **subsystem** (derived from the
callback's defining module: sequencer, net, locks, wal, reconfig,
apply, ...) and **event kind** (the schedule label, falling back to the
callback's qualified name).  Each bucket accumulates:

* ``count`` — events fired (deterministic),
* ``virtual`` — virtual seconds attributed by gap: the idle interval
  ending at an event belongs to that event's bucket (deterministic),
* ``wall`` — wall-clock seconds inside the callback (``perf_counter``),
* ``alloc`` — net allocated blocks (``sys.getallocatedblocks`` delta),
  a deterministic-enough allocation proxy for spotting churn.

The profiler is *observation-equivalent*: it never draws from the sim
RNG, never schedules or cancels events, and only wraps the callback
invocation — a profiled run produces byte-identical histories, digests
and audit results.  When no profiler is attached the kernel pays a
single ``is not None`` attribute check per event.

Output: a sorted cost table (:meth:`SimProfiler.render`), machine rows
(:meth:`cost_table`) and a collapsed-stack file
(:meth:`write_collapsed`) directly consumable by flamegraph tooling
(``subsystem;kind weight`` per line, weight in integer microseconds).
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

#: Longest-prefix-first module → subsystem classification.
_SUBSYSTEM_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.gcs.total_order", "sequencer"),
    ("repro.gcs.evs", "evs"),
    ("repro.gcs", "gcs"),
    ("repro.net", "net"),
    ("repro.db.locks", "locks"),
    ("repro.db.storage", "wal"),
    ("repro.db.wal", "wal"),
    ("repro.db", "db"),
    ("repro.reconfig", "reconfig"),
    ("repro.replication", "apply"),
    ("repro.client", "client"),
    ("repro.workload", "workload"),
    ("repro.faults", "faults"),
    ("repro.endurance", "endurance"),
    ("repro.sim", "sim"),
)


def _subsystem_of(module: str) -> str:
    for prefix, name in _SUBSYSTEM_PREFIXES:
        if module.startswith(prefix):
            return name
    return "other"


class _Bucket:
    __slots__ = ("count", "virtual", "wall", "alloc")

    def __init__(self) -> None:
        self.count = 0
        self.virtual = 0.0
        self.wall = 0.0
        self.alloc = 0


class SimProfiler:
    """Per-subsystem / per-event-kind cost attribution for one run."""

    def __init__(self) -> None:
        self.buckets: Dict[Tuple[str, str], _Bucket] = {}
        self.events = 0
        self.total_wall = 0.0
        self._last_time = 0.0
        # (module, qualname, label) -> key memo; callbacks repeat, so
        # classification runs once per distinct callback.
        self._key_cache: Dict[Tuple[str, str, str], Tuple[str, str]] = {}

    # ------------------------------------------------------------------
    # Attachment and the hot hook
    # ------------------------------------------------------------------
    def attach(self, sim) -> "SimProfiler":
        """Install on a simulator (``sim.profiler = self``)."""
        sim.profiler = self
        self._last_time = sim.now
        return self

    def detach(self, sim) -> None:
        if getattr(sim, "profiler", None) is self:
            sim.profiler = None

    def run_event(self, event) -> None:
        """Execute one kernel event under measurement.

        Called by ``Simulator.run``/``step`` instead of the plain
        ``event.fn(*event.args)`` when a profiler is attached.
        """
        key = self._key_of(event)
        bucket = self.buckets.get(key)
        if bucket is None:
            bucket = self.buckets[key] = _Bucket()
        bucket.count += 1
        self.events += 1
        bucket.virtual += event.time - self._last_time
        self._last_time = event.time
        alloc_before = sys.getallocatedblocks()
        started = perf_counter()
        try:
            event.fn(*event.args)
        finally:
            wall = perf_counter() - started
            bucket.wall += wall
            self.total_wall += wall
            bucket.alloc += sys.getallocatedblocks() - alloc_before

    def _key_of(self, event) -> Tuple[str, str]:
        fn = event.fn
        module = getattr(fn, "__module__", None) or type(fn).__module__
        qualname = getattr(fn, "__qualname__", None) or type(fn).__qualname__
        cache_key = (module, qualname, event.label)
        key = self._key_cache.get(cache_key)
        if key is None:
            kind = event.label or qualname
            key = (_subsystem_of(module), kind)
            self._key_cache[cache_key] = key
        return key

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def cost_table(self) -> List[Dict[str, Any]]:
        """All buckets as dicts, most expensive (wall) first; ties break
        on count then key so equal-cost rows order deterministically."""
        rows = []
        for (subsystem, kind), bucket in self.buckets.items():
            rows.append({
                "subsystem": subsystem,
                "kind": kind,
                "count": bucket.count,
                "virtual_seconds": round(bucket.virtual, 9),
                "wall_seconds": bucket.wall,
                "wall_share": (bucket.wall / self.total_wall
                               if self.total_wall else 0.0),
                "alloc_blocks": bucket.alloc,
            })
        rows.sort(key=lambda r: (-r["wall_seconds"], -r["count"],
                                 r["subsystem"], r["kind"]))
        return rows

    def deterministic_summary(self) -> Dict[str, Any]:
        """Only the reproducible fields: per-subsystem event counts and
        virtual-time attribution (no wall clock, no allocation)."""
        per_subsystem: Dict[str, Dict[str, Any]] = {}
        for (subsystem, _), bucket in self.buckets.items():
            agg = per_subsystem.setdefault(
                subsystem, {"count": 0, "virtual_seconds": 0.0})
            agg["count"] += bucket.count
            agg["virtual_seconds"] = round(
                agg["virtual_seconds"] + bucket.virtual, 9)
        return {"events": self.events,
                "subsystems": dict(sorted(per_subsystem.items()))}

    def render(self, limit: int = 24) -> str:
        rows = self.cost_table()
        header = (f"  {'subsystem':10s} {'event kind':34s} {'count':>9s} "
                  f"{'virtual s':>10s} {'wall s':>9s} {'wall %':>7s} "
                  f"{'allocs':>10s}")
        lines = [f"profile: {self.events} events, "
                 f"{self.total_wall:.3f}s wall in callbacks, "
                 f"{len(rows)} buckets",
                 header, "  " + "-" * (len(header) - 2)]
        for row in rows[:limit]:
            lines.append(
                f"  {row['subsystem']:10s} {row['kind'][:34]:34s} "
                f"{row['count']:9d} {row['virtual_seconds']:10.3f} "
                f"{row['wall_seconds']:9.4f} {row['wall_share'] * 100:6.2f}% "
                f"{row['alloc_blocks']:10d}")
        if len(rows) > limit:
            lines.append(f"  ... {len(rows) - limit} more buckets")
        return "\n".join(lines)

    def collapsed_stacks(self) -> List[str]:
        """Flamegraph-ready lines: ``subsystem;kind <microseconds>``.

        Weights are wall-clock microseconds floored at 1 so every bucket
        survives collapsing even on very fast machines.
        """
        lines = []
        for row in self.cost_table():
            frame = f"{row['subsystem']};{row['kind']}"
            weight = max(1, int(row["wall_seconds"] * 1e6))
            lines.append(f"{frame} {weight}")
        return lines

    def write_collapsed(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("\n".join(self.collapsed_stacks()) + "\n")

    def write_table(self, path: str, limit: int = 1000) -> None:
        with open(path, "w") as fh:
            fh.write(self.render(limit=limit) + "\n")


def attach_profiler(cluster) -> SimProfiler:
    """Attach a profiler to a cluster's simulator (idempotent); the
    handle is also kept as ``cluster.profiler``."""
    existing: Optional[SimProfiler] = getattr(cluster, "profiler", None)
    if existing is not None:
        return existing
    profiler = SimProfiler().attach(cluster.sim)
    cluster.profiler = profiler
    return profiler


def parse_collapsed(lines) -> List[Tuple[str, int]]:
    """Parse collapsed-stack lines back into ``(frames, weight)`` —
    the validation half of the CI profile-smoke job."""
    parsed: List[Tuple[str, int]] = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        frames, _, weight = line.rpartition(" ")
        if not frames or not weight.isdigit():
            raise ValueError(f"line {lineno}: not collapsed-stack format: "
                             f"{line!r}")
        parsed.append((frames, int(weight)))
    if not parsed:
        raise ValueError("empty collapsed-stack file")
    return parsed
