"""Epoch analytics: decompose reconfiguration downtime phase by phase.

An **epoch** is one site's journey from leaving service (crash,
partition-suspension, or first boot as a joiner) back to ACTIVE
membership.  :func:`extract_epochs` reconstructs every epoch of a run
from the Tracer event bus alone — it works identically on a live
``cluster.tracer`` and on events reloaded from a JSON-lines export —
and tiles each epoch into the paper's protocol phases:

``down``
    fail-stop outage: crash until the site restarts (suspicion +
    detection + operator restart delay).
``membership``
    restart (or suspension) until the first view installation — the
    group-membership agreement plus the view-synchronous flush.
``transfer_wait``
    view installed, waiting for a peer's transfer offer (solicitation,
    offer retries).
``transfer``
    accepted offer until the data transfer completes (bytes,
    retransmissions and peer fail-overs are attributed here).
``replay``
    WAL/log replay of transactions missed while away.
``drain``
    replay-pending drain and residual catch-up until ACTIVE.

The tiling is exact by construction: phase boundaries are clamped
monotonically into ``[start, end]``, so the phase durations of every
epoch sum to its recovery window to within floating-point rounding.

Besides per-site epochs, the extractor emits **cluster epochs** (site
``--``, trigger ``partition_storm``) for network partitions injected by
the chaos/endurance engines: a partition can block commits cluster-wide
without any single site leaving service, so the storm interval — split
until heal (``down``; the chaos engine's final quiesce heals a split it
leaves open), then heal until the next view installation
(``membership``) — is what explains those outage windows.

Blocked-window coverage (:func:`blocked_windows`,
:func:`uncovered_blocked_time`) reuses the gap rule of
``repro.checkers.check_availability_floor`` so the client-visible
outage bins of an endurance run can be checked against the epoch
intervals that explain them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.checkers import availability_violations

#: Canonical phase order.  Every epoch's ``phases`` list is a subset of
#: these names, in this order; summary tables always show all of them.
PHASE_ORDER: Tuple[str, ...] = (
    "down", "membership", "transfer_wait", "transfer", "replay", "drain",
)

#: Status kinds that open an epoch.
_OPENING = ("down", "recovering", "suspended")


@dataclass
class PhaseSlice:
    """One contiguous slice of an epoch attributed to a protocol phase."""

    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class EpochRecord:
    """One reconstructed reconfiguration epoch of one site."""

    site: str
    trigger: str          # "crash" | "partition" | "join" | "partition_storm"
    start: float
    end: float
    phases: List[PhaseSlice] = field(default_factory=list)
    #: True when the run (or a second fault) cut the epoch short: the
    #: site never reached ACTIVE inside this epoch.
    truncated: bool = False
    #: Transfer economics, from the counter snapshots the manager embeds
    #: in its transfer events (deltas between accept and complete).
    bytes_received: int = 0
    objects_received: int = 0
    retransmissions: int = 0
    #: Superseded transfer sessions (peer fail-over) inside the epoch.
    failovers: int = 0
    replayed: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def phase_durations(self) -> Dict[str, float]:
        """Per-phase seconds, padded with 0.0 to the full PHASE_ORDER."""
        durations = {name: 0.0 for name in PHASE_ORDER}
        for phase in self.phases:
            durations[phase.name] = durations.get(phase.name, 0.0) + phase.duration
        return durations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "trigger": self.trigger,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "truncated": self.truncated,
            "phases": self.phase_durations(),
            "bytes_received": self.bytes_received,
            "objects_received": self.objects_received,
            "retransmissions": self.retransmissions,
            "failovers": self.failovers,
            "replayed": self.replayed,
        }


class _OpenEpoch:
    """Per-site accumulator while an epoch is in flight."""

    __slots__ = ("site", "trigger", "start", "restart", "install", "accept",
                 "transfer_done", "replay_start", "caught_up", "failovers",
                 "accept_snapshot", "complete_snapshot", "replayed")

    def __init__(self, site: str, trigger: str, start: float) -> None:
        self.site = site
        self.trigger = trigger
        self.start = start
        self.restart: Optional[float] = None       # down -> recovering
        self.install: Optional[float] = None       # first view install
        self.accept: Optional[float] = None        # first transfer accept
        self.transfer_done: Optional[float] = None
        self.replay_start: Optional[float] = None
        self.caught_up: Optional[float] = None
        self.failovers = 0
        self.accept_snapshot: Dict[str, int] = {}
        self.complete_snapshot: Dict[str, int] = {}
        self.replayed = 0

    def close(self, end: float, truncated: bool) -> EpochRecord:
        record = EpochRecord(self.site, self.trigger, self.start, end,
                             truncated=truncated, failovers=self.failovers,
                             replayed=self.replayed)
        # Tile [start, end] with monotonically clamped boundaries; the
        # final "drain" slice absorbs whatever remains, so durations sum
        # to the window exactly.
        markers = (
            ("down", self.restart),
            ("membership", self.install),
            ("transfer_wait", self.accept),
            ("transfer", self.transfer_done),
            ("replay", self.caught_up),
        )
        cursor = self.start
        for name, marker in markers:
            if marker is None:
                continue
            boundary = min(max(marker, cursor), end)
            record.phases.append(PhaseSlice(name, cursor, boundary))
            cursor = boundary
        record.phases.append(PhaseSlice("drain", cursor, end))
        if self.complete_snapshot:
            base = self.accept_snapshot
            record.bytes_received = max(
                0, self.complete_snapshot.get("bytes_received", 0)
                - base.get("bytes_received", 0))
            record.objects_received = max(
                0, self.complete_snapshot.get("objects_received", 0)
                - base.get("objects_received", 0))
            record.retransmissions = max(
                0, self.complete_snapshot.get("retransmissions", 0)
                - base.get("retransmissions", 0))
        return record


def _classify_trigger(kind: str) -> str:
    """Trigger of an epoch from its opening status kind."""
    if kind == "down":
        return "crash"
    if kind == "suspended":
        return "partition"
    # "recovering" without a preceding local DOWN: a fresh joiner or a
    # scripted recover of a site crashed before tracing started.
    return "join"


def extract_epochs(events: Iterable[Any],
                   end_time: Optional[float] = None) -> List[EpochRecord]:
    """Reconstruct every reconfiguration epoch from a trace event list.

    ``events`` is any iterable of :class:`repro.tracing.TraceEvent`
    (live tracer events or a reloaded ``RunData.events``).  Epochs still
    open at ``end_time`` (default: the last event's timestamp) are
    emitted as ``truncated``.
    """
    events = list(events)
    if end_time is None:
        end_time = events[-1].time if events else 0.0
    open_epochs: Dict[str, _OpenEpoch] = {}
    records: List[EpochRecord] = []
    #: Cluster-level partition-storm epoch (site "--"), open while the
    #: network is split or a post-heal view is still being agreed.
    storm: Optional[_OpenEpoch] = None

    for event in events:
        site, category, kind = event.site, event.category, event.kind
        data = event.data or {}

        if (category, kind) in (("endurance", "partition"),
                                ("fault", "chaos_partition")):
            if storm is None:
                storm = _OpenEpoch("--", "partition_storm", event.time)
            else:
                # Another wave before the previous heal settled: the
                # storm continues, back in the split state.
                storm.restart = None
            continue
        if (category, kind) in (("endurance", "merge"),
                                ("fault", "chaos_heal"),
                                ("fault", "chaos_quiesce")):
            # The chaos engine's final quiesce heals a split it leaves
            # open without a heal event of its own.
            if storm is not None and storm.restart is None:
                storm.restart = event.time
            continue

        if category == "status":
            epoch = open_epochs.get(site)
            if kind == "down":
                if epoch is not None:
                    # A second fault cut the recovery short: close the
                    # current epoch truncated and chain a new one.
                    records.append(epoch.close(event.time, truncated=True))
                open_epochs[site] = _OpenEpoch(
                    site, _classify_trigger("down"), event.time)
            elif kind in ("stalled", "recovering", "suspended"):
                # "stalled" is the restart instant (node.recover());
                # "recovering"/"suspended" come from the first view
                # installed afterwards — either marks the end of the
                # outage, and the latter two also open partition/join
                # epochs for sites that never crashed.
                if epoch is None:
                    if kind != "stalled":
                        open_epochs[site] = _OpenEpoch(
                            site, _classify_trigger(kind), event.time)
                elif epoch.restart is None:
                    epoch.restart = event.time
            elif kind == "active":
                if epoch is not None:
                    records.append(epoch.close(event.time, truncated=False))
                    del open_epochs[site]
        elif category == "view" and kind == "install":
            # Membership agreement ends at the view in which the
            # transfer starts (or the last view before going active), so
            # keep tracking installs until an offer is accepted — the
            # restart itself installs a transitional singleton view at
            # the same timestamp which must not close the phase early.
            epoch = open_epochs.get(site)
            if epoch is not None and epoch.accept is None:
                epoch.install = event.time
            # First view installed after a heal closes the storm epoch:
            # commits resume once the merged membership is agreed.
            if storm is not None and storm.restart is not None:
                storm.install = event.time
                records.append(storm.close(event.time, truncated=False))
                storm = None
        elif category == "transfer":
            epoch = open_epochs.get(site)
            if epoch is None:
                continue
            if kind == "accept":
                if epoch.accept is None:
                    epoch.accept = event.time
                    epoch.accept_snapshot = {
                        k: int(v) for k, v in data.items()
                        if isinstance(v, (int, float)) and k != "peer"}
                else:  # superseded session: peer fail-over
                    epoch.failovers += 1
            elif kind == "complete" and epoch.transfer_done is None:
                epoch.transfer_done = event.time
                epoch.complete_snapshot = {
                    k: int(v) for k, v in data.items()
                    if isinstance(v, (int, float))}
        elif category == "replay":
            epoch = open_epochs.get(site)
            if epoch is None:
                continue
            if kind == "start" and epoch.replay_start is None:
                epoch.replay_start = event.time
            elif kind == "caught_up":
                if epoch.caught_up is None:
                    epoch.caught_up = event.time
                epoch.replayed = int(data.get("replayed", epoch.replayed) or 0)

    if storm is not None:
        records.append(storm.close(end_time, truncated=True))
    for site in sorted(open_epochs):
        records.append(open_epochs[site].close(end_time, truncated=True))
    records.sort(key=lambda r: (r.start, r.site))
    return records


# ----------------------------------------------------------------------
# Blocked-window coverage (the checkers.check_availability_floor gap rule)
# ----------------------------------------------------------------------
def availability_samples(events: Iterable[Any]
                         ) -> List[Tuple[float, int, bool]]:
    """``(bin end, commits, maintenance)`` rows from an endurance run's
    ``availability_sample`` trace events (empty for other runs)."""
    return [(float(e.data["t"]), int(e.data["commits"]),
             bool(e.data["maintenance"]))
            for e in events
            if e.category == "endurance" and e.kind == "availability_sample"
            and e.data]


def sample_bin_width(samples: Sequence[Tuple[float, int, bool]]
                     ) -> Optional[float]:
    """The sampler's bin width: the median gap between consecutive
    samples, or None without two distinct sample times."""
    deltas = sorted(b[0] - a[0] for a, b in zip(samples, samples[1:])
                    if b[0] > a[0])
    return deltas[len(deltas) // 2] if deltas else None


def blocked_windows(events: Iterable[Any], warmup: float = 0.0
                    ) -> List[Tuple[float, float]]:
    """Client-visible zero-commit windows from ``availability_sample``
    trace events, in time order: every span
    :func:`repro.checkers.availability_violations` finds (the gap rule
    of ``check_availability_floor``), down to a single zero bin (a
    half-bin ``min_span`` absorbs float rounding)."""
    samples = availability_samples(events)
    bin_width = sample_bin_width(samples)
    if bin_width is None:
        return []
    spans = availability_violations(samples, window=bin_width,
                                    bin_width=bin_width, warmup=warmup,
                                    min_span=bin_width / 2)
    return sorted((w.start, w.end) for w in spans)


def uncovered_blocked_time(epochs: Sequence[EpochRecord],
                           windows: Sequence[Tuple[float, float]],
                           slack: float = 0.0) -> float:
    """Total blocked-window seconds NOT overlapped by any epoch.

    ``slack`` widens each epoch interval on both sides — one sampling
    bin of slack absorbs the bin-quantisation of the availability
    sampler relative to the exact fault times.
    """
    intervals = sorted((e.start - slack, e.end + slack) for e in epochs)
    merged: List[List[float]] = []
    for start, end in intervals:
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    uncovered = 0.0
    for w_start, w_end in windows:
        cursor = w_start
        for start, end in merged:
            if end <= cursor:
                continue
            if start >= w_end:
                break
            if start > cursor:
                uncovered += start - cursor
            cursor = max(cursor, min(end, w_end))
            if cursor >= w_end:
                break
        uncovered += max(0.0, w_end - cursor)
    return uncovered


# ----------------------------------------------------------------------
# Epoch signatures (novelty feedback for the schedule search)
# ----------------------------------------------------------------------
def epoch_signature(epoch: EpochRecord, backend: str = "vs") -> str:
    """Canonical ``trigger|phase-shape|backend`` signature of one epoch.

    The *phase shape* is the ordered subset of :data:`PHASE_ORDER` the
    epoch actually spent time in (truncation marked with ``!``) — two
    epochs with the same trigger but different shapes (say one stalled
    in ``transfer_wait``, one that never needed a transfer) are
    different behaviors.  The coverage-guided search
    (:mod:`repro.search`) treats a never-seen signature as novelty worth
    keeping a schedule for.
    """
    durations = epoch.phase_durations()
    shape = "+".join(name for name in PHASE_ORDER if durations[name] > 0.0)
    mark = "!" if epoch.truncated else ""
    return f"{epoch.trigger}|{shape or 'instant'}{mark}|{backend}"


def epoch_signatures(epochs: Sequence[EpochRecord],
                     backend: str = "vs") -> List[str]:
    """Sorted, de-duplicated signatures of a run's epochs."""
    return sorted({epoch_signature(epoch, backend) for epoch in epochs})


# ----------------------------------------------------------------------
# Summaries and rendering
# ----------------------------------------------------------------------
def epoch_summary(epochs: Sequence[EpochRecord]) -> Dict[str, Any]:
    """Aggregate, JSON-safe roll-up of a run's epochs — what
    chaos/endurance payloads embed."""
    phase_totals = {name: 0.0 for name in PHASE_ORDER}
    for epoch in epochs:
        for name, seconds in epoch.phase_durations().items():
            phase_totals[name] = phase_totals.get(name, 0.0) + seconds
    completed = [e for e in epochs if not e.truncated]
    worst = max(epochs, key=lambda e: e.duration, default=None)
    return {
        "count": len(epochs),
        "completed": len(completed),
        "truncated": len(epochs) - len(completed),
        "total_downtime": round(sum(e.duration for e in epochs), 9),
        "worst": None if worst is None else {
            "site": worst.site, "trigger": worst.trigger,
            "duration": round(worst.duration, 9), "start": worst.start,
        },
        "phase_seconds": {k: round(v, 9) for k, v in phase_totals.items()},
        "bytes_received": sum(e.bytes_received for e in epochs),
        "retransmissions": sum(e.retransmissions for e in epochs),
        "failovers": sum(e.failovers for e in epochs),
        "replayed": sum(e.replayed for e in epochs),
        "triggers": dict(sorted(
            _count_by(epochs, lambda e: e.trigger).items())),
    }


def merge_epoch_summaries(summaries: Sequence[Dict[str, Any]]
                          ) -> Dict[str, Any]:
    """Fold several :func:`epoch_summary` dicts (e.g. one per seed) into
    one aggregate with the same shape."""
    merged: Dict[str, Any] = {
        "count": 0, "completed": 0, "truncated": 0, "total_downtime": 0.0,
        "worst": None, "phase_seconds": {name: 0.0 for name in PHASE_ORDER},
        "bytes_received": 0, "retransmissions": 0, "failovers": 0,
        "replayed": 0, "triggers": {},
    }
    for summary in summaries:
        if not summary:
            continue
        for key in ("count", "completed", "truncated", "bytes_received",
                    "retransmissions", "failovers", "replayed"):
            merged[key] += summary.get(key, 0)
        merged["total_downtime"] = round(
            merged["total_downtime"] + summary.get("total_downtime", 0.0), 9)
        for name, seconds in summary.get("phase_seconds", {}).items():
            merged["phase_seconds"][name] = round(
                merged["phase_seconds"].get(name, 0.0) + seconds, 9)
        worst = summary.get("worst")
        if worst and (merged["worst"] is None
                      or worst["duration"] > merged["worst"]["duration"]):
            merged["worst"] = dict(worst)
        for trigger, count in summary.get("triggers", {}).items():
            merged["triggers"][trigger] = (
                merged["triggers"].get(trigger, 0) + count)
    merged["triggers"] = dict(sorted(merged["triggers"].items()))
    return merged


def _count_by(items, key) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for item in items:
        counts[key(item)] = counts.get(key(item), 0) + 1
    return counts


def render_epoch_table(epochs: Sequence[EpochRecord],
                       limit: int = 0) -> str:
    """Fixed-width per-epoch table with the phase decomposition."""
    if not epochs:
        return "no reconfiguration epochs"
    rows = list(epochs)[-limit:] if limit else list(epochs)
    header = (f"  {'site':5s} {'trigger':14s} {'start':>8s} {'total':>8s} "
              + " ".join(f"{name:>9s}" for name in PHASE_ORDER)
              + f" {'bytes':>8s} {'rexmit':>6s}")
    lines = [f"reconfiguration epochs ({len(epochs)} total"
             + (f", last {len(rows)}" if limit and len(rows) < len(epochs)
                else "") + ")",
             header, "  " + "-" * (len(header) - 2)]
    for epoch in rows:
        durations = epoch.phase_durations()
        flag = "*" if epoch.truncated else " "
        lines.append(
            f"  {epoch.site:5s} {epoch.trigger:14s} {epoch.start:8.3f} "
            f"{epoch.duration:7.3f}{flag}"
            + " ".join(f"{durations[name]:9.3f}" for name in PHASE_ORDER)
            + f" {epoch.bytes_received:8d} {epoch.retransmissions:6d}")
    if any(e.truncated for e in rows):
        lines.append("  [* epoch truncated: site never reached ACTIVE]")
    return "\n".join(lines)


def render_phase_comparison(summaries: Dict[str, Dict[str, Any]]) -> str:
    """Side-by-side per-backend phase table (a ``repro chaos --mode``
    list fleet, the E7 sweep).

    ``summaries`` maps a label (backend name, cell name) to an
    :func:`epoch_summary` dict.
    """
    if not summaries:
        return "no epoch summaries to compare"
    labels = list(summaries)
    rows = [("epochs", lambda s: str(s.get("count", 0))),
            ("truncated", lambda s: str(s.get("truncated", 0))),
            ("total downtime s", lambda s: f"{s.get('total_downtime', 0.0):.3f}")]
    rows += [(f"  {name} s",
              lambda s, n=name: f"{s.get('phase_seconds', {}).get(n, 0.0):.3f}")
             for name in PHASE_ORDER]
    rows += [("transfer bytes", lambda s: str(s.get("bytes_received", 0))),
             ("retransmissions", lambda s: str(s.get("retransmissions", 0))),
             ("failovers", lambda s: str(s.get("failovers", 0))),
             ("replayed txns", lambda s: str(s.get("replayed", 0)))]
    width = max(14, *(len(label) for label in labels))
    header = f"  {'phase breakdown':22s} " + " ".join(
        f"{label:>{width}s}" for label in labels)
    lines = [header, "  " + "-" * (len(header) - 2)]
    for title, fmt in rows:
        lines.append(f"  {title:22s} " + " ".join(
            f"{fmt(summaries[label]):>{width}s}" for label in labels))
    return "\n".join(lines)
