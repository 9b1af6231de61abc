"""Global correctness checkers.

These validate the guarantees the paper claims, across a whole simulated
history:

* **total order / gid consistency** — every site processes transactions
  in strictly increasing gid order, and any two sites that processed the
  same gid saw the same transaction message;
* **decision agreement (transaction atomicity, section 2.3)** — no site
  commits a transaction another site aborts: the version check is
  deterministic, so commit/abort is a pure function of the gid prefix;
* **1-copy-serializability (section 2.2)** — replaying the committed
  transactions in gid order, every committed transaction's recorded read
  versions match the replay state: the gid order is a valid serial order
  consistent with every read;
* **replica convergence** — all up-to-date sites hold byte-identical
  database states.

The :class:`HistoryRecorder` collects the per-site event streams that
feed the checks (the cluster wires it to every node's ``on_txn_event``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.replication.messages import TransactionMessage


@dataclass(slots=True)
class TxnEvent:
    site: str
    kind: str  # "commit" | "abort"
    gid: int
    message: TransactionMessage
    time: float


class HistoryRecorder:
    """Collects commit/abort events from every site of a cluster."""

    def __init__(self, clock=None) -> None:
        self._clock = clock or (lambda: 0.0)
        self.events: List[TxnEvent] = []
        self.by_site: Dict[str, List[TxnEvent]] = {}

    def record(self, site: str, kind: str, gid: int, message: TransactionMessage) -> None:
        event = TxnEvent(site=site, kind=kind, gid=gid, message=message, time=self._clock())
        self.events.append(event)
        self.by_site.setdefault(site, []).append(event)

    # ------------------------------------------------------------------
    def commits_of(self, site: str) -> List[int]:
        return [e.gid for e in self.by_site.get(site, []) if e.kind == "commit"]


class ConsistencyViolation(AssertionError):
    """Raised when a checker finds a violated guarantee."""


def check_gid_consistency(history: HistoryRecorder) -> None:
    """Same gid => same transaction message, across all sites."""
    seen: Dict[int, TransactionMessage] = {}
    for event in history.events:
        previous = seen.get(event.gid)
        if previous is None:
            seen[event.gid] = event.message
        elif previous != event.message:
            raise ConsistencyViolation(
                f"gid {event.gid} bound to two different transactions: "
                f"{previous} vs {event.message}"
            )


def check_processing_order(history: HistoryRecorder) -> None:
    """Each site terminates transactions without ever *starting* them out
    of order.  Termination order may legally deviate (non-conflicting
    write phases run concurrently), so we check the per-site gid streams
    only for duplicates; delivery-order is enforced by construction and
    covered by gid consistency."""
    for site, events in history.by_site.items():
        seen: Set[int] = set()
        for event in events:
            if event.gid in seen:
                raise ConsistencyViolation(f"{site} terminated gid {event.gid} twice")
            seen.add(event.gid)


def check_decision_agreement(history: HistoryRecorder) -> None:
    """No transaction may commit at one site and abort at another."""
    decisions: Dict[int, str] = {}
    for event in history.events:
        previous = decisions.get(event.gid)
        if previous is None:
            decisions[event.gid] = event.kind
        elif previous != event.kind:
            raise ConsistencyViolation(
                f"gid {event.gid} {previous} at one site but {event.kind} at {event.site}"
            )


def check_one_copy_serializability(history: HistoryRecorder) -> None:
    """The gid order is a valid serial order for the committed history.

    Replay all committed transactions in gid order against a virtual
    one-copy database of versions; every recorded read must have seen
    exactly the version the serial execution produces.
    """
    committed: Dict[int, TransactionMessage] = {}
    for event in history.events:
        if event.kind == "commit":
            committed[event.gid] = event.message
    version: Dict[str, int] = {}
    for gid in sorted(committed):
        message = committed[gid]
        for obj, read_version in message.read_set:
            current = version.get(obj, -1)
            if current != read_version:
                raise ConsistencyViolation(
                    f"gid {gid} read {obj} at version {read_version}, but the "
                    f"serial execution has version {current}"
                )
        for obj, _value in message.write_set:
            version[obj] = gid


def check_convergence(nodes) -> None:
    """All up-to-date sites hold identical database contents."""
    digests = {}
    for node in nodes:
        if node.alive and node.up_to_date:
            digests[node.site_id] = node.db.store.content_digest()
    if len(set(digests.values())) > 1:
        detail = {site: hash(d) for site, d in digests.items()}
        raise ConsistencyViolation(f"replica divergence among up-to-date sites: {detail}")


def check_view_synchrony(nodes) -> None:
    """Any two sites that installed a view with the same identifier agree
    on its membership — the heart of the virtual-synchrony contract the
    replica control protocol builds on (section 2.1).

    Checked over each member's full installation history, so a violation
    is caught even if later views diverge back into agreement.
    """
    seen: Dict[Any, Tuple[str, Tuple[str, ...]]] = {}
    for node in nodes:
        for view in node.member.views_installed:
            previous = seen.get(view.view_id)
            if previous is None:
                seen[view.view_id] = (node.site_id, view.members)
            elif previous[1] != view.members:
                raise ConsistencyViolation(
                    f"view {view.view_id} installed with members "
                    f"{previous[1]} at {previous[0]} but {view.members} "
                    f"at {node.site_id}"
                )


def check_atomicity_durability(history: HistoryRecorder, nodes) -> None:
    """Every committed transaction's writes are present (at that or a
    newer version) at every up-to-date site."""
    committed: Dict[int, TransactionMessage] = {}
    for event in history.events:
        if event.kind == "commit":
            committed[event.gid] = event.message
    for node in nodes:
        if not (node.alive and node.up_to_date):
            continue
        for gid, message in committed.items():
            for obj, _value in message.write_set:
                if obj not in node.db.store:
                    raise ConsistencyViolation(
                        f"{node.site_id} misses object {obj} written by committed gid {gid}"
                    )
                if node.db.store.version(obj) < gid:
                    raise ConsistencyViolation(
                        f"{node.site_id} has {obj} at version "
                        f"{node.db.store.version(obj)} < committed writer {gid}"
                    )


def check_exactly_once(history: HistoryRecorder, sessions) -> None:
    """Every client request executes at most once system-wide, and a
    session's verdict matches the global history.

    ``sessions`` is an iterable of :class:`repro.client.ClientSession`.
    Per logical request ``(client_id, seq)``:

    * at most one distinct gid may commit across all attempts — a second
      commit means the dedup table failed to suppress a resubmission;
    * a session that reports COMMITTED must match the gid that actually
      committed (and one must exist);
    * a session that reports ABORTED (all attempts settled definitively)
      must have no commit in the history;
    * EXHAUSTED (gave up with attempts in doubt) tolerates zero or one
      commit — the at-most-once half still holds;
    * a request still PENDING after the drain is itself a liveness
      violation.
    """
    commits: Dict[Tuple[str, int], Set[int]] = {}
    for event in history.events:
        request = event.message.request
        if request is None or event.kind != "commit":
            continue
        commits.setdefault(request.key, set()).add(event.gid)

    for key, gids in commits.items():
        if len(gids) > 1:
            raise ConsistencyViolation(
                f"request {key[0]}:{key[1]} committed under "
                f"{len(gids)} distinct gids {sorted(gids)}: executed more than once"
            )

    for session in sessions:
        for record in session.records:
            key = (record.client_id, record.seq)
            committed_gids = commits.get(key, set())
            if record.state.value == "committed":
                if not committed_gids:
                    raise ConsistencyViolation(
                        f"request {key[0]}:{key[1]} reported committed "
                        f"(gid {record.committed_gid}) but no site committed it"
                    )
                if record.committed_gid not in committed_gids:
                    raise ConsistencyViolation(
                        f"request {key[0]}:{key[1]} reported gid "
                        f"{record.committed_gid} but the history committed it "
                        f"as {sorted(committed_gids)}"
                    )
            elif record.state.value == "aborted":
                if committed_gids:
                    raise ConsistencyViolation(
                        f"request {key[0]}:{key[1]} reported a definitive "
                        f"abort but committed as gid {sorted(committed_gids)}"
                    )
            elif record.state.value == "pending":
                raise ConsistencyViolation(
                    f"request {key[0]}:{key[1]} still pending after drain"
                )
            # EXHAUSTED: zero or one commit both legal; the multi-commit
            # case was already rejected above.


@dataclass(frozen=True)
class AvailabilityWindow:
    """One contiguous zero-commit span of an availability timeline.

    ``covered`` classifies the window against the run's reconfiguration
    epochs (when the caller supplies them): ``True`` means every second
    of the dark span is explained by an epoch interval (the cluster was
    *blocked* by an in-progress reconfiguration), ``False`` means part
    of it is *uncovered* — dark time no epoch accounts for, the kind of
    gap that exposed the storm-epoch model (see
    :mod:`repro.obs.epochs`).  ``None`` means unclassified.
    """

    start: float
    end: float
    covered: Optional[bool] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def describe(self) -> str:
        label = {True: " [blocked]", False: " [uncovered]", None: ""}
        return (f"t={self.start:.3f}..t={self.end:.3f} "
                f"({self.duration:.3f}s){label[self.covered]}")


def availability_violations(samples, window: float, bin_width: float,
                            warmup: float = 0.0, min_span: Optional[float] = None,
                            epochs=None) -> List[AvailabilityWindow]:
    """Every zero-commit span of an availability timeline, longest first.

    ``samples`` is the endurance timeline: ``(time, commits,
    maintenance)`` bins where ``time`` is the virtual end of the bin.
    Maintenance bins and the ``warmup`` prefix break a span without
    counting toward it, exactly as in :func:`check_availability_floor`.
    A zero bin ending at ``t`` darkens ``[t - bin_width, t]``; adjacent
    zero bins merge.

    ``min_span`` filters the result (default: ``window``, i.e. only the
    floor *violations*); pass ``bin_width`` to get every dark span — the
    schedule search scores partial damage from the full list.  When
    ``epochs`` (:class:`repro.obs.epochs.EpochRecord` sequence) is
    given, each window is classified blocked/uncovered via
    :func:`repro.obs.epochs.uncovered_blocked_time` with one bin of
    slack.
    """
    if window <= 0 or bin_width <= 0:
        raise ValueError("window and bin_width must be positive")
    if min_span is None:
        min_span = window
    spans: List[Tuple[float, float]] = []
    gap_start: Optional[float] = None
    gap_end: Optional[float] = None
    for time, commits, maintenance in samples:
        if time <= warmup or maintenance or commits > 0:
            if gap_start is not None:
                spans.append((gap_start, gap_end))
            gap_start = gap_end = None
            continue
        if gap_start is None:
            gap_start = time - bin_width
        gap_end = time
    if gap_start is not None:
        spans.append((gap_start, gap_end))
    windows = []
    for start, end in spans:
        if end - start < min_span:
            continue
        covered = None
        if epochs is not None:
            from repro.obs.epochs import uncovered_blocked_time

            covered = uncovered_blocked_time(
                epochs, [(start, end)], slack=bin_width) == 0.0
        windows.append(AvailabilityWindow(start, end, covered))
    windows.sort(key=lambda w: (-w.duration, w.start))
    return windows


def check_availability_floor(samples, window: float, bin_width: float,
                             warmup: float = 0.0, epochs=None) -> None:
    """The system never stops serving clients for a whole window.

    ``samples`` is the availability timeline of an endurance run: an
    iterable of ``(time, commits, maintenance)`` bins, where ``time`` is
    the virtual end of the bin, ``commits`` the client requests committed
    during it, and ``maintenance`` flags bins in which the harness itself
    paused the fleet (quiescent sweeps) — those are excluded, as is a
    ``warmup`` prefix while the cluster bootstraps.

    A consecutive run of zero-commit, non-maintenance bins spanning at
    least ``window`` virtual seconds is an availability-floor violation:
    the cluster went dark under churn instead of riding it out.  The
    violation reports **every** violating window (longest first, with
    blocked/uncovered classification when ``epochs`` are supplied), not
    just the first — the schedule search ranks schedules by total
    damage, and a one-window error would hide most of it.
    """
    violations = availability_violations(samples, window, bin_width,
                                         warmup=warmup, epochs=epochs)
    if not violations:
        return
    worst = violations[0]
    detail = "; ".join(w.describe() for w in violations)
    raise ConsistencyViolation(
        f"availability floor violated: no client commit for "
        f"{worst.duration:.3f}s >= window {window:g}s in "
        f"{len(violations)} window(s): {detail}"
    )


def run_all_checks(history: HistoryRecorder, nodes, sessions=None) -> None:
    """Run the full checker battery (used by tests and examples)."""
    check_gid_consistency(history)
    check_processing_order(history)
    check_decision_agreement(history)
    check_one_copy_serializability(history)
    check_view_synchrony(nodes)
    check_convergence(nodes)
    check_atomicity_durability(history, nodes)
    if sessions is not None:
        check_exactly_once(history, sessions)
