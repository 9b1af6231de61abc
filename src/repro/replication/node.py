"""A replicated database site: replica control over group communication.

This class implements the paper's protocol (section 2.2) phase by phase:

I.   *Local read phase* — shared locks on the local copies, reads record
     the object versions.
II.  *Send phase* — one uniform total-order multicast carrying the write
     set and the read versions.
III. *Serialization phase* (atomic, in delivery order) — the gid is the
     message's global sequence number; the version check aborts stale
     readers; local-phase transactions holding conflicting read locks
     are aborted; write locks are requested in delivery order.
IV.  *Write phase* — writes execute as locks are granted (concurrently
     when they do not conflict), each costing ``write_op_time``.
V.   *Commit phase* — locks released, commit logged, RecTable updated.

Failure handling (section 2.3): processing only in the primary
component (the primary view or, under EVS, the primary subview); a site
landing in a minority view "behaves as if it had failed": it withdraws
its pending multicasts, rolls back in-flight work (without terminating
it — the cover must not advance past transactions that may have
committed elsewhere) and ignores deliveries until reconfiguration brings
it back.

Reconfiguration itself is delegated to a manager from
:mod:`repro.reconfig` — one per backend: ``vs``, ``evs`` or ``logless``.
The backend also supplies the group-communication handle and decides who
is up to date; this module knows neither (docs/RECONFIG_BACKENDS.md).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.db.database import Database
from repro.db.locks import LockMode
from repro.db.wal import PersistentStorage
from repro.gcs.config import GCSConfig
from repro.gcs.member import GroupMember
from repro.gcs.primary import PrimaryLineage
from repro.gcs.view import View
from repro.net.network import Network
from repro.replication.messages import (
    CoverAnnouncement,
    TransactionMessage,
    UpToDateAnnouncement,
)
from repro.replication.transaction import AbortReason, Transaction, TxnState
from repro.sim.core import Simulator
from repro.sim.process import Process


class SiteStatus(enum.Enum):
    DOWN = "down"
    STALLED = "stalled"  # in a non-primary view; behaves as failed
    RECOVERING = "recovering"  # in the primary view, catching up
    SUSPENDED = "suspended"  # primary view but no up-to-date member
    ACTIVE = "active"  # up-to-date member of the primary component


@dataclass
class NodeConfig:
    """Cost model and periodic-task knobs of one site."""

    read_op_time: float = 0.0002
    write_op_time: float = 0.0005
    replay_op_time: float = 0.0004  # applying one enqueued/caught-up write
    #: Apply delivered transactions strictly one-at-a-time (the way "most
    #: applications deployed over group communication" work, section 2.2)
    #: instead of the paper's concurrent write phases.  Used by the
    #: serial-vs-concurrent ablation; the protocol outcome is identical,
    #: only throughput/latency differ.
    serial_processing: bool = False
    #: Replica control scheme.  ``"certification"`` is the paper's
    #: section 2.2 protocol (local reads, version check, possible
    #: aborts).  ``"conservative"`` is the alternative the paper groups
    #: with it ("reconfiguration associated with other replica or
    #: concurrency control schemes will be very similar"): reads execute
    #: at delivery time under shared locks in total order — no version
    #: check, no aborts, but reads wait behind earlier writers.
    protocol: str = "certification"
    #: Apply a delivered transaction's writes in one bulk step scheduled
    #: when its last write lock is granted, instead of one scheduled
    #: event per write.  Behaviour-preserving: every write is applied at
    #: ``max(lock grant time) + write_op_time``, which is exactly when
    #: the last per-op apply would have landed and when the commit fires
    #: in both modes (writes execute concurrently, not back to back).
    batch_writes: bool = True
    #: Number of data partitions ("relations") the object space is hashed
    #: into; 0 disables partitioning.  Enables coarse-granularity transfer
    #: locks (section 4.3) and per-partition lazy round 1 with
    #: partition-level fail-over resume (section 4.7).
    partition_count: int = 0
    transfer_obj_time: float = 0.0002  # peer-side per-object marshalling
    transfer_batch_size: int = 50
    #: Ship transfer chunks as front-coded, zlib-deflated blobs; the
    #: transferred-bytes metrics then count the compressed size instead
    #: of ``len(items) * object_size_bytes``.  Off by default so byte
    #: accounting stays comparable with the paper's cost model.
    transfer_compression: bool = False
    #: Transfer hardening: unacked point-to-point transfer
    #: messages are retransmitted after ``transfer_ack_timeout``, backing
    #: off by ``transfer_retry_backoff`` per attempt; after
    #: ``transfer_max_retries`` retransmissions the session is declared
    #: stalled and fails over to another peer even without a view change.
    transfer_ack_timeout: float = 0.25
    transfer_retry_backoff: float = 2.0
    transfer_max_retries: int = 6
    #: Joiner-side watchdog: a transfer session making no progress for
    #: this long is cancelled and re-solicited from a different peer.
    transfer_stall_timeout: float = 1.0
    object_size_bytes: int = 256
    #: Let the creation protocol run from any *primary* (majority) view
    #: instead of waiting for the full universe (the paper's section 3
    #: rule), under uniform delivery.  Uniformity only puts a delivered
    #: transaction in the memory of a delivery quorum, and a commit is
    #: certain to be in its committer's log alone, so the majority's
    #: reports elect a source only when they provably hold every commit
    #: (``BaseReconfigManager.majority_covers``: every member has been in
    #: a primary view since its last restart, the newest primary view is
    #: all present and had an up-to-date member) — never after a total
    #: failure.  Off by default: the all-sites rule
    #: is the paper's documented behaviour; endurance runs enable this so
    #: a flapping straggler cannot starve a suspended majority.
    creation_majority: bool = False
    checkpoint_interval: float = 1.0
    rectable_flush_interval: float = 0.05
    rectable_flush_limit: int = 200
    cover_announce_interval: float = 0.5
    lazy_round_threshold: int = 20  # last-round trigger (section 4.7)
    lazy_max_rounds: int = 5
    #: Logless backend: maximum add-self config proposals per join
    #: attempt.  A lost compare-and-swap race re-proposes against the
    #: new version; the limit bounds proposal storms under heavy churn
    #: (the join then restarts from the next view change).
    logless_repropose_limit: int = 16

    def validate(self) -> None:
        if self.protocol not in ("certification", "conservative"):
            raise ValueError(
                f"protocol must be 'certification' or 'conservative', got {self.protocol!r}"
            )
        for name in ("read_op_time", "write_op_time", "replay_op_time",
                     "transfer_obj_time"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("checkpoint_interval", "rectable_flush_interval",
                     "cover_announce_interval"):
            if getattr(self, name) <= 0:
                # Process.every(0, ...) re-arms at the same instant, so
                # the run would spin at one virtual time forever.
                raise ValueError(f"{name} must be positive")
        if self.transfer_batch_size < 1:
            raise ValueError("transfer_batch_size must be at least 1")
        if self.transfer_ack_timeout <= 0:
            raise ValueError("transfer_ack_timeout must be positive")
        if self.transfer_retry_backoff < 1.0:
            raise ValueError("transfer_retry_backoff must be at least 1.0")
        if self.transfer_max_retries < 1:
            raise ValueError("transfer_max_retries must be at least 1")
        if self.transfer_stall_timeout <= 0:
            raise ValueError("transfer_stall_timeout must be positive")
        if self.object_size_bytes < 1:
            raise ValueError("object_size_bytes must be at least 1")
        if self.partition_count < 0:
            raise ValueError("partition_count must be non-negative")
        if self.lazy_max_rounds < 1:
            raise ValueError("lazy_max_rounds must be at least 1")
        if self.logless_repropose_limit < 1:
            raise ValueError("logless_repropose_limit must be at least 1")


@dataclass
class DeliveredTxn:
    """Execution state of a delivered transaction at this site."""

    gid: int
    message: TransactionMessage
    pending_writes: Set[str] = field(default_factory=set)
    pending_reads: Set[str] = field(default_factory=set)  # conservative, origin only
    ungranted_writes: Set[str] = field(default_factory=set)  # batch_writes mode
    applied_writes: int = 0
    rolled_back: bool = False


class ReplicatedDatabaseNode:
    """One site of the replicated database."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        site_id: str,
        universe: Tuple[str, ...],
        gcs_factory: Callable[..., Tuple[Any, GroupMember]],
        gcs_config: Optional[GCSConfig] = None,
        config: Optional[NodeConfig] = None,
        has_initial_copy: bool = True,
        initial_db: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.site_id = site_id
        self.universe = tuple(sorted(universe))
        self.config = config or NodeConfig()
        self.config.validate()
        self.has_initial_copy = has_initial_copy
        self._initial_db = dict(initial_db or {})

        #: The group-communication handle this site starts, crashes and
        #: multicasts through, and the group member underneath it (the
        #: same object unless the backend's handle wraps one).
        self.gcs, self.member = gcs_factory(
            sim, network, site_id, self.universe, gcs_config, app=self)

        self.xfer = network.endpoint(f"{site_id}:xfer")
        self.xfer.reliable = True  # "e.g., performed via TCP" (section 4.2)
        self.xfer.attach(self._on_transfer_message)

        # Crash-surviving state.
        from repro.db.partitions import make_partition_fn

        self._partition_fn = make_partition_fn(self.config.partition_count)
        self.storage = PersistentStorage()
        self.db = Database(self.storage, clock=lambda: self.sim.now,
                           partition_fn=self._partition_fn)
        if has_initial_copy:
            self.db.bootstrap(self._initial_db)

        self._status = SiteStatus.DOWN
        self.up_to_date = False
        #: Lineage of the newest primary view this site was an up-to-date
        #: member of (volatile: a restart forgets it).
        self.utd_lineage: Optional[PrimaryLineage] = None
        self.proc = Process(sim)

        self._local_txns: Dict[str, Transaction] = {}
        self._local_seq = 0
        self._delivered: Dict[int, DeliveredTxn] = {}
        # due-time -> gids whose bulk write phase completes then; all
        # transactions granted in one tick share a single drain event.
        self._bulk_apply_batches: Dict[float, List[int]] = {}
        self._serial_queue: List[Tuple[int, TransactionMessage]] = []
        self._serial_current: Optional[int] = None
        self._quiescence_waiters: List[Tuple[int, Callable[[], None]]] = []
        self.site_covers: Dict[str, int] = {}
        self.site_utd: Dict[str, bool] = {}

        # Reconfiguration manager is attached by configure_reconfig().
        self.reconfig = None

        #: Optional storage fault model (repro.faults.storage) consulted
        #: at crash time to tear/corrupt the unflushed WAL tail.
        self.storage_faults = None
        #: Optional event sink (repro.tracing.Tracer): every protocol,
        #: fault and — while ``obs`` is set — transaction event leaves
        #: the site through :meth:`trace`.
        self.tracer = None
        #: Observability handle (repro.obs.Observability) when attached:
        #: switches on the per-transaction ``txn`` trace events, the span
        #: sources.  None keeps them at one attribute check each.
        self.obs = None

        # Metrics / event taps.
        self.on_txn_event: Optional[Callable[[str, str, int, Any], None]] = None
        #: (site, boundary gid, items) of every transfer batch installed.
        self.on_transfer_install: Optional[Callable[[str, int, Any], None]] = None
        self.commits = 0
        self.local_aborts = 0
        #: Deliveries suppressed by the exactly-once outcome table.
        self.duplicates_suppressed = 0
        self.enqueue_high_watermark = 0
        self.last_processed_gid = -1

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def configure_reconfig(self, manager) -> None:
        """Attach the reconfiguration manager (the ``vs``, ``evs`` or
        ``logless`` backend's; ``Cluster._make_node`` always does)."""
        manager.strategy.check_config(self.config)
        self.reconfig = manager

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Boot the site for the first time."""
        self._start_common("started")
        self.up_to_date = self.has_initial_copy

    def crash(self) -> None:
        """Fail-stop crash: volatile state is lost, stable storage survives."""
        self._drop_in_flight(AbortReason.SITE_CRASHED, rollback=False)
        # proc.stop() cancels the drain events; their staging lists must
        # go with them or a same-tick restart would append to dead lists.
        self._bulk_apply_batches.clear()
        self._set_status(SiteStatus.DOWN, "crashed")
        self.up_to_date = False
        self.proc.stop()
        self.gcs.crash()
        self.network.take_down(self.xfer.node_id)
        if self.storage_faults is not None:
            corrupt_before = self.storage.corrupt_records
            affected = self.storage_faults.on_crash(self.storage, self.sim.rng)
            if affected:
                corrupted = self.storage.corrupt_records > corrupt_before
                self.trace("fault", "wal_torn",
                           f"{affected} unflushed records damaged"
                           + (", tail corrupted" if corrupted else ""))
        self.reconfig.on_crash()

    def recover(self) -> None:
        """Restart after a crash: single-site recovery, then rejoin the group."""
        self.db, recovery = Database.recover_from(
            self.storage, clock=lambda: self.sim.now, partition_fn=self._partition_fn
        )
        if recovery.tail_torn:
            self.trace("fault", "wal_checksum",
                       f"torn tail detected; {recovery.corrupt_records} records "
                       f"discarded, rejoining from cover {recovery.cover_gid}")
        self.db.rectable.ensure_current()
        # Restore gid-numbering continuity from the log: after a total
        # failure the group must not reuse global sequence numbers that
        # already identify transactions in stable storage.
        self.member.gseq_floor = max(self.member.gseq_floor, recovery.last_delivered_gid + 1)
        self.last_processed_gid = max(self.last_processed_gid, recovery.last_delivered_gid)
        self._start_common("restarted")
        self._delivered_gseq = recovery.last_delivered_gid
        self.up_to_date = False
        self.reconfig.on_recover(recovery)

    def _start_common(self, why: str) -> None:
        self._set_status(SiteStatus.STALLED, why)
        self.utd_lineage = None
        self.site_covers = {}
        self.site_utd = {}
        self._utd_asof = {}
        self._delivered_gseq = -1
        self.proc.start()
        self.proc.every(self.config.checkpoint_interval, self._checkpoint_tick)
        self.proc.every(self.config.rectable_flush_interval, self._rectable_tick)
        self.proc.every(self.config.cover_announce_interval, self._cover_announce_tick)
        self.network.bring_up(self.xfer.node_id)
        self.reconfig.on_start()
        self.gcs.start()

    @property
    def status(self) -> SiteStatus:
        return self._status

    def _set_status(self, new: SiteStatus, why: str = "") -> None:
        """The one writer of the site status: a no-op when nothing
        changes, otherwise a ``status/<new>`` event whose detail is
        ``why`` or, by default, ``was <old>``.  Every ordered pair among
        the four live statuses occurs in practice, so there is no
        legality table; the one rule with content is checked here."""
        old = self._status
        if new is old:
            return
        if old is SiteStatus.DOWN and new is not SiteStatus.STALLED:
            raise RuntimeError(
                f"{self.site_id} is down and changes status only by restarting "
                f"into stalled, not to {new.value} ({why or 'no reason given'})"
            )
        self._status = new
        self.trace("status", new.value, why or f"was {old.value}")

    @property
    def alive(self) -> bool:
        return self.status is not SiteStatus.DOWN

    def is_processing(self) -> bool:
        return self.status is SiteStatus.ACTIVE

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(self, reads: List[str], writes: Dict[str, Any],
               request=None, on_done=None) -> Transaction:
        """Submit a transaction at this site (phases I and II).

        ``request`` tags the transaction with a client session's durable
        :class:`~repro.replication.messages.RequestId` (exactly-once
        dedup); ``on_done`` is invoked once when the attempt terminates.

        Raises RuntimeError when the site cannot currently process
        transactions (not an up-to-date member of the primary component).
        """
        if not self.is_processing():
            raise RuntimeError(f"{self.site_id} is {self.status.value}, cannot process")
        self._local_seq += 1
        txn = Transaction(
            txn_id=f"{self.site_id}#{self._local_seq}",
            origin=self.site_id,
            reads=list(reads),
            writes=dict(writes),
            submitted_at=self.sim.now,
            request=request,
            on_done=on_done,
        )
        self._local_txns[txn.txn_id] = txn
        if self.obs is not None:
            self.trace("txn", "submit", data={"txn": txn.txn_id})
        if self.config.protocol == "conservative":
            # No local read phase: everything executes at delivery time
            # in total order (no version check, no aborts).
            self._send_phase(txn, deferred_reads=tuple(txn.reads))
            return txn
        if not txn.reads:
            self._send_phase(txn)
            return txn
        pending = {"count": len(txn.reads)}

        def on_grant(_request, txn=txn, pending=pending) -> None:
            pending["count"] -= 1
            if pending["count"] == 0 and not txn.done:
                delay = self.config.read_op_time * len(txn.reads)
                self.proc.after(delay, self._finish_read_phase, txn)

        for obj in txn.reads:
            self.db.locks.request(txn.txn_id, obj, LockMode.SHARED, on_grant)
        return txn

    def _finish_read_phase(self, txn: Transaction) -> None:
        if txn.done:
            return
        for obj in txn.reads:
            value, version = self.db.store.read(obj)
            txn.read_set[obj] = version
        self._send_phase(txn)

    def _send_phase(self, txn: Transaction, deferred_reads: tuple = ()) -> None:
        txn.state = TxnState.SENT
        txn.sent_at = self.sim.now
        message = TransactionMessage(
            origin=self.site_id,
            local_id=txn.txn_id,
            read_set=tuple(sorted(txn.read_set.items())),
            write_set=tuple(sorted(txn.writes.items())),
            deferred_reads=deferred_reads,
            request=txn.request,
        )
        self._multicast(message)

    def _multicast(self, payload: Any) -> None:
        self.gcs.multicast(payload)

    # ------------------------------------------------------------------
    # GCS application callbacks
    # ------------------------------------------------------------------
    def flush_state(self) -> Dict[str, Any]:
        # "asof" stamps how current this snapshot's knowledge is: the
        # highest gseq processed before the freeze.  Receivers use it to
        # ignore ``utd`` claims that are provably staler than their own
        # locally delivered announcements (see _handle_membership_change).
        repl = {"utd": self.up_to_date, "cover": self.db.cover_gid(),
                "asof": self._delivered_gseq}
        # Backend-specific flush keys (empty for vs/evs, so their
        # flushed states stay byte-identical to the pre-backend code).
        repl.update(self.reconfig.flush_extra())
        return {"repl": repl}

    def on_message(self, sender: str, payload: Any, gseq: int) -> None:
        if self.status in (SiteStatus.DOWN, SiteStatus.STALLED):
            return  # behaves as if failed (section 2.3)
        self._delivered_gseq = max(self._delivered_gseq, gseq)
        if isinstance(payload, TransactionMessage):
            if self.status is SiteStatus.RECOVERING:
                self.reconfig.on_recovering_message(gseq, payload)
            elif self.status is SiteStatus.ACTIVE:
                if self.config.serial_processing:
                    self._serial_queue.append((gseq, payload))
                    self._serial_advance()
                else:
                    self.process_delivered(gseq, payload)
            return
        # Everything else in the total-order stream (announcements,
        # creation reports, the logless backend's config writes) is
        # recorded as a no-op so the gid stream stays aligned across
        # sites and backends; what it means lives in the manager.
        if self.status is SiteStatus.ACTIVE:
            self.db.log_noop(gseq)
            self.last_processed_gid = gseq
        if isinstance(payload, (UpToDateAnnouncement, CoverAnnouncement)):
            self.site_covers[payload.site] = payload.cover_gid
            self._purge_rectable()
        if not isinstance(payload, CoverAnnouncement):
            self.reconfig.on_control(payload, gseq)

    def note_up_to_date(self, site: str, gseq: int) -> None:
        """``site`` became up to date at the ordered point ``gseq`` (its
        announcement, or the config write that added it, was delivered):
        the stamp lets :meth:`_handle_membership_change` ignore flushed
        ``utd: False`` claims that are older than this delivery."""
        self.site_utd[site] = True
        self._utd_asof[site] = gseq

    # A membership change goes to the manager first: it asks
    # :meth:`_handle_membership_change` for the backend-agnostic fold and
    # applies its own policy around it.
    def on_view_change(self, view: View, states: Dict[str, Dict[str, Any]]) -> None:
        """The plain group member installed a view."""
        self.reconfig.on_view_change(view, states)

    def on_eview_change(self, eview, reason: str, states, gseq: Optional[int] = None) -> None:
        """The enriched group member installed a view or changed its e-view."""
        self.reconfig.on_eview_change(eview, reason, states, gseq)

    def on_primary_demoted(self) -> None:
        """The GCS detected that our view went stale (the rest of the
        group moved on to a view excluding us): behave as if failed,
        exactly like a view change into a minority view (section 2.3).
        Without this a site could miss transactions while still
        believing it is an up-to-date primary member."""
        if self.status in (SiteStatus.ACTIVE, SiteStatus.RECOVERING, SiteStatus.SUSPENDED):
            self._stall()
            self.reconfig.on_demoted()

    # ------------------------------------------------------------------
    # Membership change handling
    # ------------------------------------------------------------------
    def _handle_membership_change(self, view: View, states: Dict[str, Dict[str, Any]]) -> None:
        """Fold an installed view into this site's knowledge and status.

        Called by the manager from its GCS callback.  What differs
        between backends is asked of the manager: whether this site is
        structurally in the primary component, whether any member is up
        to date, and what the (e-)view itself says about who is."""
        if self.status is SiteStatus.DOWN:
            return
        if self.site_id in self.member.stale_members and self.up_to_date:
            # The total-order lineage delivered messages we never saw
            # (lost SYNC / stale view), or the flush cannot vouch that we
            # saw them (the direct-member rule): our copy may be silently
            # behind, so up-to-date status is lost and a data transfer or
            # the creation protocol must refresh us like any other joiner.
            self.up_to_date = False
        primary = self.member.is_primary()
        # Update knowledge about other sites from the flushed states.
        # Flushed app states are captured at FREEZE time, *before* the
        # flush cut's still-pending messages are delivered at install —
        # so a peer's ``utd: False`` claim can be staler than an
        # UpToDateAnnouncement this site delivered riding the cut.  Each
        # claim carries the claimant's processed-gseq watermark ("asof");
        # a negative claim older than our locally delivered announcement
        # for that site is ignored.  Genuinely fresh downgrades (the
        # claimant revoked its own up-to-dateness after announcing) have
        # asof >= the announcement gseq and pass through, and gseq-gap
        # staleness is overridden by ``stale_members`` right below.
        for site, state in states.items():
            repl = state.get("repl")
            if repl is not None:
                self.site_covers[site] = repl["cover"]
                claim = repl["utd"]
                if not claim and (
                    repl.get("asof", -1) < self._utd_asof.get(site, -1)
                ):
                    claim = self.site_utd.get(site, claim)
                self.site_utd[site] = claim
        # Members the view change itself identified as stale override
        # their own (possibly outdated) up-to-date claims.
        for site in self.member.stale_members:
            self.site_utd[site] = False
        # Where up-to-dateness is structural the view itself outranks
        # the flushed claims.
        self.site_utd.update(self.reconfig.view_up_to_date())
        self.site_utd[self.site_id] = self.up_to_date

        # Traced before the status decision, so the ``status/*`` event
        # of this installation follows its ``view/install``.
        self.trace("view", "install", f"{view} primary={primary}")
        if not primary:
            self._stall()
        elif self.reconfig.in_primary_component() and self.up_to_date:
            self._set_status(SiteStatus.ACTIVE)
            self.utd_lineage = self.member.lineage
        elif self.reconfig.any_up_to_date(view):
            self._demote(SiteStatus.RECOVERING)
        else:
            self._demote(SiteStatus.SUSPENDED)

    def _stall(self) -> None:
        """Leave the primary component: behave as if failed (section 2.3)."""
        if self.status is SiteStatus.DOWN:
            return
        was_stalled = self.status is SiteStatus.STALLED
        self._set_status(SiteStatus.STALLED)
        self.up_to_date = False
        self.gcs.cancel_pending()
        if not was_stalled:
            self._drop_in_flight(AbortReason.SITE_LEFT_PRIMARY, rollback=True)

    def _demote(self, status: SiteStatus) -> None:
        """Stop processing without leaving the primary component.

        The view-change flush delivers messages while this site's status
        is still the pre-change one, so lock requests and write phases
        for those transactions may be parked in lock queues or the event
        scheduler by the time the demotion happens.  They must be torn
        down the same way :meth:`_stall` does it.  Left alone, those
        write phases would resume after reactivation and commit against
        a store that was rebuilt as of an older gid, silently diverging
        the replica.
        """
        was_active = self.status is SiteStatus.ACTIVE
        self._set_status(status)
        if was_active:
            self._drop_in_flight(AbortReason.SITE_LEFT_PRIMARY, rollback=True)

    def _drop_in_flight(self, reason: AbortReason, rollback: bool) -> None:
        """Abort the local transactions and forget the delivered ones.

        A site that stops processing but keeps running (``rollback``)
        rolls its in-flight delivered transactions back *without*
        terminating them: they may have committed elsewhere, so the
        unterminated Begin records keep the cover below them and the
        upcoming transfer (or creation round) restores them if they
        did.  A crash loses the volatile state anyway and leaves the
        log to single-site recovery.
        """
        for txn in list(self._local_txns.values()):
            self._finish_local(txn, TxnState.ABORTED, reason)
        if rollback:
            for gid, delivered in list(self._delivered.items()):
                if delivered.pending_writes or delivered.applied_writes:
                    self._rollback_delivered(gid)
        self._delivered.clear()
        self.db.reset_version_tags()
        self._quiescence_waiters.clear()
        self._serial_queue.clear()
        self._serial_current = None

    def _become_active(self) -> None:
        self.up_to_date = True
        self.site_utd[self.site_id] = True
        self._set_status(SiteStatus.ACTIVE, "up to date")
        self.utd_lineage = self.member.lineage

    # ------------------------------------------------------------------
    # Serialization / write / commit phases (III-V)
    # ------------------------------------------------------------------
    def certify(self, gid: int, message: TransactionMessage) -> Optional[bool]:
        """The certification decision for ``gid``, taken identically by a
        site processing the delivery live and by a joiner replaying it.

        Returns ``None`` when the message is a duplicate of a settled
        client request (the gid is consumed as a no-op), ``False`` when
        the version check aborts it (logged and emitted here) and
        ``True`` when the caller may go on to write.
        """
        db = self.db
        request = message.request
        # Exactly-once dedup (before any execution): a request whose
        # outcome is already settled in the replicated table is answered
        # from the table, never re-executed.  The check is a
        # deterministic function of the gid prefix, so every site
        # suppresses (or executes) the same deliveries.
        if request is not None and db.outcomes.is_duplicate(request):
            db.log_noop(gid)
            self.last_processed_gid = gid
            self.duplicates_suppressed += 1
            return None
        db.log_begin(gid)
        self.last_processed_gid = gid
        # III.2 version check.  Either way the decision for this gid is
        # now settled system-wide (the write phase only installs a
        # commit), so the outcome is recorded immediately — a duplicate
        # delivered in the very next slot must already see it.
        passed = db.version_check(message.reads())
        if request is not None:
            db.outcomes.record(request, gid, passed)
        if not passed:
            db.abort(gid, request)
            self._emit("abort", gid, message)
        return passed

    def process_delivered(self, gid: int, message: TransactionMessage) -> None:
        """Phase III, executed atomically at delivery."""
        if self.obs is not None:
            self.trace("txn", "deliver", data={"txn": message.local_id, "gid": gid})
        verdict = self.certify(gid, message)
        if verdict is None:
            self._answer_duplicate(gid, message)
            return
        if not verdict:
            if message.origin == self.site_id:
                txn = self._local_txns.get(message.local_id)
                if txn is not None and not txn.done:
                    txn.gid = gid
                    self._finish_local(txn, TxnState.ABORTED, AbortReason.VERSION_CHECK)
            self._check_quiescence()
            return
        delivered = DeliveredTxn(gid=gid, message=message)
        self._delivered[gid] = delivered

        writes = message.writes()
        owner = message.local_id  # globally unique: "<origin>#<seq>"

        # III.3 abort local transactions *in their local phase* (reading,
        # or sent but not yet delivered) that hold conflicting read
        # locks.  Once a transaction's own message has been delivered it
        # is past the serialization point and must not be aborted here.
        for obj in writes:
            for holder_id, mode in self.db.locks.holder_items(obj):
                if holder_id == owner:
                    continue
                local = self._local_txns.get(holder_id)
                if (
                    local is not None
                    and local.state in (TxnState.LOCAL_READ, TxnState.SENT)
                    and mode is LockMode.SHARED
                ):
                    self._finish_local(local, TxnState.ABORTED,
                                       AbortReason.LOCAL_READER_CONFLICT)

        if message.origin == self.site_id:
            txn = self._local_txns.get(message.local_id)
            if txn is not None and not txn.done:
                txn.gid = gid
                txn.state = TxnState.EXECUTING

        # Conservative protocol: the origin executes the reads at delivery
        # time under shared locks — ordered by the total order, so the
        # values seen are exactly those of the serial gid-order execution.
        if message.deferred_reads and message.origin == self.site_id:
            delivered.pending_reads = set(message.deferred_reads)
            on_grant = self._make_deferred_read_handler(gid)
            for obj in message.deferred_reads:
                self.db.locks.request(owner, obj, LockMode.SHARED, on_grant)

        if not writes:
            if not delivered.pending_reads:
                self._commit_delivered(gid)
            return

        self.db.tag_writes(gid, writes.keys())
        delivered.pending_writes = set(writes)
        if self.config.batch_writes:
            delivered.ungranted_writes = set(writes)
            # One shared grant handler per transaction (the granted
            # request carries the resource), not one closure per write.
            on_grant = self._make_bulk_grant_handler(gid)
            request = self.db.locks.request
            for obj in writes:
                request(owner, obj, LockMode.EXCLUSIVE, on_grant)
        else:
            for obj, value in writes.items():
                self.db.locks.request(
                    owner,
                    obj,
                    LockMode.EXCLUSIVE,
                    self._make_write_grant_handler(gid, obj, value),
                )

    def _answer_duplicate(self, gid: int, message: TransactionMessage) -> None:
        """Answer a resubmitted request from the outcome table.

        :meth:`certify` consumed the gid as a no-op (cover continuity)
        and no history events are emitted — every site suppresses the
        same delivery, so the gid uniformly has no transaction.  If this
        site originated the resubmission, its local attempt is resolved
        with the settled outcome: the client sees the original commit,
        or a DUPLICATE abort when it already gave up on a newer attempt.
        """
        self.trace("client", "duplicate_suppressed",
                   f"gid={gid} request={message.request}")
        if message.origin == self.site_id:
            # Resolve the local attempt with the same latency a real
            # commit has (one write phase), never synchronously at
            # delivery: a suppression processed inside a view-change
            # flush may be tentative, and answering the client from a
            # tentative entry is irreversible.  The delay gives a
            # concurrent stall/demotion/crash the chance to abort the
            # attempt first (SITE_LEFT_PRIMARY / SITE_CRASHED — the
            # client then resolves it through a safe resubmission),
            # exactly as it preempts an in-flight tentative write phase.
            self.proc.after(self.config.write_op_time,
                            self._resolve_suppressed, gid, message)
        self._check_quiescence()

    def _resolve_suppressed(self, gid: int, message: TransactionMessage) -> None:
        """Answer the origin's local attempt from the outcome table, one
        write-phase after the suppression (see :meth:`_answer_duplicate`)."""
        txn = self._local_txns.get(message.local_id)
        if txn is not None and not txn.done:
            row = self.db.outcomes.lookup(message.request)
            if row is not None and row[4]:
                txn.gid = row[3]
                self._finish_local(txn, TxnState.COMMITTED, None)
            else:
                txn.gid = gid
                self._finish_local(txn, TxnState.ABORTED, AbortReason.DUPLICATE)
        # No write phase ever runs under this local_id, so the read locks
        # from the attempt's local read phase must be dropped explicitly —
        # a commit-from-table would otherwise leave shared locks behind
        # that block every later writer at this site only.
        self.db.locks.cancel(message.local_id)

    def _make_write_grant_handler(self, gid: int, obj: str, value: Any):
        def on_grant(_request) -> None:
            self.proc.after(self.config.write_op_time, self._apply_write, gid, obj, value)

        return on_grant

    def _make_bulk_grant_handler(self, gid: int):
        def on_grant(request) -> None:
            delivered = self._delivered.get(gid)
            if delivered is None or delivered.rolled_back:
                return
            delivered.ungranted_writes.discard(request.resource)
            if not delivered.ungranted_writes:
                # All write locks held as of now; one write phase applies
                # the whole write set after a single write_op_time — the
                # same instant the per-op mode would apply its last write
                # and commit.
                self._schedule_bulk_apply(gid)

        return on_grant

    def _schedule_bulk_apply(self, gid: int) -> None:
        """Queue ``gid`` for its write phase at now + write_op_time.

        Every transaction whose last write lock is granted within one
        simulator tick falls due at the same instant, so they share one
        drain event instead of one event each.  The drain applies them
        in grant order — exactly the order (and timestamp) the separate
        events would have run in, since same-time events fire in
        creation order.
        """
        due = self.sim.now + self.config.write_op_time
        batch = self._bulk_apply_batches.get(due)
        if batch is None:
            self._bulk_apply_batches[due] = [gid]
            self.proc.after(self.config.write_op_time, self._drain_bulk_applies, due)
        else:
            batch.append(gid)

    def _drain_bulk_applies(self, due: float) -> None:
        for gid in self._bulk_apply_batches.pop(due, ()):
            self._apply_writes_bulk(gid)

    def _apply_writes_bulk(self, gid: int) -> None:
        delivered = self._delivered.get(gid)
        if delivered is None or delivered.rolled_back:
            return
        writes = delivered.message.writes()
        for obj, value in writes.items():
            self.db.apply_write(gid, obj, value)
        delivered.applied_writes = len(writes)
        delivered.pending_writes.clear()
        if not delivered.pending_reads:
            self._commit_delivered(gid)

    def _make_deferred_read_handler(self, gid: int):
        def on_grant(request) -> None:
            self.proc.after(self.config.read_op_time, self._apply_deferred_read,
                            gid, request.resource)

        return on_grant

    def _apply_deferred_read(self, gid: int, obj: str) -> None:
        delivered = self._delivered.get(gid)
        if delivered is None or delivered.rolled_back:
            return
        txn = self._local_txns.get(delivered.message.local_id)
        if txn is not None:
            value, version = self.db.store.read(obj)
            txn.read_results[obj] = value
            txn.read_set[obj] = version
        delivered.pending_reads.discard(obj)
        if not delivered.pending_reads and not delivered.pending_writes:
            self._commit_delivered(gid)

    def _apply_write(self, gid: int, obj: str, value: Any) -> None:
        delivered = self._delivered.get(gid)
        if delivered is None or delivered.rolled_back:
            return
        self.db.apply_write(gid, obj, value)
        delivered.pending_writes.discard(obj)
        delivered.applied_writes += 1
        if not delivered.pending_writes and not delivered.pending_reads:
            self._commit_delivered(gid)

    def _commit_delivered(self, gid: int) -> None:
        delivered = self._delivered.pop(gid, None)
        if delivered is None:
            return
        message = delivered.message
        self.db.commit(gid, message.request)
        self.db.locks.release(message.local_id)
        self.commits += 1
        self._emit("commit", gid, message)
        if message.origin == self.site_id:
            txn = self._local_txns.get(message.local_id)
            if txn is not None and not txn.done:
                txn.gid = gid
                self._finish_local(txn, TxnState.COMMITTED, None)
        self._check_quiescence()
        if self.config.serial_processing:
            self._serial_done(gid)

    # ------------------------------------------------------------------
    # Serial application mode (ablation)
    # ------------------------------------------------------------------
    def _serial_advance(self) -> None:
        """Pop and fully process one delivered transaction at a time."""
        if self._serial_current is not None or not self._serial_queue:
            return
        if self.status is not SiteStatus.ACTIVE:
            return
        gid, message = self._serial_queue.pop(0)
        self._serial_current = gid
        self.process_delivered(gid, message)
        if self._serial_current == gid and gid not in self._delivered:
            # Terminated synchronously (version-check abort / no writes).
            self._serial_current = None
            self.sim.call_soon(self._serial_advance)

    def _serial_done(self, gid: int) -> None:
        if self._serial_current == gid:
            self._serial_current = None
            self.sim.call_soon(self._serial_advance)

    def _rollback_delivered(self, gid: int) -> None:
        delivered = self._delivered.get(gid)
        if delivered is None:
            return
        delivered.rolled_back = True
        self.db.rollback(gid)
        self.db.locks.cancel(delivered.message.local_id)
        if delivered.message.request is not None:
            # The tentative outcome recorded at delivery never settled:
            # drop it, or it would leak into transfer snapshots and
            # creation reports and suppress the request's legitimate
            # resubmission in the surviving lineage.
            self.db.outcomes.expunge_gids((gid,))

    # ------------------------------------------------------------------
    # Local transaction termination
    # ------------------------------------------------------------------
    def _finish_local(self, txn: Transaction, state: TxnState, reason) -> None:
        if txn.done:
            return
        txn.state = state
        txn.abort_reason = reason
        txn.finished_at = self.sim.now
        # The submitter's handle outlives this; the table is what is in flight.
        self._local_txns.pop(txn.txn_id, None)
        if state is TxnState.ABORTED:
            self.db.locks.cancel(txn.txn_id)
            self.local_aborts += 1
        if txn.on_done is not None:
            # Session callback; fired exactly once (guarded by txn.done
            # above).  Sessions only schedule follow-up work on the sim
            # clock here, they never re-enter the node synchronously.
            txn.on_done(txn)
        if self.obs is not None:
            self.trace("txn", "done", data={"txn": txn.txn_id, "state": state.value})

    # ------------------------------------------------------------------
    # Quiescence support for the transfer strategies
    # ------------------------------------------------------------------
    def call_when_quiescent_below(self, boundary_gid: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` once every delivered transaction with
        gid <= boundary has terminated at this site (section 4.5, lock
        phase: "wait until all transactions delivered before the view
        change have terminated")."""
        if self._quiescent_below(boundary_gid):
            callback()
        else:
            self._quiescence_waiters.append((boundary_gid, callback))

    def _quiescent_below(self, boundary_gid: int) -> bool:
        return all(gid > boundary_gid for gid in self._delivered)

    def _check_quiescence(self) -> None:
        if not self._quiescence_waiters:
            return
        ready = [(b, cb) for b, cb in self._quiescence_waiters if self._quiescent_below(b)]
        self._quiescence_waiters = [
            (b, cb) for b, cb in self._quiescence_waiters if not self._quiescent_below(b)
        ]
        for _, callback in ready:
            callback()

    # ------------------------------------------------------------------
    # Periodic background tasks
    # ------------------------------------------------------------------
    def _checkpoint_tick(self) -> None:
        # Under plain reliable delivery the log's before-images may still
        # have to compensate phantom commits (section 2.3): keep it whole.
        self.db.checkpoint(truncate_log=self.member.config.uniform)

    def _rectable_tick(self) -> None:
        self.db.rectable.flush_pending(self.config.rectable_flush_limit)

    def _cover_announce_tick(self) -> None:
        if self.status is SiteStatus.ACTIVE:
            self._multicast(CoverAnnouncement(site=self.site_id, cover_gid=self.db.cover_gid()))

    def _purge_rectable(self) -> None:
        # Use the member's (possibly dynamically grown) universe: a record
        # may only go once every site known to the group has covered it.
        known = [
            self.site_covers.get(site, -1)
            for site in self.member.universe
            if site != self.site_id
        ]
        known.append(self.db.cover_gid())
        self.db.rectable.purge(min(known))

    # ------------------------------------------------------------------
    # Transfer channel
    # ------------------------------------------------------------------
    def _on_transfer_message(self, src: str, payload: Any) -> None:
        if self.alive:
            self.reconfig.on_transfer_message(src, payload)

    def send_transfer(self, site: str, payload: Any) -> None:
        self.xfer.send(f"{site}:xfer", payload)

    # ------------------------------------------------------------------
    def trace(self, category: str, kind: str, detail: str = "", data=None) -> None:
        """The site's one event sink: record a protocol/fault/transaction
        event with the attached tracer, if any (catalogue of emit points:
        docs/OBSERVABILITY.md)."""
        if self.tracer is not None:
            self.tracer.emit(self.site_id, category, kind, detail, data=data)

    def _emit(self, kind: str, gid: int, message: TransactionMessage) -> None:
        if self.on_txn_event is not None:
            self.on_txn_event(self.site_id, kind, gid, message)
        if self.obs is not None:
            self.trace("txn", kind, data={"txn": message.local_id, "gid": gid})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.site_id} {self.status.value}{' utd' if self.up_to_date else ''}>"
