"""The campaign engine: the one run life-cycle every fault campaign shares.

A campaign run builds a cluster, instruments it, installs the always-on
wire and storage faults, attaches a workload, lets a *driver* decide
which fault happens when, then heals everything, drains the clients,
asserts the full :mod:`repro.checkers` battery and packs the outcome
into a report.  :class:`Campaign` holds the only copy of that
life-cycle; the two drivers (:class:`repro.faults.chaos.ChaosEngine`
and :class:`repro.search.executor.ScheduleExecutor`, which runs both
endurance configs and found schedules as genomes) subclass it with a
``drive()`` method and a small block of class-level data.

Every consumer (CLI, campaign fleets, determinism audit, schedule
search) reaches a run through :func:`run_cell` /
:func:`campaign_for`, prints :func:`repro_command` and leaves evidence
through :func:`dump_artifacts`.
"""

from __future__ import annotations

import importlib
import os
import random
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from repro.artifacts import digest_lines, dump_run_artifacts, schedule_lines
from repro.checkers import ConsistencyViolation, run_all_checks
from repro.cluster import Cluster, ClusterBuilder
from repro.faults.injectors import (
    DuplicateInjector,
    LatencySpikeInjector,
    ReorderInjector,
)
from repro.faults.storage import TornTailFaults
from repro.obs.attach import attach_observability, collect_cluster_metrics, run_data
from repro.obs.export import prometheus_text
from repro.reconfig.backends import backend_by_name
from repro.replication.node import NodeConfig, SiteStatus
from repro.tracing import Tracer, attach_tracer
from repro.workload.generator import LoadGenerator, WorkloadConfig

#: Longest virtual wait for the healed cluster to become all-ACTIVE, for
#: one site to finish a rejoin, or for the client fleet to drain.
QUIESCE_TIMEOUT = 60.0

#: Campaign kind -> (module, engine class).  Resolved lazily: the driver
#: modules import this one.
_ENGINES = {
    "chaos": ("repro.faults.chaos", "ChaosEngine"),
    "endurance": ("repro.search.executor", "ScheduleExecutor"),
    "schedule": ("repro.search.executor", "ScheduleExecutor"),
}

#: (config field, ``repro chaos`` flag) for every campaign field the
#: command line can set.  :func:`repro_command` prints a config through
#: this table and ``repro.cli`` parses one back through it, so a printed
#: command always rebuilds the config it was printed from.
CLI_FLAGS: Tuple[Tuple[str, str], ...] = (
    ("mode", "--mode"),
    ("strategy", "--strategy"),
    ("n_sites", "--sites"),
    ("db_size", "--db-size"),
    ("arrival_rate", "--rate"),
    ("intensity", "--intensity"),
    ("duration", "--duration"),
    ("clients", "--clients"),
    ("segments", "--segments"),
    ("profile", "--profile"),
)


@dataclass
class CampaignConfig:
    """Shape of one campaign run: the fields every driver shares.

    ``duration`` and ``clients`` default to ``None``, meaning the
    driver's own default (a chaos storm is 3 s of open-loop load, an
    endurance run is 12 s under six client sessions); after
    construction both hold concrete values.
    """

    #: Driver key in :data:`_ENGINES`; also the ``repro chaos`` mode.
    KIND: ClassVar[str]
    DEFAULT_DURATION: ClassVar[float]
    DEFAULT_CLIENTS: ClassVar[int]
    MIN_SITES: ClassVar[int]

    seed: int = 0
    n_sites: int = 4
    db_size: int = 40
    #: Storm length in virtual seconds.
    duration: Optional[float] = None
    #: Reconfiguration backend: a repro.reconfig.backends registry name.
    mode: str = "vs"
    strategy: str = "rectable"
    arrival_rate: float = 60.0
    #: Closed-loop client sessions (repro.client) with failover and
    #: exactly-once checking; 0 drives the run with the open-loop
    #: LoadGenerator instead.
    clients: Optional[int] = None
    #: Attach the full observability layer (the tracer plus the ``txn``
    #: events the causal spans are computed from, repro.obs) instead of
    #: the bare tracer, so the run's trace and metrics can be exported.
    observe: bool = False
    #: Attach the deterministic event-loop profiler
    #: (repro.obs.profile.SimProfiler).  Observation-equivalent: the
    #: schedule, histories and digests are identical with or without it.
    profile: bool = False

    def __post_init__(self) -> None:
        if self.duration is None:
            self.duration = self.DEFAULT_DURATION
        if self.clients is None:
            self.clients = self.DEFAULT_CLIENTS

    def validate(self) -> None:
        if self.n_sites < self.MIN_SITES:
            raise ValueError(
                f"{self.KIND} needs at least {self.MIN_SITES} sites")
        if self.db_size < 1:
            raise ValueError("db_size must be at least 1")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        backend_by_name(self.mode)  # raises on unknown names
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if self.clients < 0:
            raise ValueError("clients must be non-negative")


@dataclass
class CampaignReport:
    """Outcome of one campaign run."""

    #: Driver attributes :meth:`payload` carries besides the shared core.
    PAYLOAD_EXTRAS: ClassVar[Tuple[str, ...]] = ()

    seed: int
    ok: bool = False
    error: Optional[str] = None
    #: (virtual time, action, detail) for every schedule decision taken.
    events: List[Tuple[float, str, str]] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    wal_tears: int = 0
    wal_corruptions: int = 0
    tracer: Optional[Tracer] = None
    #: Profiler handle (repro.obs.profile.SimProfiler) when the run was
    #: built with ``profile=True``.
    profiler: Optional[Any] = None
    #: Virtual end time of the run (set at finish; epoch extraction
    #: uses it to truncate still-open epochs).
    virtual_time: float = 0.0

    def epochs(self):
        """Reconfiguration epochs reconstructed from the trace."""
        from repro.obs.epochs import extract_epochs

        if self.tracer is None:
            return []
        return extract_epochs(self.tracer.events,
                              end_time=self.virtual_time or None)

    def verdict(self) -> str:
        return "PASS" if self.ok else f"FAIL ({self.error})"

    def schedule_lines(self) -> List[str]:
        """The fault schedule, one canonical line per decision."""
        return schedule_lines(self.events)

    def payload(self) -> Dict[str, Any]:
        """A picklable plain-data view of the report for the
        :mod:`repro.fleet` campaign fleets: the verdict, the aggregate
        metrics, and digests of the fault schedule and the full trace
        (the trace itself can be thousands of lines; a fleet only needs
        to compare runs, and a digest mismatch pinpoints the seed to
        re-run locally)."""
        from repro.obs.epochs import epoch_summary

        trace = self.tracer.events if self.tracer is not None else ()
        payload = {
            "epochs": epoch_summary(self.epochs()),
            "seed": self.seed,
            "ok": self.ok,
            "error": self.error,
            "fault_events": len(self.events),
            "wal_tears": self.wal_tears,
            "wal_corruptions": self.wal_corruptions,
            "metrics": dict(self.metrics),
            "schedule_digest": digest_lines(self.schedule_lines()),
            "trace_digest": digest_lines(str(event) for event in trace),
            "trace_events": len(trace),
        }
        for name in self.PAYLOAD_EXTRAS:
            payload[name] = getattr(self, name)
        return payload


class Campaign:
    """One campaign run against a freshly built cluster.

    Subclasses are *drivers*: they implement :meth:`drive` (which fault
    happens when) and :meth:`injector_rates`, may add :meth:`verdict`,
    and set the data block below.
    """

    CONFIG: ClassVar[type]
    REPORT: ClassVar[type] = CampaignReport
    #: Schedule decisions draw from ``random.Random(f"{RNG_STREAM}-{seed}")``,
    #: separate from the simulator RNG, so the storm shape depends only
    #: on the seed and not on how many draws the protocols under test
    #: happen to make.
    RNG_STREAM: ClassVar[str]
    #: Tracer category and kind prefix of :meth:`note` events.
    TRACE_CATEGORY: ClassVar[str]
    TRACE_PREFIX = ""
    #: NodeConfig.creation_majority for the run's cluster.
    CREATION_MAJORITY = False
    #: Retry jitter of the client sessions (ClientSession's backoff_jitter).
    BACKOFF_JITTER = 0.0
    #: Virtual seconds :meth:`settle_and_check` lets in-flight work
    #: finish (before, after) waiting for the client fleet to drain.
    SETTLE: ClassVar[Tuple[float, float]]
    #: The schedule entry announcing the final quiesce.
    FINAL_NOTE: ClassVar[Tuple[str, str]]
    #: A failed run dumps its evidence under ``<dir>/<prefix><seed>-<mode>``.
    ARTIFACT_PREFIX: ClassVar[str]

    def __init__(self, config: Optional[CampaignConfig] = None) -> None:
        self.config = config or self.CONFIG()
        self.config.validate()
        self.rng = random.Random(f"{self.RNG_STREAM}-{self.config.seed}")
        self.cluster: Optional[Cluster] = None
        #: The attached workload: a ClientFleet (also in ``fleet``) or,
        #: with ``clients == 0``, the open-loop LoadGenerator.
        self.load = None
        self.fleet = None
        self.storage_faults: Optional[TornTailFaults] = None
        #: True from the start of a :meth:`settle_and_check` pause until
        #: the driver resumes its schedule.
        self.maintenance = False
        self.report = self.REPORT(seed=self.config.seed)

    @classmethod
    def from_params(cls, **params: Any) -> "Campaign":
        """Build the engine from plain config fields (what fleet
        workers, audit cases and the CLI hold)."""
        return cls(cls.CONFIG(**params))

    # ------------------------------------------------------------------
    # Driver interface
    # ------------------------------------------------------------------
    def injector_rates(self) -> Tuple[float, float, Optional[float]]:
        """Always-on (duplicate, reorder, latency-spike) rates; a None
        spike rate installs no spike injector."""
        raise NotImplementedError

    def drive(self) -> None:
        """Inject the fault schedule; the workload is already running
        on an all-ACTIVE cluster."""
        raise NotImplementedError

    def verdict(self) -> None:
        """Checks beyond the invariant battery, run once the final
        quiesce has passed; set ``report.error`` to fail the run."""

    # ------------------------------------------------------------------
    # Life-cycle
    # ------------------------------------------------------------------
    def run(self) -> CampaignReport:
        if self._begin():
            self.drive()
            if self.report.error is None:
                self.note(*self.FINAL_NOTE)
                if self.settle_and_check("final quiesce"):
                    self.verdict()
        return self._finish()

    def _build(self) -> Cluster:
        config = self.config
        cluster = ClusterBuilder(
            n_sites=config.n_sites,
            db_size=config.db_size,
            seed=config.seed,
            strategy=config.strategy,
            mode=config.mode,
            node_config=NodeConfig(creation_majority=self.CREATION_MAJORITY),
        ).build()
        self.cluster = cluster
        if config.observe:
            attach_observability(cluster)
        else:
            attach_tracer(cluster)
        self.report.tracer = cluster.tracer
        if config.profile:
            from repro.obs.profile import attach_profiler

            self.report.profiler = attach_profiler(cluster)
        duplicate, reorder, spike = self.injector_rates()
        cluster.add_injector(DuplicateInjector(rate=duplicate, spread=0.02))
        cluster.add_injector(ReorderInjector(rate=reorder, max_extra=0.02))
        if spike is not None:
            cluster.add_injector(LatencySpikeInjector(
                rate=spike, spike=0.05, burst_duration=0.2))
        self.storage_faults = TornTailFaults(tear_probability=0.8,
                                             corrupt_probability=0.5)
        cluster.install_storage_faults(self.storage_faults)
        cluster.start()
        return cluster

    def _begin(self) -> bool:
        """Build the cluster, attach and start the workload.  Returns
        False when bootstrap failed (``report.error`` is then set)."""
        config = self.config
        cluster = self._build()
        workload = WorkloadConfig(arrival_rate=config.arrival_rate,
                                  reads_per_txn=1, writes_per_txn=2)
        if config.clients > 0:
            from repro.client import ClientFleet

            self.fleet = self.load = ClientFleet(
                cluster, config.clients, workload,
                backoff_jitter=self.BACKOFF_JITTER,
            )
        else:
            self.load = LoadGenerator(cluster, workload)
        if not cluster.await_all_active(timeout=15):
            self.report.error = "bootstrap failed"
            return False
        self.load.start()
        return True

    def _finish(self) -> CampaignReport:
        cluster, report = self.cluster, self.report
        report.wal_tears = self.storage_faults.tears
        report.wal_corruptions = self.storage_faults.corruptions
        report.metrics = collect_cluster_metrics(cluster)
        report.metrics.update(self.load.metrics())
        report.virtual_time = cluster.sim.now
        report.ok = report.error is None
        return report

    # ------------------------------------------------------------------
    # Helpers the drivers call
    # ------------------------------------------------------------------
    def note(self, action: str, detail: str = "") -> None:
        self.report.events.append((self.cluster.sim.now, action, detail))
        if self.cluster.tracer is not None:
            self.cluster.tracer.emit("--", self.TRACE_CATEGORY,
                                     self.TRACE_PREFIX + action, detail)

    def fail(self, message: str) -> None:
        """Record the first failure; later ones are noise after the fact."""
        if self.report.error is None:
            self.report.error = message
        self.note("fail", message)

    def restore(self) -> None:
        """Heal every partition and restart every crashed site."""
        cluster = self.cluster
        cluster.heal()
        for site in cluster.universe:
            if not cluster.nodes[site].alive:
                cluster.recover(site)

    def normalize(self) -> bool:
        """Restore, then wait until all sites are ACTIVE."""
        self.restore()
        return self.cluster.await_all_active(timeout=QUIESCE_TIMEOUT)

    def await_site_active(self, site: str) -> bool:
        node = self.cluster.nodes[site]
        return self.cluster.await_condition(
            lambda: node.status is SiteStatus.ACTIVE, timeout=QUIESCE_TIMEOUT)

    def settle_and_check(self, where: str) -> bool:
        """Pause faults, converge, drain the workload, run the full
        invariant suite (including exactly-once when client sessions
        drive the run).  Returns False on failure."""
        cluster = self.cluster
        self.maintenance = True
        if not self.normalize():
            stuck = [
                f"{s}={cluster.nodes[s].status.value}"
                for s in cluster.universe
                if cluster.nodes[s].status is not SiteStatus.ACTIVE
            ]
            self.fail(f"{where} quiesce timeout: {', '.join(stuck)}")
            return False
        self.load.stop()
        settle_before_drain, settle_after_drain = self.SETTLE
        if settle_before_drain:
            cluster.settle(settle_before_drain)
        # Sessions drive their own retries; every in-flight request must
        # reach a terminal state before exactly-once can be judged.
        if self.fleet is not None and not cluster.await_condition(
                self.fleet.drained, timeout=QUIESCE_TIMEOUT):
            self.fail(f"{where}: client drain timeout")
            return False
        if settle_after_drain:
            cluster.settle(settle_after_drain)
        try:
            run_all_checks(
                cluster.history, list(cluster.nodes.values()),
                sessions=self.fleet.sessions if self.fleet else None)
        except ConsistencyViolation as violation:
            self.fail(f"invariant violated at {where} "
                      f"(t={cluster.sim.now:.2f}): {violation}")
            return False
        return True

    def artifact_dir(self, root: str) -> str:
        config = self.config
        return os.path.join(root, f"{self.ARTIFACT_PREFIX}{config.seed}-{config.mode}")


# ----------------------------------------------------------------------
# One door for every consumer
# ----------------------------------------------------------------------
def engine_class(kind: str) -> type:
    try:
        module, name = _ENGINES[kind]
    except KeyError:
        raise ValueError(f"unknown campaign kind {kind!r}; "
                         f"known: {', '.join(_ENGINES)}") from None
    return getattr(importlib.import_module(module), name)


def campaign_for(kind: str, **params: Any) -> Campaign:
    """The engine for one campaign kind, built from plain params."""
    return engine_class(kind).from_params(**params)


def run_cell(kind: str, artifacts_dir: Optional[str] = None,
             **params: Any) -> Tuple[Campaign, Dict[str, Any]]:
    """Run one campaign cell; returns the engine and its payload.

    A failing cell adds ``payload["repro"]`` and, with an
    ``artifacts_dir``, dumps its evidence bundle there itself and lists
    the paths as ``payload["artifacts"]``: only the payload can cross a
    process boundary, the tracer and cluster cannot.
    """
    engine = campaign_for(kind, **params)
    report = engine.run()
    payload = report.payload()
    if not report.ok:
        payload["repro"] = repro_command(engine.config)
        if artifacts_dir is not None:
            payload["artifacts"] = dump_artifacts(
                engine, engine.artifact_dir(artifacts_dir))
    return engine, payload


def repro_command(config: CampaignConfig) -> str:
    """The CLI invocation that replays this exact run: ``--seed`` plus
    every :data:`CLI_FLAGS` field that differs from its default."""
    defaults = type(config)()
    parts = ["PYTHONPATH=src python -m repro chaos"]
    if config.KIND != "chaos":
        parts.append(f"--{config.KIND}")
    parts.append(f"--seed {config.seed}")
    for name, flag in CLI_FLAGS:
        value = getattr(config, name, None)
        if value is None or value == getattr(defaults, name):
            continue
        if value is True:
            parts.append(flag)
        elif isinstance(value, tuple):
            parts.append(f"{flag} {','.join(value)}")
        else:
            parts.append(f"{flag} {value}")
    return " ".join(parts)


def dump_artifacts(engine: Campaign, out_dir: str, *,
                   title: Optional[str] = None,
                   repro: Optional[str] = None,
                   extra: Optional[Dict[str, str]] = None) -> List[str]:
    """Write the evidence for one campaign run to ``out_dir`` through
    the shared :func:`repro.artifacts.dump_run_artifacts` bundle
    (schedule, trace timeline, availability timeline when the driver
    samples one, per-site WALs, metrics, repro command).  A genome-driven
    run also leaves its genome as ``schedule.json``, which ``repro
    search --replay`` runs.  Returns the paths written."""
    report, config = engine.report, engine.config
    genome = getattr(engine, "genome", None)
    if repro is None:
        repro = repro_command(config)
        if genome is not None:
            repro += ("\nPYTHONPATH=src python -m repro search --replay "
                      + os.path.join(out_dir, "schedule.json"))
    if genome is not None:
        extra = {"schedule.json": genome.dumps(), **(extra or {})}
    return dump_run_artifacts(
        out_dir,
        title=title or f"{config.KIND} seed={report.seed} — {report.verdict()}",
        repro_command=repro,
        schedule=report.events,
        samples=getattr(report, "samples", None),
        tracer=report.tracer,
        metrics=report.metrics,
        cluster=engine.cluster,
        prometheus=(prometheus_text(run_data(engine.cluster, report.tracer).metrics)
                    if config.observe else None),
        extra=extra,
    )
