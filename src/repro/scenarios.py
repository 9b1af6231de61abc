"""Scripted end-to-end scenarios, shared by tests, examples and benchmarks.

The two figure scenarios reproduce the paper's running examples:

* :func:`run_figure1_scenario` — the cascading-reconfiguration sequence
  of Figure 1: a site fails and recovers, its peer fails *during* the
  data transfer, a replacement peer takes over, and a partition later
  isolates and returns part of the system.  Under plain virtual
  synchrony this exercises the explicit status sub-protocol; under EVS
  the same schedule is handled structurally (Figure 2, section 5.2).
* :func:`run_recovery_experiment` — the parameterised single-recovery
  experiment used by the strategy benchmarks: workload, crash, downtime,
  recovery, measurement of transfer cost and interference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cluster import Cluster, ClusterBuilder, FaultSchedule
from repro.replication.node import NodeConfig, SiteStatus
from repro.workload.generator import LoadGenerator, WorkloadConfig
from repro.workload.metrics import ThroughputTimeline, summarize_latencies


@dataclass
class ScenarioReport:
    """What a scripted scenario measured."""

    mode: str
    strategy: str
    completed: bool
    duration: float
    commits: int
    aborts: int
    transfers_started: int
    transfers_completed: int
    announcements: int
    svs_merges: int = 0
    sv_merges: int = 0
    replayed: int = 0
    notes: List[str] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)
    #: The cluster the scenario ran on, for post-hoc verification and
    #: instrumentation (events processed, network counters).  Excluded
    #: from equality so reports still compare by their measurements.
    cluster: Optional[Cluster] = field(default=None, repr=False, compare=False)

    def coordination_events(self) -> int:
        """Reconfiguration coordination volume: announcements under VS,
        merge requests under EVS (the quantity Figures 1 vs 2 contrast)."""
        return self.announcements + self.svs_merges + self.sv_merges

    def payload(self) -> Dict[str, object]:
        """A picklable plain-data view of the report (everything except
        the live cluster), used by the :mod:`repro.fleet` workers to
        ship results across the process boundary."""
        return {
            "mode": self.mode,
            "strategy": self.strategy,
            "completed": self.completed,
            "duration": self.duration,
            "commits": self.commits,
            "aborts": self.aborts,
            "transfers_started": self.transfers_started,
            "transfers_completed": self.transfers_completed,
            "announcements": self.announcements,
            "svs_merges": self.svs_merges,
            "sv_merges": self.sv_merges,
            "replayed": self.replayed,
            "notes": list(self.notes),
            "extra": dict(self.extra),
        }


#: Observers called with every freshly collected ScenarioReport (which
#: carries its cluster).  The benchmark conftest registers one to
#: re-verify completion and consistency of every scenario a benchmark
#: runs, without each benchmark repeating the assertions.
ReportHook = Callable[[ScenarioReport], None]
_report_hooks: List[ReportHook] = []


def add_report_hook(hook: ReportHook) -> ReportHook:
    """Register an observer for every collected scenario report."""
    _report_hooks.append(hook)
    return hook


def remove_report_hook(hook: ReportHook) -> None:
    try:
        _report_hooks.remove(hook)
    except ValueError:
        pass


def _collect_report(cluster: Cluster, load: LoadGenerator, mode: str, strategy,
                    completed: bool) -> ScenarioReport:
    if not isinstance(strategy, str):
        strategy = strategy.name
    transfers_started = transfers_completed = announcements = 0
    svs = sv = replayed = 0
    for node in cluster.nodes.values():
        manager = node.reconfig
        transfers_started += manager.transfers_started
        transfers_completed += manager.transfers_completed
        announcements += manager.announcements_sent
        replayed += manager.replayed_transactions
        svs += getattr(manager, "svs_merges_issued", 0)
        sv += getattr(manager, "sv_merges_issued", 0)
    report = ScenarioReport(
        mode=mode,
        strategy=strategy,
        completed=completed,
        duration=cluster.sim.now,
        commits=len(load.committed()),
        aborts=len(load.aborted()),
        transfers_started=transfers_started,
        transfers_completed=transfers_completed,
        announcements=announcements,
        svs_merges=svs,
        sv_merges=sv,
        replayed=replayed,
        cluster=cluster,
    )
    for hook in list(_report_hooks):
        hook(report)
    return report


def run_figure1_scenario(
    mode: str = "vs",
    strategy: str = "rectable",
    seed: int = 17,
    db_size: int = 300,
    arrival_rate: float = 80.0,
    check: bool = True,
    batching: bool = True,
) -> ScenarioReport:
    """The cascading reconfiguration of Figure 1 (and, under ``evs``, the
    encapsulated equivalent of Figure 2) on five sites; ``mode`` names
    the reconfiguration backend:

    1. all five sites process a steady workload;
    2. S5 crashes and later recovers; a peer starts the data transfer;
    3. the peer crashes before the transfer completes (cascade #1) and a
       replacement peer resumes/restarts it;
    4. a partition then isolates {S4, S5} (cascade #2) and heals;
    5. the system must return to five active, identical replicas.
    """
    node_config = NodeConfig(transfer_obj_time=0.002, transfer_batch_size=25)
    cluster = ClusterBuilder(
        n_sites=5, db_size=db_size, seed=seed, strategy=strategy, mode=mode,
        node_config=node_config, batching=batching,
    ).build()
    from repro.tracing import attach_tracer

    attach_tracer(cluster)
    cluster.start()
    if not cluster.await_all_active(timeout=15):
        raise RuntimeError("bootstrap failed")
    load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=arrival_rate,
                                                 reads_per_txn=1, writes_per_txn=2))
    load.start()
    cluster.run_for(0.5)

    # Step 2: S5 fails and recovers.
    cluster.crash("S5")
    cluster.run_for(0.5)
    cluster.recover("S5")

    def transfer_running() -> bool:
        return any(
            node.alive and node.reconfig.sessions_out.get("S5")
            for node in cluster.nodes.values()
        )

    if not cluster.await_condition(transfer_running, timeout=10):
        raise RuntimeError("transfer to S5 never started")
    peer = next(
        site for site, node in cluster.nodes.items()
        if node.alive and node.reconfig.sessions_out.get("S5")
    )

    # Step 3: the peer fails mid-transfer.
    cluster.run_for(0.1)
    cluster.crash(peer)
    ok_s5 = cluster.await_condition(
        lambda: cluster.nodes["S5"].status is SiteStatus.ACTIVE, timeout=30
    )
    cluster.recover(peer)
    cluster.await_all_active(timeout=30)

    # Step 4: partition isolating {S4, S5}, then heal.
    cluster.run_for(0.3)
    cluster.partition([["S1", "S2", "S3"], ["S4", "S5"]])
    cluster.run_for(1.0)
    cluster.heal()
    ok_all = cluster.await_all_active(timeout=30)

    load.stop()
    cluster.settle(1.0)
    completed = ok_s5 and ok_all
    if check:
        cluster.check()
    report = _collect_report(cluster, load, mode, strategy, completed)
    report.notes.append(f"first peer was {peer}")
    return report


def run_recovery_experiment(
    strategy: str = "rectable",
    mode: str = "vs",
    n_sites: int = 3,
    db_size: int = 500,
    seed: int = 23,
    arrival_rate: float = 150.0,
    reads_per_txn: int = 1,
    writes_per_txn: int = 2,
    downtime: float = 1.0,
    node_config: Optional[NodeConfig] = None,
    rejoin_timeout: float = 60.0,
    check: bool = True,
    fault_storm: str = "none",
) -> ScenarioReport:
    """One site crashes, stays down for ``downtime``, recovers, rejoins.

    This is the parameterised experiment behind benchmarks E3-E7: the
    sweep dimensions (database size, throughput, read/write ratio,
    downtime -> update fraction, reconfiguration backend = ``mode``) are
    all arguments.  ``fault_storm="partition"`` adds a *pinned* storm on top
    of the crash: a bystander site is partitioned away while the victim
    is still down and healed mid-rejoin, at fixed virtual times — the
    same storm byte-for-byte regardless of backend, which is what makes
    the E7 head-to-head comparison fair.
    """
    if fault_storm not in ("none", "partition"):
        raise ValueError(f"unknown fault_storm {fault_storm!r}")
    if fault_storm == "partition" and n_sites < 5:
        raise ValueError("fault_storm='partition' needs n_sites >= 5 "
                         "(a majority must survive victim + bystander out)")
    node_config = node_config or NodeConfig(transfer_obj_time=0.0005)
    cluster = ClusterBuilder(
        n_sites=n_sites, db_size=db_size, seed=seed, strategy=strategy, mode=mode,
        node_config=node_config,
    ).build()
    # The bare tracer is observation-equivalent (no RNG draws, no
    # scheduling) and feeds the epoch phase decomposition the E7 sweep
    # reports.
    from repro.tracing import attach_tracer

    tracer = attach_tracer(cluster)
    cluster.start()
    if not cluster.await_all_active(timeout=15):
        raise RuntimeError("bootstrap failed")
    load = LoadGenerator(
        cluster,
        WorkloadConfig(
            arrival_rate=arrival_rate,
            reads_per_txn=reads_per_txn,
            writes_per_txn=writes_per_txn,
        ),
    )
    load.start()
    cluster.run_for(0.5)

    victim = f"S{n_sites}"
    cluster.crash(victim)
    if fault_storm == "partition":
        bystander = f"S{n_sites - 1}"
        majority = [s for s in cluster.universe
                    if s not in (bystander,)]
        now = cluster.sim.now
        cluster.apply_fault_schedule(
            FaultSchedule()
            .partition(now + downtime * 0.5, [majority, [bystander]])
            .heal(now + downtime + 0.3)
        )
    cluster.run_for(downtime)
    recover_at = cluster.sim.now
    cluster.recover(victim)
    rejoined = cluster.await_condition(
        lambda: cluster.nodes[victim].status is SiteStatus.ACTIVE, timeout=rejoin_timeout
    )
    recovery_time = cluster.sim.now - recover_at
    load.stop()
    cluster.settle(1.0)
    if check:
        cluster.check()

    report = _collect_report(cluster, load, mode, strategy, rejoined)
    node = cluster.nodes[victim]
    objects_sent = sum(n.reconfig.objects_sent_total for n in cluster.nodes.values())
    bytes_sent = sum(n.reconfig.bytes_sent_total for n in cluster.nodes.values())
    timeline = ThroughputTimeline(cluster.history, bucket=0.1)
    dip = timeline.min_bucket_between(recover_at, min(recover_at + recovery_time + 0.2,
                                                      cluster.sim.now))
    latency = summarize_latencies(load.latencies())
    report.extra.update(
        {
            "recovery_time": recovery_time,
            "objects_sent": float(objects_sent),
            "bytes_sent": float(bytes_sent),
            "enqueue_high_watermark": float(node.enqueue_high_watermark),
            "throughput_dip": float(dip),
            "mean_latency": latency.mean,
            "p95_latency": latency.p95,
            "lock_wait_total": sum(
                sum(other.db.locks.wait_times) for other in cluster.nodes.values()
            ),
            "abort_rate": (
                report.aborts / (report.commits + report.aborts)
                if report.commits + report.aborts else 0.0
            ),
        }
    )
    from repro.obs.epochs import extract_epochs

    epochs = extract_epochs(tracer.events, end_time=cluster.sim.now)
    victim_epochs = [e for e in epochs if e.site == victim]
    phase_totals = {name: 0.0 for name in
                    ("down", "membership", "transfer_wait", "transfer",
                     "replay", "drain")}
    for epoch in victim_epochs:
        for name, seconds in epoch.phase_durations().items():
            phase_totals[name] += seconds
    report.extra.update({
        "epoch_count": float(len(epochs)),
        "epoch_bytes_received": float(
            sum(e.bytes_received for e in victim_epochs)),
        "epoch_retransmissions": float(
            sum(e.retransmissions for e in victim_epochs)),
        **{f"phase_{name}": seconds
           for name, seconds in phase_totals.items()},
    })
    return report
