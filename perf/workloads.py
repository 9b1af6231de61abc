"""The four pinned workloads, one *episode* at a time.

An episode builds a fresh cluster from a seed, drives one workload
through its measured window (load start -> load stop -> quiesce), then
runs the checker battery.  Set-up and checking are outside the window.
``perf/run.py`` strings episodes together into a run; everything here
uses only the stable public surface of ``repro`` (cluster, workload,
client, checkers, obs) and none of the campaign modules.

Links are 1 ms +/- 20 % (``UniformLatency``), not the builder's fixed
1 ms: on fixed links every commit latency of a fault-free run is the
same number (p50 = p99 = max = 3.9 ms at every seed), so no percentile
could ever move.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.checkers import run_all_checks
from repro.client import ClientFleet, RequestState
from repro.cluster import Cluster, ClusterBuilder
from repro.net.latency import UniformLatency
from repro.obs import collect_cluster_metrics
from repro.replication.node import NodeConfig, SiteStatus
from repro.workload import LoadGenerator, ThroughputTimeline, WorkloadConfig

LINK_DELAY_S = (0.0008, 0.0012)
#: Width of the bins ``unavailable_max`` counts zero-commit runs in.
BIN_S = 0.05


class BrokenRun(RuntimeError):
    """A workload did not do what it is pinned to do (unmet await,
    operation without an outcome).  The run is a failure, not a row."""


def require(condition: bool, what: str) -> None:
    if not condition:
        raise BrokenRun(what)


@dataclass
class Episode:
    """What one episode measured.  Times are seconds; ``host_s`` is this
    machine's clock, everything ``sim``/latency/recovery is virtual."""

    host_s: float
    sim_s: float
    attempted: int
    commits: int
    first_attempt_commits: int
    failed: int
    latencies: List[float]
    recoveries: List[float]
    unavailable_max_s: float
    check_host_s: float
    history_events: int
    #: ``collect_cluster_metrics`` plus the load driver's own counters.
    counters: Dict[str, float]


@dataclass(frozen=True)
class Workload:
    why: str
    #: Host seconds one episode's window takes on the 2-core reference
    #: container; turns ``--seconds`` into a pinned episode count.
    episode_host_s: float
    #: Episode length in the unit of ``script``'s last argument.
    size: float
    build: Callable[[int], Cluster]
    make_load: Callable[[Cluster], object]
    #: Drives the window: starts the load, injects the faults, stops the
    #: load and quiesces.  Returns (recovery times, load-stop sim time).
    script: Callable[[Cluster, object, float], "Window"]


@dataclass
class Window:
    recoveries: List[float]
    load_stopped_at: float


def _builder(seed: int, **kwargs) -> Cluster:
    return ClusterBuilder(seed=seed, mode="vs",
                          latency=UniformLatency(*LINK_DELAY_S), **kwargs).build()


def await_active(cluster: Cluster, sites, since: float, what: str) -> float:
    """Wait until ``sites`` are ACTIVE; return sim seconds since ``since``."""
    nodes = [cluster.nodes[s] for s in sites]
    ok = cluster.await_condition(
        lambda: all(n.status is SiteStatus.ACTIVE for n in nodes),
        timeout=60, step=0.01)
    require(ok, f"{what}: {','.join(sites)} not ACTIVE after 60 sim-s")
    return cluster.sim.now - since


# ----------------------------------------------------------------------
# steady_oltp / hot_contention: open loop, no faults
# ----------------------------------------------------------------------
def _oltp_cluster(seed: int) -> Cluster:
    return _builder(seed, n_sites=5, db_size=2000)


def _open_loop_script(cluster: Cluster, load: LoadGenerator, sim_s: float) -> Window:
    load.start()
    cluster.run_for(sim_s)
    load.stop()
    stopped = cluster.sim.now
    cluster.settle(0.5)
    return Window([], stopped)


# ----------------------------------------------------------------------
# recover_full: rolling crash / full-copy recovery under open-loop load
# ----------------------------------------------------------------------
def _recover_full_script(cluster: Cluster, load: LoadGenerator, cycles: float) -> Window:
    load.start()
    cluster.run_for(0.5)
    recoveries = []
    for k in range(int(cycles)):
        site = cluster.universe[-1 - (k % 3)]
        cluster.crash(site)
        cluster.run_for(1.0)
        since = cluster.sim.now
        cluster.recover(site)
        recoveries.append(await_active(cluster, [site], since, f"cycle {k}"))
        cluster.run_for(0.5)
    load.stop()
    stopped = cluster.sim.now
    cluster.settle(1.0)
    return Window(recoveries, stopped)


# ----------------------------------------------------------------------
# cascade_clients: the Figure-1 cascade as closed-loop clients see it
# ----------------------------------------------------------------------
def _cascade_script(cluster: Cluster, fleet: ClientFleet, rounds: float) -> Window:
    sim = cluster.sim
    fleet.start()
    cluster.run_for(0.5)
    recoveries = []
    for k in range(int(rounds)):
        cluster.crash("S5")
        cluster.run_for(0.5)
        s5_since = sim.now
        cluster.recover("S5")
        cluster.run_for(0.15)
        cluster.crash("S1")  # S5's transfer is in flight
        recoveries.append(await_active(cluster, ["S5"], s5_since, f"round {k} S5"))
        s1_since = sim.now
        cluster.recover("S1")
        recoveries.append(await_active(cluster, cluster.universe, s1_since,
                                       f"round {k} S1"))
        cluster.run_for(0.3)
        cluster.partition([["S1", "S2", "S3"], ["S4", "S5"]])
        cluster.run_for(1.0)
        healed = sim.now
        cluster.heal()
        recoveries.append(await_active(cluster, cluster.universe, healed,
                                       f"round {k} heal"))
        cluster.run_for(0.5)
    fleet.stop()
    stopped = sim.now
    require(cluster.await_condition(fleet.drained, timeout=60, step=0.01),
            "client fleet not drained after 60 sim-s")
    cluster.settle(1.0)
    return Window(recoveries, stopped)


WORKLOADS: Dict[str, Workload] = {
    "steady_oltp": Workload(
        why="5 sites, 2000 objects uniform, 2r+2w open loop at 900 txn/s, no faults: "
            "the normal-processing hot path, where reconfiguration code does nothing",
        episode_host_s=1.55, size=5.0,
        build=_oltp_cluster,
        make_load=lambda c: LoadGenerator(c, WorkloadConfig(
            arrival_rate=900.0, reads_per_txn=2, writes_per_txn=2)),
        script=_open_loop_script,
    ),
    "hot_contention": Workload(
        why="same cluster and rate, 6r+1w with 90% of accesses on 40 hot objects: lock "
            "queues and version-check aborts, so a change that helps uniform traffic "
            "and hurts skew shows",
        episode_host_s=1.3, size=5.0,
        build=_oltp_cluster,
        make_load=lambda c: LoadGenerator(c, WorkloadConfig(
            arrival_rate=900.0, reads_per_txn=6, writes_per_txn=1,
            hot_fraction=0.02, hot_access_probability=0.9)),
        script=_open_loop_script,
    ),
    "recover_full": Workload(
        why="3 sites, 10000 objects, rolling crash and full-copy recovery under 150 txn/s "
            "1r+2w: transfer, DB-wide read locks and replay dominate; a kernel or "
            "messaging change must not move it",
        episode_host_s=2.3, size=3,
        build=lambda seed: _builder(seed, n_sites=3, db_size=10000, strategy="full"),
        make_load=lambda c: LoadGenerator(c, WorkloadConfig(
            arrival_rate=150.0, reads_per_txn=1, writes_per_txn=2)),
        script=_recover_full_script,
    ),
    "cascade_clients": Workload(
        why="5 sites, rectable transfer, 16 closed-loop client sessions at 400 req/s through "
            "the Figure-1 cascade (crash, crash mid-transfer, partition, heal): "
            "reconfiguration as clients see it",
        episode_host_s=1.6, size=2,
        build=lambda seed: _builder(
            seed, n_sites=5, db_size=2000, strategy="rectable",
            node_config=NodeConfig(transfer_obj_time=0.002, transfer_batch_size=25)),
        make_load=lambda c: ClientFleet(c, 16, WorkloadConfig(
            arrival_rate=400.0, reads_per_txn=1, writes_per_txn=2)),
        script=_cascade_script,
    ),
}


def build_and_start(name: str, seed: int) -> Cluster:
    """Set-up: everything from a seed to all sites ACTIVE."""
    cluster = WORKLOADS[name].build(seed)
    cluster.start()
    require(cluster.await_all_active(timeout=15), "sites not ACTIVE after start")
    return cluster


def _unavailable_max(cluster: Cluster, start: float, end: float) -> float:
    """Longest run of BIN_S bins in [start, end) with no commit anywhere."""
    busy = {int(t / BIN_S + 0.5)
            for t, n in ThroughputTimeline(cluster.history, BIN_S).series() if n}
    longest = run = 0
    for index in range(int(start / BIN_S) + 1, int(end / BIN_S)):
        run = 0 if index in busy else run + 1
        longest = max(longest, run)
    return longest * BIN_S


def run_episode(name: str, seed: int, size: Optional[float] = None,
                profiler=None) -> Episode:
    """One episode of workload ``name``.  ``profiler`` (a
    ``cProfile.Profile``) is enabled around the measured window only."""
    workload = WORKLOADS[name]
    cluster = build_and_start(name, seed)
    load = workload.make_load(cluster)
    gc.collect()
    sim_start = cluster.sim.now
    if profiler is not None:
        profiler.enable()
    host_start = time.perf_counter()
    window = workload.script(cluster, load, workload.size if size is None else size)
    host_s = time.perf_counter() - host_start
    if profiler is not None:
        profiler.disable()
    sim_s = cluster.sim.now - sim_start

    nodes = list(cluster.nodes.values())
    check_start = time.perf_counter()
    if isinstance(load, ClientFleet):
        run_all_checks(cluster.history, nodes, sessions=load.sessions)
    else:
        run_all_checks(cluster.history, nodes)
    check_host_s = time.perf_counter() - check_start

    counters = dict(collect_cluster_metrics(cluster))
    counters.update(load.metrics())
    if isinstance(load, ClientFleet):
        records = load.records
        committed = [r for r in records if r.state is RequestState.COMMITTED]
        attempted = len(records)
        first = sum(1 for r in committed if r.attempts_used == 1)
        failed = attempted - len(committed)
        counters["client.attempts"] = sum(r.attempts_used for r in records)
    else:
        committed = load.committed()
        attempted = len(load.transactions) + load.skipped
        first = len(committed)
        failed = len(load.unresolved()) + load.skipped
    return Episode(
        host_s=host_s, sim_s=sim_s, attempted=attempted, commits=len(committed),
        first_attempt_commits=first, failed=failed,
        latencies=[r.latency for r in committed if r.latency is not None],
        recoveries=window.recoveries,
        unavailable_max_s=_unavailable_max(cluster, sim_start, window.load_stopped_at),
        check_host_s=check_host_s, history_events=len(cluster.history.events),
        counters=counters,
    )
