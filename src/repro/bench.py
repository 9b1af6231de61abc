"""The five pinned scenarios the determinism audit replays.

Fixed seeds and workloads, so every run — on any machine, at any
``--jobs`` level — is the same simulation; ``repro.audit`` runs each as
its ``bench:<name>`` case and digests the finished cluster:

* ``throughput`` — 5 sites, steady 900 txn/s OLTP load, no faults; the
  hot-path scenario the batching and event-kernel work targets.
* ``figure1``   — the paper's Figure 1 cascading reconfiguration (VS).
* ``figure2_evs`` — the same schedule under EVS (Figure 2).
* ``chaos``     — one pinned seeded fault storm (seed 3).
* ``client_failover`` — the same storm machinery driven by closed-loop
  client sessions (repro.client): durable request ids, failover,
  exactly-once checking.

Nothing here measures anything: speed and protocol-cost figures come
from ``perf/`` (``perf/README.md``, ``BENCHMARK.json``), identity with
another checkout from ``tools/audit_against.py``.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Tuple

from repro.cluster import Cluster, ClusterBuilder
from repro.workload.generator import LoadGenerator, WorkloadConfig


def _throughput(smoke: bool, batching: bool) -> Tuple[Cluster, bool]:
    """Steady-state OLTP load on five sites, no faults."""
    cluster = ClusterBuilder(n_sites=5, db_size=200, seed=11,
                             batching=batching).build()
    cluster.start()
    completed = cluster.await_all_active(timeout=15)
    # 900 txn/s: up from 400 after PR 9's hot-path rewrite (see
    # EXPERIMENTS.md "Hot path, round 2").
    load = LoadGenerator(cluster, WorkloadConfig(
        arrival_rate=900.0, reads_per_txn=2, writes_per_txn=2))
    load.start()
    cluster.run_for(1.5 if smoke else 6.0)
    load.stop()
    cluster.settle(0.5)
    cluster.check()
    return cluster, completed


def _figure(mode: str, smoke: bool, batching: bool) -> Tuple[Cluster, bool]:
    """The Figure 1 (VS) / Figure 2 (EVS) cascading reconfiguration."""
    from repro.scenarios import run_figure1_scenario

    scale = dict(db_size=120, arrival_rate=50.0) if smoke else {}
    report = run_figure1_scenario(mode=mode, strategy="rectable", seed=17,
                                  batching=batching, **scale)
    return report.cluster, report.completed


#: The two pinned storms: ``chaos`` under the open-loop generator,
#: ``client_failover`` the same machinery driven by ClientSession
#: objects (repro.client) — every request carries a durable id,
#: contact-site crashes trigger failover to another ACTIVE site, and the
#: run ends with the exactly-once checker over the full session ledger.
_STORMS: Dict[str, Dict[str, Any]] = {
    "chaos": {"seed": 3},
    "client_failover": {"seed": 23, "mode": "evs", "clients": 6},
}


def _storm(name: str, smoke: bool, batching: bool) -> Tuple[Cluster, bool]:
    """One pinned seeded chaos storm (fault-heavy mixed scenario)."""
    from repro.faults import ChaosConfig, ChaosEngine

    if not batching:
        # The fault injectors draw from the simulation RNG per wire
        # message and batching changes the wire-message count, so a
        # storm has no batching-off equivalent to compare against.
        raise ValueError(f"scenario {name} has no batching axis")
    engine = ChaosEngine(ChaosConfig(
        intensity=0.5, n_sites=4, db_size=40, duration=1.5 if smoke else 3.0,
        arrival_rate=60.0, **_STORMS[name]))
    report = engine.run()
    return engine.cluster, report.ok


_RUNNERS: Dict[str, Callable[[bool, bool], Tuple[Cluster, bool]]] = {
    "throughput": _throughput,
    "figure1": partial(_figure, "vs"),
    "figure2_evs": partial(_figure, "evs"),
    "chaos": partial(_storm, "chaos"),
    "client_failover": partial(_storm, "client_failover"),
}


def run_scenario(name: str, smoke: bool = False,
                 batching: bool = True) -> Tuple[Cluster, bool]:
    """Run one pinned scenario by name; returns the finished cluster and
    whether the scenario completed and passed its checks."""
    return _RUNNERS[name](smoke, batching)
