"""repro — reproduction of "Online Reconfiguration in Replicated Databases
Based on Group Communication" (Kemme, Bartoli, Babaoglu, DSN 2001).

The package provides, from the bottom up:

* :mod:`repro.sim` — a deterministic discrete-event simulation kernel.
* :mod:`repro.net` — a message-passing network with latency, loss,
  partitions and process crashes.
* :mod:`repro.gcs` — a virtually synchronous group communication system
  with uniform total-order multicast, a primary-view layer and the
  Enriched View Synchrony (EVS) extension.
* :mod:`repro.db` — a database engine: versioned object store, strict
  two-phase locking, write-ahead log, single-site recovery, RecTable.
* :mod:`repro.replication` — the paper's replica control protocol
  (one total-order multicast per transaction, gid = sequence number).
* :mod:`repro.reconfig` — the online reconfiguration suite: five data
  transfer strategies, cascading reconfiguration under plain virtual
  synchrony and under EVS, and the creation protocol for total failures.
* :mod:`repro.cluster` / :mod:`repro.workload` — an experiment harness:
  cluster builder, fault injection, load generation and metrics.
* :mod:`repro.faults` — fault injection: network injectors (duplication,
  reordering, one-way degradation, latency spikes), torn-WAL storage
  faults, and the seeded randomized chaos engine.
* :mod:`repro.checkers` — global correctness checkers
  (1-copy-serializability, atomicity, convergence, view synchrony).

Quick start::

    from repro import ClusterBuilder

    cluster = ClusterBuilder(n_sites=3, db_size=100, seed=7).build()
    cluster.start()
    cluster.run_for(1.0)
    txn = cluster.node("S1").submit(reads=["obj0"], writes={"obj1": "x"})
    cluster.run_until_quiescent()
    assert txn.committed
"""

from repro.cluster import Cluster, ClusterBuilder, FaultEvent, FaultSchedule
from repro.faults import (
    ChaosConfig,
    ChaosEngine,
    ChaosReport,
    DuplicateInjector,
    FaultInjector,
    LatencySpikeInjector,
    OneWayLinkInjector,
    ReorderInjector,
    TornTailFaults,
    run_chaos,
)
from repro.gcs.config import GCSConfig
from repro.reconfig.strategies import strategy_by_name
from repro.replication.node import NodeConfig, ReplicatedDatabaseNode, SiteStatus
from repro.sim.core import Simulator
from repro.tracing import Tracer, attach_tracer
from repro.workload.generator import LoadGenerator, WorkloadConfig

__version__ = "1.0.0"

__all__ = [
    "ChaosConfig",
    "ChaosEngine",
    "ChaosReport",
    "Cluster",
    "ClusterBuilder",
    "DuplicateInjector",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "GCSConfig",
    "LatencySpikeInjector",
    "OneWayLinkInjector",
    "ReorderInjector",
    "TornTailFaults",
    "LoadGenerator",
    "NodeConfig",
    "ReplicatedDatabaseNode",
    "SiteStatus",
    "Simulator",
    "Tracer",
    "WorkloadConfig",
    "__version__",
    "attach_tracer",
    "run_chaos",
    "strategy_by_name",
]
