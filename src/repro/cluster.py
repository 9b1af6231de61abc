"""Cluster harness: build, drive and fault-inject a replicated database.

This is the main entry point of the library.  A cluster owns one
simulator, one network, N replicated-database sites, a history recorder
for the correctness checkers, and the crash, recover, partition and heal
steps the scripted runs of :mod:`repro.scenarios` are written in (the
Figure 1 and 2 view sequences among them).  A step at a fixed virtual
time is one ``cluster.sim.schedule_at(time, cluster.partition, groups)``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.checkers import HistoryRecorder, run_all_checks
from repro.gcs.config import GCSConfig
from repro.net.latency import FixedLatency, LatencyModel
from repro.net.network import Network
from repro.reconfig.backends import ReconfigBackend, backend_by_name
from repro.reconfig.strategies import Strategy, strategy_by_name
from repro.replication.node import NodeConfig, ReplicatedDatabaseNode, SiteStatus
from repro.replication.transaction import Transaction
from repro.sim.core import Simulator


class ClusterBuilder:
    """Fluent construction of a :class:`Cluster`.

    Parameters mirror the paper's experiment dimensions: number of
    sites, database size, transfer strategy, reconfiguration backend
    (``mode``: a :mod:`repro.reconfig.backends` name — ``vs``, ``evs``
    or ``logless``), and the cost model.
    """

    def __init__(
        self,
        n_sites: int = 3,
        db_size: int = 100,
        seed: int = 0,
        strategy: str = "rectable",
        mode: str = "vs",
        gcs_config: Optional[GCSConfig] = None,
        node_config: Optional[NodeConfig] = None,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        initial_sites: Optional[Sequence[str]] = None,
        initial_value: Any = 0,
        batching: bool = True,
    ) -> None:
        self.n_sites = n_sites
        self.db_size = db_size
        self.seed = seed
        self.strategy = strategy
        self.mode = mode
        self.gcs_config = gcs_config
        self.node_config = node_config
        self.latency = latency or FixedLatency(0.001)
        self.loss_rate = loss_rate
        self.initial_sites = list(initial_sites) if initial_sites is not None else None
        self.initial_value = initial_value
        #: Master switch for the hot-path batching layers (network
        #: same-tick coalescing, sequencer OrderedBatch staging, bulk
        #: write application).  Batching is behaviour-preserving — the
        #: switch exists as the reference the equivalence property
        #: (tests/properties/test_batching_equivalence.py) and the
        #: audit's ``batching`` axis compare against.
        self.batching = batching

    def site_names(self) -> Tuple[str, ...]:
        return tuple(f"S{i + 1}" for i in range(self.n_sites))

    def build(self) -> "Cluster":
        sim = Simulator(seed=self.seed)
        network = Network(sim, latency=self.latency, loss_rate=self.loss_rate,
                          coalesce=self.batching)
        universe = self.site_names()
        initial_db = {f"obj{i}": self.initial_value for i in range(self.db_size)}
        initial_sites = set(self.initial_sites if self.initial_sites is not None else universe)
        strategy = strategy_by_name(self.strategy)

        gcs_config = self.gcs_config
        node_config = self.node_config
        if not self.batching:
            # Force every batching layer off, without mutating configs the
            # caller may reuse elsewhere.
            gcs_config = replace(gcs_config or GCSConfig(), sequencer_batching=False)
            node_config = replace(node_config or NodeConfig(), batch_writes=False)

        backend = backend_by_name(self.mode)
        history = HistoryRecorder(clock=lambda: sim.now, initial=initial_db)
        cluster = Cluster(sim, network, {}, history, strategy, initial_db)
        cluster._gcs_config = gcs_config
        cluster._node_config = node_config
        cluster._backend = backend
        for site in universe:
            cluster._make_node(site, universe, has_initial_copy=site in initial_sites)
        cluster.universe = tuple(sorted(cluster.nodes))
        return cluster


class Cluster:
    """A running (or startable) replicated database cluster."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        nodes: Dict[str, ReplicatedDatabaseNode],
        history: HistoryRecorder,
        strategy: Strategy,
        initial_db: Dict[str, Any],
    ) -> None:
        self.sim = sim
        self.network = network
        self.nodes = nodes
        self.history = history
        self.strategy = strategy
        self.initial_db = initial_db
        self.universe = tuple(sorted(nodes))
        self._gcs_config: Optional[GCSConfig] = None
        self._node_config = None
        self._backend: ReconfigBackend = backend_by_name("vs")
        #: Shared event sink (repro.tracing.Tracer), set by
        #: ``attach_tracer``; None = untraced.
        self.tracer = None
        #: Every node emits ``txn`` span events, set by
        #: ``repro.obs.attach_observability``.
        self.trace_txns = False

    # ------------------------------------------------------------------
    # Node construction (used by the builder and by add_site)
    # ------------------------------------------------------------------
    def _make_node(self, site: str, universe, has_initial_copy: bool) -> ReplicatedDatabaseNode:
        node = ReplicatedDatabaseNode(
            self.sim,
            self.network,
            site,
            universe,
            self._backend.gcs_factory,
            gcs_config=self._gcs_config,
            config=self._node_config,
            has_initial_copy=has_initial_copy,
            initial_db=self.initial_db,
        )
        node.configure_reconfig(self._backend.make_manager(node, self.strategy))
        node.on_txn_event = self.history.record
        node.on_transfer_install = self.history.record_install
        # A site added to a traced/observed cluster is traced/observed too.
        node.tracer = self.tracer
        node.trace_txns = self.trace_txns
        self.nodes[site] = node
        return node

    def add_site(self, site: str, start: bool = True) -> ReplicatedDatabaseNode:
        """Grow the group at runtime (dynamic groups, section 2.1).

        Requires ``GCSConfig(dynamic_universe=True,
        primary_policy="dynamic_linear")``.  The new site has no initial
        copy: it joins, receives a full state transfer and becomes an
        up-to-date member — while processing continues.
        """
        if self._gcs_config is None or not self._gcs_config.dynamic_universe:
            raise RuntimeError(
                "add_site requires a cluster built with "
                "GCSConfig(dynamic_universe=True)"
            )
        if site in self.nodes:
            raise ValueError(f"site {site} already exists")
        universe = tuple(sorted(set(self.universe) | {site}))
        node = self._make_node(site, universe, has_initial_copy=False)
        self.universe = tuple(sorted(self.nodes))
        if start:
            node.start()
        return node

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, only: Optional[Sequence[str]] = None) -> None:
        """Boot all (or the given) sites."""
        for site in only or self.universe:
            self.nodes[site].start()

    def crash(self, site: str) -> None:
        self.nodes[site].crash()

    def recover(self, site: str) -> None:
        self.nodes[site].recover()

    def partition(self, groups: Sequence[Sequence[str]]) -> None:
        """Partition by *site*: transfer endpoints follow their site."""
        expanded = [[site for s in group for site in (s, f"{s}:xfer")] for group in groups]
        self.network.set_partitions(expanded)

    def heal(self) -> None:
        self.network.heal()

    # ------------------------------------------------------------------
    # Fault injection (repro.faults)
    # ------------------------------------------------------------------
    def add_injector(self, injector) -> Any:
        """Install a network fault injector (see repro.faults.injectors)."""
        return self.network.add_injector(injector)

    def remove_injector(self, injector) -> None:
        self.network.remove_injector(injector)

    def clear_injectors(self) -> None:
        self.network.clear_injectors()

    def set_loss_rate(self, loss_rate: float) -> None:
        self.network.set_loss_rate(loss_rate)

    def install_storage_faults(self, model, sites: Optional[Sequence[str]] = None) -> None:
        """Attach a crash-time storage fault model (e.g. TornTailFaults)
        to the given sites (default: all)."""
        for site in sites or self.universe:
            self.nodes[site].storage_faults = model

    # ------------------------------------------------------------------
    # Driving the simulation
    # ------------------------------------------------------------------
    def run_for(self, duration: float) -> None:
        self.sim.run(until=self.sim.now + duration)

    def run_until(self, time: float) -> None:
        self.sim.run(until=time)

    def await_condition(
        self, predicate: Callable[[], bool], timeout: float = 30.0, step: float = 0.05
    ) -> bool:
        """Advance time in small steps until ``predicate()`` or timeout."""
        deadline = self.sim.now + timeout
        while self.sim.now < deadline:
            if predicate():
                return True
            self.sim.run(until=min(self.sim.now + step, deadline))
        return predicate()

    def await_all_active(self, sites: Optional[Sequence[str]] = None, timeout: float = 30.0) -> bool:
        """Wait until every (alive) given site is an ACTIVE member."""
        targets = sites or self.universe

        def ready() -> bool:
            return all(
                self.nodes[s].status is SiteStatus.ACTIVE
                for s in targets
                if self.nodes[s].alive
            )

        return self.await_condition(ready, timeout=timeout)

    def settle(self, duration: float = 0.5) -> None:
        """Convenience: let in-flight work finish."""
        self.run_for(duration)

    # ------------------------------------------------------------------
    # Access helpers
    # ------------------------------------------------------------------
    def node(self, site: str) -> ReplicatedDatabaseNode:
        return self.nodes[site]

    def active_sites(self) -> List[str]:
        return [s for s in self.universe if self.nodes[s].status is SiteStatus.ACTIVE]

    def submit_via(self, site: str, reads: List[str], writes: Dict[str, Any]) -> Transaction:
        return self.nodes[site].submit(reads, writes)

    def check(self) -> None:
        """Run the full correctness checker battery."""
        run_all_checks(self.history, list(self.nodes.values()))
