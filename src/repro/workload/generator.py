"""Synthetic OLTP workload generator.

Parameterised by exactly the dimensions the paper says reconfiguration
efficiency depends on (section 4): transaction throughput, read/write
ratio, database size (via the cluster) and access skew.  Transactions
are submitted to a randomly chosen ACTIVE site with exponential
inter-arrival times.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cluster import Cluster
from repro.replication.transaction import AbortReason, Transaction


@dataclass
class WorkloadConfig:
    """Workload shape.

    Attributes
    ----------
    arrival_rate:
        Mean transactions per (virtual) second across the cluster.
    reads_per_txn / writes_per_txn:
        Operation counts per transaction.  A write-only transaction has
        ``reads_per_txn = 0``; the benchmark sweeps derive read/write
        ratios from these two.
    hot_fraction / hot_access_probability:
        Skew: a ``hot_fraction`` of the database receives
        ``hot_access_probability`` of all accesses (80/20-style).
        Set ``hot_access_probability`` to 0 for uniform access.
    """

    arrival_rate: float = 200.0
    reads_per_txn: int = 2
    writes_per_txn: int = 2
    hot_fraction: float = 0.2
    hot_access_probability: float = 0.0

    def validate(self) -> None:
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if self.reads_per_txn < 0 or self.writes_per_txn < 0:
            raise ValueError("operation counts must be non-negative")
        if not 0.0 < self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in (0, 1]")
        if not 0.0 <= self.hot_access_probability <= 1.0:
            raise ValueError("hot_access_probability must be in [0, 1]")


def draw_request(rng, objects: List[str], config: WorkloadConfig,
                 values: Iterator[int]) -> Tuple[List[str], Dict[str, int]]:
    """One request's read set and write set, drawn from ``rng``.

    Reads are distinct, in draw order; each write takes the next value
    of ``values``.  Both the open-loop :class:`LoadGenerator` and the
    closed-loop ``repro.client.ClientFleet`` shape their requests here.
    """
    n = len(objects)
    hot_count = max(1, int(n * config.hot_fraction))
    hot = config.hot_access_probability

    def pick() -> str:
        if hot > 0 and rng.random() < hot:
            return objects[rng.randrange(hot_count)]
        return objects[rng.randrange(n)]

    reads = list(dict.fromkeys(pick() for _ in range(config.reads_per_txn)))
    writes: Dict[str, int] = {}
    for _ in range(config.writes_per_txn):
        writes[pick()] = next(values)
    return reads, writes


class LoadGenerator:
    """Drives a cluster with the configured workload.

    Open loop: an aborted transaction is not resubmitted.  Retrying is
    the job of a :class:`repro.client.ClientSession`, whose durable
    request id makes a resubmission safe.
    """

    def __init__(self, cluster: Cluster, config: Optional[WorkloadConfig] = None) -> None:
        self.cluster = cluster
        self.config = config or WorkloadConfig()
        self.config.validate()
        self.transactions: List[Transaction] = []
        self.skipped = 0  # ticks with no active site to submit to
        self._running = False
        self._objects = sorted(cluster.initial_db)
        self._values = itertools.count(1)

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        self._running = False

    def _schedule_next(self) -> None:
        if not self._running:
            return
        rng = self.cluster.sim.rng
        delay = rng.expovariate(self.config.arrival_rate)
        self.cluster.sim.schedule(delay, self._tick)

    def _tick(self) -> None:
        if not self._running:
            return
        self._submit_one()
        self._schedule_next()

    def _submit_one(self) -> None:
        rng = self.cluster.sim.rng
        active = self.cluster.active_sites()
        if not active:
            self.skipped += 1
            return
        site = active[rng.randrange(len(active))]
        reads, writes = draw_request(rng, self._objects, self.config, self._values)
        try:
            txn = self.cluster.nodes[site].submit(reads, writes)
        except RuntimeError:
            self.skipped += 1
            return
        self.transactions.append(txn)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def committed(self) -> List[Transaction]:
        return [t for t in self.transactions if t.committed]

    def aborted(self) -> List[Transaction]:
        return [t for t in self.transactions if t.aborted]

    def unresolved(self) -> List[Transaction]:
        return [t for t in self.transactions if not t.done]

    def abort_rate(self) -> float:
        done = [t for t in self.transactions if t.done]
        if not done:
            return 0.0
        return len(self.aborted()) / len(done)

    def latencies(self) -> List[float]:
        return [t.latency for t in self.committed() if t.latency is not None]

    def metrics(self) -> Dict[str, float]:
        """Workload-side counters, including the losses of the open loop.

        A transaction whose contact site crashed or left the primary
        component (``SITE_CRASHED`` / ``SITE_LEFT_PRIMARY``) is
        ``in_doubt`` when its write-set was multicast — it may still
        have been sequenced, and only a client session with a durable
        request id can resolve that — and ``lost_to_crash`` when it
        provably never left the site.
        """
        in_doubt = 0
        lost = 0
        for txn in self.transactions:
            if txn.aborted and txn.abort_reason in (
                    AbortReason.SITE_CRASHED, AbortReason.SITE_LEFT_PRIMARY):
                if txn.sent_at is not None:
                    in_doubt += 1
                else:
                    lost += 1
        return {
            "workload.in_doubt": float(in_doubt),
            "workload.lost_to_crash": float(lost),
            "workload.skipped": float(self.skipped),
        }
