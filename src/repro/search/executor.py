"""Deterministic genome execution: the one churn driver.

:class:`ScheduleExecutor` interprets a :class:`ScheduleGenome` literally
on the campaign engine (:mod:`repro.faults.campaign`), under client
load sampled into an availability timeline, with the availability floor
added to the verdict.  Found schedules and endurance runs (genomes
derived by :func:`repro.endurance.derive_genome`) take the same code
paths.  The interpreter draws nothing from the schedule RNG: the only
randomness is the simulation itself, keyed on ``genome.seed``, so one
genome is one exact run, replayable byte-identically from its JSON form.

Mid-gene convergence stalls are *noted*, not failed: wedging a site
temporarily is often the interesting part.  The verdict comes from the
sweeps and the final quiesce, plus the availability floor.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.checkers import ConsistencyViolation, check_availability_floor
from repro.endurance import (
    AVAILABILITY_BIN,
    EnduranceConfig,
    EnduranceReport,
    derive_genome,
)
from repro.faults.campaign import Campaign
from repro.faults.storage import StableStateCorruptor
from repro.search.genome import (
    CorruptGene,
    CrashGene,
    PartitionGene,
    QuietGene,
    RestartGene,
    ScheduleGenome,
    SweepGene,
    concurrency_limit,
)

#: Floor knobs for search runs: same bin as endurance, tighter window so
#: short schedules can still register availability damage.
SEARCH_AVAILABILITY_WINDOW = 1.0
SEARCH_WARMUP = 0.75


def config_for(genome: ScheduleGenome) -> EnduranceConfig:
    """The config a found schedule runs under (search floor + genome)."""
    return EnduranceConfig(
        seed=genome.seed,
        n_sites=genome.n_sites,
        db_size=genome.db_size,
        duration=max(genome.total_duration(), 1.0),
        mode=genome.mode,
        strategy=genome.strategy,
        arrival_rate=genome.arrival_rate,
        clients=genome.clients,
        availability_window=SEARCH_AVAILABILITY_WINDOW,
        availability_warmup=SEARCH_WARMUP,
    )


class ScheduleExecutor(Campaign):
    """The churn driver: runs one :class:`ScheduleGenome`
    deterministically.  ``config`` supplies the run's floor and
    instrumentation knobs; its cluster shape must be the genome's."""

    CONFIG = EnduranceConfig
    REPORT = EnduranceReport
    RNG_STREAM = "endurance"
    TRACE_CATEGORY = "endurance"
    # A flapping straggler must not starve a suspended majority: let a
    # primary view create when its reports provably hold every commit.
    CREATION_MAJORITY = True
    BACKOFF_JITTER = 0.5
    SETTLE = (0.0, 0.3)
    FINAL_NOTE = ("final_quiesce", "")
    ARTIFACT_PREFIX = "seed"

    def __init__(self, genome: ScheduleGenome,
                 config: Optional[EnduranceConfig] = None) -> None:
        super().__init__(config or config_for(genome))
        self.genome = genome
        self.report.warmup = self.config.availability_warmup
        self.corruptor = StableStateCorruptor(self.config.seed)
        #: Unfinished transfers when the last fault was lifted; None
        #: once a strike has consumed it.
        self._lifted: Optional[int] = None

    @classmethod
    def from_params(cls, pinned: Optional[str] = None,
                    **params: Any) -> "ScheduleExecutor":
        """A :data:`repro.search.pinned.PINNED` schedule by name, or the
        genome an endurance config derives to."""
        if pinned is not None:
            from repro.search.pinned import PINNED

            return cls(PINNED[pinned].genome)
        config = EnduranceConfig(**params)
        return cls(derive_genome(config), config)

    def injector_rates(self):
        # Always-on wire realism, mild enough for a long horizon.
        return 0.05, 0.10, None

    def drive(self) -> None:
        self.start_sampler()
        for index, gene in enumerate(self.genome.segments):
            if self.report.error is not None:
                break
            self.note("gene", f"#{index} {gene.describe()}")
            handler = getattr(self, f"_play_{gene.kind}")
            handler(gene)
            self.note("gene_done", f"#{index} {gene.kind}")

    def verdict(self) -> None:
        report, config = self.report, self.config
        report.sweeps += 1  # the final quiesce is the last sweep
        try:
            check_availability_floor(
                report.samples,
                window=config.availability_window,
                bin_width=AVAILABILITY_BIN,
                warmup=config.availability_warmup,
            )
        except ConsistencyViolation as violation:
            report.error = str(violation)

    def start_sampler(self) -> None:
        """Sample committed client requests per bin for the rest of the
        run: trace events, plus ``endurance.availability`` gauges when
        observability is attached."""
        cluster, report = self.cluster, self.report
        warmup = self.config.availability_warmup
        gauge = min_gauge = None
        if report.obs is not None:
            gauge = report.obs.registry.gauge(
                "endurance.availability",
                "committed client requests per virtual second, last bin")
            min_gauge = report.obs.registry.gauge(
                "endurance.availability_min",
                "lowest serving-bin commit rate seen so far")
        last_committed = 0
        min_rate = None

        def sample() -> None:
            nonlocal last_committed, min_rate
            now = cluster.sim.now
            committed = len(self.fleet.committed())
            delta = committed - last_committed
            last_committed = committed
            maintenance = self.maintenance
            report.samples.append((now, delta, maintenance))
            rate = delta / AVAILABILITY_BIN
            if cluster.tracer is not None:
                cluster.tracer.emit(
                    "--", "endurance", "availability_sample",
                    f"{rate:.0f}/s" + (" [maintenance]" if maintenance else ""),
                    data={"t": now, "commits": delta, "rate": rate,
                          "maintenance": maintenance},
                )
            if gauge is not None:
                gauge.set(rate)
                if not maintenance and now > warmup:
                    if min_rate is None or rate < min_rate:
                        min_rate = rate
                        min_gauge.set(rate)
            cluster.sim.schedule(AVAILABILITY_BIN, sample,
                                 label="endurance availability sample")

        cluster.sim.schedule(AVAILABILITY_BIN, sample,
                             label="endurance availability sample")

    # -- coverage counters ---------------------------------------------
    def _unfinished_transfers(self) -> int:
        return sum(node.reconfig.transfers_started
                   - node.reconfig.transfers_completed
                   for node in self.cluster.nodes.values())

    def _lift(self) -> None:
        """A fault was just lifted (heal or recover): rejoin transfers
        start from here."""
        self._lifted = self._unfinished_transfers()

    def _strike(self) -> None:
        """A fault lands: count the transfers started since the last
        lift that are still in flight — the cascade being tested."""
        if self._lifted is not None:
            self.report.transfers_interrupted += max(
                0, self._unfinished_transfers() - self._lifted)
            self._lifted = None

    # -- gene interpreters ---------------------------------------------
    def _sites(self, indices: Tuple[int, ...]) -> List[str]:
        """Map victim indices to distinct site names, in order."""
        universe = sorted(self.cluster.universe)
        return list(dict.fromkeys(universe[i % len(universe)] for i in indices))

    def _pick(self, indices: Tuple[int, ...]) -> List[str]:
        """Victims taken out *concurrently*, clamped to the concurrency
        limit (hand-edited schedules may exceed it; the clamp keeps
        execution inside the admissible envelope)."""
        return self._sites(indices)[: concurrency_limit(self.config.n_sites)]

    def _crash_and_recover(self, victims: List[str], gene: CrashGene) -> None:
        cluster = self.cluster
        self._strike()
        for site in victims:
            cluster.crash(site)
            self.note("crash", site)
            self.report.churn_leaves += 1
            if gene.stagger > 0:
                cluster.run_for(gene.stagger)
        cluster.run_for(gene.downtime)
        for site in victims:
            cluster.recover(site)
            self.note("recover", site)
        self._lift()

    def _play_crash(self, gene: CrashGene) -> None:
        victims = self._pick(gene.victims)
        self._crash_and_recover(victims, gene)
        if gene.restrike:
            self.cluster.run_for(gene.restrike)
            self._crash_and_recover(victims, gene)
        for site in victims:
            if not self.await_site_active(site):
                self.note("stuck", f"{site} not ACTIVE after crash gene")

    def _play_partition(self, gene: PartitionGene) -> None:
        cluster = self.cluster
        minority = self._pick(gene.minority)
        majority = [s for s in sorted(cluster.universe) if s not in minority]
        if gene.shatter:
            groups = [majority] + [[site] for site in minority]
        else:
            groups = [majority, minority]
        self._strike()
        cluster.partition(groups)
        style = "shatter" if gene.shatter else "cut"
        self.note("partition", f"{style} {majority} | {minority}")
        self.report.partition_cycles += 1
        cluster.run_for(gene.hold)
        cluster.heal()
        self.note("merge", ",".join(minority))
        self._lift()
        cluster.run_for(gene.settle)

    def _play_restart(self, gene: RestartGene) -> None:
        # One site down at a time, so every victim may be named.
        cluster = self.cluster
        for site in self._sites(gene.victims):
            self._strike()
            cluster.crash(site)
            self.note("restart_crash", site)
            cluster.run_for(gene.hold)
            cluster.recover(site)
            self.note("restart_recover", site)
            self._lift()
            if self.await_site_active(site):
                self.report.rolling_restarts += 1
            else:
                self.note("stuck", f"{site} not ACTIVE after restart gene")

    def _play_corrupt(self, gene: CorruptGene) -> None:
        cluster = self.cluster
        site = self._pick((gene.victim,))[0]
        self._strike()
        cluster.crash(site)
        detail = self.corruptor.corrupt(cluster.nodes[site].storage, site,
                                        op=gene.op)
        self.note("corrupt", f"{site} {detail}")
        cluster.run_for(gene.downtime)
        cluster.recover(site)
        self._lift()
        if self.await_site_active(site):
            self.report.stabilize_starts += 1
        else:
            self.note("stuck", f"{site} not ACTIVE after corrupt gene")

    def _play_quiet(self, gene: QuietGene) -> None:
        self.cluster.run_for(gene.duration_s)

    def _play_sweep(self, gene: SweepGene) -> None:
        """Pause the schedule, check everything, resume the churn."""
        self.note("sweep", f"#{self.report.sweeps + 1}")
        if not self.settle_and_check("quiescent sweep"):
            return
        self.report.sweeps += 1
        self.note("sweep_ok", f"t={self.cluster.sim.now:.2f}")
        self.fleet.start()
        self.maintenance = False


def run_schedule(genome: ScheduleGenome) -> EnduranceReport:
    """Execute one genome and return its endurance-style report."""
    return ScheduleExecutor(genome).run()
