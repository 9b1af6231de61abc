"""Deterministic genome execution on the campaign engine.

:class:`ScheduleExecutor` is the third campaign driver, beside
:class:`repro.endurance.EnduranceEngine` on the shared
:class:`repro.endurance.ChurnCampaign` base: where the endurance driver
composes random churn segments, this one interprets the genome's gene
list literally.  Everything else — cluster build, client fleet,
availability sampler, the final full-invariant quiesce, the
availability-floor verdict, artifact dumping — is the one campaign life-cycle
(:mod:`repro.faults.campaign`), so a schedule found by the search fails
(or passes) through exactly the code paths the endurance runs exercise.

The interpreter consumes **zero** draws from the engine's schedule RNG:
every decision (victims, hold times, corruption ops) is spelled out in
the genome.  The only remaining randomness is the simulation itself,
keyed on ``genome.seed`` — so one genome is one exact run, replayable
byte-identically from its JSON form.

Mid-gene convergence stalls are *noted*, not failed: a schedule is
allowed to wedge a site temporarily (that is often the interesting
part).  The verdict comes from the final quiesce — heal everything,
drain clients, run the full invariant suite — plus the availability
floor over the whole timeline.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.endurance import ChurnCampaign, EnduranceConfig, EnduranceReport
from repro.search.genome import (
    CorruptGene,
    CrashGene,
    PartitionGene,
    QuietGene,
    RestartGene,
    ScheduleGenome,
)
from repro.search.pinned import PINNED

#: Floor knobs for search runs: same bin as endurance, tighter window so
#: short schedules can still register availability damage.  There are
#: no sweeps mid-run: the genome decides the fault timeline and
#: verification happens once, at the end.
SEARCH_AVAILABILITY_WINDOW = 1.0
SEARCH_WARMUP = 0.75


def config_for(genome: ScheduleGenome, *,
               observe: bool = False) -> EnduranceConfig:
    """The endurance config a genome runs under (fixed knobs + genome)."""
    return EnduranceConfig(
        seed=genome.seed,
        n_sites=genome.n_sites,
        duration=max(genome.total_duration(), 1.0),
        mode=genome.mode,
        strategy=genome.strategy,
        arrival_rate=genome.arrival_rate,
        clients=genome.clients,
        availability_window=SEARCH_AVAILABILITY_WINDOW,
        availability_warmup=SEARCH_WARMUP,
        observe=observe,
    )


class ScheduleExecutor(ChurnCampaign):
    """The schedule driver: runs one :class:`ScheduleGenome`
    deterministically."""

    def __init__(self, genome: ScheduleGenome, *,
                 observe: bool = False) -> None:
        super().__init__(config_for(genome, observe=observe))
        self.genome = genome

    @classmethod
    def from_params(cls, pinned: str) -> "ScheduleExecutor":
        """The executor for one :data:`repro.search.pinned.PINNED`
        schedule."""
        return cls(PINNED[pinned].genome)

    def drive(self) -> None:
        self.start_sampler()
        for index, gene in enumerate(self.genome.segments):
            if self.report.error is not None:
                break
            self.note("gene", f"#{index} {gene.describe()}")
            handler = getattr(self, f"_play_{gene.kind}")
            handler(gene)
            self.note("gene_done", f"#{index} {gene.kind}")

    # -- gene interpreters ---------------------------------------------
    def _limit(self) -> int:
        return max(1, self.genome.policy.concurrency_limit(
            self.config.n_sites, self.genome.mode,
            creation_majority=True))

    def _pick(self, indices: Tuple[int, ...]) -> List[str]:
        """Map victim indices to site names, clamped to the churn
        policy's concurrency limit (hand-edited schedules may exceed it;
        the clamp keeps execution inside the admissible envelope)."""
        universe = sorted(self.cluster.universe)
        seen: List[str] = []
        for index in indices:
            site = universe[index % len(universe)]
            if site not in seen:
                seen.append(site)
        return seen[: self._limit()]

    def _play_crash(self, gene: CrashGene) -> None:
        cluster = self.cluster
        victims = self._pick(gene.victims)
        for site in victims:
            cluster.crash(site)
            self.note("crash", site)
            if gene.stagger > 0:
                cluster.run_for(gene.stagger)
        cluster.run_for(gene.downtime)
        for site in victims:
            cluster.recover(site)
            self.note("recover", site)
        for site in victims:
            if not self.await_site_active(site):
                self.note("stuck", f"{site} not ACTIVE after crash gene")

    def _play_partition(self, gene: PartitionGene) -> None:
        cluster = self.cluster
        minority = self._pick(gene.minority)
        majority = [s for s in sorted(cluster.universe) if s not in minority]
        if not majority:  # degenerate hand-written gene: nothing to cut
            self.note("skip", "partition would isolate every site")
            return
        if gene.shatter:
            groups = [majority] + [[site] for site in minority]
        else:
            groups = [majority, minority]
        cluster.partition(groups)
        style = "shatter" if gene.shatter else "cut"
        self.note("partition", f"{style} {majority} | {minority}")
        cluster.run_for(gene.hold)
        cluster.heal()
        self.note("merge", ",".join(minority))
        cluster.run_for(gene.settle)

    def _play_restart(self, gene: RestartGene) -> None:
        cluster = self.cluster
        for site in self._pick(gene.victims):
            cluster.crash(site)
            self.note("restart_crash", site)
            cluster.run_for(gene.hold)
            cluster.recover(site)
            self.note("restart_recover", site)
            if self.await_site_active(site):
                self.report.rolling_restarts += 1
            else:
                self.note("stuck", f"{site} not ACTIVE after restart gene")

    def _play_corrupt(self, gene: CorruptGene) -> None:
        cluster = self.cluster
        site = self._pick((gene.victim,))[0]
        cluster.crash(site)
        detail = self.corruptor.corrupt(cluster.nodes[site].storage, site,
                                        op=gene.op)
        self.note("corrupt", f"{site} {detail}")
        cluster.run_for(gene.downtime)
        cluster.recover(site)
        if self.await_site_active(site):
            self.report.stabilize_starts += 1
        else:
            self.note("stuck", f"{site} not ACTIVE after corrupt gene")

    def _play_quiet(self, gene: QuietGene) -> None:
        self.cluster.run_for(gene.duration_s)


def run_schedule(genome: ScheduleGenome, *,
                 observe: bool = False) -> EnduranceReport:
    """Execute one genome and return its endurance-style report."""
    return ScheduleExecutor(genome, observe=observe).run()
