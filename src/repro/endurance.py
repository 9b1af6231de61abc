"""Long-horizon reconfiguration-churn endurance runs.

Where :mod:`repro.faults.chaos` throws one short random storm at a
cluster and checks the wreckage once, an endurance run holds a cluster
under *continuous* membership churn for a long virtual horizon while
client sessions keep serving traffic, and audits it along the way.
:func:`derive_genome` turns the config into a schedule genome
(:mod:`repro.search.genome`), family by family, and
:class:`repro.search.executor.ScheduleExecutor` runs it:

* ``rolling`` — a rolling restart over every site;
* ``storm`` — 2–4 partition/merge cycles against one victim, paced so
  the next cut lands while the rejoin transfer is still in flight (the
  paper's cascading reconfiguration, Figure 1);
* ``churn`` — single-site leaves and rejoins under live traffic, some
  struck again while still recovering;
* ``stabilize`` — a site rebooted from corrupted-but-CRC-valid stable
  state (the arXiv:1606.00195 recover-from-plausible-state model).

Every :data:`SWEEP_INTERVAL` of gene time a **quiescent sweep** heals and
recovers everything, drains the clients and asserts the full invariant
suite plus ``check_exactly_once``.  Committed client requests are
sampled per time bin, and the verdict includes
:func:`repro.checkers.check_availability_floor`: the cluster must never
stop serving for a whole window.

One seed is one exact genome — replayable with ``python -m repro search
--replay`` and shrinkable with :func:`repro.search.shrink.shrink` like
any found schedule.  Exposed as ``python -m repro chaos --endurance``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar, Dict, List, Tuple

from repro.artifacts import digest_lines
from repro.faults.campaign import CampaignConfig, CampaignReport
from repro.faults.storage import StableStateCorruptor

if TYPE_CHECKING:
    from repro.search.genome import ScheduleGenome

#: Availability sampling bin width (virtual seconds).
AVAILABILITY_BIN = 0.25

#: The scenario families an endurance genome is derived from.
FAMILIES = ("rolling", "storm", "churn", "stabilize")


@dataclass
class EnduranceConfig(CampaignConfig):
    """Shape of one endurance run.  Endurance is always client-driven:
    the availability metric *is* committed client requests."""

    KIND: ClassVar[str] = "endurance"
    DEFAULT_DURATION: ClassVar[float] = 12.0
    DEFAULT_CLIENTS: ClassVar[int] = 6
    #: A majority must survive one site down.
    MIN_SITES: ClassVar[int] = 3

    #: Which scenario families (:data:`FAMILIES`) the genome is derived
    #: from.  A single-element tuple pins a run to one family — the
    #: regression tests use this.
    segments: Tuple[str, ...] = ("rolling", "storm", "churn", "stabilize")
    #: Longest tolerated span with zero committed client requests
    #: (outside maintenance windows) before the run fails.
    availability_window: float = 1.5
    #: Grace prefix while the cluster bootstraps and clients ramp up.
    availability_warmup: float = 1.0

    def validate(self) -> None:
        super().validate()
        if self.clients < 1:
            raise ValueError("endurance is client-driven: clients must be >= 1")
        if not self.segments:
            raise ValueError("segments must not be empty")
        unknown = sorted(set(self.segments) - set(FAMILIES))
        if unknown:
            raise ValueError(
                f"unknown segment(s) {', '.join(unknown)}; "
                f"valid: {', '.join(sorted(FAMILIES))}"
            )
        if self.availability_window < AVAILABILITY_BIN:
            raise ValueError("availability_window must be at least the "
                             f"{AVAILABILITY_BIN}s sampling bin")


@dataclass
class EnduranceReport(CampaignReport):
    """Outcome of one endurance (or schedule-search) run."""

    PAYLOAD_EXTRAS: ClassVar[Tuple[str, ...]] = (
        "sweeps", "rolling_restarts", "partition_cycles",
        "transfers_interrupted", "churn_leaves", "stabilize_starts")

    #: Availability timeline: (bin end time, commits in bin, maintenance).
    samples: List[Tuple[float, int, bool]] = field(default_factory=list)
    bin_width: float = AVAILABILITY_BIN
    warmup: float = 1.0
    sweeps: int = 0
    rolling_restarts: int = 0
    partition_cycles: int = 0
    transfers_interrupted: int = 0
    churn_leaves: int = 0
    stabilize_starts: int = 0

    def availability(self) -> Dict[str, float]:
        """Aggregate availability stats over serving (non-maintenance,
        post-warmup) bins: min/mean commit rate and zero-commit bins."""
        serving = [(t, c) for t, c, m in self.samples
                   if not m and t > self.warmup]
        if not serving:
            return {"bins": 0.0, "zero_bins": 0.0,
                    "min_rate": 0.0, "mean_rate": 0.0}
        rates = [c / self.bin_width for _t, c in serving]
        return {
            "bins": float(len(serving)),
            "zero_bins": float(sum(1 for _t, c in serving if c == 0)),
            "min_rate": min(rates),
            "mean_rate": sum(rates) / len(rates),
        }

    def summary(self) -> str:
        avail = self.availability()
        return (
            f"endurance seed={self.seed}: {self.verdict()} — "
            f"{self.sweeps} quiescent sweeps, "
            f"{self.rolling_restarts} restarts, "
            f"{self.partition_cycles} partition cycles "
            f"({self.transfers_interrupted} transfers cut), "
            f"{self.churn_leaves} churn leaves, "
            f"{self.stabilize_starts} stabilization starts; "
            f"availability mean {avail['mean_rate']:.1f}/s "
            f"min {avail['min_rate']:.1f}/s "
            f"({avail['zero_bins']:.0f}/{avail['bins']:.0f} zero bins)"
        )

    def payload(self) -> Dict[str, Any]:
        payload = super().payload()
        payload["availability"] = self.availability()
        payload["availability_digest"] = digest_lines(
            f"{t:.6f} {c} {int(m)}" for t, c, m in self.samples)
        return payload



# ----------------------------------------------------------------------
# Derivation: the config is a genome
# ----------------------------------------------------------------------
#: Gene time (virtual seconds) between quiescent invariant sweeps.
SWEEP_INTERVAL = 4.0


def derive_genome(config: EnduranceConfig) -> ScheduleGenome:
    """The schedule genome one endurance config describes.

    Draws from ``random.Random(f"endurance-{seed}")``: pick a family,
    emit its genes, and insert a :class:`~repro.search.genome.SweepGene`
    whenever :data:`SWEEP_INTERVAL` of gene time has passed since the last
    one — until the genes' total duration reaches ``config.duration``.
    A pure function of the config."""
    # Call-time import: repro.search imports this module.
    from repro.search.genome import (
        CorruptGene, CrashGene, PartitionGene, RestartGene, ScheduleGenome,
        SweepGene, _q,
    )

    config.validate()
    rng = random.Random(f"endurance-{config.seed}")
    n_sites = config.n_sites

    def rolling() -> List[Any]:
        return [RestartGene(victims=tuple(range(n_sites)),
                            hold=_q(0.10 + 0.20 * rng.random()))]

    def storm() -> List[Any]:
        # The hold lets the majority view install and serve; the settle
        # lets the rejoin transfer start but rarely finish, so the next
        # cut interrupts it.
        victim = rng.randrange(n_sites)
        return [PartitionGene(minority=(victim,),
                              hold=_q(0.20 + 0.20 * rng.random()),
                              settle=_q(0.12 + 0.12 * rng.random()))
                for _ in range(2 + rng.randrange(3))]

    def churn() -> List[Any]:
        genes = []
        for _ in range(1 + rng.randrange(3)):
            victim = rng.randrange(n_sites)
            downtime = _q(0.08 + 0.12 * rng.random())
            restrike = (_q(0.08 + 0.12 * rng.random())
                        if rng.random() < 0.4 else 0.0)
            genes.append(CrashGene(victims=(victim,), downtime=downtime,
                                   restrike=restrike))
        return genes

    def stabilize() -> List[Any]:
        return [CorruptGene(victim=rng.randrange(n_sites),
                            op=rng.choice(StableStateCorruptor.OPS),
                            downtime=_q(0.05 + 0.10 * rng.random()))]

    families = {"rolling": rolling, "storm": storm, "churn": churn,
                "stabilize": stabilize}
    genes: List[Any] = []
    elapsed = since_sweep = 0.0
    while elapsed < config.duration:
        span = families[rng.choice(config.segments)]()
        genes.extend(span)
        length = sum(gene.duration() for gene in span)
        elapsed = round(elapsed + length, 6)
        since_sweep = round(since_sweep + length, 6)
        if since_sweep >= SWEEP_INTERVAL:
            genes.append(SweepGene())
            since_sweep = 0.0
    return ScheduleGenome(
        seed=config.seed, n_sites=n_sites, mode=config.mode,
        strategy=config.strategy, clients=config.clients,
        arrival_rate=config.arrival_rate, db_size=config.db_size,
        segments=tuple(genes))


def run_endurance(seed: int, **overrides: Any) -> EnduranceReport:
    """One-call entry point: run an endurance schedule, return its report."""
    from repro.search.executor import ScheduleExecutor

    return ScheduleExecutor.from_params(seed=seed, **overrides).run()
