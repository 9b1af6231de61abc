"""Typed fault-schedule genomes for the adversarial chaos search.

A **genome** is a complete, explicit description of one adversarial run:
the cluster shape (sites, backend, strategy), the client load, and an
ordered list of typed fault **genes** — crash bursts, partition cuts,
rolling restarts, CRC-valid stable-state corruptions and quiet spells —
each carrying concrete parameters (victim site indices, hold times,
corruption ops).  Unlike the chaos/endurance engines, whose storms are
drawn from an RNG *during* the run, a genome contains no deferred
randomness: executing it (:mod:`repro.search.executor`) consumes zero
schedule-RNG draws, so a genome replays byte-identically, serializes to
JSON and back without loss, and can be minimized gene by gene by the
shrinker (:mod:`repro.search.shrink`).

All generation and mutation randomness comes from the caller's
``random.Random`` — the search engine owns exactly one, keyed on the
search seed.  Victim counts are bounded by :func:`concurrency_limit`,
which the mutator deliberately pushes to its limit: on a 5-site majority
cluster, two sites crash or partition away *concurrently*.  Endurance
runs are genomes too (:func:`repro.endurance.derive_genome`).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.faults.storage import StableStateCorruptor

#: Duration quantum (virtual seconds): every gene time is a multiple,
#: so mutation/shrinking arithmetic stays exactly representable in JSON.
TICK = 0.01


def _q(value: float, minimum: float = TICK) -> float:
    """Quantize a duration to the tick grid, at least ``minimum``."""
    return max(minimum, round(round(value / TICK) * TICK, 6))


def concurrency_limit(n_sites: int) -> int:
    """Most sites churn may take out of service at once: every backend
    (vs, evs, logless) serves from a majority, so ``n - (n // 2 + 1)``,
    but never below one — a gene always has a victim."""
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    return max(1, (n_sites - 1) // 2)


# ----------------------------------------------------------------------
# Genes
# ----------------------------------------------------------------------
class _Gene:
    """Loud failure for hand-edited schedules: every duration finite and
    non-negative, every victim tuple non-empty, every index >= 0."""

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if field.type == "float" and not (math.isfinite(value)
                                              and value >= 0):
                rule = "a finite duration >= 0"
            elif field.type == "int" and value < 0:
                rule = "an index >= 0"
            elif field.type == "Tuple[int, ...]" and (not value
                                                      or min(value) < 0):
                rule = "a non-empty list of indices >= 0"
            else:
                continue
            raise ValueError(f"{self.kind} gene: {field.name} must be "
                             f"{rule}, got {value!r}")


@dataclass(frozen=True)
class CrashGene(_Gene):
    """Crash ``victims`` concurrently (staggered by ``stagger``), hold
    them down for ``downtime``, then recover them all.  A ``restrike``
    > 0 crashes them again that long after the recovery — usually while
    they are still catching up — for another ``downtime``."""

    victims: Tuple[int, ...]
    downtime: float
    stagger: float = 0.0
    restrike: float = 0.0

    kind = "crash"

    def duration(self) -> float:
        again = self.restrike + self.downtime if self.restrike else 0.0
        return self.downtime + self.stagger * len(self.victims) + again

    def size(self) -> float:
        return len(self.victims) + self.duration()

    def describe(self) -> str:
        return (f"crash {list(self.victims)} down={self.downtime:g}"
                + (f" stagger={self.stagger:g}" if self.stagger else "")
                + (f" restrike={self.restrike:g}" if self.restrike else ""))

    def reductions(self) -> Iterator["CrashGene"]:
        if len(self.victims) > 1:
            yield replace(self, victims=self.victims[:-1])
        if self.downtime > TICK:
            yield replace(self, downtime=_q(self.downtime / 2))
        if self.stagger > 0:
            yield replace(self, stagger=0.0)
        if self.restrike > 0:
            yield replace(self, restrike=0.0)


@dataclass(frozen=True)
class PartitionGene(_Gene):
    """Cut ``minority`` sites off for ``hold`` seconds, then heal and
    run ``settle`` more.  ``shatter`` isolates each minority site alone
    (no minority subgroup), the harsher cut."""

    minority: Tuple[int, ...]
    hold: float
    settle: float = 0.1
    shatter: bool = False

    kind = "partition"

    def duration(self) -> float:
        return self.hold + self.settle

    def size(self) -> float:
        return len(self.minority) + self.duration()

    def describe(self) -> str:
        style = "shatter" if self.shatter else "cut"
        return (f"partition {style} {list(self.minority)} "
                f"hold={self.hold:g} settle={self.settle:g}")

    def reductions(self) -> Iterator["PartitionGene"]:
        if len(self.minority) > 1:
            yield replace(self, minority=self.minority[:-1])
        if self.hold > TICK:
            yield replace(self, hold=_q(self.hold / 2))
        if self.settle > TICK:
            yield replace(self, settle=_q(self.settle / 2))
        if self.shatter:
            yield replace(self, shatter=False)


@dataclass(frozen=True)
class RestartGene(_Gene):
    """Rolling restart: bounce each victim in sequence, holding each
    down for ``hold`` before recovering and awaiting ACTIVE."""

    victims: Tuple[int, ...]
    hold: float

    kind = "restart"

    def duration(self) -> float:
        return self.hold * len(self.victims)

    def size(self) -> float:
        return len(self.victims) + self.duration()

    def describe(self) -> str:
        return f"restart {list(self.victims)} hold={self.hold:g}"

    def reductions(self) -> Iterator["RestartGene"]:
        if len(self.victims) > 1:
            yield replace(self, victims=self.victims[:-1])
        if self.hold > TICK:
            yield replace(self, hold=_q(self.hold / 2))


@dataclass(frozen=True)
class CorruptGene(_Gene):
    """Self-stabilization start: crash ``victim``, apply the CRC-valid
    corruption ``op`` (:data:`StableStateCorruptor.OPS`) to its stable
    state, hold ``downtime``, then reboot it."""

    victim: int
    op: str
    downtime: float

    kind = "corrupt"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.op not in StableStateCorruptor.OPS:
            raise ValueError(f"unknown corruption op {self.op!r}")

    def duration(self) -> float:
        return self.downtime

    def size(self) -> float:
        return 1 + self.duration()

    def describe(self) -> str:
        return f"corrupt S[{self.victim}] op={self.op} down={self.downtime:g}"

    def reductions(self) -> Iterator["CorruptGene"]:
        if self.downtime > TICK:
            yield replace(self, downtime=_q(self.downtime / 2))


@dataclass(frozen=True)
class QuietGene(_Gene):
    """Run faults-free for ``duration`` seconds — serving windows
    between cuts are what lets a following cut interrupt an in-flight
    transfer instead of a cold, already-converged cluster."""

    duration_s: float

    kind = "quiet"

    def duration(self) -> float:
        return self.duration_s

    def size(self) -> float:
        return self.duration()

    def describe(self) -> str:
        return f"quiet {self.duration_s:g}"

    def reductions(self) -> Iterator["QuietGene"]:
        if self.duration_s > TICK:
            yield replace(self, duration_s=_q(self.duration_s / 2))


@dataclass(frozen=True)
class SweepGene(_Gene):
    """Quiescent sweep: pause the schedule, heal and recover everything,
    drain the clients, run the full invariant battery, resume."""

    kind = "sweep"

    def duration(self) -> float:
        return 0.0

    def size(self) -> float:
        return 0.0

    def describe(self) -> str:
        return "sweep"

    def reductions(self) -> Iterator["SweepGene"]:
        return iter(())


GENE_KINDS = {cls.kind: cls for cls in
              (CrashGene, PartitionGene, RestartGene, CorruptGene, QuietGene,
               SweepGene)}

Gene = Any  # union of the gene dataclasses above


def gene_to_dict(gene: Gene) -> Dict[str, Any]:
    payload: Dict[str, Any] = {"kind": gene.kind}
    for field in fields(gene):
        value = getattr(gene, field.name)
        payload[field.name] = list(value) if isinstance(value, tuple) else value
    return payload


def gene_from_dict(payload: Dict[str, Any]) -> Gene:
    data = dict(payload)
    kind = data.pop("kind", None)
    try:
        cls = GENE_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown gene kind {kind!r}; "
                         f"valid: {', '.join(sorted(GENE_KINDS))}") from None
    for field in fields(cls):
        if isinstance(data.get(field.name), list):
            data[field.name] = tuple(data[field.name])
    return cls(**data)


# ----------------------------------------------------------------------
# The genome
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScheduleGenome:
    """One complete adversarial run: cluster shape + client load + genes."""

    seed: int
    n_sites: int
    #: Reconfiguration backend: a repro.reconfig.backends registry name.
    mode: str = "vs"
    strategy: str = "rectable"
    clients: int = 6
    arrival_rate: float = 60.0
    segments: Tuple[Gene, ...] = ()
    db_size: int = 40

    def total_duration(self) -> float:
        return round(sum(gene.duration() for gene in self.segments), 6)

    def schedule_size(self) -> Tuple[int, float]:
        """Lexicographic size metric the shrinker must strictly reduce:
        (gene count, summed gene size)."""
        return (len(self.segments),
                round(sum(gene.size() for gene in self.segments), 6))

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "n_sites": self.n_sites,
            "mode": self.mode,
            "strategy": self.strategy,
            "clients": self.clients,
            "arrival_rate": self.arrival_rate,
            "db_size": self.db_size,
            "segments": [gene_to_dict(gene) for gene in self.segments],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ScheduleGenome":
        data = dict(payload)
        valid = [field.name for field in fields(cls)]
        unknown = sorted(set(data) - set(valid))
        if unknown:
            hint = ""
            if "backend" in unknown:
                hint += "; 'backend' is retired: 'mode' now takes the backend name"
            if {"max_down", "respect_creation_majority"} & set(unknown):
                hint += ("; 'max_down' and 'respect_creation_majority' are "
                         "retired: the concurrency limit is the majority rule")
            raise ValueError(f"unknown schedule key(s) {', '.join(unknown)}; "
                             f"valid: {', '.join(valid)}{hint}")
        data["segments"] = tuple(gene_from_dict(g)
                                 for g in data.get("segments", ()))
        return cls(**data)

    def dumps(self) -> str:
        """Canonical JSON text (sorted keys) — the on-disk schedule format."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def loads(cls, text: str) -> "ScheduleGenome":
        return cls.from_dict(json.loads(text))

    def digest(self) -> str:
        return hashlib.sha256(self.dumps().encode()).hexdigest()

    def describe(self) -> str:
        genes = "; ".join(gene.describe() for gene in self.segments)
        return (f"seed={self.seed} {self.mode} "
                f"n={self.n_sites} [{genes}]")


# ----------------------------------------------------------------------
# Generation and mutation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SearchSpace:
    """Bounds the generator and mutator draw genomes from."""

    n_sites: int = 5
    mode: str = "vs"
    strategy: str = "rectable"
    clients: int = 6
    arrival_rate: float = 60.0
    min_genes: int = 2
    max_genes: int = 6
    max_hold: float = 0.6
    seeds: int = 8  # distinct cluster seeds the generator picks from

    def concurrency_limit(self) -> int:
        return concurrency_limit(self.n_sites)


def _victims(rng: random.Random, space: SearchSpace,
             at_most: Optional[int] = None) -> Tuple[int, ...]:
    limit = space.concurrency_limit() if at_most is None else at_most
    count = 1 + rng.randrange(limit)
    return tuple(sorted(rng.sample(range(space.n_sites), count)))


def random_gene(rng: random.Random, space: SearchSpace) -> Gene:
    hold = _q(0.05 + rng.random() * space.max_hold)
    roll = rng.random()
    if roll < 0.25:
        return CrashGene(victims=_victims(rng, space), downtime=hold,
                         stagger=_q(rng.random() * 0.05, minimum=0.0))
    if roll < 0.50:
        return PartitionGene(minority=_victims(rng, space), hold=hold,
                             settle=_q(0.05 + rng.random() * 0.2),
                             shatter=rng.random() < 0.4)
    if roll < 0.68:
        return RestartGene(victims=_victims(rng, space), hold=_q(hold / 2))
    if roll < 0.85:
        return CorruptGene(victim=rng.randrange(space.n_sites),
                           op=rng.choice(StableStateCorruptor.OPS),
                           downtime=hold)
    return QuietGene(duration_s=_q(0.1 + rng.random() * 0.4))


def random_genome(rng: random.Random, space: SearchSpace) -> ScheduleGenome:
    count = space.min_genes + rng.randrange(space.max_genes - space.min_genes + 1)
    return ScheduleGenome(
        seed=rng.randrange(space.seeds),
        n_sites=space.n_sites,
        mode=space.mode,
        strategy=space.strategy,
        clients=space.clients,
        arrival_rate=space.arrival_rate,
        segments=tuple(random_gene(rng, space) for _ in range(count)),
    )


def _perturb(rng: random.Random, space: SearchSpace, gene: Gene) -> Gene:
    """One small change to one gene, staying inside the concurrency limit."""
    if isinstance(gene, CrashGene):
        return replace(gene, victims=_victims(rng, space),
                       downtime=_q(gene.downtime * (0.5 + rng.random())))
    if isinstance(gene, PartitionGene):
        return replace(gene, minority=_victims(rng, space),
                       hold=_q(gene.hold * (0.5 + rng.random())),
                       shatter=rng.random() < 0.4)
    if isinstance(gene, RestartGene):
        return replace(gene, victims=_victims(rng, space),
                       hold=_q(gene.hold * (0.5 + rng.random())))
    if isinstance(gene, CorruptGene):
        return replace(gene, victim=rng.randrange(space.n_sites),
                       op=rng.choice(StableStateCorruptor.OPS))
    return replace(gene, duration_s=_q(gene.duration_s * (0.5 + rng.random())))


def mutate(rng: random.Random, genome: ScheduleGenome,
           space: SearchSpace) -> ScheduleGenome:
    """One mutation step: add/drop/duplicate/perturb/swap genes, or
    re-seed the underlying cluster simulation."""
    segments: List[Gene] = list(genome.segments)
    roll = rng.random()
    if roll < 0.15 and len(segments) < space.max_genes:
        segments.insert(rng.randrange(len(segments) + 1),
                        random_gene(rng, space))
    elif roll < 0.30 and len(segments) > space.min_genes:
        segments.pop(rng.randrange(len(segments)))
    elif roll < 0.40 and len(segments) < space.max_genes:
        index = rng.randrange(len(segments))
        segments.insert(index, segments[index])
    elif roll < 0.50 and len(segments) >= 2:
        i, j = rng.sample(range(len(segments)), 2)
        segments[i], segments[j] = segments[j], segments[i]
    elif roll < 0.60:
        return replace(genome, seed=rng.randrange(space.seeds))
    else:
        index = rng.randrange(len(segments))
        segments[index] = _perturb(rng, space, segments[index])
    return replace(genome, segments=tuple(segments))
