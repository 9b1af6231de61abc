"""Coverage-guided adversarial schedule search.

``python -m repro search`` runs a seeded mutation loop over typed fault
schedules (:mod:`repro.search.genome`): each generation proposes a
population of candidate genomes (mutations of interesting corpus
entries, plus fresh random ones), executes every candidate through the
endurance harness (:mod:`repro.search.executor`) — fanned out across
worker processes via :mod:`repro.fleet` — and scores the results on
three feedback signals:

* **availability damage** — total dark time across every violating
  window :func:`repro.checkers.availability_violations` finds in the
  run's availability timeline, with uncovered windows (dark time no
  reconfiguration epoch explains) weighted double;
* **epoch-phase novelty** — ``(trigger | phase shape | backend)``
  signatures (:func:`repro.obs.epochs.epoch_signature`) never seen in
  any earlier candidate;
* **trace coverage** — ``category:kind`` trace-event classes never seen
  before.

Novel or damaging schedules enter the **corpus** (JSON on disk, each
entry replayable byte-identically via ``--replay``).  A candidate that
*fails* — invariant violation, wedged quiesce, availability-floor
breach — is handed to the delta-debugging shrinker
(:mod:`repro.search.shrink`), and the minimized schedule is dumped as a
failure-evidence bundle through the shared :mod:`repro.artifacts` path.

Everything is deterministic: one search seed is one exact search.  The
mutation RNG is a dedicated ``random.Random(f"search-{seed}")`` stream;
candidate evaluation is itself seeded simulation; fleet results merge in
submission order regardless of ``--jobs``.  Two runs of the same seed
produce byte-identical corpora — CI compares their digests.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.fleet import FleetTask, run_fleet
from repro.search.executor import ScheduleExecutor
from repro.search.genome import ScheduleGenome, SearchSpace, mutate, random_genome
from repro.search.shrink import shrink

#: Uncovered dark time (no epoch explains the outage) is worse than
#: blocked time — weight it double in the damage score.
UNCOVERED_WEIGHT = 2.0


# ----------------------------------------------------------------------
# Candidate evaluation (runs inside fleet workers)
# ----------------------------------------------------------------------
def run_digest_of(executor: ScheduleExecutor) -> str:
    """One hash for 'this exact run happened': the audit module's full
    digest set (state/history/aborts/trace/schedule + counters),
    canonically serialized.  Replays must reproduce it bit for bit."""
    from repro import audit

    report = executor.report
    collected = audit._collect(executor.cluster, tracer=report.tracer,
                               schedule=report.schedule_lines(),
                               ok=report.ok)
    flat = audit._flatten(collected)
    return hashlib.sha256(
        json.dumps(flat, sort_keys=True).encode()).hexdigest()


def evaluate_genome(genome: ScheduleGenome) -> Dict[str, Any]:
    """Execute one genome and return its picklable evaluation payload."""
    from repro.checkers import availability_violations
    from repro.obs.epochs import epoch_signatures

    executor = ScheduleExecutor(genome)
    report = executor.run()
    epochs = report.epochs()
    config = executor.config
    windows = availability_violations(
        report.samples,
        window=config.availability_window,
        bin_width=report.bin_width,
        warmup=config.availability_warmup,
        min_span=report.bin_width,
        epochs=epochs,
    )
    damage = sum(w.duration for w in windows)
    uncovered = sum(w.duration for w in windows if w.covered is False)
    coverage = sorted({f"{event.category}:{event.kind}"
                       for event in report.tracer.events})
    return {
        "ok": report.ok,
        "error": report.error,
        "score": round(damage + UNCOVERED_WEIGHT * uncovered, 6),
        "damage": round(damage, 6),
        "uncovered": round(uncovered, 6),
        "windows": [w.describe() for w in windows],
        "signatures": epoch_signatures(epochs, backend=genome.mode),
        "coverage": coverage,
        "run_digest": run_digest_of(executor),
        "virtual_time": report.virtual_time,
    }


# ----------------------------------------------------------------------
# Search configuration and report
# ----------------------------------------------------------------------
@dataclass
class SearchConfig:
    seed: int = 0
    generations: int = 4
    population: int = 8
    jobs: int = 1
    corpus_limit: int = 24
    #: Stop searching after this many distinct failing schedules (each
    #: is shrunk and dumped before the search continues/stops).
    max_failures: int = 2
    shrink_budget: int = 80
    corpus_dir: Optional[str] = None
    artifacts_dir: Optional[str] = None
    space: SearchSpace = field(default_factory=SearchSpace)

    def validate(self) -> None:
        if self.generations < 1 or self.population < 1:
            raise ValueError("generations and population must be >= 1")
        if self.corpus_limit < 1:
            raise ValueError("corpus_limit must be >= 1")
        if self.shrink_budget < 1:
            raise ValueError("shrink_budget must be >= 1")

    @classmethod
    def smoke(cls, **overrides: Any) -> "SearchConfig":
        """The CI-scale preset: a couple of generations, small
        population, tight shrink budget."""
        defaults: Dict[str, Any] = dict(generations=2, population=4,
                                        shrink_budget=40)
        defaults.update(overrides)
        return cls(**defaults)


@dataclass
class CorpusEntry:
    genome: ScheduleGenome
    score: float
    novelty: int
    signatures: List[str]
    run_digest: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "genome": self.genome.to_dict(),
            "score": self.score,
            "novelty": self.novelty,
            "signatures": list(self.signatures),
            "run_digest": self.run_digest,
        }


@dataclass
class SearchFailure:
    genome: ScheduleGenome
    minimal: ScheduleGenome
    error: str
    shrink_evaluations: int
    artifacts: List[str] = field(default_factory=list)

    def summary(self) -> str:
        before = self.genome.schedule_size()
        after = self.minimal.schedule_size()
        return (f"FAIL [{self.error}] — shrunk "
                f"{before[0]} genes (size {before[1]:g}) -> "
                f"{after[0]} genes (size {after[1]:g}) "
                f"in {self.shrink_evaluations} evaluations")


@dataclass
class SearchReport:
    seed: int
    corpus: List[CorpusEntry] = field(default_factory=list)
    failures: List[SearchFailure] = field(default_factory=list)
    candidates: int = 0
    signatures: List[str] = field(default_factory=list)
    coverage_classes: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.errors

    def corpus_digest(self) -> str:
        """One hash over the whole corpus (genomes + run digests), the
        CI determinism check: same seed => same digest, byte for byte."""
        blob = json.dumps([entry.to_dict() for entry in self.corpus],
                          sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def summary(self) -> str:
        verdict = ("OK" if self.ok
                   else f"{len(self.failures)} failing schedule(s)")
        return (f"search seed={self.seed}: {verdict} — "
                f"{self.candidates} candidates evaluated, "
                f"corpus {len(self.corpus)} entries, "
                f"{len(self.signatures)} epoch signatures, "
                f"{self.coverage_classes} trace classes, "
                f"corpus digest {self.corpus_digest()[:16]}")


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class SearchEngine:
    """One seeded coverage-guided search campaign."""

    def __init__(self, config: Optional[SearchConfig] = None) -> None:
        self.config = config or SearchConfig()
        self.config.validate()
        # All mutation/selection randomness in one dedicated stream:
        # the search trajectory is a pure function of the search seed.
        self.rng = random.Random(f"search-{self.config.seed}")
        self.report = SearchReport(seed=self.config.seed)
        self._seen_signatures: set = set()
        self._seen_coverage: set = set()
        self._seen_genomes: set = set()
        self._failed_digests: set = set()

    # -- candidate proposal --------------------------------------------
    def _propose(self) -> ScheduleGenome:
        corpus, space = self.report.corpus, self.config.space
        for _attempt in range(8):
            if corpus and self.rng.random() < 0.7:
                # Rank-biased parent pick: quadratic pressure toward the
                # highest-scoring corpus entries.
                ranked = sorted(corpus, key=lambda e: -e.score)
                index = min(int(self.rng.random() ** 2 * len(ranked)),
                            len(ranked) - 1)
                candidate = mutate(self.rng, ranked[index].genome, space)
            else:
                candidate = random_genome(self.rng, space)
            if candidate.digest() not in self._seen_genomes:
                return candidate
        return candidate  # duplicates are wasteful, not wrong

    # -- main loop ------------------------------------------------------
    def run(self) -> SearchReport:
        config = self.config
        for generation in range(config.generations):
            if len(self.report.failures) >= config.max_failures:
                break
            batch = [self._propose() for _ in range(config.population)]
            for genome in batch:
                self._seen_genomes.add(genome.digest())
            tasks = [
                FleetTask(key=f"g{generation}c{index}", kind="search_eval",
                          params={"genome": genome.to_dict()})
                for index, genome in enumerate(batch)
            ]
            payloads = run_fleet(tasks, jobs=config.jobs)
            for index, genome in enumerate(batch):
                payload = payloads[f"g{generation}c{index}"]
                self._absorb(genome, payload)
                if len(self.report.failures) >= config.max_failures:
                    break
        self.report.signatures = sorted(self._seen_signatures)
        self.report.coverage_classes = len(self._seen_coverage)
        if config.corpus_dir:
            self._write_corpus(config.corpus_dir)
        return self.report

    def _absorb(self, genome: ScheduleGenome,
                payload: Dict[str, Any]) -> None:
        self.report.candidates += 1
        if "fleet_error" in payload:
            self.report.errors.append(
                f"candidate {genome.digest()[:12]} crashed in worker:\n"
                f"{payload['fleet_error']}")
            return
        new_signatures = [s for s in payload["signatures"]
                          if s not in self._seen_signatures]
        new_coverage = [c for c in payload["coverage"]
                        if c not in self._seen_coverage]
        self._seen_signatures.update(new_signatures)
        self._seen_coverage.update(new_coverage)
        novelty = len(new_signatures) + len(new_coverage)
        if not payload["ok"]:
            self._handle_failure(genome, payload)
            return
        if novelty > 0 or payload["score"] > 0:
            entry = CorpusEntry(genome=genome, score=payload["score"],
                                novelty=novelty,
                                signatures=payload["signatures"],
                                run_digest=payload["run_digest"])
            self.report.corpus.append(entry)
            if len(self.report.corpus) > self.config.corpus_limit:
                # Evict the least interesting entry (lowest score, then
                # lowest novelty), keeping list order deterministic.
                victim = min(range(len(self.report.corpus)),
                             key=lambda i: (self.report.corpus[i].score,
                                            self.report.corpus[i].novelty))
                del self.report.corpus[victim]

    # -- failures: shrink + artifacts ----------------------------------
    def _handle_failure(self, genome: ScheduleGenome,
                        payload: Dict[str, Any]) -> None:
        def still_fails(candidate: ScheduleGenome) -> bool:
            return not ScheduleExecutor(candidate).run().ok

        minimal, spent = shrink(genome, still_fails,
                                budget=self.config.shrink_budget)
        if minimal.digest() in self._failed_digests:
            return  # same minimal core as an earlier failure
        self._failed_digests.add(minimal.digest())
        failure = SearchFailure(genome=genome, minimal=minimal,
                                error=payload["error"] or "failed",
                                shrink_evaluations=spent)
        if self.config.artifacts_dir:
            out_dir = os.path.join(self.config.artifacts_dir,
                                   f"failure-{minimal.digest()[:12]}")
            failure.artifacts = dump_failure(minimal, out_dir,
                                             original=genome)
        self.report.failures.append(failure)

    # -- corpus persistence --------------------------------------------
    def _write_corpus(self, corpus_dir: str) -> None:
        from repro.artifacts import write_text

        index: List[Dict[str, Any]] = []
        for number, entry in enumerate(self.report.corpus):
            name = f"schedule_{number:03d}.json"
            write_text(corpus_dir, name, json.dumps(
                entry.to_dict(), indent=2, sort_keys=True))
            index.append({"file": name,
                          "genome_digest": entry.genome.digest(),
                          "run_digest": entry.run_digest,
                          "score": entry.score,
                          "novelty": entry.novelty})
        write_text(corpus_dir, "corpus.json", json.dumps(
            {"seed": self.report.seed,
             "corpus_digest": self.report.corpus_digest(),
             "entries": index},
            indent=2, sort_keys=True))


# ----------------------------------------------------------------------
# Failure artifacts and schedule replay
# ----------------------------------------------------------------------
def dump_failure(genome: ScheduleGenome, out_dir: str, *,
                 original: Optional[ScheduleGenome] = None) -> List[str]:
    """Re-execute a (minimized) failing genome and dump the shared
    evidence bundle (which includes the schedule JSON itself) plus the
    pre-shrink original, when given."""
    from repro.faults.campaign import dump_artifacts

    executor = ScheduleExecutor(genome)
    report = executor.run()
    extra = ({} if original is None
             else {"schedule_original.json": original.dumps()})
    return dump_artifacts(
        executor, out_dir,
        title=f"search schedule {genome.digest()[:12]} — {report.verdict()}",
        repro="PYTHONPATH=src python -m repro search --replay schedule.json",
        extra=extra,
    )


def load_schedule(path: str) -> Tuple[ScheduleGenome, Optional[str]]:
    """Read a schedule file: either a bare genome or a corpus entry
    wrapper (``{"genome": ..., "run_digest": ...}``).  Returns the
    genome and the recorded run digest, if any."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if "genome" in payload:
        return (ScheduleGenome.from_dict(payload["genome"]),
                payload.get("run_digest"))
    return ScheduleGenome.from_dict(payload), None


def replay_schedule(path: str) -> Dict[str, Any]:
    """Replay one schedule file and compare against its recorded run
    digest (when the file carries one).  ``matches`` is None when there
    is nothing recorded to compare against."""
    genome, recorded = load_schedule(path)
    payload = evaluate_genome(genome)
    payload["genome_digest"] = genome.digest()
    payload["recorded_digest"] = recorded
    payload["matches"] = (None if recorded is None
                          else payload["run_digest"] == recorded)
    return payload
