"""Coverage-guided adversarial chaos search (``python -m repro search``).

Public surface:

* :mod:`repro.search.genome` — typed fault-schedule genomes (JSON
  round-trippable generation and mutation bounded by the majority
  concurrency limit);
* :mod:`repro.search.executor` — deterministic genome execution, the
  one churn driver (endurance runs are derived genomes);
* :mod:`repro.search.engine` — the mutation/score/corpus loop, failure
  shrinking and replay;
* :mod:`repro.search.shrink` — delta-debugging schedule minimization;
* :mod:`repro.search.pinned` — schedules pinned as regression and
  determinism-audit cases.
"""

from repro.search.engine import (
    SearchConfig,
    SearchEngine,
    SearchReport,
    evaluate_genome,
    load_schedule,
    replay_schedule,
    run_search,
)
from repro.search.executor import ScheduleExecutor, run_schedule
from repro.search.genome import (
    CorruptGene,
    CrashGene,
    PartitionGene,
    QuietGene,
    RestartGene,
    ScheduleGenome,
    SearchSpace,
    SweepGene,
    mutate,
    random_genome,
)
from repro.search.shrink import shrink

__all__ = [
    "CorruptGene",
    "CrashGene",
    "PartitionGene",
    "QuietGene",
    "RestartGene",
    "ScheduleExecutor",
    "ScheduleGenome",
    "SearchConfig",
    "SearchEngine",
    "SearchReport",
    "SearchSpace",
    "SweepGene",
    "evaluate_genome",
    "load_schedule",
    "mutate",
    "random_genome",
    "replay_schedule",
    "run_schedule",
    "run_search",
    "shrink",
]
