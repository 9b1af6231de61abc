"""The three scripted scenarios the determinism audit replays.

Fixed seeds and workloads, so every run — on any machine, at any
``--jobs`` level — is the same simulation; ``repro.audit`` runs each as
its ``bench:<name>`` case, with batching on and off, and digests the
finished cluster:

* ``throughput`` — 5 sites, steady 900 txn/s OLTP load, no faults; the
  hot-path scenario the batching and event-kernel work targets.
* ``figure1``   — the paper's Figure 1 cascading reconfiguration (VS).
* ``figure2_evs`` — the same schedule under EVS (Figure 2).

The runs themselves are :mod:`repro.scenarios`'; this table only pins
their inputs.  The audit's pinned fault storms are campaign cases
(``repro.audit._chaos_case``).  Nothing here measures anything: speed
and protocol-cost figures come from ``perf/`` (``perf/README.md``,
``BENCHMARK.json``), identity with another checkout from
``tools/audit_against.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.cluster import Cluster
from repro.scenarios import ScenarioReport, run_figure1_scenario, run_steady_load


def _figure(mode: str, smoke: bool, batching: bool) -> ScenarioReport:
    scale = dict(db_size=120, arrival_rate=50.0) if smoke else {}
    return run_figure1_scenario(mode=mode, strategy="rectable", seed=17,
                                batching=batching, **scale)


_RUNNERS: Dict[str, Callable[[bool, bool], ScenarioReport]] = {
    # 900 txn/s since the hot-path rewrite (EXPERIMENTS.md "Hot path,
    # round 2").
    "throughput": lambda smoke, batching: run_steady_load(
        n_sites=5, db_size=200, seed=11, arrival_rate=900.0,
        duration=1.5 if smoke else 6.0, batching=batching),
    "figure1": lambda smoke, batching: _figure("vs", smoke, batching),
    "figure2_evs": lambda smoke, batching: _figure("evs", smoke, batching),
}


def run_scenario(name: str, smoke: bool = False,
                 batching: bool = True) -> Tuple[Cluster, bool]:
    """Run one pinned scenario by name; returns the finished cluster and
    whether the scenario completed and passed its checks."""
    report = _RUNNERS[name](smoke, batching)
    return report.cluster, report.completed
