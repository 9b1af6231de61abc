"""The three scripted runs the determinism audit replays as its
``bench:*`` cases.

Each row names a :mod:`repro.scenarios` function (``run``) and the
inputs it is called with, at a small pinned scale.  ``repro.audit``
runs each with batching on and off (its ``no_batching`` variant adds
``batching=False``) and digests the finished cluster.  Nothing here
measures anything: speed and protocol-cost figures come from ``perf/``
(``perf/README.md``, ``BENCHMARK.json``).
"""

from __future__ import annotations

from typing import Any, Dict

_FIGURE = {"run": "run_figure1_scenario", "strategy": "rectable", "seed": 17,
           "db_size": 120, "arrival_rate": 50.0}

#: audit case id -> scenario function name and its inputs.
SCENARIOS: Dict[str, Dict[str, Any]] = {
    # The hot path: 5 sites, steady 900 txn/s, no faults.
    "bench:throughput": {"run": "run_steady_load", "n_sites": 5,
                         "db_size": 200, "seed": 11, "arrival_rate": 900.0,
                         "duration": 1.5},
    # The paper's Figure 1 cascade under VS, and the same schedule under
    # EVS (Figure 2).
    "bench:figure1": {**_FIGURE, "mode": "vs"},
    "bench:figure2_evs": {**_FIGURE, "mode": "evs"},
}
