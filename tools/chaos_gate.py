#!/usr/bin/env python3
"""Gate a chaos seed fleet against the committed list of known failures.

    PYTHONPATH=src python tools/chaos_gate.py

Runs one ``repro chaos`` storm per cell — every transfer strategy with
open-loop load, plus ``rectable`` under closed-loop client sessions, each
on every backend for seeds 0..99 (2 100 storms) — as one fleet, two
workers at a time (each column is ``repro chaos --seeds 0..99 --mode
vs,evs,logless --strategy S [--clients 6]``), prints one summary line per
column and backend, and exits 1 when

* a storm fails that ``chaos_known_failures.json`` does not list, or
  fails with an error that does not contain its entry's ``error`` text;
* a listed storm passes — the failure was fixed (or moved), so the entry
  must go: the list only ever names failures that reproduce;
* an entry names a cell the gate does not run, which nothing would ever
  re-check.

Each entry names the failure's class and its first wrong step (marked
when it has not been traced yet), so a reader knows what is broken
without re-running it.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Tuple

KNOWN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "chaos_known_failures.json")
MODES = ("vs", "evs", "logless")
STRATEGIES = ("full", "gcs_level", "lazy", "log_filter", "rectable", "version_check")
#: The client column: closed-loop sessions with failover and the
#: exactly-once check, on the default strategy.
CLIENT_STRATEGY = "rectable"
CLIENTS = 6
#: ``(strategy, clients)`` per column; 0 clients is open-loop load.
COLUMNS = tuple((strategy, 0) for strategy in STRATEGIES) + ((CLIENT_STRATEGY, CLIENTS),)
SEEDS = range(100)
JOBS = 2

#: One storm: ``(mode, strategy, clients, seed)``.
Cell = Tuple[str, str, int, int]


def load_known(path: str) -> Dict[Cell, Dict]:
    with open(path, encoding="utf-8") as handle:
        entries = json.load(handle)
    return {(entry["mode"], entry["strategy"], entry["clients"], entry["seed"]): entry
            for entry in entries}


def cells() -> Dict[Cell, FleetTask]:
    """Every storm the gate runs, keyed by its cell: column by column,
    then backend, then seed.  Each task is keyed by the cell's label,
    which ``tools/audit_against.py --gate`` compares across trees."""
    from repro.fleet import FleetTask

    tasks = {}
    for strategy, clients in COLUMNS:
        for mode in MODES:
            for seed in SEEDS:
                cell = (mode, strategy, clients, seed)
                tasks[cell] = FleetTask(
                    key=label(cell), kind="chaos",
                    params={"seed": seed, "mode": mode, "strategy": strategy,
                            "clients": clients})
    return tasks


def label(cell: Cell) -> str:
    mode, strategy, clients, seed = cell
    return f"{mode} {strategy} clients={clients} seed {seed}"


def problems(results: Dict[Cell, Dict], known: Dict[Cell, Dict]) -> List[str]:
    """What the fleet ``results`` and the list ``known`` violate, one
    line each.  An entry whose cell is not in ``results`` is one too:
    the gate never re-checks it."""
    found = []
    for cell, payload in results.items():
        entry = known.get(cell)
        error = payload.get("error") or payload.get("fleet_error") or ""
        if payload.get("ok"):
            if entry is not None:
                found.append(f"{label(cell)}: listed as {entry['class']!r} "
                             "but passes now; remove the entry")
        elif entry is None:
            found.append(f"{label(cell)}: unlisted failure: {error}")
        elif entry["error"] not in error:
            found.append(f"{label(cell)}: listed as {entry['error']!r} "
                         f"but fails with: {error}")
    for cell, entry in known.items():
        if cell not in results:
            found.append(f"{label(cell)}: listed as {entry['class']!r} "
                         "but the gate does not run this cell; remove the entry")
    return found


def main() -> int:
    from repro.fleet import run_fleet

    known = load_known(KNOWN)
    tasks = cells()
    payloads = run_fleet(list(tasks.values()), jobs=JOBS)
    results = {cell: payloads[task.key] for cell, task in tasks.items()}
    for strategy, clients in COLUMNS:
        for mode in MODES:
            column = [(mode, strategy, clients, seed) for seed in SEEDS]
            passed = sum(1 for cell in column if results[cell].get("ok"))
            listed = sum(1 for cell in column if cell in known)
            print(f"{mode} {strategy} clients={clients}: {passed} of "
                  f"{len(SEEDS)} storms passed, {listed} failure(s) listed as known")
    bad = problems(results, known)
    for line in bad:
        print(f"  {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
