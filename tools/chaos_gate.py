#!/usr/bin/env python3
"""Gate a chaos seed fleet against the committed list of known failures.

    PYTHONPATH=src python tools/chaos_gate.py

Runs one ``repro chaos`` storm per seed 0..99 and backend, two workers
(the fleet behind ``repro chaos --seeds 0..99 --jobs 2``), and exits 1
when

* a seed fails that ``chaos_known_failures.json`` does not list, or fails
  with an error that does not contain its entry's ``error`` text;
* a listed seed passes — the failure was fixed (or moved), so the entry
  must go: the list only ever names failures that reproduce.

Each entry names the failure's class and the first wrong step found when
it was traced, so a reader knows what is broken without re-running it.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Tuple

KNOWN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "chaos_known_failures.json")
MODES = ("vs", "evs", "logless")
SEEDS = range(100)
JOBS = 2


def load_known(path: str) -> Dict[Tuple[str, int], Dict[str, str]]:
    with open(path, encoding="utf-8") as handle:
        entries = json.load(handle)
    return {(entry["mode"], entry["seed"]): entry for entry in entries}


def problems(mode: str, results: Dict[int, Dict], known) -> List[str]:
    """What the fleet ``results`` of one backend violate, one line each."""
    found = []
    for seed, payload in results.items():
        entry = known.get((mode, seed))
        error = payload.get("error") or payload.get("fleet_error") or ""
        if payload.get("ok"):
            if entry is not None:
                found.append(f"{mode} {seed}: listed as {entry['class']!r} "
                             "but passes now; remove the entry")
        elif entry is None:
            found.append(f"{mode} {seed}: unlisted failure: {error}")
        elif entry["error"] not in error:
            found.append(f"{mode} {seed}: listed as {entry['error']!r} "
                         f"but fails with: {error}")
    return found


def main() -> int:
    from repro.fleet import run_seed_fleet

    known = load_known(KNOWN)
    failed = 0
    for mode in MODES:
        results = run_seed_fleet("chaos", SEEDS, jobs=JOBS, mode=mode)
        listed = sum(1 for m, seed in known if m == mode and seed in results)
        bad = problems(mode, results, known)
        passed = sum(1 for payload in results.values() if payload.get("ok"))
        print(f"{mode}: {passed} of {len(SEEDS)} storms passed, "
              f"{listed} failure(s) listed as known")
        for line in bad:
            print(f"  {line}")
        failed += len(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
