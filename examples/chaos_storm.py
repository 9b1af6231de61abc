#!/usr/bin/env python3
"""A chaos storm, narrated: run one seeded storm in each mode and print
the fault timeline the engine improvised, what it did to the WAL, and
the verdict of the invariant suite.

The storm composes every fault model in `repro.faults`: armed crashes
(fired the moment the victim's WAL tail holds unflushed records),
recoveries, partitions and merges, loss bursts, one-way link
degradations, plus always-on message duplication and reordering.  Same
seed, same storm — the chaos decisions draw from their own RNG stream,
independent of how many draws the protocols make.

Run:  python examples/chaos_storm.py [seed]
"""

import sys

from repro.faults import ChaosConfig, ChaosEngine

GLYPHS = {
    "crash_armed": "…",
    "crash": "✗",
    "recover": "✓",
    "partition": "║",
    "heal": "═",
    "loss_burst": "~",
    "loss_burst_end": "-",
    "one_way": "→",
    "one_way_end": "↛",
    "quiesce": "▮",
}


def run_one(seed: int, mode: str) -> bool:
    config = ChaosConfig(seed=seed, intensity=0.7, mode=mode, duration=3.0)
    report = ChaosEngine(config).run()

    print(f"\n=== {mode.upper()} storm, seed {seed} ===")
    print("  time   event")
    for time, action, detail in report.events:
        glyph = GLYPHS.get(action, "?")
        print(f"  {time:6.3f} {glyph} {action:<14} {detail}")
    if report.wal_tears:
        print(f"  WAL: {report.wal_tears} torn tail(s), "
              f"{report.wal_corruptions} with a corrupt record — "
              "detected by CRC32 at recovery, truncated, rejoined via transfer")
    metrics = report.metrics
    print(f"  workload: {metrics['txn.commits']} commits, "
          f"{metrics['txn.aborts']} aborts, "
          f"{metrics['gcs.views_installed']} view changes")
    print(f"  network: {metrics['net.messages_dropped']} dropped, "
          f"{metrics['net.messages_duplicated']} duplicated; "
          f"transfers: {metrics['xfer.transfers_completed']}/"
          f"{metrics['xfer.transfers_started']} completed, "
          f"{metrics['xfer.stalls']} stalls, "
          f"{metrics['xfer.failovers']} fail-overs")
    print(f"  {report.summary()}")
    return report.ok


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    ok = all([run_one(seed, "vs"), run_one(seed, "evs")])
    print("\nall invariants held" if ok else "\nINVARIANT VIOLATION — see above")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
