"""Schedules the search found (or stressed) that are pinned forever.

Two reasons to pin a schedule:

* **regression** — it once provoked a real protocol bug.  It must PASS
  now and keep passing; re-breaking the fix re-fails the replay.
* **determinism audit** — it exercises an interesting corner (shattered
  partitions, corruption during churn) and must replay byte-identically,
  so it doubles as an audit case (``repro.audit``, kind ``schedule``).

Each entry is the genome's canonical dict form — exactly what
``python -m repro search --replay`` consumes — so a pinned schedule can
always be dumped back to JSON and replayed by hand:

    PYTHONPATH=src python - <<'PY'
    from repro.search.pinned import PINNED
    print(PINNED["utd-flush-clobber"].genome.dumps())
    PY
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.search.genome import ScheduleGenome

#: The first schedule the search engine ever minimized (seed-0 smoke
#: run, shrunk by ddmin to these four genes).  It exposed a genuine
#: protocol bug: UpToDateAnnouncements still pending in the total order
#: were delivered inside a view change's flush cut, but the flushed app
#: states — captured at FREEZE, before the cut's delivery — still
#: claimed ``utd: False`` and clobbered the fresher knowledge at
#: install.  ACTIVE sites then elected transfer peers for sites that
#: were never joiners; the orphaned sessions held database locks through
#: their whole retransmission budget, wedging writers on three of five
#: sites while the other two kept committing: replica divergence plus
#: total availability collapse.  Fixed by stamping flushed utd claims
#: with a processed-gseq watermark (``asof``) and ignoring claims staler
#: than a locally delivered announcement, plus an explicit
#: TransferDecline so an ACTIVE addressee tears the session down
#: immediately.
UTD_FLUSH_CLOBBER = {
    "seed": 6,
    "n_sites": 5,
    "mode": "vs",
    "strategy": "rectable",
    "clients": 6,
    "arrival_rate": 60.0,
    "segments": [
        {"kind": "crash", "victims": [1, 4], "downtime": 0.12,
         "stagger": 0.02},
        {"kind": "restart", "victims": [0], "hold": 0.15},
        {"kind": "partition", "minority": [2, 4], "hold": 0.53,
         "settle": 0.15, "shatter": False},
        {"kind": "crash", "victims": [1], "downtime": 0.23, "stagger": 0.0},
    ],
}

#: Determinism workout: a shattered partition (majority + singleton
#: islands) directly followed by corruption-during-downtime and an
#: overlapping double crash at the policy's concurrency limit.  Runs
#: green; pinned so the whole stabilization + transfer path replays
#: byte-identically under audit.
SHATTER_CORRUPT_CHURN = {
    "seed": 11,
    "n_sites": 5,
    "mode": "vs",
    "strategy": "rectable",
    "clients": 6,
    "arrival_rate": 60.0,
    "segments": [
        {"kind": "partition", "minority": [1, 3], "hold": 0.4,
         "settle": 0.15, "shatter": True},
        {"kind": "corrupt", "victim": 2, "op": "lost_suffix",
         "downtime": 0.2},
        {"kind": "crash", "victims": [0, 4], "downtime": 0.18,
         "stagger": 0.03},
        {"kind": "quiet", "duration_s": 0.3},
    ],
}


@dataclass(frozen=True)
class PinnedSchedule:
    """One pinned schedule: its genome plus why it is pinned."""

    name: str
    genome: ScheduleGenome
    reason: str  # "regression" | "determinism"
    note: str


PINNED: Dict[str, PinnedSchedule] = {
    "utd-flush-clobber": PinnedSchedule(
        name="utd-flush-clobber",
        genome=ScheduleGenome.from_dict(UTD_FLUSH_CLOBBER),
        reason="regression",
        note=("stale flushed utd claims clobbered cut-delivered "
              "announcements; orphaned transfer sessions held locks and "
              "split the cluster into diverging halves"),
    ),
    "shatter-corrupt-churn": PinnedSchedule(
        name="shatter-corrupt-churn",
        genome=ScheduleGenome.from_dict(SHATTER_CORRUPT_CHURN),
        reason="determinism",
        note=("shattered partition + corruption during downtime + "
              "staggered double crash at the concurrency limit"),
    ),
}
