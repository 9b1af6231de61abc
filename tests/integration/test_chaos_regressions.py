"""Pinned regression seeds from the chaos-fuzzing campaign.

Each configuration below once produced a safety or liveness violation
under the default chaos storm (see docs/PROTOCOLS.md, "Fault model");
they must stay green.  The chaos engine itself asserts the full
invariant suite on quiescence, so ``report.ok`` is the whole assertion.
"""

import pytest

from repro.faults.chaos import run_chaos

CASES = [
    # (mode, seed) -> the bug the run originally exposed
    ("evs", 9),   # Ordered discarded while frozen for an aborted round:
                  # top-of-sequence loss with no gap below it, never NAKed
    ("evs", 2),   # creation round state kept across views: the old
                  # source skipped its CreationReport in a later view
    ("evs", 14),  # creation source's subview companion never offered a
                  # transfer and never demoted to RECOVERING
    ("evs", 23),  # zombie write phases: transactions rolled back at
                  # suspension resumed from the lock queues and committed
                  # against the creation protocol's rebuilt state
    ("evs", 12),  # stale version tags of rolled-back writers diverged a
                  # later version check across sites
    ("evs", 55),  # quiesce timeout: a one-way link dropped S4's Ack to
                  # S2, and S4, having delivered everything, never
                  # re-acked; S2 held the creation reports for ever
    ("evs", 84),  # decision disagreement: a suspended joiner completed
                  # a transfer whose peer had cancelled it and replayed
                  # transactions the creation source then rolled back
    ("evs", 24),  # replica divergence: the creation source kept its
                  # pre-creation replay queue and replayed it later
    ("vs", 157),  # replica divergence: the creation source's merged
                  # writes bypassed the RecTable, so its RecTable
                  # transfers omitted them for joiners covered below
    ("vs", 23),   # VS-mode smoke over the same storm shape
    ("vs", 48),   # gid bound to two different transactions: S1, cut off
                  # in view 2, coordinated view 5 and delivered its
                  # unstable view-2 tail at gseqs view 4 had already used
    ("logless", 30),  # gid bound to two different transactions under a
                      # prototype of majority-ack delivery that trusted a
                      # flush without a member carrying the newest
                      # primary view's deliveries (the direct-member rule)
]


@pytest.mark.parametrize("mode,seed", CASES)
def test_pinned_chaos_regressions(mode, seed):
    report = run_chaos(seed=seed, mode=mode)
    assert report.ok, f"chaos {mode} seed={seed}: {report.error}"
