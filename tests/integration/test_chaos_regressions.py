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
    ("evs", 196),  # bootstrap never ended: the creation source kept its
    ("evs", 302),  # role and sessions in a view with no primary subview
                   # while every other site dropped its transfer and
                   # started a creation round the source never joined
    ("evs", 106),  # decision disagreement, same first step: a joiner
    ("evs", 139),  # left in the primary subview with its join dropped
    ("evs", 316),  # replica divergence and quiesce timeout at an earlier
    ("evs", 346),  # timing, same first step
    ("vs", 47),    # decision disagreement: S3, stale after missing a
                   # view, never delivered S2's announcement in the other
                   # group's SYNC union, stayed SUSPENDED and dropped what
                   # S2's transfer to it needed it to enqueue
    ("logless", 27),  # decision disagreement: the creation source's own
                      # repair write won the CAS over its replace, so a
                      # suspended site listed in the config never turned
                      # RECOVERING and dropped what its transfer needed
]


@pytest.mark.parametrize("mode,seed", CASES)
def test_pinned_chaos_regressions(mode, seed):
    report = run_chaos(seed=seed, mode=mode)
    assert report.ok, f"chaos {mode} seed={seed}: {report.error}"
