"""Pinned regression seeds from the chaos-fuzzing campaign.

Each configuration below once produced a safety or liveness violation
under the default chaos storm (see docs/PROTOCOLS.md, "Fault model");
they must stay green.  The chaos engine itself asserts the full
invariant suite on quiescence, so ``report.ok`` is the whole assertion.
"""

import pytest

from repro.faults.chaos import run_chaos
from tests.detectors import use_timeout_detector

CASES = [
    # (mode, seed[, strategy]) -> the bug the run originally exposed;
    # the strategy is ``rectable`` unless named
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
    ("evs", 179),  # wrong transfer install: a creation source, still at
    ("evs", 264),  # its pre-creation last processed gid, re-offered the
                   # merged state to a caught-up joiner as of that gid
    ("vs", 16, "log_filter"),  # KeyError in read_as_of: a completed
    ("logless", 2, "log_filter"),  # session, cancelled later, ended its
                   # snapshot a second time and dropped the one a sibling
                   # session at the same sync point still had to read
    ("vs", 10, "lazy"),  # decision disagreement, and
    ("logless", 61, "lazy"),  # a wrong install: the lazy peer took its
                   # last round's delimiter from a point-to-point
                   # handshake, max(the joiner's last discarded gid, its
                   # own last processed one), so it could capture above
                   # the last gid it had delivered (vs 10: 84, with 83
                   # delivered), labelling older state with a gid the
                   # joiner had already discarded.  The delimiter is an
                   # ordered message now, captured where it is delivered.
]


def _case_id(case):
    return "-".join(str(part) for part in case)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_pinned_chaos_regressions(case):
    mode, seed, *strategy = case
    strategy = strategy[0] if strategy else "rectable"
    report = run_chaos(seed=seed, mode=mode, strategy=strategy)
    assert report.ok, f"chaos {mode} seed={seed} strategy={strategy}: {report.error}"



@pytest.mark.parametrize("strategy", ["rectable", "gcs_level", "version_check"])
def test_a_stalled_joiner_refuses_a_transfer_below_a_dropped_delivery(
        monkeypatch, strategy):
    """Decision disagreement under a 0.12 s timeout detector, vs 24: "gid
    81 abort at one site but commit at S4".  S4, a recovering joiner,
    was demoted by the stale-view check (section 2.1's thin layer) while
    gid 77 of its view was still undelivered.  The SYNC of the next
    primary view delivered 77 while S4 was stalled, and S4 dropped it.
    S2's session to S4, anchored at gid 68 before the stall and never
    accepted, survived the view change; S4 accepted it, installed state
    as of 68 and replayed 69..76 and 78.. without 77.  A stalled site
    now refuses an offer anchored below a delivery it dropped, and the
    peer re-anchors an unaccepted session when asked."""
    use_timeout_detector(monkeypatch, timeout=0.12)
    report = run_chaos(seed=24, mode="vs", strategy=strategy)
    assert report.ok, report.error
