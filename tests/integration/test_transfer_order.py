"""Writers-first shipping of the ``full`` transfer, end to end.

The ``recover_full`` shape at a fifth of its size: 3 sites, 2 000 objects,
open loop 150 txn/s 1r+2w on jittered links, one crash and one recovery.
Section 4.3 leaves the order objects leave in open; the peer ships the
objects writers are queued on first, so a writer waits for the batch in
flight plus its own instead of for its object's turn — and the transfer
takes exactly as long as it did in grant order.
"""

import pytest

from repro import ClusterBuilder, LoadGenerator, WorkloadConfig
from repro.net.latency import UniformLatency
from repro.reconfig.transfer import TransferAccept
from repro.replication.node import SiteStatus

LINK_DELAY_S = (0.0008, 0.0012)
#: Recover -> ACTIVE in sim-s, polled every sim-ms, per seed; measured
#: with grant-order shipping, before writers went first.
#: Re-measured when the membership decision stopped waiting for the
#: 100 ms maintenance tick: the join installs up to one tick sooner
#: (0.758 / 0.708 / 0.770 before); and again when primary views began
#: delivering on a majority of acks: writers no longer stall in S3's
#: crash window, so the joiner meets a different lock queue at the
#: sync point (0.625 / 0.681 / 0.670 before); and again when a join
#: stopped waiting the 60 ms debounce for one ``presence_interval``: the
#: join installs 10 ms sooner, and at seed 1 the peer's first offer now
#: reaches S3 just before S3's SYNC, is dropped and is retried 50 ms
#: later (0.622 / 0.618 / 0.662 before).
FIFO_RECOVERY_S = {1: 0.666, 2: 0.601, 3: 0.659}


def watch_transfer_lock_waits(cluster):
    """Every lock request that had to queue behind a transfer session's
    lock, at any site (the request records its own enqueue/grant times)."""
    waits = []
    for node in cluster.nodes.values():
        locks = node.db.locks

        def request(txn_id, resource, mode, on_grant=None, inherit_ticket=None,
                    locks=locks, inner=locks.request):
            made = inner(txn_id, resource, mode, on_grant, inherit_ticket)
            if not made.granted and any(
                blocker.startswith("xfer:") for blocker in locks.waiting_for(made)
            ):
                waits.append(made)
            return made

        locks.request = request
    return waits


@pytest.mark.parametrize("seed", sorted(FIFO_RECOVERY_S))
def test_writers_wait_two_batches_and_recovery_takes_no_longer(seed):
    cluster = ClusterBuilder(n_sites=3, db_size=2000, seed=seed, strategy="full",
                             latency=UniformLatency(*LINK_DELAY_S)).build()
    cluster.start()
    assert cluster.await_all_active(timeout=15)
    config = cluster.nodes["S1"].config
    batch_period = config.transfer_batch_size * config.transfer_obj_time
    waits = watch_transfer_lock_waits(cluster)
    accepted_at = []
    cluster.network.add_tap(
        lambda _src, _dst, payload: accepted_at.append(cluster.sim.now)
        if isinstance(payload, TransferAccept) else None
    )
    load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=150.0, reads_per_txn=1,
                                                 writes_per_txn=2))
    load.start()
    cluster.run_for(0.5)
    cluster.crash("S3")
    cluster.run_for(1.0)
    since = cluster.sim.now
    cluster.recover("S3")
    assert cluster.await_condition(
        lambda: cluster.nodes["S3"].status is SiteStatus.ACTIVE, timeout=60, step=0.001)
    recovery_s = cluster.sim.now - since
    cluster.run_for(0.5)
    load.stop()
    cluster.settle(1.0)

    cluster.check()
    assert sum(n.reconfig.objects_sent_total for n in cluster.nodes.values()) == 2000
    assert abs(recovery_s - FIFO_RECOVERY_S[seed]) <= batch_period

    # No order can ship anything before the joiner has accepted the offer
    # (the first offer races the view change and is retried 50 ms later),
    # so a writer's wait on the transfer's order starts there at the
    # earliest.  In grant order the longest is about the transfer's
    # length, 0.36-0.51 s on these seeds.
    assert len(waits) > 50 and all(request.granted for request in waits)
    streaming_from = accepted_at[0]
    longest = max(request.granted_at - max(request.enqueued_at, streaming_from)
                  for request in waits)
    assert longest <= 2 * batch_period + 4 * LINK_DELAY_S[1]
