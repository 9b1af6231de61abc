"""Microbenchmarks of the substrates (real wall-clock, not simulated).

These are classic library microbenchmarks: how fast are the simulator
kernel, the lock manager and the total-order machinery themselves.
Useful for spotting accidental algorithmic regressions (e.g. a lock
grant scan going quadratic).
"""

import pytest

from repro.db.locks import LockManager, LockMode
from repro.gcs.messages import Ack, Data
from repro.gcs.total_order import ViewTotalOrder
from repro.gcs.view import View, ViewId
from repro.sim.core import Simulator


def test_simulator_event_throughput(benchmark):
    def run():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 20_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count[0]

    assert benchmark(run) == 20_000


@pytest.mark.parametrize("standing", [10, 100, 1000, 10000])
def test_simulator_standing_queue(benchmark, standing):
    """The kernel with ``standing`` events always queued: timers that
    re-arm themselves 50-150 ms ahead, the spread over many ticks that
    suits bucketed time best.  The benchmark workloads hold tens to a
    few hundred events, where one heap wins; a calendar queue draws
    level at about a thousand (EXPERIMENTS.md, "Hot path, round 2,
    revisited") — this is the command that says where."""
    events = 50_000

    def run():
        sim = Simulator(seed=1)
        jitter = sim.rng.random

        def tick():
            sim.schedule(0.05 + 0.1 * jitter(), tick)

        for _ in range(standing):
            sim.schedule(0.1 * jitter(), tick)
        sim.run(max_events=events)
        return sim.events_processed

    assert benchmark(run) == events


def test_lock_manager_grant_release_throughput(benchmark):
    def run():
        lm = LockManager()
        for i in range(5_000):
            txn = f"T{i}"
            lm.request(txn, f"obj{i % 64}", LockMode.EXCLUSIVE)
            lm.release(txn)
        return lm.grants

    assert benchmark(run) == 5_000


def test_lock_manager_contended_queue(benchmark):
    def run():
        lm = LockManager()
        for i in range(300):
            lm.request(f"T{i}", "hot", LockMode.EXCLUSIVE)
        for i in range(300):
            lm.release(f"T{i}")
        return lm.grants

    assert benchmark(run) == 300


def test_lock_manager_held_scan(benchmark):
    """The recover_full shape: a transfer transaction holds shared locks
    on everything and releases them one by one while writers queue.  Each
    release must look only at the waiters of the object it frees."""
    held = [f"obj{i}" for i in range(2_000)]

    def run():
        lm = LockManager()
        for obj in held:
            lm.request("transfer", obj, LockMode.SHARED)
        for i in range(200):
            lm.request(f"W{i}", held[i * 10], LockMode.EXCLUSIVE)
        for obj in held:
            lm.release("transfer", obj)
        return lm.grants

    assert benchmark(run) == 2_200


def test_total_order_sequencing_throughput(benchmark):
    view = View(ViewId(1, "S1"), ("S1", "S2", "S3"))

    def run():
        outbox = []
        delivered = []
        to = ViewTotalOrder(view, "S1", 0, lambda dst, m: outbox.append(m),
                            delivered.append)
        for i in range(2_000):
            to.on_data(Data(sender="S1", msg_id=i, view_id=view.view_id, payload=i))
            # every member acks immediately
            for member in view.members:
                to.on_ack(Ack(sender=member, view_id=view.view_id, highwater=i))
        return len(delivered)

    assert benchmark(run) == 2_000
