"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.core import Event, SimulationError, Simulator
from repro.sim.process import Process


class TestSimulator:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_and_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(0.5, fired.append, "b")
        sim.run()
        assert fired == ["b", "a"]
        assert sim.now == 1.0

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(3.0, fired.append, 2)
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run(until=4.0)
        assert fired == [1, 2]

    def test_ties_broken_by_insertion_order(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(1.0, fired.append, i)
        sim.run()
        assert fired == list(range(10))

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule_at(5.0, fired.append, "later"))
        sim.run()
        assert fired == ["later"]
        assert sim.now == 5.0

    def test_call_soon_runs_after_pending_same_time_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, fired.append, 1)
        sim.call_soon(fired.append, 2)
        sim.run()
        assert fired == [1, 2]

    def test_events_scheduled_during_run_are_processed(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0

    def test_max_events_limit(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(float(i), fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_budget_stopped_run_does_not_jump_past_pending_events(self):
        """``run(until=T, max_events=N)`` stopped by the budget leaves
        the clock at the last event processed — advancing it to ``T``
        would make the next ``run`` set it back to the pending events."""
        sim = Simulator()
        seen = []
        for at in (0.1, 0.2, 0.3):
            sim.schedule(at, lambda: seen.append(sim.now))
        sim.run(until=1.0, max_events=1)
        stopped_at = sim.now
        assert stopped_at == 0.1
        sim.run()
        assert seen == [0.1, 0.2, 0.3] and min(seen[1:]) >= stopped_at
        # Not stopped by the budget: the clock still advances to ``until``.
        sim.run(until=1.0, max_events=5)
        assert sim.now == 1.0

    def test_seeded_rng_is_deterministic(self):
        a = Simulator(seed=7).rng.random()
        b = Simulator(seed=7).rng.random()
        assert a == b

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(0.0, nested)
        sim.run()
        assert len(errors) == 1


class TestProcess:
    def test_after_runs_while_alive(self):
        sim = Simulator()
        proc = Process(sim)
        proc.start()
        fired = []
        proc.after(1.0, fired.append, "x")
        sim.run()
        assert fired == ["x"]

    def test_stop_cancels_scheduled_work(self):
        sim = Simulator()
        proc = Process(sim)
        proc.start()
        fired = []
        proc.after(1.0, fired.append, "x")
        proc.stop()
        sim.run()
        assert fired == []

    def test_stopped_process_skips_guarded_calls(self):
        sim = Simulator()
        proc = Process(sim)
        proc.start()
        fired = []
        proc.after(1.0, fired.append, "x")
        sim.schedule(0.5, setattr, proc, "alive", False)
        sim.run()
        assert fired == []

    def test_every_repeats_until_stop(self):
        sim = Simulator()
        proc = Process(sim)
        proc.start()
        fired = []
        proc.every(1.0, lambda: fired.append(sim.now))
        sim.schedule(3.5, proc.stop)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_restart_after_stop(self):
        sim = Simulator()
        proc = Process(sim)
        proc.start()
        proc.stop()
        proc.start()
        fired = []
        proc.after(1.0, fired.append, 1)
        sim.run()
        assert fired == [1]


class TestHotPathOverhead:
    """Satellite of the hot-path rewrite: with no profiler attached the
    run loop must not allocate per event — the ``profiler is None``
    check (hoisted to one read per ``run()`` call) is the only cost of
    the profiling seam when it is off.  Wall-clock asserts would flake
    on shared runners, so the claim is pinned via the allocator: a
    drained run leaves no more live blocks than it started with."""

    def test_run_loop_allocates_nothing_per_event_without_profiler(self):
        import gc
        import sys

        sim = Simulator(seed=7)

        def noop() -> None:
            pass

        # Spread timestamps, same-timestamp bursts and delays of seconds.
        for i in range(2000):
            sim.schedule((i % 50) * 0.0007 + (i % 3) * 2.5, noop)
        gc.collect()
        before = sys.getallocatedblocks()
        sim.run()
        gc.collect()
        after = sys.getallocatedblocks()
        # Draining 2000 events frees their entries; the loop itself may
        # keep a handful of blocks (interned ints, list growth), never
        # O(events) of them.
        assert after - before < 64, (
            f"run() leaked {after - before} allocator blocks over 2000 "
            f"events; the profiler-off hot path must not allocate"
        )

    def test_profiler_attachment_is_read_once_per_run(self):
        # The hoisted-local design: attaching a profiler mid-run takes
        # effect at the next run() call, never mid-loop.
        sim = Simulator()
        seen = []

        class Probe:
            def run_event(self, event):
                seen.append(event.label)
                event.fn(*event.args)

        def attach() -> None:
            sim.profiler = Probe()

        sim.schedule(0.0, attach, label="attach")
        sim.schedule(0.1, lambda: None, label="same-run")
        sim.run()
        assert seen == []
        sim.schedule(0.1, lambda: None, label="next-run")
        sim.run()
        assert seen == ["next-run"]
