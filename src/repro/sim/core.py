"""The discrete-event simulation kernel.

Everything in this reproduction runs on top of :class:`Simulator`: the
network, the group communication system, the databases and the workload
generators all schedule callbacks on a single virtual clock.  The kernel is
single-threaded and fully deterministic: given the same seed and the same
sequence of ``schedule`` calls, a run always produces the same history.

The ready queue is one ``heapq`` list of ``(time, seq, event)`` tuples,
and its pop order is the kernel's whole contract: ``(time, seq)``
lexicographic — strictly by virtual time and, among events sharing an
exact timestamp, in insertion order (``seq`` grows with every
``schedule`` call) — cancelled events skipped.  That tie-break keeps a
run reproducible when many events share a timestamp, and it is the one
key a tie-break fuzzer has to permute.

One heap is enough because the queue is short: sampled every 10 virtual
ms, the four benchmark workloads hold 30-282 events at the median and
never more than 433, where the C heap is as fast as or faster than the
calendar queue (tick ring + overflow heap) this kernel carried from
PR 9 to PR 18; bucketed time draws level at about a thousand standing
events and pays beyond.  Numbers: EXPERIMENTS.md, "Hot path, round 2,
revisited"; the crossover is one command away,
``benchmarks/test_bench_micro.py::test_simulator_standing_queue``.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Any, Callable, Optional, Tuple

#: Entries are ``(time, seq, event)`` tuples: heap comparisons stay in C
#: (tuple __lt__ on floats/ints) and never call back into Python.
_Entry = Tuple[float, int, "Event"]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    Events are cancellable: :meth:`cancel` marks the event dead and the
    kernel skips it when it is popped from the queue.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "label")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        label: str = "",
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.label = label

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} #{self.seq} {self.label or self.fn} {state}>"


class Simulator:
    """A single-threaded discrete-event simulator with a seeded RNG.

    Parameters
    ----------
    seed:
        Seed for the simulation-wide random number generator.  All
        stochastic components (latency models, workload generators) must
        draw from :attr:`rng` so runs are reproducible.
    """

    def __init__(self, seed: int = 0) -> None:
        self.rng = random.Random(seed)
        self.now: float = 0.0
        self._seq = 0
        self._running = False
        self.events_processed = 0
        #: Optional cost-attribution layer (repro.obs.profile.SimProfiler).
        #: When set, the kernel routes each event through
        #: ``profiler.run_event`` instead of calling it directly; when
        #: None (the default) the only per-event cost is one check of a
        #: local hoisted at the top of :meth:`run`.
        self.profiler: Optional[Any] = None
        #: The ready queue: a heapq list ordered by ``(time, seq)``.
        self._heap: list[_Entry] = []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, args, label)
        heappush(self._heap, (time, seq, event))
        return event

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> Event:
        """Schedule ``fn(*args)`` at an absolute virtual time."""
        return self.schedule(time - self.now, fn, *args, label=label)

    def call_soon(self, fn: Callable[..., Any], *args: Any, label: str = "") -> Event:
        """Schedule ``fn(*args)`` at the current time (after pending events)."""
        return self.schedule(0.0, fn, *args, label=label)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Process events until the queue is empty, ``until`` is reached,
        or ``max_events`` events have been processed.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, so back-to-back ``run`` calls
        compose predictably — unless ``max_events`` ran out first: events
        before ``until`` may then still be pending, and the clock stays at
        the last one processed so that time never runs backwards.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        processed = 0
        # Hoisted local: with no profiler attached the only per-event
        # overhead beyond the pop itself is one ``is None`` check.
        # (Attaching a profiler mid-run takes effect next run.)
        profiler = self.profiler
        budget = max_events if max_events is not None else 0x7FFFFFFFFFFFFFFF
        pop = heappop
        heap = self._heap
        try:
            while heap and processed < budget:
                entry = heap[0]
                event = entry[2]
                if event.cancelled:
                    pop(heap)
                    continue
                time = entry[0]
                if until is not None and time > until:
                    break
                pop(heap)
                self.now = time
                if profiler is None:
                    event.fn(*event.args)
                else:
                    profiler.run_event(event)
                processed += 1
                self.events_processed += 1
        finally:
            self._running = False
        if until is not None and self.now < until and processed < budget:
            self.now = until
