"""The process helper on top of the raw event heap.

A :class:`Process` is a convenience base class for protocol actors (group
members, database nodes, workload clients): it owns its scheduled events so
that stopping the process cancels everything it had in flight — which is
exactly what a crash must do.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.sim.core import Event, Simulator


def delay_until(now: float, instant: float, reached: Callable[[float], bool]) -> float:
    """The delay to arm at ``now`` so that a wake-up fires at the first
    instant from ``instant`` on where ``reached`` holds.

    ``reached`` is the condition's own comparison, monotone in time, and
    it is tested at ``now + delay`` rounded exactly as the kernel rounds
    a scheduled time: so the wake-up can never fire at an instant the
    condition still calls false, and no epsilon is needed.
    """
    target = max(instant, now)
    while not reached(now + (target - now)):
        target = math.nextafter(target, math.inf)
    return target - now


class Process:
    """Base class for simulated actors that can be stopped/crashed.

    Subclasses schedule work through :meth:`after` / :meth:`every`; all
    such events are tracked and cancelled by :meth:`stop`.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.alive = False
        self._owned_events: list[Event] = []

    def start(self) -> None:
        self.alive = True

    def stop(self) -> None:
        """Stop the process and cancel everything it scheduled."""
        self.alive = False
        for event in self._owned_events:
            event.cancel()
        self._owned_events.clear()

    # ------------------------------------------------------------------
    def after(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn`` after ``delay``, skipped if the process has died."""
        event = self.sim.schedule(delay, self._guarded, fn, args)
        self._owned_events.append(event)
        self._compact()
        return event

    def every(self, interval: float, fn: Callable[..., Any]) -> Event:
        """Run ``fn`` every ``interval`` until the process stops."""

        def tick() -> None:
            if not self.alive:
                return
            fn()
            self.every(interval, fn)

        return self.after(interval, tick)

    def _guarded(self, fn: Callable[..., Any], args: tuple) -> None:
        if self.alive:
            fn(*args)

    def _compact(self) -> None:
        # Drop references to fired/cancelled events now and then so a
        # long-lived process does not accumulate unbounded garbage.
        if len(self._owned_events) > 256:
            self._owned_events = [
                e for e in self._owned_events if not e.cancelled and e.time >= self.sim.now
            ]
