"""Deterministic discrete-event simulation kernel."""

from repro.sim.core import Event, Simulator
from repro.sim.process import Process

__all__ = ["Event", "Process", "Simulator"]
