"""Heartbeat/presence based failure detection and discovery.

One mechanism serves three needs of the membership layer:

* suspecting crashed or partitioned-away members of the current view;
* discovering joining nodes (which boot into singleton views and beacon);
* discovering foreign views to merge with after a partition heals.

A node is *alive* from the local point of view while its PRESENCE
beacons keep arriving within ``suspect_timeout``.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.gcs.messages import Presence
from repro.gcs.view import ViewId
from repro.sim.core import Simulator
from repro.sim.process import delay_until


class FailureDetector:
    """Tracks last-heard times and view claims of every other node."""

    def __init__(self, sim: Simulator, node_id: str, suspect_timeout: float) -> None:
        self.sim = sim
        self.node_id = node_id
        self.suspect_timeout = suspect_timeout
        self._last_heard: Dict[str, float] = {}
        self._claimed_view: Dict[str, ViewId] = {}
        self._claimed_members: Dict[str, tuple] = {}
        self._max_epoch_seen = 0

    def reset(self) -> None:
        """Forget everything (used on crash/recovery)."""
        self._last_heard.clear()
        self._claimed_view.clear()
        self._claimed_members.clear()

    # ------------------------------------------------------------------
    def on_presence(self, msg: Presence) -> None:
        self._last_heard[msg.sender] = self.sim.now
        self._claimed_view[msg.sender] = msg.view_id
        self._claimed_members[msg.sender] = msg.view_members
        if msg.epoch > self._max_epoch_seen:
            self._max_epoch_seen = msg.epoch

    def note_epoch(self, epoch: int) -> None:
        if epoch > self._max_epoch_seen:
            self._max_epoch_seen = epoch

    @property
    def max_epoch_seen(self) -> int:
        return self._max_epoch_seen

    def force_suspect(self, node_id: str) -> None:
        """Drop a node immediately (used when it ignores a membership round)."""
        self._last_heard.pop(node_id, None)
        self._claimed_view.pop(node_id, None)
        self._claimed_members.pop(node_id, None)

    # ------------------------------------------------------------------
    def _fresh(self, heard: float, now: float) -> bool:
        """The one liveness comparison: heard within ``suspect_timeout``."""
        return heard >= now - self.suspect_timeout

    def is_alive(self, node_id: str) -> bool:
        if node_id == self.node_id:
            return True
        heard = self._last_heard.get(node_id)
        return heard is not None and self._fresh(heard, self.sim.now)

    def alive_nodes(self) -> Set[str]:
        """All nodes currently considered reachable-and-alive (excl. self)."""
        now = self.sim.now
        return {n for n, t in self._last_heard.items() if self._fresh(t, now)}

    def suspicion_delay(self) -> Optional[float]:
        """Delay until the next alive node turns suspected: the first
        instant :meth:`_fresh` calls the longest-silent one stale.  None
        while no other node is alive."""
        now = self.sim.now
        oldest = min((t for t in self._last_heard.values() if self._fresh(t, now)),
                     default=None)
        if oldest is None:
            return None
        return delay_until(now, oldest + self.suspect_timeout,
                           lambda t: not self._fresh(oldest, t))

    def suspicion_due_within(self, delay: float) -> bool:
        """Does some alive node turn suspected within ``delay`` from now
        (by :meth:`_fresh`, at ``now + delay``)?"""
        now = self.sim.now
        then = now + delay
        return any(self._fresh(t, now) and not self._fresh(t, then)
                   for t in self._last_heard.values())

    def claimed_view(self, node_id: str) -> Optional[ViewId]:
        """The view the node last advertised (None if never heard)."""
        if not self.is_alive(node_id):
            return None
        return self._claimed_view.get(node_id)

    def claimed_members(self, node_id: str) -> tuple:
        return self._claimed_members.get(node_id, ())
