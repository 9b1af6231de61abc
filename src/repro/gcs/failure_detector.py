"""Beacon-counting failure detection and discovery.

One mechanism serves three needs of the membership layer:

* suspecting crashed or partitioned-away members of the current view;
* discovering joining nodes (which boot into singleton views and beacon);
* discovering foreign views to merge with after a partition heals.

Node p is suspected once :data:`THETA` PRESENCE beacons have arrived from
every third party since p's last one: a node other than this member and
p, not suspected itself, that beaconed since (with none, a view of two,
this member's own beacons count).  It is the counting rule of the (N, Θ)
failure detector (Dolev et al., arXiv:1606.00195): no timeout, so a
latency every beacon shares suspects nobody.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.gcs.messages import Presence
from repro.gcs.view import ViewId

#: Θ, from EXPERIMENTS.md "Θ study" (2 suspects live nodes).
THETA = 3


class FailureDetector:
    """Counts the beacons of every node, and the view each one claims."""

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        #: Beacons per node (own included), and the counts at each heard
        #: node's last beacon — forgotten by :meth:`force_suspect`.
        self._beacons: Dict[str, int] = {}
        self._marks: Dict[str, Dict[str, int]] = {}
        #: Alive node -> the fewest beacons a counted party sent since its last.
        self._progress: Dict[str, int] = {}
        self._claimed_view: Dict[str, ViewId] = {}
        self._claimed_members: Dict[str, tuple] = {}
        self._max_epoch_seen = 0

    def reset(self) -> None:
        """Forget everything (used on crash/recovery)."""
        for table in (self._beacons, self._marks, self._progress,
                      self._claimed_view, self._claimed_members):
            table.clear()

    # ------------------------------------------------------------------
    def on_presence(self, msg: Presence) -> None:
        self._claimed_view[msg.sender] = msg.view_id
        self._claimed_members[msg.sender] = msg.view_members
        self.note_epoch(msg.epoch)
        self.on_beacon(msg.sender)

    def on_beacon(self, node: str) -> None:
        """Count a beacon: one heard from ``node``, or this member's own."""
        self._beacons[node] = self._beacons.get(node, 0) + 1
        if node != self.node_id:
            self._marks[node] = dict(self._beacons)
        self._evaluate()

    def note_epoch(self, epoch: int) -> None:
        if epoch > self._max_epoch_seen:
            self._max_epoch_seen = epoch

    @property
    def max_epoch_seen(self) -> int:
        return self._max_epoch_seen

    def force_suspect(self, node_id: str) -> None:
        """Drop a node immediately (used when it ignores a membership round)."""
        for table in (self._marks, self._claimed_view, self._claimed_members):
            table.pop(node_id, None)
        self._evaluate()

    # ------------------------------------------------------------------
    def _evaluate(self) -> None:
        """The rule for every heard node, "not suspected" to a fixpoint:
        on equal-delay links a round's beacons tie, and a silent node
        whose last one landed just after p's must not shield p."""
        beacons, marks, me = self._beacons, self._marks, self.node_id
        suspected: Set[str] = set()
        while True:
            progress = {}
            for node, mark in marks.items():
                if node not in suspected:
                    counts = [beacons[q] - mark.get(q, 0) for q in marks
                              if q != node and q not in suspected
                              and beacons[q] > mark.get(q, 0)]
                    progress[node] = (min(counts) if counts
                                      else beacons.get(me, 0) - mark.get(me, 0))
            newly = {node for node, count in progress.items() if count >= THETA}
            if not newly:
                self._progress = progress
                return
            suspected |= newly

    def is_alive(self, node_id: str) -> bool:
        return node_id == self.node_id or node_id in self._progress

    def alive_nodes(self) -> Set[str]:
        """All nodes currently considered reachable-and-alive (excl. self)."""
        return set(self._progress)

    def suspicion_due_within(self, window: float) -> bool:
        """Is some alive node one beacon from suspicion, in a window not spent?"""
        return window > 0 and any(count >= THETA - 1 for count in self._progress.values())

    def claimed_view(self, node_id: str) -> Optional[ViewId]:
        """The view the node last advertised (None unless alive)."""
        return self._claimed_view.get(node_id) if self.is_alive(node_id) else None

    def claimed_members(self, node_id: str) -> tuple:
        return self._claimed_members.get(node_id, ())
