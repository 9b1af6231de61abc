"""Test-side failure detectors.

``TimeoutDetector`` is the detector the beacon-counting rule replaced: a
node is alive while it was heard within ``timeout``.  It lives here, not
in ``src/``, to replay the schedules it produced
(``test_chaos_regressions.py``) and to compare against
(``tools/theta_study.py``).  :func:`use_timeout_detector` puts it in
every ``GroupMember`` built while the patch holds.
"""

from repro.gcs.failure_detector import FailureDetector
from repro.gcs.member import GroupMember
from repro.sim.process import delay_until


class TimeoutDetector(FailureDetector):
    """Alive while heard within ``timeout``; the membership decision is
    woken at each expiry, as the decision's own timer used to be."""

    def __init__(self, member, timeout):
        super().__init__(member.node_id)
        self.member, self.timeout, self._heard = member, timeout, {}

    def _fresh(self, node, now):
        return node in self._marks and self._heard[node] >= now - self.timeout

    def on_presence(self, msg):
        now = self.member.sim.now
        self._heard[msg.sender] = now
        super().on_presence(msg)
        expiry = now + self.timeout
        self.member.after(delay_until(now, expiry, lambda t: not self._fresh(msg.sender, t)),
                          self.member.membership.decide)

    def _evaluate(self):
        pass  # liveness is read off the clock, below

    def is_alive(self, node):
        return node == self.node_id or self._fresh(node, self.member.sim.now)

    def alive_nodes(self):
        now = self.member.sim.now
        return {node for node in self._marks if self._fresh(node, now)}

    def suspicion_due_within(self, window):
        now = self.member.sim.now
        return any(self._fresh(node, now) and not self._fresh(node, now + window)
                   for node in self._marks)


def use_timeout_detector(monkeypatch, timeout):
    """Give every GroupMember built from now on a :class:`TimeoutDetector`."""
    real_init = GroupMember.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        self.fd = TimeoutDetector(self, timeout)

    monkeypatch.setattr(GroupMember, "__init__", init)
