"""Tunable parameters of the group communication system."""

from __future__ import annotations

from dataclasses import dataclass

from repro.gcs.primary import PRIMARY_POLICIES, unknown_policy


@dataclass
class GCSConfig:
    """Timing and behaviour knobs for :class:`repro.gcs.member.GroupMember`.

    The defaults assume network latencies around a millisecond (the
    default :class:`repro.net.UniformLatency`); all values are virtual
    seconds.

    Attributes
    ----------
    presence_interval:
        Period of the PRESENCE broadcast, which doubles as the in-view
        heartbeat and as the discovery beacon for joiners and merges.
        Detection is counted in these periods, not timed
        (``failure_detector.THETA``).  A removal starts its round at
        detection; any other mismatch (a newcomer, a foreign or stale
        view claim) waits one ``presence_interval``, so that the beacons
        of a concurrent restart or merge coalesce into one view change.
    flush_timeout:
        How long a round initiator waits for FLUSH replies before
        abandoning the round, force-suspecting the silent members and
        retrying with a higher epoch.
    round_timeout:
        How long a participant stays blocked waiting for SYNC before
        abandoning the round and resuming its old view.
    retransmit_interval:
        Period of the maintenance task that re-sends unsequenced DATA,
        NAKs sequence gaps and re-broadcasts ACKs while messages are
        buffered undelivered, and checks for a stale view.  Drives loss
        repair only: membership decisions are taken when their inputs
        change or a deadline falls due, never on this period, so it
        matters only under message loss.
    uniform:
        If True (default, and required by the paper's section 2.1),
        messages are delivered only when the view's delivery quorum has
        acknowledged receipt (safe delivery): a majority in a primary
        view, every member elsewhere and under EVS.  Setting it to False
        gives plain reliable delivery and is used by the
        atomicity-violation ablation (experiment E9c).
    primary_policy:
        How view primacy is decided (section 2.1): ``"static"`` — a
        majority of the static universe (the paper's default) — or
        ``"dynamic_linear"`` — a majority of the previous primary view,
        the extension the paper calls straightforward.
    """

    presence_interval: float = 0.05
    flush_timeout: float = 0.5
    round_timeout: float = 1.0
    retransmit_interval: float = 0.1
    uniform: bool = True
    primary_policy: str = "static"
    #: Sequencer hot-path batching: coalesce the Ordered messages
    #: produced within one delivery round into a single OrderedBatch
    #: wire message per member.  Behaviour-preserving (same arrival
    #: ticks, same delivery order); retransmissions always use plain
    #: Ordered messages.
    sequencer_batching: bool = True
    #: Allow the member set to grow at runtime (the paper's "extending
    #: our discussion to dynamic groups ... is straightforward"): nodes
    #: discovered through presence beacons join the universe.  Requires
    #: the dynamic-linear primary policy — with a growing universe there
    #: is no static majority to define primacy against.
    dynamic_universe: bool = False

    def validate(self) -> None:
        for name in ("presence_interval", "retransmit_interval"):
            if getattr(self, name) <= 0:
                # Process.every(0, ...) re-arms at the same instant, so
                # the run would spin at one virtual time forever.
                raise ValueError(f"{name} must be positive")
        if self.round_timeout <= self.flush_timeout:
            raise ValueError("round_timeout must exceed flush_timeout")
        if self.primary_policy not in PRIMARY_POLICIES:
            raise unknown_policy(self.primary_policy)
        if self.dynamic_universe and self.primary_policy != "dynamic_linear":
            raise ValueError(
                "dynamic_universe requires primary_policy='dynamic_linear' "
                "(a growing universe has no static majority)"
            )
