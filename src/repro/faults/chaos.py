"""Seeded randomized chaos testing for the replicated database.

The :class:`ChaosEngine` drives a cluster through a random storm of
crashes, recoveries, partitions, heals, one-way link degradations and
loss/latency bursts — on top of always-on message duplication,
reordering and torn-WAL-on-crash faults — then forces the system to
quiescence and asserts the full :mod:`repro.checkers` invariant suite
(total order, atomicity, 1-copy-serializability, view synchrony,
convergence).

Every random decision is drawn from a dedicated ``random.Random`` keyed
on the chaos seed, separate from the simulator RNG, so a (seed,
intensity, config) triple identifies one exact storm.  Exposed on the
command line as ``python -m repro chaos --seed N --intensity X``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Optional, Tuple

from repro.faults.campaign import Campaign, CampaignConfig, CampaignReport
from repro.faults.injectors import OneWayLinkInjector


@dataclass
class ChaosConfig(CampaignConfig):
    """Shape of one chaos run.

    ``intensity`` scales both the fault event rate and the always-on
    injector probabilities; 0 disables random events entirely (the
    always-on injectors still run at rate 0, i.e. not at all), 1.0 is a
    violent storm.
    """

    KIND: ClassVar[str] = "chaos"
    DEFAULT_DURATION: ClassVar[float] = 3.0
    DEFAULT_CLIENTS: ClassVar[int] = 0
    MIN_SITES: ClassVar[int] = 2

    intensity: float = 0.5

    def validate(self) -> None:
        super().validate()
        if not 0.0 <= self.intensity <= 1.0:
            raise ValueError(f"intensity must be in [0, 1], got {self.intensity}")


@dataclass
class ChaosReport(CampaignReport):
    """Outcome of one chaos run."""

    PAYLOAD_EXTRAS: ClassVar[Tuple[str, ...]] = ("intensity",)

    intensity: float = 0.5

    def summary(self) -> str:
        return (
            f"chaos seed={self.seed} intensity={self.intensity}: "
            f"{self.verdict()} — "
            f"{len(self.events)} fault events, "
            f"{self.metrics.get('commits', 0)} commits, "
            f"{self.wal_tears} WAL tears "
            f"({self.wal_corruptions} with corruption)"
        )


class ChaosEngine(Campaign):
    """The chaos driver: one seeded random storm, then quiescence."""

    CONFIG = ChaosConfig
    REPORT = ChaosReport
    RNG_STREAM = "chaos"
    TRACE_CATEGORY = "fault"
    TRACE_PREFIX = "chaos_"
    SETTLE = (1.0, 0.0)
    FINAL_NOTE = ("quiesce", "all faults cleared, all sites recovering")
    ARTIFACT_PREFIX = "chaos-seed"

    #: Mean virtual seconds between chaos events at intensity 1.0.
    BASE_EVENT_INTERVAL = 0.18
    #: Sites the storm always leaves up, so the run cannot degenerate
    #: into everybody-down-forever (total failure is still reachable
    #: through partitions).
    MIN_ALIVE = 1

    def __init__(self, config: Optional[ChaosConfig] = None) -> None:
        super().__init__(config)
        self.report.intensity = self.config.intensity
        self._storming = False
        self._partitioned = False
        self._loss_burst_active = False

    def injector_rates(self):
        intensity = self.config.intensity
        return 0.10 * intensity, 0.25 * intensity, 0.01 * intensity

    def drive(self) -> None:
        cluster = self.cluster
        self._storming = True
        self._schedule_next_event()
        cluster.run_for(self.config.duration)
        self._storming = False
        self.load.stop()
        # Remove every fault source and bring everyone back.  The last
        # tears have already happened; recoveries from here on should be
        # clean so convergence is only a matter of time.
        cluster.clear_injectors()
        cluster.set_loss_rate(0.0)
        self._loss_burst_active = False
        self.storage_faults.tear_probability = 0.0
        self.restore()
        self._partitioned = False

    # ------------------------------------------------------------------
    # The storm
    # ------------------------------------------------------------------
    def _schedule_next_event(self) -> None:
        if not self._storming or self.config.intensity <= 0.0:
            return
        mean = self.BASE_EVENT_INTERVAL / self.config.intensity
        self.cluster.sim.schedule(self.rng.expovariate(1.0 / mean),
                                  self._fire_event, label="chaos event")

    def _fire_event(self) -> None:
        if not self._storming:
            return
        action = self._pick_action()
        if action is not None:
            name, fire = action
            detail = fire()
            self.note(name, detail or "")
        self._schedule_next_event()

    def _pick_action(self):
        """Weighted choice among the actions currently applicable."""
        cluster = self.cluster
        alive = [s for s in cluster.universe if cluster.nodes[s].alive]
        dead = [s for s in cluster.universe if not cluster.nodes[s].alive]
        choices = []
        if len(alive) > self.MIN_ALIVE:
            choices.append((3.0, ("crash_armed", self._do_crash)))
        if dead:
            choices.append((4.0, ("recover", self._do_recover)))
        if not self._partitioned and len(alive) >= 2:
            choices.append((2.0, ("partition", self._do_partition)))
        if self._partitioned:
            choices.append((3.0, ("heal", self._do_heal)))
        if len(alive) >= 2:
            choices.append((2.0, ("one_way", self._do_one_way)))
        if not self._loss_burst_active:
            choices.append((2.0, ("loss_burst", self._do_loss_burst)))
        if not choices:
            return None
        total = sum(weight for weight, _ in choices)
        pick = self.rng.random() * total
        for weight, action in choices:
            pick -= weight
            if pick <= 0:
                return action
        return choices[-1][1]

    # Individual actions.  Each returns a human-readable detail string.
    #: How long an armed crash waits for the victim's WAL tail to be
    #: dirty before striking anyway.
    CRASH_ARM_WINDOW = 0.06

    def _do_crash(self) -> str:
        """Crash a site — preferring the moment its WAL has an unflushed
        tail, so the torn-tail storage fault actually gets exercised
        (an instantaneous random crash almost always lands between
        commits, when everything is already durable)."""
        cluster = self.cluster
        alive = [s for s in cluster.universe if cluster.nodes[s].alive]
        site = self.rng.choice(alive)
        node = cluster.nodes[site]
        deadline = cluster.sim.now + self.CRASH_ARM_WINDOW

        def strike() -> None:
            if not self._storming or not node.alive:
                return
            others = sum(
                1 for s in cluster.universe if s != site and cluster.nodes[s].alive
            )
            if others < self.MIN_ALIVE:
                return
            if node.storage.unflushed_count > 0 or cluster.sim.now >= deadline:
                dirty = node.storage.unflushed_count
                cluster.crash(site)
                self.note("crash", f"{site} (unflushed={dirty})")
            else:
                cluster.sim.schedule(0.001, strike, label="chaos crash arm")

        cluster.sim.call_soon(strike)
        return f"{site} armed"

    def _do_recover(self) -> str:
        cluster = self.cluster
        dead = [s for s in cluster.universe if not cluster.nodes[s].alive]
        site = self.rng.choice(dead)
        cluster.recover(site)
        return site

    def _do_partition(self) -> str:
        cluster = self.cluster
        sites = list(cluster.universe)
        self.rng.shuffle(sites)
        cut = self.rng.randrange(1, len(sites))
        groups = [sorted(sites[:cut]), sorted(sites[cut:])]
        cluster.partition(groups)
        self._partitioned = True
        return f"{groups[0]} | {groups[1]}"

    def _do_heal(self) -> str:
        self.cluster.heal()
        self._partitioned = False
        return ""

    def _do_one_way(self) -> str:
        cluster, rng = self.cluster, self.rng
        src, dst = rng.sample(list(cluster.universe), 2)
        if rng.random() < 0.6:
            injector = OneWayLinkInjector(src, dst, loss_rate=1.0)
        else:
            injector = OneWayLinkInjector(src, dst, loss_rate=0.5,
                                          extra_latency=0.02)
        cluster.add_injector(injector)
        hold = 0.3 + rng.random() * 0.9
        cluster.sim.schedule(hold, self._end_one_way, injector,
                             label="chaos one-way end")
        return f"{injector.describe()} for {hold:.2f}s"

    def _end_one_way(self, injector) -> None:
        # remove_injector tolerates an already-cleared pipeline (quiesce).
        self.cluster.remove_injector(injector)
        self.note("one_way_end", injector.describe())

    def _do_loss_burst(self) -> str:
        cluster, rng = self.cluster, self.rng
        rate = 0.05 + 0.15 * rng.random() * self.config.intensity
        cluster.set_loss_rate(rate)
        self._loss_burst_active = True
        hold = 0.2 + rng.random() * 0.4
        cluster.sim.schedule(hold, self._end_loss_burst,
                             label="chaos loss burst end")
        return f"loss={rate:.3f} for {hold:.2f}s"

    def _end_loss_burst(self) -> None:
        self.cluster.set_loss_rate(0.0)
        self._loss_burst_active = False
        self.note("loss_burst_end", "")


def run_chaos(seed: int, intensity: float = 0.5, **overrides: Any) -> ChaosReport:
    """One-call entry point: run a chaos storm and return its report."""
    config = ChaosConfig(seed=seed, intensity=intensity, **overrides)
    return ChaosEngine(config).run()
