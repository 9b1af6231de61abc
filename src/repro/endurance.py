"""Long-horizon reconfiguration-churn endurance runs.

Where :mod:`repro.faults.chaos` throws one short random storm at a
cluster and checks the wreckage once, the endurance engine holds a
cluster under *continuous* membership churn for a long virtual horizon
while a :class:`repro.client.ClientFleet` keeps serving traffic, and
audits it repeatedly along the way:

* **segments** — the storm is composed from the scenario families of
  :mod:`repro.faults.churn`: rolling restarts, repeated partition/merge
  cycles paced to interrupt state transfers, continuous join/leave
  churn, and self-stabilization starts (sites rebooted from
  corrupted-but-CRC-valid stable state);
* **quiescent sweeps** — at a fixed cadence the engine pauses the fault
  schedule, heals and recovers everything, drains the client fleet, and
  asserts the *full* invariant suite plus ``check_exactly_once`` — then
  resumes the churn.  A long run is therefore checked at every quiescent
  point, not only at the end;
* **availability timeline** — committed client requests are sampled per
  time bin for the whole run (trace events + an ``endurance.availability``
  gauge when observability is attached), and the final verdict includes
  :func:`repro.checkers.check_availability_floor`: the cluster must never
  stop serving for a whole window, churn or not.

Every storm decision draws from a dedicated ``random.Random`` keyed on
the endurance seed, so one seed is one exact schedule — pinned seeds
become regression tests and determinism-audit cases.  Exposed as
``python -m repro chaos --endurance``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from repro.checkers import ConsistencyViolation, check_availability_floor
from repro.faults.campaign import (  # noqa: F401  (re-exported entry points)
    Campaign,
    CampaignConfig,
    CampaignReport,
    dump_artifacts,
    repro_command,
)
from repro.faults.churn import SEGMENTS
from repro.faults.storage import StableStateCorruptor

#: Availability sampling bin width (virtual seconds).
AVAILABILITY_BIN = 0.25


@dataclass
class EnduranceConfig(CampaignConfig):
    """Shape of one endurance run.  Endurance is always client-driven:
    the availability metric *is* committed client requests."""

    KIND: ClassVar[str] = "endurance"
    DEFAULT_DURATION: ClassVar[float] = 12.0
    DEFAULT_CLIENTS: ClassVar[int] = 6
    #: A majority must survive one site down.
    MIN_SITES: ClassVar[int] = 3

    #: Which scenario families the storm is composed from (see
    #: :data:`repro.faults.churn.SEGMENTS`).  A single-element tuple
    #: pins a run to one family — the regression tests use this.
    segments: Tuple[str, ...] = ("rolling", "storm", "churn", "stabilize")
    #: Virtual seconds between quiescent invariant sweeps.
    sweep_interval: float = 4.0
    #: Longest tolerated span with zero committed client requests
    #: (outside maintenance windows) before the run fails.
    availability_window: float = 1.5
    #: Grace prefix while the cluster bootstraps and clients ramp up.
    availability_warmup: float = 1.0

    def validate(self) -> None:
        super().validate()
        if self.clients < 1:
            raise ValueError("endurance is client-driven: clients must be >= 1")
        if not self.segments:
            raise ValueError("segments must not be empty")
        unknown = sorted(set(self.segments) - set(SEGMENTS))
        if unknown:
            raise ValueError(
                f"unknown segment(s) {', '.join(unknown)}; "
                f"valid: {', '.join(sorted(SEGMENTS))}"
            )
        if self.sweep_interval <= 0:
            raise ValueError("sweep_interval must be positive")
        if self.availability_window < AVAILABILITY_BIN:
            raise ValueError("availability_window must be at least the "
                             f"{AVAILABILITY_BIN}s sampling bin")


@dataclass
class EnduranceReport(CampaignReport):
    """Outcome of one endurance (or schedule-search) run."""

    PAYLOAD_EXTRAS: ClassVar[Tuple[str, ...]] = (
        "sweeps", "rolling_restarts", "partition_cycles",
        "transfers_interrupted", "churn_leaves", "stabilize_starts")

    #: Availability timeline: (bin end time, commits in bin, maintenance).
    samples: List[Tuple[float, int, bool]] = field(default_factory=list)
    bin_width: float = AVAILABILITY_BIN
    warmup: float = 1.0
    sweeps: int = 0
    rolling_restarts: int = 0
    partition_cycles: int = 0
    transfers_interrupted: int = 0
    churn_leaves: int = 0
    stabilize_starts: int = 0

    def availability(self) -> Dict[str, float]:
        """Aggregate availability stats over serving (non-maintenance,
        post-warmup) bins: min/mean commit rate and zero-commit bins."""
        serving = [(t, c) for t, c, m in self.samples
                   if not m and t > self.warmup]
        if not serving:
            return {"bins": 0.0, "zero_bins": 0.0,
                    "min_rate": 0.0, "mean_rate": 0.0}
        rates = [c / self.bin_width for _t, c in serving]
        return {
            "bins": float(len(serving)),
            "zero_bins": float(sum(1 for _t, c in serving if c == 0)),
            "min_rate": min(rates),
            "mean_rate": sum(rates) / len(rates),
        }

    def summary(self) -> str:
        avail = self.availability()
        return (
            f"endurance seed={self.seed}: {self.verdict()} — "
            f"{self.sweeps} quiescent sweeps, "
            f"{self.rolling_restarts} restarts, "
            f"{self.partition_cycles} partition cycles "
            f"({self.transfers_interrupted} transfers cut), "
            f"{self.churn_leaves} churn leaves, "
            f"{self.stabilize_starts} stabilization starts; "
            f"availability mean {avail['mean_rate']:.1f}/s "
            f"min {avail['min_rate']:.1f}/s "
            f"({avail['zero_bins']:.0f}/{avail['bins']:.0f} zero bins)"
        )

    def payload(self) -> Dict[str, Any]:
        import hashlib  # call-time, as in CampaignReport.payload

        timeline = "\n".join(
            f"{t:.6f} {c} {int(m)}" for t, c, m in self.samples
        )
        payload = super().payload()
        payload["availability"] = self.availability()
        payload["availability_digest"] = hashlib.sha256(
            timeline.encode()).hexdigest()
        return payload


class ChurnCampaign(Campaign):
    """What the two churn drivers share: a client-driven run whose
    committed requests are sampled into an availability timeline, with
    the availability floor added to the verdict.  The drivers differ in
    where the schedule comes from — :class:`EnduranceEngine` composes
    random segments, :class:`repro.search.executor.ScheduleExecutor`
    interprets a genome."""

    CONFIG = EnduranceConfig
    REPORT = EnduranceReport
    RNG_STREAM = "endurance"
    TRACE_CATEGORY = "endurance"
    # A flapping straggler must not starve a suspended majority: allow
    # creation from any primary view (uniform delivery).
    CREATION_MAJORITY = True
    BACKOFF_JITTER = 0.5
    SETTLE = (0.0, 0.3)
    FINAL_NOTE = ("final_quiesce", "")
    ARTIFACT_PREFIX = "seed"

    def __init__(self, config: Optional[EnduranceConfig] = None) -> None:
        super().__init__(config)
        self.report.warmup = self.config.availability_warmup
        self.corruptor = StableStateCorruptor(self.config.seed)

    def injector_rates(self):
        # Always-on wire realism, mild enough for a long horizon.
        return 0.05, 0.10, None

    def start_sampler(self) -> None:
        """Sample committed client requests per bin for the rest of the
        run: trace events, plus ``endurance.availability`` gauges when
        observability is attached."""
        cluster, report = self.cluster, self.report
        warmup = self.config.availability_warmup
        gauge = min_gauge = None
        if report.obs is not None:
            gauge = report.obs.registry.gauge(
                "endurance.availability",
                "committed client requests per virtual second, last bin")
            min_gauge = report.obs.registry.gauge(
                "endurance.availability_min",
                "lowest serving-bin commit rate seen so far")
        last_committed = 0
        min_rate = None

        def sample() -> None:
            nonlocal last_committed, min_rate
            now = cluster.sim.now
            committed = len(self.fleet.committed())
            delta = committed - last_committed
            last_committed = committed
            maintenance = self.maintenance
            report.samples.append((now, delta, maintenance))
            rate = delta / AVAILABILITY_BIN
            if cluster.tracer is not None:
                cluster.tracer.emit(
                    "--", "endurance", "availability_sample",
                    f"{rate:.0f}/s" + (" [maintenance]" if maintenance else ""),
                    data={"t": now, "commits": delta, "rate": rate,
                          "maintenance": maintenance},
                )
            if gauge is not None:
                gauge.set(rate)
                if not maintenance and now > warmup:
                    if min_rate is None or rate < min_rate:
                        min_rate = rate
                        min_gauge.set(rate)
            cluster.sim.schedule(AVAILABILITY_BIN, sample,
                                 label="endurance availability sample")

        cluster.sim.schedule(AVAILABILITY_BIN, sample,
                             label="endurance availability sample")

    def verdict(self) -> None:
        report, config = self.report, self.config
        report.sweeps += 1  # the final quiesce is the last sweep
        try:
            check_availability_floor(
                report.samples,
                window=config.availability_window,
                bin_width=AVAILABILITY_BIN,
                warmup=config.availability_warmup,
            )
        except ConsistencyViolation as violation:
            report.error = str(violation)


class EnduranceEngine(ChurnCampaign):
    """The endurance driver: random segment composition for the given
    duration, with quiescent sweeps at a fixed cadence."""

    def drive(self) -> None:
        cluster, config = self.cluster, self.config
        self.start_sampler()
        end = cluster.sim.now + config.duration
        next_sweep = cluster.sim.now + config.sweep_interval
        while cluster.sim.now < end and self.report.error is None:
            name = self.rng.choice(config.segments)
            self.note("segment", name)
            detail = SEGMENTS[name](self)
            self.note("segment_done", f"{name}: {detail}")
            if self.report.error is not None:
                break
            if cluster.sim.now >= next_sweep:
                self._quiescent_sweep()
                next_sweep = cluster.sim.now + config.sweep_interval

    def _quiescent_sweep(self) -> None:
        """Pause the schedule, check everything, resume the churn."""
        self.note("sweep", f"#{self.report.sweeps + 1}")
        if not self.settle_and_check("quiescent sweep"):
            return
        self.report.sweeps += 1
        self.note("sweep_ok", f"t={self.cluster.sim.now:.2f}")
        self.fleet.start()
        self.maintenance = False


def run_endurance(seed: int, **overrides: Any) -> EnduranceReport:
    """One-call entry point: run an endurance schedule, return its report."""
    config = EnduranceConfig(seed=seed, **overrides)
    return EnduranceEngine(config).run()
