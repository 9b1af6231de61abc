"""End-to-end guarantees of the epoch analytics + profiler layers on
pinned chaos and endurance runs:

* every epoch's phase durations tile its recovery window exactly,
* every client-visible blocked window of an endurance run is explained
  by (covered by) epoch intervals, with one sampling bin of slack,
* attaching the profiler changes nothing observable (trace digest,
  metrics, schedule) while still collecting cost buckets.
"""

import pytest

from repro import endurance
from repro.faults.chaos import ChaosConfig, ChaosEngine
from repro.obs.epochs import (
    blocked_windows,
    epoch_summary,
    extract_epochs,
    uncovered_blocked_time,
)


def run_chaos(seed, mode, **overrides):
    params = dict(seed=seed, mode=mode, intensity=0.5, n_sites=4,
                  db_size=40, duration=1.5, arrival_rate=60.0)
    params.update(overrides)
    return ChaosEngine(ChaosConfig(**params)).run()


def run_endurance(seed, mode, **overrides):
    return endurance.run_endurance(seed, mode=mode, duration=6.0, **overrides)


class TestPhaseSums:
    @pytest.mark.parametrize("seed,mode", [(3, "vs"), (9, "evs")])
    def test_chaos_epochs_tile_their_windows(self, seed, mode):
        report = run_chaos(seed, mode)
        assert report.ok, report.error
        epochs = report.epochs()
        assert epochs, "pinned storm produced no reconfiguration epochs"
        for epoch in epochs:
            assert sum(epoch.phase_durations().values()) == pytest.approx(
                epoch.duration, abs=1e-9)
            assert epoch.end >= epoch.start

    def test_endurance_epochs_tile_their_windows(self):
        report = run_endurance(0, "vs")
        assert report.ok, report.error
        epochs = report.epochs()
        assert epochs
        for epoch in epochs:
            assert sum(epoch.phase_durations().values()) == pytest.approx(
                epoch.duration, abs=1e-9)

    def test_storm_split_at_quiesce_closes(self):
        """Seed 3's storm is still split when the drive ends; the final
        quiesce heals it and the next view closes it."""
        from repro.faults import run_chaos as run_default_chaos

        report = run_default_chaos(seed=3, mode="vs")
        [storm] = [e for e in report.epochs() if e.site == "--"]
        assert not storm.truncated
        assert storm.start == pytest.approx(0.390, abs=5e-4)
        assert storm.end == pytest.approx(3.153, abs=5e-4)
        durations = storm.phase_durations()
        assert durations["down"] == pytest.approx(2.710, abs=5e-4)
        assert durations["membership"] == pytest.approx(0.053, abs=5e-4)

    def test_payload_summary_matches_records(self):
        report = run_chaos(3, "vs")
        epochs = report.epochs()
        summary = report.payload()["epochs"]
        assert summary == epoch_summary(epochs)
        assert summary["count"] == len(epochs)
        assert summary["total_downtime"] == pytest.approx(
            sum(e.duration for e in epochs), abs=1e-6)


class TestBlockedWindowCoverage:
    @pytest.mark.parametrize("seed,mode", [(0, "vs"), (2, "vs"), (1, "evs")])
    def test_blocked_windows_explained_by_epochs(self, seed, mode):
        """Acceptance criterion: the availability checker's blocked
        windows must be covered by epoch intervals (one-bin slack for
        the sampler's quantisation)."""
        report = run_endurance(seed, mode)
        assert report.ok, report.error
        epochs = extract_epochs(report.tracer.events,
                                end_time=report.virtual_time)
        windows = blocked_windows(report.tracer.events,
                                  warmup=report.warmup)
        uncovered = uncovered_blocked_time(epochs, windows,
                                           slack=report.bin_width)
        assert uncovered == pytest.approx(0.0), (
            f"{uncovered:.3f}s of blocked time not explained by any "
            f"reconfiguration epoch (windows={windows})")


class TestProfilerObservationEquivalence:
    def test_profiled_chaos_run_is_byte_identical(self):
        plain = run_chaos(3, "vs")
        profiled = run_chaos(3, "vs", profile=True)
        assert profiled.profiler is not None
        assert profiled.profiler.events > 0
        plain_payload = plain.payload()
        profiled_payload = profiled.payload()
        assert plain_payload["trace_digest"] == profiled_payload["trace_digest"]
        assert plain_payload["metrics"] == profiled_payload["metrics"]
        assert plain_payload["epochs"] == profiled_payload["epochs"]

    def test_profiled_endurance_run_is_byte_identical(self):
        plain = run_endurance(1, "vs")
        profiled = run_endurance(1, "vs", profile=True)
        assert profiled.profiler is not None
        assert (plain.payload()["schedule_digest"]
                == profiled.payload()["schedule_digest"])
        assert plain.payload()["metrics"] == profiled.payload()["metrics"]

    def test_profiler_buckets_are_deterministic(self):
        first = run_chaos(3, "vs", profile=True).profiler
        second = run_chaos(3, "vs", profile=True).profiler
        assert first.deterministic_summary() == second.deterministic_summary()
