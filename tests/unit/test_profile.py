"""Unit tests for the deterministic sim-loop profiler
(repro.obs.profile)."""

import pytest

from repro.obs.profile import (
    SimProfiler,
    _subsystem_of,
    attach_profiler,
    parse_collapsed,
)
from repro.sim.core import Simulator


class TestSubsystemClassification:
    def test_longest_prefix_wins(self):
        assert _subsystem_of("repro.gcs.total_order") == "sequencer"
        assert _subsystem_of("repro.gcs.membership") == "gcs"
        assert _subsystem_of("repro.db.locks") == "locks"
        assert _subsystem_of("repro.db.storage") == "wal"
        assert _subsystem_of("repro.db.versioned") == "db"
        assert _subsystem_of("repro.replication.node") == "apply"

    def test_unknown_module_is_other(self):
        assert _subsystem_of("json") == "other"


def run_profiled(sim=None):
    sim = sim or Simulator(seed=1)
    profiler = SimProfiler().attach(sim)
    hits = []
    sim.schedule(0.5, hits.append, "a", label="tick")
    sim.schedule(1.0, hits.append, "b", label="tick")
    sim.schedule(1.5, hits.append, "c", label="tock")
    sim.run()
    return sim, profiler, hits


class TestSimProfiler:
    def test_detached_by_default(self):
        assert Simulator().profiler is None

    def test_attach_and_count(self):
        sim, profiler, hits = run_profiled()
        assert hits == ["a", "b", "c"]
        assert profiler.events == 3
        counts = {kind: b.count for (_, kind), b in profiler.buckets.items()}
        assert counts == {"tick": 2, "tock": 1}

    def test_virtual_time_gap_attribution(self):
        _, profiler, _ = run_profiled()
        virtual = {kind: b.virtual
                   for (_, kind), b in profiler.buckets.items()}
        # The idle gap ending at an event belongs to that event: tick
        # gets [0, 0.5] + [0.5, 1.0], tock gets [1.0, 1.5].
        assert virtual["tick"] == pytest.approx(1.0)
        assert virtual["tock"] == pytest.approx(0.5)
        assert sum(virtual.values()) == pytest.approx(1.5)

    def test_deterministic_fields_reproduce(self):
        _, first, _ = run_profiled()
        _, second, _ = run_profiled()
        assert first.deterministic_summary() == second.deterministic_summary()

    def test_detach_restores_plain_dispatch(self):
        sim = Simulator()
        profiler = SimProfiler().attach(sim)
        profiler.detach(sim)
        assert sim.profiler is None
        hits = []
        sim.schedule(0.1, hits.append, 1)
        sim.run()
        assert hits == [1] and profiler.events == 0

    def test_observation_equivalence_on_bare_sim(self):
        """Same schedule with and without the profiler: identical clock,
        identical event count, identical callback order."""
        def drive(sim):
            order = []
            for index, delay in enumerate((0.3, 0.1, 0.1, 0.7)):
                sim.schedule(delay, order.append, index)
            sim.run()
            return order, sim.now, sim.events_processed

        plain = drive(Simulator(seed=9))
        profiled_sim = Simulator(seed=9)
        SimProfiler().attach(profiled_sim)
        assert drive(profiled_sim) == plain

    def test_exception_in_callback_still_accounted(self):
        sim = Simulator()
        profiler = SimProfiler().attach(sim)

        def boom():
            raise RuntimeError("boom")

        sim.schedule(0.1, boom, label="boom")
        with pytest.raises(RuntimeError):
            sim.run()
        assert profiler.events == 1
        bucket = profiler.buckets[("other", "boom")]
        assert bucket.count == 1 and bucket.wall >= 0.0

    def test_cost_table_sorted_and_shared(self):
        _, profiler, _ = run_profiled()
        rows = profiler.cost_table()
        walls = [row["wall_seconds"] for row in rows]
        assert walls == sorted(walls, reverse=True)
        assert sum(row["wall_share"] for row in rows) == pytest.approx(1.0)

    def test_render_smoke(self):
        _, profiler, _ = run_profiled()
        text = profiler.render()
        assert "profile:" in text and "tick" in text


class TestAttachProfiler:
    class FakeCluster:
        def __init__(self):
            self.sim = Simulator()

    def test_idempotent(self):
        cluster = self.FakeCluster()
        first = attach_profiler(cluster)
        assert attach_profiler(cluster) is first
        assert cluster.sim.profiler is first
        assert cluster.profiler is first


class TestCollapsedStacks:
    def test_round_trip(self, tmp_path):
        _, profiler, _ = run_profiled()
        path = tmp_path / "profile.collapsed"
        profiler.write_collapsed(str(path))
        parsed = parse_collapsed(path.read_text().splitlines())
        assert len(parsed) == len(profiler.buckets)
        frames = {frame for frame, _ in parsed}
        assert any(frame.endswith(";tick") for frame in frames)
        assert all(weight >= 1 for _, weight in parsed)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="not collapsed-stack"):
            parse_collapsed(["no weight here"])
        with pytest.raises(ValueError, match="not collapsed-stack"):
            parse_collapsed(["frame -3"])
        with pytest.raises(ValueError, match="empty"):
            parse_collapsed(["", "   "])
