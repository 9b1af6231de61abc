"""Unit tests for epoch extraction (repro.obs.epochs).

Covers the edge cases the reconstruction must survive: overlapping
epochs during partition storms, aborted transfers with peer fail-over,
epochs truncated at run end or chained by a second crash, trigger
classification, the exact phase-sum property, and the blocked-window
coverage logic.
"""

import pytest

from repro.obs.epochs import (
    PHASE_ORDER,
    blocked_windows,
    epoch_summary,
    extract_epochs,
    merge_epoch_summaries,
    render_epoch_table,
    render_phase_comparison,
    uncovered_blocked_time,
)
from repro.tracing import TraceEvent


def ev(time, site, category, kind, detail="", data=None):
    return TraceEvent(time, site, category, kind, detail, data)


def full_recovery(site="S1", base=0.0):
    """A complete crash -> active trace for one site, offset by base."""
    return [
        ev(base + 1.0, site, "status", "down", "crashed"),
        ev(base + 2.0, site, "status", "stalled", "restarted"),
        # The restart installs a transitional singleton view at the same
        # timestamp; the full view lands after membership agreement.
        ev(base + 2.0, site, "view", "install", "v5 {S1}"),
        ev(base + 2.2, site, "view", "install", "v6 {S1,S2,S3}"),
        ev(base + 2.2, site, "status", "recovering", ""),
        ev(base + 2.3, site, "transfer", "accept", "from S2",
           data={"peer": "S2", "bytes_received": 100,
                 "objects_received": 4, "retransmissions": 0}),
        ev(base + 2.5, site, "transfer", "complete", "",
           data={"bytes_received": 5220, "objects_received": 24,
                 "retransmissions": 1}),
        ev(base + 2.6, site, "replay", "start", ""),
        ev(base + 2.7, site, "replay", "caught_up", "", data={"replayed": 9}),
        ev(base + 2.75, site, "status", "active", ""),
    ]


class TestPhaseDecomposition:
    def test_full_recovery_phases(self):
        epochs = extract_epochs(full_recovery())
        assert len(epochs) == 1
        epoch = epochs[0]
        assert epoch.site == "S1"
        assert epoch.trigger == "crash"
        assert not epoch.truncated
        durations = epoch.phase_durations()
        assert durations["down"] == pytest.approx(1.0)
        assert durations["membership"] == pytest.approx(0.2)
        assert durations["transfer_wait"] == pytest.approx(0.1)
        assert durations["transfer"] == pytest.approx(0.2)
        assert durations["replay"] == pytest.approx(0.2)
        assert durations["drain"] == pytest.approx(0.05)

    def test_phase_sum_equals_window(self):
        """Acceptance criterion: phase durations tile the recovery
        window exactly (well under one sim tick)."""
        epochs = extract_epochs(full_recovery())
        epoch = epochs[0]
        assert sum(epoch.phase_durations().values()) == pytest.approx(
            epoch.duration, abs=1e-9)

    def test_transfer_economics_are_snapshot_deltas(self):
        epoch = extract_epochs(full_recovery())[0]
        assert epoch.bytes_received == 5120
        assert epoch.objects_received == 20
        assert epoch.retransmissions == 1
        assert epoch.replayed == 9

    def test_phase_durations_padded_to_full_order(self):
        events = [
            ev(1.0, "S1", "status", "down", ""),
            ev(2.0, "S1", "status", "active", ""),
        ]
        durations = extract_epochs(events)[0].phase_durations()
        assert tuple(durations) == PHASE_ORDER


class TestEdgeCases:
    def test_truncated_at_run_end(self):
        events = full_recovery()[:-1]  # never reaches ACTIVE
        epochs = extract_epochs(events, end_time=5.0)
        assert len(epochs) == 1
        epoch = epochs[0]
        assert epoch.truncated
        assert epoch.end == 5.0
        assert sum(epoch.phase_durations().values()) == pytest.approx(
            epoch.duration, abs=1e-9)

    def test_second_crash_chains_a_new_epoch(self):
        events = [
            ev(1.0, "S1", "status", "down", ""),
            ev(2.0, "S1", "status", "stalled", ""),
            ev(2.5, "S1", "status", "down", ""),  # crashes again mid-recovery
            ev(3.0, "S1", "status", "stalled", ""),
            ev(3.4, "S1", "status", "active", ""),
        ]
        epochs = extract_epochs(events)
        assert len(epochs) == 2
        first, second = epochs
        assert first.truncated and first.end == 2.5
        assert not second.truncated
        assert second.start == 2.5 and second.end == 3.4
        assert second.trigger == "crash"

    def test_peer_failover_counts_superseded_accepts(self):
        events = [
            ev(1.0, "S1", "status", "down", ""),
            ev(2.0, "S1", "status", "stalled", ""),
            ev(2.1, "S1", "transfer", "accept", "from S2",
               data={"peer": "S2", "bytes_received": 0,
                     "objects_received": 0, "retransmissions": 0}),
            # Peer S2 dies; replacement offers accepted mid-epoch.
            ev(2.4, "S1", "transfer", "accept", "from S3",
               data={"peer": "S3", "bytes_received": 40,
                     "objects_received": 2, "retransmissions": 0}),
            ev(2.8, "S1", "transfer", "complete", "",
               data={"bytes_received": 900, "objects_received": 30,
                     "retransmissions": 2}),
            ev(3.0, "S1", "status", "active", ""),
        ]
        epoch = extract_epochs(events)[0]
        assert epoch.failovers == 1
        # Economics use the FIRST accept as the baseline, so the whole
        # epoch's traffic (including the aborted session) is attributed.
        assert epoch.bytes_received == 900
        # transfer_wait ends at the first accept.
        assert epoch.phase_durations()["transfer_wait"] == pytest.approx(0.1)
        assert epoch.phase_durations()["transfer"] == pytest.approx(0.7)

    def test_partition_storm_overlapping_epochs(self):
        """Several sites suspended simultaneously each get their own
        epoch; extraction handles the interleaved events."""
        events = [
            ev(1.0, "S2", "status", "suspended", ""),
            ev(1.1, "S3", "status", "suspended", ""),
            ev(1.5, "S2", "view", "install", ""),
            ev(1.6, "S3", "view", "install", ""),
            ev(2.0, "S2", "status", "active", ""),
            ev(2.1, "S3", "status", "active", ""),
        ]
        epochs = extract_epochs(events)
        assert [(e.site, e.trigger) for e in epochs] == [
            ("S2", "partition"), ("S3", "partition")]
        assert epochs[0].start == 1.0 and epochs[0].end == 2.0
        assert epochs[1].start == 1.1 and epochs[1].end == 2.1

    def test_stalled_without_open_epoch_opens_nothing(self):
        # A stray restart marker (e.g. tracing attached mid-run) must
        # not fabricate an epoch.
        events = [
            ev(1.0, "S1", "status", "stalled", ""),
            ev(2.0, "S1", "status", "active", ""),
        ]
        assert extract_epochs(events) == []

    def test_partition_storm_cluster_epoch(self):
        """Network splits block commits cluster-wide without any site
        status change; the storm itself becomes a site='--' epoch from
        split to post-heal view agreement."""
        events = [
            ev(1.0, "--", "endurance", "partition", "[S1] | [S2,S3]"),
            ev(1.5, "--", "endurance", "merge", "S1"),
            # Another wave lands before the healed view is agreed.
            ev(1.6, "--", "endurance", "partition", "[S2] | [S1,S3]"),
            ev(2.0, "--", "endurance", "merge", "S2"),
            ev(2.3, "S1", "view", "install", "v9 {S1,S2,S3}"),
        ]
        epochs = extract_epochs(events)
        assert len(epochs) == 1
        storm = epochs[0]
        assert storm.site == "--"
        assert storm.trigger == "partition_storm"
        assert not storm.truncated
        assert storm.start == 1.0 and storm.end == 2.3
        durations = storm.phase_durations()
        # down = split until the last heal, membership = heal -> view.
        assert durations["down"] == pytest.approx(1.0)
        assert durations["membership"] == pytest.approx(0.3)
        assert sum(durations.values()) == pytest.approx(storm.duration)

    def test_unhealed_storm_truncates_at_run_end(self):
        events = [
            ev(1.0, "--", "fault", "chaos_partition", ""),
        ]
        epochs = extract_epochs(events, end_time=3.0)
        assert len(epochs) == 1
        assert epochs[0].truncated and epochs[0].end == 3.0

    def test_recovering_without_a_crash_is_a_join(self):
        events = [
            ev(0.5, "--", "endurance", "gene", "#0 restart [0] hold=0.1"),
            ev(1.0, "S1", "status", "recovering", ""),
            ev(1.5, "S1", "status", "active", ""),
            ev(3.0, "S2", "status", "recovering", ""),
            ev(3.5, "S2", "status", "active", ""),
        ]
        epochs = extract_epochs(events)
        assert [epoch.trigger for epoch in epochs] == ["join", "join"]


class TestBlockedWindows:
    def samples(self, rows):
        return [
            ev(t, "--", "endurance", "availability_sample", "",
               data={"t": t, "commits": commits, "maintenance": maint})
            for t, commits, maint in rows
        ]

    def test_gap_rule_matches_availability_floor(self):
        events = self.samples([
            (0.25, 5, False), (0.50, 0, False), (0.75, 0, False),
            (1.00, 3, False), (1.25, 0, False),
        ])
        windows = blocked_windows(events)
        # A zero bin ending at t covers [t - bin, t]; adjacent zeros
        # merge; a trailing zero run extends to the last sample.
        assert windows == [
            (pytest.approx(0.25), pytest.approx(0.75)),
            (pytest.approx(1.0), pytest.approx(1.25)),
        ]

    def test_maintenance_bin_breaks_a_window_like_the_floor(self):
        from repro.checkers import availability_violations

        rows = [(0.25, 3, False), (0.50, 3, False), (0.75, 0, False),
                (1.00, 0, True), (1.25, 0, False), (1.50, 4, False)]
        # A maintenance bin ends a zero-commit span; it does not bridge
        # the zero bins on either side into one window.
        assert blocked_windows(self.samples(rows)) == [(0.5, 0.75),
                                                       (1.0, 1.25)]
        floor = availability_violations(rows, window=0.25, bin_width=0.25,
                                        min_span=0.25)
        assert sorted((w.start, w.end) for w in floor) == [(0.5, 0.75),
                                                           (1.0, 1.25)]

    def test_warmup_and_maintenance_bins_skipped(self):
        events = self.samples([
            (0.25, 0, False),  # inside warmup
            (0.50, 5, False), (0.75, 0, True),  # maintenance
            (1.00, 4, False),
        ])
        assert blocked_windows(events, warmup=0.3) == []

    def test_uncovered_blocked_time_merges_epoch_intervals(self):
        epochs = extract_epochs([
            ev(1.0, "S2", "status", "suspended", ""),
            ev(1.1, "S3", "status", "suspended", ""),
            ev(2.0, "S2", "status", "active", ""),
            ev(2.1, "S3", "status", "active", ""),
        ])
        # Window [0.5, 2.5]; merged epoch cover is [1.0, 2.1].
        uncovered = uncovered_blocked_time(epochs, [(0.5, 2.5)])
        assert uncovered == pytest.approx(0.5 + 0.4)
        # One bin of slack on each side swallows the quantisation.
        assert uncovered_blocked_time(
            epochs, [(0.5, 2.5)], slack=0.5) == pytest.approx(0.0)

    def test_fully_covered_window(self):
        epochs = extract_epochs([
            ev(1.0, "S1", "status", "down", ""),
            ev(3.0, "S1", "status", "active", ""),
        ])
        assert uncovered_blocked_time(epochs, [(1.2, 2.8)]) == 0.0


class TestSummaries:
    def test_epoch_summary_rollup(self):
        epochs = extract_epochs(full_recovery("S1") + full_recovery("S2", 10))
        summary = epoch_summary(epochs)
        assert summary["count"] == 2
        assert summary["completed"] == 2
        assert summary["truncated"] == 0
        assert summary["total_downtime"] == pytest.approx(2 * 1.75)
        assert summary["bytes_received"] == 2 * 5120
        assert summary["replayed"] == 18
        assert summary["triggers"] == {"crash": 2}
        assert summary["phase_seconds"]["down"] == pytest.approx(2.0)
        assert summary["worst"]["duration"] == pytest.approx(1.75)

    def test_merge_epoch_summaries(self):
        one = epoch_summary(extract_epochs(full_recovery("S1")))
        two = epoch_summary(extract_epochs(full_recovery("S2", 5)))
        merged = merge_epoch_summaries([one, two, {}])
        assert merged["count"] == 2
        assert merged["total_downtime"] == pytest.approx(
            one["total_downtime"] + two["total_downtime"])
        assert merged["triggers"] == {"crash": 2}
        assert merged["worst"]["duration"] == pytest.approx(1.75)

    def test_render_epoch_table(self):
        epochs = extract_epochs(full_recovery())
        table = render_epoch_table(epochs)
        assert "S1" in table and "crash" in table
        for name in PHASE_ORDER:
            assert name in table
        assert render_epoch_table([]) == "no reconfiguration epochs"

    def test_render_epoch_table_marks_truncation(self):
        epochs = extract_epochs(full_recovery()[:-1], end_time=5.0)
        assert "truncated" in render_epoch_table(epochs)

    def test_render_phase_comparison(self):
        summaries = {
            "evs": epoch_summary(extract_epochs(full_recovery())),
            "logless": epoch_summary([]),
        }
        table = render_phase_comparison(summaries)
        assert "evs" in table and "logless" in table
        assert "total downtime" in table
