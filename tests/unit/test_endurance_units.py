"""Unit tests for the endurance building blocks: client backoff jitter,
the availability-floor checker, the CRC-valid stable-state corruptor,
the RecTable purge floor, and the endurance helpers themselves."""

import shlex

import pytest

from repro.checkers import ConsistencyViolation, check_availability_floor
from repro.client.session import ClientSession
from repro.db.rectable import RecTable
from repro.db.wal import (
    BaselineRecord, CommitRecord, PersistentStorage, WriteRecord,
    record_checksum,
)
from repro.cli import build_parser, campaign_cells
from repro.endurance import EnduranceConfig
from repro.faults.campaign import repro_command
from repro.faults import ChaosConfig
from repro.faults.storage import StableStateCorruptor
from repro.obs.report import render_availability


def session(client_id="C1", jitter=0.0):
    return ClientSession(None, client_id, backoff_jitter=jitter)


class TestBackoffJitter:
    def test_zero_jitter_is_the_pure_schedule(self):
        s = session()
        for attempt in range(6):
            assert s.jittered_delay(3, attempt) == s.backoff_delay(attempt)

    def test_jitter_stays_within_the_configured_fraction(self):
        s = session(jitter=0.5)
        for seq in range(10):
            for attempt in range(6):
                base = s.backoff_delay(attempt)
                delay = s.jittered_delay(seq, attempt)
                assert base * 0.5 <= delay <= base

    def test_deterministic_per_identity(self):
        a, b = session(jitter=0.5), session(jitter=0.5)
        assert [a.jittered_delay(7, k) for k in range(5)] == \
               [b.jittered_delay(7, k) for k in range(5)]

    def test_distinct_clients_get_distinct_schedules(self):
        a, b = session("C1", jitter=0.5), session("C2", jitter=0.5)
        schedule_a = [a.jittered_delay(0, k) for k in range(5)]
        schedule_b = [b.jittered_delay(0, k) for k in range(5)]
        assert schedule_a != schedule_b

    def test_jitter_bounds_validated(self):
        with pytest.raises(ValueError):
            session(jitter=1.5)


def bins(spec, bin_width=0.25, start=0.25):
    """'m' maintenance, '0' zero commits, '#' serving -> sample rows."""
    samples = []
    t = start
    for ch in spec:
        samples.append((t, 0 if ch in "m0" else 5, ch == "m"))
        t += bin_width
    return samples


class TestAvailabilityFloor:
    def test_steady_commits_pass(self):
        check_availability_floor(bins("#" * 20), window=1.0, bin_width=0.25)

    def test_long_outage_detected(self):
        with pytest.raises(ConsistencyViolation, match="availability floor"):
            check_availability_floor(bins("####000000####"),
                                     window=1.0, bin_width=0.25)

    def test_short_gaps_tolerated(self):
        check_availability_floor(bins("##00##000##0##"),
                                 window=1.0, bin_width=0.25)

    def test_maintenance_bins_break_a_gap(self):
        # The same span of non-serving bins, but the harness itself
        # paused the fleet in the middle: not an outage.
        check_availability_floor(bins("####00mm00####"),
                                 window=1.0, bin_width=0.25)

    def test_warmup_prefix_excluded(self):
        check_availability_floor(bins("000000########"),
                                 window=1.0, bin_width=0.25, warmup=1.5)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            check_availability_floor([], window=0.0, bin_width=0.25)

    def test_all_maintenance_run_passes(self):
        # A run the harness paused throughout has no observable outage,
        # however long it is: every bin is excluded.
        check_availability_floor(bins("m" * 40), window=1.0, bin_width=0.25)

    def test_single_serving_bin_passes(self):
        check_availability_floor(bins("#"), window=1.0, bin_width=0.25)

    def test_single_zero_bin_spanning_the_window_fails(self):
        # One bin can violate on its own when it is at least as wide as
        # the window: the gap is measured from the bin's *start*.
        with pytest.raises(ConsistencyViolation, match="availability floor"):
            check_availability_floor(bins("0", bin_width=1.0, start=2.0),
                                     window=1.0, bin_width=1.0)

    def test_gap_exactly_at_window_fails(self):
        # >= semantics: a dark span of exactly one window is already a
        # violation, not the last tolerated length.
        with pytest.raises(ConsistencyViolation, match=">= window"):
            check_availability_floor(bins("##0000##"),
                                     window=1.0, bin_width=0.25)

    def test_gap_one_bin_under_window_passes(self):
        check_availability_floor(bins("##000##"),
                                 window=1.0, bin_width=0.25)

    def test_empty_timeline_passes(self):
        # No samples, no observable outage (parameters still validated).
        check_availability_floor([], window=1.0, bin_width=0.25)


def populated_storage(n=8):
    storage = PersistentStorage()
    storage.append(BaselineRecord(gid=-1))
    for gid in range(n):
        storage.append(WriteRecord(gid=gid, obj=f"x{gid}", before_value=0,
                                   before_version=0, after_value=gid))
        storage.append(CommitRecord(gid=gid))
    storage.flush()
    storage.outcome_image = tuple(
        (f"C{i}", i, 0, i, True) for i in range(4)
    )
    # Materialize every checksum, as a fault that touched the records
    # would have: the corruptor must keep all of them valid.
    storage._crcs = [record_checksum(r) for r in storage.log]
    return storage


class TestStableStateCorruptor:
    def test_corrupted_state_still_checksums_clean(self):
        corruptor = StableStateCorruptor(seed=3)
        for _ in range(12):
            storage = populated_storage()
            corruptor.corrupt(storage, "S1")
            good, bad_index = storage.verified_records()
            assert bad_index is None
            assert len(good) == len(storage.log)

    def test_same_seed_same_campaign(self):
        campaigns = []
        for _ in range(2):
            corruptor = StableStateCorruptor(seed=11)
            for _ in range(6):
                corruptor.corrupt(populated_storage(), "S2")
            campaigns.append(corruptor.applied)
        assert campaigns[0] == campaigns[1]

    def test_only_loses_or_duplicates_genuine_records(self):
        corruptor = StableStateCorruptor(seed=5)
        for _ in range(12):
            storage = populated_storage()
            originals = set(map(repr, storage.log))
            corruptor.corrupt(storage, "S3")
            assert set(map(repr, storage.log)) <= originals

    def test_durable_length_never_exceeds_log(self):
        corruptor = StableStateCorruptor(seed=7)
        for _ in range(20):
            storage = populated_storage()
            corruptor.corrupt(storage, "S4")
            assert 0 <= storage.durable_length <= len(storage.log)


class TestRecTablePurgeFloor:
    def test_fresh_table_answers_everything(self):
        table = RecTable()
        assert table.can_answer(-1)
        assert table.can_answer(0)

    def test_purge_raises_the_floor(self):
        table = RecTable()
        for gid, obj in enumerate(("a", "b", "c", "d")):
            table.register(obj, gid)
        table.purge(1)
        assert table.purge_floor == 1
        assert not table.can_answer(0)
        assert table.can_answer(1)
        assert table.can_answer(5)

    def test_floor_is_monotone(self):
        table = RecTable()
        table.purge(4)
        table.purge(2)  # a lower purge cannot lower the floor
        assert table.purge_floor == 4


#: Configs whose printed repro command must rebuild them exactly.
REPRO_CASES = [
    EnduranceConfig(seed=3, mode="evs"),
    EnduranceConfig(seed=0, duration=8.0, segments=("storm", "churn")),
    # Cells of the backend comparison `chaos --mode evs,logless` with
    # duration 1.5 / clients 6 (not the CLI's 3.0 / 0) and its endurance
    # form at duration 6: a printed command must carry them.
    ChaosConfig(seed=9, mode="evs", intensity=0.5, n_sites=4, db_size=40,
                duration=1.5, arrival_rate=60.0, clients=6),
    EnduranceConfig(seed=0, mode="logless", duration=6.0),
    ChaosConfig(seed=5, mode="logless", n_sites=5),
    ChaosConfig(seed=12, mode="evs", clients=6, intensity=0.7,
                strategy="lazy", db_size=80, arrival_rate=90.0),
    EnduranceConfig(seed=2, n_sites=5, db_size=60, arrival_rate=45.5,
                    clients=8, profile=True),
]


class TestEnduranceHelpers:
    def test_repro_command_minimal(self):
        command = repro_command(EnduranceConfig(seed=3, mode="evs"))
        assert command == ("PYTHONPATH=src python -m repro chaos "
                           "--endurance --seed 3 --mode evs")

    @pytest.mark.parametrize("config", REPRO_CASES,
                             ids=lambda c: f"{c.KIND}-{c.seed}")
    def test_repro_command_rebuilds_the_config(self, config):
        """shlex-split the printed command, parse it with the real
        parser, rebuild the config the CLI would run: same config."""
        command = repro_command(config)
        prefix = "PYTHONPATH=src python -m repro "
        assert command.startswith(prefix)
        args = build_parser().parse_args(shlex.split(command[len(prefix):]))
        assert campaign_cells(args) == [config]

    def test_render_availability_classifies_bins(self):
        samples = [(0.25, 0, False),   # warmup
                   (0.50, 8, False),   # above mean
                   (0.75, 1, False),   # below mean
                   (1.00, 0, False),   # outage
                   (1.25, 0, True)]    # maintenance
        text = render_availability(samples, bin_width=0.25, warmup=0.3)
        assert ".#+0m" in text
        assert "availability timeline" in text
