"""End-to-end tests for the adversarial chaos search: campaign
determinism, corpus replay, the mutation canary (find + shrink a seeded
bug), and the pinned regression/determinism schedules."""

import json
import os

import pytest

from repro import audit
from repro.search.engine import (
    SearchConfig,
    SearchEngine,
    evaluate_genome,
    replay_schedule,
)
from repro.search.executor import ScheduleExecutor
from repro.search.pinned import PINNED
from tests import mutations


def smoke_config(**overrides):
    config = SearchConfig.smoke(seed=0)
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


class TestSearchDeterminism:
    def test_same_seed_same_corpus_digest(self):
        first = SearchEngine(smoke_config()).run()
        second = SearchEngine(smoke_config()).run()
        assert first.corpus
        assert first.corpus_digest() == second.corpus_digest()
        assert first.summary() == second.summary()

    def test_jobs_do_not_change_the_result(self):
        serial = SearchEngine(smoke_config(jobs=1)).run()
        fanned = SearchEngine(smoke_config(jobs=2)).run()
        assert serial.corpus_digest() == fanned.corpus_digest()

    def test_corpus_files_replay_to_recorded_digests(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        report = SearchEngine(
            smoke_config(corpus_dir=str(corpus_dir))).run()
        index = json.loads((corpus_dir / "corpus.json").read_text())
        assert index["corpus_digest"] == report.corpus_digest()
        assert len(index["entries"]) == len(report.corpus)
        # Replay the first corpus entry from its file: byte-identical.
        entry = index["entries"][0]
        payload = replay_schedule(str(corpus_dir / entry["file"]))
        assert payload["matches"] is True
        assert payload["run_digest"] == entry["run_digest"]


class TestSabotageCanary:
    def test_search_finds_and_shrinks_the_seeded_bug(self, monkeypatch,
                                                     tmp_path):
        """The seeded bug is a test-side mutation — S1 skips the outcome
        merge — and the search runs at ``jobs=1``, inline, so every
        candidate, shrink step and replay below is mutated.  Search seed
        19: at seed 0 the smoke budget no longer reaches the failure since
        the membership decision stopped waiting for the maintenance tick,
        nor at seed 1 since primary views deliver on a majority of acks,
        nor at seed 3 since a removal stopped waiting the 60 ms debounce,
        nor at seed 48 since the failure detector counts beacons (of
        seeds 0..19, 19 is the first that reaches it with a passing
        unmutated search).  Unmutated, the same search passes."""
        assert SearchEngine(smoke_config(seed=19)).run().ok
        mutations.skip_outcome_merge(monkeypatch, "S1")
        config = smoke_config(seed=19, artifacts_dir=str(tmp_path / "out"))
        report = SearchEngine(config).run()
        assert not report.ok
        assert report.failures
        failure = report.failures[0]
        # The shrinker made demonstrable progress: strictly smaller.
        assert failure.minimal.schedule_size() < failure.genome.schedule_size()
        # The minimal schedule still fails on its own.
        replay = ScheduleExecutor(failure.minimal).run()
        assert not replay.ok
        # ... and the artifact bundle carries the replayable genome.
        schedule_files = [p for p in failure.artifacts
                          if p.endswith("schedule.json")]
        assert schedule_files
        payload = replay_schedule(schedule_files[0])
        assert payload["ok"] is False


class TestPinnedSchedules:
    def test_utd_flush_clobber_regression_passes(self):
        # This schedule once wedged three of five sites behind orphaned
        # transfer locks (stale flushed utd claims clobbering
        # cut-delivered announcements) and split the replicas.  It must
        # pass now and forever.
        payload = evaluate_genome(PINNED["utd-flush-clobber"].genome)
        assert payload["ok"], payload["error"]

    def test_pinned_schedules_replay_deterministically(self):
        for pinned in PINNED.values():
            first = evaluate_genome(pinned.genome)
            second = evaluate_genome(pinned.genome)
            assert first["ok"], (pinned.name, first["error"])
            assert first["run_digest"] == second["run_digest"], pinned.name

    def test_pinned_schedules_are_audit_cases(self):
        for pinned in PINNED.values():
            assert f"schedule:{pinned.name}" in audit.CASES

    def test_audit_schedule_kind_executes(self):
        case_id = "schedule:utd-flush-clobber"
        flat_a = audit._flatten(audit.execute_variant(case_id, "a"))
        flat_b = audit._flatten(audit.execute_variant(case_id, "b"))
        assert flat_a == flat_b
        assert flat_a["ok"] is True

    def test_audit_sabotage_hook_perturbs_schedule_runs(self, monkeypatch):
        # Non-vacuity: the re-seeded second run must actually change the
        # run, or the audit could silently compare nothing.
        mutations.reseed_second_run(monkeypatch)
        outcome = audit.run_audit(["schedule:utd-flush-clobber"], jobs=1)
        assert [f.axis for f in outcome.failures] == ["determinism"]
