"""Integration tests for the parallel fleet and the determinism audit.

Three end-to-end guarantees:

* ``--jobs N`` is *invisible* in the output: the payloads of a
  2-worker chaos seed fleet — real campaign payloads that crossed the
  spawn boundary — equal the serial run's, key for key.
* ``repro audit`` passes on a pinned chaos regression case — the
  determinism claim every pinned result rests on actually holds.
* The auditor is not vacuous: with ``tests.mutations.reseed_second_run``
  injecting real nondeterminism (a perturbed seed on the second run),
  the audit must fail, name the diverging digests, write dump
  artifacts, and print a minimal repro command.
"""

import json

import pytest

from repro.audit import run_audit
from repro.bench import run_scenario
from repro.fleet import run_seed_fleet
from tests import mutations


def test_chaos_fleet_jobs_payload_identical_to_serial():
    """Chaos payloads carry no wall-clock field, so the whole payload
    must survive pickling and the task-order merge unchanged."""
    serial = run_seed_fleet("chaos", [3, 9], jobs=1, duration=1.0)
    fleet = run_seed_fleet("chaos", [3, 9], jobs=2, duration=1.0)
    assert json.dumps(fleet, sort_keys=True) == \
        json.dumps(serial, sort_keys=True)
    assert all(payload["ok"] for payload in fleet.values())


def test_storm_scenarios_refuse_the_batching_axis():
    """Silently running a storm with batching on as its own
    ``no_batching`` twin would make that audit comparison vacuous."""
    with pytest.raises(ValueError, match="no batching axis"):
        run_scenario("chaos", smoke=True, batching=False)


def test_audit_passes_on_pinned_chaos_case():
    outcome = run_audit(["chaos:vs:23"], jobs=1)
    assert outcome.ok
    assert outcome.passed == ["chaos:vs:23"]


def test_audit_fails_on_injected_nondeterminism(tmp_path):
    with pytest.MonkeyPatch.context() as mutated:
        mutations.reseed_second_run(mutated)
        outcome = run_audit(["chaos:vs:23"], jobs=1, dump_dir=str(tmp_path))
    assert not outcome.ok
    failure = outcome.failures[0]
    assert failure.axis == "determinism"
    assert failure.diverging_keys  # digest keys are named
    assert failure.repro == \
        "PYTHONPATH=src python -m repro audit --case chaos:vs:23"
    assert "chaos:vs:23" in failure.render()
    # Divergence dumps were written for both runs of the pair.
    dumps = sorted(p.name for p in tmp_path.iterdir())
    assert len(dumps) == 2
    assert "dumps:" in failure.detail
    # With the mutation lifted the same case is deterministic again.
    assert run_audit(["chaos:vs:23"], jobs=1).ok


#: What every campaign payload carries, whichever driver produced it.
PAYLOAD_CORE = {
    "epochs", "seed", "ok", "error", "fault_events", "wal_tears",
    "wal_corruptions", "metrics", "schedule_digest", "trace_digest",
    "trace_events",
}
CHURN_EXTRAS = {
    "sweeps", "rolling_restarts", "partition_cycles",
    "transfers_interrupted", "churn_leaves", "stabilize_starts",
    "availability", "availability_digest",
}


def test_campaign_payload_key_sets_are_pinned():
    """The fleet tables, ``repro diff`` and the schedule search index
    payloads by key across a process boundary; a silently dropped key
    would surface as a KeyError in some worker's consumer much later."""
    from repro.faults.campaign import campaign_for
    from repro.search.engine import evaluate_genome
    from repro.search.pinned import PINNED

    chaos = campaign_for("chaos", seed=3, duration=1.0).run().payload()
    endurance = campaign_for("endurance", seed=0,
                             duration=2.0).run().payload()
    schedule = campaign_for(
        "schedule", pinned="shatter-corrupt-churn").run().payload()
    assert set(chaos) == PAYLOAD_CORE | {"intensity"}
    assert set(endurance) == PAYLOAD_CORE | CHURN_EXTRAS
    assert set(schedule) == PAYLOAD_CORE | CHURN_EXTRAS
    evaluation = evaluate_genome(PINNED["shatter-corrupt-churn"].genome)
    assert set(evaluation) == {
        "ok", "error", "score", "damage", "uncovered", "windows",
        "signatures", "coverage", "run_digest", "virtual_time",
    }
