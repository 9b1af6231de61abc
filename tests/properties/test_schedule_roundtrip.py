"""Property tests for the search genome: serialize -> deserialize ->
replay must be the identity, all the way down to the run digest.

Two tiers, as in the other property modules: cheap structural
round-trips over many generated genomes, and a couple of full replays
(each one is a whole simulated cluster run) asserting the digest-level
claim the corpus and the minimal-repro bundles rely on."""

import json
import random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.search.engine import evaluate_genome
from repro.search.genome import (
    ScheduleGenome,
    SearchSpace,
    mutate,
    random_genome,
)


def genomes(draw_seed: int, steps: int) -> ScheduleGenome:
    """One deterministic genome: generate, then walk some mutations —
    covers the generator AND every mutation operator's output shape."""
    rng = random.Random(draw_seed)
    space = SearchSpace(n_sites=5)
    genome = random_genome(rng, space)
    for _ in range(steps):
        genome = mutate(rng, genome, space)
    return genome


# ----------------------------------------------------------------------
# Structural round-trip (cheap, many examples)
# ----------------------------------------------------------------------
@given(draw_seed=st.integers(0, 100_000), steps=st.integers(0, 12))
@settings(deadline=None, max_examples=150)
def test_json_round_trip_is_identity(draw_seed, steps):
    genome = genomes(draw_seed, steps)
    again = ScheduleGenome.loads(genome.dumps())
    assert again == genome
    assert again.digest() == genome.digest()
    # Canonical form: dumps is stable under a re-dump of its parse.
    assert json.loads(genome.dumps()) == again.to_dict()


@given(draw_seed=st.integers(0, 100_000), steps=st.integers(0, 12))
@settings(deadline=None, max_examples=150)
def test_round_trip_preserves_derived_metrics(draw_seed, steps):
    genome = genomes(draw_seed, steps)
    again = ScheduleGenome.from_dict(genome.to_dict())
    assert again.schedule_size() == genome.schedule_size()
    assert again.total_duration() == genome.total_duration()


# ----------------------------------------------------------------------
# Keys the schedule format does not have fail loudly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("load", [
    ScheduleGenome.from_dict,
    lambda payload: ScheduleGenome.loads(json.dumps(payload)),
], ids=["from_dict", "loads"])
def test_retired_backend_key_is_rejected_pointing_at_mode(load):
    """A schedule written before ``mode`` took the backend name still
    carries the second selector: refuse it, do not guess."""
    payload = {**genomes(7, 0).to_dict(), "backend": "logless"}
    with pytest.raises(ValueError) as caught:
        load(payload)
    message = str(caught.value)
    assert "backend" in message and "'mode' now takes the backend name" in message
    assert all(key in message for key in genomes(7, 0).to_dict())


@pytest.mark.parametrize("key", ["max_down", "respect_creation_majority"])
def test_retired_policy_keys_are_rejected_naming_the_majority_rule(key):
    payload = {**genomes(7, 0).to_dict(), key: None}
    with pytest.raises(ValueError, match=rf"unknown schedule key\(s\) {key};"
                                         r".*are retired: the concurrency "
                                         r"limit is the majority rule"):
        ScheduleGenome.from_dict(payload)


@pytest.mark.parametrize("gene,field", [
    ({"kind": "quiet", "duration_s": -5.0}, "duration_s"),
    ({"kind": "partition", "minority": [], "hold": 0.1}, "minority"),
    ({"kind": "crash", "victims": [1], "downtime": float("nan")}, "downtime"),
    ({"kind": "crash", "victims": [1], "downtime": 0.1,
      "restrike": float("inf")}, "restrike"),
    ({"kind": "restart", "victims": [0, -1], "hold": 0.1}, "victims"),
    ({"kind": "corrupt", "victim": -2, "op": "lost_suffix",
      "downtime": 0.1}, "victim"),
])
def test_malformed_gene_is_a_value_error_naming_kind_and_field(gene, field):
    """A hand-edited schedule with a negative time or an empty victim
    list must not load and run to a vacuous PASS."""
    payload = {**genomes(7, 0).to_dict(), "segments": [gene]}
    with pytest.raises(ValueError, match=rf"^{gene['kind']} gene: {field} "):
        ScheduleGenome.from_dict(payload)


def test_unknown_key_is_a_value_error_naming_it_and_the_valid_keys():
    payload = {**genomes(7, 0).to_dict(), "sites": 5}
    with pytest.raises(ValueError, match=r"unknown schedule key\(s\) sites; "
                                         r"valid: seed, n_sites, mode, "):
        ScheduleGenome.from_dict(payload)


# ----------------------------------------------------------------------
# Replay round-trip (expensive, few examples)
# ----------------------------------------------------------------------
@given(draw_seed=st.integers(0, 1_000))
@settings(deadline=None, max_examples=3,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_deserialized_genome_replays_to_identical_run_digest(draw_seed):
    genome = genomes(draw_seed, 2)
    direct = evaluate_genome(genome)
    replayed = evaluate_genome(ScheduleGenome.loads(genome.dumps()))
    assert replayed["run_digest"] == direct["run_digest"]
    assert replayed["signatures"] == direct["signatures"]
    assert replayed["coverage"] == direct["coverage"]
    assert replayed["windows"] == direct["windows"]
