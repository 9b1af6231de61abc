"""Unit + protocol tests for the primary-view policies (section 2.1)."""

import pytest

from repro.gcs.config import GCSConfig
from repro.gcs.primary import PrimaryLineage, is_primary, most_recent
from tests.conftest import make_group


class TestPolicies:
    def test_registry(self):
        lineage = PrimaryLineage(1, ("c", "d", "e"))
        assert not is_primary("static", ("c", "d"), 5, [lineage])
        assert is_primary("dynamic_linear", ("c", "d"), 5, [lineage])
        with pytest.raises(ValueError):
            is_primary("quorum_of_quorums", ("a", "b"), 3, [])

    def test_static_majority(self):
        assert is_primary("static", ("a", "b"), 3, [])
        assert not is_primary("static", ("a", "b"), 4, [])

    def test_dynamic_bootstrap_uses_universe(self):
        assert is_primary("dynamic_linear", ("a", "b", "c"), 5, [None, None])
        assert not is_primary("dynamic_linear", ("a", "b"), 5, [None])

    def test_dynamic_majority_of_previous_primary(self):
        lineage = PrimaryLineage(3, ("c", "d", "e"))
        # 2 of the 3 previous-primary members: primary even though 2 of 5.
        assert is_primary("dynamic_linear", ("c", "d"), 5, [lineage])
        assert not is_primary("dynamic_linear", ("e",), 5, [lineage])
        # Outsiders do not count toward the overlap.
        assert not is_primary("dynamic_linear", ("a", "b", "e"), 5, [lineage])

    def test_most_recent_picks_highest_generation(self):
        old = PrimaryLineage(1, ("a",))
        new = PrimaryLineage(2, ("b",))
        assert most_recent([old, None, new]) == new
        assert most_recent([None, None]) is None


class TestDynamicPolicyInTheGroup:
    def test_shrinking_primary_chain(self):
        """primary {S1..S5} -> {S3,S4,S5} -> {S3,S4}: under the dynamic
        policy the last view is still primary (majority of the previous
        primary); under the static policy it is not."""
        outcomes = {}
        for policy in ("static", "dynamic_linear"):
            sim, net, members, _ = make_group(
                5, seed=6, config=GCSConfig(primary_policy=policy)
            )
            sim.run(until=2.0)
            net.set_partitions([{"S3", "S4", "S5"}, {"S1", "S2"}])
            sim.run(until=5.0)
            assert members["S3"].is_primary()
            net.set_partitions([{"S3", "S4"}, {"S5"}, {"S1", "S2"}])
            sim.run(until=8.0)
            outcomes[policy] = members["S3"].is_primary()
        assert outcomes == {"static": False, "dynamic_linear": True}

    def test_dynamic_minority_side_never_primary(self):
        sim, net, members, _ = make_group(
            5, seed=6, config=GCSConfig(primary_policy="dynamic_linear")
        )
        sim.run(until=2.0)
        net.set_partitions([{"S3", "S4", "S5"}, {"S1", "S2"}])
        sim.run(until=5.0)
        assert not members["S1"].is_primary()
        net.set_partitions([{"S3", "S4"}, {"S5"}, {"S1", "S2"}])
        sim.run(until=8.0)
        assert not members["S1"].is_primary()
        assert not members["S5"].is_primary()

    def test_lineage_survives_merges(self):
        sim, net, members, _ = make_group(
            5, seed=6, config=GCSConfig(primary_policy="dynamic_linear")
        )
        sim.run(until=2.0)
        net.set_partitions([{"S3", "S4", "S5"}, {"S1", "S2"}])
        sim.run(until=5.0)
        net.heal()
        sim.run(until=8.0)
        assert all(m.is_primary() for m in members.values())
        generations = {m.lineage.generation for m in members.values()}
        assert len(generations) == 1

    def test_static_remains_default(self):
        sim, _, members, _ = make_group(3, seed=1)
        assert members["S1"].config.primary_policy == "static"
