"""Integration: the logless reconfiguration backend and its registry.

The logless backend (docs/RECONFIG_BACKENDS.md) keeps the member
configuration as *replicated state*: a versioned ``ReplicatedConfig``
object updated by ``ConfigChange`` messages in the uniform total-order
stream, applied by a version compare-and-swap — no membership entries
in the database log.  These tests pin its observable semantics: the
CAS apply rule, bootstrap/creation/repair proposals, announcement-free
operation, flush-state re-learning, and the audit/sweep wiring.
"""

import pytest

from repro import ClusterBuilder
from repro.gcs.evs import EnrichedGroupMember
from repro.gcs.member import GroupMember
from repro.reconfig import backends
from repro.reconfig.backends import ALL_BACKEND_NAMES, backend_by_name
from repro.reconfig.evs_manager import EvsReconfigManager
from repro.reconfig.logless import LoglessReconfigManager, ReplicatedConfig
from repro.reconfig.manager import VsReconfigManager
from repro.replication.messages import ConfigChange
from repro.replication.node import SiteStatus
from tests.conftest import quick_cluster, run_load

pytestmark = pytest.mark.usefixtures("activation_monitor")


class TestRegistry:
    def test_registry_names_are_pinned(self):
        assert ALL_BACKEND_NAMES == ("evs", "logless", "vs")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            backend_by_name("paxos")

    def test_explicit_backend_overrides_mode(self):
        """Nothing overrides ``mode`` any more: the retired second
        selector is rejected, not resolved against it."""
        with pytest.raises(TypeError, match="backend"):
            ClusterBuilder(mode="evs", backend="logless")
        assert not hasattr(backends, "resolve_backend")

    def test_mode_names_the_backend_when_unset(self):
        assert ClusterBuilder().mode == "vs"
        for name in ALL_BACKEND_NAMES:
            cluster = ClusterBuilder(mode=name).build()
            assert cluster.nodes["S1"].reconfig.backend_name == name

    def test_gcs_modes(self):
        # logless replaces the reconfiguration layer, not the GCS: it
        # runs on the plain virtual-synchrony group member, like vs.
        handles = {name: type(ClusterBuilder(mode=name).build().nodes["S1"].gcs)
                   for name in ALL_BACKEND_NAMES}
        assert handles == {"vs": GroupMember, "logless": GroupMember,
                           "evs": EnrichedGroupMember}

    def test_cluster_gets_the_right_manager(self):
        expected = {"vs": VsReconfigManager, "evs": EvsReconfigManager,
                    "logless": LoglessReconfigManager}
        for name, manager_type in expected.items():
            cluster = quick_cluster(mode=name)
            for node in cluster.nodes.values():
                assert type(node.reconfig) is manager_type
                assert node.reconfig.backend_name == name


class TestReplicatedConfig:
    def test_bootstrap_installs_full_membership(self):
        cluster = quick_cluster(mode="logless")
        configs = {site: node.reconfig.config
                   for site, node in cluster.nodes.items()}
        assert len({(c.version, c.members) for c in configs.values()}) == 1
        config = configs["S1"]
        assert config.version >= 1
        assert config.members == tuple(sorted(cluster.universe))

    def test_crash_recover_cycle_advances_config(self):
        cluster = quick_cluster(mode="logless", db_size=30)
        v0 = cluster.nodes["S1"].reconfig.config.version
        cluster.crash("S3")
        run_load(cluster, duration=0.4)
        # Coordinator repair removed the crashed site.
        assert "S3" not in cluster.nodes["S1"].reconfig.config.members
        cluster.recover("S3")
        assert cluster.await_all_active(timeout=30)
        cluster.settle(0.5)
        configs = {(n.reconfig.config.version, n.reconfig.config.members)
                   for n in cluster.nodes.values()}
        assert len(configs) == 1, "sites disagree on the config"
        version, members = next(iter(configs))
        # At least remove + re-add beyond the bootstrap version.
        assert version >= v0 + 2
        assert members == tuple(sorted(cluster.universe))
        cluster.check()

    def test_stale_proposal_is_discarded_by_the_cas(self):
        cluster = quick_cluster(mode="logless")
        manager = cluster.nodes["S1"].reconfig
        before = manager.config
        conflicts = manager.config_conflicts
        manager.on_config_message(
            ConfigChange(proposer="S9", base_version=before.version + 5,
                         add=("S9",)),
            gseq=10_000)
        assert manager.config == before
        assert manager.config_conflicts == conflicts + 1

    def test_replace_installs_membership_wholesale(self):
        # Unit-level on a throwaway cluster: the creation path's
        # replace-proposal semantics.
        cluster = quick_cluster(mode="logless")
        manager = cluster.nodes["S1"].reconfig
        version = manager.config.version
        manager.on_config_message(
            ConfigChange(proposer="S1", base_version=version,
                         replace=("S1", "S2"), reason="creation"),
            gseq=10_001)
        assert manager.config == ReplicatedConfig(
            version=version + 1, members=("S1", "S2"))

    def test_no_up_to_date_announcements_multicast(self):
        """The backend's whole point: membership travels as ConfigChange
        state updates, never as UpToDateAnnouncement log entries."""
        cluster = quick_cluster(mode="logless", db_size=30)
        cluster.crash("S3")
        run_load(cluster, duration=0.3)
        cluster.recover("S3")
        assert cluster.await_all_active(timeout=30)
        cluster.settle(0.5)
        for node in cluster.nodes.values():
            manager = node.reconfig
            # Every "announcement" the counters report is a config
            # proposal (the counter is kept for cross-backend metrics).
            assert manager.announcements_sent == manager.config_proposals_sent
            assert manager.config_changes_applied >= 1

    def test_flush_extra_carries_the_config(self):
        cluster = quick_cluster(mode="logless")
        extra = cluster.nodes["S1"].reconfig.flush_extra()
        assert extra["config_version"] >= 1
        assert tuple(extra["config_members"]) == tuple(
            sorted(cluster.universe))
        state = cluster.nodes["S1"].flush_state()
        assert state["repl"]["config_version"] == extra["config_version"]

    def test_vs_and_evs_flush_extra_stays_empty(self):
        # Byte-identity guarantee for the pre-existing backends: the
        # refactor's hooks must add nothing to their flush state.
        for name in ("vs", "evs"):
            cluster = quick_cluster(mode=name)
            assert cluster.nodes["S1"].reconfig.flush_extra() == {}

    def test_total_failure_relearns_config_from_flush_state(self):
        cluster = quick_cluster(mode="logless", db_size=30,
                                strategy="version_check")
        run_load(cluster, duration=0.4)
        for site in ("S3", "S1", "S2"):
            cluster.crash(site)
            cluster.run_for(0.2)
        for site in ("S2", "S3", "S1"):
            cluster.recover(site)
        assert cluster.await_all_active(timeout=30)
        cluster.settle(0.5)
        configs = {(n.reconfig.config.version, n.reconfig.config.members)
                   for n in cluster.nodes.values()}
        assert len(configs) == 1
        _, members = next(iter(configs))
        assert members == tuple(sorted(cluster.universe))
        cluster.check()

    def test_repropose_limit_validated(self):
        from repro.replication.node import NodeConfig

        with pytest.raises(ValueError, match="logless_repropose_limit"):
            NodeConfig(logless_repropose_limit=0).validate()

    def test_repropose_budget_is_per_join_attempt(self):
        """A site that re-joins without crashing (partition churn) gets
        the whole ``logless_repropose_limit`` for every join attempt:
        attempts it made in earlier joins do not stop it re-proposing
        after a lost compare-and-swap race."""
        from repro.replication.node import NodeConfig

        limit = 2
        cluster = quick_cluster(
            mode="logless",
            node_config=NodeConfig(logless_repropose_limit=limit))
        node = cluster.nodes["S3"]
        manager = node.reconfig
        node.up_to_date = False
        node._set_status(SiteStatus.RECOVERING, "re-joining after a partition")
        manager.caught_up = True
        for attempt in range(limit + 1):
            # The view change that re-admits the joiner voids the
            # previous attempt's announcement; the drained replay then
            # announces again: one add-self proposal.
            node.on_view_change(node.member.view, {})
            manager._on_caught_up()
            sent = manager.config_proposals_sent
            # The proposal loses the race: a competing change is
            # delivered first and moves the version past its base.
            manager.on_config_message(
                ConfigChange(proposer="S1",
                             base_version=manager.config.version),
                gseq=1000 + attempt)
            assert manager.config_proposals_sent == sent + 1, (
                f"join attempt {attempt} did not re-propose")


class TestAuditAndSweepWiring:
    def test_logless_audit_cases_registered(self):
        from repro import audit

        for case_id in ("backend:logless:chaos", "backend:logless:endurance"):
            assert case_id in audit.CASES
            assert audit.CASES[case_id].params["mode"] == "logless"

    def test_logless_audit_case_replays_identically(self):
        from repro import audit

        a = audit.execute_variant("backend:logless:chaos", "a",
                                  materials=False)
        b = audit.execute_variant("backend:logless:chaos", "b",
                                  materials=False)
        assert a == b
        assert a["counters"]["ok"] is True

    def test_sabotage_makes_the_logless_audit_fail(self, monkeypatch,
                                                   tmp_path):
        """Non-vacuity: the audit must be able to fail on this backend
        (a comparator that cannot fail audits nothing)."""
        from repro import audit
        from tests import mutations

        mutations.reseed_second_run(monkeypatch)
        outcome = audit.run_audit(["backend:logless:chaos"], jobs=1,
                                  dump_dir=str(tmp_path))
        assert not outcome.ok
        assert any(f.case_id == "backend:logless:chaos"
                   for f in outcome.failures)

    def test_e7_study_covers_all_backends_and_storms(self):
        from repro.fleet import SWEEPS

        study = SWEEPS["E7"]
        cells = {key for key, _ in study.grid}
        assert cells == {f"{backend}/storm={storm}"
                         for backend in ALL_BACKEND_NAMES
                         for storm in ("none", "partition")}
        assert "extra.abort_rate" in study.columns
        for _, params in study.grid:
            # Identical pinned storm parameters per cell: only the
            # backend differs, which is what makes E7 a fair head-to-head.
            assert params["seed"] == 23
            assert params["n_sites"] == 5

    def test_e7_partition_cell_runs(self):
        from repro.scenarios import run_recovery_experiment

        report = run_recovery_experiment(
            mode="logless", fault_storm="partition", n_sites=5,
            db_size=120, downtime=0.6, arrival_rate=100.0, seed=23)
        assert report.completed
        assert report.mode == "logless"
        assert 0.0 <= report.extra["abort_rate"] <= 1.0

    def test_fault_storm_requires_enough_sites(self):
        from repro.scenarios import run_recovery_experiment

        with pytest.raises(ValueError, match="n_sites >= 5"):
            run_recovery_experiment(fault_storm="partition", n_sites=3)

    def test_differential_runner_gates_on_invariants(self):
        from repro.differential import run_differential

        report = run_differential([9], backends=("evs", "logless"),
                                  duration=1.0, clients=4)
        assert report.ok, report.failures
        rendered = report.render()
        assert "PASS" in rendered and "FAIL" not in rendered
        for backend in ("evs", "logless"):
            assert report.metric(9, backend, "commits") > 0

    def test_differential_failure_names_evidence_and_repro(
            self, monkeypatch, tmp_path):
        """A failing cell dumps the evidence; the report hands back its
        paths and a command carrying the cell's real shape (clients 6,
        not the CLI's 0).  The cells fail under the *no dedup* mutation,
        which reaches them because ``jobs=1`` runs inline."""
        from repro.differential import run_differential
        from tests import mutations

        mutations.no_dedup(monkeypatch)
        report = run_differential([23], backends=("evs", "logless"),
                                  duration=3.0, artifacts_dir=str(tmp_path))
        assert not report.ok
        first = report.first_failure()
        assert first["repro"].endswith(
            "chaos --seed 23 --mode evs --clients 6")
        bundle = tmp_path / "chaos-seed23-evs"
        assert str(bundle / "repro.txt") in first["artifacts"]
        assert first["repro"] in (bundle / "repro.txt").read_text()

    def test_differential_runner_rejects_bad_input(self):
        from repro.differential import run_differential

        with pytest.raises(ValueError, match="unknown backend"):
            run_differential([1], backends=("bogus",))
        with pytest.raises(ValueError, match="kind"):
            run_differential([1], kind="bench")
