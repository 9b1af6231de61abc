"""Integration: the long-horizon endurance engine (repro.endurance).

Pinned-seed regression tests: one run per churn-scenario family, the
composed storm in both delivery modes, byte-stable payload digests, the
availability floor, the mutation self-test, and the audit/fleet/CLI
wiring.  Seeds and durations are pinned — a failure here is a behaviour
change, not flakiness.
"""

import pytest

from repro.endurance import EnduranceConfig, derive_genome, run_endurance
from repro.faults.campaign import dump_artifacts, repro_command
from repro.gcs.messages import Ack, Ordered, OrderedBatch
from repro.replication.node import NodeConfig, SiteStatus
from repro.search.executor import ScheduleExecutor
from tests import mutations
from tests.conftest import DropMessages, quick_cluster, run_load


class TestSegmentFamilies:
    """Each scenario family passes on its own under a pinned seed."""

    @pytest.mark.parametrize("family", ["rolling", "storm", "churn",
                                        "stabilize"])
    def test_single_family_endurance(self, family):
        report = run_endurance(0, duration=4.0, segments=(family,))
        assert report.ok, report.error
        assert report.sweeps >= 1

    def test_storm_interrupts_transfers(self):
        report = run_endurance(2, duration=6.0, segments=("storm",))
        assert report.ok, report.error
        assert report.partition_cycles >= 2

    def test_stabilize_corrupts_and_recovers(self):
        report = run_endurance(1, duration=6.0, segments=("stabilize",))
        assert report.ok, report.error
        assert report.stabilize_starts >= 1


class TestComposedStorm:
    @pytest.mark.parametrize("mode", ["vs", "evs"])
    def test_composed_run_passes_with_availability(self, mode):
        report = run_endurance(0, duration=6.0, mode=mode)
        assert report.ok, report.error
        assert report.sweeps >= 2
        # Availability never zero across the run: some serving bin in
        # every window is the checker's job; here assert the aggregate.
        avail = report.availability()
        assert avail["bins"] > 0
        assert avail["mean_rate"] > 0

    @pytest.mark.parametrize("mode", ["vs", "evs"])
    def test_payload_digests_are_byte_stable(self, mode):
        payloads = [run_endurance(0, duration=5.0, mode=mode).payload()
                    for _ in range(2)]
        assert payloads[0] == payloads[1]
        for key in ("schedule_digest", "trace_digest",
                    "availability_digest"):
            assert len(payloads[0][key]) == 64

    def test_composed_run_per_backend(self, backend):
        """Conformance: the churn schedule passes its sweeps and the
        availability floor on every reconfiguration backend."""
        report = run_endurance(0, duration=4.0, mode=backend)
        assert report.ok, report.error
        assert report.sweeps >= 1

    def test_distinct_seeds_distinct_schedules(self):
        a = run_endurance(0, duration=5.0).payload()
        b = run_endurance(1, duration=5.0).payload()
        assert a["schedule_digest"] != b["schedule_digest"]


class TestStrategyAndBackendCoverage:
    """Pinned churn runs over the transfer strategies the composed storm
    did not previously exercise, and over the logless backend."""

    @pytest.mark.parametrize("strategy", ["gcs_level", "log_filter"])
    def test_composed_storm_with_strategy(self, strategy):
        report = run_endurance(3, duration=5.0, strategy=strategy)
        assert report.ok, report.error
        assert report.sweeps >= 1

    def test_logless_backend_composed_run(self):
        report = run_endurance(0, duration=6.0, mode="logless")
        assert report.ok, report.error
        assert report.sweeps >= 2
        avail = report.availability()
        assert avail["bins"] > 0
        assert avail["mean_rate"] > 0

    def test_logless_payload_digests_are_byte_stable(self):
        payloads = [run_endurance(0, duration=5.0, mode="logless").payload()
                    for _ in range(2)]
        assert payloads[0] == payloads[1]

    def test_repro_command_names_backend_and_strategy(self):
        config = EnduranceConfig(seed=3, duration=5.0, mode="logless",
                                 strategy="log_filter")
        command = repro_command(config)
        assert "--mode logless" in command
        assert "--strategy log_filter" in command

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            EnduranceConfig(seed=0, mode="bogus").validate()


class TestDerivedGenome:
    @pytest.mark.parametrize("case_id", ["endurance:vs:0", "endurance:evs:0",
                                         "backend:logless:endurance"])
    def test_endurance_run_is_its_genome_replayed(self, case_id):
        """An endurance run and the schedule search's replay of its
        derived genome are the same run; only the verdict may differ
        (the search keeps its tighter availability floor)."""
        from repro import audit

        params = audit.CASES[case_id].params
        direct = ScheduleExecutor.from_params(**params)
        replayed = ScheduleExecutor(derive_genome(EnduranceConfig(**params)))
        assert replayed.config.availability_window < \
            direct.config.availability_window
        digests = []
        for engine in (direct, replayed):
            report = engine.run()
            collected = audit._collect(engine.cluster, tracer=report.tracer,
                                       schedule=report.schedule_lines())
            digests.append({**collected["digests"],
                            "availability": report.payload()[
                                "availability_digest"]})
        assert digests[0] == digests[1]
        assert set(digests[0]) >= {"state", "history", "trace", "schedule",
                                   "availability"}


class TestSabotage:
    def test_skipped_outcome_merge_fails_the_run(self, monkeypatch):
        """The mutation proves the sweeps have teeth: a site that
        silently drops the peer's outcome table must be caught — by
        ``check_decision_agreement``, at the first sweep after S1's
        stale table decides a replayed request differently.  (Seed 25
        bit until primary views began delivering on a majority of acks,
        seed 3 until a removal stopped waiting the 60 ms debounce, seed
        73 until transfer locks went back at capture, and seed 82 until
        the failure detector counted beacons; of seeds 0..159, only 136
        bites now.)"""
        clean = run_endurance(136, duration=8.0)
        assert clean.ok, clean.error
        mutations.skip_outcome_merge(monkeypatch, "S1")
        mutated = run_endurance(136, duration=8.0)
        assert not mutated.ok
        assert "quiescent sweep" in mutated.error
        assert "commit at one site but abort at S1" in mutated.error


class TestMajorityCreation:
    def test_flag_defaults_off(self):
        assert NodeConfig().creation_majority is False

    def test_majority_view_creates_when_enabled(self):
        """With creation_majority on, a majority creates when its reports
        provably hold every commit: S4 and S5 are down for good, the
        primary view {S1,S2,S3} shatters into three non-primary views,
        and when it re-forms every member still carries its lineage, all
        of it is present and its members were up to date in it — the §3
        all-sites wait for S4 and S5 is waived."""
        cluster = quick_cluster(
            n_sites=5, db_size=30, node_config=NodeConfig(creation_majority=True))
        cluster.crash("S4")
        cluster.crash("S5")
        run_load(cluster, duration=0.4)
        cluster.partition([["S1"], ["S2"], ["S3"]])
        cluster.run_for(0.5)
        assert all(cluster.nodes[s].status is SiteStatus.STALLED
                   for s in ("S1", "S2", "S3"))
        cluster.heal()
        ok = cluster.await_condition(
            lambda: all(cluster.nodes[s].status is SiteStatus.ACTIVE
                        for s in ("S1", "S2", "S3")),
            timeout=30,
        )
        assert ok, "majority view did not run the creation protocol"
        cluster.recover("S4")
        cluster.recover("S5")
        assert cluster.await_all_active(timeout=30)
        cluster.settle(0.5)
        cluster.check()

    def test_majority_after_a_total_failure_waits_for_the_committer(self):
        """S1 commits m while S2 and S3 only hold it — S1's batches and
        every ack towards them are cut, so m reaches them by S1's
        retransmission push, unacknowledged — and all three crash.  S2
        and S3 recover with creation_majority on: m is in S1's log alone,
        so they stay suspended (once they elected S2, and m was lost)
        until S1 is back and the all-sites round elects it."""
        cluster = quick_cluster(
            db_size=30, node_config=NodeConfig(creation_majority=True))
        run_load(cluster, duration=0.4)
        cut = cluster.add_injector(DropMessages({
            ("S1", "S2"): (OrderedBatch, Ack), ("S1", "S3"): (OrderedBatch, Ack),
            ("S2", "S3"): (Ack,), ("S3", "S2"): (Ack,)}))
        m = cluster.submit_via("S1", [], {"obj0": "m"})
        assert cluster.await_condition(lambda: m.committed, timeout=1, step=0.001)
        assert all(m.gid > cluster.nodes[s].last_processed_gid for s in ("S2", "S3"))
        for site in cluster.universe:
            cluster.crash(site)
        cluster.remove_injector(cut)
        cluster.run_for(0.3)
        cluster.recover("S2")
        cluster.recover("S3")
        cluster.run_for(2.0)
        assert all(cluster.nodes[s].status is SiteStatus.SUSPENDED
                   for s in ("S2", "S3"))
        cluster.recover("S1")
        assert cluster.await_all_active(timeout=30)
        cluster.settle(0.5)
        cluster.check()
        assert all(node.db.store.read("obj0") == ("m", m.gid)
                   for node in cluster.nodes.values())

    def test_inherited_lineage_claim_does_not_vouch(self):
        """L = {S1,S2,S3}, then S1, S2 and the joiner S4 form P.  S4
        commits m on the quorum {S4, S1} — S1 holds it undelivered (S4's
        acks to it are cut), S2 never receives it — and S1, S2, S4 crash.
        S1 and S2 restart, each through a non-primary view with S3, and
        inherit S3's claim L.  When {S1,S2,S3} forms, every claim is L,
        all of L is here and S3 was up to date in L, yet m is in S4's
        log alone: a restarted incarnation's inherited claim must not
        count, so the view stays suspended until S4 is back."""
        cluster = quick_cluster(
            n_sites=5, db_size=30, node_config=NodeConfig(creation_majority=True))
        cluster.crash("S4")
        cluster.crash("S5")
        run_load(cluster, duration=0.3)
        cluster.partition([["S1", "S2", "S4"], ["S3"], ["S5"]])
        cluster.recover("S4")
        assert cluster.await_all_active(sites=["S1", "S2", "S4"], timeout=10)
        cut = cluster.add_injector(DropMessages({
            ("S1", "S2"): (OrderedBatch, Ordered), ("S4", "S1"): (Ack,)}))
        m = cluster.submit_via("S4", [], {"obj0": "m"})
        assert cluster.await_condition(lambda: m.committed, timeout=1, step=0.001)
        assert all(m.gid > cluster.nodes[s].last_processed_gid for s in ("S1", "S2"))
        for site in ("S1", "S2", "S4"):
            cluster.crash(site)
        cluster.remove_injector(cut)
        cluster.run_for(0.3)
        cluster.partition([["S1", "S3"], ["S2"], ["S4"], ["S5"]])
        cluster.recover("S1")
        cluster.recover("S2")
        cluster.run_for(1.0)
        cluster.partition([["S1"], ["S2", "S3"], ["S4"], ["S5"]])
        cluster.run_for(1.0)
        cluster.heal()
        cluster.run_for(2.0)
        assert cluster.nodes["S1"].member.view.members == ("S1", "S2", "S3")
        assert all(cluster.nodes[s].status is SiteStatus.SUSPENDED
                   for s in ("S1", "S2", "S3"))
        cluster.recover("S4")
        cluster.recover("S5")
        assert cluster.await_all_active(timeout=30)
        cluster.settle(0.5)
        cluster.check()
        assert all(node.db.store.read("obj0") == ("m", m.gid)
                   for node in cluster.nodes.values())


class TestArtifacts:
    def test_dump_writes_the_full_evidence_set(self, tmp_path):
        engine = ScheduleExecutor.from_params(seed=0, duration=4.0)
        engine.run()
        written = dump_artifacts(engine, str(tmp_path))
        names = {path.rsplit("/", 1)[-1] for path in written}
        assert {"repro.txt", "schedule.txt", "availability.tsv",
                "trace.txt", "metrics.txt"} <= names
        assert {f"wal_S{i}.log" for i in range(1, 5)} <= names
        repro_text = (tmp_path / "repro.txt").read_text()
        assert "python -m repro chaos --endurance --seed 0" in repro_text
        wal_text = (tmp_path / "wal_S1.log").read_text()
        assert "durable prefix" in wal_text


class TestWiring:
    def test_audit_has_endurance_cases(self):
        from repro import audit

        endurance_ids = [cid for cid in audit.CASES
                         if audit.CASES[cid].kind == "endurance"]
        assert "endurance:vs:0" in endurance_ids
        assert "endurance:evs:0" in endurance_ids

    def test_audit_variant_replays_identically(self):
        from repro import audit

        a = audit.execute_variant("endurance:vs:0", "a", materials=False)
        b = audit.execute_variant("endurance:vs:0", "b", materials=False)
        assert a == b
        assert a["counters"]["ok"] is True

    def test_fleet_runs_seeds_in_order(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--endurance", "--seeds", "1,0",
                     "--duration", "4", "--segments", "rolling"]) == 0
        rows = [line.split()[:3] for line in capsys.readouterr().out.splitlines()
                if line.startswith("vs ")]
        assert rows == [["vs", "1", "PASS"], ["vs", "0", "PASS"]]

    def test_fleet_dumps_artifacts_on_failure(self, monkeypatch, tmp_path):
        from repro.cli import main
        from repro.fleet import FleetTask, run_fleet

        mutations.skip_outcome_merge(monkeypatch, "S1")
        task = FleetTask(key="136", kind="endurance",
                         params={"seed": 136, "duration": 8.0,
                                 "artifacts_dir": str(tmp_path)})
        payload = run_fleet([task])["136"]
        assert not payload["ok"]
        assert payload["artifacts"], "failed worker left no evidence"
        assert any(path.endswith("repro.txt")
                   for path in payload["artifacts"])
        # The bundle carries the derived genome: the search replays it
        # to the same failure.
        schedule = tmp_path / "seed136-vs" / "schedule.json"
        assert str(schedule) in payload["artifacts"]
        replay = f"python -m repro search --replay {schedule}"
        assert replay in (tmp_path / "seed136-vs" / "repro.txt").read_text()
        assert main(["search", "--replay", str(schedule)]) == 1


class TestCli:
    def test_endurance_single_run(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--endurance", "--seed", "0",
                     "--duration", "4"]) == 0
        out = capsys.readouterr().out
        assert "endurance seed=0: PASS" in out
        assert "availability timeline" in out
        assert "availability floor held" in out

    def test_endurance_failure_dumps_artifacts(self, monkeypatch, capsys,
                                               tmp_path):
        from repro.cli import main

        mutations.skip_outcome_merge(monkeypatch, "S1")
        code = main(["chaos", "--endurance", "--seed", "136",
                     "--duration", "8", "--artifacts-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "FAILURE" in err
        assert "reproduce: PYTHONPATH=src python -m repro chaos" in err
        assert (tmp_path / "seed136-vs" / "schedule.txt").exists()

    def test_endurance_fleet_table(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--endurance", "--seeds", "0,1",
                     "--duration", "4", "--segments", "rolling"]) == 0
        out = capsys.readouterr().out
        assert "schedule digest" in out
        assert "2 endurance runs" in out

    def test_bad_segment_rejected(self, capsys):
        from repro.cli import main

        assert main(["chaos", "--endurance", "--segments", "bogus"]) == 2
        assert "unknown segment" in capsys.readouterr().err
