"""Unit tests for the parallel run engine (repro.fleet).

The engine's contract is *determinism*: the merged payload of a fleet is
keyed by task and built in task-list order, never in completion order,
so ``--jobs N`` output is indistinguishable from serial output.  These
tests pin that contract with cheap probe tasks (which report the worker
pid and can sleep to force out-of-order completion), plus the seed-spec
parser and the sweep-grid plumbing the CLI builds on.
"""

import os

import pytest

from repro.fleet import (
    SWEEPS,
    FleetTask,
    parse_seed_spec,
    recovery_kwargs,
    run_fleet,
    run_sweep,
)


class TestParseSeedSpec:
    def test_single_seed(self):
        assert parse_seed_spec("7") == [7]

    def test_comma_list(self):
        assert parse_seed_spec("1,2,5") == [1, 2, 5]

    def test_inclusive_range(self):
        assert parse_seed_spec("0..3") == [0, 1, 2, 3]

    def test_mixed_terms_preserve_order(self):
        assert parse_seed_spec("4..5,1,9..9") == [4, 5, 1, 9]

    def test_whitespace_tolerated(self):
        assert parse_seed_spec(" 1 , 2 ") == [1, 2]

    @pytest.mark.parametrize("bad", ["", ",", "x", "1..x", "5..2", "1,,y"])
    def test_bad_specs_raise_value_error(self, bad):
        with pytest.raises(ValueError):
            parse_seed_spec(bad)


def probe(key, token, sleep=0.0):
    return FleetTask(key=key, kind="probe",
                     params={"token": token, "sleep": sleep})


class TestRunFleet:
    def test_serial_merge_in_task_order(self):
        tasks = [probe("c", 1), probe("a", 2), probe("b", 3)]
        result = run_fleet(tasks, jobs=1)
        assert list(result) == ["c", "a", "b"]
        assert [result[k]["token"] for k in result] == [1, 2, 3]
        # jobs<=1 runs inline: no worker process involved.
        assert all(r["pid"] == os.getpid() for r in result.values())

    def test_parallel_merge_ignores_completion_order(self):
        # The first task sleeps, so with 2 workers it *finishes* last;
        # the merged dictionary must still lead with it.
        tasks = [probe("slow", "s", sleep=0.3), probe("fast", "f")]
        result = run_fleet(tasks, jobs=2)
        assert list(result) == ["slow", "fast"]
        assert result["slow"]["token"] == "s"
        assert result["fast"]["token"] == "f"
        # jobs>1 really crossed a process boundary (spawn context).
        assert all(r["pid"] != os.getpid() for r in result.values())

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate fleet task keys"):
            run_fleet([probe("x", 1), probe("x", 2)], jobs=1)

    def test_unknown_kind_becomes_fleet_error_payload(self):
        result = run_fleet([FleetTask(key="k", kind="nope")], jobs=1)
        assert "unknown task kind" in result["k"]["fleet_error"]

    def test_crashing_runner_becomes_fleet_error_payload(self):
        # An audit task with a bogus case id raises inside the runner;
        # the fleet must capture it instead of aborting the whole run.
        task = FleetTask(key="bad", kind="audit",
                         params={"case_id": "no-such-case", "variant": "a"})
        result = run_fleet([task], jobs=1)
        assert "fleet_error" in result["bad"]
        assert "no-such-case" in result["bad"]["fleet_error"]


class TestSweepPlumbing:
    def test_studies_present_with_unique_cell_keys(self):
        assert set(SWEEPS) == {"db_size", "update_fraction", "throughput",
                               "rw_ratio", "E7"}
        for study in SWEEPS.values():
            keys = [key for key, _ in study.grid]
            assert len(set(keys)) == len(keys)

    def test_cell_selector_finds_params(self):
        params = SWEEPS["db_size"].cell(strategy="full", db_size=1000)
        assert params["downtime"] == 0.5 and params["seed"] == 41
        with pytest.raises(KeyError):
            SWEEPS["db_size"].cell(strategy="full", db_size=12345)

    def test_recovery_kwargs_expands_node_config(self):
        from repro.replication.node import NodeConfig

        kwargs = recovery_kwargs({"strategy": "full",
                                  "node_config": {"transfer_obj_time": 0.001}})
        assert isinstance(kwargs["node_config"], NodeConfig)
        assert kwargs["node_config"].transfer_obj_time == 0.001
        assert recovery_kwargs({"strategy": "full"}) == {"strategy": "full"}

    def test_unknown_study_lists_choices(self):
        with pytest.raises(ValueError, match="valid choices"):
            run_sweep("no_such_study")
