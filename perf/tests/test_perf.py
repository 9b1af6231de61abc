import cProfile
import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import catalog
import layers
import run
import workloads
from conftest import PERF, ROOT

RUN = [sys.executable, os.path.join(PERF, "run.py")]


def run_json(*args):
    done = subprocess.run(RUN + list(args), stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_benchmark_json_is_the_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == catalog.benchmark_json()


def test_names_are_well_formed_and_used_once():
    names = list(workloads.WORKLOADS) + list(catalog.END_TO_END) + list(catalog.PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for unit, *_ in list(catalog.END_TO_END.values()) + list(catalog.PER_LAYER.values()):
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
    assert all(bound <= 0.25 for *_, bound in catalog.END_TO_END.values())


def test_every_module_of_the_program_has_a_layer():
    unplaced = []
    for folder, _dirs, files in os.walk(layers.SRC_REPRO):
        for name in files:
            if name.endswith(".py"):
                relpath = os.path.relpath(os.path.join(folder, name), layers.SRC_REPRO)
                if layers.layer_of_module(relpath) is None:
                    unplaced.append(relpath)
    assert not unplaced, f"add these to LAYER_PATHS in perf/layers.py: {unplaced}"
    assert layers.layer_of_file(os.__file__) == "python"


def test_every_layer_path_exists():
    for paths in layers.LAYER_PATHS.values():
        for path in paths:
            assert os.path.exists(os.path.join(layers.SRC_REPRO, path)), path


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_miniature_episode_passes_its_checks(name):
    episode = workloads.run_episode(name, seed=5, size=1)
    assert episode.commits > 0 and episode.failed == 0
    assert len(episode.latencies) == episode.commits
    assert bool(episode.recoveries) == (name in ("recover_full", "cascade_clients"))


def test_self_shares_sum_to_one():
    profile = cProfile.Profile()
    episode = workloads.run_episode("recover_full", seed=5, size=1, profiler=profile)
    metrics, top = layers.attribute(profile, episode.commits)
    shares = [value for name, value in metrics.items() if name.endswith(".self_share")]
    assert len(shares) == len(layers.LAYERS)
    assert abs(sum(shares) - 1.0) < 1e-6
    assert len(top) == 15
    assert {f"{layer}.{kind}" for layer in layers.LAYERS
            for kind in ("self_share", "self_us_per_commit", "calls_per_commit")
            } | {"trace_overhead_share"} == set(catalog.TRACED)


@pytest.mark.parametrize("trace", [0, 1])
def test_one_run_prints_the_contract_row(trace):
    row = run_json("--workload", "hot_contention", "--seed", "3", "--seconds", "1",
                   "--trace", str(trace))
    assert set(row) == {"correct", "attempted", "failed", "metrics"}
    assert row["correct"] is True and row["attempted"] >= 1 and row["failed"] == 0
    table = catalog.PER_LAYER if trace else catalog.END_TO_END
    assert {name: entry["unit"] for name, entry in row["metrics"].items()} == {
        name: spec[0] for name, spec in table.items()}
    if not trace:
        assert all(entry["value"] > 0 for entry in row["metrics"].values())


def test_same_seed_repeats_the_sim_metrics():
    first, second = (run_json("--workload", "cascade_clients", "--seed", "4",
                              "--seconds", "1", "--trace", "0") for _ in range(2))
    for name, (_unit, axis, *_rest) in catalog.END_TO_END.items():
        if axis == "sim":
            assert first["metrics"][name] == second["metrics"][name], name


def test_unmet_await_is_a_failed_run_not_a_row():
    broken = (
        "import dataclasses, sys\n"
        f"sys.path.insert(0, {PERF!r})\n"
        "import run, workloads\n"
        "def script(cluster, load, size):\n"
        "    for site in ('S1', 'S2', 'S3'): cluster.crash(site)\n"
        "    workloads.await_active(cluster, cluster.universe, cluster.sim.now, 'majority down')\n"
        "spec = workloads.WORKLOADS['steady_oltp']\n"
        "workloads.WORKLOADS['steady_oltp'] = dataclasses.replace(spec, script=script)\n"
        "sys.exit(run.single_run('steady_oltp', 1, 1, 0))\n")
    done = subprocess.run([sys.executable, "-c", broken], capture_output=True, text=True)
    assert done.returncode != 0
    assert "BrokenRun" in done.stderr and "not ACTIVE" in done.stderr
    assert '"metrics"' not in done.stdout


def test_without_the_program_it_exits_nonzero_and_prints_no_row(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", "results", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "steady_oltp", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode != 0 and done.stdout == ""
    assert "src/repro not found" in done.stderr


def _result_set():
    rows = {}
    for name, (unit, axis, _better, _bound) in catalog.END_TO_END.items():
        rows[name] = {"unit": unit, "axis": axis, "values": [100.0, 101.0, 100.5],
                      "median": 100.5, "spread": 0.01}
    return {"workloads": {"steady_oltp": {"end_to_end": rows}}}


def _compare(tmp_path, a, b):
    paths = []
    for label, payload in (("a", a), ("b", b)):
        paths.append(str(tmp_path / f"{label}.json"))
        with open(paths[-1], "w") as handle:
            json.dump(payload, handle)
    return run.compare(*paths)


def test_compare_verdicts(tmp_path, capsys):
    base = _result_set()
    assert _compare(tmp_path, base, base) == 0

    slower = copy.deepcopy(base)
    slower["workloads"]["steady_oltp"]["end_to_end"]["commits_per_host_s"]["median"] = 60.0
    assert _compare(tmp_path, base, slower) == 1
    assert "commits_per_host_s" in capsys.readouterr().out.split("FAIL")[0].splitlines()[-1]

    faster = copy.deepcopy(base)
    faster["workloads"]["steady_oltp"]["end_to_end"]["commits_per_host_s"]["median"] = 130.0
    assert _compare(tmp_path, base, faster) == 0

    noisy = copy.deepcopy(base)
    noisy["workloads"]["steady_oltp"]["end_to_end"]["peak_rss_mb"]["spread"] = 0.5
    assert _compare(tmp_path, base, noisy) == 1
    assert "UNRESOLVED" in capsys.readouterr().out

    drifted = copy.deepcopy(base)
    drifted["workloads"]["steady_oltp"]["end_to_end"]["latency_p50_ms"]["values"] = [100.0]
    assert _compare(tmp_path, base, drifted) == 1
    assert "sim differs" in capsys.readouterr().out
