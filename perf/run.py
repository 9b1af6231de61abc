#!/usr/bin/env python3
"""The repo's benchmark.  Three ways to call it:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One run, the form the benchmark contract (BENCHMARK.json) drives.
    Last stdout line: ``{"correct", "attempted", "failed", "metrics"}``
    with the end-to-end metrics (trace 0) or the per-layer ones (trace 1).

``run.py [--workload W ...] [--repeats N] [--seed N] [--trace 0]``
    The suite: every workload, N untraced runs each (fresh interpreter
    per run, round-robin, one at a time) plus one traced run, the tables,
    and ``perf/results/latest.json``.  ``--trace 0`` skips the traced runs.

``run.py --compare A.json B.json``
    Two suite result files side by side, one verdict per row.

See perf/README.md.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # Set iteration order, and with it the exact call counts of a traced
    # run, depends on the string hash seed: pin it by starting over.
    os.execve(sys.executable, [sys.executable] + sys.argv,
              {**os.environ, "PYTHONHASHSEED": "0"})

PERF = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(PERF), "src")
sys.path[:0] = [PERF, SRC]
try:
    import catalog
    import layers
    import workloads
    from repro.workload import summarize_latencies
except ModuleNotFoundError as error:
    if error.name != "repro":
        raise
    sys.exit(f"perf/run.py: {SRC}/repro not found; run from a checkout of the repo")

RESULTS = os.path.join(PERF, "results", "latest.json")
SETUP_PROBES = 9
#: Set-up as a user pays it: a cold interpreter, the imports, the
#: cluster build and start, until every site is ACTIVE.
_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
          "workloads.build_and_start(sys.argv[3], int(sys.argv[4]))")


def episode_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def measure_setup(workload: str, seed: int) -> float:
    samples = []
    for index in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", _PROBE, PERF, SRC, workload,
                        str(episode_seed(seed, index))], check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def end_to_end(pinned, extra, setup_s: float) -> dict:
    """The end-to-end metrics of a run.  Sim metrics pool the pinned
    episodes only, so they are a pure function of (seed, seconds).  The
    host rate is that of the fastest episode measured: this machine's
    noise only ever slows an episode, and comes in bursts that can cover
    most of a run (perf/README.md, "Steadiness")."""
    latency = summarize_latencies([x for e in pinned for x in e.latencies])
    return {
        "setup_s": setup_s,
        "commits_per_host_s": max(e.commits / e.host_s for e in pinned + extra),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "commits_per_sim_s": sum(e.commits for e in pinned) / sum(e.sim_s for e in pinned),
        "latency_p50_ms": latency.p50 * 1e3,
        "latency_p99_ms": latency.p99 * 1e3,
        "first_attempt_commit_share":
            sum(e.first_attempt_commits for e in pinned) / sum(e.attempted for e in pinned),
    }


def counters(episodes) -> dict:
    """Source-1 layer metrics: exact counts of the episodes, per commit."""
    def total(key: str) -> float:
        return sum(e.counters.get(key, 0) for e in episodes)

    commits = sum(e.commits for e in episodes)
    attempted = sum(e.attempted for e in episodes)
    decided = total("txn.commits") + total("txn.aborts")
    recoveries = sorted(r for e in episodes for r in e.recoveries)
    per_recovery = max(len(recoveries), 1)
    check_host_s = sum(e.check_host_s for e in episodes)
    return {
        "sim.events_per_commit": total("sim.events_processed") / commits,
        "net.msgs_per_commit": total("net.messages_delivered") / commits,
        "gcs.total_order.batches_per_commit": total("to.batches_sent") / commits,
        "gcs.membership.views_installed": total("gcs.views_installed"),
        "db.locks.grants_per_commit": total("locks.grants") / commits,
        "db.locks.conflicts_per_commit": total("locks.conflicts") / commits,
        "db.locks.wait_sim_s": total("locks.wait_time_total"),
        "db.locks.queue_depth_peak": max(e.counters["locks.queue_depth_peak"]
                                         for e in episodes),
        "db.wal.records_per_commit": total("wal.records_appended") / commits,
        "db.wal.fsyncs_per_commit": total("wal.fsyncs") / commits,
        "replication.node.abort_share": total("txn.aborts") / decided,
        "reconfig.transfer_mb_per_recovery": total("xfer.bytes_sent") / 1e6 / per_recovery,
        "reconfig.objects_per_recovery": total("xfer.objects_sent") / per_recovery,
        "reconfig.replayed_per_recovery": total("xfer.replayed_transactions") / per_recovery,
        "reconfig.retransmissions": total("xfer.retransmissions"),
        "reconfig.failovers": total("xfer.failovers"),
        "reconfig.recovery_p50_sim_s": statistics.median(recoveries) if recoveries else 0.0,
        "reconfig.recovery_max_sim_s": recoveries[-1] if recoveries else 0.0,
        "reconfig.unavailable_max_sim_s": max(e.unavailable_max_s for e in episodes),
        "client.session.failovers": total("client.failovers"),
        "client.session.attempts_per_request":
            (total("client.attempts") or attempted) / attempted,
        "client.session.duplicates_suppressed": total("client.duplicates_suppressed"),
        "checkers.check_host_s": check_host_s,
        "checkers.us_per_history_event":
            check_host_s * 1e6 / sum(e.history_events for e in episodes),
    }


def single_run(workload: str, seed: int, seconds: int, trace: int) -> int:
    spec = workloads.WORKLOADS[workload]
    pinned_count = max(2, round(seconds / spec.episode_host_s))
    detail = {"pinned_episodes": pinned_count}
    if trace:
        # A quarter of the pinned episodes, each once plain and once under
        # cProfile: the same work, so the ratio is the tracing overhead.
        profile = cProfile.Profile()
        plain, traced = [], []
        for index in range(max(2, pinned_count // 4)):
            plain.append(workloads.run_episode(workload, episode_seed(seed, index)))
            traced.append(workloads.run_episode(workload, episode_seed(seed, index),
                                                profiler=profile))
            workloads.require(plain[-1].counters == traced[-1].counters,
                              "the traced episode did not repeat the plain one")
        episodes = traced
        metrics = counters(traced)
        layer_metrics, detail["top_functions"] = layers.attribute(
            profile, sum(e.commits for e in traced))
        metrics.update(layer_metrics)
        metrics["trace_overhead_share"] = (
            sum(e.host_s for e in traced) / sum(e.host_s for e in plain) - 1)
        metrics.update(layers.run_drivers(seed))
        table = catalog.PER_LAYER
    else:
        setup_s = measure_setup(workload, seed)
        episodes = [workloads.run_episode(workload, episode_seed(seed, index))
                    for index in range(pinned_count)]
        # Top up to the asked-for seconds of measured window (a faster
        # machine or program finishes the pinned episodes early); the
        # extra episodes feed only the host rate.
        extra = []
        measured = sum(e.host_s for e in episodes)
        while measured < seconds:
            extra.append(workloads.run_episode(
                workload, episode_seed(seed, pinned_count + len(extra))))
            measured += extra[-1].host_s
        metrics = end_to_end(episodes, extra, setup_s)
        detail["extra_episodes"] = len(extra)
        detail["episode_commits_per_host_s"] = [e.commits / e.host_s
                                                for e in episodes + extra]
        table = catalog.END_TO_END
    workloads.require(set(metrics) == set(table),
                      f"metrics differ from catalog: {set(metrics) ^ set(table)}")
    print(json.dumps({"detail": detail}))
    # Reaching this line means every await was met and every checker
    # passed on every episode; anything else raised and printed no row.
    print(json.dumps({
        "correct": True,
        "attempted": sum(e.attempted for e in episodes),
        "failed": sum(e.failed for e in episodes),
        "metrics": {name: {"value": metrics[name], "unit": table[name][0]}
                    for name in table},
    }))
    return 0


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, seconds: int, trace: int):
    """One run in a fresh interpreter; returns (result, detail)."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"perf/run.py: {workload} (trace {trace}) failed with exit code "
                 f"{done.returncode}; no metrics reported")
    detail, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return result, detail["detail"]


def spread(values) -> float:
    """Distance between the quartiles as a share of the median, the
    spread the benchmark contract judges steadiness by."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def suite(names, seed: int, repeats: int, traced: bool) -> int:
    seconds = catalog.RUN_SECONDS
    runs = {name: [] for name in names}
    for repeat in range(repeats):  # round-robin: a noisy minute hits every workload
        for name in names:
            print(f"[{repeat + 1}/{repeats}] {name}", file=sys.stderr, flush=True)
            runs[name].append(run_child(name, seed, seconds, 0)[0])
    results = {}
    for name in names:
        end_to_end_rows = {}
        for metric, (unit, axis, _better, _bound) in catalog.END_TO_END.items():
            values = [run["metrics"][metric]["value"] for run in runs[name]]
            if axis == "sim" and len(set(values)) != 1:
                sys.exit(f"perf/run.py: {name} {metric} is on the sim axis but differs "
                         f"between repeats of seed {seed}: {values}")
            end_to_end_rows[metric] = {
                "unit": unit, "axis": axis, "values": values,
                "median": statistics.median(values), "spread": spread(values)}
        results[name] = {"attempted": runs[name][0]["attempted"],
                         "failed": runs[name][0]["failed"],
                         "end_to_end": end_to_end_rows}
        if traced:
            print(f"[traced] {name}", file=sys.stderr, flush=True)
            run, detail = run_child(name, seed, seconds, 1)
            results[name]["per_layer"] = {
                metric: {"unit": entry["unit"], "value": entry["value"],
                         "axis": catalog.PER_LAYER[metric][1],
                         "source": catalog.SOURCE[metric]}
                for metric, entry in run["metrics"].items()}
            results[name]["top_functions"] = detail["top_functions"]
    payload = {
        "seed": seed, "run_seconds": seconds, "repeats": repeats,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "workloads": results,
        "claim": None,
    }
    os.makedirs(os.path.dirname(RESULTS), exist_ok=True)
    with open(RESULTS, "w") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    print_suite(payload)
    print(f"\nwrote {os.path.relpath(RESULTS)}")
    return 0


def print_suite(payload: dict) -> None:
    names = list(payload["workloads"])
    print(f"seed {payload['seed']}, {payload['repeats']} runs of "
          f"{payload['run_seconds']} s per workload; host metrics are medians, "
          f"interquartile range / median beside them")
    print(f"\n{'end-to-end':<28}{'unit':<9}" + "".join(f"{n:>24}" for n in names))
    first = payload["workloads"][names[0]]
    for metric, row in first["end_to_end"].items():
        cells = []
        for name in names:
            cell = payload["workloads"][name]["end_to_end"][metric]
            note = f" ±{cell['spread']:.1%}" if cell["axis"] == "host" else ""
            cells.append(f"{cell['median']:.4f}{note}".rjust(24))
        print(f"{metric:<28}{row['unit']:<9}" + "".join(cells))
    print(f"{'attempted / failed':<37}" + "".join(
        f"{w['attempted']} / {w['failed']}".rjust(24)
        for w in payload["workloads"].values()))
    if "per_layer" not in first:
        return
    print(f"\n{'per-layer':<48}{'unit':<8}" + "".join(f"{n:>17}" for n in names))
    for metric, row in first["per_layer"].items():
        print(f"{metric:<48}{row['unit']:<8}" + "".join(
            f"{payload['workloads'][n]['per_layer'][metric]['value']:>17.4f}" for n in names))
    for name in names:
        print(f"\ntop functions by self time, {name} (traced)")
        for row in payload["workloads"][name]["top_functions"]:
            print(f"  {row['self_s']:8.3f} s {row['calls']:>9} calls  "
                  f"{row['layer']:<18} {row['function']}")


# ----------------------------------------------------------------------
# Compare
# ----------------------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    verdicts = []
    print(f"{'workload':<17}{'metric':<28}{'A':>14}{'B':>14}{'B worse by':>12}"
          f"{'bound':>8}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        rows_a, rows_b = (side["workloads"][name] for side in (a, b))
        for metric, (_unit, axis, better, bound) in catalog.END_TO_END.items():
            cell_a, cell_b = rows_a["end_to_end"][metric], rows_b["end_to_end"][metric]
            va, vb = cell_a["median"], cell_b["median"]
            worse = vb - va if better == "lower" else va - vb
            allowed = max(bound * va, catalog.SLACK.get(metric, 0.0))
            if axis == "sim":
                # Same commit, same seed: virtual time repeats exactly.
                verdict = "PASS" if cell_a["values"] == cell_b["values"] else "FAIL (sim differs)"
            elif max(cell_a["spread"] * va, cell_b["spread"] * vb) > allowed:
                verdict = "UNRESOLVED (spread > bound)"
            elif worse > allowed:
                verdict = "FAIL"
            else:
                verdict = "PASS"
            verdicts.append(verdict)
            print(f"{name:<17}{metric:<28}{va:>14.4f}{vb:>14.4f}{worse / va:>+12.1%}"
                  f"{bound:>8.0%}  {verdict}")
        layers_a, layers_b = rows_a.get("per_layer"), rows_b.get("per_layer")
        if layers_a and layers_b:
            exact = [m for m, row in layers_a.items() if row["axis"] == "sim"]
            differing = [m for m in exact if layers_a[m]["value"] != layers_b[m]["value"]]
            for metric in differing:
                print(f"{name:<17}{metric:<42}{layers_a[metric]['value']:>14.4f}"
                      f"{layers_b[metric]['value']:>14.4f}  FAIL (count differs)")
            print(f"{name:<17}{len(exact) - len(differing)} of {len(exact)} exact "
                  f"per-layer counts equal")
            verdicts += ["FAIL"] * len(differing)
    passed = all(v == "PASS" for v in verdicts)
    print("\nPASS" if passed else "\nNOT PASSED")
    return 0 if passed else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int,
                        help="measure one run this long (needs exactly one --workload)")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    names = args.workload or list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown}; choose from {list(workloads.WORKLOADS)}")
    if args.seconds is not None:
        if len(names) != 1:
            parser.error("--seconds measures one run: give exactly one --workload")
        return single_run(names[0], args.seed, args.seconds, args.trace or 0)
    return suite(names, args.seed, args.repeats, traced=args.trace != 0)


if __name__ == "__main__":
    sys.exit(main())
