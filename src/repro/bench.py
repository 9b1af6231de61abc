"""The pinned benchmark matrix behind ``python -m repro bench``.

Five scenarios, fixed seeds and workloads, so successive runs (and CI
runs against a committed baseline) measure the same simulation:

* ``throughput`` — 5 sites, steady 900 txn/s OLTP load, no faults; the
  hot-path scenario the batching and event-kernel work targets.
* ``figure1``   — the paper's Figure 1 cascading reconfiguration (VS).
* ``figure2_evs`` — the same schedule under EVS (Figure 2).
* ``chaos``     — one pinned seeded fault storm (seed 3).
* ``client_failover`` — the same storm machinery driven by closed-loop
  client sessions (repro.client): durable request ids, failover,
  exactly-once checking; measures the client-visible commit rate.

Each scenario reports wall-clock seconds, simulated seconds, commits,
and two rate metrics:

* ``commits_per_sim_second`` — commits per *simulated* second.  The
  simulation is a pure function of the seed, so this number is exactly
  reproducible on any machine; a change means the protocol behaviour
  changed, not the hardware.  This is the primary regression gate.
* ``commits_per_wall_second`` — simulated commits per wall-clock second,
  the headline *speed* metric (batching must not change any virtual-time
  outcome, so all speedups show up here and only here).  Wall clocks are
  noisy, so the gate treats this as a derated secondary check.

Results are written as machine-readable JSON (``BENCH_results.json``);
``--baseline`` compares against a committed baseline file and fails the
run on either gate.  ``--jobs N`` fans the scenario matrix across worker
processes (see :mod:`repro.fleet`); the merged payload is keyed by
scenario name, never by completion order, so a parallel run is
byte-identical to a serial one modulo the wall-clock fields.
"""

from __future__ import annotations

import copy
import json
import platform
import sys
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional

from repro.cluster import ClusterBuilder
from repro.obs import collect_cluster_metrics
from repro.workload.generator import LoadGenerator, WorkloadConfig

#: Bump when the result-file layout changes.  2: per-scenario ``metrics``
#: snapshots (repro.obs.collect_cluster_metrics).  3: per-scenario
#: ``commits_per_sim_second`` (the deterministic gate metric).
#: 4: ``client_failover`` scenario (closed-loop sessions with
#: exactly-once failover) joins the pinned matrix.
#: 5: per-scenario ``epochs`` (reconfiguration epoch summary with the
#: phase decomposition, repro.obs.epochs) and — under ``--profile`` —
#: ``profile`` (top sim-loop cost buckets, wall-clock so non-gating).
SCHEMA_VERSION = 5

#: Default regression tolerance for the *wall-clock* --baseline check:
#: fail when a scenario's commits_per_wall_second drops more than this
#: fraction below the baseline value.  Wall clocks are noisy (shared CI
#: runners), hence the generous default.
DEFAULT_TOLERANCE = 0.20

#: Default tolerance for the *deterministic* gate on
#: commits_per_sim_second.  The simulation is seed-pure, so any drift
#: here is a behaviour change; the small allowance exists only so that
#: deliberate protocol improvements with marginal commit-count effects
#: don't require a baseline regen to land.
DEFAULT_SIM_TOLERANCE = 0.05

#: Per-scenario result fields that depend on the wall clock (and hence
#: legitimately differ between repetitions, machines and --jobs levels).
#: Everything else in a scenario row is a pure function of the seed.
#: ``profile`` rows carry wall-clock and allocator measurements, so the
#: whole field is excluded from the deterministic payload; the epoch
#: summary, by contrast, is sim-time-only and stays in the gate view.
WALL_CLOCK_FIELDS = ("wall_seconds", "commits_per_wall_second", "profile")


@dataclass
class BenchResult:
    """One scenario's measurement (one row of BENCH_results.json)."""

    name: str
    completed: bool
    wall_seconds: float
    sim_seconds: float
    commits: int
    commits_per_sim_second: float
    commits_per_wall_second: float
    events_processed: int
    messages_delivered: int
    transfer_bytes: int
    #: Full cluster metric snapshot (repro.obs.collect_cluster_metrics),
    #: taken after the run — pure reads of existing counters, so it adds
    #: no hot-path cost to the measurement itself.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Reconfiguration epoch summary (repro.obs.epochs.epoch_summary)
    #: when the scenario ran with a tracer attached; empty otherwise.
    #: Sim-time-only, so it is part of the deterministic payload.
    epochs: Dict[str, Any] = field(default_factory=dict)
    #: Top sim-loop cost buckets (repro.obs.profile) when the matrix ran
    #: with ``--profile``; wall-clock data, excluded from the gate.
    profile: List[Dict[str, Any]] = field(default_factory=list)


def _result(name: str, completed: bool, wall: float, sim_seconds: float,
            commits: int, cluster=None) -> BenchResult:
    """One result row; the cost counters are read off the finished
    ``cluster`` (zero when the scenario could not produce one)."""
    epochs: Dict[str, Any] = {}
    profile: List[Dict[str, Any]] = []
    events = messages = transfer_bytes = 0
    if cluster is not None:
        events = cluster.sim.events_processed
        messages = cluster.network.messages_delivered
        transfer_bytes = cluster.metrics_summary()["bytes_transferred"]
        if cluster.tracer is not None:
            from repro.obs.epochs import epoch_summary, extract_epochs

            epochs = epoch_summary(extract_epochs(cluster.tracer.events,
                                                  end_time=cluster.sim.now))
        profiler = getattr(cluster, "profiler", None)
        if profiler is not None:
            profile = profiler.top_buckets()
    result = BenchResult(
        name=name,
        completed=completed,
        wall_seconds=round(wall, 4),
        sim_seconds=round(sim_seconds, 4),
        commits=commits,
        commits_per_sim_second=(
            round(commits / sim_seconds, 4) if sim_seconds > 0 else 0.0
        ),
        commits_per_wall_second=round(commits / wall, 1) if wall > 0 else 0.0,
        events_processed=events,
        messages_delivered=messages,
        transfer_bytes=transfer_bytes,
        metrics=collect_cluster_metrics(cluster) if cluster is not None else {},
        epochs=epochs,
        profile=profile,
    )
    # Stash the live cluster as a plain attribute (not a dataclass field,
    # so asdict() and the JSON payload never see it): the determinism
    # auditor re-digests the final replica states and histories of the
    # exact run the benchmark measured.
    result.cluster = cluster
    return result


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def bench_throughput(smoke: bool = False, batching: bool = True,
                     profile: bool = False) -> BenchResult:
    """Steady-state OLTP load on five sites, no faults."""
    duration = 1.5 if smoke else 6.0
    cluster = ClusterBuilder(n_sites=5, db_size=200, seed=11,
                             batching=batching).build()
    if profile:
        from repro.obs.profile import attach_profiler

        attach_profiler(cluster)
    cluster.start()
    completed = cluster.await_all_active(timeout=15)
    # 900 txn/s: up from 400 after PR 9's
    # hot-path rewrite — the pinned deterministic commits_per_sim_second
    # target in BENCH_baseline.json more than doubles with it (see EXPERIMENTS.md
    # "Hot path, round 2").
    load = LoadGenerator(cluster, WorkloadConfig(
        arrival_rate=900.0, reads_per_txn=2, writes_per_txn=2))
    load.start()
    start = time.perf_counter()
    cluster.run_for(duration)
    load.stop()
    cluster.settle(0.5)
    wall = time.perf_counter() - start
    cluster.check()
    return _result("throughput", completed, wall, cluster.sim.now,
                   cluster.total_commits(), cluster)


def bench_figure(mode: str, smoke: bool = False,
                 batching: bool = True, profile: bool = False) -> BenchResult:
    """The Figure 1 (VS) / Figure 2 (EVS) cascading reconfiguration."""
    from repro.scenarios import run_figure1_scenario

    kwargs: Dict[str, Any] = dict(mode=mode, strategy="rectable", seed=17)
    if smoke:
        kwargs.update(db_size=120, arrival_rate=50.0)
    start = time.perf_counter()
    report = run_figure1_scenario(batching=batching, profile=profile,
                                  **kwargs)
    wall = time.perf_counter() - start
    return _result("figure1" if mode == "vs" else "figure2_evs",
                   report.completed, wall, report.duration, report.commits,
                   report.cluster)


#: The two pinned storms: ``chaos`` under the open-loop generator,
#: ``client_failover`` the same machinery driven by ClientSession
#: objects (repro.client) — every request carries a durable id,
#: contact-site crashes trigger failover to another ACTIVE site, and the
#: run ends with the exactly-once checker over the full session ledger.
#: Its commit rate is the *end-to-end* client-visible rate: it prices in
#: response timeouts, backoff and duplicate suppression, which the
#: open-loop scenarios never see.
_STORMS: Dict[str, Dict[str, Any]] = {
    "chaos": {"seed": 3},
    "client_failover": {"seed": 23, "mode": "evs", "clients": 6},
}


def bench_storm(name: str, smoke: bool = False, batching: bool = True,
                profile: bool = False) -> BenchResult:
    """One pinned seeded chaos storm (fault-heavy mixed scenario)."""
    from repro.faults import ChaosConfig, ChaosEngine

    config = ChaosConfig(intensity=0.5, n_sites=4, db_size=40,
                         duration=1.5 if smoke else 3.0,
                         arrival_rate=60.0, batching=batching,
                         profile=profile, **_STORMS[name])
    engine = ChaosEngine(config)
    start = time.perf_counter()
    report = engine.run()
    wall = time.perf_counter() - start
    return _result(name, report.ok, wall, report.virtual_time,
                   int(report.metrics.get("commits", 0)), engine.cluster)


SCENARIOS = ("throughput", "figure1", "figure2_evs", "chaos",
             "client_failover")

_RUNNERS = {
    "throughput": bench_throughput,
    "figure1": partial(bench_figure, "vs"),
    "figure2_evs": partial(bench_figure, "evs"),
    "chaos": partial(bench_storm, "chaos"),
    "client_failover": partial(bench_storm, "client_failover"),
}


def validate_scenarios(names: List[str]) -> None:
    """Reject unknown scenario names with the valid choices spelled out
    (instead of the raw ``KeyError`` a typo used to produce)."""
    unknown = [name for name in names if name not in _RUNNERS]
    if unknown:
        raise ValueError(
            f"unknown scenario(s) {', '.join(sorted(unknown))}; "
            f"valid choices: {', '.join(SCENARIOS)}"
        )


def run_scenario(name: str, smoke: bool = False, batching: bool = True,
                 profile: bool = False) -> BenchResult:
    """Run one pinned scenario by name."""
    validate_scenarios([name])
    return _RUNNERS[name](smoke, batching, profile)


def _best_of_rows(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Keep the repetition with the highest wall-clock rate.  All
    deterministic fields are identical across repetitions, so this only
    selects the least-noisy wall measurement."""
    best = rows[0]
    for row in rows[1:]:
        if row["commits_per_wall_second"] > best["commits_per_wall_second"]:
            best = row
    return best


def run_matrix(smoke: bool = False, batching: bool = True,
               only: Optional[List[str]] = None,
               best_of: int = 1, jobs: int = 1,
               profile: bool = False) -> Dict[str, Any]:
    """Run the pinned matrix; returns the BENCH_results.json payload.

    ``best_of`` repeats each scenario and keeps the repetition with the
    highest commits/s.  The simulation itself is deterministic, so
    repetitions differ only in wall-clock noise — and a regression gate
    only cares about downward deviation, for which best-of-N is the
    right estimator.

    ``jobs`` > 1 fans the (scenario, repetition) grid across worker
    processes via :mod:`repro.fleet`.  Results are merged by scenario
    name in matrix order — never by completion order — so the payload is
    identical to a serial run except for the wall-clock fields
    (:data:`WALL_CLOCK_FIELDS`).
    """
    names = list(only) if only else list(SCENARIOS)
    validate_scenarios(names)
    reps = max(1, best_of)
    results: Dict[str, Dict[str, Any]] = {}
    if jobs > 1:
        from repro.fleet import FleetTask, run_fleet

        tasks = [
            FleetTask(key=f"{name}#{rep}", kind="bench",
                      params={"scenario": name, "smoke": smoke,
                              "batching": batching, "profile": profile})
            for name in names for rep in range(reps)
        ]
        payloads = run_fleet(tasks, jobs=jobs)
        for name in names:
            rows = [payloads[f"{name}#{rep}"] for rep in range(reps)]
            for row in rows:
                if "fleet_error" in row:
                    raise RuntimeError(
                        f"bench scenario {name} failed in worker: "
                        f"{row['fleet_error']}"
                    )
            results[name] = _best_of_rows(rows)
    else:
        for name in names:
            rows = [asdict(run_scenario(name, smoke, batching, profile))
                    for _ in range(reps)]
            results[name] = _best_of_rows(rows)
    return {
        "schema": SCHEMA_VERSION,
        "smoke": smoke,
        "batching": batching,
        "best_of": reps,
        "python": platform.python_version(),
        "scenarios": results,
    }


def deterministic_payload(results: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of a results payload with every wall-clock-dependent field
    removed.  Two runs of the same matrix — serial or parallel, on any
    machine — must produce byte-identical JSON for this view; the
    determinism audit and the ``--jobs`` equivalence test compare it."""
    payload = copy.deepcopy(results)
    payload.pop("python", None)
    for row in payload.get("scenarios", {}).values():
        for fieldname in WALL_CLOCK_FIELDS:
            row.pop(fieldname, None)
    return payload


# ----------------------------------------------------------------------
# Baseline comparison (CI regression gate)
# ----------------------------------------------------------------------
def compare_to_baseline(results: Dict[str, Any], baseline: Dict[str, Any],
                        tolerance: float = DEFAULT_TOLERANCE,
                        sim_tolerance: float = DEFAULT_SIM_TOLERANCE,
                        check_wall: bool = True) -> List[str]:
    """Return one failure message per gate violation.

    The gate is two-tier:

    * **deterministic** — ``commits_per_sim_second`` (commits per
      *simulated* second) must stay within ``sim_tolerance`` of the
      baseline.  This metric is a pure function of the seed, identical
      across machines and across the batching on/off configurations, so
      a drop means the protocol's behaviour changed.
    * **wall-clock** — ``commits_per_wall_second`` must stay within
      ``tolerance`` (noisy secondary check for real slowdowns).
      Skipped when ``check_wall`` is false: a ``--profile`` run pays
      per-event attribution overhead, so its wall numbers are not
      comparable to an unprofiled baseline.

    Scenario-set mismatches are failures in *both* directions: a
    scenario present in the baseline but missing from the results (a
    renamed or dropped scenario must not pass CI unguarded), and a
    scenario present in the results but absent from the baseline (the
    baseline must be regenerated to cover it).

    A baseline whose ``schema`` does not equal ``SCHEMA_VERSION`` fails
    immediately: comparing against a stale-schema baseline silently
    skips every gate field added since, which is exactly how a stale
    baseline once lingered unnoticed.
    """
    failures: List[str] = []
    rows = results.get("scenarios", {})
    base_rows = baseline.get("scenarios", {})
    base_schema = baseline.get("schema")
    if base_schema != SCHEMA_VERSION:
        # A stale baseline silently weakens the gate (fields added since
        # the baseline's schema are simply never compared), so a schema
        # mismatch is a hard failure, not a best-effort comparison.
        failures.append(
            f"schema mismatch: baseline is schema {base_schema} but the "
            f"current bench writes schema {SCHEMA_VERSION} — rerun the "
            f"matrix and commit the fresh results as the new baseline"
        )
        return failures
    if "smoke" in results and "smoke" in baseline and \
            bool(results["smoke"]) != bool(baseline["smoke"]):
        failures.append(
            f"configuration mismatch: results smoke={bool(results['smoke'])} "
            f"but baseline smoke={bool(baseline['smoke'])} — the scales are "
            f"not comparable; regenerate the baseline at the same scale"
        )
        return failures
    for name in sorted(set(base_rows) - set(rows)):
        failures.append(
            f"{name}: present in the baseline but missing from the results "
            f"— a renamed or dropped scenario must be reflected in a "
            f"regenerated baseline, not skipped"
        )
    for name in sorted(set(rows) - set(base_rows)):
        failures.append(
            f"{name}: not covered by the baseline — regenerate the baseline "
            f"to gate this scenario"
        )
    for name in (n for n in rows if n in base_rows):
        row, base_row = rows[name], base_rows[name]
        base_sim = base_row.get("commits_per_sim_second", 0.0)
        current_sim = row.get("commits_per_sim_second", 0.0)
        if base_sim > 0 and current_sim < base_sim * (1.0 - sim_tolerance):
            failures.append(
                f"{name}: deterministic rate {current_sim:.1f} commits per "
                f"simulated second is more than {sim_tolerance:.0%} below "
                f"baseline {base_sim:.1f} — behaviour change, not noise"
            )
        base = base_row.get("commits_per_wall_second", 0.0)
        current = row.get("commits_per_wall_second", 0.0)
        if check_wall and base > 0 and current < base * (1.0 - tolerance):
            failures.append(
                f"{name}: {current:.1f} commits/s is more than "
                f"{tolerance:.0%} below baseline {base:.1f}"
            )
        if not row.get("completed", False):
            failures.append(f"{name}: scenario did not complete")
    return failures


def main(smoke: bool = False, batching: bool = True,
         output: str = "BENCH_results.json",
         baseline: Optional[str] = None,
         tolerance: float = DEFAULT_TOLERANCE,
         only: Optional[List[str]] = None,
         best_of: int = 1, jobs: int = 1, profile: bool = False) -> int:
    try:
        results = run_matrix(smoke=smoke, batching=batching, only=only,
                             best_of=best_of, jobs=jobs, profile=profile)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    header = (f"{'scenario':14s} {'wall s':>8s} {'sim s':>8s} {'commits':>8s} "
              f"{'sim c/s':>8s} {'wall c/s':>9s} {'events':>9s} "
              f"{'messages':>9s} {'xfer B':>9s} {'epochs':>7s} {'down s':>7s}")
    print(header)
    print("-" * len(header))
    for name, row in results["scenarios"].items():
        epochs = row.get("epochs") or {}
        print(f"{name:14s} {row['wall_seconds']:8.3f} {row['sim_seconds']:8.2f} "
              f"{row['commits']:8d} {row['commits_per_sim_second']:8.1f} "
              f"{row['commits_per_wall_second']:9.1f} "
              f"{row['events_processed']:9d} {row['messages_delivered']:9d} "
              f"{row['transfer_bytes']:9d} {epochs.get('count', 0):7d} "
              f"{epochs.get('total_downtime', 0.0):7.3f}"
              + ("" if row["completed"] else "   [INCOMPLETE]"))
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nresults written to {output}")
    if baseline is not None:
        with open(baseline, "r", encoding="utf-8") as handle:
            base = json.load(handle)
        failures = compare_to_baseline(results, base, tolerance,
                                       check_wall=not profile)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        if profile:
            print("wall-clock gate skipped under --profile (attribution "
                  "overhead is not comparable to an unprofiled baseline)")
        print(f"no regression beyond {tolerance:.0%} vs {baseline}")
    return 0
