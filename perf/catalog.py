"""Every metric the benchmark reports: unit, time axis, direction, bound,
and for a layer metric where it comes from and which end-to-end metric
it is expected to move.  ``BENCHMARK.json`` is this table cut down to the
keys the benchmark contract allows; ``perf/tests`` keeps the two equal.

Time axes: *sim* is virtual time of the modelled cluster, a pure
function of the seed; *host* is this machine's clock.  Sim metrics carry
the axis in their unit (``sim_ms``), host metrics use plain units.
"""

from __future__ import annotations

from typing import Dict, List

from repro.reconfig.strategies import ALL_STRATEGY_NAMES

from layers import LAYERS
from workloads import WORKLOADS

RUN_SECONDS = 15

#: name -> (unit, axis, better, bound).  ``bound`` is the share of the
#: parent's median by which the metric may worsen; each is at least three
#: times the spread seen across ten seeds (perf/README.md, "Spreads").
END_TO_END: Dict[str, tuple] = {
    "setup_s": ("s", "host", "lower", 0.25),
    "commits_per_host_s": ("1/s", "host", "higher", 0.25),
    "peak_rss_mb": ("MB", "host", "lower", 0.10),
    "commits_per_sim_s": ("1/sim_s", "sim", "higher", 0.10),
    "latency_p50_ms": ("sim_ms", "sim", "lower", 0.05),
    "latency_p99_ms": ("sim_ms", "sim", "lower", 0.25),
    "first_attempt_commit_share": ("share", "sim", "higher", 0.02),
}
#: Absolute slack on top of a bound: set-up is ~0.2 s, where 25 % is
#: within what one slow import costs.
SLACK = {"setup_s": 0.05}

_HOT = "commits_per_host_s on steady_oltp, hot_contention, cascade_clients (at most " \
       "the layer's self share); no change on recover_full"
_LOCKS_STEADY = "commits_per_host_s on steady_oltp"
_LOCKS_HOT = "commits_per_host_s and first_attempt_commit_share on hot_contention"
_LOCKS_SCAN = "commits_per_host_s on recover_full; no change on steady_oltp"
_RECONFIG = "latency_p99_ms and reconfig.recovery_*/unavailable_* on recover_full, " \
            "cascade_clients; commits_per_host_s should not move"
_MEMBERSHIP = "reconfig.recovery_*_sim_s, reconfig.unavailable_max_sim_s on cascade_clients"
_CLIENT = "latency_p99_ms, first_attempt_commit_share on cascade_clients only"
_NONE = "no end-to-end metric (outside the window / tracing off); cost of a checked " \
        "or observed campaign run"

#: Source 1: exact counters of the run's own episodes.
#: name -> (unit, axis, better, moves)
COUNTERS: Dict[str, tuple] = {
    "sim.events_per_commit": ("count", "sim", "lower", _HOT),
    "net.msgs_per_commit": ("count", "sim", "lower", _HOT + "; latency_p50_ms everywhere"),
    "gcs.total_order.batches_per_commit": ("count", "sim", "lower",
                                           _HOT + "; latency_p50_ms everywhere"),
    "gcs.membership.views_installed": ("count", "sim", "lower", _MEMBERSHIP),
    "db.locks.grants_per_commit": ("count", "sim", "lower", _LOCKS_STEADY),
    "db.locks.conflicts_per_commit": ("count", "sim", "lower", _LOCKS_HOT),
    "db.locks.wait_sim_s": ("sim_s", "sim", "lower", "latency_p99_ms on hot_contention, "
                                                       "recover_full"),
    "db.locks.queue_depth_peak": ("count", "sim", "lower", _LOCKS_SCAN),
    "db.wal.records_per_commit": ("count", "sim", "lower", _HOT),
    "db.wal.fsyncs_per_commit": ("count", "sim", "lower", _HOT),
    "replication.node.abort_share": ("share", "sim", "lower",
                                     "first_attempt_commit_share on hot_contention"),
    "reconfig.transfer_mb_per_recovery": ("MB", "sim", "lower", _RECONFIG),
    "reconfig.objects_per_recovery": ("count", "sim", "lower", _RECONFIG),
    "reconfig.replayed_per_recovery": ("count", "sim", "lower", _RECONFIG),
    "reconfig.retransmissions": ("count", "sim", "lower", _RECONFIG),
    "reconfig.failovers": ("count", "sim", "lower", _RECONFIG),
    "reconfig.recovery_p50_sim_s": ("sim_s", "sim", "lower", _RECONFIG),
    "reconfig.recovery_max_sim_s": ("sim_s", "sim", "lower", _RECONFIG),
    "reconfig.unavailable_max_sim_s": ("sim_s", "sim", "lower", _RECONFIG),
    "client.session.failovers": ("count", "sim", "lower", _CLIENT),
    "client.session.attempts_per_request": ("count", "sim", "lower", _CLIENT),
    "client.session.duplicates_suppressed": ("count", "sim", "lower", _CLIENT),
    "checkers.check_host_s": ("s", "host", "lower", _NONE),
    "checkers.us_per_history_event": ("us", "host", "lower", _NONE),
}

#: Source 2: isolated drivers (perf/layers.py), host time on fixed inputs.
DRIVERS: Dict[str, tuple] = {
    "sim.events_per_s": ("1/s", "host", "higher", _HOT),
    "net.unicast_per_s": ("1/s", "host", "higher", _HOT),
    "net.multicast_per_s": ("1/s", "host", "higher", _HOT),
    "gcs.total_order.msgs_per_s_n3": ("1/s", "host", "higher", _HOT),
    "gcs.total_order.msgs_per_s_n9": ("1/s", "host", "higher", _HOT),
    "gcs.membership.view_changes_per_s": ("1/s", "host", "higher",
                                          "commits_per_host_s on cascade_clients"),
    "db.locks.uncontended_per_s": ("1/s", "host", "higher", _LOCKS_STEADY),
    "db.locks.contended_per_s": ("1/s", "host", "higher", _LOCKS_HOT),
    "db.locks.held_scan_per_s": ("1/s", "host", "higher", _LOCKS_SCAN),
    "db.wal.appends_per_s": ("1/s", "host", "higher", _HOT),
    "db.wal.recovery_records_per_s": ("1/s", "host", "higher",
                                      "commits_per_host_s on recover_full, cascade_clients"),
    "reconfig.encode_mb_per_s": ("MB/s", "host", "higher", _NONE),
}
for _strategy in ALL_STRATEGY_NAMES:
    DRIVERS[f"reconfig.strategy_{_strategy}.recovery_sim_s"] = ("sim_s", "sim", "lower", _RECONFIG)
    DRIVERS[f"reconfig.strategy_{_strategy}.host_ms"] = ("ms", "host", "lower", _RECONFIG)
for _observer in ("tracer", "metrics", "profiler"):
    DRIVERS[f"obs.{_observer}_overhead_share"] = ("share", "host", "lower", _NONE)

_LAYER_MOVES = {
    "db.locks": _LOCKS_STEADY + "; " + _LOCKS_SCAN,
    "reconfig": _RECONFIG, "gcs.membership": _MEMBERSHIP, "gcs.evs": _MEMBERSHIP,
    "client.session": _CLIENT, "checkers": _NONE, "obs": _NONE,
}
#: Source 3: one cProfile'd copy of the run's first episodes.
TRACED: Dict[str, tuple] = {"trace_overhead_share": ("share", "host", "lower", _NONE)}
for _layer in LAYERS:
    _moves = _LAYER_MOVES.get(_layer, _HOT)
    TRACED[f"{_layer}.self_share"] = ("share", "host", "lower", _moves)
    TRACED[f"{_layer}.self_us_per_commit"] = ("us", "host", "lower", _moves)
    TRACED[f"{_layer}.calls_per_commit"] = ("count", "sim", "lower", _moves)

PER_LAYER: Dict[str, tuple] = {**COUNTERS, **DRIVERS, **TRACED}
SOURCE = {**dict.fromkeys(COUNTERS, 1), **dict.fromkeys(DRIVERS, 2), **dict.fromkeys(TRACED, 3)}


def benchmark_json() -> dict:
    """``BENCHMARK.json``: exactly the keys the contract names."""
    end_to_end: List[dict] = [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, (unit, _axis, better, bound) in END_TO_END.items()]
    per_layer: List[dict] = [
        {"name": name, "unit": unit, "better": better}
        for name, (unit, _axis, better, _moves) in PER_LAYER.items()]
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w.why} for name, w in WORKLOADS.items()],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
