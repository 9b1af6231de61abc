"""Deterministic parallel run engine for chaos, sweep and audit fleets.

Every experiment in this repository is a seeded, deterministic
simulation — which makes the *fleet* of experiments embarrassingly
parallel: two scenarios share no state, so running them in separate
worker processes changes nothing but the wall clock.  This module turns
that property into throughput:

* :func:`run_fleet` fans a list of :class:`FleetTask` specs across a
  process pool and merges the results **keyed by task, in task-list
  order — never by completion order**.  A fleet at ``--jobs 8`` produces
  the same payload dictionary as ``--jobs 1``, byte for byte (modulo
  fields that measure the wall clock itself).
* Chaos seed fleets (``python -m repro chaos --seeds A..B --jobs N``),
  the parameter-study sweeps (``python -m repro sweep``) and the
  determinism audit (``python -m repro audit``) all dispatch through it.

Workers are started with the ``spawn`` context: each worker is a fresh
interpreter with its own (randomised) string-hash seed.  That is a
deliberate hardening choice — any hidden dependence on ``PYTHONHASHSEED``
(set/dict iteration order leaking into protocol decisions) shows up as a
cross-worker result divergence, which the determinism audit
(:mod:`repro.audit`) turns into a failure with a minimal repro command.

Task payloads are plain JSON-ish data (dicts, lists, numbers, strings):
they must cross a process boundary, and keeping them serialisable is
what lets the merge step be a pure, order-independent dictionary build.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class FleetTask:
    """One unit of fleet work.

    ``key`` identifies the task in the merged result dictionary and must
    be unique within a fleet.  ``kind`` selects a runner from
    :data:`RUNNERS`; ``params`` is its keyword payload and must be
    picklable plain data.
    """

    key: str
    kind: str
    params: Dict[str, Any] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Task runners (executed inside worker processes)
# ----------------------------------------------------------------------
def _run_campaign(kind: str, params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.faults.campaign import run_cell

    return run_cell(kind, **params)[1]


def _run_recovery(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.scenarios import run_recovery_experiment

    return run_recovery_experiment(**recovery_kwargs(params)).payload()


def _run_search_eval(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.search.engine import evaluate_genome
    from repro.search.genome import ScheduleGenome

    return evaluate_genome(ScheduleGenome.from_dict(params["genome"]))


def _run_audit(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro import audit

    return audit.execute_variant(params["case_id"], params["variant"],
                                 materials=params.get("materials", False))


def _run_probe(params: Dict[str, Any]) -> Dict[str, Any]:
    """Test-only runner: reports which process ran the task (and sleeps,
    so tests can force out-of-order completion)."""
    time.sleep(params.get("sleep", 0.0))
    return {"pid": os.getpid(), "token": params.get("token")}


RUNNERS: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    "chaos": partial(_run_campaign, "chaos"),
    "endurance": partial(_run_campaign, "endurance"),
    "recovery": _run_recovery,
    "search_eval": _run_search_eval,
    "audit": _run_audit,
    "probe": _run_probe,
}


def _execute(task: FleetTask) -> Dict[str, Any]:
    """Run one task; never raises.  A crashing runner is reported as a
    ``fleet_error`` payload so one bad cell cannot abort a whole sweep
    (callers decide whether that fails the run)."""
    try:
        runner = RUNNERS[task.kind]
    except KeyError:
        return {"fleet_error": f"unknown task kind {task.kind!r}; "
                               f"known: {', '.join(sorted(RUNNERS))}"}
    try:
        return runner(task.params)
    except Exception:
        return {"fleet_error": traceback.format_exc()}


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
def run_fleet(tasks: Sequence[FleetTask], jobs: int = 1) -> Dict[str, Any]:
    """Run every task and return ``{task.key: payload}``.

    The result dictionary is built by iterating the *input* task list,
    so its key order — and therefore any JSON serialisation of it — is
    independent of worker scheduling.  ``jobs <= 1`` runs inline in this
    process (the exact serial path, no pool, no pickling).
    """
    keys = [task.key for task in tasks]
    if len(set(keys)) != len(keys):
        dupes = sorted({k for k in keys if keys.count(k) > 1})
        raise ValueError(f"duplicate fleet task keys: {', '.join(dupes)}")
    if jobs <= 1 or len(tasks) <= 1:
        return {task.key: _execute(task) for task in tasks}
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)),
                             mp_context=context) as pool:
        futures = {task.key: pool.submit(_execute, task) for task in tasks}
        # Merge strictly in task order; .result() blocks as needed.
        return {task.key: futures[task.key].result() for task in tasks}


def parse_seed_spec(spec: str) -> List[int]:
    """Parse a seed-fleet spec: ``"7"``, ``"1,2,5"`` or ``"0..15"``
    (inclusive range).  Comma terms may themselves be ranges."""
    seeds: List[int] = []
    for term in spec.split(","):
        term = term.strip()
        if not term:
            continue
        if ".." in term:
            lo_text, _, hi_text = term.partition("..")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise ValueError(f"bad seed range {term!r} in {spec!r}") from None
            if hi < lo:
                raise ValueError(f"empty seed range {term!r} in {spec!r}")
            seeds.extend(range(lo, hi + 1))
        else:
            try:
                seeds.append(int(term))
            except ValueError:
                raise ValueError(f"bad seed {term!r} in {spec!r}") from None
    if not seeds:
        raise ValueError(f"no seeds in spec {spec!r}")
    return seeds


# ----------------------------------------------------------------------
# Campaign seed fleets
# ----------------------------------------------------------------------
def run_seed_fleet(kind: str, seeds: Sequence[int], jobs: int = 1,
                   **params: Any) -> Dict[int, Dict[str, Any]]:
    """Run one ``kind`` campaign ("chaos" or "endurance") per seed;
    results keyed by seed, in the given seed order.  ``params`` are the
    campaign config fields shared by every run, plus an optional
    ``artifacts_dir`` for the evidence of failing cells."""
    tasks = [
        FleetTask(key=f"seed={seed}", kind=kind,
                  params={"seed": seed, **params})
        for seed in seeds
    ]
    payloads = run_fleet(tasks, jobs=jobs)
    return {seed: payloads[f"seed={seed}"] for seed in seeds}


# ----------------------------------------------------------------------
# Parameter-study sweeps (the benchmarks' grids, shared single-source)
# ----------------------------------------------------------------------
def recovery_kwargs(params: Dict[str, Any]) -> Dict[str, Any]:
    """Expand a picklable sweep-cell params dict into
    :func:`repro.scenarios.run_recovery_experiment` keyword arguments
    (the ``node_config`` sub-dict becomes a :class:`NodeConfig`)."""
    from repro.replication.node import NodeConfig

    kwargs = dict(params)
    node_config = kwargs.pop("node_config", None)
    if node_config is not None:
        kwargs["node_config"] = NodeConfig(**node_config)
    return kwargs


@dataclass(frozen=True)
class SweepStudy:
    """One parameter study: a named grid of recovery-experiment cells.

    The grid is the single source of truth shared by the pytest
    benchmark that asserts the paper's expected shape
    (``benchmarks/test_bench_*``) and the ``python -m repro sweep``
    fleet that regenerates the same table in parallel.
    """

    name: str
    title: str
    #: Ordered (cell_key, run_recovery_experiment params) pairs.
    grid: Tuple[Tuple[str, Dict[str, Any]], ...]
    #: Table columns reported by ``repro sweep`` (keys into the scenario
    #: report payload, ``extra.*`` reaching into the extras dict).
    columns: Tuple[str, ...]

    def cell(self, **selector: Any) -> Dict[str, Any]:
        """The params of the first grid cell matching all selector
        items (helper for benchmark assertions)."""
        for _key, params in self.grid:
            if all(params.get(k) == v for k, v in selector.items()):
                return params
        raise KeyError(f"no cell matching {selector} in study {self.name}")


def _grid(cells: List[Tuple[str, Dict[str, Any]]]) -> Tuple[Tuple[str, Dict[str, Any]], ...]:
    return tuple(cells)


def _build_sweeps() -> Dict[str, SweepStudy]:
    db_size = _grid([
        (f"{strategy}/db={size}",
         {"strategy": strategy, "db_size": size, "downtime": 0.5,
          "arrival_rate": 120.0, "seed": 41})
        for strategy in ("full", "version_check", "rectable", "log_filter", "lazy")
        for size in (100, 400, 1000)
    ])
    update_fraction = _grid([
        (f"{strategy}/down={downtime}",
         {"strategy": strategy, "db_size": 300, "downtime": downtime,
          "arrival_rate": 200.0, "writes_per_txn": 2, "seed": 43})
        for strategy in ("full", "version_check", "rectable", "lazy")
        for downtime in (0.2, 1.0, 3.0)
    ])
    throughput = _grid([
        (f"{strategy}/rate={rate:g}",
         {"strategy": strategy, "db_size": 400, "downtime": 0.8,
          "arrival_rate": rate, "seed": 47,
          "node_config": {"transfer_obj_time": 0.001}})
        for strategy in ("full", "rectable", "lazy")
        for rate in (50.0, 150.0, 300.0)
    ])
    rw_ratio = _grid([
        (f"{strategy}/{reads}r{writes}w",
         {"strategy": strategy, "db_size": 300, "downtime": 0.5,
          "arrival_rate": 150.0, "reads_per_txn": reads,
          "writes_per_txn": writes, "seed": 53,
          "node_config": {"transfer_obj_time": 0.001}})
        for strategy in ("full", "log_filter")
        for reads, writes in ((4, 0), (3, 1), (2, 2), (0, 4))
    ])
    backends = _grid([
        (f"{backend}/storm={storm}",
         {"mode": backend, "fault_storm": storm, "n_sites": 5,
          "db_size": 300, "downtime": 0.8, "arrival_rate": 120.0,
          "seed": 23})
        for backend in ("vs", "evs", "logless")
        for storm in ("none", "partition")
    ])
    studies = [
        SweepStudy(
            name="db_size",
            title="E3 — recovery cost vs database size (downtime 0.5s, 120 txn/s)",
            grid=db_size,
            columns=("completed", "extra.recovery_time", "extra.objects_sent",
                     "extra.bytes_sent"),
        ),
        SweepStudy(
            name="update_fraction",
            title="E4 — objects transferred vs downtime (db=300, 200 txn/s)",
            grid=update_fraction,
            columns=("completed", "extra.objects_sent", "extra.recovery_time"),
        ),
        SweepStudy(
            name="throughput",
            title="E5 — joiner backlog vs offered load (db=400, downtime 0.8s)",
            grid=throughput,
            columns=("completed", "extra.enqueue_high_watermark", "replayed",
                     "extra.recovery_time"),
        ),
        SweepStudy(
            name="rw_ratio",
            title="E6 — read/write mix vs transfer interference (db=300)",
            grid=rw_ratio,
            columns=("completed", "extra.objects_sent", "extra.lock_wait_total",
                     "extra.mean_latency"),
        ),
        SweepStudy(
            name="E7",
            title="E7 — reconfiguration backends head-to-head "
                  "(identical pinned fault storms, db=300, downtime 0.8s)",
            grid=backends,
            columns=("completed", "extra.recovery_time", "extra.bytes_sent",
                     "extra.abort_rate", "extra.epoch_count",
                     "extra.phase_membership", "extra.phase_transfer",
                     "extra.phase_replay", "extra.epoch_retransmissions"),
        ),
    ]
    return {study.name: study for study in studies}


SWEEPS: Dict[str, SweepStudy] = _build_sweeps()


def _payload_column(payload: Dict[str, Any], column: str) -> Any:
    if column.startswith("extra."):
        return payload.get("extra", {}).get(column[len("extra."):])
    return payload.get(column)


def run_sweep(study_name: str, jobs: int = 1) -> Dict[str, Any]:
    """Run one study's whole grid (in parallel at ``jobs`` > 1) and
    return ``{"study", "title", "rows"}`` with one row dict per cell in
    grid order."""
    try:
        study = SWEEPS[study_name]
    except KeyError:
        raise ValueError(
            f"unknown sweep study {study_name!r}; "
            f"valid choices: {', '.join(sorted(SWEEPS))}"
        ) from None
    tasks = [FleetTask(key=key, kind="recovery", params=params)
             for key, params in study.grid]
    payloads = run_fleet(tasks, jobs=jobs)
    rows = []
    for key, _params in study.grid:
        payload = payloads[key]
        if "fleet_error" in payload:
            raise RuntimeError(
                f"sweep cell {key} of study {study_name} failed in worker:\n"
                f"{payload['fleet_error']}"
            )
        row: Dict[str, Any] = {"cell": key}
        for column in study.columns:
            row[column] = _payload_column(payload, column)
        row["payload"] = payload
        rows.append(row)
    return {"study": study.name, "title": study.title, "rows": rows}
