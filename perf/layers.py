"""Per-layer measurement: the layer table, cProfile attribution, and the
isolated drivers that time one layer's public functions on a fixed input.

A layer is a set of this repo's modules.  Everything here measures from
outside: no program file is instrumented.
"""

from __future__ import annotations

import os
import pstats
import random
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster import ClusterBuilder
from repro.db.locks import LockManager, LockMode
from repro.db.recovery import run_single_site_recovery
from repro.db.wal import BeginRecord, CommitRecord, PersistentStorage, WriteRecord
from repro.gcs.config import GCSConfig
from repro.gcs.member import GroupMember
from repro.gcs.messages import Ack, Data
from repro.gcs.total_order import ViewTotalOrder
from repro.gcs.view import View, ViewId
from repro.net.latency import FixedLatency
from repro.net.network import Network
from repro.obs import attach_observability, attach_profiler
from repro.reconfig.strategies import ALL_STRATEGY_NAMES
from repro.reconfig.transfer import decode_batch_items, encode_batch_items
from repro.sim.core import Simulator
from repro.tracing import attach_tracer
from repro.workload import LoadGenerator, WorkloadConfig

import workloads

SRC_REPRO = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro")

#: layer -> paths under src/repro.  A trailing "/" claims a whole
#: package; split packages (gcs, db) and the top level list their files,
#: so a new module there is unclassified until someone places it.
LAYER_PATHS: Dict[str, Tuple[str, ...]] = {
    "sim": ("sim/",),
    "net": ("net/",),
    "gcs.total_order": ("gcs/total_order.py",),
    "gcs.membership": ("gcs/__init__.py", "gcs/config.py", "gcs/failure_detector.py",
                       "gcs/member.py", "gcs/membership.py", "gcs/messages.py",
                       "gcs/primary.py", "gcs/view.py"),
    "gcs.evs": ("gcs/evs.py",),
    "db.locks": ("db/locks.py",),
    "db.wal": ("db/wal.py", "db/recovery.py"),
    "db.store": ("db/__init__.py", "db/database.py", "db/store.py", "db/outcomes.py",
                 "db/rectable.py", "db/partitions.py"),
    "replication.node": ("replication/",),
    "reconfig": ("reconfig/",),
    "client.session": ("client/",),
    "workload.generator": ("workload/",),
    "checkers": ("checkers.py",),
    "obs": ("obs/", "tracing.py"),
    # Cluster assembly, fault injectors and the campaign modules: code
    # that drives the layers above rather than being one.
    "harness": ("__init__.py", "__main__.py", "artifacts.py", "audit.py", "bench.py",
                "cli.py", "cluster.py", "differential.py", "endurance.py", "faults/",
                "fleet.py", "scenarios.py", "search/"),
    # Everything outside src/repro: the interpreter's library and perf/ itself.
    "python": (),
}
LAYERS = tuple(LAYER_PATHS)


def layer_of_module(relpath: str) -> Optional[str]:
    """Layer of a file given relative to src/repro, or None if no layer
    claims it."""
    relpath = relpath.replace(os.sep, "/")
    for layer, paths in LAYER_PATHS.items():
        for path in paths:
            if relpath == path or (path.endswith("/") and relpath.startswith(path)):
                return layer
    return None


def layer_of_file(filename: str) -> str:
    if not filename.startswith(SRC_REPRO + os.sep):
        return "python"
    layer = layer_of_module(os.path.relpath(filename, SRC_REPRO))
    if layer is None:
        raise workloads.BrokenRun(f"{filename} belongs to no layer in perf/layers.py")
    return layer


def attribute(profile, commits: int) -> Tuple[Dict[str, float], List[dict]]:
    """Sum a cProfile's self time and call counts per layer.

    A function belongs to the layer of its file.  A C function has no
    file; its time goes to the layer of each caller, in proportion, so
    ``heappop`` called from the kernel counts as ``sim``, not ``python``.
    Returns the ``<layer>.*`` metrics and the top 15 functions by self time.
    """
    stats = pstats.Stats(profile).stats
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    functions = []
    for (filename, line, name), (_cc, ncalls, tottime, _ct, callers) in stats.items():
        if filename != "~":
            layer = layer_of_file(filename)
            self_s[layer] += tottime
            calls[layer] += ncalls
            functions.append((tottime, ncalls, layer,
                              f"{os.path.basename(filename)}:{line}:{name}"))
            continue
        functions.append((tottime, ncalls, "(its callers)", name))
        if not callers:
            self_s["python"] += tottime
            calls["python"] += ncalls
        for (caller_file, _l, _n), (caller_calls, _c, caller_self, _t) in callers.items():
            layer = "python" if caller_file == "~" else layer_of_file(caller_file)
            self_s[layer] += caller_self
            calls[layer] += caller_calls
    total = sum(self_s.values())
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = self_s[layer] / total
        metrics[f"{layer}.self_us_per_commit"] = self_s[layer] * 1e6 / commits
        metrics[f"{layer}.calls_per_commit"] = calls[layer] / commits
    functions.sort(reverse=True)
    top = [{"function": name, "layer": layer, "self_s": tottime, "calls": ncalls}
           for tottime, ncalls, layer, name in functions[:15]]
    return metrics, top


# ----------------------------------------------------------------------
# Isolated drivers
# ----------------------------------------------------------------------
def _rate(work: Callable[[], int], repeats: int = 3) -> float:
    """Operations per host second, best of ``repeats`` (noise only slows)."""
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        operations = work()
        best = max(best, operations / (time.perf_counter() - start))
    return best


def _sim_events() -> int:
    sim = Simulator()
    count = [0]

    def tick() -> None:
        count[0] += 1
        if count[0] < 100_000:
            sim.schedule(0.001, tick)

    sim.schedule(0.0, tick)
    sim.run()
    return count[0]


def _network(multicast: bool) -> Callable[[], int]:
    bursts = 2_000 if multicast else 5_000

    def work() -> int:
        sim = Simulator()
        network = Network(sim, latency=FixedLatency(0.001))
        names = tuple(f"N{i}" for i in range(5))
        received = [0]

        def handler(src, payload) -> None:
            received[0] += 1

        for name in names:
            network.endpoint(name).attach(handler)
            network.bring_up(name)
        others = {name: tuple(n for n in names if n != name) for name in names}

        def burst(index: int) -> None:
            # Ten sends per tick from rotating sources, the way a
            # delivery round fans out; then the next tick.
            for k in range(10):
                src = names[(index + k) % 5]
                if multicast:
                    network.send_multi(src, others[src], index)
                else:
                    network.send(src, names[(index + k + 1) % 5], index)
            if index < bursts:
                sim.schedule(0.0005, burst, index + 1)

        sim.schedule(0.0, burst, 0)
        sim.run()
        return received[0]
    return work


def _total_order(n: int, messages: int) -> Callable[[], int]:
    members = tuple(f"S{i + 1}" for i in range(n))
    view = View(ViewId(1, "S1"), members)

    def work() -> int:
        delivered = []
        to = ViewTotalOrder(view, "S1", 0, lambda dst, m: None, delivered.append)
        for i in range(messages):
            to.on_data(Data(sender="S1", msg_id=i, view_id=view.view_id, payload=i))
            for member in members:
                to.on_ack(Ack(sender=member, view_id=view.view_id, highwater=i))
        return len(delivered)
    return work


class _NullApp:
    def on_view_change(self, view, states) -> None:
        pass

    def on_message(self, sender, payload, gseq) -> None:
        pass

    def flush_state(self) -> dict:
        return {}


def _view_changes() -> int:
    sim = Simulator(seed=1)
    network = Network(sim, latency=FixedLatency(0.001))
    universe = tuple(f"S{i + 1}" for i in range(5))
    members = {name: GroupMember(sim, network, name, universe, GCSConfig(), _NullApp())
               for name in universe}
    for member in members.values():
        member.start()
    sim.run(until=2.0)
    for _ in range(40):
        members["S5"].crash()
        sim.run(until=sim.now + 0.6)
        members["S5"].start()
        sim.run(until=sim.now + 0.9)
    installed = len(members["S1"].views_installed)
    if installed < 80:
        raise workloads.BrokenRun(f"membership driver saw {installed} views, not >= 80")
    return installed


def _locks_uncontended(rng: random.Random) -> Callable[[], int]:
    objects = [f"obj{rng.randrange(2000)}" for _ in range(20_000)]

    def work() -> int:
        locks = LockManager()
        for i, obj in enumerate(objects):
            txn = f"T{i}"
            locks.request(txn, obj, LockMode.EXCLUSIVE)
            locks.release(txn)
        return locks.grants
    return work


def _locks_contended() -> int:
    locks = LockManager()
    for _ in range(4):
        for i in range(300):
            locks.request(f"T{i}", "hot", LockMode.EXCLUSIVE)
        for i in range(300):
            locks.release(f"T{i}")
    return locks.grants


def _locks_held_scan(rng: random.Random) -> Callable[[], int]:
    """The recover_full shape: a transfer transaction holds shared locks
    on many objects while writers queue; it releases them one by one."""
    held = [f"obj{i}" for i in range(2_000)]
    wanted = rng.sample(held, 200)

    def work() -> int:
        locks = LockManager()
        for obj in held:
            locks.request("transfer", obj, LockMode.SHARED)
        for i, obj in enumerate(wanted):
            locks.request(f"W{i}", obj, LockMode.EXCLUSIVE)
        for obj in held:
            locks.release("transfer", obj)
        return len(held)
    return work


def _wal_log(rng: random.Random, transactions: int) -> PersistentStorage:
    storage = PersistentStorage()
    for gid in range(transactions):
        storage.append(BeginRecord(gid))
        for _ in range(2):
            storage.append(WriteRecord(gid, f"obj{rng.randrange(2000)}", gid, gid, gid + 1))
        storage.append(CommitRecord(gid))
        storage.flush()
    return storage


def _wal_appends(rng: random.Random) -> Callable[[], int]:
    return lambda: _wal_log(rng, 10_000).records_appended


def _wal_recovery(rng: random.Random) -> Callable[[], int]:
    storage = _wal_log(rng, 20_000)

    def work() -> int:
        run_single_site_recovery(storage)
        return len(storage)
    return work


def _encode(rng: random.Random) -> Callable[[], float]:
    batches = [tuple((f"obj{start + i}", rng.randrange(1 << 30), rng.randrange(1000))
                     for i in range(50)) for start in range(0, 20_000, 50)]

    def work() -> float:
        for batch in batches:
            if decode_batch_items(encode_batch_items(batch)) != batch:
                raise workloads.BrokenRun("transfer batch did not round-trip")
        return len(batches) * 50 * 256 / 1e6  # MB at the cost model's 256 B/object
    return work


def _strategy_recovery(strategy: str, seed: int) -> Tuple[float, float]:
    """One crash-recover of S3 on 3 sites / 5000 objects under a light
    load.  Returns (recovery sim-s, host ms from recover() to ACTIVE)."""
    cluster = ClusterBuilder(n_sites=3, db_size=5000, seed=seed, strategy=strategy).build()
    cluster.start()
    workloads.require(cluster.await_all_active(timeout=15), "strategy driver: no start")
    load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=50.0, reads_per_txn=1,
                                                 writes_per_txn=2))
    load.start()
    cluster.run_for(0.5)
    cluster.crash("S3")
    cluster.run_for(1.0)
    sim_start, host_start = cluster.sim.now, time.perf_counter()
    cluster.recover("S3")
    recovery_sim_s = workloads.await_active(cluster, ["S3"], sim_start, f"strategy {strategy}")
    recovery = recovery_sim_s, (time.perf_counter() - host_start) * 1e3
    load.stop()
    cluster.settle(0.5)
    cluster.check()
    return recovery


def _oltp_slice_host_s(seed: int, attach: Optional[Callable]) -> float:
    """Host seconds of a 1 sim-s steady_oltp slice, best of 2, with one
    observer attached (or none)."""
    spec = workloads.WORKLOADS["steady_oltp"]
    best = float("inf")
    for _ in range(2):
        cluster = spec.build(seed)
        if attach is not None:
            attach(cluster)
        cluster.start()
        workloads.require(cluster.await_all_active(timeout=15), "obs driver: no start")
        load = spec.make_load(cluster)
        start = time.perf_counter()
        spec.script(cluster, load, 1.0)
        best = min(best, time.perf_counter() - start)
    return best


def run_drivers(seed: int) -> Dict[str, float]:
    """Every source-2 metric.  Inputs that are data come from ``seed``."""
    rng = random.Random(seed)
    metrics = {
        "sim.events_per_s": _rate(_sim_events),
        "net.unicast_per_s": _rate(_network(multicast=False)),
        "net.multicast_per_s": _rate(_network(multicast=True)),
        "gcs.total_order.msgs_per_s_n3": _rate(_total_order(3, 10_000)),
        "gcs.total_order.msgs_per_s_n9": _rate(_total_order(9, 5_000)),
        "gcs.membership.view_changes_per_s": _rate(_view_changes, repeats=2),
        "db.locks.uncontended_per_s": _rate(_locks_uncontended(rng)),
        "db.locks.contended_per_s": _rate(_locks_contended),
        "db.locks.held_scan_per_s": _rate(_locks_held_scan(rng)),
        "db.wal.appends_per_s": _rate(_wal_appends(rng)),
        "db.wal.recovery_records_per_s": _rate(_wal_recovery(rng)),
        "reconfig.encode_mb_per_s": _rate(_encode(rng)),
    }
    for strategy in ALL_STRATEGY_NAMES:
        sim_s, host_ms = _strategy_recovery(strategy, seed)
        metrics[f"reconfig.strategy_{strategy}.recovery_sim_s"] = sim_s
        metrics[f"reconfig.strategy_{strategy}.host_ms"] = host_ms
    plain = _oltp_slice_host_s(seed, None)
    for name, attach in (("tracer", attach_tracer), ("metrics", attach_observability),
                         ("profiler", attach_profiler)):
        metrics[f"obs.{name}_overhead_share"] = _oltp_slice_host_s(seed, attach) / plain - 1
    return metrics
