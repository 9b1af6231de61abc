"""Shared fixtures and factories for the test suite."""

from __future__ import annotations

import os

import pytest

from repro import ClusterBuilder, LoadGenerator, NodeConfig, WorkloadConfig
from repro.gcs.config import GCSConfig
from repro.gcs.member import GroupMember
from repro.net.latency import FixedLatency
from repro.net.network import Network
from repro.sim.core import Simulator


class RecordingApp:
    """Minimal GCS application that records everything it sees."""

    def __init__(self, name: str = "?", universe_size: int = 0) -> None:
        self.name = name
        self.universe_size = universe_size
        self.views = []
        self.messages = []  # (gseq, sender, payload)
        self.primary_messages = []  # same, only while in a primary view
        self.states_seen = []
        self._in_primary = False

    def on_view_change(self, view, states) -> None:
        self.views.append(view)
        self.states_seen.append(states)
        if self.universe_size:
            self._in_primary = view.is_primary(self.universe_size)

    def on_message(self, sender, payload, gseq) -> None:
        self.messages.append((gseq, sender, payload))
        if self._in_primary:
            self.primary_messages.append((gseq, sender, payload))

    def flush_state(self):
        return {}

    def payloads(self):
        return [payload for _, _, payload in self.messages]


def make_group(n: int = 3, seed: int = 1, latency: float = 0.001, config: GCSConfig = None):
    """A simulator + network + n started GroupMembers with recording apps."""
    sim = Simulator(seed=seed)
    network = Network(sim, latency=FixedLatency(latency))
    universe = tuple(f"S{i + 1}" for i in range(n))
    apps = {node: RecordingApp(node, universe_size=n) for node in universe}
    members = {
        node: GroupMember(sim, network, node, universe, config or GCSConfig(), apps[node])
        for node in universe
    }
    for member in members.values():
        member.start()
    return sim, network, members, apps


def settle_group(sim, until: float = 2.0) -> None:
    sim.run(until=until)


@pytest.fixture
def small_group():
    return make_group(3)


def _backend_params():
    """Backends the conformance suites run against.

    Default is both non-default backends (``vs`` is exercised by the
    unparameterised bulk of the suite); setting ``REPRO_BACKEND`` pins a
    single backend — the CI backend-matrix job uses this to split the
    conformance runs across jobs.
    """
    forced = os.environ.get("REPRO_BACKEND")
    if forced:
        return (forced,)
    return ("evs", "logless")


@pytest.fixture(params=_backend_params())
def backend(request):
    """Parameterises a test over reconfiguration backends (the
    cross-backend conformance harness — docs/RECONFIG_BACKENDS.md).

    Tests take ``backend`` and pass it to :func:`quick_cluster` /
    ``ClusterBuilder``; every backend must satisfy the same protocol
    semantics."""
    return request.param


@pytest.fixture
def activation_monitor(monkeypatch):
    """Every cluster built during the test is watched by
    :func:`tests.monitors.activation_monitor`: a site activated on stale
    data fails the test at the activation.  Suites opt in with
    ``pytestmark = pytest.mark.usefixtures("activation_monitor")``.

    The listener rides on the tracer, so it is re-added whenever a
    scenario swaps in a tracer of its own (``attach_tracer``)."""
    from repro import tracing
    from tests.monitors import activation_monitor as monitor_for

    real_attach, real_build = tracing.attach_tracer, ClusterBuilder.build

    def attach_tracer(cluster):
        tracer = real_attach(cluster)
        tracer.add_listener(monitor_for(cluster))
        return tracer

    def build(builder):
        cluster = real_build(builder)
        attach_tracer(cluster)
        return cluster

    monkeypatch.setattr(tracing, "attach_tracer", attach_tracer)
    monkeypatch.setattr(ClusterBuilder, "build", build)


class DropMessages:
    """Network fault injector: drop every message of the given types on
    the given directed site links, ``{(src, dst): (type, ...)}``.  Cuts a
    single kind of traffic — the batches one member would receive, the
    acks another would send — where a partition would cut it all."""

    def __init__(self, rules) -> None:
        self.rules = rules

    def transform(self, src, dst, payload, delays, rng, now):
        kinds = self.rules.get((src.split(":")[0], dst.split(":")[0]), ())
        return [] if isinstance(payload, kinds) else delays


def quick_cluster(**kwargs):
    """A started, bootstrapped cluster with sensible test defaults."""
    defaults = dict(n_sites=3, db_size=40, seed=42, strategy="rectable")
    defaults.update(kwargs)
    cluster = ClusterBuilder(**defaults).build()
    cluster.start()
    assert cluster.await_all_active(timeout=10), "cluster failed to bootstrap"
    return cluster


def run_load(cluster, duration: float = 1.0, rate: float = 100.0, reads: int = 1, writes: int = 2):
    """Drive a workload for ``duration`` and settle; returns the generator."""
    load = LoadGenerator(
        cluster, WorkloadConfig(arrival_rate=rate, reads_per_txn=reads, writes_per_txn=writes)
    )
    load.start()
    cluster.run_for(duration)
    load.stop()
    cluster.settle(0.5)
    return load
