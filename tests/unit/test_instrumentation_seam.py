"""Tripwire for the instrumentation seam: observers attach by setting
plain attributes (``tracer``, ``trace_txns``, ``profiler``), never by
re-assigning a method on a live object — a wrapped method silently stops
reporting when protocol code is renamed or split.  Metrics are pulled:
no protocol layer carries an observability hook.  And each run fact is
kept once and read one way: a transfer counter lives on the manager
only, and reports take counters from ``collect_cluster_metrics``."""

import ast
import inspect
import pathlib

import pytest

import repro
import repro.obs
from repro import ClusterBuilder, scenarios
from repro.obs import attach_observability, attach_profiler
from repro.reconfig import transfer
from repro.replication.node import SiteStatus


def shadowed_methods(cluster):
    """``owner.attribute`` for every instance attribute that hides a
    function defined on the object's class."""
    owners = {"network": cluster.network}
    for site, node in cluster.nodes.items():
        owners.update({
            site: node,
            f"{site}.reconfig": node.reconfig,
            f"{site}.member": node.member,
            f"{site}.gcs": node.gcs,
            f"{site}.db.locks": node.db.locks,
        })
    return sorted(
        f"{label}.{name}"
        for label, owner in owners.items()
        for name in getattr(owner, "__dict__", ())
        if inspect.isfunction(inspect.getattr_static(type(owner), name, None))
    )


@pytest.mark.parametrize("attach_after_start", (False, True))
@pytest.mark.parametrize("backend", ("vs", "evs", "logless"))
def test_attaching_observers_patches_no_method(backend, attach_after_start):
    cluster = ClusterBuilder(n_sites=3, db_size=20, seed=3,
                             mode=backend).build()
    if attach_after_start:
        cluster.start()
    tracer = attach_observability(cluster)
    attach_profiler(cluster)
    if not attach_after_start:
        cluster.start()
    assert cluster.await_all_active(timeout=15)
    assert shadowed_methods(cluster) == []

    # A restart rebuilds the Database; the site stays observed without
    # anyone re-attaching.
    node = cluster.nodes["S3"]
    assert node.trace_txns and node.tracer is tracer
    cluster.crash("S3")
    cluster.run_for(0.3)
    cluster.recover("S3")
    assert node.trace_txns and node.tracer is tracer
    assert cluster.await_condition(
        lambda: node.status is SiteStatus.ACTIVE, timeout=30)
    assert shadowed_methods(cluster) == []
    assert tracer.of("status", site="S3", kind="down")


#: Packages that keep plain counters only; the collector reads them.
#: ``search/`` and ``faults/`` are harness code: they import
#: ``repro.obs`` to attach it and to read its epochs and metrics.
PULLED_PACKAGES = ("net", "gcs", "db", "reconfig", "client", "sim")


def obs_references(path):
    """Imports of ``repro.obs`` and ``obs``/``to_obs`` attribute names."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            modules = []
        found += [f"import {m}" for m in modules
                  if m == "repro.obs" or m.startswith("repro.obs.")]
        if isinstance(node, ast.Attribute) and node.attr in ("obs", "to_obs"):
            found.append(f"line {node.lineno}: .{node.attr}")
    return found


def test_protocol_layers_carry_no_metrics_hooks():
    root = pathlib.Path(repro.__file__).parent
    offenders = {
        str(path.relative_to(root)): refs
        for package in PULLED_PACKAGES
        for path in sorted((root / package).rglob("*.py"))
        if (refs := obs_references(path))
    }
    assert offenders == {}


def test_no_observability_handle():
    """Attaching sets the tracer and a boolean; there is no handle
    object wrapping the cluster and tracer its callers already hold."""
    assert not hasattr(repro.obs, "Observability")
    assert "Observability" not in repro.obs.__all__
    cluster = ClusterBuilder(n_sites=3, db_size=10, seed=1).build()
    attach_observability(cluster)
    assert not hasattr(cluster, "obs")
    assert [site for site, node in cluster.nodes.items()
            if hasattr(node, "obs") or node.trace_txns is not True] == []


#: Counters the managers, memberships and lock managers keep, which only
#: ``collect_cluster_metrics`` reads.
COLLECTED_COUNTERS = {
    "transfers_started", "transfers_completed", "announcements_sent",
    "replayed_transactions", "svs_merges_issued", "sv_merges_issued",
    "wait_times",
}


def test_scenario_reports_read_counters_through_the_collector():
    tree = ast.parse(inspect.getsource(scenarios))
    reads = sorted(
        f"line {item.lineno}: {ast.unparse(item)}"
        for item in ast.walk(tree)
        if (isinstance(item, ast.Attribute)
            and not (isinstance(item.value, ast.Name) and item.value.id == "self")
            and (item.attr in COLLECTED_COUNTERS or item.attr.endswith("_total")))
        or (isinstance(item, ast.Call) and ast.unparse(item.func) == "getattr"
            and len(item.args) > 1 and isinstance(item.args[1], ast.Constant)
            and item.args[1].value in COLLECTED_COUNTERS))
    assert reads == []


def test_transfer_sessions_keep_no_counter():
    """A transfer count is kept once, on the manager: no class of
    ``reconfig/transfer.py`` assigns a counter of its own (a public
    attribute it increments, or one named like a collected total)."""
    session_copies = {"objects_sent", "bytes_sent", "retransmissions",
                      "objects_received", "bytes_received"}
    tree = ast.parse(inspect.getsource(transfer))
    assigned = []
    for cls in (item for item in tree.body if isinstance(item, ast.ClassDef)):
        for item in ast.walk(cls):
            if isinstance(item, ast.Assign):
                targets = item.targets
            elif isinstance(item, (ast.AnnAssign, ast.AugAssign)):
                targets = [item.target]
            else:
                continue
            for target in targets:
                if not (isinstance(target, ast.Attribute)
                        and ast.unparse(target.value) == "self"):
                    continue
                name = target.attr
                if (name in session_copies or name in COLLECTED_COUNTERS
                        or name.endswith("_total")
                        or (isinstance(item, ast.AugAssign) and not name.startswith("_"))):
                    assigned.append(f"{cls.name}.{name} (line {item.lineno})")
    assert assigned == []
