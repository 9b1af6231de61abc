"""Tripwire for the instrumentation seam: observers attach by setting
plain nullable attributes (``tracer``, ``obs``, ``profiler``), never by
re-assigning a method on a live object — a wrapped method silently stops
reporting when protocol code is renamed or split.  And metrics are
pulled: no protocol layer carries an observability hook."""

import ast
import inspect
import pathlib

import pytest

import repro
from repro import ClusterBuilder
from repro.obs import attach_observability, attach_profiler
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
    obs = attach_observability(cluster)
    attach_profiler(cluster)
    if not attach_after_start:
        cluster.start()
    assert cluster.await_all_active(timeout=15)
    assert shadowed_methods(cluster) == []

    # A restart rebuilds the Database; the site stays observed without
    # anyone re-attaching.
    node = cluster.nodes["S3"]
    assert node.obs is obs
    cluster.crash("S3")
    cluster.run_for(0.3)
    cluster.recover("S3")
    assert node.obs is obs
    assert cluster.await_condition(
        lambda: node.status is SiteStatus.ACTIVE, timeout=30)
    assert shadowed_methods(cluster) == []
    assert obs.tracer.of("status", site="S3", kind="down")


#: Packages that keep plain counters only; the collector reads them.
#: ``search/`` and ``faults/`` are harness code: they import
#: ``repro.obs.epochs`` and hold the report's ``obs`` handle.
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
