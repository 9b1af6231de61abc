"""Tripwire for the backend seam: ``replication/node.py`` does not know
which reconfiguration backend it runs under.

Who is up to date is decided differently under plain VS (announcements,
section 5.1), EVS (primary-subview membership, section 5.2) and the
logless backend (config membership) while replica control stays the
same — so that decision lives in the managers, the group-communication
handle comes from the registry entry, and a new backend is added
without editing the node (docs/RECONFIG_BACKENDS.md, "Adding a
backend").  The second part builds every registered name through the
one selector the library has; the third keeps the reconfiguration rules
the backends share at one copy each (DESIGN.md, "Rules, one copy each").
"""

import ast
import inspect
from pathlib import Path

import pytest

from repro import ClusterBuilder, reconfig
from repro.faults import ChaosConfig, ChaosEngine
from repro.reconfig.backends import ALL_BACKEND_NAMES
from repro.replication import node as node_module

TREE = ast.parse(inspect.getsource(node_module))
RECONFIG_DIR = Path(reconfig.__file__).parent
RECONFIG = {path.relative_to(RECONFIG_DIR).as_posix(): ast.parse(path.read_text())
            for path in RECONFIG_DIR.rglob("*.py")}


def node_class():
    return next(item for item in TREE.body
                if isinstance(item, ast.ClassDef)
                and item.name == "ReplicatedDatabaseNode")


def test_node_imports_neither_the_evs_layer_nor_the_managers():
    imported = []
    for item in ast.walk(TREE):
        if isinstance(item, ast.ImportFrom):
            imported.append(item.module)
        elif isinstance(item, ast.Import):
            imported += [alias.name for alias in item.names]
    assert not [name for name in imported
                if name == "repro.gcs.evs" or name.startswith("repro.reconfig")]


def test_node_has_no_mode_and_names_nothing_of_evs():
    parameters = {arg.arg for item in ast.walk(node_class())
                  if isinstance(item, (ast.FunctionDef, ast.Lambda))
                  for arg in item.args.args + item.args.kwonlyargs}
    attributes = {item.attr for item in ast.walk(TREE)
                  if isinstance(item, ast.Attribute)}
    names = {item.id for item in ast.walk(TREE) if isinstance(item, ast.Name)}
    assert "mode" not in parameters | attributes
    assert not {"evs_member", "EView"} & (parameters | attributes | names)


@pytest.mark.parametrize("callback", ("on_view_change", "on_eview_change"))
def test_gcs_membership_callbacks_are_one_statement_forwards(callback):
    """The app interface ``GroupMember`` / ``EnrichedGroupMember`` call
    stays on the node, but only as a forward to the manager."""
    method = next(item for item in node_class().body
                  if isinstance(item, ast.FunctionDef) and item.name == callback)
    body = [statement for statement in method.body
            if not (isinstance(statement, ast.Expr)
                    and isinstance(statement.value, ast.Constant))]  # docstring
    assert len(body) == 1
    call = body[0].value
    assert isinstance(body[0], ast.Expr) and isinstance(call, ast.Call)
    assert ast.unparse(call.func) == f"self.reconfig.{callback}"
    assert [ast.unparse(arg) for arg in call.args] == [
        arg.arg for arg in method.args.args[1:]]


@pytest.mark.parametrize("name", ALL_BACKEND_NAMES)
def test_every_backend_builds_through_the_same_call(name):
    cluster = ClusterBuilder(n_sites=3, db_size=20, seed=5, mode=name).build()
    cluster.start()
    assert cluster.await_all_active(timeout=10)
    assert cluster.sim.now <= 1.0
    assert {node.reconfig.backend_name for node in cluster.nodes.values()} == {name}
    cluster.submit_via("S1", ["obj1"], {"obj0": 1})
    cluster.settle(0.2)
    cluster.check()


@pytest.mark.parametrize("name", ALL_BACKEND_NAMES)
def test_every_backend_runs_a_campaign_through_the_same_config(name):
    config = ChaosConfig(seed=1, n_sites=3, db_size=20, duration=1.0, mode=name)
    report = ChaosEngine(config).run()
    assert report.ok, report.error


# ----------------------------------------------------------------------
# Rules the backends share: one copy each, in reconfig/manager.py
# ----------------------------------------------------------------------
def methods_where(found):
    """``file:method`` of every function under ``src/repro/reconfig``
    with a node ``found`` accepts."""
    return sorted(
        f"{name}:{function.name}"
        for name, tree in RECONFIG.items()
        for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
        if any(found(item) for item in ast.walk(function)))


def reads(attribute):
    return lambda item: isinstance(item, ast.Attribute) and item.attr == attribute


def test_logless_leaves_the_marker_effect_to_the_shared_rule():
    """What an up-to-date marker does is ``_became_up_to_date``; the
    logless CAS apply hands it the joined sites and repeats none of it."""
    tree = RECONFIG["logless.py"]
    assigned = {item.attr for item in ast.walk(tree)
                if isinstance(item, ast.Attribute) and isinstance(item.ctx, ast.Store)}
    called = {item.func.attr for item in ast.walk(tree)
              if isinstance(item, ast.Call) and isinstance(item.func, ast.Attribute)}
    assert "enqueue_mode" not in assigned
    assert not called & {"note_up_to_date", "cancel_session",
                         "maybe_activate", "on_activated"}
    assert "_became_up_to_date" in called


def test_enqueue_mode_has_one_writer_per_reason():
    writers = methods_where(
        lambda item: isinstance(item, ast.Assign)
        and ast.unparse(item) == "self.enqueue_mode = True")
    assert writers == ["manager.py:_enqueue_from_sync_point",
                       "manager.py:_on_last_round_start"]


def test_view_change_rules_are_read_in_one_method_each():
    def peer_left(item):
        return (isinstance(item, ast.Compare) and ast.unparse(item).startswith(
            "self.joiner_session.peer not in"))

    assert methods_where(reads("last_install_missed")) == [
        "manager.py:_joiner_view_rule"]
    assert methods_where(peer_left) == ["manager.py:_joiner_view_rule"]
    # The vs backend's override of the flushed claims must not mark a
    # member up to date that the round found stale: the node applies the
    # stale list first, and the EVS structure, which outranks it, last.
    assert methods_where(reads("stale_members")) == [
        "logless.py:_coordinator_repair", "manager.py:_joiner_lost",
        "manager.py:view_up_to_date"]
