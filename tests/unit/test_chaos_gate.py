"""The chaos fleet gate (``tools/chaos_gate.py``): a failure must be
listed, a listed failure must fail the way it is listed, a listed storm
that passes must be removed, and so must an entry for a cell the gate
does not run."""

import importlib.util
import os

import pytest

from repro.reconfig.backends import ALL_BACKEND_NAMES
from repro.reconfig.strategies import ALL_STRATEGY_NAMES

TOOLS = os.path.join(os.path.dirname(__file__), "..", "..", "tools")


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location(
        "chaos_gate", os.path.join(TOOLS, "chaos_gate.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CELL = ("evs", "lazy", 0, 7)
KNOWN = {CELL: {"mode": "evs", "strategy": "lazy", "clients": 0, "seed": 7,
                "error": "quiesce timeout", "class": "liveness",
                "first_wrong_step": "..."}}


def test_listed_failure_that_fails_as_listed_passes_the_gate(gate):
    results = {("evs", "lazy", 0, 6): {"ok": True},
               CELL: {"ok": False, "error": "final quiesce quiesce timeout: S1"}}
    assert gate.problems(results, KNOWN) == []


def test_unlisted_failure_fails_the_gate(gate):
    other = ("evs", "lazy", 0, 8)
    results = {CELL: {"ok": False, "error": "quiesce timeout"},
               other: {"ok": False, "error": "x"}}
    assert gate.problems(results, KNOWN) == [
        "evs lazy clients=0 seed 8: unlisted failure: x"]
    # The same seed under another backend, strategy or client column is
    # another cell: unlisted.
    for cell in (("vs", "lazy", 0, 7), ("evs", "full", 0, 7), ("evs", "lazy", 6, 7)):
        bad = gate.problems({CELL: results[CELL], cell: results[CELL]}, KNOWN)
        assert bad == [f"{gate.label(cell)}: unlisted failure: quiesce timeout"]


def test_listed_seed_failing_differently_fails_the_gate(gate):
    results = {CELL: {"ok": False, "error": "gid 3 bound to two different transactions"}}
    (line,) = gate.problems(results, KNOWN)
    assert "bound to two different transactions" in line


def test_listed_seed_that_passes_fails_the_gate(gate):
    (line,) = gate.problems({CELL: {"ok": True}}, KNOWN)
    assert "passes now" in line


def test_listed_cell_the_gate_does_not_run_fails_the_gate(gate):
    """Nothing re-checks an entry outside the gate's cells, so it could
    stay listed forever: the list would name a failure that no longer
    reproduces."""
    (line,) = gate.problems({("evs", "lazy", 0, 6): {"ok": True}}, KNOWN)
    assert line.startswith("evs lazy clients=0 seed 7: ")
    assert "does not run this cell" in line


def test_the_gate_runs_every_strategy_and_backend(gate):
    assert set(gate.STRATEGIES) == set(ALL_STRATEGY_NAMES)
    assert set(gate.MODES) == set(ALL_BACKEND_NAMES)
    assert (gate.CLIENT_STRATEGY, gate.CLIENTS) in gate.COLUMNS
    assert {strategy for strategy, clients in gate.COLUMNS if clients == 0} == set(
        ALL_STRATEGY_NAMES)


def test_cells_list_every_storm_once_keyed_by_its_label(gate):
    """The gate's one fleet, which ``audit_against.py --gate`` also runs."""
    tasks = gate.cells()
    assert len(tasks) == len(gate.COLUMNS) * len(gate.MODES) * len(gate.SEEDS) == 2100
    assert list(tasks)[:2] == [("vs", "full", 0, 0), ("vs", "full", 0, 1)]
    for (mode, strategy, clients, seed), task in tasks.items():
        assert task.key == gate.label((mode, strategy, clients, seed))
        assert task.kind == "chaos"
        assert task.params == {"seed": seed, "mode": mode,
                               "strategy": strategy, "clients": clients}


def test_committed_list_is_well_formed(gate):
    known = gate.load_known(gate.KNOWN)
    for (mode, strategy, clients, seed), entry in known.items():
        assert mode in gate.MODES and seed in gate.SEEDS
        assert (strategy, clients) in gate.COLUMNS
        assert entry["error"] and entry["class"] and entry["first_wrong_step"]
        assert "bound to two different transactions" not in entry["error"]


@pytest.fixture(scope="module")
def audit_against():
    spec = importlib.util.spec_from_file_location(
        "audit_against", os.path.join(TOOLS, "audit_against.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


STORM = {"ok": True, "error": None, "trace_digest": "t", "schedule_digest": "s",
         "epochs": {"count": 1}, "metrics": {"txn.commits": 3}}


@pytest.mark.parametrize("key, value", [
    ("ok", False), ("error", "boom"), ("trace_digest", "t2"),
    ("schedule_digest", "s2"), ("epochs", {"count": 2}),
    ("metrics", {"txn.commits": 4}), ("fleet_error", "Traceback"),
])
def test_gate_comparison_flags_a_difference_in_any_compared_key(audit_against, key, value):
    """``audit_against.py --gate``: identical storms pass, a storm that
    differs in one compared key, or runs on one tree only, does not."""
    ours = {"vs full clients=0 seed 0": STORM, "vs full clients=0 seed 1": STORM}
    assert audit_against.compare_gate(ours, dict(ours))[1] == 0
    theirs = {**ours, "vs full clients=0 seed 1": {**STORM, key: value}}
    lines, differing = audit_against.compare_gate(ours, theirs)
    text = "\n".join(lines)
    assert differing == 1 and f"seed 1: DIFFERS in {key}" in text
    # The line under it names what differs, with both values; inside
    # ``epochs`` and ``metrics`` that is the entry's own name.
    expected = {"epochs": "epochs.count: this=1 other=2",
                "metrics": "metrics.txn.commits: this=3 other=4"}.get(
        key, f"{key}: this={STORM.get(key)!r} other={value!r}")
    assert f"    {expected}" in lines
    assert audit_against.compare_gate(ours, {"vs full clients=0 seed 0": STORM})[1] == 1


def _cell(state="s", trace=("  0.100  S1    view     install  V1",)):
    return {"digests": {"state": state, "trace": "t"}, "counters": {"commits": 3},
            "materials": {"trace": list(trace)}}


def test_cell_comparison_lists_one_tree_cells_apart_and_passes_them(audit_against):
    """``audit_against.py`` cell mode: an audit case only one tree has is
    listed in its own block and counted, and does not fail the run; a
    shared cell that differs still does."""
    ours = {"bench:figure1::a": _cell(), "chaos:vs:3::a": _cell()}
    theirs = {"bench:figure1::a": _cell(), "bench:chaos::a": _cell()}
    lines, differing = audit_against.compare_cells(ours, theirs, "OTHER")
    assert differing == 0
    assert "bench:figure1::a: same" in lines
    block = lines.index("cells only one tree holds:")
    assert lines[block + 1:block + 3] == [
        "    bench:chaos::a: only in the other tree",
        "    chaos:vs:3::a: only in the this tree"]
    assert lines[-1] == ("1 cells compared against OTHER, 2 in one tree only: "
                         "every digest and counter identical")

    theirs["bench:figure1::a"] = _cell(state="s2")
    lines, differing = audit_against.compare_cells(ours, theirs, "OTHER")
    assert differing == 1
    assert "bench:figure1::a: DIFFERS" in lines
    assert "    state: this='s' other='s2'" in lines

    # A trace difference alone is informational.
    theirs["bench:figure1::a"] = _cell(trace=())
    lines, differing = audit_against.compare_cells(ours, theirs, "OTHER")
    assert differing == 0 and "bench:figure1::a: same (trace differs)" in lines
