"""The chaos fleet gate (``tools/chaos_gate.py``): a failure must be
listed, a listed failure must fail the way it is listed, and a listed
seed that passes must be removed."""

import importlib.util
import os

import pytest

TOOLS = os.path.join(os.path.dirname(__file__), "..", "..", "tools")


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location(
        "chaos_gate", os.path.join(TOOLS, "chaos_gate.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


KNOWN = {("evs", 7): {"mode": "evs", "seed": 7, "error": "quiesce timeout",
                      "class": "liveness", "first_wrong_step": "..."}}


def test_listed_failure_that_fails_as_listed_passes_the_gate(gate):
    results = {6: {"ok": True}, 7: {"ok": False, "error": "final quiesce quiesce timeout: S1"}}
    assert gate.problems("evs", results, KNOWN) == []


def test_unlisted_failure_fails_the_gate(gate):
    results = {7: {"ok": False, "error": "quiesce timeout"}, 8: {"ok": False, "error": "x"}}
    assert gate.problems("evs", results, KNOWN) == ["evs 8: unlisted failure: x"]
    assert len(gate.problems("vs", {7: results[7]}, KNOWN)) == 1


def test_listed_seed_failing_differently_fails_the_gate(gate):
    results = {7: {"ok": False, "error": "gid 3 bound to two different transactions"}}
    (line,) = gate.problems("evs", results, KNOWN)
    assert "bound to two different transactions" in line


def test_listed_seed_that_passes_fails_the_gate(gate):
    (line,) = gate.problems("evs", {7: {"ok": True}}, KNOWN)
    assert "passes now" in line


def test_committed_list_is_well_formed(gate):
    known = gate.load_known(gate.KNOWN)
    for (mode, seed), entry in known.items():
        assert mode in ("vs", "evs", "logless") and isinstance(seed, int)
        assert entry["error"] and entry["class"] and entry["first_wrong_step"]
        assert "bound to two different transactions" not in entry["error"]
