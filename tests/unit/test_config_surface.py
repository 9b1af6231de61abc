"""Every field of ``NodeConfig`` and ``WorkloadConfig`` is an option some
caller turns.

A value that no workload, benchmark, example or tool sets is a named
constant next to the code that reads it, not a field (DESIGN.md, "What
is an option").  This walks the syntax trees of the code outside
``tests/`` and fails, naming the fields, when a field is set nowhere: by
keyword to the class, by keyword to ``dataclasses.replace``, or as a key
of a sweep cell's ``node_config`` dict.
"""

import ast
import dataclasses
from pathlib import Path

from repro.replication.node import NodeConfig
from repro.workload.generator import WorkloadConfig

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "perf", "benchmarks", "tools", "examples")

#: Fields no caller sets that stay fields anyway, with the reason.
EXEMPT = {
    "transfer_compression": (
        "ROADMAP item 12: perf/layers.py imports its codec, so whether "
        "it stays is the benchmark PR's decision"),
}


def _callee(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _fields_set(class_name: str) -> set:
    names = set()
    for path in sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _callee(node) in (class_name, "replace"):
                names.update(kw.arg for kw in node.keywords if kw.arg)
            elif class_name == "NodeConfig" and isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    if (isinstance(key, ast.Constant) and key.value == "node_config"
                            and isinstance(value, ast.Dict)):
                        names.update(k.value for k in value.keys
                                     if isinstance(k, ast.Constant))
    return names


def test_every_config_field_is_set_by_some_caller():
    unset = []
    for config_class in (NodeConfig, WorkloadConfig):
        used = _fields_set(config_class.__name__)
        unset += [f"{config_class.__name__}.{field.name}"
                  for field in dataclasses.fields(config_class)
                  if field.name not in used and field.name not in EXEMPT]
    assert not unset, (
        f"{len(unset)} option(s) no caller outside tests/ sets; make each a "
        f"constant next to its reader: {', '.join(unset)}")


def test_the_exemption_is_a_field_no_caller_sets():
    assert set(EXEMPT) <= {field.name for field in dataclasses.fields(NodeConfig)}
    assert not set(EXEMPT) & _fields_set("NodeConfig")
