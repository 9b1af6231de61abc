#!/usr/bin/env python3
"""Is this tree's behaviour identical to another tree's?  One command.

    python tools/audit_against.py OTHER_SRC_DIR [--case ID ...] [--report FILE]
    python tools/audit_against.py OTHER_SRC_DIR --gate [--report FILE]

Runs ``repro.audit.execute_variant(case, variant, materials=True)`` for
every pinned audit case x variant (the determinism twin ``b`` excepted:
``repro audit`` already compares it with ``a``) on two source trees —
this checkout's ``src`` and ``OTHER_SRC_DIR``, typically the ``src`` of a
clone of the parent commit — one subprocess per tree with
``PYTHONHASHSEED=0``, and compares cell by cell:

* the ``state`` / ``history`` / ``aborts`` / ``schedule`` digests and the
  six counters: any difference is printed by key and makes the exit
  status non-zero;
* the trace, as a multiset of lines: lines only one tree emits are listed
  grouped by ``(category, kind, detail)`` with counts.  A trace
  difference alone is informational (exit 0) — a change that adds an
  event differs here on purpose, but visibly.

A cell only one tree runs (an audit case added or removed) is listed in
a block of its own and counted in the summary line; it does not change
the exit status.

``--gate`` compares the chaos gate instead: every storm of
``tools/chaos_gate.py`` (``COLUMNS x MODES x SEEDS``, 2 100 storms, two
workers) on both trees, one tree after the other, each with
``PYTHONHASHSEED=0``.  A storm's ``ok``, ``error``, ``trace_digest``,
``schedule_digest``, ``epochs`` and ``metrics`` must be identical; any
difference is printed per storm — for ``epochs`` and ``metrics`` each
entry that differs, with both values — and makes the exit status
non-zero.

``repro audit`` answers "is a run a pure function of its seed"; this
answers "did my change move any of those runs".
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

TOOLS = os.path.dirname(os.path.abspath(__file__))
HERE_SRC = os.path.join(os.path.dirname(TOOLS), "src")

#: ``str(TraceEvent)``: time, site, category, kind, then the detail after
#: two spaces (absent when empty).
_TRACE_LINE = re.compile(r"\s*[\d.]+\s+\S+\s+(\S+)\s+(\S+)(?:  (.*))?$")


def collect(case_ids: Optional[List[str]], out_path: str) -> None:
    """Child mode: run every cell on whatever ``repro`` PYTHONPATH names."""
    from repro import audit

    cells: Dict[str, Any] = {}
    for case_id in case_ids or list(audit.CASES):
        for variant in audit._variants_of(audit.CASES[case_id]):
            if variant != "b":
                cells[f"{case_id}::{variant}"] = audit.execute_variant(
                    case_id, variant, materials=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(cells, handle)


#: What a gate storm's payload must reproduce.
GATE_KEYS = ("ok", "error", "trace_digest", "schedule_digest", "epochs", "metrics")


def collect_gate(out_path: str) -> None:
    """Child mode: run every chaos gate storm on whatever ``repro``
    PYTHONPATH names, keyed by the gate's storm label."""
    sys.path.insert(0, TOOLS)
    import chaos_gate
    from repro.fleet import FleetTask, run_fleet

    tasks = [FleetTask(key=chaos_gate.label((mode, strategy, clients, seed)),
                       kind="chaos",
                       params={"seed": seed, "mode": mode, "strategy": strategy,
                               "clients": clients})
             for strategy, clients in chaos_gate.COLUMNS
             for mode in chaos_gate.MODES for seed in chaos_gate.SEEDS]
    payloads = run_fleet(tasks, jobs=chaos_gate.JOBS)
    cells = {key: {name: payload.get(name) for name in GATE_KEYS + ("fleet_error",)
                   if name in payload}
             for key, payload in payloads.items()}
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(cells, handle)


def compare_gate(ours: Dict[str, Any], theirs: Dict[str, Any]) -> Tuple[List[str], int]:
    """Report lines and the number of storms that differ."""
    lines: List[str] = []
    differing = 0
    for cell in sorted(set(ours) | set(theirs)):
        if cell not in ours or cell not in theirs:
            differing += 1
            lines.append(f"{cell}: only in the {'this' if cell in ours else 'other'} tree")
            continue
        keys = [key for key in GATE_KEYS + ("fleet_error",)
                if ours[cell].get(key) != theirs[cell].get(key)]
        if keys:
            differing += 1
            lines.append(f"{cell}: DIFFERS in {', '.join(keys)}")
            for key in keys:
                mine, other = ours[cell].get(key), theirs[cell].get(key)
                if key in ("epochs", "metrics") and mine and other:
                    # The two dicts: name each entry that differs.
                    lines.extend(f"    {key}.{name}: this={mine.get(name)!r} "
                                 f"other={other.get(name)!r}"
                                 for name in sorted(set(mine) | set(other))
                                 if mine.get(name) != other.get(name))
                else:
                    lines.append(f"    {key}: this={mine!r} other={other!r}")
    passed = sum(1 for payload in ours.values() if payload.get("ok"))
    lines.append(f"{len(ours)} gate storms compared ({passed} pass here): "
                 + (f"{differing} differ" if differing else "every payload identical"))
    return lines, differing


def _spawn(src_dir: str, case_ids: Optional[List[str]], out_path: str,
           gate: bool = False) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=src_dir, PYTHONHASHSEED="0")
    command = [sys.executable, os.path.abspath(__file__),
               "--collect-gate" if gate else "--collect", out_path]
    for case_id in case_ids or ():
        command += ["--case", case_id]
    return subprocess.Popen(command, env=env)


def _load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _emit(report: str, path: Optional[str]) -> None:
    print(report)
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")


def trace_difference(ours: List[str], theirs: List[str]) -> Tuple[Counter, Counter]:
    """(lines only this tree emits, lines only the other tree emits),
    each counted per ``(category, kind, detail)``."""
    def grouped(lines: Counter) -> Counter:
        groups: Counter = Counter()
        for line, count in lines.items():
            match = _TRACE_LINE.match(line)
            key = match.groups("") if match else ("?", "?", line)
            groups[key] += count
        return groups

    mine, other = Counter(ours), Counter(theirs)
    return grouped(mine - other), grouped(other - mine)


def compare_cell(ours: Dict[str, Any], theirs: Dict[str, Any]) -> Tuple[List[str], Counter]:
    """The protocol differences of one cell as lines, and its trace
    difference as ``(sign, category, kind, detail) -> count``."""
    for payload, name in ((ours, "this tree"), (theirs, "other tree")):
        if "fleet_error" in payload:
            return [f"{name} crashed: {payload['fleet_error']}"], Counter()
    protocol = []
    for section in ("digests", "counters"):
        mine, other = ours.get(section, {}), theirs.get(section, {})
        for key in sorted(set(mine) | set(other)):
            if key != "trace" and mine.get(key) != other.get(key):
                protocol.append(f"{key}: this={mine.get(key)!r} other={other.get(key)!r}")
    added, removed = trace_difference(ours["materials"]["trace"],
                                      theirs["materials"]["trace"])
    trace = Counter({(sign, *group): count
                     for sign, groups in (("+", added), ("-", removed))
                     for group, count in groups.items()})
    return protocol, trace


def trace_lines(trace: Counter) -> List[str]:
    return [f"{sign} {count:5d}  {category}/{kind}  {detail}".rstrip()
            for (sign, category, kind, detail), count in sorted(trace.items())]


def compare_cells(ours: Dict[str, Any], theirs: Dict[str, Any],
                  other_name: str) -> Tuple[List[str], int]:
    """Report lines and the number of shared cells with a non-trace
    difference.  A cell only one tree holds (an audit case added or
    removed) is listed in its own block and counted, but is no
    difference: there is nothing to compare it with."""
    lines: List[str] = []
    differing = 0
    trace_totals: Counter = Counter()
    shared = sorted(set(ours) & set(theirs))
    for cell in shared:
        protocol, trace = compare_cell(ours[cell], theirs[cell])
        differing += bool(protocol)
        verdict = "DIFFERS" if protocol else ("same" if not trace else
                                              "same (trace differs)")
        lines.append(f"{cell}: {verdict}")
        lines.extend(f"    {line}" for line in protocol + trace_lines(trace))
        trace_totals += trace
    if trace_totals:
        lines.append("trace lines over all cells (+ only here, - only there):")
        lines.extend(f"    {line}" for line in trace_lines(trace_totals))
    one_tree = sorted(set(ours) ^ set(theirs))
    if one_tree:
        lines.append("cells only one tree holds:")
        lines.extend(f"    {cell}: only in the "
                     f"{'this' if cell in ours else 'other'} tree"
                     for cell in one_tree)
    lines.append(f"{len(shared)} cells compared against {other_name}, "
                 f"{len(one_tree)} in one tree only: "
                 + (f"{differing} with a non-trace difference" if differing
                    else "every digest and counter identical"))
    return lines, differing


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other_src", nargs="?", metavar="OTHER_SRC_DIR",
                        help="src directory of the tree to compare against")
    parser.add_argument("--case", action="append", dest="cases", metavar="ID",
                        help="audit case id (repeatable; default: all)")
    parser.add_argument("--report", metavar="FILE",
                        help="also write the report to this file")
    parser.add_argument("--gate", action="store_true",
                        help="compare every chaos gate storm instead of the audit cells")
    parser.add_argument("--collect", metavar="OUT", help=argparse.SUPPRESS)
    parser.add_argument("--collect-gate", metavar="OUT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        collect(args.cases, args.collect)
        return 0
    if args.collect_gate:
        collect_gate(args.collect_gate)
        return 0
    if args.gate and args.cases:
        parser.error("--gate runs every gate storm; it takes no --case")
    if not args.other_src:
        parser.error("OTHER_SRC_DIR is required")
    if not os.path.isdir(os.path.join(args.other_src, "repro")):
        parser.error(f"{args.other_src!r} holds no 'repro' package "
                     f"(pass the tree's src directory)")

    with tempfile.TemporaryDirectory() as tmp:
        paths = {"this": os.path.join(tmp, "this.json"),
                 "other": os.path.join(tmp, "other.json")}
        trees = {"this": HERE_SRC, "other": args.other_src}
        if args.gate:
            # One tree after the other: each fleet already keeps the
            # gate's workers busy.
            failed = [name for name, src in trees.items()
                      if _spawn(src, None, paths[name], gate=True).wait() != 0]
        else:
            children = {name: _spawn(src, args.cases, paths[name])
                        for name, src in trees.items()}
            failed = [name for name, child in children.items() if child.wait() != 0]
        if failed:
            sys.exit(f"error: the run on the {' and the '.join(failed)} tree failed")
        ours, theirs = _load(paths["this"]), _load(paths["other"])

    lines, differing = (compare_gate(ours, theirs) if args.gate
                        else compare_cells(ours, theirs, args.other_src))
    _emit("\n".join(lines), args.report)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
