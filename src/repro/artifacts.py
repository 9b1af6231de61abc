"""Shared failure-evidence artifact bundles.

Every harness in this repository that can fail — the chaos storm, the
endurance churn engine and the adversarial schedule search — wants to leave the same evidence behind:
the fault schedule it ran, the full trace timeline, the availability
timeline, the per-site WAL contents, summary metrics, and a one-line
repro command.  The endurance engine grew that dump path first
(PR 6); this module is the shared implementation, so a failure bundle
looks identical no matter which harness produced it and new harnesses
get the whole evidence set from one call.

Only the sections whose inputs are supplied are written; callers pass
whatever their run kind has (a chaos storm has no availability
timeline).
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


def write_text(out_dir: str, name: str, text: str) -> str:
    """Write one artifact file (newline-terminated) and return its path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text if text.endswith("\n") or not text else text + "\n")
    return path


def schedule_lines(events: Sequence[Tuple[float, str, str]]) -> List[str]:
    """The canonical schedule rendering, one line per decision (what the
    schedule digests hash and ``schedule.txt`` holds)."""
    return [f"{time:.6f} {action} {detail}"
            for time, action, detail in events]


def digest_lines(lines: Iterable[str]) -> str:
    """The SHA-256 hex digest of ``lines`` joined by newlines: how every
    trace, schedule, state and history digest is taken."""
    # hashlib stays a call-time import: loading OpenSSL costs ~3.5 MB
    # of resident memory that every ``import repro`` would pay.
    import hashlib

    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def render_schedule(events: Sequence[Tuple[float, str, str]]) -> str:
    return "\n".join(schedule_lines(events))


def render_availability_tsv(samples: Sequence[Tuple[float, int, bool]]) -> str:
    return "# bin_end\tcommits\tmaintenance\n" + "\n".join(
        f"{t:.6f}\t{c}\t{int(m)}" for t, c, m in samples)


def render_wal(cluster, site: str) -> str:
    """One site's WAL contents with the durable prefix marked."""
    storage = cluster.nodes[site].storage
    lines = [f"# {site}: {len(storage.log)} records, "
             f"durable prefix {storage.durable_length}, "
             f"{len(storage.checkpoint_image)} checkpointed objects, "
             f"{len(storage.outcome_image)} outcome rows"]
    for index, record in enumerate(storage.records()):
        durable = "D" if index < storage.durable_length else "-"
        lines.append(f"{index:6d} {durable} {record!r}")
    return "\n".join(lines)


def dump_run_artifacts(
    out_dir: str,
    *,
    title: str,
    repro_command: Optional[str] = None,
    schedule: Optional[Sequence[Tuple[float, str, str]]] = None,
    samples: Optional[Sequence[Tuple[float, int, bool]]] = None,
    tracer: Optional[Any] = None,
    metrics: Optional[Dict[str, Any]] = None,
    cluster: Optional[Any] = None,
    prometheus: Optional[str] = None,
    extra: Optional[Dict[str, str]] = None,
) -> List[str]:
    """Write one run's failure-evidence bundle to ``out_dir``.

    ``title`` heads ``repro.txt`` (the verdict line); ``repro_command``
    is the one-line invocation that replays the run.  ``extra`` adds
    caller-specific files (e.g. the search's ``schedule.json`` genome)
    verbatim; ``prometheus`` is an observed run's ``metrics.prom`` text.
    Returns every path written, in a fixed order.
    """
    written: List[str] = []

    def emit(name: str, text: str) -> None:
        written.append(write_text(out_dir, name, text))

    repro_lines = [f"# {title}"]
    if repro_command:
        repro_lines.append(repro_command)
    emit("repro.txt", "\n".join(repro_lines))
    if schedule is not None:
        emit("schedule.txt", render_schedule(schedule))
    if samples is not None:
        emit("availability.tsv", render_availability_tsv(samples))
    if tracer is not None:
        emit("trace.txt", tracer.timeline())
    if metrics is not None:
        emit("metrics.txt", "\n".join(
            f"{key} {value}" for key, value in sorted(metrics.items())))
    if prometheus is not None:
        emit("metrics.prom", prometheus)
    if cluster is not None:
        for site in sorted(cluster.universe):
            emit(f"wal_{site}.log", render_wal(cluster, site))
    for name, text in (extra or {}).items():
        emit(name, text)
    return written
