"""Determinism audit: verify what every pinned run and benchmark assumes.

Everything in this repository — the benchmark's exact sim-axis
comparison (``perf/run.py --compare``), the pinned chaos regression
seeds, the batching-equivalence claim, the observability no-effect
claim — rests on one property: a simulation is a pure function
of its seed and configuration.  Nothing used to *verify* that property;
this module does, as ``python -m repro audit``.

For every pinned case the audit runs the simulation **twice** (in
separate spawned worker processes at ``--jobs`` > 1, so each run gets a
fresh interpreter and a fresh string-hash seed) and diffs

* the final replica **state digests** of every site,
* the per-site **commit/abort histories** (virtual time, gid, kind),
* the **trace digest** (every protocol event the tracer records), and
* the deterministic scalar counters (commits, events processed,
  messages delivered, virtual time).

Where earlier PRs claim equivalence, the audit additionally runs the
claimed-equivalent configuration and compares the *protocol-level*
digests (state, histories, abort set — not event or message counts,
which batching legitimately changes):

* ``batching`` axis — batching on vs off must terminate the same
  transactions at the same virtual times with the same final states
  (PR 2's claim, here checked on the pinned scenarios end to end);
* ``obs`` axis — attaching the observability layer must not change any
  outcome (PR 3's claim);
* ``profile`` axis — attaching the deterministic sim-loop profiler
  (repro.obs.profile) must not change *anything*, including event and
  message counts and the trace digest, so this axis compares the FULL
  key set rather than the protocol subset.

Any divergence fails loudly: the report names the case, the digest keys
that differ, the first divergent line (from the ``--dump-dir``
artifacts), and a **minimal repro command**.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.artifacts import digest_lines
from repro.bench import SCENARIOS

#: Digest/counter keys that every repeated run must reproduce exactly
#: ("determinism" axis).  ``trace`` and ``schedule`` exist only for
#: cases that attach a tracer (chaos); absent keys compare as absent on
#: both sides.
FULL_KEYS = ("state", "history", "aborts", "trace", "schedule",
             "commits", "txn_aborts", "virtual_time", "events_processed",
             "messages_delivered", "ok")

#: The protocol-level subset for the equivalence axes: batching and
#: observability may change how many events/messages it takes to get
#: there, but never *where* the system ends up.
PROTOCOL_KEYS = ("state", "history", "aborts", "commits", "txn_aborts",
                 "virtual_time", "ok")

#: Which material list backs each digest key (for first-divergence
#: reporting from dump artifacts).
_MATERIAL_OF = {"state": "state", "history": "history", "aborts": "aborts",
                "trace": "trace", "schedule": "schedule"}


@dataclass(frozen=True)
class AuditCase:
    """One pinned simulation plus the equivalence axes it must satisfy.

    Every case always gets the determinism axis (two identical runs);
    ``axes`` adds ``"batching"`` and/or ``"obs"`` variants.
    """

    case_id: str
    kind: str  # "scenario", or a repro.faults.campaign kind
    params: Dict[str, Any] = field(default_factory=dict)
    axes: Tuple[str, ...] = ()


def _chaos_case(mode: str, seed: int, axes: Tuple[str, ...] = (),
                **overrides: Any) -> AuditCase:
    params = {"seed": seed, "mode": mode, "intensity": 0.5, "n_sites": 4,
              "db_size": 40, "duration": 1.5, "arrival_rate": 60.0}
    params.update(overrides)
    # Client-mode storms get their own id namespace, and a strategy
    # other than the default its own suffix, so neither collides with
    # the open-loop ``rectable`` case for the same (mode, seed).
    prefix = "chaos-clients" if params.get("clients") else "chaos"
    suffix = f":{params['strategy']}" if "strategy" in params else ""
    return AuditCase(case_id=f"{prefix}:{mode}:{seed}{suffix}", kind="chaos",
                     params=params, axes=axes)


def _build_cases() -> Dict[str, AuditCase]:
    cases: List[AuditCase] = []
    # The scripted runs of repro.bench, each with the batching
    # equivalence axis: batching on and off must end the same.
    for case_id, params in SCENARIOS.items():
        cases.append(AuditCase(case_id=case_id, kind="scenario",
                               params=dict(params), axes=("batching",)))
    # Seeds of tests/integration/test_chaos_regressions.py, which pins 26
    # storms at the 3.0 s chaos default.  Here 13 of those seeds run as
    # 1.5 s storms — a shorter run, so not the pinned storm — and 5 as
    # the pinned storm itself; the other 8 are not audited.  A storm is
    # determinism-only: its fault injectors draw from the simulation RNG
    # per wire message, and batching changes the wire-message count, so
    # the two modes legitimately diverge there (the equivalence claim is
    # pinned to the deterministic network — see
    # tests/properties/test_batching_equivalence.py).
    for mode, seed in (("evs", 9), ("evs", 2), ("evs", 14), ("evs", 23),
                       ("evs", 12), ("evs", 55), ("evs", 84), ("evs", 24),
                       ("vs", 23), ("vs", 48), ("vs", 157), ("logless", 30),
                       ("evs", 196)):
        cases.append(_chaos_case(mode, seed))
    # These went wrong after the 1.5 s storm ends: run the chaos default.
    for mode, seed in (("evs", 106), ("vs", 47), ("logless", 27)):
        cases.append(_chaos_case(mode, seed, duration=3.0))
    # A log_filter session that completed and was cancelled later gave
    # its snapshot back twice, dropping a sibling session's.
    cases.append(_chaos_case("vs", 16, duration=3.0, strategy="log_filter"))
    # A lazy peer captured below the delimiter it labelled its state with.
    cases.append(_chaos_case("vs", 10, duration=3.0, strategy="lazy"))
    # A stalled joiner dropped a delivery; it refuses the offer anchored
    # below it, and the peer re-anchors the session.
    cases.append(_chaos_case("evs", 47, duration=3.0))
    # One open-loop storm on a seed no regression pins.
    cases.append(_chaos_case("vs", 3))
    # One storm carrying the observability-equivalence axis (PR 3's
    # claim) and the profiler-equivalence axis on top of determinism.
    cases.append(_chaos_case("vs", 7, axes=("obs", "profile"),
                             intensity=0.6))
    # Client-mode storms: the same pinned seeds driven by closed-loop
    # ClientSession fleets (repro.client) — session timers, failover
    # site picks and dedup suppression must all replay exactly.
    for mode, seed in (("evs", 2), ("vs", 23), ("evs", 23)):
        cases.append(_chaos_case(mode, seed, clients=6))
    # Endurance churn runs: the composed long-horizon schedule (rolling
    # restarts, partition storms, join/leave churn, stabilization) must
    # replay byte-for-byte too, including its availability timeline.
    for mode, seed in (("vs", 0), ("evs", 0)):
        cases.append(AuditCase(case_id=f"endurance:{mode}:{seed}",
                               kind="endurance",
                               params={"seed": seed, "mode": mode,
                                       "duration": 6.0},
                               axes=("profile",) if mode == "vs" else ()))
    # The logless reconfiguration backend (config-as-replicated-state,
    # docs/RECONFIG_BACKENDS.md): one pinned chaos storm and one
    # endurance churn run must replay byte-for-byte, like the EVS ones.
    cases.append(AuditCase(case_id="backend:logless:chaos", kind="chaos",
                           params={"seed": 9, "mode": "logless",
                                   "intensity": 0.5, "n_sites": 4,
                                   "db_size": 40, "duration": 1.5,
                                   "arrival_rate": 60.0}))
    cases.append(AuditCase(case_id="backend:logless:endurance",
                           kind="endurance",
                           params={"seed": 0, "mode": "logless",
                                   "duration": 6.0}))
    # Schedules pinned by the adversarial search (repro.search.pinned):
    # each is one exact genome whose replay — the very property the
    # search's corpus and minimal-repro artifacts rely on — must stay
    # byte-identical.
    for pinned_name in ("utd-flush-clobber", "shatter-corrupt-churn"):
        cases.append(AuditCase(case_id=f"schedule:{pinned_name}",
                               kind="schedule",
                               params={"pinned": pinned_name}))
    return {case.case_id: case for case in cases}


CASES: Dict[str, AuditCase] = _build_cases()


# ----------------------------------------------------------------------
# Digest collection
# ----------------------------------------------------------------------
def _collect(cluster, tracer=None, schedule: Optional[List[str]] = None,
             ok: Optional[bool] = None,
             materials: bool = False) -> Dict[str, Any]:
    """Digest a finished run: state, histories, aborts, trace, counters.

    With ``materials=True`` the raw digested lines are included too (for
    divergence dumps and first-divergent-line reporting)."""
    state_lines = []
    for site in sorted(cluster.nodes):
        node = cluster.nodes[site]
        content = repr(node.db.store.content_digest()) if node.alive else "<down>"
        state_lines.append(f"{site} {node.status.value} {content}")
    history_lines = []
    by_site = cluster.history.by_site()
    for site in sorted(by_site):
        for event in by_site[site]:
            history_lines.append(
                f"{site} {event.time:.9f} {event.gid} {event.kind}"
            )
    abort_gids = sorted({e.gid for e in cluster.history.events
                         if e.kind == "abort"})
    commit_gids = {e.gid for e in cluster.history.events if e.kind == "commit"}
    payload: Dict[str, Any] = {
        "digests": {
            "state": digest_lines(state_lines),
            "history": digest_lines(history_lines),
            "aborts": digest_lines([repr(abort_gids)]),
        },
        "counters": {
            "commits": len(commit_gids),
            "txn_aborts": len(abort_gids),
            "virtual_time": repr(cluster.sim.now),
            "events_processed": cluster.sim.events_processed,
            "messages_delivered": cluster.network.messages_delivered,
            "ok": ok,
        },
    }
    trace_lines: List[str] = []
    if tracer is not None:
        trace_lines = [str(event) for event in tracer.events]
        payload["digests"]["trace"] = digest_lines(trace_lines)
    if schedule is not None:
        payload["digests"]["schedule"] = digest_lines(schedule)
    if materials:
        payload["materials"] = {
            "state": state_lines,
            "history": history_lines,
            "aborts": [str(gid) for gid in abort_gids],
            "trace": trace_lines,
            "schedule": schedule or [],
        }
    return payload


def _flatten(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One flat {key: value} view over digests + counters, for
    comparisons against FULL_KEYS / PROTOCOL_KEYS."""
    flat: Dict[str, Any] = dict(payload.get("digests", {}))
    flat.update(payload.get("counters", {}))
    return flat


#: Equivalence axis -> (variant run next to "a", the campaign config
#: field it flips, the digest keys the two runs must agree on).  The
#: profiler wraps the event dispatch but must not change a single event,
#: hence the full-key comparison there, not just the protocol subset.
#: ``batching`` is an argument of the scripted scenarios only; no
#: campaign config has that field, so a campaign case given the axis
#: crashes in ``campaign_for`` instead of comparing a run with itself.
_AXES = {
    "batching": ("no_batching", {"batching": False}, PROTOCOL_KEYS),
    "obs": ("obs", {"observe": True}, PROTOCOL_KEYS),
    "profile": ("profile", {"profile": True}, FULL_KEYS),
}
_VARIANT_OVERRIDE = {variant: override
                     for variant, override, _keys in _AXES.values()}


def execute_variant(case_id: str, variant: str,
                    materials: bool = False) -> Dict[str, Any]:
    """Run one (case, variant) cell and return its digest payload.

    Variants: ``a``/``b`` — two identical determinism runs;
    ``no_batching`` — batching layers disabled; ``obs`` — full
    observability attached; ``profile`` — the deterministic sim-loop
    profiler attached.
    """
    case = CASES[case_id]
    params = {**case.params, **_VARIANT_OVERRIDE.get(variant, {})}
    if case.kind == "scenario":
        from repro import scenarios

        report = getattr(scenarios, params.pop("run"))(**params)
        return _collect(report.cluster, tracer=report.cluster.tracer,
                        ok=report.completed, materials=materials)
    from repro.faults.campaign import campaign_for

    engine = campaign_for(case.kind, **params)  # raises on unknown kinds
    report = engine.run()
    return _collect(engine.cluster, tracer=report.tracer,
                    schedule=report.schedule_lines(), ok=report.ok,
                    materials=materials)


# ----------------------------------------------------------------------
# Comparison and reporting
# ----------------------------------------------------------------------
@dataclass
class AuditFailure:
    case_id: str
    axis: str  # "determinism" | "batching" | "obs" | "profile" | "error" | "broken"
    detail: str
    repro: str
    diverging_keys: Tuple[str, ...] = ()

    def render(self) -> str:
        lines = [f"FAIL {self.case_id} [{self.axis}]: {self.detail}",
                 f"  repro: {self.repro}"]
        return "\n".join(lines)


@dataclass
class AuditOutcome:
    passed: List[str] = field(default_factory=list)
    failures: List[AuditFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [f"PASS {case}" for case in self.passed]
        lines.extend(failure.render() for failure in self.failures)
        verdict = ("determinism audit: PASS "
                   f"({len(self.passed)} cases)" if self.ok else
                   f"determinism audit: FAIL ({len(self.failures)} "
                   f"divergence(s) across {len(self.passed) + len({f.case_id for f in self.failures})} cases)")
        lines.append(verdict)
        return "\n".join(lines)


def _repro_command(case_id: str) -> str:
    return f"PYTHONPATH=src python -m repro audit --case {case_id}"


def _compare(case_id: str, axis: str, keys: Sequence[str],
             left: Dict[str, Any], right: Dict[str, Any],
             left_name: str, right_name: str) -> Optional[AuditFailure]:
    for payload, name in ((left, left_name), (right, right_name)):
        if "fleet_error" in payload:
            return AuditFailure(
                case_id=case_id, axis="error",
                detail=f"variant {name} crashed:\n{payload['fleet_error']}",
                repro=_repro_command(case_id),
            )
    flat_left, flat_right = _flatten(left), _flatten(right)
    diverging = tuple(
        key for key in keys
        if flat_left.get(key) != flat_right.get(key)
    )
    if not diverging:
        return None
    parts = []
    for key in diverging:
        parts.append(f"{key}: {left_name}={flat_left.get(key)!r} "
                     f"{right_name}={flat_right.get(key)!r}")
    return AuditFailure(
        case_id=case_id, axis=axis,
        detail=(f"runs '{left_name}' and '{right_name}' diverge on "
                f"{', '.join(diverging)}\n    " + "\n    ".join(parts)),
        repro=_repro_command(case_id),
        diverging_keys=diverging,
    )


def _variants_of(case: AuditCase) -> List[str]:
    return ["a", "b"] + [_AXES[axis][0] for axis in case.axes]


def _clip(line: str, limit: int = 160) -> str:
    return line if len(line) <= limit else line[:limit] + "…"


def _first_divergence(left: List[str], right: List[str]) -> str:
    for index, (line_a, line_b) in enumerate(zip(left, right)):
        if line_a != line_b:
            return (f"first divergence at line {index}:\n"
                    f"      a: {_clip(line_a)}\n      b: {_clip(line_b)}")
    if len(left) != len(right):
        shorter, longer, name = ((left, right, "b") if len(left) < len(right)
                                 else (right, left, "a"))
        return (f"one run is a prefix of the other; first extra line "
                f"({name}, line {len(shorter)}): "
                f"{_clip(longer[len(shorter)])}")
    return "digests differ but materials are identical (digest-input bug?)"


def _dump_name(case_id: str, variant: str) -> str:
    safe = re.sub(r"[^A-Za-z0-9_.-]", "_", case_id)
    return f"{safe}.{variant}.json"


def check_dump_dir(dump_dir: Optional[str], force: bool = False) -> None:
    """Refuse to write into a non-empty dump directory without ``force``.

    Divergence artifacts are only meaningful as a matched pair from one
    audit run; mixing them with leftovers of an earlier run (or letting
    stale ones get committed by accident) is exactly how confusing
    "divergences" end up in review.  Called by the CLI before the audit
    starts, so the refusal is loud and immediate.
    """
    if force or dump_dir is None or not os.path.isdir(dump_dir):
        return
    leftover = [name for name in sorted(os.listdir(dump_dir))
                if not name.startswith(".")]
    if leftover:
        raise ValueError(
            f"dump dir {dump_dir!r} already contains {len(leftover)} "
            f"file(s) (e.g. {leftover[0]!r}); stale divergence artifacts "
            f"from an earlier run would be clobbered or mixed in — move "
            f"them away or pass --force"
        )


def _write_dumps(case_id: str, failure: AuditFailure,
                 variant_pair: Tuple[str, str], dump_dir: str,
                 jobs: int) -> str:
    """Re-run the two diverging variants with full materials, write both
    artifacts, and report the first divergent line of the first
    diverging material-backed digest."""
    from repro.fleet import FleetTask, run_fleet

    tasks = [
        FleetTask(key=variant, kind="audit",
                  params={"case_id": case_id, "variant": variant,
                          "materials": True})
        for variant in variant_pair
    ]
    payloads = run_fleet(tasks, jobs=min(jobs, 2))
    os.makedirs(dump_dir, exist_ok=True)
    paths = []
    for variant in variant_pair:
        path = os.path.join(dump_dir, _dump_name(case_id, variant))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payloads[variant], handle, indent=2, sort_keys=True)
            handle.write("\n")
        paths.append(path)
    notes = [f"dumps: {paths[0]} vs {paths[1]}"]
    left = payloads[variant_pair[0]].get("materials", {})
    right = payloads[variant_pair[1]].get("materials", {})
    for key in failure.diverging_keys:
        material = _MATERIAL_OF.get(key)
        if material and (left.get(material) or right.get(material)):
            notes.append(f"{key} — " + _first_divergence(
                left.get(material, []), right.get(material, [])))
            break
    return "\n  ".join(notes)


def run_audit(case_ids: Optional[Sequence[str]] = None, jobs: int = 1,
              dump_dir: Optional[str] = None) -> AuditOutcome:
    """Run the audit over the given cases (default: all pinned cases).

    Each case's variant runs are dispatched as independent fleet tasks,
    so at ``jobs`` > 1 the two determinism runs land in *different*
    worker processes — a strictly stronger check than repeating in one
    interpreter.  On divergence, ``dump_dir`` receives one JSON artifact
    per diverging variant with the full digested material.
    """
    from repro.fleet import FleetTask, run_fleet

    if case_ids is None:
        selected = list(CASES)
    else:
        unknown = sorted(set(case_ids) - set(CASES))
        if unknown:
            raise ValueError(
                f"unknown audit case(s) {', '.join(unknown)}; "
                f"valid choices: {', '.join(CASES)}"
            )
        selected = list(case_ids)
    tasks = [
        FleetTask(key=f"{case_id}::{variant}", kind="audit",
                  params={"case_id": case_id, "variant": variant})
        for case_id in selected
        for variant in _variants_of(CASES[case_id])
    ]
    payloads = run_fleet(tasks, jobs=jobs)
    outcome = AuditOutcome()
    for case_id in selected:
        case = CASES[case_id]
        runs = {variant: payloads[f"{case_id}::{variant}"]
                for variant in _variants_of(case)}
        failures: List[Tuple[AuditFailure, Tuple[str, str]]] = []
        failure = _compare(case_id, "determinism", FULL_KEYS,
                           runs["a"], runs["b"], "a", "b")
        if failure:
            failures.append((failure, ("a", "b")))
        for axis in case.axes:
            variant, _override, keys = _AXES[axis]
            failure = _compare(case_id, axis, keys,
                               runs["a"], runs[variant], "a", variant)
            if failure:
                failures.append((failure, ("a", variant)))
        # A case that "reproducibly fails" is still broken: the pinned
        # scenarios must complete and pass their invariant checks.
        base = runs["a"]
        if "fleet_error" not in base and \
                base.get("counters", {}).get("ok") is False:
            failures.append((AuditFailure(
                case_id=case_id, axis="broken",
                detail="the pinned scenario itself did not complete/pass",
                repro=_repro_command(case_id),
            ), ("a", "b")))
        if not failures:
            outcome.passed.append(case_id)
            continue
        for failure, pair in failures:
            if dump_dir is not None and failure.diverging_keys:
                failure.detail += "\n  " + _write_dumps(
                    case_id, failure, pair, dump_dir, jobs)
            outcome.failures.append(failure)
    return outcome
