"""Cross-backend differential runner.

Replays *pinned* fault storms — the chaos engine's seeded storms or the
endurance runs' derived churn genomes — once per reconfiguration backend,
then diffs the outcomes:

* **Invariant battery (hard gate).**  Every backend run must pass the
  full battery its engine applies: ``run_all_checks`` (gid consistency,
  processing order, decision agreement, 1-copy-serializability, view
  synchrony, convergence, atomicity/durability), ``check_exactly_once``
  (both engines run closed-loop client sessions by default), and — for
  endurance runs — ``check_availability_floor``.  Any failure, or any
  verdict disagreement between backends, fails the differential.
* **Commit histories and transfer economics (report).**  Commit/abort
  counts, replayed transactions, transfer bytes and view changes are
  tabulated side by side per seed.  These may legitimately differ:
  the chaos *decision stream* is backend-independent (it draws from its
  own RNG over chaos-owned state), but activation timing differs across
  backends, so the interleaving against the workload — and therefore
  the committed set — can shift.  Strict byte-equality of final states
  is asserted elsewhere, by the scripted-schedule Hypothesis suite
  (``tests/properties/test_backend_differential.py``), where the
  workload is constructed to be timing-insensitive.

Used by ``python -m repro diff`` and the differential-smoke CI job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.fleet import FleetTask, run_fleet

#: Metrics tabulated per backend in the report (keys of
#: ``Cluster.metrics_summary``).
_DIFF_METRICS = (
    "commits",
    "aborts",
    "transactions_replayed",
    "bytes_transferred",
    "view_changes",
    "announcements",
)


@dataclass
class DifferentialReport:
    """Outcome of one differential sweep."""

    kind: str
    seeds: Tuple[int, ...]
    backends: Tuple[str, ...]
    #: ``rows[seed][backend]`` -> the engine's payload dict.
    rows: Dict[int, Dict[str, Dict[str, Any]]] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def first_failure(self) -> Dict[str, Any]:
        """The payload of the first failing cell — its ``repro`` entry
        is the command that replays it, its ``artifacts`` entry the
        evidence bundle its worker dumped (when the sweep ran with an
        ``artifacts_dir``).  Empty when every cell passed."""
        for seed in self.seeds:
            for backend in self.backends:
                payload = self.rows.get(seed, {}).get(backend, {})
                if not payload.get("ok"):
                    return payload
        return {}

    def metric(self, seed: int, backend: str, name: str) -> Any:
        payload = self.rows.get(seed, {}).get(backend, {})
        return payload.get("metrics", {}).get(name)

    def render(self) -> str:
        lines = [
            f"differential [{self.kind}] backends={','.join(self.backends)} "
            f"seeds={','.join(str(s) for s in self.seeds)}"
        ]
        header = ["seed", "backend", "verdict"] + list(_DIFF_METRICS)
        widths = [max(len(h), 12) for h in header]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for seed in self.seeds:
            for backend in self.backends:
                payload = self.rows.get(seed, {}).get(backend, {})
                verdict = "PASS" if payload.get("ok") else "FAIL"
                cells = [str(seed), backend, verdict] + [
                    str(self.metric(seed, backend, name))
                    for name in _DIFF_METRICS
                ]
                lines.append(
                    "  ".join(c.ljust(w) for c, w in zip(cells, widths))
                )
        phase_table = self.render_phase_table()
        if phase_table:
            lines.append("")
            lines.append(phase_table)
        for failure in self.failures:
            lines.append(f"FAILURE: {failure}")
        if self.ok:
            lines.append(
                f"{len(self.seeds) * len(self.backends)} runs, all invariant "
                "batteries passed on every backend"
            )
        return "\n".join(lines)

    def epoch_summaries(self) -> Dict[str, Dict[str, Any]]:
        """Per-backend epoch summary, aggregated over all seeds."""
        from repro.obs.epochs import merge_epoch_summaries

        summaries: Dict[str, Dict[str, Any]] = {}
        for backend in self.backends:
            per_seed = [
                self.rows.get(seed, {}).get(backend, {}).get("epochs") or {}
                for seed in self.seeds
            ]
            summaries[backend] = merge_epoch_summaries(per_seed)
        return summaries

    def render_phase_table(self) -> str:
        """Downtime attribution per phase, side by side per backend."""
        from repro.obs.epochs import render_phase_comparison

        summaries = self.epoch_summaries()
        if not any(s.get("count") for s in summaries.values()):
            return ""
        return ("reconfiguration downtime by phase "
                f"(all {len(self.seeds)} seeds)\n"
                + render_phase_comparison(summaries))


#: The pinned cell shape per campaign kind (before caller overrides).
CELL_DEFAULTS: Dict[str, Dict[str, Any]] = {
    "chaos": {"intensity": 0.5, "n_sites": 4, "db_size": 40,
              "duration": 1.5, "arrival_rate": 60.0, "clients": 6},
    "endurance": {"duration": 6.0},
}


def run_differential(
    seeds: Sequence[int],
    backends: Sequence[str] = ("evs", "logless"),
    kind: str = "chaos",
    jobs: int = 1,
    artifacts_dir: "str | None" = None,
    **overrides: Any,
) -> DifferentialReport:
    """Run every seed on every backend and diff the invariant verdicts.

    ``kind`` is ``"chaos"`` or ``"endurance"``; ``overrides`` feed the
    corresponding config (duration, intensity, clients, ...).  With
    ``artifacts_dir``, every failing cell leaves the shared evidence
    bundle there (see :meth:`DifferentialReport.first_failure`).
    """
    if kind not in CELL_DEFAULTS:
        raise ValueError(f"kind must be one of {', '.join(CELL_DEFAULTS)}, "
                         f"got {kind!r}")
    from repro.reconfig.backends import backend_by_name

    backends = tuple(backends)
    seeds = tuple(seeds)
    for backend in backends:
        backend_by_name(backend)  # raises on unknown names
    tasks = [
        FleetTask(
            key=f"{backend}:{seed}",
            kind=kind,
            params={"seed": seed, "artifacts_dir": artifacts_dir,
                    **CELL_DEFAULTS[kind], **overrides, "mode": backend},
        )
        for seed in seeds
        for backend in backends
    ]
    results = run_fleet(tasks, jobs=jobs)

    report = DifferentialReport(kind=kind, seeds=seeds, backends=backends)
    for seed in seeds:
        row = report.rows.setdefault(seed, {})
        for backend in backends:
            payload = results[f"{backend}:{seed}"]
            row[backend] = payload
            if "fleet_error" in payload:
                report.failures.append(
                    f"seed {seed} [{backend}]: worker crashed: "
                    + payload["fleet_error"].strip().splitlines()[-1]
                )
            elif not payload.get("ok"):
                report.failures.append(
                    f"seed {seed} [{backend}]: invariant battery failed: "
                    f"{payload.get('error')}"
                )
        verdicts = {
            backend: bool(row[backend].get("ok")) for backend in backends
        }
        if len(set(verdicts.values())) > 1:
            report.failures.append(
                f"seed {seed}: backends disagree on the invariant verdict: "
                + ", ".join(f"{b}={'PASS' if v else 'FAIL'}"
                            for b, v in verdicts.items())
            )
    return report


__all__ = ["DifferentialReport", "run_differential"]
