"""Shared helpers for the benchmark harness.

Every benchmark prints the table/series it regenerates (the shape the
paper's evaluation would have reported) in addition to the
pytest-benchmark wall-clock measurement of the simulated scenario.
Run with ``pytest benchmarks/ --benchmark-only -s`` to see the tables.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import pytest

from repro import scenarios
from repro.obs import collect_cluster_metrics


@pytest.fixture(autouse=True)
def verify_scenario_reports():
    """Re-verify every scenario a benchmark ran.

    Benchmarks measure; they should not each repeat the correctness
    boilerplate.  This hook collects every :class:`ScenarioReport`
    produced during the test (via the scenarios report-hook registry)
    and asserts after the fact that the scenario completed and that its
    cluster still passes the full invariant check — so a benchmark can
    never silently time a broken or unfinished run.
    """
    reports: List[scenarios.ScenarioReport] = []
    hook = scenarios.add_report_hook(reports.append)
    try:
        yield reports
    finally:
        scenarios.remove_report_hook(hook)
    for report in reports:
        assert report.completed, (
            f"benchmarked scenario did not complete: mode={report.mode} "
            f"strategy={report.strategy} notes={report.notes}"
        )
        if report.cluster is not None:
            report.cluster.check()
            # The metric snapshot is a pure pull over existing counters;
            # sanity-check it here so no benchmarked run can produce an
            # inconsistent or empty snapshot (perf/ reads the same dict).
            snapshot = collect_cluster_metrics(report.cluster)
            assert snapshot["sim.virtual_time"] > 0
            assert snapshot["txn.commits"] <= snapshot["txn.site_commits"]


def print_table(title: str, header: Sequence[str], rows: List[Sequence]) -> None:
    """Render a fixed-width results table to stdout."""
    widths = [len(str(h)) for h in header]
    rendered_rows = []
    for row in rows:
        rendered = [f"{v:.4g}" if isinstance(v, float) else str(v) for v in row]
        rendered_rows.append(rendered)
        widths = [max(w, len(cell)) for w, cell in zip(widths, rendered)]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for rendered in rendered_rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(rendered, widths)))


def once(benchmark, fn, *args, **kwargs):
    """Run a scenario exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
