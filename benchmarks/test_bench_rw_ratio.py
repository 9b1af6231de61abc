"""E6 — recovery behaviour vs the workload's read/write ratio.

The paper's expected shape: transfer read locks conflict only with
writers, so write-heavy workloads suffer more interference from
lock-holding strategies (full/version-check) and produce a larger
changed set; a read-heavy workload barely notices the transfer.  Here a
read lock goes back the moment its object is captured (DESIGN.md
"Transfer order"), so no mix waits on the transfer at all.

The parameter grid lives in ``repro.fleet.SWEEPS["rw_ratio"]`` — the
same cells ``python -m repro sweep --study rw_ratio`` runs in parallel —
so the benchmark table and the sweep fleet can never drift apart.
"""

from benchmarks.conftest import once, print_table
from repro.fleet import SWEEPS, recovery_kwargs
from repro.scenarios import run_recovery_experiment

STUDY = SWEEPS["rw_ratio"]


def _mix(params):
    return f"{params['reads_per_txn']}r/{params['writes_per_txn']}w"


def test_interference_vs_rw_ratio(benchmark):
    rows = []

    def sweep():
        for _key, params in STUDY.grid:
            report = run_recovery_experiment(**recovery_kwargs(params))
            rows.append([
                params["strategy"], _mix(params), report.completed,
                int(report.extra["objects_sent"]),
                report.extra["lock_wait_total"],
                report.extra["mean_latency"],
            ])
        return rows

    once(benchmark, sweep)
    print_table(
        STUDY.title,
        ["strategy", "mix", "ok", "objects sent", "total lock wait (s)", "mean latency"],
        rows,
    )
    assert all(r[2] for r in rows)

    def wait(strategy, mix):
        return next(r[4] for r in rows if r[0] == strategy and r[1] == mix)

    def sent(strategy, mix):
        return next(r[3] for r in rows if r[0] == strategy and r[1] == mix)

    # Released at capture, the full transfer's read locks add no lock
    # wait to what the lock-free multiversion transfer sees, at any mix.
    mixes = {r[1] for r in rows}
    assert all(wait("full", mix) == wait("log_filter", mix) for mix in mixes)
    # A read-only workload changes nothing: filtered transfer is empty.
    assert sent("log_filter", "4r/0w") == 0
    # The multiversion strategy interferes less than the lock-holding one
    # under the write-heavy mix.
    assert wait("log_filter", "0r/4w") <= wait("full", "0r/4w")
