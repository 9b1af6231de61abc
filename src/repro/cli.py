"""Command-line interface: quick experiments without writing code.

Usage::

    python -m repro demo                         # quickstart run
    python -m repro strategies                   # list transfer strategies
    python -m repro recover --strategy lazy --db-size 500 --downtime 1.0
    python -m repro figure1 --mode evs           # the cascading scenario
    python -m repro trace --mode evs             # recovery with a timeline
    python -m repro chaos --seed 3 --intensity 0.5   # randomized fault storm
    python -m repro chaos --seeds 0..15 --jobs 4     # parallel seed fleet
    python -m repro chaos --endurance --seed 0       # long-horizon churn run
    python -m repro chaos --endurance --seeds 0..3 --jobs 4   # endurance fleet
    python -m repro sweep --study db_size --jobs 4   # parameter-study grid
    python -m repro sweep --study E7                 # backend head-to-head
    python -m repro diff --seeds 9,23 --jobs 2       # cross-backend differential
    python -m repro audit --jobs 4                   # determinism audit
    python -m repro report --out-dir obs_out         # observed run + artifacts
    python -m repro report --summary                 # one-screen digest
    python -m repro profile --smoke                  # deterministic profiler run

Every command runs a deterministic simulation and prints its results;
pass ``--seed`` to vary the run.  ``--jobs N`` fans independent
simulations across worker processes (repro.fleet) with deterministic,
completion-order-independent result merging.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro import ClusterBuilder, LoadGenerator, WorkloadConfig
from repro.faults.campaign import CampaignConfig
from repro.reconfig.backends import ALL_BACKEND_NAMES
from repro.reconfig.strategies import ALL_STRATEGY_NAMES
from repro.replication.node import SiteStatus
from repro.scenarios import run_figure1_scenario, run_recovery_experiment
from repro.tracing import attach_tracer


def _cmd_demo(args: argparse.Namespace) -> int:
    cluster = ClusterBuilder(n_sites=args.sites, db_size=args.db_size,
                             seed=args.seed, strategy=args.strategy,
                             mode=args.mode).build()
    cluster.start()
    if not cluster.await_all_active(timeout=15):
        print("bootstrap failed", file=sys.stderr)
        return 1
    load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=args.rate))
    load.start()
    cluster.run_for(args.duration)
    load.stop()
    cluster.settle(0.5)
    cluster.check()
    print(f"sites: {args.sites}  db: {args.db_size} objects  "
          f"strategy: {args.strategy}  backend: {args.mode}")
    print(f"ran {args.duration}s at {args.rate} txn/s: "
          f"{len(load.committed())} commits, {len(load.aborted())} aborts, "
          f"abort rate {load.abort_rate():.1%}")
    print("all correctness checks passed")
    return 0


def _cmd_strategies(args: argparse.Namespace) -> int:
    descriptions = {
        "full": "entire database under per-object read locks (section 4.3)",
        "version_check": "whole-db scan, ship only versions above the joiner's cover (4.4)",
        "rectable": "RecTable-filtered set, DB lock downgraded to object locks (4.5)",
        "log_filter": "multiversion snapshot, no transfer locks at all (4.6)",
        "lazy": "multi-round deltas, delimiter transaction, fail-over resume (4.7)",
        "gcs_level": "whole DB inside the view change — the rejected baseline (4.1)",
    }
    for name in ALL_STRATEGY_NAMES:
        print(f"{name:14s} {descriptions.get(name, '')}")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    report = run_recovery_experiment(
        strategy=args.strategy, mode=args.mode, db_size=args.db_size,
        downtime=args.downtime, arrival_rate=args.rate, seed=args.seed,
    )
    print(f"strategy={report.strategy} mode={report.mode} "
          f"db={args.db_size} downtime={args.downtime}s rate={args.rate}/s")
    print(f"  rejoined:        {report.completed}")
    for key in ("recovery_time", "objects_sent", "bytes_sent",
                "enqueue_high_watermark", "mean_latency", "p95_latency"):
        print(f"  {key:22s} {report.extra[key]:.4g}")
    print(f"  replayed txns:   {report.replayed}")
    return 0 if report.completed else 1


def _cmd_figure1(args: argparse.Namespace) -> int:
    report = run_figure1_scenario(mode=args.mode, strategy=args.strategy,
                                  seed=args.seed)
    print(f"Figure-{'2 (EVS)' if args.mode == 'evs' else '1 (plain VS)'} "
          f"cascading scenario — strategy {args.strategy}")
    print(f"  completed:             {report.completed}")
    print(f"  commits / aborts:      {report.commits} / {report.aborts}")
    print(f"  transfers:             {report.transfers_started} started, "
          f"{report.transfers_completed} completed")
    print(f"  announcements:         {report.announcements}")
    print(f"  subview-set merges:    {report.svs_merges}")
    print(f"  subview merges:        {report.sv_merges}")
    print(f"  replayed transactions: {report.replayed}")
    for note in report.notes:
        print(f"  note: {note}")
    return 0 if report.completed else 1


def _crash_and_recover(args: argparse.Namespace, attach=(), attach_late=()):
    """The pinned crash + online-recovery run behind ``trace``, ``report``
    and ``profile``: bootstrap, load, crash the last site, restart it
    after ``--downtime``, wait for it to be ACTIVE again, settle, check.

    ``attach`` callables observe the cluster from before ``start()``,
    ``attach_late`` ones only once it is bootstrapped.  Returns
    ``(cluster, victim, recovered)``, or None when bootstrap failed.
    """
    cluster = ClusterBuilder(n_sites=args.sites, db_size=args.db_size,
                             seed=args.seed, strategy=args.strategy,
                             mode=args.mode).build()
    for observer in attach:
        observer(cluster)
    cluster.start()
    if not cluster.await_all_active(timeout=15):
        print("bootstrap failed", file=sys.stderr)
        return None
    for observer in attach_late:
        observer(cluster)
    load = LoadGenerator(cluster, WorkloadConfig(arrival_rate=args.rate))
    load.start()
    cluster.run_for(0.5)
    victim = f"S{args.sites}"
    cluster.crash(victim)
    cluster.run_for(args.downtime)
    cluster.recover(victim)
    recovered = cluster.await_condition(
        lambda: cluster.nodes[victim].status is SiteStatus.ACTIVE, timeout=60
    )
    load.stop()
    cluster.settle(0.5)
    cluster.check()
    return cluster, victim, recovered


def _cmd_trace(args: argparse.Namespace) -> int:
    run = _crash_and_recover(args, attach_late=(attach_tracer,))
    if run is None:
        return 1
    cluster, victim, ok = run
    print(cluster.tracer.timeline())
    print(f"\nrecovery of {victim}: {'completed' if ok else 'TIMED OUT'}; "
          "all correctness checks passed")
    return 0 if ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    import os

    from repro.obs import (
        attach_observability, load_jsonl, render_one_screen, render_summary,
        write_chrome_trace, write_jsonl, write_prometheus,
    )

    render = render_one_screen if args.summary else render_summary
    if args.input is not None:
        run = load_jsonl(args.input)
        print(render(run))
        return 0

    # The one scenario that exercises every span category (txn, apply,
    # recovery, transfer).
    outcome = _crash_and_recover(args, attach=(attach_observability,))
    if outcome is None:
        return 1
    cluster, victim, ok = outcome
    name = (f"recover {victim} (seed={args.seed} strategy={args.strategy} "
            f"mode={args.mode})")
    run = cluster.obs.run_data(name)
    print(render(run))
    if args.summary:
        # One-screen digest only; no artifact files.
        return 0 if ok else 1
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    jsonl_path = os.path.join(out_dir, "run.jsonl")
    trace_path = os.path.join(out_dir, "trace.json")
    prom_path = os.path.join(out_dir, "metrics.prom")
    write_jsonl(run, jsonl_path)
    write_chrome_trace(run, trace_path)
    write_prometheus(run.metrics, prom_path)
    print(f"\nartifacts written to {out_dir}/: run.jsonl "
          f"({len(run.events)} events, {len(run.spans)} spans), "
          f"trace.json (load in chrome://tracing or ui.perfetto.dev), "
          f"metrics.prom")
    return 0 if ok else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    """Deterministic profiler run: a pinned crash + online-recovery
    scenario with the sim-loop profiler attached, exported as a sorted
    cost table, a collapsed-stack file, and the epoch phase table."""
    import os

    from repro.obs import (attach_profiler, extract_epochs,
                           render_epoch_table)

    if args.smoke:
        # Pinned reduced-scale scenario for the CI profile-smoke job.
        args.sites, args.db_size, args.rate = 3, 60, 80.0
        args.downtime = 0.4
    run = _crash_and_recover(args, attach=(attach_tracer, attach_profiler))
    if run is None:
        return 1
    cluster, victim, ok = run
    profiler = cluster.profiler
    epochs = extract_epochs(cluster.tracer.events, end_time=cluster.sim.now)
    print(f"profiled recovery of {victim} (seed={args.seed} "
          f"strategy={args.strategy} mode={args.mode}): "
          f"{'completed' if ok else 'TIMED OUT'}")
    print()
    print(profiler.render(limit=args.top))
    print()
    print(render_epoch_table(epochs))
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    collapsed_path = os.path.join(out_dir, "profile.collapsed")
    table_path = os.path.join(out_dir, "profile.txt")
    epochs_path = os.path.join(out_dir, "epochs.txt")
    profiler.write_collapsed(collapsed_path)
    profiler.write_table(table_path)
    with open(epochs_path, "w", encoding="utf-8") as handle:
        handle.write(render_epoch_table(epochs) + "\n")
    print(f"\nartifacts written to {out_dir}/: profile.collapsed "
          f"({len(profiler.buckets)} buckets; feed to flamegraph.pl), "
          f"profile.txt, epochs.txt")
    return 0 if ok else 1


#: Per-driver presentation of ``repro chaos``: the verdict line of a
#: passing run, what a fleet counts, and the fleet table's metric
#: columns (header, width, format, payload getter) and digest column.
_CAMPAIGN_VIEWS = {
    "chaos": {
        "passed": "all correctness checks passed",
        "noun": "storms",
        "columns": (
            ("faults", 7, "d", lambda p: p["fault_events"]),
            ("commits", 8, "d", lambda p: p["metrics"].get("commits", 0)),
            ("aborts", 7, "d", lambda p: p["metrics"].get("aborts", 0)),
            ("tears", 6, "d", lambda p: p["wal_tears"]),
        ),
        "digest": "trace_digest",
    },
    "endurance": {
        "passed": "all correctness checks passed; availability floor held",
        "noun": "endurance runs",
        "columns": (
            ("sweeps", 7, "d", lambda p: p["sweeps"]),
            ("restarts", 9, "d", lambda p: p["rolling_restarts"]),
            ("cycles", 7, "d", lambda p: p["partition_cycles"]),
            ("min/s", 7, ".1f", lambda p: p["availability"]["min_rate"]),
            ("0-bins", 7, ".0f", lambda p: p["availability"]["zero_bins"]),
        ),
        "digest": "schedule_digest",
    },
}

#: ``repro chaos`` flags that only make sense for one in-process run.
_SINGLE_RUN_FLAGS = ("--trace", "--metrics", "--profile", "--timeline")


def _flag_value(args: argparse.Namespace, flag: str):
    """The parsed value of one ``repro chaos`` flag; None when the flag
    was not given (every such flag defaults to None or False)."""
    value = getattr(args, flag[2:].replace("-", "_"))
    return None if value is False else value


def campaign_config(args: argparse.Namespace):
    """The campaign config a parsed ``repro chaos`` command line
    describes (validated; raises ValueError on bad values and on flags
    the selected mode would silently ignore)."""
    from repro.faults.campaign import CLI_FLAGS, engine_class

    cls = engine_class("endurance" if args.endurance else "chaos").CONFIG
    kwargs = {"seed": args.seed,
              "observe": args.trace is not None or args.metrics is not None}
    for name, flag in CLI_FLAGS:
        value = _flag_value(args, flag)
        if value is None:
            continue
        if name not in cls.__dataclass_fields__:
            needs = ("plain chaos (drop --endurance)" if args.endurance
                     else "--endurance")
            raise ValueError(f"{flag} has no effect here: it needs {needs}")
        kwargs[name] = value
    if args.seeds is not None:
        for flag in _SINGLE_RUN_FLAGS:
            if _flag_value(args, flag) is not None:
                raise ValueError(f"{flag} has no effect on a --seeds fleet: "
                                 f"it needs a single run (--seed)")
    config = cls(**kwargs)
    config.validate()
    return config


def _print_campaign_run(args: argparse.Namespace, engine) -> None:
    """The detailed view of one in-process campaign run."""
    report, config = engine.report, engine.config
    kind = config.KIND
    if args.timeline and report.tracer is not None:
        print(report.tracer.timeline())
        print()
    for when, action, detail in report.events:
        print(f"{when:8.3f}  {kind}  {action:16s} {detail}")
    print()
    print(report.summary())
    if config.clients:
        m = report.metrics
        print(f"clients: {m.get('client.requests', 0):.0f} requests, "
              f"{m.get('client.committed', 0):.0f} committed, "
              f"{m.get('client.aborted', 0):.0f} aborted, "
              f"{m.get('client.exhausted', 0):.0f} exhausted, "
              f"{m.get('client.failovers', 0):.0f} failovers, "
              f"{m.get('dedup.suppressed', 0):.0f} duplicates suppressed")
    if getattr(report, "samples", None):
        from repro.obs.report import render_availability

        print(render_availability(report.samples, report.bin_width,
                                  report.warmup))
    epochs = report.epochs()
    if epochs:
        from repro.obs import render_epoch_table

        print()
        print(render_epoch_table(epochs, limit=8))
    if report.profiler is not None:
        print()
        print(report.profiler.render(limit=16))
    if report.obs is not None:
        # Explicitly requested dumps — and, on an invariant failure, the
        # full evidence regardless of which flag was passed.
        if args.trace is not None or not report.ok:
            trace_path = args.trace or "chaos_trace.json"
            report.obs.export_chrome_trace(
                trace_path, f"{kind} seed={config.seed} mode={config.mode}")
            print(f"trace written to {trace_path}")
        if args.metrics is not None or not report.ok:
            metrics_path = args.metrics or "chaos_metrics.prom"
            report.obs.export_prometheus(metrics_path)
            print(f"metrics written to {metrics_path}")
    if report.ok:
        print(_CAMPAIGN_VIEWS[kind]["passed"])
    else:
        print(f"FAILURE: {report.error}", file=sys.stderr)


def _print_campaign_fleet(kind: str, seeds: List[int], results,
                          wall: float, jobs: int) -> None:
    """The per-seed table of a campaign fleet, in seed-spec order."""
    view = _CAMPAIGN_VIEWS[kind]
    header = (f"{'seed':>6s} {'verdict':8s} "
              + " ".join(f"{name:>{width}s}"
                         for name, width, _fmt, _get in view["columns"])
              + f"  {view['digest'].replace('_', ' ')}")
    print(header)
    print("-" * len(header))
    passed = 0
    for seed in seeds:
        payload = results[seed]
        if "fleet_error" in payload:
            print(f"{seed:6d} ERROR    worker crashed:")
            print("    "
                  + payload["fleet_error"].strip().replace("\n", "\n    "))
            continue
        print(f"{seed:6d} {'PASS' if payload['ok'] else 'FAIL':8s} "
              + " ".join(format(get(payload), f"{width}{fmt}")
                         for _name, width, fmt, get in view["columns"])
              + f"  {payload[view['digest']][:16]}")
        if payload["ok"]:
            passed += 1
        else:
            print(f"       error: {payload['error']}")
            for path in payload.get("artifacts", ()):
                print(f"       artifact: {path}")
    print(f"\n{len(seeds)} {view['noun']} in {wall:.1f}s wall "
          f"(--jobs {jobs}); {passed} passed, "
          f"{len(seeds) - passed} failed")


def _cmd_chaos(args: argparse.Namespace) -> int:
    """The one campaign command: ``chaos`` or ``chaos --endurance``, as
    a single in-process run or — with ``--seeds`` — one run per seed
    across worker processes, tabulated by seed, never by completion."""
    from dataclasses import asdict, replace

    from repro.faults.campaign import repro_command, run_cell
    from repro.fleet import parse_seed_spec, run_seed_fleet

    try:
        config = campaign_config(args)
        seeds = ([config.seed] if args.seeds is None
                 else parse_seed_spec(args.seeds))
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    kind = config.KIND
    if args.seeds is None:
        # A single run is a fleet of one that stays in this process, so
        # the live report is still around for the detailed view.
        engine, payload = run_cell(kind, args.artifacts_dir, **asdict(config))
        _print_campaign_run(args, engine)
        for path in payload.get("artifacts", ()):
            print(f"  artifact: {path}", file=sys.stderr)
        results = {config.seed: payload}
    else:
        params = asdict(config)
        del params["seed"]
        start = time.perf_counter()
        results = run_seed_fleet(kind, seeds, jobs=args.jobs,
                                 artifacts_dir=args.artifacts_dir, **params)
        _print_campaign_fleet(kind, seeds, results,
                              time.perf_counter() - start, args.jobs)
    failed = [seed for seed in seeds if not results[seed].get("ok")]
    for seed in failed[:3]:
        print(f"reproduce: {repro_command(replace(config, seed=seed))}",
              file=sys.stderr)
    return 1 if failed else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from repro.fleet import SWEEPS, run_sweep

    if args.list:
        for name, study in sorted(SWEEPS.items()):
            print(f"{name:16s} {len(study.grid):3d} cells  {study.title}")
        return 0
    if args.study is None:
        print("error: --study is required (or --list)", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        result = run_sweep(args.study, jobs=args.jobs)
    except (ValueError, RuntimeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - start
    columns = [c for c in result["rows"][0] if c not in ("payload",)]
    widths = {c: len(c) for c in columns}
    rendered = []
    for row in result["rows"]:
        cells = {}
        for column in columns:
            value = row[column]
            cells[column] = (f"{value:.4g}" if isinstance(value, float)
                            else str(value))
            widths[column] = max(widths[column], len(cells[column]))
        rendered.append(cells)
    print(f"=== {result['title']} ===")
    line = "  ".join(c.ljust(widths[c]) for c in columns)
    print(line)
    print("-" * len(line))
    for cells in rendered:
        print("  ".join(cells[c].ljust(widths[c]) for c in columns))
    print(f"\n{len(result['rows'])} cells in {wall:.1f}s wall "
          f"(--jobs {args.jobs})")
    if args.output:
        payload = {
            "study": result["study"],
            "title": result["title"],
            "rows": [
                {**{k: v for k, v in row.items() if k != "payload"},
                 "report": row["payload"]}
                for row in result["rows"]
            ],
        }
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"results written to {args.output}")
    incomplete = [row["cell"] for row in result["rows"]
                  if not row.get("completed")]
    if incomplete:
        print(f"INCOMPLETE cells: {', '.join(incomplete)}", file=sys.stderr)
        return 1
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro import audit

    if args.list:
        for case_id, case in audit.CASES.items():
            axes = ", ".join(("determinism",) + case.axes)
            print(f"{case_id:24s} [{axes}]")
        return 0
    start = time.perf_counter()
    try:
        audit.check_dump_dir(args.dump_dir, force=args.force)
        outcome = audit.run_audit(case_ids=args.case or None, jobs=args.jobs,
                                  dump_dir=args.dump_dir)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - start
    print(outcome.render())
    print(f"({wall:.1f}s wall at --jobs {args.jobs})")
    return 0 if outcome.ok else 1


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.differential import run_differential
    from repro.fleet import parse_seed_spec

    try:
        seeds = parse_seed_spec(args.seeds)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    backends = tuple(b.strip() for b in args.backends.split(",") if b.strip())
    kind = "endurance" if args.endurance else "chaos"
    overrides = {}
    if args.duration is not None:
        overrides["duration"] = args.duration
    if kind == "chaos":
        overrides["intensity"] = args.intensity
        overrides["clients"] = args.clients
    start = time.perf_counter()
    try:
        report = run_differential(seeds, backends=backends, kind=kind,
                                  jobs=args.jobs,
                                  artifacts_dir=args.artifacts_dir,
                                  **overrides)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - start
    print(report.render())
    print(f"({wall:.1f}s wall at --jobs {args.jobs})")
    if not report.ok:
        first = report.first_failure()
        for path in first.get("artifacts", ()):
            print(f"  artifact: {path}", file=sys.stderr)
        if "repro" in first:  # a crashed worker has no payload to replay
            print(f"reproduce: {first['repro']}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.search import SearchConfig, SearchEngine, replay_schedule
    from repro.search.genome import SearchSpace

    if args.replay is not None:
        try:
            payload = replay_schedule(args.replay)
        except (OSError, ValueError, KeyError) as error:
            print(f"error: cannot replay {args.replay}: {error}",
                  file=sys.stderr)
            return 2
        print(f"replayed {args.replay}: genome {payload['genome_digest'][:16]}"
              f" run digest {payload['run_digest'][:16]}"
              f" ({payload['virtual_time']:.2f}s virtual)")
        verdict = "PASS" if payload["ok"] else f"FAIL [{payload['error']}]"
        print(f"run verdict: {verdict}")
        if payload["recorded_digest"] is not None:
            state = "MATCH" if payload["matches"] else "MISMATCH"
            print(f"recorded digest {payload['recorded_digest'][:16]}: {state}")
            return 0 if payload["matches"] else 1
        return 0 if payload["ok"] else 1

    config = (SearchConfig.smoke(seed=args.seed) if args.smoke
              else SearchConfig(seed=args.seed,
                                generations=args.generations,
                                population=args.population,
                                shrink_budget=args.shrink_budget))
    config.jobs = args.jobs
    config.corpus_dir = args.corpus_dir
    config.artifacts_dir = args.artifacts_dir
    config.space = SearchSpace(n_sites=args.sites, mode=args.mode)
    start = time.perf_counter()
    report = SearchEngine(config).run()
    wall = time.perf_counter() - start
    print(report.summary())
    for failure in report.failures:
        print(failure.summary())
        print(f"  minimal: {failure.minimal.describe()}")
        for path in failure.artifacts:
            print(f"  artifact: {path}")
    for error in report.errors:
        print(f"error: {error}", file=sys.stderr)
    if args.corpus_dir is not None:
        print(f"corpus written to {args.corpus_dir}")
    print(f"({wall:.1f}s wall at --jobs {args.jobs})")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Online reconfiguration in replicated databases (DSN 2001) — "
                    "simulation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, strategy_default: str = "rectable") -> None:
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--mode", choices=ALL_BACKEND_NAMES, default="vs",
                       help="reconfiguration backend "
                            "(docs/RECONFIG_BACKENDS.md)")
        p.add_argument("--strategy", choices=ALL_STRATEGY_NAMES,
                       default=strategy_default)
        p.add_argument("--db-size", type=int, default=200)
        p.add_argument("--sites", type=int, default=3)
        p.add_argument("--rate", type=float, default=120.0)

    demo = sub.add_parser("demo", help="run a workload and verify correctness")
    common(demo)
    demo.add_argument("--duration", type=float, default=2.0)
    demo.set_defaults(fn=_cmd_demo)

    strategies = sub.add_parser("strategies", help="list transfer strategies")
    strategies.set_defaults(fn=_cmd_strategies)

    recover = sub.add_parser("recover", help="crash + online recovery experiment")
    common(recover)
    recover.add_argument("--downtime", type=float, default=1.0)
    recover.set_defaults(fn=_cmd_recover)

    figure1 = sub.add_parser("figure1", help="the cascading-reconfiguration scenario")
    common(figure1)
    figure1.set_defaults(fn=_cmd_figure1)

    trace = sub.add_parser("trace", help="recovery run with a full event timeline")
    common(trace)
    trace.add_argument("--downtime", type=float, default=0.8)
    trace.set_defaults(fn=_cmd_trace)

    report = sub.add_parser(
        "report",
        help="observed recovery run: summary + Chrome trace + metrics artifacts",
    )
    common(report)
    report.add_argument("--downtime", type=float, default=0.8)
    report.add_argument("--out-dir", default="obs_out",
                        help="directory for run.jsonl / trace.json / "
                             "metrics.prom (default %(default)s)")
    report.add_argument("--input", default=None, metavar="RUN_JSONL",
                        help="render the summary of a previously exported "
                             "run.jsonl instead of running a simulation")
    report.add_argument("--summary", action="store_true",
                        help="print the one-screen digest (commits, aborts, "
                             "availability, epochs, worst epoch) and skip "
                             "artifact files")
    report.set_defaults(fn=_cmd_report)

    profile = sub.add_parser(
        "profile",
        help="deterministic sim-loop profiler: per-subsystem cost table + "
             "collapsed-stack file + epoch phase decomposition",
    )
    common(profile)
    profile.add_argument("--downtime", type=float, default=0.8)
    profile.add_argument("--smoke", action="store_true",
                         help="pinned reduced-scale scenario (CI smoke job)")
    profile.add_argument("--top", type=int, default=24,
                         help="rows in the printed cost table "
                              "(default %(default)s)")
    profile.add_argument("--out-dir", default="profile_out",
                         help="directory for profile.collapsed / profile.txt "
                              "/ epochs.txt (default %(default)s)")
    profile.set_defaults(fn=_cmd_profile)

    chaos = sub.add_parser(
        "chaos", help="seeded randomized fault storm + full invariant check"
    )
    common(chaos)
    chaos.set_defaults(sites=CampaignConfig.n_sites,
                       db_size=CampaignConfig.db_size,
                       rate=CampaignConfig.arrival_rate)
    chaos.add_argument("--intensity", type=float, default=None,
                       help="fault event rate scale in [0, 1] (default 0.5; "
                            "not with --endurance)")
    chaos.add_argument("--duration", type=float, default=None,
                       help="storm length in virtual seconds "
                            "(default 3.0, or 12.0 with --endurance)")
    chaos.add_argument("--endurance", action="store_true",
                       help="run the long-horizon churn schedule instead "
                            "of the single storm: a genome derived from "
                            "rolling-restart / partition-storm / "
                            "join-leave-churn / self-stabilization families "
                            "under client traffic, with quiescent invariant "
                            "sweeps and an availability-floor check "
                            "(docs/ENDURANCE.md)")
    chaos.add_argument("--segments", default=None, metavar="LIST",
                       type=lambda spec: tuple(s for s in spec.split(",") if s),
                       help="with --endurance: comma-separated segment "
                            "families to derive the schedule from "
                            "(default rolling,storm,churn,stabilize)")
    chaos.add_argument("--artifacts-dir", default="endurance_out",
                       metavar="DIR",
                       help="where failed runs (single or --seeds fleet "
                            "cells, chaos or --endurance) dump their "
                            "evidence: schedule, trace, WAL, availability "
                            "timeline, repro command (default %(default)s)")
    chaos.add_argument("--timeline", action="store_true",
                       help="also print the full trace timeline")
    chaos.add_argument("--trace", nargs="?", const="chaos_trace.json",
                       default=None, metavar="PATH",
                       help="attach observability and write a Chrome trace "
                            "(default PATH: %(const)s)")
    chaos.add_argument("--metrics", nargs="?", const="chaos_metrics.prom",
                       default=None, metavar="PATH",
                       help="attach observability and write a Prometheus-style "
                            "metrics dump (default PATH: %(const)s)")
    chaos.add_argument("--clients", type=int, default=None,
                       help="drive the storm with N closed-loop client "
                            "sessions (failover + exactly-once checking) "
                            "instead of the open-loop generator "
                            "(default 0, or 6 with --endurance)")
    chaos.add_argument("--profile", action="store_true",
                       help="attach the deterministic sim-loop profiler and "
                            "print the per-subsystem cost table "
                            "(observation-equivalent; single runs only)")
    chaos.add_argument("--seeds", default=None, metavar="SPEC",
                       help="run a whole seed fleet instead of one storm: "
                            "'0..15', '1,2,5' or a mix; results are merged "
                            "by seed (use with --jobs)")
    chaos.add_argument("--jobs", type=int, default=1,
                       help="worker processes for --seeds fleets "
                            "(default %(default)s)")
    chaos.set_defaults(fn=_cmd_chaos)

    sweep = sub.add_parser(
        "sweep",
        help="run a benchmark parameter-study grid (repro.fleet.SWEEPS) "
             "across worker processes",
    )
    sweep.add_argument("--study", default=None,
                       help="study name (see --list)")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default %(default)s)")
    sweep.add_argument("--output", default=None, metavar="FILE",
                       help="also write the merged rows as JSON")
    sweep.add_argument("--list", action="store_true",
                       help="list the available studies and exit")
    sweep.set_defaults(fn=_cmd_sweep)

    diff = sub.add_parser(
        "diff",
        help="differential runner: replay pinned fault storms on two "
             "backends and diff the invariant verdicts",
    )
    diff.add_argument("--seeds", default="9,23", metavar="SPEC",
                      help="seed spec: '9,23', '0..7' or a mix "
                           "(default %(default)s)")
    diff.add_argument("--backends", default="evs,logless", metavar="LIST",
                      help="comma-separated backends to compare "
                           f"(choices: {', '.join(ALL_BACKEND_NAMES)}; "
                           "default %(default)s)")
    diff.add_argument("--endurance", action="store_true",
                      help="replay the long-horizon endurance churn "
                           "schedule instead of the chaos storm")
    diff.add_argument("--duration", type=float, default=None,
                      help="storm length in virtual seconds "
                           "(default 1.5, or 6.0 with --endurance)")
    diff.add_argument("--intensity", type=float, default=0.5,
                      help="chaos fault event rate scale (default %(default)s)")
    diff.add_argument("--clients", type=int, default=6,
                      help="closed-loop client sessions per chaos run, "
                           "for exactly-once coverage (default %(default)s)")
    diff.add_argument("--jobs", type=int, default=1,
                      help="worker processes (default %(default)s)")
    diff.add_argument("--artifacts-dir", default="diff_out", metavar="DIR",
                      help="evidence bundle for the first failing cell "
                           "(default %(default)s)")
    diff.set_defaults(fn=_cmd_diff)

    search = sub.add_parser(
        "search",
        help="coverage-guided adversarial chaos search: mutate fault "
             "schedules, score availability damage + novelty, shrink "
             "and dump any invariant violation (docs/SEARCH.md)",
    )
    search.add_argument("--seed", type=int, default=0,
                        help="search campaign seed (default %(default)s)")
    search.add_argument("--generations", type=int, default=4,
                        help="mutation generations (default %(default)s)")
    search.add_argument("--population", type=int, default=8,
                        help="candidates per generation (default %(default)s)")
    search.add_argument("--smoke", action="store_true",
                        help="CI preset: 2 generations x 4 candidates, "
                             "tight shrink budget")
    search.add_argument("--jobs", type=int, default=1,
                        help="worker processes per generation "
                             "(default %(default)s)")
    search.add_argument("--sites", type=int, default=5,
                        help="cluster size searched over (default %(default)s)")
    search.add_argument("--mode", choices=ALL_BACKEND_NAMES, default="vs",
                        help="reconfiguration backend searched over")
    search.add_argument("--corpus-dir", default=None, metavar="DIR",
                        help="write the corpus (one schedule JSON per entry "
                             "+ corpus.json index) here")
    search.add_argument("--artifacts-dir", default="search_out", metavar="DIR",
                        help="minimal-repro bundles for failing schedules "
                             "(default %(default)s)")
    search.add_argument("--shrink-budget", type=int, default=80,
                        help="max evaluations per failure minimization "
                             "(default %(default)s)")
    search.add_argument("--replay", metavar="SCHEDULE.json", default=None,
                        help="replay one schedule file instead of searching; "
                             "exits 0 iff the run digest matches the "
                             "recorded one (or, for bare genomes, iff the "
                             "run passes)")
    search.set_defaults(fn=_cmd_search)

    audit = sub.add_parser(
        "audit",
        help="determinism audit: double-run every pinned scenario/seed "
             "(plus batching/obs equivalence runs) and diff digests",
    )
    audit.add_argument("--case", action="append", metavar="CASE_ID",
                       help="audit only the given case (repeatable; "
                            "see --list)")
    audit.add_argument("--jobs", type=int, default=1,
                       help="worker processes; at >1 the paired runs land in "
                            "different interpreters with different hash "
                            "seeds — a stronger check (default %(default)s)")
    audit.add_argument("--dump-dir", default="audit_out", metavar="DIR",
                       help="where to write per-variant divergence artifacts "
                            "on failure (default %(default)s)")
    audit.add_argument("--force", action="store_true",
                       help="allow writing into a non-empty --dump-dir "
                            "(stale artifacts there may be overwritten)")
    audit.add_argument("--list", action="store_true",
                       help="list the pinned audit cases and exit")
    audit.set_defaults(fn=_cmd_audit)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
