"""Tests for the command-line interface."""

import argparse
import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO = Path(__file__).resolve().parents[2]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["recover"])
        assert args.strategy == "rectable"
        assert args.mode == "vs"
        assert args.downtime == 1.0

    def test_strategy_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["recover", "--strategy", "magic"])

    @pytest.mark.parametrize("command", ["demo", "recover", "figure1", "trace",
                                         "report", "profile", "chaos", "search"])
    def test_retired_backend_flag_exits_2_everywhere(self, command, capsys):
        """``--mode`` takes the backend name; the second selector is
        gone from every subcommand that used to carry both."""
        with pytest.raises(SystemExit) as caught:
            main([command, "--backend", "logless"])
        assert caught.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_mode_takes_every_registered_backend(self):
        from repro.reconfig.backends import ALL_BACKEND_NAMES

        for name in ALL_BACKEND_NAMES:
            assert build_parser().parse_args(["chaos", "--mode", name]).mode == name
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--mode", "paxos"])

    def test_documented_commands_exist(self):
        """Every ``python -m repro <word>`` in the how-to docs, CI and the
        verify notes is a registered subcommand, and every ``--flag``
        that follows it on the line (up to the end of the command: a
        backtick, `` | ``, ``;`` or ``&&``) is one that subcommand's
        parser accepts.  Dated records (EXPERIMENTS.md, CHANGES.md) are
        history and are not scanned."""
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        files = [REPO / "README.md", REPO / "DESIGN.md",
                 REPO / ".github/workflows/ci.yml",
                 REPO / ".claude/skills/verify/SKILL.md",
                 *sorted((REPO / "docs").glob("*.md"))]
        unknown = []
        for path in files:
            for number, line in enumerate(path.read_text().splitlines(), 1):
                where = f"{path.relative_to(REPO)}:{number}"
                for words, rest in re.findall(
                        r"python -m repro ([\w|]+)([^`;]*)", line):
                    command = re.split(r" \| | && ", rest)[0]
                    flags = re.findall(r"(?<![\w-])--[a-z][\w-]*", command)
                    for word in words.split("|"):
                        parser = subparsers.choices.get(word)
                        if parser is None:
                            unknown.append(f"{where}: {word}")
                            continue
                        unknown += [f"{where}: {word} {flag}" for flag in flags
                                    if flag not in parser._option_string_actions]
        assert not unknown, "\n".join(unknown)


class TestCommands:
    def test_strategies_lists_all(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        for name in ("full", "version_check", "rectable", "log_filter",
                     "lazy", "gcs_level"):
            assert name in out

    def test_demo_runs_and_checks(self, capsys):
        assert main(["demo", "--duration", "0.5", "--db-size", "30",
                     "--rate", "60"]) == 0
        out = capsys.readouterr().out
        assert "all correctness checks passed" in out

    def test_recover_reports_metrics(self, capsys):
        assert main(["recover", "--db-size", "60", "--downtime", "0.4",
                     "--rate", "80"]) == 0
        out = capsys.readouterr().out
        assert "rejoined:        True" in out
        assert "objects_sent" in out

    def test_figure1_vs(self, capsys):
        assert main(["figure1", "--seed", "17"]) == 0
        out = capsys.readouterr().out
        assert "completed:             True" in out

    def test_trace_prints_timeline(self, capsys):
        assert main(["trace", "--db-size", "40", "--downtime", "0.4",
                     "--rate", "60"]) == 0
        out = capsys.readouterr().out
        assert "transfer" in out and "recovery of S3: completed" in out

    def test_audit_rejects_unknown_case_listing_valid_ids(self, capsys):
        from repro.audit import CASES

        assert main(["audit", "--case", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err and all(case_id in err for case_id in CASES)


class TestReportCommand:
    def test_report_writes_artifacts(self, capsys, tmp_path):
        out_dir = tmp_path / "obs"
        assert main(["report", "--db-size", "40", "--rate", "60",
                     "--downtime", "0.5", "--out-dir", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "span durations by phase" in out
        assert "txn (submit -> done)" in out
        for name in ("run.jsonl", "trace.json", "metrics.prom"):
            assert (out_dir / name).exists(), name
        trace = json.loads((out_dir / "trace.json").read_text())
        assert trace["traceEvents"]
        prom = (out_dir / "metrics.prom").read_text()
        assert "# TYPE repro_" in prom

    def test_report_reloads_from_jsonl(self, capsys, tmp_path):
        out_dir = tmp_path / "obs"
        assert main(["report", "--db-size", "40", "--rate", "60",
                     "--downtime", "0.5", "--out-dir", str(out_dir)]) == 0
        first = capsys.readouterr().out
        assert main(["report", "--input", str(out_dir / "run.jsonl")]) == 0
        second = capsys.readouterr().out
        # The summary re-rendered from the file matches the live one.
        assert "span durations by phase" in second
        assert first.splitlines()[0] == second.splitlines()[0]


class TestChaosObservability:
    def test_chaos_flags_write_trace_and_metrics(self, capsys, tmp_path):
        trace_path = tmp_path / "storm.json"
        prom_path = tmp_path / "storm.prom"
        assert main(["chaos", "--seed", "3", "--duration", "2.0",
                     "--trace", str(trace_path),
                     "--metrics", str(prom_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]
        assert "repro_" in prom_path.read_text()

    def test_chaos_without_flags_writes_nothing(self, capsys, tmp_path,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["chaos", "--seed", "3", "--duration", "2.0"]) == 0
        assert list(tmp_path.iterdir()) == []


class TestChaosFlagCombinations:
    """A flag the selected mode would silently ignore exits 2 with one
    line naming the flag and the mode it needs — before any run."""

    @pytest.mark.parametrize("argv,flag,needs", [
        (["--seeds", "1,2", "--trace"], "--trace", "single run"),
        (["--seeds", "1,2", "--metrics", "m.prom"], "--metrics", "single run"),
        (["--seeds", "1,2", "--profile"], "--profile", "single run"),
        (["--seeds", "1,2", "--timeline"], "--timeline", "single run"),
        (["--endurance", "--seeds", "0,1", "--profile"], "--profile",
         "single run"),
        (["--endurance", "--intensity", "0.9"], "--intensity", "plain chaos"),
        (["--endurance", "--seeds", "0,1", "--intensity", "0.9"],
         "--intensity", "plain chaos"),
        (["--segments", "rolling"], "--segments", "--endurance"),
    ])
    def test_ignored_flag_is_rejected(self, capsys, argv, flag, needs):
        assert main(["chaos"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = captured.err.strip()
        assert "\n" not in message
        assert flag in message and needs in message

    @pytest.mark.parametrize("argv", [
        ["--intensity", "1.5"],
        ["--sites", "1"],
        ["--duration", "-2"],
        ["--endurance", "--clients", "0"],
        ["--seeds", "3..1"],
    ])
    def test_bad_values_exit_2_without_a_traceback(self, capsys, argv):
        assert main(["chaos"] + argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestAuditDumpDirGuard:
    """The audit CLI must refuse to clobber a non-empty --dump-dir."""

    def test_check_dump_dir_refuses_non_empty(self, tmp_path):
        from repro.audit import check_dump_dir

        (tmp_path / "old_case.a.json").write_text("{}")
        with pytest.raises(ValueError, match="--force"):
            check_dump_dir(str(tmp_path))

    def test_check_dump_dir_allows_force_empty_and_missing(self, tmp_path):
        from repro.audit import check_dump_dir

        (tmp_path / "old_case.a.json").write_text("{}")
        check_dump_dir(str(tmp_path), force=True)
        empty = tmp_path / "fresh"
        empty.mkdir()
        check_dump_dir(str(empty))
        check_dump_dir(str(tmp_path / "not-there"))
        check_dump_dir(None)

    def test_audit_cli_exits_2_before_running_any_case(self, capsys, tmp_path):
        (tmp_path / "stale.b.json").write_text("{}")
        assert main(["audit", "--case", "bench:chaos",
                     "--dump-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "--force" in err and "stale.b.json" in err

    def test_audit_cli_force_accepted_by_parser(self):
        args = build_parser().parse_args(["audit", "--force"])
        assert args.force is True
