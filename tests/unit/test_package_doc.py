"""The package docstring's quick start is the first code a reader runs:
it must run as printed."""

import textwrap

import repro


def test_quick_start_runs():
    block = repro.__doc__.split("Quick start::", 1)[1]
    code = textwrap.dedent(block)
    assert "ClusterBuilder" in code and "assert txn.committed" in code
    exec(compile(code, "repro.__doc__ quick start", "exec"), {})
