"""Tests of the benchmark itself: its checks must reject wrong results.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""
from dataclasses import replace
from functools import partial

import pytest

import run
import workloads


def corrupted(call):
    """The output of ``call`` with one value changed."""
    out = call()
    if isinstance(out, workloads.CliResult):
        if "1" in out.stdout:
            return out._replace(stdout=out.stdout.replace("1", "2", 1))
        return out._replace(code=out.code + 1)
    if hasattr(out, "entries"):  # a sigma family object
        return replace(out, entries=corrupted(lambda: out.entries))
    values = out.values
    return type(out)(values[:-1] + (values[-1] + 1,))


@pytest.fixture
def context(tmp_path, monkeypatch):
    run.prepare_checkout()
    monkeypatch.setenv("TOOL_MAX_DEPTH", str(workloads.CLI_MAX_DEPTH))
    return workloads.Context(run.DATA, tmp_path, run.cli_env())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_corrupted_result_fails(workload, context):
    _, requests, _, _ = run.setup(workload, 7, context)
    session = run.Session([replace(r, call=partial(corrupted, r.call)) for r in requests], [], 7)
    session.run(0, 0)
    assert session.attempted == len(requests)
    assert session.failed == session.attempted


def test_repeated_outputs_must_match_the_checked_one(context):
    _, requests, _, _ = run.setup("coprime-denominators", 7, context)
    session = run.Session(requests, [], 7)
    session.run(0, 0)
    assert session.failed == 0
    session.requests = [replace(r, call=partial(corrupted, r.call)) for r in requests]
    session.run(0, 0)
    assert session.failed == len(requests)
