"""Smoke test of the benchmark harness under ``bench/`` (no timing assertions)."""

from pathlib import Path

import pytest

from parabolab import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import recorder
    import workloads

    return recorder, workloads


def test_recorder_installs_and_uninstalls(bench):
    recorder, _ = bench
    original = cli.main
    rec = recorder.Recorder()  # resolves every name in each layer's ``__all__``
    rec.install()
    try:
        assert cli.main is not original
    finally:
        rec.uninstall()
    assert cli.main is original


def test_cli_pass_has_no_failed_operation(bench, tmp_path):
    recorder, workloads = bench
    cases = workloads.cli_setup(1)
    ops = workloads.Ops()
    workloads.cli_pass(cases, 0, tmp_path, recorder.NullRecorder(), ops)
    assert ops.attempted == len(cases)
    assert ops.failed == 0, ops.notes
