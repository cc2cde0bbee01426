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


WORKLOADS = ("variational-oracle", "degenerate-pde", "sde-ensemble", "cli-batch")


def test_every_workload_is_smoke_tested(bench):
    _, workloads = bench
    assert set(workloads.WORKLOADS) == set(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_pass_has_no_failed_operation(bench, tmp_path, name):
    # a package name or parameter that the benchmark still uses fails here
    recorder, workloads = bench
    setup, run_pass = workloads.WORKLOADS[name]
    state = setup(1)
    ops = workloads.Ops()
    run_pass(state, 0, tmp_path, recorder.NullRecorder(), ops)
    assert ops.attempted > 0
    if name == "cli-batch":
        assert ops.attempted == len(state)
    assert ops.failed == 0, ops.notes
