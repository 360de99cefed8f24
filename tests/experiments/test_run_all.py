"""Tests for the union-plan experiment runner (pipeline.runner.run_all)."""

import io

import pytest

from repro.pipeline import ANALYSES
from repro.pipeline.runner import run_all
from repro.runtime import ProgressReporter


def test_run_all_unknown_name_rejected():
    with pytest.raises(KeyError):
        run_all(names=["fig99_nonexistent"], scale="smoke")


def test_run_all_serial_subset():
    outcomes = run_all(names=["sec4b_reuse"], scale="smoke", jobs=1)
    assert len(outcomes) == 1
    assert outcomes[0].ok
    assert outcomes[0].name == "sec4b_reuse"
    assert outcomes[0].result.experiment == "sec4b_reuse"


def test_run_all_parallel_two_experiments():
    outcomes = run_all(
        names=["sec4b_reuse", "fig3_seen_unseen"], scale="smoke", jobs=2
    )
    assert [o.name for o in outcomes] == ["sec4b_reuse", "fig3_seen_unseen"]
    assert all(o.ok for o in outcomes)
    # results came back across the process boundary fully formed
    assert all(o.result.rows for o in outcomes)


def test_run_all_captures_failures(monkeypatch):
    def _explode(ctx, params, inputs):
        raise RuntimeError("injected failure")

    monkeypatch.setitem(ANALYSES, "sec4b_reuse", _explode)
    outcomes = run_all(
        names=["sec4b_reuse", "fig3_seen_unseen"], scale="smoke", jobs=1
    )
    assert not outcomes[0].ok
    assert "injected failure" in outcomes[0].error
    assert "stage 'analyze'" in outcomes[0].error
    # fig3 shares sec4b's train_data stage but not its failed analysis
    assert outcomes[1].ok
    assert outcomes[1].result.rows


def test_run_all_warm_rerun_executes_nothing(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    stream = io.StringIO()
    run_all(names=["sec4b_reuse"], scale="smoke", jobs=1,
            progress=ProgressReporter(total=0, stream=stream))
    assert "union plan: 3 executed, 0 cached" in stream.getvalue()

    stream = io.StringIO()
    outcomes = run_all(names=["sec4b_reuse"], scale="smoke", jobs=1,
                       progress=ProgressReporter(total=0, stream=stream))
    assert outcomes[0].ok
    lines = stream.getvalue().splitlines()
    assert lines[0].startswith("[1/3] sec4b_reuse:train_data (cached)")
    assert "union plan: 0 executed, 3 cached" in lines[-1]


def test_run_all_save_writes_results_incrementally(tmp_path, monkeypatch):
    import os

    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_RESULTS_DIR", raising=False)
    outcomes = run_all(names=["sec4b_reuse"], scale="smoke", jobs=1, save=True)
    assert outcomes[0].ok
    # saved as the report stage completed, not by the caller — results
    # follow the cache root (no hardcoded ./results)
    assert os.path.exists(str(tmp_path / "cache/results/sec4b_reuse_smoke.json"))
    assert not os.path.exists("results")
