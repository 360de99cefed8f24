"""Runner execution semantics: artifact reuse, forcing, failure resume,
parallel waves, and the Session facade."""

import os

import pytest

from repro.core.errors import UnknownExperimentError
from repro.pipeline import (
    ExperimentSpec,
    Runner,
    StageFailure,
    analysis,
    run_spec,
    stage,
)


@analysis("test_echo")
def _echo(ctx, params, inputs):
    counter = params.get("counter")
    if counter:
        with open(counter, "a") as fh:
            fh.write("x")
    value = params.get("value", 0)
    return {
        "title": "echo",
        "headers": ["key", "value"],
        "rows": [["value", value]],
        "metrics": {"value": float(value)},
        "notes": ["echoed"],
    }


@analysis("test_fail_unless_marker")
def _fail_unless_marker(ctx, params, inputs):
    if not os.path.exists(params["marker"]):
        raise RuntimeError("injected stage failure")
    return {"headers": ["a"], "rows": [["ok"]], "metrics": {}}


def _echo_spec(counter=None, value=7):
    params = {"value": value}
    if counter:
        params["counter"] = counter
    return ExperimentSpec(
        name="echo_spec",
        title="Echo",
        scale="smoke",
        stages=(
            stage("analyze", "analysis", fn="test_echo", **params),
            stage("report", "report", needs=("analyze",)),
        ),
    )


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_RESULTS_DIR", raising=False)
    return tmp_path


def test_run_executes_then_fully_caches(cache):
    counter = str(cache / "count.txt")
    spec = _echo_spec(counter=counter)
    first = Runner(spec, jobs=1).run()
    assert first.executed == 2 and first.cached == 0
    result = first.result
    assert result.experiment == "echo_spec"
    assert result.metrics["value"] == 7.0

    second = Runner(spec, jobs=1).run()
    assert second.fully_cached and second.cached == 2
    assert "0 executed, 2 cached" in second.summary()
    # the analysis genuinely did not run again
    assert open(counter).read() == "x"
    # and the reconstructed result is identical
    assert second.result == result


def test_changed_param_invalidates_downstream(cache):
    spec = _echo_spec(value=1)
    Runner(spec, jobs=1).run()
    bumped = spec.override({"analyze.value": 2})
    rerun = Runner(bumped, jobs=1).run()
    assert rerun.executed == 2  # analysis key changed -> report key changed
    assert rerun.result.metrics["value"] == 2.0


def test_force_reexecutes_every_stage(cache):
    counter = str(cache / "count.txt")
    spec = _echo_spec(counter=counter)
    Runner(spec, jobs=1).run()
    forced = Runner(spec, jobs=1, force=True).run()
    assert forced.executed == 2
    assert open(counter).read() == "xx"


def test_resume_after_partial_failure_reuses_completed_stages(cache):
    """Satellite: a failed run's completed stages are served from their
    artifacts on the retry — only the failure point onward re-executes."""
    counter = str(cache / "count.txt")
    marker = str(cache / "marker")
    spec = ExperimentSpec(
        name="resume_spec",
        scale="smoke",
        stages=(
            stage("good", "analysis", fn="test_echo", counter=counter),
            stage("flaky", "analysis", fn="test_fail_unless_marker",
                  marker=marker, needs=("good",)),
            stage("report", "report", needs=("flaky",)),
        ),
    )
    with pytest.raises(StageFailure, match="injected stage failure") as exc:
        Runner(spec, jobs=1).run()
    assert exc.value.stage_name == "flaky"
    assert open(counter).read() == "x"  # first stage completed + persisted

    open(marker, "w").close()  # "fix the bug"
    retry = Runner(spec, jobs=1).run()
    assert retry.outcome("good").cached      # resumed, not re-executed
    assert not retry.outcome("flaky").cached
    assert not retry.outcome("report").cached
    assert open(counter).read() == "x"


def test_dataset_train_evaluate_pipeline_end_to_end(cache):
    spec = ExperimentSpec(
        name="mini_scenario",
        title="Train tiny model, evaluate transfer",
        scale="smoke",
        stages=(
            stage("data", "dataset", benchmarks=["999.specrand"]),
            stage("model", "train", benchmarks=["999.specrand"],
                  needs=("data",)),
            stage("transfer", "evaluate", benchmarks=["505.mcf"],
                  needs=("model",)),
            stage("report", "report", needs=("transfer",)),
        ),
    )
    first = Runner(spec, jobs=1).run()
    assert first.executed == 4
    assert first.outcome("data").payload["fingerprint"]
    assert first.outcome("model").payload["artifact"].startswith("perfvec-")
    result = first.result
    assert result.rows and result.rows[0][0] == "505.mcf"
    assert 0 <= result.metrics["avg_error"]

    second = Runner(spec, jobs=1).run()
    assert second.fully_cached
    assert second.result == result


def test_parallel_wave_matches_serial(cache):
    spec = ExperimentSpec(
        name="two_datasets",
        scale="smoke",
        stages=(
            stage("a", "dataset", benchmarks=["999.specrand"]),
            stage("b", "dataset", benchmarks=["505.mcf"]),
            stage("analyze", "analysis", fn="test_echo", needs=("a", "b")),
            stage("report", "report", needs=("analyze",)),
        ),
    )
    parallel = Runner(spec, jobs=2).run()
    assert parallel.executed == 4
    serial = Runner(spec, jobs=1, force=True).run()
    assert (parallel.outcome("a").payload["fingerprint"]
            == serial.outcome("a").payload["fingerprint"])
    assert (parallel.outcome("b").payload["fingerprint"]
            == serial.outcome("b").payload["fingerprint"])


@analysis("test_report_jobs")
def _report_jobs(ctx, params, inputs):
    return {"headers": ["jobs"], "rows": [[ctx.jobs]],
            "metrics": {"jobs": ctx.jobs}}


def test_concurrent_stages_keep_the_full_simulation_budget(cache):
    # a stage beside wave-mates still fans its simulations out, so no
    # stage worker simulates a whole dataset serially in one process
    spec = ExperimentSpec(
        name="jobs_spec",
        scale="smoke",
        stages=(
            stage("a", "analysis", fn="test_report_jobs", tag="a"),
            stage("b", "analysis", fn="test_report_jobs", tag="b"),
        ),
    )
    run = Runner(spec, jobs=2).run()
    assert run.executed == 2
    assert run.outcome("a").payload["metrics"]["jobs"] == 2
    assert run.outcome("b").payload["metrics"]["jobs"] == 2


def test_unknown_analysis_name_fails_with_suggestions(cache):
    spec = ExperimentSpec(
        name="typo_spec",
        scale="smoke",
        stages=(stage("analyze", "analysis", fn="test_ech0"),),
    )
    with pytest.raises(StageFailure, match="unknown analysis"):
        Runner(spec, jobs=1).run()


def test_run_spec_by_unknown_name_suggests():
    with pytest.raises(UnknownExperimentError, match="unknown spec"):
        run_spec("fig3_seen_unsen", scale="smoke")


def test_save_writes_report_json(cache):
    results = str(cache / "out")
    saved = Runner(_echo_spec(), jobs=1, save=True,
                   results_dir=results).run()
    assert saved.saved == [os.path.join(results, "echo_spec_smoke.json")]
    assert os.path.exists(saved.saved[0])
    # saving also works on a fully cached run (payload reconstruction)
    again = Runner(_echo_spec(), jobs=1, save=True,
                   results_dir=results).run()
    assert again.fully_cached and again.saved


def test_session_run_pipeline_uses_session_scale_and_cache(tmp_path, monkeypatch):
    from repro.api import Session

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    session = Session(scale="smoke", jobs=1)
    result = session.run_pipeline(_echo_spec())
    assert result.scale == "smoke"
    assert result.result.metrics["value"] == 7.0
    assert session.run_pipeline(_echo_spec()).fully_cached


def test_editing_analysis_code_invalidates_cached_stages(cache):
    """An edited analysis function must not be answered from artifacts
    recorded by its previous implementation."""
    from repro.pipeline.stages import ANALYSES, analysis_fingerprint

    spec = _echo_spec()
    assert Runner(spec, jobs=1).run().executed == 2
    assert Runner(spec, jobs=1).run().fully_cached

    original = ANALYSES["test_echo"]

    def patched(ctx, params, inputs):
        return {"headers": ["key", "value"], "rows": [["value", 99]],
                "metrics": {"value": 99.0}}

    try:
        ANALYSES["test_echo"] = patched
        assert analysis_fingerprint("test_echo") != "unregistered"
        rerun = Runner(spec, jobs=1).run()
        assert rerun.executed == 2  # new source -> new keys -> re-executed
        assert rerun.result.metrics["value"] == 99.0
    finally:
        ANALYSES["test_echo"] = original
    # the original implementation's artifacts are still intact
    assert Runner(spec, jobs=1).run().result.metrics["value"] == 7.0


def test_runner_restores_cache_dir_env(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    Runner(_echo_spec(), jobs=1, cache_dir=str(tmp_path / "c")).run()
    assert "REPRO_CACHE_DIR" not in os.environ

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "orig"))
    Runner(_echo_spec(), jobs=1, cache_dir=str(tmp_path / "c")).run()
    assert os.environ["REPRO_CACHE_DIR"] == str(tmp_path / "orig")


def test_session_run_pipeline_rejects_sweeps(tmp_path, monkeypatch):
    from repro.api import Session
    from repro.pipeline import SpecError

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    path = tmp_path / "sweep.toml"
    path.write_text(
        'name = "sw"\nscale = "smoke"\n'
        '[[stage]]\nname = "analyze"\nkind = "analysis"\nfn = "test_echo"\n'
        '[sweep.matrix]\n"analyze.value" = [1, 2]\n'
    )
    with pytest.raises(SpecError, match="repro pipeline sweep"):
        Session(scale="smoke", jobs=1).run_pipeline(str(path))


def test_unknown_scale_suggests():
    from repro.experiments.common import get_scale

    with pytest.raises(UnknownExperimentError, match="did you mean 'smoke'"):
        get_scale("smok")


def test_failure_still_runs_every_independent_stage(cache):
    """A failed stage blocks only its dependents: later waves of the
    independent branch still execute and persist before StageFailure."""
    good, late = str(cache / "good.txt"), str(cache / "late.txt")
    spec = ExperimentSpec(
        name="branches",
        scale="smoke",
        stages=(
            stage("flaky", "analysis", fn="test_fail_unless_marker",
                  marker=str(cache / "never")),
            stage("good", "analysis", fn="test_echo", counter=good),
            stage("late", "analysis", fn="test_echo", counter=late, value=2,
                  needs=("good",)),
            stage("blocked", "report", needs=("flaky",)),
        ),
    )
    with pytest.raises(StageFailure, match="injected stage failure") as exc:
        Runner(spec, jobs=1).run()
    assert exc.value.stage_name == "flaky"
    assert open(good).read() == "x"
    assert open(late).read() == "x"  # second wave ran despite the failure


def test_forced_fig3_analysis_reads_its_stage_inputs(cache, monkeypatch):
    """On a warm cache the fig3 analysis re-runs from its upstream
    payloads alone: no training and no simulation."""
    import repro.models.adapters as adapters
    from repro.experiments.fig3_seen_unseen import SPEC
    from repro.sim.cpu import CPUSimulator

    warm = Runner(SPEC, scale="smoke", jobs=1).run()
    calls = {"train": 0, "sim": 0}

    def counting_train(*args, **kwargs):
        calls["train"] += 1
        raise AssertionError("forced analysis must not train")

    def counting_run(*args, **kwargs):
        calls["sim"] += 1
        raise AssertionError("forced analysis must not simulate")

    monkeypatch.setattr(adapters, "train_foundation", counting_train)
    monkeypatch.setattr(CPUSimulator, "run", counting_run)
    forced = Runner(SPEC, scale="smoke", jobs=1,
                    force_stages=("analyze",)).run()
    assert [o.name for o in forced.outcomes if not o.cached] == ["analyze"]
    assert calls == {"train": 0, "sim": 0}
    assert forced.outcome("analyze").payload == warm.outcome("analyze").payload


def test_stored_foundation_reused_by_a_cold_runner(cache, monkeypatch):
    """With the stage store wiped, a second cold run re-executes every
    stage but loads the stored model instead of retraining it."""
    import shutil

    import repro.models.adapters as adapters
    from repro.workloads import TRAIN_BENCHMARKS

    calls = {"train": 0}
    real_train = adapters.train_foundation

    def counting_train(dataset, config):
        calls["train"] += 1
        return real_train(dataset, config)

    monkeypatch.setattr(adapters, "train_foundation", counting_train)
    benchmarks = list(TRAIN_BENCHMARKS[:3])
    spec = ExperimentSpec(
        name="store_reuse",
        scale="smoke",
        stages=(
            stage("data", "dataset", benchmarks=benchmarks),
            stage("foundation", "train", benchmarks=benchmarks,
                  needs=("data",)),
        ),
    )
    first = Runner(spec, jobs=1).run()
    assert calls["train"] == 1
    assert first.outcome("foundation").payload["reused"] is False

    shutil.rmtree(cache / "cache" / "stages")  # keep datasets + models
    second = Runner(spec, jobs=1).run()
    assert second.executed == 2
    assert calls["train"] == 1  # loaded, not retrained
    payload = second.outcome("foundation").payload
    assert payload["reused"] is True
    # content-addressed id: same weights, same training provenance
    assert payload["artifact"] == first.outcome("foundation").payload["artifact"]
