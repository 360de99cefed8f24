"""Spec construction, validation and file loading — including the
satellite edge cases: malformed TOML/JSON, unknown stage keys/kinds."""

import pytest

from repro.core.errors import UnknownExperimentError
from repro.pipeline import (
    ExperimentSpec,
    SpecError,
    SweepSpec,
    load_spec,
    spec_from_dict,
    stage,
)

GOOD_TOML = """
name = "custom"
title = "Custom scenario"
scale = "smoke"

[[stage]]
name = "data"
kind = "dataset"
benchmarks = ["999.specrand"]

[[stage]]
name = "model"
kind = "train"
needs = ["data"]
benchmarks = ["999.specrand"]

[[stage]]
name = "report"
kind = "report"
needs = ["model"]
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- construction -----------------------------------------------------------
def test_stage_helper_and_validation():
    spec = ExperimentSpec(
        name="ok",
        stages=(
            stage("d", "dataset", benchmarks="train"),
            stage("r", "report", needs=("d",)),
        ),
    )
    assert [s.name for s in spec.stages] == ["d", "r"]
    assert spec.stage("d").kind == "dataset"
    with pytest.raises(UnknownExperimentError, match="unknown stage"):
        spec.stage("nope")


def test_unknown_stage_kind_suggests():
    with pytest.raises(UnknownExperimentError, match="did you mean 'report'"):
        ExperimentSpec(name="bad", stages=(stage("x", "reprot"),))


def test_unknown_stage_param_rejected():
    with pytest.raises(SpecError, match="unknown parameter"):
        ExperimentSpec(
            name="bad",
            stages=(stage("x", "dataset", benchmarks="train", tile=4),),
        )


def test_missing_required_param_rejected():
    with pytest.raises(SpecError, match="missing required"):
        ExperimentSpec(name="bad", stages=(stage("x", "dataset"),))


@pytest.mark.parametrize("params, match", [
    ({"configs": "unseen", "count": 0}, "'count' must be an integer >= 1"),
    ({"configs": "unseen", "count": "many"}, "'count' must be an integer"),
    ({"configs": "unseen", "count": True}, "'count' must be an integer"),
    ({"configs": "seen", "count": 3}, "'count' needs configs='unseen'"),
    ({"count": 3}, "'count' needs configs='unseen'"),
    ({"configs": "unsene"}, "'configs' must be 'seen' or 'unseen'"),
])
def test_dataset_config_params_validated_at_build_time(params, match):
    data = {
        "name": "bad_data",
        "stage": [
            {"name": "data", "kind": "dataset", "benchmarks": ["505.mcf"],
             **params},
            {"name": "report", "kind": "report", "needs": ["data"]},
        ],
    }
    with pytest.raises(SpecError, match=match) as exc:
        spec_from_dict(data)
    assert "stage 'data' (dataset)" in str(exc.value)


def test_dataset_unseen_count_accepted():
    spec = ExperimentSpec(name="ok", stages=(
        stage("d", "dataset", benchmarks="train", configs="unseen", count=4),
    ))
    assert spec.stage("d").params["count"] == 4
    with pytest.raises(SpecError, match="'count' must be an integer >= 1"):
        spec.override({"d.count": -1})


def test_duplicate_stage_names_rejected():
    with pytest.raises(SpecError, match="duplicate stage name"):
        ExperimentSpec(
            name="bad",
            stages=(stage("x", "dataset", benchmarks="train"),
                    stage("x", "dataset", benchmarks="test")),
        )


def test_needs_must_reference_earlier_stage():
    with pytest.raises(SpecError, match="not an earlier stage"):
        ExperimentSpec(
            name="bad",
            stages=(stage("a", "report", needs=("b",)),
                    stage("b", "dataset", benchmarks="train")),
        )


def test_override_replaces_params_and_scale():
    spec = ExperimentSpec(
        name="ok",
        scale="smoke",
        stages=(stage("d", "dataset", benchmarks="train", instructions=100),),
    )
    out = spec.override({"d.instructions": 200, "scale": "bench"})
    assert out.stage("d").params["instructions"] == 200
    assert out.scale == "bench"
    assert spec.stage("d").params["instructions"] == 100  # original untouched
    with pytest.raises(UnknownExperimentError):
        spec.override({"nope.x": 1})
    with pytest.raises(SpecError, match="'<stage>.<param>'"):
        spec.override({"bare": 1})


# -- file loading -----------------------------------------------------------
def test_load_toml_spec(tmp_path):
    spec = load_spec(_write(tmp_path, "s.toml", GOOD_TOML))
    assert spec.name == "custom"
    assert spec.scale == "smoke"
    assert [s.kind for s in spec.stages] == ["dataset", "train", "report"]


def test_load_json_spec(tmp_path):
    import json

    data = {
        "name": "jspec",
        "stage": [
            {"name": "d", "kind": "dataset", "benchmarks": ["999.specrand"]},
            {"name": "r", "kind": "report", "needs": "d"},
        ],
    }
    spec = load_spec(_write(tmp_path, "s.json", json.dumps(data)))
    assert spec.name == "jspec"
    assert spec.stage("r").needs == ("d",)


def test_malformed_toml_is_spec_error(tmp_path):
    with pytest.raises(SpecError, match="malformed TOML"):
        load_spec(_write(tmp_path, "bad.toml", "name = [unterminated"))


def test_malformed_json_is_spec_error(tmp_path):
    with pytest.raises(SpecError, match="malformed JSON"):
        load_spec(_write(tmp_path, "bad.json", '{"name": '))


def test_missing_file_and_bad_extension(tmp_path):
    with pytest.raises(SpecError, match="no spec file"):
        load_spec(str(tmp_path / "absent.toml"))
    with pytest.raises(SpecError, match="unsupported spec extension"):
        load_spec(_write(tmp_path, "s.yaml", "name: x"))


def test_unknown_top_level_key_rejected():
    with pytest.raises(SpecError, match="unknown top-level key"):
        spec_from_dict({
            "name": "x", "stges": [],
            "stage": [{"name": "d", "kind": "dataset",
                       "benchmarks": ["999.specrand"]}],
        })


def test_stage_entries_need_name_and_kind():
    with pytest.raises(SpecError, match="both 'name' and 'kind'"):
        spec_from_dict({"name": "x", "stage": [{"kind": "dataset"}]})
    with pytest.raises(SpecError, match="at least one"):
        spec_from_dict({"name": "x"})


def test_unknown_stage_kind_from_file_suggests(tmp_path):
    text = GOOD_TOML.replace('kind = "dataset"', 'kind = "datset"')
    with pytest.raises(UnknownExperimentError, match="did you mean 'dataset'"):
        load_spec(_write(tmp_path, "s.toml", text))


def test_sweep_spec_from_dict():
    loaded = spec_from_dict({
        "name": "sw",
        "stage": [{"name": "d", "kind": "dataset",
                   "benchmarks": ["999.specrand"]}],
        "sweep": {"matrix": {"d.instructions": [100, 200]}},
    })
    assert isinstance(loaded, SweepSpec)
    assert len(loaded) == 2


def test_sweep_requires_matrix_table():
    with pytest.raises(SpecError, match="sweep.matrix"):
        spec_from_dict({
            "name": "sw",
            "stage": [{"name": "d", "kind": "dataset",
                       "benchmarks": ["999.specrand"]}],
            "sweep": {"grid": {}},
        })
