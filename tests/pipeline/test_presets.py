"""The preset spec registry holds one spec per experiment module."""

import pkgutil

import pytest

import repro.experiments
from repro.core.errors import UnknownExperimentError
from repro.pipeline import available_specs, get_spec


def test_every_experiment_has_a_spec():
    modules = {
        info.name for info in pkgutil.iter_modules(repro.experiments.__path__)
    } - {"common"}
    assert set(available_specs()) == modules


def test_specs_end_in_report_and_are_named_consistently():
    for name, spec in available_specs().items():
        assert spec.name == name
        assert spec.stages[-1].kind == "report"
        kinds = {s.kind for s in spec.stages}
        assert "analysis" in kinds  # every preset carries its figure logic


def test_get_spec_unknown_suggests():
    with pytest.raises(UnknownExperimentError, match="did you mean"):
        get_spec("fig3_seen_unsen")


def test_preset_analyses_are_registered():
    from repro.pipeline import ANALYSES

    for name, spec in available_specs().items():
        for st in spec.stages:
            if st.kind == "analysis":
                assert st.params["fn"] in ANALYSES
