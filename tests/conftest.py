"""Suite-wide fixtures."""

import os

import pytest


@pytest.fixture(autouse=True)
def _isolate_repro_env():
    """Undo ``REPRO_*`` env mutations after every test.

    The CLI's ``--cache-dir``/``--results-dir``/``--obs`` flags export
    ``REPRO_CACHE_DIR``/``REPRO_RESULTS_DIR``/``REPRO_OBS`` process-wide
    (so worker processes resolve the same settings); without this
    fixture a test that exercises those flags would silently redirect
    every later test's caches, results or tracing.
    """
    variables = (
        "REPRO_CACHE_DIR",
        "REPRO_RESULTS_DIR",
        "REPRO_OBS",
        "REPRO_OBS_TRACE",
        "REPRO_OBS_SLOW_MS",
    )
    saved = {var: os.environ.get(var) for var in variables}
    yield
    for var, value in saved.items():
        if value is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = value
