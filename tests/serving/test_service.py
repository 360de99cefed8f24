"""PredictionService: caching, grouping, micro-batching."""

import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.api import Session
from repro.core.errors import UnknownBenchmarkError
from repro.models import StoreError
from repro.obs.metrics import REGISTRY
from repro.serving import PredictionService, ServeRequest
from repro.serving.service import _LRU

SPEC = dict(arch="lstm-1-8", chunk_len=16, batch_size=8, epochs=1)
BENCHMARKS = ("999.specrand", "505.mcf")


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    session = Session(
        scale="smoke", cache_dir=str(tmp_path_factory.mktemp("serving"))
    )
    session.train(benchmarks=BENCHMARKS, **SPEC)
    return session


@pytest.fixture()
def service(session):
    service = PredictionService(session=session)
    yield service
    service.stop()


def test_lru_evicts_least_recent():
    lru = _LRU(2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1  # refresh a
    lru.put("c", 3)  # evicts b
    assert lru.get("b") is None
    assert lru.get("a") == 1 and lru.get("c") == 3


def test_predict_matches_session(service, session):
    result = service.predict(ServeRequest(benchmark="505.mcf"))
    expected = session.predict("505.mcf")
    assert result.times == pytest.approx(expected)
    assert result.artifact == session.resolve_artifact()


def test_config_filter(service, session):
    expected = session.predict("505.mcf")
    config = next(iter(expected))
    result = service.predict(ServeRequest(benchmark="505.mcf", config=config))
    assert result.times == pytest.approx({config: expected[config]})


def test_model_and_feature_caches_warm_up(service):
    assert len(service._models) == 0 and len(service._features) == 0
    service.predict(ServeRequest(benchmark="505.mcf"))
    assert len(service._models) == 1 and len(service._features) == 1
    service.predict(ServeRequest(benchmark="505.mcf"))
    assert len(service._models) == 1 and len(service._features) == 1


def test_batch_results_in_request_order(service, session):
    requests = [
        ServeRequest(benchmark="505.mcf"),
        ServeRequest(benchmark="999.specrand"),
        ServeRequest(benchmark="505.mcf"),
    ]
    results = service.predict_batch(requests)
    assert [r.benchmark for r in results] == [r.benchmark for r in requests]
    assert results[0].times == results[2].times  # coalesced, same answer
    expected = session.predict_many(["505.mcf", "999.specrand"])
    for result in results:
        assert result.times == pytest.approx(expected[result.benchmark])


def test_submit_micro_batches(service, session):
    futures = [
        service.submit(ServeRequest(benchmark=name))
        for name in ("505.mcf", "999.specrand", "505.mcf", "999.specrand")
    ]
    results = [f.result(timeout=60) for f in futures]
    expected = session.predict_many(BENCHMARKS)
    for result in results:
        assert result.times == pytest.approx(
            expected[result.benchmark], rel=1e-6
        )


def test_partial_batch_flushes_on_deadline_without_follow_up(session):
    # regression: a lone request must be answered with *zero* follow-up
    # traffic — it must not sit waiting for max_batch companions that
    # will never arrive
    service = PredictionService(session=session, max_batch=64)
    try:
        start = time.monotonic()
        result = service.submit(ServeRequest(benchmark="505.mcf")).result(
            timeout=30
        )
        elapsed = time.monotonic() - start
    finally:
        service.stop()
    assert result.benchmark == "505.mcf"
    # one engine pass; far under any "hang" threshold
    assert elapsed < 5.0


def test_requests_queued_behind_a_busy_engine_form_the_next_batch(
    session, monkeypatch, tmp_path
):
    # continuous batching: while the engine answers one batch, new
    # requests queue; the collector takes all of them together as soon
    # as the engine is free, and every request's queue wait is observed
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_OBS", "1")
    monkeypatch.delenv("REPRO_OBS_TRACE", raising=False)
    obs.reset_for_tests()
    service = PredictionService(session=session, max_batch=64)
    entered, release = threading.Event(), threading.Event()
    sizes: list[int] = []
    predict_each = service.predict_each

    def held(requests):
        sizes.append(len(requests))
        if len(sizes) == 1:
            entered.set()
            assert release.wait(30)
        return predict_each(requests)

    monkeypatch.setattr(service, "predict_each", held)
    names = ["505.mcf", "999.specrand", "505.mcf", "999.specrand", "505.mcf"]
    waits = REGISTRY.histogram("repro_microbatch_queue_wait_seconds")
    before = waits.count
    try:
        first = service.submit(ServeRequest(benchmark="505.mcf"))
        assert entered.wait(30)
        queued = [service.submit(ServeRequest(benchmark=n)) for n in names]
        time.sleep(0.2)  # the queued five wait at least this long
        release.set()
        results = [f.result(timeout=60) for f in [first, *queued]]
    finally:
        release.set()
        service.stop()
        spans = [r for r in obs.flight_snapshot()
                 if r["name"] == "service.microbatch"]
        obs.reset_for_tests()
    assert sizes == [1, 5]
    assert [r.benchmark for r in results[1:]] == names
    assert waits.count - before == 6
    # each batch's span carries its largest queue wait
    assert [r["attrs"]["size"] for r in spans] == [1, 5]
    assert spans[1]["attrs"]["queue_wait_ms"] >= 200


def test_submit_surfaces_errors_per_request(service):
    good = service.submit(ServeRequest(benchmark="505.mcf"))
    bad = service.submit(ServeRequest(benchmark="not.a.benchmark"))
    assert np.isfinite(list(good.result(timeout=60).times.values())).all()
    with pytest.raises(UnknownBenchmarkError):
        bad.result(timeout=60)


def test_unknown_config_is_clear_error(service):
    from repro.core.errors import PredictionError

    with pytest.raises(PredictionError, match="unknown config 'nope'"):
        service.predict(ServeRequest(benchmark="505.mcf", config="nope"))


def test_parameter_family_serves_its_fitted_benchmark(service, session):
    session.train(family="actboost", benchmarks=BENCHMARKS, n_estimators=3)
    result = service.predict(
        ServeRequest(benchmark="999.specrand", family="actboost")
    )
    assert result.times == session.predict("999.specrand", family="actboost")
    # the per-program baseline answers only for the benchmark it was fit to
    from repro.core.errors import PredictionError

    with pytest.raises(PredictionError, match="fitted to benchmark"):
        service.predict(
            ServeRequest(benchmark="505.mcf", family="actboost")
        )


def test_feature_lru_is_the_only_in_memory_copy(service, session):
    session._features.clear()
    service.predict(ServeRequest(benchmark="505.mcf"))
    assert len(service._features) == 1
    assert "505.mcf" not in session._features  # memo=False path


def test_unknown_artifact_raises_store_error(service):
    with pytest.raises(StoreError):
        service.predict(
            ServeRequest(benchmark="505.mcf", artifact="perfvec-missing")
        )


def test_serve_request_parsing():
    request = ServeRequest.from_dict({"benchmark": "505.mcf", "config": "u0"})
    assert request.benchmark == "505.mcf" and request.config == "u0"
    with pytest.raises(ValueError, match="benchmark"):
        ServeRequest.from_dict({})
    with pytest.raises(ValueError, match="unknown request fields"):
        ServeRequest.from_dict({"benchmark": "x", "nope": 1})
    assert ServeRequest.from_dict(
        ServeRequest(benchmark="x").to_dict()
    ) == ServeRequest(benchmark="x")


def test_stats_report_service_counters(service):
    service.predict(ServeRequest(benchmark="505.mcf"))
    stats = service.stats()
    assert stats["scale"] == "smoke"
    assert stats["models_cached"] >= 1
