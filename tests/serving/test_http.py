"""Serving round-trip: start the HTTP service, POST, compare to Session."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.api import Session
from repro.serving import PredictionService, make_server

SPEC = dict(arch="lstm-1-8", chunk_len=16, batch_size=8, epochs=1)
BENCHMARKS = ("999.specrand", "505.mcf")


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    session = Session(
        scale="smoke", cache_dir=str(tmp_path_factory.mktemp("http"))
    )
    session.train(benchmarks=BENCHMARKS, **SPEC)
    return session


@pytest.fixture(scope="module")
def endpoint(session):
    service = PredictionService(session=session)
    server = make_server(service, port=0)  # ephemeral port
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    service.stop()


def _get(url):
    with urllib.request.urlopen(url, timeout=60) as response:
        return response.status, json.loads(response.read())


def _post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def test_healthz(endpoint):
    status, body = _get(f"{endpoint}/healthz")
    assert status == 200
    assert body["status"] == "ok" and body["scale"] == "smoke"
    assert body["models"] >= 1


def test_models_listing(endpoint, session):
    status, body = _get(f"{endpoint}/v1/models")
    assert status == 200
    assert [m["id"] for m in body["models"]] == [
        m["id"] for m in session.models()
    ]


def test_predict_roundtrip_matches_session(endpoint, session):
    status, body = _post(f"{endpoint}/v1/predict", {"benchmark": "505.mcf"})
    assert status == 200
    assert body["times"] == pytest.approx(session.predict("505.mcf"))
    assert body["artifact"] == session.resolve_artifact()


def test_batched_predict_roundtrip(endpoint, session):
    status, body = _post(f"{endpoint}/v1/predict", {
        "requests": [{"benchmark": name} for name in BENCHMARKS],
    })
    assert status == 200
    expected = session.predict_many(BENCHMARKS)
    assert len(body["results"]) == len(BENCHMARKS)
    for result in body["results"]:
        assert result["times"] == pytest.approx(
            expected[result["benchmark"]], rel=1e-6
        )


def test_unknown_benchmark_is_404(endpoint):
    status, body = _post(
        f"{endpoint}/v1/predict", {"benchmark": "not.a.benchmark"}
    )
    assert status == 404
    assert "unknown benchmark" in body["error"]


def test_unknown_config_is_400(endpoint):
    status, body = _post(
        f"{endpoint}/v1/predict",
        {"benchmark": "505.mcf", "config": "no-such-config"},
    )
    assert status == 400
    assert "unknown config 'no-such-config'" in body["error"]


def test_bad_payload_is_400(endpoint):
    status, body = _post(f"{endpoint}/v1/predict", {"nope": 1})
    assert status == 400
    assert "benchmark" in body["error"]
    # wrongly typed fields are bad requests, not unknown benchmarks (404)
    for field, payload in [
        ("benchmark", {"benchmark": 5}),
        ("benchmark", {"benchmark": None}),
        ("benchmark", {"benchmark": ["505.mcf"]}),
        ("family", {"benchmark": "505.mcf", "family": 3}),
        ("artifact", {"benchmark": "505.mcf", "artifact": {"id": "x"}}),
        ("config", {"benchmark": "505.mcf", "config": 0}),
    ]:
        status, body = _post(f"{endpoint}/v1/predict", payload)
        assert status == 400, payload
        assert field in body["error"], payload


def test_unknown_endpoint_is_404(endpoint):
    status, body = _post(f"{endpoint}/v1/nope", {"benchmark": "505.mcf"})
    assert status == 404


# ---------------------------------------------------------------------------
# request ids + metrics exposition
# ---------------------------------------------------------------------------
def _get_raw(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def _post_raw(url, payload, headers=None):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def test_every_response_carries_a_request_id(endpoint):
    status, headers, _ = _get_raw(f"{endpoint}/healthz")
    assert status == 200
    assert len(headers["X-Request-Id"]) == 16  # minted at ingress

    status, headers, _ = _post_raw(
        f"{endpoint}/v1/predict", {"benchmark": "505.mcf"}
    )
    assert status == 200 and headers["X-Request-Id"]


def test_client_supplied_request_id_is_echoed(endpoint):
    status, headers, body = _post_raw(
        f"{endpoint}/v1/predict", {"nope": 1},
        headers={"X-Request-Id": "client-abc-123"},
    )
    assert status == 400
    assert headers["X-Request-Id"] == "client-abc-123"
    # error bodies carry the id too, so a log line can be correlated
    assert json.loads(body)["request_id"] == "client-abc-123"


def test_error_responses_carry_request_id_in_body(endpoint):
    status, headers, body = _post_raw(
        f"{endpoint}/v1/predict", {"benchmark": "not.a.benchmark"}
    )
    assert status == 404
    payload = json.loads(body)
    assert payload["request_id"] == headers["X-Request-Id"]


def test_metrics_endpoint_parses_with_core_series(endpoint):
    from repro.obs.metrics import parse_prometheus

    # two predicts: the first may cold-load the model, the second is
    # guaranteed to hit the warm cache
    _post(f"{endpoint}/v1/predict", {"benchmark": "505.mcf"})
    _post(f"{endpoint}/v1/predict", {"benchmark": "505.mcf"})
    status, headers, body = _get_raw(f"{endpoint}/v1/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    samples = parse_prometheus(body.decode())
    assert samples["repro_microbatch_size_count"] >= 1
    assert samples["repro_microbatch_flush_seconds_count"] >= 1
    assert samples['repro_serving_cache_total{cache="model",outcome="hit"}'] \
        >= 1
    assert any(k.startswith('repro_http_responses_total{status="200"}')
               for k in samples)
