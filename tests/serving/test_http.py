"""Serving round-trip: start the HTTP service, POST, compare to Session."""

import json
import os
import socket
import struct
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import Session
from repro.obs.metrics import REGISTRY
from repro.serving import PredictionService, make_server
from repro.serving import http as serving_http

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


# ---------------------------------------------------------------------------
# connection faults: bad lengths, stalled bodies, vanished clients
# ---------------------------------------------------------------------------
def _raw_exchange(endpoint, raw: bytes, timeout: float = 5.0) -> bytes:
    """Send ``raw`` on a fresh socket; everything read until the server
    closes the connection (raises ``TimeoutError`` if it never does)."""
    host, port = endpoint.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        sock.sendall(raw)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def _dropped(reason):
    return REGISTRY.counter("repro_http_dropped_total", reason=reason).value


def _status(reply: bytes) -> bytes:
    return reply.split(b"\r\n", 1)[0].split()[1]


def test_negative_content_length_is_400_not_a_hang(endpoint):
    # rfile.read(-1) would block until the client closed the socket
    reply = _raw_exchange(
        endpoint,
        b"POST /v1/predict HTTP/1.1\r\nHost: x\r\n"
        b"Content-Length: -1\r\n\r\n",
    )
    assert _status(reply) == b"400"
    assert b"invalid Content-Length: -1" in reply


def test_short_body_times_out_with_408(endpoint, monkeypatch):
    monkeypatch.setattr(serving_http, "READ_TIMEOUT_S", 0.2)
    before = _dropped("read_timeout")
    started = time.monotonic()
    reply = _raw_exchange(
        endpoint,
        b"POST /v1/predict HTTP/1.1\r\nHost: x\r\n"
        b"Content-Length: 100\r\n\r\n{\"benchmark\"",
    )
    assert time.monotonic() - started < 4.0
    assert _status(reply) == b"408"
    assert _dropped("read_timeout") == before + 1


def test_client_gone_before_reply_is_counted_without_traceback(
    session, capfd
):
    service = PredictionService(session=session)
    entered, release = threading.Event(), threading.Event()
    predict_each = service.predict_each

    def held(requests):
        entered.set()
        assert release.wait(30)
        return predict_each(requests)

    service.predict_each = held
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    before = _dropped("client_disconnect")
    try:
        body = json.dumps({"benchmark": "505.mcf"}).encode()
        sock = socket.create_connection(server.server_address, timeout=5)
        sock.sendall(
            b"POST /v1/predict HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        assert entered.wait(30)
        # linger 0: close() sends RST, so the reply write fails
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()
        time.sleep(0.1)
        release.set()
        deadline = time.monotonic() + 30
        while (_dropped("client_disconnect") == before
               and time.monotonic() < deadline):
            time.sleep(0.01)
    finally:
        release.set()
        server.shutdown()
        server.server_close()
        service.stop()
    assert _dropped("client_disconnect") == before + 1
    assert "Traceback" not in capfd.readouterr().err


def test_in_process_serve_answers_on_one_blas_thread(monkeypatch, tmp_path):
    import repro.serving
    from repro.cli import main

    monkeypatch.setattr(repro.serving, "run_server", lambda *a, **k: None)
    argv = ["serve", "--scale", "smoke", "--cache-dir", str(tmp_path)]
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert main(argv) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    # an operator's explicit setting wins
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert main(argv) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
