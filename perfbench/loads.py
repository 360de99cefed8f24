"""The benchmark's four workloads, their output checks and their metrics.

Each workload function takes a :class:`Run` and returns an
:class:`Outcome`.  An *operation* is the workload's unit of latency:

* ``pipeline_fig3`` — one cold ``repro pipeline run fig3_seen_unseen
  --scale bench`` (one per run; its latency is the pipeline's wall time);
* ``dse_sweep`` — one point of the 1008-point cache-DSE sweep, timed
  between consecutive stage completions;
* ``serve_small`` — one single-benchmark ``POST /v1/predict``, timed from
  the moment it was due (open loop);
* ``serve_batch`` — one 64-request ``POST /v1/predict`` call (closed
  loop); its throughput counts predictions, not calls.

Untraced runs start the program exactly as a user does (``python -m
repro ...``).  Traced runs first repeat the untraced measurement, then
start the same program through ``child.py`` with layer probes installed,
so the ratio of the two is the tracing overhead.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
ROOT = os.path.dirname(HERE)  # the checkout
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

#: fig3 at bench scale; the errors are deterministic for a given program.
FIG3_STAGES = 5
FIG3_ROWS = 17
FIG3_ERRORS = {"avg_seen_error": 0.2599, "avg_unseen_error": 0.3938}
#: model quality may not get worse than the recorded errors by more than
#: this share; better models pass
FIG3_ERROR_TOLERANCE = 0.05
#: sha256 over every (seed, L1 kB, L2 kB, time_ns) of the DSE sweep; the
#: simulator is deterministic, so any change to a simulated time shows here
DSE_POINTS = 1008
DSE_DIGEST = ("593d3f125054fa2b9d87308bd6178f73"
              "ee08b7044cd4f6d2603e1c8b32a3a1fd")
DSE_BEST = (4, 256)
#: open-loop offered rate of serve_small and its client connections
SMALL_RATE = 30.0
CONNECTIONS = 2
#: serve_small's generator has fallen behind if p99 lateness exceeds this
MAX_LATE_P99_MS = 50.0
BATCH_REQUESTS = 64
SERVE_TOLERANCE = 1e-6
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170.0


class CheckFailed(Exception):
    """An output check failed; the run reports ``correct: false``."""


class Outcome:
    """What one workload run measured."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict = {}
        self.notes: dict = {}

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


class Run:
    """Settings and scratch space of one benchmark invocation."""

    def __init__(self, seed: int, seconds: float, trace: bool):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = os.path.join(WORK, "runs", str(os.getpid()))
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
        self._count = 0

    def fresh(self, name: str) -> str:
        """A new empty directory under this run's scratch space."""
        self._count += 1
        path = os.path.join(self.dir, f"{self._count:02d}-{name}")
        os.makedirs(path)
        return path

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


# -- processes ----------------------------------------------------------------
def child_env(trace_dir: str | None = None) -> dict:
    """The program's environment: the checkout's sources, scratch space
    inside the checkout, no inherited ``REPRO_*`` settings."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("REPRO_", "PERFBENCH_"))}
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    if trace_dir is not None:
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    env["PERFBENCH_LAUNCH"] = repr(time.time())
    return env


def program(args: list[str], traced: bool) -> list[str]:
    """``repro`` with ``args``: the CLI itself, or through the probes."""
    if traced:
        return [sys.executable, CHILD, "cli", *args]
    return [sys.executable, "-m", "repro", *args]


def _tree(pid: int) -> list[int]:
    found, todo = [], [pid]
    while todo:
        current = todo.pop()
        found.append(current)
        try:
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as fh:
                    todo.extend(int(child) for child in fh.read().split())
        except OSError:
            continue
    return found


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class PeakRss:
    """Largest peak resident set (VmHWM) of a process and its descendants,
    polled while it runs."""

    def __init__(self, pid: int, interval_s: float = 0.2):
        self.pid = pid
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, args=(interval_s,),
                                        daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        for pid in _tree(self.pid):
            self.peak_kb = max(self.peak_kb, _hwm_kb(pid))

    def _poll(self, interval_s: float) -> None:
        while not self._stop.is_set():
            self._sample()
            self._stop.wait(interval_s)

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        return self.peak_kb / 1024.0


def run_program(cmd: list[str], env: dict, log: str) -> dict:
    """Run ``cmd`` to completion; wall time, stdout and peak memory."""
    start = time.perf_counter()
    with open(log, "w") as err:
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                stderr=err, text=True, cwd=ROOT)
        watch = PeakRss(proc.pid)
        try:
            stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            peak = watch.stop()
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        with open(log) as fh:
            tail = fh.read()[-2000:]
        raise CheckFailed(f"{' '.join(cmd[1:4])}... exited with "
                          f"{proc.returncode}:\n{tail}")
    return {"wall_s": wall, "stdout": stdout, "peak_mb": peak}


def _percentile(values: list, q: int) -> float:
    """The ``q``-th percentile, linearly interpolated."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(out: Outcome, latencies_s: list, items_per_s: float,
               setup_s: list, peak_mb: float) -> dict:
    # the tail is printed, not bounded: on a shared 2-CPU host its
    # run-to-run spread exceeds the largest bound a metric may have
    out.notes["latencies"] = len(latencies_s)
    out.notes["p90_ms"] = 1e3 * _percentile(latencies_s, 90)
    out.notes["p99_ms"] = 1e3 * _percentile(latencies_s, 99)
    return {
        "p50_ms": 1e3 * _percentile(latencies_s, 50),
        "items_per_s": items_per_s,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_mb,
    }


def _program_layers(out: Outcome, trace_dir: str, wall_s: float,
                    overhead: float, unattributed: str) -> dict:
    """Per-layer metrics of a traced program whose launching process spans
    the wall time: coverage is that process's attributed time over it."""
    totals = layers.Totals(trace_dir)
    attributed = totals.main_attributed_s()
    out.notes["unattributed"] = unattributed
    return layers.layer_metrics(totals, {
        "client.late_p99_ms": 0.0,
        "bench.coverage": attributed / wall_s,
        "bench.trace_overhead": overhead,
        "bench.unattributed_s": wall_s - attributed,
    })


# -- pipeline_fig3 ----------------------------------------------------------
_SUMMARY = re.compile(r"\): (\d+) executed, (\d+) cached \(of (\d+) stages\)")


def _fig3(run: Run, out: Outcome, root: str, traced_dir: str | None,
          cold: bool) -> dict:
    args = ["pipeline", "run", "fig3_seen_unseen", "--scale", "bench",
            "--cache-dir", root, "--save"]
    result = run_program(program(args, traced_dir is not None),
                         child_env(traced_dir),
                         os.path.join(run.dir, "fig3.log"))
    summary = _SUMMARY.search(result["stdout"])
    if summary is None:
        raise CheckFailed("pipeline printed no stage summary")
    executed, cached, total = map(int, summary.groups())
    if not cold:
        out.check(executed == 0 and cached == FIG3_STAGES,
                  f"warm re-run executed {executed} stages")
        return result
    out.attempted += FIG3_STAGES
    out.failed += FIG3_STAGES - executed
    out.check(total == FIG3_STAGES and executed == FIG3_STAGES
              and cached == 0,
              f"cold run: {executed} executed, {cached} cached of {total}")
    saved = re.search(r"^saved: (.+)$", result["stdout"], re.MULTILINE)
    if saved is None:
        raise CheckFailed("pipeline saved no result")
    with open(saved.group(1).strip()) as fh:
        report = json.load(fh)
    errors = [float(row[2].rstrip("%")) for row in report["rows"]]
    out.check(len(errors) == FIG3_ROWS
              and all(math.isfinite(e) for e in errors),
              f"report has {len(errors)} rows, expected {FIG3_ROWS} finite")
    for name, recorded in FIG3_ERRORS.items():
        value = report["metrics"][name]
        out.notes[name] = value
        out.check(0 < value <= recorded * (1 + FIG3_ERROR_TOLERANCE),
                  f"{name} = {value:.4f}, recorded {recorded}")
    return result


def pipeline_fig3(run: Run) -> Outcome:
    out = Outcome()
    root = run.fresh("fig3")
    cold = _fig3(run, out, root, None, cold=True)
    out.notes["wall_s"] = cold["wall_s"]
    if run.trace:
        trace_dir = run.fresh("trace")
        traced = _fig3(run, out, run.fresh("fig3-traced"), trace_dir,
                       cold=True)
        out.metrics = _program_layers(
            out, trace_dir, traced["wall_s"],
            traced["wall_s"] / cold["wall_s"],
            "argument parsing, result rendering and interpreter exit of "
            "the CLI",
        )
        return out
    # set-up: a warm re-run executes no stage, so it costs process start,
    # imports, plan construction and one store lookup per stage
    setups = [_fig3(run, out, root, None, cold=False)["wall_s"]
              for _ in range(SETUP_REPEATS)]
    out.metrics = end_to_end(out, [cold["wall_s"]], 1.0 / cold["wall_s"],
                             setups, cold["peak_mb"])
    return out


# -- dse_sweep --------------------------------------------------------------
def _dse(run: Run, out: Outcome, seconds: float,
         trace_dir: str | None = None) -> dict:
    report_path = os.path.join(run.dir, "dse.json")
    cmd = [sys.executable, CHILD, "dse", "--root", run.fresh("dse"),
           "--seconds", str(seconds), "--out", report_path]
    if seconds <= 0:
        cmd.append("--setup-only")
    result = run_program(cmd, child_env(trace_dir),
                         os.path.join(run.dir, "dse.log"))
    with open(report_path) as fh:
        report = json.load(fh)
    for sweep in report["sweeps"]:
        out.attempted += DSE_POINTS
        out.failed += DSE_POINTS - sweep["executed"]
        out.check(sweep["executed"] == DSE_POINTS and sweep["cached"] == 0
                  and sweep["points"] == DSE_POINTS,
                  f"sweep executed {sweep['executed']}, cached "
                  f"{sweep['cached']} of {DSE_POINTS}")
        out.check(sweep["digest"] == DSE_DIGEST,
                  "simulated times differ from the recorded digest")
        out.check((sweep["best_l1_kb"], sweep["best_l2_kb"]) == DSE_BEST,
                  f"best point L1={sweep['best_l1_kb']} kB "
                  f"L2={sweep['best_l2_kb']} kB, expected {DSE_BEST}")
    points = sum(s["points"] for s in report["sweeps"])
    sweep_s = sum(s["wall_s"] for s in report["sweeps"])
    report["points_per_s"] = points / sweep_s if sweep_s else 0.0
    report["wall_s"] = result["wall_s"]
    report["peak_mb"] = result["peak_mb"]
    return report


def dse_sweep(run: Run) -> Outcome:
    out = Outcome()
    main = _dse(run, out, run.seconds)
    if run.trace:
        trace_dir = run.fresh("trace")
        traced = _dse(run, out, run.seconds, trace_dir)
        out.metrics = _program_layers(
            out, trace_dir, traced["wall_s"],
            main["points_per_s"] / traced["points_per_s"],
            "the sweep loop in child.py",
        )
        return out
    setups = [main["setup_s"]] + [
        _dse(run, out, 0)["setup_s"] for _ in range(SETUP_REPEATS - 1)
    ]
    out.metrics = end_to_end(out, main["latencies_s"], main["points_per_s"],
                             setups, main["peak_mb"])
    return out


# -- serving ------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _post(conn: http.client.HTTPConnection, body: bytes):
    conn.request("POST", "/v1/predict", body,
                 {"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def prepared(run: Run, scale: str) -> tuple[str, dict]:
    """A cache root holding the stored model of ``scale`` and its encoded
    features, plus ``Session.predict`` of every suite benchmark on that
    artifact.  Built once per checkout, outside every timed window; each
    server starts on a fresh copy, so no run sees another's kernels."""
    root = os.path.join(WORK, "prep", scale)
    reference_path = os.path.join(root, "reference.json")
    if not os.path.exists(reference_path):
        building = f"{root}.building"
        shutil.rmtree(building, ignore_errors=True)
        os.makedirs(building)
        log = os.path.join(run.dir, f"prep-{scale}.log")
        steps = [["train", "--scale", scale, "--cache-dir", building]]
        if scale == "bench":  # the artifact `repro train` reuses from fig3
            steps.insert(0, ["pipeline", "run", "fig3_seen_unseen",
                             "--scale", "bench", "--cache-dir", building])
        for args in steps:
            run_program(program(args, False), child_env(), log)
        run_program([sys.executable, CHILD, "reference", "--scale", scale,
                     "--cache-dir", building, "--out",
                     os.path.join(building, "reference.json")],
                    child_env(), log)
        shutil.rmtree(root, ignore_errors=True)
        os.replace(building, root)
    with open(reference_path) as fh:
        return root, json.load(fh)


class Server:
    """``repro serve`` in its default in-process mode, on a fresh copy of
    a prepared cache root."""

    def __init__(self, run: Run, scale: str, prep_root: str,
                 trace_dir: str | None = None):
        root = run.fresh(f"serve-{scale}")
        shutil.copytree(prep_root, root, dirs_exist_ok=True)
        self.port = _free_port()
        args = ["serve", "--scale", scale, "--port", str(self.port),
                "--cache-dir", root]
        self._log = open(os.path.join(run.dir, "serve.log"), "a")
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            program(args, trace_dir is not None), env=child_env(trace_dir),
            stdout=subprocess.DEVNULL, stderr=self._log, cwd=ROOT,
        )

    def ready(self, body: bytes, timeout_s: float = 60.0) -> float:
        """Seconds from launch to the first 200 answer to ``body``."""
        deadline = self.launched + timeout_s
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise CheckFailed(f"server exited with {self.proc.returncode}")
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=30)
            try:
                status, _ = _post(conn, body)
            except OSError:
                time.sleep(0.01)
                continue
            finally:
                conn.close()
            if status == 200:
                return time.perf_counter() - self.launched
            raise CheckFailed(f"first request answered {status}")
        raise CheckFailed("server not ready in time")

    def peak_mb(self) -> float:
        return _hwm_kb(self.proc.pid) / 1024.0

    def stop(self) -> None:
        """Ctrl-C, as an operator stops it; killed if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _request(conn_box: list, port: int, body: bytes):
    """One POST on the client's connection, reconnecting after an error;
    ``(status or None, payload, sent, done)``."""
    sent = time.perf_counter()
    try:
        status, payload = _post(conn_box[0], body)
    except (OSError, http.client.HTTPException):
        conn_box[0].close()
        conn_box[0] = http.client.HTTPConnection("127.0.0.1", port,
                                                 timeout=30)
        status, payload = None, b""
    return status, payload, sent, time.perf_counter()


def _open_loop(port: int, bodies: list, rate: float) -> list:
    """Send ``bodies[i]`` at ``start + i / rate`` over ``CONNECTIONS``
    connections, each taking the next due request when it is free.
    Records ``(due, sent, done, status, payload)``."""
    records: list = [None] * len(bodies)
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05

    def client() -> None:
        box = [http.client.HTTPConnection("127.0.0.1", port, timeout=30)]
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(bodies):
                break
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            status, payload, sent, done = _request(box, port, bodies[i])
            records[i] = (due, sent, done, status, payload)
        box[0].close()

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def _closed_loop(port: int, batches: list, seconds: float) -> list:
    """Each client posts its next batch once the last one is answered,
    until ``seconds`` have passed.  Records ``(start, sent, done, status,
    payload, batch index)``."""
    records: list = []
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds

    def client(own: list) -> None:
        box = [http.client.HTTPConnection("127.0.0.1", port, timeout=60)]
        i = 0
        while time.perf_counter() < deadline:
            index = own[i % len(own)]
            i += 1
            status, payload, sent, done = _request(box, port,
                                                   batches[index][1])
            with lock:
                records.append((start, sent, done, status, payload, index))
        box[0].close()

    share = [list(range(k, len(batches), CONNECTIONS))
             for k in range(CONNECTIONS)]
    threads = [threading.Thread(target=client, args=(own,)) for own in share]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def _same_answer(result: dict, benchmark: str, reference: dict) -> bool:
    expected = reference["times"][benchmark]
    times = result.get("times", {})
    return (result.get("benchmark") == benchmark
            and result.get("artifact") == reference["artifact"]
            and set(times) == set(expected)
            and all(abs(times[c] - expected[c])
                    <= SERVE_TOLERANCE * abs(expected[c]) for c in expected))


def _small_requests(run: Run, reference: dict) -> tuple[list, list]:
    """A seeded order of the suite, cycled, one request per due slot."""
    order = sorted(reference["times"])
    random.Random(run.seed).shuffle(order)
    names = [order[i % len(order)]
             for i in range(round(SMALL_RATE * run.seconds))]
    return names, [json.dumps({"benchmark": n}).encode() for n in names]


def _batch_requests(run: Run, reference: dict) -> list:
    """64-request batches drawn with 1/rank skew over a seeded ranking of
    the suite; enough that neither client repeats within a run."""
    rng = random.Random(run.seed)
    ranked = sorted(reference["times"])
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) for rank in range(len(ranked))]
    batches = []
    for _ in range(CONNECTIONS * max(8, round(8 * run.seconds))):
        names = rng.choices(ranked, weights=weights, k=BATCH_REQUESTS)
        body = json.dumps({"requests": [{"benchmark": n}
                                        for n in names]}).encode()
        batches.append((names, body))
    return batches


def _serve_small_load(port: int, run: Run, out: Outcome,
                      reference: dict) -> dict:
    names, bodies = _small_requests(run, reference)
    records = _open_loop(port, bodies, SMALL_RATE)
    latencies, service, late, wrong = [], [], [], 0
    first_due = records[0][0]
    last_done = first_due
    for name, (due, sent, done, status, payload) in zip(names, records):
        out.attempted += 1
        late.append(sent - due)
        if status != 200:
            out.failed += 1
            continue
        if not _same_answer(json.loads(payload), name, reference):
            wrong += 1
        latencies.append(done - due)
        service.append(done - sent)
        last_done = max(last_done, done)
    out.check(wrong == 0, f"{wrong} answers differ from Session.predict")
    late_p99_ms = 1e3 * _percentile(late, 99)
    out.check(late_p99_ms <= MAX_LATE_P99_MS,
              f"generator fell behind: p99 lateness {late_p99_ms:.1f} ms")
    return {"latencies_s": latencies, "service_s": service,
            "late_p99_ms": late_p99_ms,
            "items_per_s": len(latencies) / (last_done - first_due),
            "cost": statistics.median(latencies) if latencies else math.inf}


def _serve_batch_load(port: int, run: Run, out: Outcome,
                      reference: dict) -> dict:
    batches = _batch_requests(run, reference)
    records = _closed_loop(port, batches, run.seconds)
    latencies, wrong, predictions = [], 0, 0
    start = records[0][0]
    last_done = start
    for _, sent, done, status, payload, index in records:
        out.attempted += 1
        if status != 200:
            out.failed += 1
            continue
        results = json.loads(payload).get("results", [])
        names = batches[index][0]
        if len(results) != len(names) or not all(
            _same_answer(r, n, reference) for r, n in zip(results, names)
        ):
            wrong += 1
        predictions += len(names)
        latencies.append(done - sent)
        last_done = max(last_done, done)
    out.check(wrong == 0, f"{wrong} batches differ from Session.predict")
    items_per_s = predictions / (last_done - start)
    return {"latencies_s": latencies, "service_s": latencies,
            "late_p99_ms": 0.0, "items_per_s": items_per_s,
            "cost": 1.0 / items_per_s if items_per_s else math.inf}


def _serve(run: Run, scale: str, load) -> Outcome:
    out = Outcome()
    prep_root, reference = prepared(run, scale)
    first = json.dumps({"benchmark": sorted(reference["times"])[0]}).encode()

    def measured(trace_dir: str | None, setups: int) -> tuple:
        setup_s = []
        for attempt in range(setups):
            server = Server(run, scale, prep_root, trace_dir)
            try:
                setup_s.append(server.ready(first))
                if attempt < setups - 1:
                    continue
                result = load(server.port, run, out, reference)
                result["peak_mb"] = server.peak_mb()
            finally:
                server.stop()
        return result, setup_s

    if run.trace:
        plain, _ = measured(None, 1)
        trace_dir = run.fresh("trace")
        traced, _ = measured(trace_dir, 1)
        totals = layers.Totals(trace_dir)
        # the first handler call answered the readiness probe
        handler_s = sum(totals.samples["serving.http.handler"][1:])
        client_s = sum(traced["service_s"])
        out.metrics = layers.layer_metrics(totals, {
            "client.late_p99_ms": traced["late_p99_ms"],
            "bench.coverage": handler_s / client_s,
            "bench.trace_overhead": traced["cost"] / plain["cost"],
            "bench.unattributed_s": client_s - handler_s,
        })
        out.notes["unattributed"] = ("client-side HTTP, the loopback "
                                     "socket and request parsing before "
                                     "the handler runs")
        return out
    result, setup_s = measured(None, SETUP_REPEATS)
    out.notes["client.late_p99_ms"] = result["late_p99_ms"]
    out.metrics = end_to_end(out, result["latencies_s"],
                             result["items_per_s"], setup_s,
                             result["peak_mb"])
    return out


def serve_small(run: Run) -> Outcome:
    return _serve(run, "smoke", _serve_small_load)


def serve_batch(run: Run) -> Outcome:
    return _serve(run, "bench", _serve_batch_load)


WORKLOADS = {
    "pipeline_fig3": pipeline_fig3,
    "dse_sweep": dse_sweep,
    "serve_small": serve_small,
    "serve_batch": serve_batch,
}
