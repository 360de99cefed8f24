"""Programs the benchmark launches in a child process.

    python perfbench/child.py cli <repro arguments...>
    python perfbench/child.py dse --root DIR --seconds S --out FILE
        [--setup-only]
    python perfbench/child.py reference --scale S --cache-dir DIR --out FILE

``cli`` runs the ``repro`` command line, for traced runs: the untraced
runs start ``python -m repro`` itself.  ``dse`` runs the cache-DSE sweep
with ``run_sweep`` on fresh stage stores until ``S`` seconds have passed.
``reference`` records ``Session.predict`` for every suite benchmark, the
answers the serving workloads are checked against.

With ``PERFBENCH_TRACE_DIR`` set, the layer probes of :mod:`tracer` are
installed before the program runs and their totals are written to that
directory when it returns.  ``PERFBENCH_LAUNCH`` holds the launcher's
wall clock at spawn, so a child can report its own start-up time.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time

DSE_BENCHMARK = "505.mcf"
DSE_SEEDS = 28  # 28 trace seeds x the 6 x 6 cache grid = 1008 points


def _since_launch() -> float:
    return time.time() - float(os.environ["PERFBENCH_LAUNCH"])


def _install_tracer(serve: bool = False):
    trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    if not trace_dir:
        return None
    import tracer

    probes = tracer.install(trace_dir, serve=serve)
    probes.values["bench.startup_s"] = _since_launch()
    return probes


class _CompletionClock:
    """A ``progress`` sink for ``run_sweep`` that timestamps every stage
    outcome the runner reports, so per-point latency includes planning,
    fingerprinting and the stage-store write, not only the simulation."""

    total = 0

    def __init__(self):
        self.times: list[float] = []
        self.stream = self

    def write(self, _text: str) -> None:
        self.times.append(time.perf_counter())

    def task_done(self, label: str, ok: bool = True) -> None:
        pass

    def note(self, message: str) -> None:
        pass


def _sweep_summary(result) -> dict:
    """Executed/cached counts, the digest of every simulated time and the
    sweep's best point."""
    rows = []
    for point in result:
        for outcome in point.outcomes:
            metrics = (outcome.payload or {}).get("metrics", {})
            rows.append((int(metrics["benchmark_seed"]),
                         int(metrics["l1_kb"]), int(metrics["l2_kb"]),
                         float(metrics["time_ns"]),
                         float(metrics["objective"])))
    rows.sort()
    digest = hashlib.sha256("\n".join(
        f"{seed} {l1} {l2} {time_ns!r}" for seed, l1, l2, time_ns, _ in rows
    ).encode()).hexdigest()
    best = min(rows, key=lambda row: (row[4], row[1], row[2]))
    return {"executed": result.executed, "cached": result.cached,
            "points": len(rows), "digest": digest,
            "best_l1_kb": best[1], "best_l2_kb": best[2]}


def run_dse(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="child.py dse")
    parser.add_argument("--root", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    probes = _install_tracer()
    from repro.pipeline.dse import cache_dse_sweep
    from repro.pipeline.runner import run_sweep

    sweep = cache_dse_sweep(benchmark=DSE_BENCHMARK, seeds=DSE_SEEDS,
                            scale="smoke")
    sweep.expand()
    report: dict = {"setup_s": _since_launch(), "sweeps": [],
                    "latencies_s": []}
    if not args.setup_only:
        deadline = time.perf_counter() + args.seconds
        while not report["sweeps"] or time.perf_counter() < deadline:
            root = os.path.join(args.root, f"sweep{len(report['sweeps'])}")
            clock = _CompletionClock()
            start = time.perf_counter()
            result = run_sweep(sweep, cache_dir=root, progress=clock)
            wall = time.perf_counter() - start
            marks = [start] + clock.times
            report["latencies_s"].extend(
                b - a for a, b in zip(marks, marks[1:])
            )
            report["sweeps"].append({"wall_s": wall,
                                     **_sweep_summary(result)})
            shutil.rmtree(root)
    if probes is not None:
        probes.dump()
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    return 0


def run_reference(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="child.py reference")
    parser.add_argument("--scale", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from repro.api import Session
    from repro.workloads import ALL_BENCHMARKS

    session = Session(scale=args.scale, cache_dir=args.cache_dir)
    reference = {
        "artifact": session.resolve_artifact("perfvec"),
        "times": {name: session.predict(name) for name in ALL_BENCHMARKS},
    }
    with open(args.out, "w") as fh:
        json.dump(reference, fh)
    return 0


def run_cli(argv: list[str]) -> int:
    probes = _install_tracer(serve=bool(argv) and argv[0] == "serve")
    from repro.cli import main

    try:
        return main(argv)
    finally:
        if probes is not None:
            probes.dump()


def main() -> int:
    mode, rest = sys.argv[1], sys.argv[2:]
    programs = {"cli": run_cli, "dse": run_dse, "reference": run_reference}
    return programs[mode](rest)


if __name__ == "__main__":
    sys.exit(main())
