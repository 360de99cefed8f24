"""The repository's benchmark: both end-to-end paths, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It runs the checkout it sits in; it builds nothing, the program runs
from ``src/``.  Workloads (see ``loads.py`` and ``RATIONALE.md``):
``pipeline_fig3``, ``dse_sweep``, ``serve_small``, ``serve_batch``.

The output is provenance and a summary on lines starting with ``#``,
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` every end-to-end metric
of ``BENCHMARK.json``, measured with tracing off; with ``--trace 1``
every per-layer metric, from a run with layer probes installed.  A run
whose output checks fail prints ``"correct": false`` and exits with 1;
a program that cannot start or crashes exits with 1 and prints no
result.  Scratch files go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import subprocess
import sys

import layers
import loads

#: unit of every end-to-end metric (loads.end_to_end computes them)
END_TO_END = {"p50_ms": "ms", "items_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}


def _git_sha() -> str | None:
    if not os.path.isdir(os.path.join(loads.ROOT, ".git")):
        return None
    done = subprocess.run(["git", "-C", loads.ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(loads.SRC, "**", "*.py"),
                                 recursive=True)):
        digest.update(os.path.relpath(path, loads.SRC).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    """NumPy's BLAS library, version and thread count."""
    import numpy

    info = {"numpy": numpy.__version__}
    config = getattr(numpy, "__config__", None)
    blas = getattr(config, "CONFIG", {}).get("Build Dependencies", {}) \
        .get("blas", {})
    info["blas"] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..",
                                  "numpy.libs", "*openblas*"))
    threads = None
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    info["blas_threads"] = threads
    return info


def provenance(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": _git_sha(), "source_sha256": _source_digest(),
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "python": platform.python_version(), **_blas(),
    }


def _declared() -> tuple[set, set]:
    with open(os.path.join(loads.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(loads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(loads.SRC, "repro", "__init__.py")):
        print(f"no program sources under {loads.SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    end_to_end, per_layer = _declared()
    if (end_to_end != set(END_TO_END)
            or per_layer != {name for name, _ in layers.PER_LAYER}):
        print("BENCHMARK.json and perfbench disagree on metric names",
              file=sys.stderr)
        return 2
    print(f"# provenance {json.dumps(provenance(args), sort_keys=True)}",
          flush=True)

    run = loads.Run(args.seed, args.seconds, bool(args.trace))
    try:
        outcome = loads.WORKLOADS[args.workload](run)
    except loads.CheckFailed as exc:
        print(f"# {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()

    if args.trace:
        metrics = outcome.metrics
    else:
        metrics = {name: {"value": float(outcome.metrics[name]),
                          "unit": unit}
                   for name, unit in END_TO_END.items()}
    correct = not outcome.problems and outcome.failed == 0
    for problem in outcome.problems:
        print(f"# check failed: {problem}", file=sys.stderr)
    print(f"# {args.workload}: attempted {outcome.attempted}, failed "
          f"{outcome.failed}, checks {'passed' if correct else 'FAILED'}; "
          f"{json.dumps(outcome.notes, sort_keys=True)}")
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
