"""Micro-benchmarks of the substrates PerfVec runs on.

Not a paper table; these track the throughput of the expensive building
blocks (VM tracing, timing simulation, feature encoding, foundation
training step) so performance regressions in the hot paths are visible.

The ``kernel_comparison`` section times the fused no-grad LSTM/GRU
kernel (:mod:`repro.ml.inference`) against the autograd per-op forward
— the parity suite's oracle — on the scale's recurrent substrate and
checks their parity.  Run directly to produce the committed report (the
CI ``kernels`` job gates on it)::

    PYTHONPATH=src python benchmarks/bench_substrate.py --scale smoke \
        --output benchmarks/BENCH_kernels.json

Acceptance bar at smoke scale: every kernel's fused-vs-oracle
``speedup >= 3`` with ``max_abs_diff <= 1e-6``.
"""

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

from repro.core.foundation import make_foundation
from repro.core.perfvec import PerfVec
from repro.core.predictor import MicroarchTable
from repro.features import encode_trace
from repro.ml.autograd import Tensor, mse_loss
from repro.sim import CPUSimulator
from repro.uarch.presets import cortex_a7_like, skylake_like
from repro.workloads import trace_benchmark

N = 10_000


def test_vm_tracing_rate(benchmark):
    from repro.workloads.suite import clear_trace_cache

    def trace():
        clear_trace_cache()
        return trace_benchmark("505.mcf", N)

    result = benchmark(trace)
    assert len(result) == N


def test_simulator_rate_inorder(benchmark):
    trace = trace_benchmark("505.mcf", N)
    sim = CPUSimulator(cortex_a7_like())
    result = benchmark(sim.run, trace)
    assert result.total_cycles > 0


def test_simulator_rate_ooo(benchmark):
    trace = trace_benchmark("505.mcf", N)
    sim = CPUSimulator(skylake_like())
    result = benchmark(sim.run, trace)
    assert result.total_cycles > 0


def test_feature_encoding_rate(benchmark):
    trace = trace_benchmark("505.mcf", N)
    feats = benchmark(encode_trace, trace)
    assert feats.shape == (N, 51)


def test_foundation_training_step(benchmark):
    foundation = make_foundation("lstm-2-64", seed=0)
    model = PerfVec(foundation, MicroarchTable(13, 64))
    rng = np.random.default_rng(0)
    x = rng.random((16, 48, 51)).astype(np.float32)
    y = rng.random((16, 48, 13)).astype(np.float32)

    def step():
        model.zero_grad()
        preds, _, _ = model(Tensor(x))
        loss = mse_loss(preds, y)
        loss.backward()
        return loss

    loss = benchmark(step)
    assert loss.item() >= 0


def test_program_representation_inference(benchmark):
    trace = trace_benchmark("505.mcf", N)
    feats = encode_trace(trace)
    foundation = make_foundation("lstm-2-64", seed=0)
    model = PerfVec(foundation, MicroarchTable(13, 64))
    rep = benchmark(model.program_representation, feats, 48)
    assert rep.shape == (64,)


# ---------------------------------------------------------------------------
# the fused no-grad kernel vs the autograd per-op forward (the test oracle)
# ---------------------------------------------------------------------------
def _scale_batch(scale_name: str):
    """One inference batch shaped like the scale's training chunks."""
    from repro.experiments.common import get_scale

    scale = get_scale(scale_name)
    rng = np.random.default_rng(0)
    batch = rng.standard_normal(
        (scale.batch_size, scale.chunk_len, 51)
    ).astype(np.float32)
    return scale, batch


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def kernel_comparison(scale_name: str = "smoke", repeats: int = 50) -> dict:
    """Fused-vs-oracle timings + parity on the scale's substrate.

    One row per recurrent kernel family, sized exactly like the scale's
    serving chunks.  The oracle is the autograd forward (graph building
    on), which runs one op per gate per step.
    """
    scale, batch = _scale_batch(scale_name)
    hidden = scale.spec.split("-")[-1]
    layers = scale.spec.split("-")[-2]
    report: dict = {
        "scale": scale.name,
        "batch_shape": list(batch.shape),
        "repeats": repeats,
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "kernels": {},
    }
    for kind in ("lstm", "gru"):
        spec = f"{kind}-{layers}-{hidden}"
        foundation = make_foundation(spec, seed=0)
        oracle = foundation(Tensor(batch))[0].data
        fused, _ = foundation.infer(batch)
        t_oracle = _best_of(lambda: foundation(Tensor(batch)), repeats)
        t_fused = _best_of(lambda: foundation.infer(batch), repeats)
        report["kernels"][kind] = {
            "spec": spec,
            "oracle_seconds": t_oracle,
            "fused_seconds": t_fused,
            "speedup": t_oracle / t_fused,
            "max_abs_diff": float(np.max(np.abs(fused - oracle))),
        }
    return report


def test_lstm_infer_fused_kernel(benchmark):
    _, batch = _scale_batch("smoke")
    foundation = make_foundation("lstm-1-16", seed=0)
    out, _ = benchmark(foundation.infer, batch)
    assert out.shape == batch.shape[:2] + (16,)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fused-kernel vs autograd-oracle benchmark"
    )
    parser.add_argument("--scale", default=os.environ.get(
        "REPRO_BENCH_SCALE", "smoke"))
    parser.add_argument("--repeats", type=int, default=50,
                        help="timing repetitions (best-of)")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="JSON output (default: results/BENCH_kernels.json)")
    args = parser.parse_args(argv)

    report = kernel_comparison(args.scale, repeats=args.repeats)
    print(f"# bench_substrate kernels scale={report['scale']} "
          f"batch={tuple(report['batch_shape'])}")
    for kind, row in report["kernels"].items():
        print(f"{kind:>4s} {row['spec']:<12s} "
              f"oracle {1e3 * row['oracle_seconds']:7.3f} ms  "
              f"fused {1e3 * row['fused_seconds']:7.3f} ms  "
              f"speedup {row['speedup']:.2f}x  "
              f"max|diff| {row['max_abs_diff']:.2e}")
    from _bench_util import metrics_block

    report["metrics"] = metrics_block()
    output = args.output or os.path.join("results", "BENCH_kernels.json")
    os.makedirs(os.path.dirname(output) or ".", exist_ok=True)
    with open(output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"saved: {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
