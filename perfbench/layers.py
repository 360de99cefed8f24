"""Per-layer metrics of a traced run, from the probe totals of :mod:`tracer`.

Every traced workload reports every metric in :data:`PER_LAYER`; a layer
the workload does not reach reads 0.  Times named ``*_s`` are inclusive
seconds of the outermost calls, summed over all of the program's
processes; ``*_ms`` are per-call medians; ``<layer>.self_s`` is the
layer's self time (its probes' durations minus nested probes).
"""

from __future__ import annotations

import glob
import json
import os
import statistics
from collections import defaultdict

#: Layers, named after the program's packages, that report self time.
LAYERS = ("ml", "core", "sim", "workloads", "features", "pipeline",
          "runtime", "models", "api", "serving", "jit")

#: (metric name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("ml.forward_s", "s"), ("ml.backward_s", "s"), ("ml.optim_step_s", "s"),
    ("ml.train_steps", "count"), ("core.epoch_s", "s"),
    ("core.val_loss_s", "s"), ("core.best_val_loss", "loss"),
    ("sim.simulate_s", "s"), ("sim.simulate_calls", "count"),
    ("sim.insns_per_s", "1/s"),
    ("workloads.trace_s", "s"), ("workloads.trace_calls", "count"),
    ("workloads.trace_memo_hit_ratio", "ratio"),
    ("features.encode_s", "s"), ("features.dataset_s", "s"),
    ("pipeline.plan_s", "s"), ("pipeline.fingerprint_s", "s"),
    ("pipeline.store_put_s", "s"), ("pipeline.store_puts", "count"),
    ("pipeline.store_get_s", "s"), ("pipeline.overhead_s", "s"),
    ("serving.http.handler_ms", "ms"), ("serving.http.overhead_ms", "ms"),
    ("serving.service.queue_wait_ms", "ms"),
    ("serving.service.batch_size", "count"),
    ("serving.service.batches", "count"),
    ("serving.service.model_ms", "ms"),
    ("serving.service.feature_hit_ratio", "ratio"),
    ("models.predict_batch_ms", "ms"), ("models.streams_per_batch", "count"),
    ("models.coalesce_ratio", "ratio"),
    ("jit.kernel_calls", "count"), ("jit.compiles", "count"),
    ("models.store_put_s", "s"), ("models.store_load_s", "s"),
    *[(f"{layer}.self_s", "s") for layer in LAYERS],
    ("client.late_p99_ms", "ms"),
    ("bench.startup_s", "s"), ("bench.unattributed_s", "s"),
    ("bench.coverage", "ratio"), ("bench.trace_overhead", "ratio"),
]


class Totals:
    """Probe totals merged over every process of one traced program."""

    def __init__(self, trace_dir: str):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.samples = defaultdict(list)
        self.counts = defaultdict(float)
        self.values: dict = {}
        self.layers: dict = {}
        self.main: dict | None = None
        for path in sorted(glob.glob(os.path.join(trace_dir, "*.json"))):
            with open(path) as fh:
                dump = json.load(fh)
            if dump["main"]:
                self.main = dump
            self.layers.update(dump["layers"])
            for key in ("calls", "incl", "self", "counts"):
                target = self.self_s if key == "self" else getattr(self, key)
                for name, value in dump[key].items():
                    target[name] += value
            for name, values in dump["samples"].items():
                self.samples[name].extend(values)
            for name, value in dump["values"].items():
                if name not in self.values or value < self.values[name]:
                    self.values[name] = value
        if self.main is None:
            raise RuntimeError(f"no trace from the main process in "
                               f"{trace_dir}")

    def main_attributed_s(self) -> float:
        """Self time of every probe in the launching process, plus its
        start-up (interpreter, imports) before the probes existed."""
        attributed = sum(
            seconds for name, seconds in self.main["self"].items()
            if self.main["layers"].get(name) in LAYERS
        )
        return attributed + self.main["values"].get("bench.startup_s", 0.0)


def _median_ms(values: list) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: Totals, extra: dict) -> dict:
    """Every :data:`PER_LAYER` metric; ``extra`` supplies the ``client.``
    and ``bench.`` ones, which come from the workload, not the probes."""
    t = totals
    values = {
        "ml.forward_s": t.incl["ml.forward"],
        "ml.backward_s": t.incl["ml.backward"],
        "ml.optim_step_s": t.incl["ml.optim_step"],
        "ml.train_steps": t.calls["ml.optim_step"],
        "core.epoch_s": _ratio(t.incl["ml.fit"], t.counts["core.epochs"]),
        "core.val_loss_s": t.incl["core.val_loss"],
        "core.best_val_loss": t.values.get("core.best_val_loss", 0.0),
        "sim.simulate_s": t.incl["sim.simulate"],
        "sim.simulate_calls": t.calls["sim.simulate"],
        "sim.insns_per_s": _ratio(t.counts["sim.insns"],
                                  t.incl["sim.simulate"]),
        "workloads.trace_s": t.incl["workloads.get_trace"],
        "workloads.trace_calls": t.calls["workloads.get_trace"],
        "workloads.trace_memo_hit_ratio": _ratio(
            t.calls["workloads.get_trace"]
            - t.counts["workloads.trace_misses"],
            t.calls["workloads.get_trace"],
        ),
        "features.encode_s": t.incl["features.encode"],
        "features.dataset_s": t.incl["features.dataset"],
        "pipeline.plan_s": t.incl["pipeline.plan"],
        "pipeline.fingerprint_s": t.incl["pipeline.fingerprint"],
        "pipeline.store_put_s": t.incl["pipeline.store_put"],
        "pipeline.store_puts": t.calls["pipeline.store_put"],
        "pipeline.store_get_s": t.incl["pipeline.store_get"],
        "pipeline.overhead_s": (t.self_s["pipeline.runner"]
                                + t.self_s["pipeline.run_sweep"]),
        "serving.http.handler_ms": _median_ms(
            t.samples["serving.http.handler"]),
        "serving.http.overhead_ms": _median_ms(
            t.samples["serving.http.overhead"]),
        "serving.service.queue_wait_ms": _median_ms(
            t.samples["serving.queue_wait"]),
        "serving.service.batch_size": _ratio(
            t.counts["serving.batch_requests"], t.counts["serving.batches"]),
        "serving.service.batches": t.counts["serving.batches"],
        "serving.service.model_ms": _median_ms(
            t.samples["serving.service.model"]),
        "serving.service.feature_hit_ratio": _ratio(
            t.calls["serving.service.features"]
            - t.counts["serving.feature_misses"],
            t.calls["serving.service.features"],
        ),
        "models.predict_batch_ms": _median_ms(
            t.samples["models.predict_batch"]),
        "models.streams_per_batch": _ratio(
            t.counts["models.streams"], t.calls["models.predict_batch"]),
        "models.coalesce_ratio": _ratio(
            t.counts["models.unique_streams"], t.counts["models.streams"]),
        "jit.kernel_calls": t.calls["jit.kernel_for"],
        "jit.compiles": t.calls["jit.generate"],
        "models.store_put_s": t.incl["models.store_put"],
        "models.store_load_s": t.incl["models.store_load"],
        "bench.startup_s": t.main["values"].get("bench.startup_s", 0.0),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            seconds for name, seconds in t.self_s.items()
            if t.layers.get(name) == layer
        )
    values.update(extra)
    missing = [name for name, _ in PER_LAYER if name not in values]
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {missing}")
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER}
