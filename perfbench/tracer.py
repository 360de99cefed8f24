"""Per-layer timers installed from outside the program, for traced runs.

The program under test is not edited: :func:`install` replaces public
entry points of each ``repro`` layer (a class attribute, or every module
binding of a function) with a wrapper that times the call.  Each wrapped
entry point is a *probe* with a name (``sim.simulate``) and a layer
(``sim``).  Per probe the tracer keeps:

* outermost calls and inclusive seconds (a re-entrant call, such as a
  module calling its sub-modules, is not counted twice);
* self seconds: the call's duration minus the time its nested probes
  took, so self seconds summed over probes never exceed wall time;
* optionally every call's duration, for per-call medians.

Stacks are per thread.  Forked children (the ``ParallelMap`` pool) start
from empty totals and write them to ``<out_dir>/<pid>.json`` each time
their outermost probe returns, since pool workers are never joined
through ``atexit``; the launching process writes its own file with
:meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import defaultdict


class Frame:
    """One active probe call on a thread's stack."""

    __slots__ = ("name", "child_s", "wait_s")

    def __init__(self, name: str):
        self.name = name
        self.child_s = 0.0  # time inside nested probes
        self.wait_s = 0.0  # time blocked on service futures (HTTP handler)


class Call:
    """What an ``after`` hook sees of a finished probe call."""

    __slots__ = ("args", "kwargs", "result", "start", "elapsed", "frame",
                 "parent", "reentrant")

    def __init__(self, args, kwargs, result, start, elapsed, frame, parent,
                 reentrant):
        self.args = args
        self.kwargs = kwargs
        self.result = result
        self.start = start
        self.elapsed = elapsed
        self.frame = frame
        self.parent = parent  # enclosing Frame, or None
        self.reentrant = reentrant


class Tracer:
    """Probe totals for one process."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.main_pid = os.getpid()
        self.layers: dict[str, str] = {}
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self.values: dict[str, float] = {}
        self.pending: dict[int, float] = {}  # id(request) -> submit time

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrapping ---------------------------------------------------------
    def timed(self, fn, name: str, layer: str, sample: bool = False,
              after=None):
        """``fn`` wrapped as probe ``name`` of ``layer``."""
        tracer = self
        self.layers[name] = layer

        def probe(*args, **kwargs):
            stack = tracer._stack()
            frame = Frame(name)
            reentrant = any(f.name == name for f in stack)
            stack.append(frame)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent.child_s += elapsed
                with tracer._lock:
                    tracer.self_s[name] += elapsed - frame.child_s
                    if not reentrant:
                        tracer.calls[name] += 1
                        tracer.incl[name] += elapsed
                        if sample:
                            tracer.samples[name].append(elapsed)
                    if after is not None:
                        after(tracer, Call(args, kwargs, result, start,
                                           elapsed, frame, parent, reentrant))
                if parent is None and os.getpid() != tracer.main_pid:
                    tracer.dump()

        probe.__wrapped__ = fn
        probe.__name__ = getattr(fn, "__name__", name)
        probe.__qualname__ = getattr(fn, "__qualname__", name)
        probe.__doc__ = getattr(fn, "__doc__", None)
        return probe

    def wrap_attr(self, owner, attr: str, name: str, layer: str, **kw):
        """Replace ``owner.attr`` (a class method) with its probe."""
        setattr(owner, attr, self.timed(getattr(owner, attr), name, layer,
                                        **kw))

    def wrap_function(self, fn, name: str, layer: str, **kw) -> None:
        """Replace every module-level binding of ``fn`` with its probe, so
        ``from x import fn`` call sites are covered too."""
        probe = self.timed(fn, name, layer, **kw)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for key, value in list(namespace.items()):
                if value is fn:
                    setattr(module, key, probe)

    # -- output -----------------------------------------------------------
    def snapshot(self) -> dict:
        with self._lock:
            return {
                "pid": self.pid,
                "main": self.pid == self.main_pid,
                "layers": dict(self.layers),
                "calls": dict(self.calls),
                "incl": dict(self.incl),
                "self": dict(self.self_s),
                "samples": {k: list(v) for k, v in self.samples.items()},
                "counts": dict(self.counts),
                "values": dict(self.values),
            }

    def dump(self) -> None:
        path = os.path.join(self.out_dir, f"{os.getpid()}.json")
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, path)


# -- hooks --------------------------------------------------------------------
def _count_insns(tracer: Tracer, call: Call) -> None:
    tracer.counts["sim.insns"] += len(call.args[1])


def _trace_miss(tracer: Tracer, call: Call) -> None:
    if call.parent is not None and call.parent.name == "workloads.get_trace":
        tracer.counts["workloads.trace_misses"] += 1


def _feature_miss(tracer: Tracer, call: Call) -> None:
    if (call.parent is not None
            and call.parent.name == "serving.service.features"):
        tracer.counts["serving.feature_misses"] += 1


def _batch_answered(tracer: Tracer, call: Call) -> None:
    if call.reentrant:
        return  # a failed batch retried one request at a time
    requests = list(call.args[1])
    tracer.counts["serving.batches"] += 1
    tracer.counts["serving.batch_requests"] += len(requests)
    for request in requests:
        submitted = tracer.pending.pop(id(request), None)
        if submitted is not None:
            tracer.samples["serving.queue_wait"].append(
                call.start - submitted
            )


def _engine_batch(tracer: Tracer, call: Call) -> None:
    if call.reentrant:
        return
    requests = list(call.args[1])
    tracer.counts["models.streams"] += len(requests)
    tracer.counts["models.unique_streams"] += len(
        {(r.benchmark, r.isa) for r in requests}
    )


def _future_wait(tracer: Tracer, call: Call) -> None:
    if call.parent is not None and call.parent.name == "serving.http.handler":
        call.parent.wait_s += call.elapsed


def _handler_done(tracer: Tracer, call: Call) -> None:
    tracer.samples["serving.http.overhead"].append(
        call.elapsed - call.frame.wait_s
    )


def _submit_wrapper(tracer: Tracer, submit):
    """``PredictionService.submit`` noting when each request entered the
    queue, before the collector thread can pick it up."""

    def wrapped(self, request):
        with tracer._lock:
            tracer.pending[id(request)] = time.perf_counter()
        return submit(self, request)

    return wrapped


def _fit_wrapper(tracer: Tracer, fit):
    """``Trainer.fit`` with its validation callback timed and its epoch
    count and best validation loss recorded."""

    def wrapped(self, batches_fn, train_step, val_loss_fn):
        history = fit(self, batches_fn, train_step,
                      tracer.timed(val_loss_fn, "core.val_loss", "core"))
        with tracer._lock:
            tracer.counts["core.epochs"] += len(history.val_losses)
            best = tracer.values.get("core.best_val_loss")
            if best is None or history.best_val_loss < best:
                tracer.values["core.best_val_loss"] = history.best_val_loss
        return history

    return wrapped


def _subclasses(cls) -> list:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _subclasses(sub) if c not in found)
    return found


def install(out_dir: str, serve: bool = False) -> Tracer:
    """Import the program's layers and put a probe on each entry point.

    ``serve`` adds the probe on ``Future.result`` that measures how long
    HTTP handlers block on the service; it is left out elsewhere because
    process pools call ``Future.result`` too.
    """
    import dataclasses
    from concurrent.futures import Future

    # import every module that binds a probed name before wrapping, so
    # each binding and each Module subclass is found
    import repro.cli  # noqa: F401
    import repro.core.perfvec  # noqa: F401
    import repro.experiments.common  # noqa: F401
    import repro.ml.recurrent  # noqa: F401
    import repro.models.adapters  # noqa: F401
    import repro.pipeline.presets  # noqa: F401
    from repro.api import Session
    from repro.core import training
    from repro.features import dataset, encoder
    from repro.ml.autograd import Tensor
    from repro.ml.layers import Module
    from repro.ml.optim import Adam
    from repro.ml.trainer import Trainer
    from repro.models.base import PerformanceModel
    from repro.models.store import ModelStore
    from repro.pipeline import executors, runner, stages
    from repro.pipeline.artifacts import StageArtifactStore
    from repro.runtime.pool import ParallelMap
    from repro.serving import http as serving_http
    from repro.serving.service import PredictionService
    from repro.sim.cpu import CPUSimulator
    from repro.workloads import suite

    tracer = Tracer(out_dir)
    wrap = tracer.wrap_attr
    function = tracer.wrap_function

    # ml: autograd training primitives and the no-grad inference path
    wrap(Module, "__call__", "ml.forward", "ml")
    # layers override ``infer``; one probe name keeps nested calls
    # (model -> recurrent layer -> head) from double counting
    for cls in _subclasses(Module):
        if "infer" in vars(cls):
            wrap(cls, "infer", "ml.infer", "ml")
    wrap(Tensor, "backward", "ml.backward", "ml")
    wrap(Adam, "step", "ml.optim_step", "ml")
    Trainer.fit = tracer.timed(_fit_wrapper(tracer, Trainer.fit),
                               "ml.fit", "ml")
    # core: foundation training around the trainer
    function(training.train_foundation, "core.train_foundation", "core")
    # sim / workloads / features
    wrap(CPUSimulator, "run", "sim.simulate", "sim", after=_count_insns)
    function(suite.get_trace, "workloads.get_trace", "workloads")
    function(suite.trace_benchmark, "workloads.trace_benchmark",
             "workloads", after=_trace_miss)
    function(encoder.encode_trace, "features.encode", "features")
    function(dataset.build_dataset, "features.dataset", "features")
    # pipeline: planning, stage execution, the stage store
    wrap(runner.Runner, "run", "pipeline.runner", "pipeline")
    function(runner.run_sweep, "pipeline.run_sweep", "pipeline")
    function(executors.build_plan, "pipeline.plan", "pipeline")
    function(stages.analysis_fingerprint, "pipeline.fingerprint",
             "pipeline")
    wrap(StageArtifactStore, "put", "pipeline.store_put", "pipeline")
    wrap(StageArtifactStore, "get", "pipeline.store_get", "pipeline")
    for kind_name, kind in list(stages.STAGE_KINDS.items()):
        stages.STAGE_KINDS[kind_name] = dataclasses.replace(
            kind, run=tracer.timed(kind.run, f"pipeline.stage.{kind_name}",
                                   "pipeline"),
        )
    wrap(ParallelMap, "map", "runtime.map", "runtime")
    # models / api
    wrap(PerformanceModel, "predict_batch", "models.predict_batch",
         "models", sample=True, after=_engine_batch)
    wrap(ModelStore, "put", "models.store_put", "models")
    wrap(ModelStore, "load", "models.store_load", "models")
    wrap(ModelStore, "list", "models.store_list", "models")
    wrap(Session, "features", "api.features", "api", after=_feature_miss)
    # serving: HTTP ingress, micro-batching service
    wrap(serving_http._Handler, "do_POST", "serving.http.handler", "serving",
         sample=True, after=_handler_done)
    PredictionService.submit = tracer.timed(
        _submit_wrapper(tracer, PredictionService.submit),
        "serving.service.submit", "serving",
    )
    wrap(PredictionService, "model", "serving.service.model", "serving",
         sample=True)
    wrap(PredictionService, "features", "serving.service.features",
         "serving")
    wrap(PredictionService, "predict_each", "serving.service.predict_each",
         "serving", after=_batch_answered)
    if serve:
        wrap(Future, "result", "serving.http.wait", "wait",
             after=_future_wait)
    # jit: kernel lookups and code generation, when the tier exists
    try:
        import repro.jit
        from repro.jit import codegen
    except ImportError:
        pass
    else:
        wrap(repro.jit, "kernel_for", "jit.kernel_for", "jit")
        function(codegen.generate, "jit.generate", "jit")
    return tracer
