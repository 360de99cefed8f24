"""Built-in stage kinds and the analysis-function registry.

A stage kind is a typed unit of pipeline work: it declares the parameter
names it accepts (unknown parameters are a spec error with suggestions),
a version (bump to invalidate cached artifacts when semantics change)
and a run function ``(ctx, stage, inputs) -> payload``.

Stage payloads are **JSON-serializable references, not heavyweight
objects**: a ``dataset`` stage materializes trace simulations into the
npz dataset cache and returns what reopening it takes (benchmarks,
config source, instruction budget) plus its fingerprint; a ``train``
stage materializes a model into the :class:`~repro.models.store.ModelStore`
and returns the artifact id.  Downstream stages reopen those stores
through :func:`open_dataset` and :func:`open_model` — which makes every
stage restartable, parallelizable across processes and resumable from
its on-disk artifact alone.

Built-in kinds::

    dataset   warm the (benchmarks x configs) simulation cache
    train     train-or-reuse a model artifact in the ModelStore
    evaluate  stored-model error vs simulated ground truth
    predict   batched feature-stream serving through a stored model
    analysis  a registered analysis function (the bespoke figure logic)
    report    assemble the ExperimentResult payload (and optionally save)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

from repro.core.errors import UnknownExperimentError

if TYPE_CHECKING:  # import cycle: experiments.common re-exports our report
    from repro.experiments.common import ScaleConfig


@dataclass(frozen=True)
class StageContext:
    """Everything a stage run needs besides its params and inputs.

    Picklable by construction so stages can execute in worker processes.
    ``jobs`` is the simulation fan-out *within* this stage; the local
    backend passes the run's full budget even when stages themselves run
    concurrently, and queue workers run stages serially.
    """

    scale: ScaleConfig
    spec_name: str
    cache_dir: str | None = None
    results_dir: str | None = None
    jobs: int = 1


@dataclass(frozen=True)
class StageKind:
    """A registered stage type: allowed params + executable behaviour."""

    kind: str
    run: Callable[[StageContext, "StageSpec", dict], dict]  # noqa: F821
    params: frozenset = frozenset()
    required: frozenset = frozenset()
    #: free-form extras allowed (analysis fns take arbitrary params)
    open_params: bool = False
    version: int = 1


STAGE_KINDS: dict[str, StageKind] = {}

#: Registered analysis callables: name -> fn(ctx, params, inputs) -> dict.
ANALYSES: dict[str, Callable] = {}


def register_kind(kind: StageKind) -> StageKind:
    STAGE_KINDS[kind.kind] = kind
    return kind


def analysis(name: str):
    """Decorator registering a pipeline analysis function under ``name``."""

    def register(fn: Callable) -> Callable:
        ANALYSES[name] = fn
        return fn

    return register


def analysis_fingerprint(name: str) -> str:
    """Content hash of a registered analysis function's source.

    Part of every analysis stage's artifact key, so editing an analysis
    function automatically invalidates its cached payloads — no manual
    version bump, no ``--force`` needed after a code change.  (Edits to
    helpers the function *calls* are not seen; force those runs.)
    """
    import hashlib
    import inspect

    fn = ANALYSES.get(name)
    if fn is None:
        import repro.pipeline.presets  # noqa: F401 — registers presets

        fn = ANALYSES.get(name)
    if fn is None:
        # let the stage execution raise the suggestion-bearing error
        return "unregistered"
    try:
        source = inspect.getsource(fn)
    except (OSError, TypeError):
        source = fn.__code__.co_code.hex()
    return hashlib.sha256(source.encode()).hexdigest()[:16]


def validate_stage_params(spec_name: str, stage) -> None:
    """Reject unknown/missing stage parameters and bad dataset config
    sources at spec-build time."""
    kind = STAGE_KINDS[stage.kind]
    missing = kind.required - set(stage.params)
    if missing:
        raise_spec_error(
            f"spec {spec_name!r}: stage {stage.name!r} ({stage.kind}) is "
            f"missing required parameter(s) {sorted(missing)}"
        )
    if not kind.open_params:
        unknown = set(stage.params) - kind.params
        if unknown:
            raise_spec_error(
                f"spec {spec_name!r}: stage {stage.name!r} ({stage.kind}) "
                f"got unknown parameter(s) {sorted(unknown)}; "
                f"allowed: {sorted(kind.params)}"
            )
    if stage.kind == "dataset":
        _check_dataset(spec_name, stage)


def raise_spec_error(message: str) -> None:
    from repro.pipeline.spec import SpecError

    raise SpecError(message)


# ---------------------------------------------------------------------------
# shared resolution helpers
# ---------------------------------------------------------------------------
#: Named benchmark splits usable wherever a spec takes ``benchmarks``.
BENCHMARK_ALIASES = ("train", "test", "all", "updated-train", "updated-test")


def resolve_benchmarks(value, isa: str | None = None) -> tuple[str, ...]:
    """A spec's ``benchmarks`` value (alias or explicit list) to names.

    With ``isa``, the ``train``/``test``/``all`` aliases resolve against
    that frontend's suite instead of the mini-ASM workloads.
    """
    from repro.frontends import DEFAULT_FRONTEND, get_frontend
    from repro.workloads import ALL_BENCHMARKS, TEST_BENCHMARKS, TRAIN_BENCHMARKS

    if isinstance(value, str):
        if isa is not None and isa != DEFAULT_FRONTEND:
            frontend = get_frontend(isa)
            if value == "train":
                return tuple(frontend.train_benchmarks())
            if value == "test":
                return tuple(frontend.test_benchmarks())
            if value == "all":
                return tuple(frontend.benchmarks())
            raise UnknownExperimentError(
                value, ("train", "test", "all"),
                kind=f"benchmark alias for isa {isa!r}",
            )
        if value == "train":
            return tuple(TRAIN_BENCHMARKS)
        if value == "test":
            return tuple(TEST_BENCHMARKS)
        if value == "all":
            return tuple(ALL_BENCHMARKS)
        if value in ("updated-train", "updated-test"):
            from repro.experiments.fig4_retrain_lbm import (
                UPDATED_TEST,
                UPDATED_TRAIN,
            )

            return tuple(UPDATED_TRAIN if value == "updated-train" else UPDATED_TEST)
        raise UnknownExperimentError(
            value, BENCHMARK_ALIASES, kind="benchmark alias"
        )
    return tuple(value)


def _model_artifact(stage, inputs: Mapping) -> str:
    """The model artifact id produced by this stage's upstream train stage."""
    for need in stage.needs:
        payload = inputs.get(need) or {}
        if "artifact" in payload:
            return payload["artifact"]
    raise_spec_error(
        f"stage {stage.name!r} ({stage.kind}) needs an upstream 'train' "
        "stage providing a model artifact"
    )


#: Unseen microarchitectures a ``configs="unseen"`` dataset draws by default.
DEFAULT_UNSEEN_COUNT = 10


def _check_dataset(spec_name: str, stage) -> None:
    """Reject config-source parameters the dataset stage cannot honour."""
    where = f"spec {spec_name!r}: stage {stage.name!r} (dataset)"
    source = stage.params.get("configs", "seen")
    if source not in ("seen", "unseen"):
        raise_spec_error(
            f"{where} parameter 'configs' must be 'seen' or 'unseen' "
            f"(got {source!r})"
        )
    if "count" not in stage.params:
        return
    count = stage.params["count"]
    if source != "unseen":
        raise_spec_error(
            f"{where} parameter 'count' needs configs='unseen' "
            f"(configs is {source!r})"
        )
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise_spec_error(
            f"{where} parameter 'count' must be an integer >= 1 "
            f"(got {count!r})"
        )


def open_dataset(ctx: StageContext, payload: Mapping):
    """Reopen a ``dataset`` stage's :class:`TraceDataset` from the cache
    (every simulation is an on-disk cache hit once the stage has run)."""
    from repro.cache import dataset_cache_dir
    from repro.experiments.common import seen_configs, unseen_configs
    from repro.features.dataset import build_dataset
    from repro.frontends import DEFAULT_FRONTEND

    if payload["configs"] == "unseen":
        configs = unseen_configs(ctx.scale, payload["count"])
    else:
        configs = seen_configs(ctx.scale)
    return build_dataset(
        payload["benchmarks"], configs, payload["instructions"],
        cache_dir=dataset_cache_dir(ctx.cache_dir), jobs=ctx.jobs,
        isa=payload.get("isa") or DEFAULT_FRONTEND,
    )


def open_model(ctx: StageContext, payload: Mapping):
    """Load a ``train`` stage's model artifact from the ModelStore."""
    from repro.cache import model_store_dir
    from repro.models import ModelStore

    return ModelStore(model_store_dir(ctx.cache_dir)).load(payload["artifact"])


# ---------------------------------------------------------------------------
# built-in kinds
# ---------------------------------------------------------------------------
def _stage_isa(stage) -> str | None:
    """The stage's ``isa`` parameter (``None`` means the default frontend)."""
    return stage.params.get("isa")


def _run_dataset(ctx: StageContext, stage, inputs) -> dict:
    isa = _stage_isa(stage)
    source = stage.params.get("configs", "seen")
    payload = {
        "benchmarks": list(resolve_benchmarks(stage.params["benchmarks"],
                                              isa=isa)),
        "configs": source,
        "instructions": (stage.params.get("instructions")
                         or ctx.scale.instructions),
    }
    if source == "unseen":
        payload["count"] = stage.params.get("count", DEFAULT_UNSEEN_COUNT)
    if isa is not None:
        payload["isa"] = isa
    ds = open_dataset(ctx, payload)
    payload.update(config_names=list(ds.config_names), rows=len(ds),
                   fingerprint=ds.fingerprint())
    return payload


def _run_train(ctx: StageContext, stage, inputs) -> dict:
    from repro.api import Session
    from repro.frontends import DEFAULT_FRONTEND

    family = stage.params.get("family", "perfvec")
    isa = _stage_isa(stage)
    benchmarks = resolve_benchmarks(stage.params["benchmarks"], isa=isa)
    session = Session(
        scale=ctx.scale, cache_dir=ctx.cache_dir, jobs=ctx.jobs,
        frontend=isa or DEFAULT_FRONTEND,
    )
    overrides: dict = {}
    if family == "perfvec":
        if stage.params.get("arch") is not None:
            overrides["arch"] = stage.params["arch"]
        if stage.params.get("epochs") is not None:
            overrides["epochs"] = stage.params["epochs"]
    result = session.train(
        family=family, benchmarks=benchmarks, evaluate=False, **overrides
    )
    payload = {"artifact": result.artifact_id, "family": family,
               "reused": result.reused}
    if isa is not None:
        payload["isa"] = session.frontend
    return payload


def _run_evaluate(ctx: StageContext, stage, inputs) -> dict:
    from repro.api import Session
    from repro.frontends import DEFAULT_FRONTEND

    isa = _stage_isa(stage)
    benchmarks = resolve_benchmarks(stage.params["benchmarks"], isa=isa)
    artifact = _model_artifact(stage, inputs)
    session = Session(
        scale=ctx.scale, cache_dir=ctx.cache_dir, jobs=ctx.jobs,
        frontend=isa or DEFAULT_FRONTEND,
    )
    errors = session.evaluate(benchmarks, artifact=artifact)
    rows = [
        [name, f"{s.mean:.1%}", f"{s.std:.1%}", f"{s.min:.1%}", f"{s.max:.1%}"]
        for name, s in errors.items()
    ]
    means = [s.mean for s in errors.values()]
    return {
        "title": f"Stored-model error ({len(benchmarks)} benchmarks)",
        "headers": ["benchmark", "mean", "std", "min", "max"],
        "rows": rows,
        "metrics": {"avg_error": sum(means) / len(means)},
        "artifact": artifact,
    }


def _run_predict(ctx: StageContext, stage, inputs) -> dict:
    from repro.api import Session
    from repro.frontends import DEFAULT_FRONTEND

    isa = _stage_isa(stage)
    benchmarks = resolve_benchmarks(stage.params["benchmarks"], isa=isa)
    artifact = _model_artifact(stage, inputs)
    session = Session(
        scale=ctx.scale, cache_dir=ctx.cache_dir, jobs=ctx.jobs,
        frontend=isa or DEFAULT_FRONTEND,
    )
    times = session.predict_many(benchmarks, artifact=artifact)
    rows = [
        [name, len(per_config), float(min(per_config.values())),
         float(max(per_config.values()))]
        for name, per_config in times.items()
    ]
    return {
        "title": f"Predicted times ({len(benchmarks)} benchmarks)",
        "headers": ["benchmark", "configs", "min ticks", "max ticks"],
        "rows": rows,
        "metrics": {},
        "times": {k: dict(v) for k, v in times.items()},
        "artifact": artifact,
    }


def _run_analysis(ctx: StageContext, stage, inputs) -> dict:
    name = stage.params["fn"]
    fn = ANALYSES.get(name)
    if fn is None:
        # specs loaded from files reference preset analyses by name
        # without importing the defining module; pull them in once
        import repro.pipeline.presets  # noqa: F401

        fn = ANALYSES.get(name)
    if fn is None:
        raise UnknownExperimentError(name, ANALYSES, kind="analysis")
    params = {k: v for k, v in stage.params.items() if k != "fn"}
    out = fn(ctx, params, inputs)
    if "rows" not in out:
        raise_spec_error(
            f"analysis {name!r} returned no 'rows' (got {sorted(out)})"
        )
    return out


def _run_report(ctx: StageContext, stage, inputs) -> dict:
    from repro.pipeline.report import ExperimentResult

    source = None
    for need in stage.needs:
        payload = inputs.get(need) or {}
        if "rows" in payload:
            source = payload
            break
    if source is None:
        raise_spec_error(
            f"report stage {stage.name!r} needs an upstream stage that "
            "produced rows (analysis/evaluate/predict)"
        )
    result = ExperimentResult(
        experiment=stage.params.get("experiment", ctx.spec_name),
        title=stage.params.get("title") or source.get("title", ctx.spec_name),
        scale=ctx.scale.name,
        headers=list(source.get("headers", [])),
        rows=list(source["rows"]),
        notes=list(source.get("notes", [])),
        metrics=dict(source.get("metrics", {})),
    )
    return result.payload()


register_kind(StageKind(
    kind="dataset", run=_run_dataset,
    params=frozenset({"benchmarks", "configs", "count", "instructions",
                      "isa"}),
    required=frozenset({"benchmarks"}),
    # 2: the payload records what open_dataset needs to reopen it
    version=2,
))
register_kind(StageKind(
    kind="train", run=_run_train,
    params=frozenset({"benchmarks", "family", "arch", "epochs", "isa"}),
    required=frozenset({"benchmarks"}),
))
register_kind(StageKind(
    kind="evaluate", run=_run_evaluate,
    params=frozenset({"benchmarks", "isa"}),
    required=frozenset({"benchmarks"}),
))
register_kind(StageKind(
    kind="predict", run=_run_predict,
    params=frozenset({"benchmarks", "isa"}),
    required=frozenset({"benchmarks"}),
))
register_kind(StageKind(
    kind="analysis", run=_run_analysis,
    params=frozenset({"fn"}),
    required=frozenset({"fn"}),
    open_params=True,
))
register_kind(StageKind(
    kind="report", run=_run_report,
    params=frozenset({"experiment", "title"}),
))
