"""The pipeline runner: plan a spec's stage DAG, hand it to a backend.

The runner itself no longer executes stages.  It builds an
:class:`~repro.pipeline.executors.ExecutionPlan` — the deduplicated
union DAG with every stage's content key precomputed — checks the
:class:`~repro.pipeline.artifacts.StageArtifactStore` for hits, and
delegates the rest to an :class:`~repro.pipeline.executors.ExecutorBackend`:
``local`` (in-process waves over :class:`repro.runtime.ParallelMap`, the
historical behavior) or ``queue`` (the distributed work-stealing queue,
see :mod:`repro.pipeline.queue`).

A failed stage raises :class:`StageFailure` *after* every other
completed stage persisted its artifact, so a re-run resumes from the
failure point instead of from scratch.  Sweeps executed on the queue
backend submit the union DAG of every expanded scenario at once, so
idle workers steal ready stages from any sweep point.

:func:`run_all` runs several preset experiments as one union plan: a
stage shared by several experiments (the suite dataset, a foundation
model) executes once, and a failure is reported per experiment instead
of aborting the batch.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Sequence

from repro.pipeline.artifacts import StageArtifactStore
from repro.pipeline.executors import (
    ExecutionReport,
    LocalBackend,
    StageTask,
    TaskResult,
    build_plan,
    make_backend,
    render_executor_stats,
)
from repro.pipeline.report import ExperimentResult
from repro.pipeline.spec import ExperimentSpec, SweepSpec


class StageFailure(RuntimeError):
    """A stage raised; carries the stage name and the (worker) traceback."""

    def __init__(self, spec_name: str, stage_name: str, detail: str):
        self.spec_name = spec_name
        self.stage_name = stage_name
        self.detail = detail
        super().__init__(
            f"pipeline {spec_name!r} failed at stage {stage_name!r}:\n{detail}"
        )


@dataclass(frozen=True)
class StageOutcome:
    """One stage of a finished run: where its payload came from."""

    name: str
    kind: str
    key: str
    cached: bool
    seconds: float
    payload: dict

    def row(self) -> str:
        state = "cached " if self.cached else "executed"
        return f"{self.name:<20s} [{self.kind:<8s}] {state} ({self.seconds:.2f}s)"


@dataclass
class PipelineResult:
    """Everything a finished pipeline run produced."""

    spec_name: str
    scale: str
    outcomes: list[StageOutcome] = field(default_factory=list)
    saved: list[str] = field(default_factory=list)
    stats: dict | None = None  # executor telemetry (queue backend runs)

    @property
    def executed(self) -> int:
        return sum(not o.cached for o in self.outcomes)

    @property
    def cached(self) -> int:
        return sum(o.cached for o in self.outcomes)

    @property
    def fully_cached(self) -> bool:
        return self.executed == 0

    @property
    def seconds(self) -> float:
        """Total execution seconds attributed to this run's stages."""
        return sum(o.seconds for o in self.outcomes)

    def outcome(self, name: str) -> StageOutcome:
        for o in self.outcomes:
            if o.name == name:
                return o
        from repro.core.errors import UnknownExperimentError

        raise UnknownExperimentError(
            name, [o.name for o in self.outcomes], kind="stage"
        )

    @property
    def payload(self) -> dict:
        """The terminal stage's payload."""
        return self.outcomes[-1].payload if self.outcomes else {}

    @property
    def result(self) -> ExperimentResult | None:
        """The report stage's :class:`ExperimentResult`, if the spec has one."""
        for o in reversed(self.outcomes):
            if o.kind == "report":
                return ExperimentResult.from_payload(o.payload)
        return None

    def summary(self) -> str:
        return (
            f"pipeline {self.spec_name} (scale={self.scale}): "
            f"{self.executed} executed, {self.cached} cached "
            f"(of {len(self.outcomes)} stages)"
        )

    def render(self) -> str:
        lines = [self.summary()]
        lines += [f"  {o.row()}" for o in self.outcomes]
        result = self.result
        if result is not None:
            lines.append(result.render())
        for path in self.saved:
            lines.append(f"saved: {path}")
        lines += render_executor_stats(self.stats)
        return "\n".join(lines)


@dataclass
class SweepResult:
    """Every point of a finished sweep, plus executor telemetry.

    Behaves like the list of per-point :class:`PipelineResult` it wraps
    (iteration, indexing, ``len``), and renders a compact per-point
    summary table instead of one stage listing per scenario.
    """

    points: list = field(default_factory=list)  # [PipelineResult]
    stats: dict | None = None

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, index):
        return self.points[index]

    @property
    def executed(self) -> int:
        return sum(p.executed for p in self.points)

    @property
    def cached(self) -> int:
        return sum(p.cached for p in self.points)

    @property
    def fully_cached(self) -> bool:
        return self.executed == 0

    def table(self) -> list[str]:
        """The per-point summary rows (``point  executed cached seconds``)."""
        if not self.points:
            return []
        width = max(len(p.spec_name) for p in self.points)
        width = max(width, len("point"))
        lines = [f"  {'point':<{width}s}  executed  cached  seconds"]
        for p in self.points:
            lines.append(
                f"  {p.spec_name:<{width}s}  {p.executed:>8d}  "
                f"{p.cached:>6d}  {p.seconds:>7.2f}"
            )
        return lines

    def render(self) -> str:
        lines = self.table()
        for p in self.points:
            for path in p.saved:
                lines.append(f"saved: {path}")
        lines += render_executor_stats(self.stats)
        lines.append(
            f"sweep total: {self.executed} executed, {self.cached} cached"
        )
        return "\n".join(lines)


@contextlib.contextmanager
def execution_env(cache_dir: str | None, jobs: int | None):
    """Export ``cache_dir`` process-wide for one run's duration.

    ``cache_dir`` travels as ``REPRO_CACHE_DIR`` so worker processes and
    every store a stage opens resolve the same root; it is restored on
    exit.  Yields the resolved job count (``None`` runs serially).
    """
    import os

    from repro.cache import CACHE_DIR_ENV, set_cache_root
    from repro.runtime import resolve_jobs

    previous_root = os.environ.get(CACHE_DIR_ENV)
    set_cache_root(cache_dir)
    try:
        yield resolve_jobs(jobs) if jobs is not None else 1
    finally:
        if cache_dir:
            if previous_root is None:
                os.environ.pop(CACHE_DIR_ENV, None)
            else:
                os.environ[CACHE_DIR_ENV] = previous_root


def assemble_result(
    spec: ExperimentSpec,
    scale_name: str,
    keys: dict[str, str],
    report: ExecutionReport,
    save: bool = False,
    results_dir: str | None = None,
    seen_executed: set | None = None,
    stats: dict | None = None,
) -> PipelineResult:
    """One spec's :class:`PipelineResult` out of an execution report.

    ``seen_executed`` threads through a sweep's scenarios so a stage
    shared by several points is attributed *executed* exactly once (the
    first point, in expansion order) and *cached* everywhere else.
    """
    seen = seen_executed if seen_executed is not None else set()
    outcomes = []
    for stage in spec.stages:
        key = keys[stage.name]
        res = report.results[key]
        cached = res.cached or key in seen
        if not res.cached:
            seen.add(key)
        outcomes.append(StageOutcome(
            name=stage.name, kind=stage.kind, key=key, cached=cached,
            seconds=0.0 if cached else res.seconds, payload=res.payload,
        ))
    result = PipelineResult(spec_name=spec.name, scale=scale_name,
                            outcomes=outcomes, stats=stats)
    if save:
        for outcome in result.outcomes:
            if outcome.kind == "report":
                saved = ExperimentResult.from_payload(outcome.payload)
                result.saved.append(saved.save(results_dir))
    return result


class Runner:
    """Execute one :class:`ExperimentSpec` with per-stage artifact reuse.

    ``jobs`` is the process fan-out for stages and their simulations
    (``None`` runs serially, ``0`` uses every core).  ``cache_dir`` is
    exported process-wide (like the CLI's ``--cache-dir``) so every
    store a stage opens — in this process or a worker — resolves the
    same root.  ``force`` re-executes
    every stage; ``force_stages`` re-executes just the named ones.

    ``backend`` picks the executor: ``"local"`` (default), ``"queue"``
    (``workers`` spawned queue workers plus any external ``repro
    pipeline worker`` processes sharing the cache root), or a pre-built
    backend object.  ``backend_options`` are extra keyword arguments for
    the backend constructor (e.g. ``lease_ttl_s`` for the queue).
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        scale: str | None = None,
        cache_dir: str | None = None,
        results_dir: str | None = None,
        jobs: int | None = None,
        save: bool = False,
        force: bool = False,
        force_stages: tuple[str, ...] = (),
        store: StageArtifactStore | None = None,
        progress=None,
        backend="local",
        workers: int = 0,
        backend_options: dict | None = None,
    ):
        from repro.experiments.common import get_scale

        self.spec = spec
        self.scale = get_scale(scale or spec.scale or "bench")
        self.cache_dir = cache_dir
        self.results_dir = results_dir
        self.jobs = jobs
        self.save = save
        self.force = force
        self.force_stages = tuple(force_stages)
        for name in self.force_stages:
            spec.stage(name)  # fail fast with suggestions
        self._store = store
        self.progress = progress
        self.backend = backend
        self.workers = workers
        self.backend_options = dict(backend_options or {})

    @property
    def store(self) -> StageArtifactStore:
        if self._store is None:
            self._store = StageArtifactStore()
        return self._store

    def run(self) -> PipelineResult:
        with execution_env(self.cache_dir, self.jobs) as resolved_jobs:
            return self._run(resolved_jobs)

    def _run(self, resolved_jobs: int) -> PipelineResult:
        plan = build_plan(
            [self.spec], scale=self.scale, store=self.store,
            jobs=resolved_jobs, cache_dir=self.cache_dir,
            results_dir=self.results_dir, force=self.force,
            force_stages=self.force_stages,
            progress=self.progress, on_outcome=self._on_outcome,
        )
        backend = make_backend(self.backend, workers=self.workers,
                               **self.backend_options)
        report = backend.execute(plan)
        if report.failure is not None:
            raise StageFailure(*report.failure)
        spec, keys = plan.index[0]
        return assemble_result(
            spec, self.scale.name, keys, report,
            save=self.save, results_dir=self.results_dir,
            stats=report.stats,
        )

    def _on_outcome(self, task: StageTask, result: TaskResult) -> None:
        if self.progress is not None and hasattr(self.progress, "stream"):
            outcome = StageOutcome(
                name=task.stage.name, kind=task.stage.kind, key=task.key,
                cached=result.cached, seconds=result.seconds,
                payload=result.payload,
            )
            self.progress.stream.write(f"{outcome.row()}\n")


# ---------------------------------------------------------------------------
# convenience entry points
# ---------------------------------------------------------------------------
def run_spec(
    spec: ExperimentSpec | str,
    scale: str | None = None,
    jobs: int | None = None,
    cache_dir: str | None = None,
    results_dir: str | None = None,
    save: bool = False,
    force: bool = False,
    backend="local",
    workers: int = 0,
    backend_options: dict | None = None,
) -> PipelineResult:
    """Run one spec (by object or registered name)."""
    if isinstance(spec, str):
        from repro.pipeline.presets import get_spec

        spec = get_spec(spec)
    return Runner(
        spec, scale=scale, jobs=jobs, cache_dir=cache_dir,
        results_dir=results_dir, save=save, force=force,
        backend=backend, workers=workers, backend_options=backend_options,
    ).run()


def run_sweep(
    sweep: SweepSpec,
    scale: str | None = None,
    jobs: int | None = None,
    cache_dir: str | None = None,
    results_dir: str | None = None,
    save: bool = False,
    force: bool = False,
    backend="local",
    workers: int = 0,
    backend_options: dict | None = None,
    progress=None,
) -> SweepResult:
    """Run every scenario of a sweep grid, in expansion order.

    Scenarios share stage artifacts wherever their grid point leaves a
    stage's parameters (and upstream) untouched, so a sweep's cost is
    proportional to what actually varies.

    On the ``local`` backend, scenarios run sequentially in-process.
    Any other backend receives the **union DAG** of every expanded
    scenario in one submission — with the queue backend that means idle
    workers steal ready stages from any sweep point (work-stealing
    across the whole grid), and a stage shared by several points
    executes once.
    """
    scenarios = sweep.expand()
    if backend == "local":
        points = [
            Runner(
                scenario, scale=scale, jobs=jobs, cache_dir=cache_dir,
                results_dir=results_dir, save=save, force=force,
                progress=progress,
            ).run()
            for scenario in scenarios
        ]
        return SweepResult(points=points)
    with execution_env(cache_dir, jobs) as resolved_jobs:
        store = StageArtifactStore()
        plan = build_plan(
            scenarios, scale=scale, store=store, jobs=resolved_jobs,
            cache_dir=cache_dir, results_dir=results_dir, force=force,
            progress=progress,
        )
        backend_obj = make_backend(backend, workers=workers,
                                   **(backend_options or {}))
        report = backend_obj.execute(plan)
        if report.failure is not None:
            raise StageFailure(*report.failure)
        seen: set[str] = set()
        points = []
        for spec, keys in plan.index:
            points.append(assemble_result(
                spec, plan_scale_name(spec, scale), keys, report,
                save=save, results_dir=results_dir, seen_executed=seen,
            ))
        return SweepResult(points=points, stats=report.stats)


@dataclass(frozen=True)
class ExperimentOutcome:
    """One :func:`run_all` entry: a result or a captured failure."""

    name: str
    result: ExperimentResult | None = None
    error: str | None = None  # the failed stage and its traceback

    @property
    def ok(self) -> bool:
        return self.error is None


def run_all(
    names: Sequence[str] | None = None,
    scale: str = "bench",
    jobs: int | None = 1,
    progress=None,
    save: bool = False,
) -> list[ExperimentOutcome]:
    """Run preset experiments (default: all) as one union plan.

    A stage shared by several experiments executes once, and the plan's
    first wave is the dataset stages, so later stages read simulations
    from the on-disk cache.  A failed stage fails only the experiments
    that contain it; every independent stage still runs and persists.
    ``progress`` receives one completion line per stage and a closing
    union-plan summary.  With ``save`` each result JSON lands under the
    results dir as soon as its report stage completes, so an interrupted
    batch keeps what it finished.
    """
    from repro.core.errors import UnknownExperimentError
    from repro.pipeline.presets import SPECS
    from repro.runtime import resolve_jobs

    names = list(names) if names is not None else list(SPECS)
    for name in names:
        if name not in SPECS:
            raise UnknownExperimentError(name, SPECS)

    def on_outcome(task: StageTask, result: TaskResult) -> None:
        if save and task.stage.kind == "report":
            ExperimentResult.from_payload(result.payload).save()
        if progress is not None:
            cached = " (cached)" if result.cached else ""
            progress.task_done(f"{task.spec_name}:{task.stage.name}{cached}")

    plan = build_plan(
        [SPECS[name] for name in names], scale=scale, jobs=resolve_jobs(jobs),
        on_outcome=on_outcome,
    )
    if progress is not None and not progress.total:
        progress.total = len(plan.tasks)
    report = LocalBackend().execute(plan)
    outcomes = []
    for spec, keys in plan.index:
        failed = [name for name, key in keys.items() if key in report.failures]
        if failed:
            detail = report.failures[keys[failed[0]]][2]
            error = str(StageFailure(spec.name, failed[0], detail))
            outcomes.append(ExperimentOutcome(name=spec.name, error=error))
            continue
        result = assemble_result(spec, plan_scale_name(spec, scale), keys,
                                 report)
        outcomes.append(ExperimentOutcome(name=spec.name, result=result.result))
    if progress is not None:
        executed = sum(not r.cached for r in report.results.values())
        progress.note(
            f"run-all union plan: {executed} executed, "
            f"{len(report.results) - executed} cached, "
            f"{len(plan.tasks) - len(report.results)} failed or blocked "
            f"(of {len(plan.tasks)} stages)"
        )
    return outcomes


def plan_scale_name(spec: ExperimentSpec, scale) -> str:
    """The scale name a spec resolves to under an optional override."""
    from repro.experiments.common import get_scale

    return get_scale(scale or spec.scale or "bench").name
