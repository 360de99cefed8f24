"""Sec. V-B — training-data volume ablation.

Two axes, as in the paper:

* instruction volume: 10% / 50% / 100% of the scale's trace budget —
  paper: unseen-program error drops 7.7% -> 5.2% -> 3.6%;
* microarchitecture count: few vs all sampled configs — paper: dropping
  77 -> 20 uarchs hurts *unseen-microarchitecture* error more (5.3 -> 7.9%)
  than unseen-program error (5.5 -> 7.2%).
"""

from __future__ import annotations

from repro.core.finetune import learn_unseen_uarch_table
from repro.core.training import FoundationTrainConfig, train_foundation
from repro.experiments.common import seen_configs, total_time_errors
from repro.features.dataset import build_dataset
from repro.pipeline import ExperimentSpec, analysis, stage
from repro.pipeline.stages import open_dataset
from repro.workloads import TRAIN_BENCHMARKS

INSTRUCTION_FRACTIONS = (0.1, 0.5, 1.0)


def _avg_error(errors) -> float:
    return sum(s.mean for s in errors.values()) / len(errors)


@analysis("sec5b_data_volume")
def analyze(ctx, params, inputs) -> dict:
    cfg = ctx.scale
    rows = []
    metrics: dict[str, float] = {}

    # --- axis 1: instruction volume ------------------------------------
    test_ds = open_dataset(ctx, inputs["test_data"])
    frac_errors = []
    for frac in INSTRUCTION_FRACTIONS:
        n = max(int(cfg.instructions * frac), 4 * cfg.chunk_len)
        train_ds = build_dataset(list(TRAIN_BENCHMARKS), seen_configs(cfg), n,
                                 jobs=ctx.jobs)
        model, _ = train_foundation(
            train_ds,
            FoundationTrainConfig(
                spec=cfg.spec, chunk_len=cfg.chunk_len,
                batch_size=cfg.batch_size, epochs=cfg.ablation_epochs,
                seed=cfg.seed,
            ),
        )
        err = _avg_error(total_time_errors(model, test_ds, cfg.chunk_len))
        frac_errors.append(err)
        rows.append([f"instructions {frac:.0%}", f"{err:.1%}", "-"])
        metrics[f"error_at_{int(frac * 100)}pct_instructions"] = err

    # --- axis 2: microarchitecture count --------------------------------
    full_ds = open_dataset(ctx, inputs["train_data"])
    few = max(3, full_ds.num_configs // 3)
    tune_ds = open_dataset(ctx, inputs["unseen_tune_data"])
    eval_ds = open_dataset(ctx, inputs["unseen_eval_data"])
    for label, ds in (
        (f"{few} uarchs", full_ds.select_configs(range(few))),
        (f"{full_ds.num_configs} uarchs", full_ds),
    ):
        model, _ = train_foundation(
            ds,
            FoundationTrainConfig(
                spec=cfg.spec, chunk_len=cfg.chunk_len,
                batch_size=cfg.batch_size, epochs=cfg.ablation_epochs,
                seed=cfg.seed,
            ),
        )
        # unseen-program error is judged on the same config columns the
        # model's table covers
        prog_eval = (
            test_ds if ds.num_configs == test_ds.num_configs
            else test_ds.select_configs(range(ds.num_configs))
        )
        prog_err = _avg_error(total_time_errors(model, prog_eval, cfg.chunk_len))
        table = learn_unseen_uarch_table(
            model, tune_ds.features, tune_ds.targets, chunk_len=cfg.chunk_len
        )
        uarch_err = _avg_error(
            total_time_errors(model, eval_ds, cfg.chunk_len, table=table.table.data)
        )
        rows.append([label, f"{prog_err:.1%}", f"{uarch_err:.1%}"])
        key = "few" if ds.num_configs == few else "full"
        metrics[f"{key}_uarch_prog_error"] = prog_err
        metrics[f"{key}_uarch_unseen_uarch_error"] = uarch_err

    return {
        "headers": ["training data", "unseen-program err", "unseen-uarch err"],
        "rows": rows,
        "metrics": metrics,
        "notes": [
            "paper: 7.7% -> 5.2% -> 3.6% with 10/50/100% instructions",
            "paper: 20 vs 77 uarchs hurts unseen-uarch error (5.3->7.9%) "
            "more than unseen-program error (5.5->7.2%)",
        ],
    }


SPEC = ExperimentSpec(
    name="sec5b_data_volume",
    title="Training-data volume ablation",
    description="Sec. V-B — training-data volume ablation",
    stages=(
        stage("train_data", "dataset", benchmarks="train"),
        stage("test_data", "dataset", benchmarks="test"),
        stage("unseen_tune_data", "dataset",
              benchmarks=["525.x264", "557.xz"], configs="unseen", count=6),
        stage("unseen_eval_data", "dataset", benchmarks="test",
              configs="unseen", count=6),
        stage("analyze", "analysis", fn="sec5b_data_volume",
              needs=("train_data", "test_data", "unseen_tune_data",
                     "unseen_eval_data")),
        stage("report", "report", title="Training-data volume ablation",
              needs=("analyze",)),
    ),
)
