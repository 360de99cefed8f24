"""End-to-end foundation training at smoke scale."""

import numpy as np
import pytest

from repro.core.errors import abs_rel_error
from repro.core.predictor import TICK_SCALE
from repro.core.training import (
    FoundationTrainConfig,
    naive_training_step_cost,
    train_foundation,
)
from repro.features.dataset import build_dataset
from repro.uarch import sample_configs


@pytest.fixture(scope="module")
def smoke_dataset():
    configs = sample_configs(n_ooo=3, n_inorder=1, seed=2, include_presets=False)
    return build_dataset(
        ["999.specrand", "548.exchange2", "557.xz"], configs, 2500, cache_dir=None
    )


@pytest.fixture(scope="module")
def trained(smoke_dataset):
    config = FoundationTrainConfig(
        spec="lstm-1-16", chunk_len=32, batch_size=8, epochs=6, seed=0
    )
    return train_foundation(smoke_dataset, config)


def test_training_reduces_validation_loss(trained):
    _, history = trained
    assert history.val_losses[-1] == history.val_losses[-1]  # not NaN
    assert min(history.val_losses) < history.val_losses[0]
    assert history.best_epoch >= 0


def test_trained_foundation_beats_mean_baseline(smoke_dataset, trained):
    model, _ = trained
    preds = model.predict_latencies(smoke_dataset.features, chunk_len=32)
    truth = smoke_dataset.targets
    model_mse = float(np.mean((preds - truth) ** 2))
    baseline = truth.mean(axis=0, keepdims=True)
    baseline_mse = float(np.mean((baseline - truth) ** 2))
    assert model_mse < baseline_mse


def test_trained_total_time_error_reasonable(smoke_dataset, trained):
    """Total-time predictions for *seen* programs land within 30% at smoke
    scale (the paper reaches <8% at full scale)."""
    model, _ = trained
    errors = []
    for name, start, end in smoke_dataset.segments:
        feats = smoke_dataset.features[start:end]
        true_total = smoke_dataset.targets[start:end].astype(np.float64).sum(axis=0)
        pred_total = model.predict_program_times(feats, chunk_len=32)
        errors.append(abs_rel_error(pred_total, true_total).mean())
    assert float(np.mean(errors)) < 0.30


def test_model_has_table_per_config(smoke_dataset, trained):
    model, _ = trained
    assert model.table.num_configs == smoke_dataset.num_configs
    assert model.table.config_names == smoke_dataset.config_names
    assert model.table.index_of(smoke_dataset.config_names[1]) == 1


def test_chunk_too_long_rejected(smoke_dataset):
    config = FoundationTrainConfig(spec="lstm-1-8", chunk_len=10_000, epochs=1)
    with pytest.raises(ValueError):
        train_foundation(smoke_dataset, config)


def test_reuse_cost_probe_structure(smoke_dataset):
    """The probe reports both regimes; the ~k-fold ratio itself is a
    performance claim measured by bench_sec4b_reuse_speedup under
    controlled timing, not asserted here (CI timing noise)."""
    config = FoundationTrainConfig(spec="lstm-1-16", chunk_len=32, batch_size=8)
    cost = naive_training_step_cost(smoke_dataset, config, steps=2)
    assert cost["configs"] == smoke_dataset.num_configs
    assert cost["reuse_seconds_per_step"] > 0
    assert cost["naive_seconds_per_step"] > 0
    assert cost["speedup"] == pytest.approx(
        cost["naive_seconds_per_step"] / cost["reuse_seconds_per_step"]
    )


def test_target_scaling_applied(smoke_dataset, trained):
    """Predictions come back in ticks, i.e. TICK_SCALE is inverted."""
    model, _ = trained
    feats = smoke_dataset.features[:64]
    ticks = model.predict_latencies(feats, chunk_len=32)
    reps = model.instruction_representations(feats, chunk_len=32)
    scaled = reps @ model.table.table.data.T
    np.testing.assert_allclose(ticks, scaled / TICK_SCALE, rtol=1e-6)
