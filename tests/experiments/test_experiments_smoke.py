"""Every registered experiment runs end-to-end at smoke scale and
reproduces the paper's qualitative shape where the scale permits."""

import pytest

from repro.pipeline import run_spec
from repro.pipeline.presets import SPECS


@pytest.fixture(scope="module")
def results():
    """Run each experiment once (models/datasets are shared via caches)."""
    return {}


def _get(results, name):
    if name not in results:
        results[name] = run_spec(name, scale="smoke").result
    return results[name]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_experiment_runs_and_renders(results, name):
    result = _get(results, name)
    assert result.experiment == name
    assert result.scale == "smoke"
    assert result.rows, "experiment produced no rows"
    text = result.render()
    assert name in text


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError):
        run_spec("fig99_warp_drive")


def test_fig3_has_all_17_benchmarks(results):
    result = _get(results, "fig3_seen_unseen")
    assert len(result.rows) == 17
    assert 0 < result.metrics["avg_seen_error"]
    assert 0 < result.metrics["avg_unseen_error"]


def test_fig4_reports_lbm_delta(results):
    result = _get(results, "fig4_retrain_lbm")
    assert "lbm_error_before" in result.metrics
    assert "lbm_error_after" in result.metrics


def test_fig5_covers_unseen_uarchs(results):
    result = _get(results, "fig5_unseen_uarch")
    assert result.metrics["unseen_uarch_count"] >= 5
    assert result.metrics["avg_seen_error"] > 0


def test_fig6_sweeps_architectures(results):
    result = _get(results, "fig6_ablation_arch")
    archs = [row[0] for row in result.rows]
    assert any(a.startswith("linear") for a in archs)
    assert any(a.startswith("transformer") for a in archs)
    assert sum(a.startswith("lstm") for a in archs) >= 3


def test_sec4b_speedup_grows_with_k(results):
    result = _get(results, "sec4b_reuse")
    speedups = [v for k, v in result.metrics.items() if k.startswith("speedup")]
    assert max(speedups) > 1.5


def test_table3_includes_all_approaches(results):
    result = _get(results, "table3_comparison")
    names = " ".join(row[0] for row in result.rows)
    for expected in ("Ithemal", "SimNet", "PerfVec"):
        assert expected in names
    assert result.metrics["perfvec_predict_seconds"] < 0.01


def test_table4_perfvec_cheapest(results):
    result = _get(results, "table4_dse_methods")
    m = result.metrics
    # the paper's headline: PerfVec needs far fewer simulations than any
    # per-program training scheme and the exhaustive sweep
    assert m["perfvec_sims"] < m["mlp_sims"]
    assert m["perfvec_sims"] < m["actboost_sims"]
    assert m["perfvec_sims"] < m["exhaustive_sims"] / 4


def test_fig7_rank_metrics_consistent(results):
    result = _get(results, "fig7_cache_dse")
    m = result.metrics
    assert m["optimal_count"] <= m["top2_count"] <= m["top3_count"] <= m["top5_count"]
    assert m["top5_count"] <= m["programs"] == 17
    assert 0 <= m["avg_frac_better"] <= 1


def test_fig8_produces_tile_sweep(results):
    result = _get(results, "fig8_loop_tiling")
    tiles = [row[0] for row in result.rows]
    assert tiles == [1, 2, 4, 8, 16, 48]
    assert result.metrics["sim_best_tile"] in tiles
