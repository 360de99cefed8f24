"""Experiment harness: one module per table/figure of the paper.

Every experiment is a declarative :mod:`repro.pipeline` spec (the
module's ``SPEC``) plus a registered analysis function that reads its
dataset and model from the upstream stage payloads.  The specs are
collected in :mod:`repro.pipeline.presets` and executed by the pipeline
runner (:func:`repro.pipeline.run_spec` for one,
:func:`repro.pipeline.runner.run_all` for a batch); ``python -m repro``
is the CLI front end (see ``README.md`` for the experiment/figure table).

==========================  =============================================
module                      reproduces
==========================  =============================================
``fig3_seen_unseen``        Fig. 3 — seen/unseen programs, seen uarchs
``fig4_retrain_lbm``        Fig. 4 — moving 519.lbm into training
``fig5_unseen_uarch``       Fig. 5 — unseen microarchitectures
``fig6_ablation_arch``      Fig. 6 — model architecture ablation
``sec4b_reuse``             Sec. IV-B — representation-reuse speedup
``sec5b_data_volume``       Sec. V-B — training-data volume ablation
``sec5b_features``          Sec. V-B — feature ablation
``table3_comparison``       Table III — approach comparison + speeds
``table4_dse_methods``      Table IV — DSE method overhead/quality
``fig7_cache_dse``          Fig. 7 + Sec. VI-A — cache-size DSE
``fig8_loop_tiling``        Fig. 8 — matrix-multiply loop tiling
``cross_isa``               Cross-ISA zero-shot transfer (mini-ASM -> RV)
==========================  =============================================
"""

from repro.experiments.common import (
    SCALES,
    ExperimentResult,
    ScaleConfig,
    get_scale,
)

__all__ = [
    "SCALES",
    "ExperimentResult",
    "ScaleConfig",
    "get_scale",
]
