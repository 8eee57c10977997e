"""Experiment drivers regenerating every table and figure of the paper."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "ablations": (
        "AblationResult",
        "run_ablation_m",
        "run_ablation_metric",
        "run_ablation_minsup",
        "run_ablation_mutations",
    ),
    "base": ("ExperimentContext",),
    "fig1": ("Fig1Result", "run_fig1"),
    "fig2": ("Fig2Result", "run_fig2"),
    "fig3": ("Fig3Result", "run_fig3"),
    "fig4": ("Fig4Result", "run_fig4"),
    "registry": ("EXPERIMENTS", "available_experiments", "run_experiment"),
    "table1": ("Table1Result", "run_table1"),
})
