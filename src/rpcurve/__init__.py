"""Ranking principal curve: objective multi-indicator ranking.

Fit a cubic Bezier ranking curve through min-max-normalized indicator
data, score items by orthogonal projection onto it, compare against
classical composite-index baselines, and audit everything with an
objectivity checklist.

The names below are exported from the submodules that define them, each
imported on first use, so a program that needs only part of the package
(such as the ``rank`` command) does not load the rest.
"""

import importlib

_EXPORTS = {
    "baselines": (
        "Comparison",
        "arithmetic_mean_rank",
        "compare",
        "elmap_reference_scores",
        "entropy_weight_rank",
        "geometric_mean_rank",
        "pca_rank",
        "published_control_points",
        "published_curve_orders",
        "published_curve_scores",
    ),
    "bezier": (
        "BestEnd",
        "Monotonicity",
        "RankingCurve",
        "curve_from_dict",
        "curve_to_dict",
        "derivative",
        "evaluate",
        "is_monotone",
    ),
    "data": (
        "IndicatorTable",
        "NormalizationTransform",
        "NormalizedTable",
        "Orientation",
        "ScoringRows",
        "denormalize_point",
        "load_bundled_table",
        "load_rows",
        "load_schema",
        "load_table",
        "normalize",
    ),
    "evaluation": (
        "Criterion",
        "CriterionResult",
        "MetaCriteriaReport",
        "RankingPipeline",
        "Verdict",
        "arithmetic_pipeline",
        "audit",
        "entropy_pipeline",
        "geometric_pipeline",
        "pca_pipeline",
        "replay_witness",
        "rpc_pipeline",
    ),
    "fitting": (
        "FitConfig",
        "FitReport",
        "RankingResult",
        "fit",
        "fit_table",
        "init_curve",
        "load_curve",
        "rank",
        "save_fit",
    ),
    "projection": (
        "ProjectionResult",
        "project_point",
        "project_points",
        "score_from_t",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    # not cached here: the name stays whatever its module holds now
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})
