"""Ranking principal curve: objective multi-indicator ranking.

Fit a cubic Bezier ranking curve through min-max-normalized indicator
data, score items by orthogonal projection onto it, compare against
classical composite-index baselines, and audit everything with an
objectivity checklist.
"""

from .baselines import (
    Comparison,
    arithmetic_mean_rank,
    compare,
    elmap_reference_scores,
    entropy_weight_rank,
    geometric_mean_rank,
    pca_rank,
    published_control_points,
    published_curve_orders,
    published_curve_scores,
)
from .bezier import (
    BestEnd,
    Monotonicity,
    RankingCurve,
    ShapeClass,
    classify_shape,
    curve_from_dict,
    curve_to_dict,
    derivative,
    evaluate,
    is_monotone,
    nonlinearity_index,
)
from .data import (
    IndicatorTable,
    NormalizationTransform,
    NormalizedTable,
    Orientation,
    ScoringRows,
    denormalize_point,
    load_bundled_table,
    load_rows,
    load_schema,
    load_table,
    normalize,
)
from .evaluation import (
    Criterion,
    CriterionResult,
    MetaCriteriaReport,
    RankingPipeline,
    Verdict,
    arithmetic_pipeline,
    audit,
    entropy_pipeline,
    geometric_pipeline,
    pca_pipeline,
    replay_witness,
    rpc_pipeline,
)
from .fitting import (
    FitConfig,
    FitReport,
    RankingResult,
    fit,
    fit_table,
    init_curve,
    load_curve,
    rank,
    save_fit,
)
from .projection import (
    ProjectionResult,
    project_point,
    project_points,
    score,
    score_from_t,
)

__version__ = "0.1.0"
