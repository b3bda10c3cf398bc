"""Meta-criteria audit: does a ranking method behave objectively?

Eight criteria are checked for any ranking pipeline over a given table:

  ScaleInvariance        orders survive per-column positive rescaling
  TranslationInvariance  orders survive per-column shifts
  StrictMonotonicity     every curve dimension strictly monotone, directed
                         consistently with its orientation
  LinearCompatibility    collinear data is recovered as a straight curve
                         with the first-principal-component order
  Smoothness             regular: C' never vanishes on [0, 1] (exact, by
                         the extremes of the speed |C'|)
  NoFreeParameters       nothing user-tunable; parameters are a function of
                         the data and dimension count alone
  Reproducibility        re-running the pipeline is bit-identical
  OpenDataDeclared       the evaluated dataset declares its provenance

An audit with T trials makes 2T + 3 pipeline runs: one base run on the
input table, shared by every criterion that needs its orders, scores or
curve; T perturbed runs for each invariance criterion; one run on the
collinear table (curve methods only); and one rerun for Reproducibility,
whose comparison NoFreeParameters also reports.  A failed base run is the
``pipeline error`` Fail of every criterion but OpenDataDeclared.

Perturbation trials use fixed, documented sequences (nothing random):
scaling trial 0 rescales dimension 0 alone by 6.8 and later trials rotate
(0.5, 2, 6.8, 1000) across all dimensions; translation trial 0 shifts
dimension min(1, d-1) by +100 and later trials rotate
(100, 10, -0.5, 3.75).  Every Fail carries a witness that replays through
the pipeline to the same order discrepancy.  Curve-specific criteria
report NotApplicable for score-table baselines without a curve.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .baselines import (
    arithmetic_mean_rank,
    entropy_weight_rank,
    geometric_mean_rank,
    pca_rank,
)
from .bezier import (
    BestEnd,
    Monotonicity,
    RankingCurve,
    _speed_extremes,
    is_monotone,
)
from .data import IndicatorTable, Orientation
from .errors import PipelineFailure, RankingError
from .fitting import FitConfig, RankingResult, fit_table, rank

SCALE_FACTORS = (0.5, 2.0, 6.8, 1000.0)
SHIFT_AMOUNTS = (100.0, 10.0, -0.5, 3.75)
LINEAR_RESIDUAL_TOL = 1e-6  # chord offset / chord length of a straight fit
# C' vanishes where min |C'| <= REGULARITY_TOL * max |C'| (a scale- and
# shift-free ratio; exact cusps read about 1e-15)
REGULARITY_TOL = 1e-12
_NO_CURVE = "method produces no evaluation curve"


class Criterion(enum.Enum):
    SCALE_INVARIANCE = "ScaleInvariance"
    TRANSLATION_INVARIANCE = "TranslationInvariance"
    STRICT_MONOTONICITY = "StrictMonotonicity"
    LINEAR_COMPATIBILITY = "LinearCompatibility"
    SMOOTHNESS = "Smoothness"
    NO_FREE_PARAMETERS = "NoFreeParameters"
    REPRODUCIBILITY = "Reproducibility"
    OPEN_DATA_DECLARED = "OpenDataDeclared"


class Verdict(enum.Enum):
    PASS = "Pass"
    FAIL = "Fail"
    NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class CriterionResult:
    criterion: Criterion
    verdict: Verdict
    evidence: str
    witness: dict | None = None

    def to_dict(self) -> dict:
        out = {
            "criterion": self.criterion.value,
            "verdict": self.verdict.value,
            "evidence": self.evidence,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class MetaCriteriaReport:
    """One result per criterion, in the canonical order above."""

    pipeline: str
    results: tuple[CriterionResult, ...]

    def __post_init__(self) -> None:
        got = [r.criterion for r in self.results]
        expected = list(Criterion)
        if got != expected:
            raise RankingError(
                "report must contain every criterion exactly once, in order"
            )

    def get(self, criterion: Criterion) -> CriterionResult:
        return self.results[list(Criterion).index(criterion)]

    @property
    def all_applicable_pass(self) -> bool:
        return all(
            r.verdict is not Verdict.FAIL for r in self.results
        )

    def to_dict(self) -> dict:
        return {
            "pipeline": self.pipeline,
            "criteria": [r.to_dict() for r in self.results],
            "all_applicable_pass": self.all_applicable_pass,
        }

    def render_text(self) -> str:
        lines = [f"meta-criteria audit: {self.pipeline}"]
        for r in self.results:
            lines.append(
                f"  {r.criterion.value:<22} {r.verdict.value:<14} {r.evidence}"
            )
        lines.append(
            "  result: "
            + ("all applicable criteria pass" if self.all_applicable_pass
               else "FAILURES present")
        )
        return "\n".join(lines)


class PipelineRun(NamedTuple):
    """What one pipeline run returns: its ranking and, for curve methods,
    the fitted curve (None for score-table baselines).  ``orders`` is
    shorthand for ``ranking.orders``."""

    ranking: RankingResult
    curve: RankingCurve | None = None

    @property
    def orders(self) -> np.ndarray:
        return self.ranking.orders


@dataclass(frozen=True)
class RankingPipeline:
    """A deterministic ranking method under audit.

    ``run`` maps a table to ``(RankingResult, RankingCurve | None)``;
    methods with user-tunable knobs list them in
    ``declared_free_parameters``.
    """

    name: str
    run: Callable[[IndicatorTable], PipelineRun]
    declared_free_parameters: tuple[str, ...] = ()


def rpc_pipeline() -> RankingPipeline:
    def _run(table: IndicatorTable) -> PipelineRun:
        curve, _ = fit_table(table, FitConfig())
        return PipelineRun(rank(table, curve), curve)

    return RankingPipeline(name="rpc", run=_run)


def arithmetic_pipeline(weights=None, variant: str = "raw") -> RankingPipeline:
    name = "arithmetic" if variant == "raw" else "arithmetic-norm"
    return RankingPipeline(
        name=name,
        run=lambda table: PipelineRun(
            arithmetic_mean_rank(table, weights, variant)
        ),
        declared_free_parameters=("weights",) if weights is not None else (),
    )


def geometric_pipeline(variant: str = "normalized") -> RankingPipeline:
    name = "geometric" if variant == "normalized" else "geometric-raw"
    return RankingPipeline(
        name=name,
        run=lambda table: PipelineRun(geometric_mean_rank(table, variant)),
    )


def pca_pipeline() -> RankingPipeline:
    return RankingPipeline(
        name="pca", run=lambda table: PipelineRun(pca_rank(table))
    )


def entropy_pipeline() -> RankingPipeline:
    return RankingPipeline(
        name="entropy",
        run=lambda table: PipelineRun(entropy_weight_rank(table)),
    )


def scale_vectors(d: int, trials: int):
    """The documented deterministic per-dimension scaling sequence."""
    out = []
    for r in range(trials):
        if r == 0:
            vec = np.ones(d)
            vec[0] = 6.8
        else:
            vec = np.array(
                [SCALE_FACTORS[(j + r) % len(SCALE_FACTORS)] for j in range(d)]
            )
        out.append(vec)
    return out


def shift_vectors(d: int, trials: int):
    """The documented deterministic per-dimension shift sequence."""
    out = []
    for r in range(trials):
        if r == 0:
            vec = np.zeros(d)
            vec[min(1, d - 1)] = 100.0
        else:
            vec = np.array(
                [SHIFT_AMOUNTS[(j + r) % len(SHIFT_AMOUNTS)] for j in range(d)]
            )
        out.append(vec)
    return out


def _run_trial(pipeline: RankingPipeline, table: IndicatorTable,
               label: str) -> PipelineRun:
    try:
        return pipeline.run(table)
    except Exception as exc:  # noqa: BLE001 - context added, then re-raised
        raise PipelineFailure(
            f"pipeline {pipeline.name!r} failed during {label}: {exc}"
        ) from exc


def _first_divergence(ids, base: np.ndarray, other: np.ndarray) -> str:
    for item, a, b in zip(ids, base, other):
        if a != b:
            return f"{item}: order {int(a)} -> {int(b)}"
    return "tie structure changed"


# criterion -> (witness kind, trial vectors, perturbation of the values)
_INVARIANCES = {
    Criterion.SCALE_INVARIANCE: ("scale", scale_vectors, np.multiply),
    Criterion.TRANSLATION_INVARIANCE: ("shift", shift_vectors, np.add),
}


def _invariance_check(
    pipeline: RankingPipeline,
    table: IndicatorTable,
    base: RankingResult,
    criterion: Criterion,
    trials: int,
) -> CriterionResult:
    kind, vector_sequence, perturb = _INVARIANCES[criterion]
    vectors = vector_sequence(table.n_indicators, trials)
    for r, vec in enumerate(vectors):
        perturbed = table.with_values(perturb(table.values, vec))
        res = _run_trial(pipeline, perturbed, f"{kind} trial {r}").ranking
        if not np.array_equal(base.orders, res.orders):
            return CriterionResult(
                criterion=criterion,
                verdict=Verdict.FAIL,
                evidence=(
                    f"trial {r} ({kind} {np.asarray(vec).tolist()}) changed "
                    f"the order: {_first_divergence(table.item_ids, base.orders, res.orders)}"
                ),
                witness={
                    "kind": kind,
                    "trial": r,
                    "vector": np.asarray(vec).tolist(),
                    "base_orders": base.orders.tolist(),
                    "perturbed_orders": res.orders.tolist(),
                    "item_ids": list(table.item_ids),
                },
            )
    return CriterionResult(
        criterion=criterion,
        verdict=Verdict.PASS,
        evidence=f"orders bit-identical across {len(vectors)} {kind} trials",
    )


def check_scale_invariance(
    pipeline: RankingPipeline, table: IndicatorTable, trials: int = 4
) -> CriterionResult:
    base = _run_trial(pipeline, table, "base run").ranking
    return _invariance_check(
        pipeline, table, base, Criterion.SCALE_INVARIANCE, trials
    )


def check_translation_invariance(
    pipeline: RankingPipeline, table: IndicatorTable, trials: int = 4
) -> CriterionResult:
    base = _run_trial(pipeline, table, "base run").ranking
    return _invariance_check(
        pipeline, table, base, Criterion.TRANSLATION_INVARIANCE, trials
    )


def check_monotonicity(
    curve: RankingCurve, orientations
) -> CriterionResult:
    """Strict monotonicity per dimension, directed by orientation.

    With the best end at t=1, positive indicators must strictly increase
    along t and negative ones strictly decrease (mirrored for t=0).
    """
    bad = []
    for j, orientation in enumerate(orientations):
        increasing = (orientation is Orientation.POSITIVE) == (
            curve.best_end is BestEnd.AT_T1
        )
        want = (
            Monotonicity.STRICTLY_INCREASING
            if increasing
            else Monotonicity.STRICTLY_DECREASING
        )
        v = is_monotone(curve, j)
        if v is not want:
            bad.append((j, orientation.value, v.value, want.value))
    if bad:
        return CriterionResult(
            criterion=Criterion.STRICT_MONOTONICITY,
            verdict=Verdict.FAIL,
            evidence="; ".join(
                f"dim {j} ({o}): {got}, expected {want}"
                for j, o, got, want in bad
            ),
            witness={
                "dimensions": [
                    {"dim": j, "orientation": o, "verdict": got,
                     "expected": want}
                    for j, o, got, want in bad
                ]
            },
        )
    return CriterionResult(
        criterion=Criterion.STRICT_MONOTONICITY,
        verdict=Verdict.PASS,
        evidence="all dimensions strictly monotone in the oriented direction",
    )


def collinear_table(n: int = 50, d: int = 4) -> IndicatorTable:
    """Noiseless collinear synthetic data (documented fixed generator)."""
    base = np.array([2.0, 10.0, 5.0, 100.0][:d])
    span = np.array([3.0, 40.0, 0.5, 900.0][:d])
    steps = np.arange(n) / (n - 1)
    values = base + steps[:, None] * span
    return IndicatorTable(
        item_ids=tuple(f"item-{i:02d}" for i in range(n)),
        indicator_names=tuple(f"ind{j}" for j in range(d)),
        orientations=(Orientation.POSITIVE,) * d,
        values=values,
        provenance="synthetic collinear benchmark",
    )


def check_linear_compatibility(pipeline: RankingPipeline) -> CriterionResult:
    """Run the pipeline on noiseless collinear data; the curve must be
    straight (control points within ``LINEAR_RESIDUAL_TOL`` of the endpoint
    chord, relatively) and the run's order must equal the
    first-principal-component order."""
    table = collinear_table()
    ranking, curve = _run_trial(pipeline, table, "linear-compatibility run")
    if curve is None:
        return CriterionResult(
            Criterion.LINEAR_COMPATIBILITY, Verdict.NOT_APPLICABLE, _NO_CURVE
        )
    pts = curve.control_points
    chord = pts[3] - pts[0]
    length = float(np.linalg.norm(chord))
    if length == 0.0:
        residual = float("inf")
    else:
        u = chord / length
        rel = pts[1:3] - pts[0]
        perp = rel - np.outer(rel @ u, u)
        residual = float(np.linalg.norm(perp, axis=1).max()) / length
    curve_orders = ranking.orders
    pca_orders = pca_rank(table).orders
    same_order = bool(np.array_equal(curve_orders, pca_orders))
    if residual <= LINEAR_RESIDUAL_TOL and same_order:
        return CriterionResult(
            criterion=Criterion.LINEAR_COMPATIBILITY,
            verdict=Verdict.PASS,
            evidence=(
                f"collinear recovery residual {residual:.3e} <= "
                f"{LINEAR_RESIDUAL_TOL:.0e}; "
                "order matches first-component order"
            ),
        )
    return CriterionResult(
        criterion=Criterion.LINEAR_COMPATIBILITY,
        verdict=Verdict.FAIL,
        evidence=(
            f"residual {residual:.3e} (tol {LINEAR_RESIDUAL_TOL:.0e}); "
            f"order match: {same_order}"
        ),
        witness={
            "residual": residual,
            "curve_orders": curve_orders.tolist(),
            "pca_orders": pca_orders.tolist(),
        },
    )


def check_smoothness(curve: RankingCurve) -> CriterionResult:
    """Regularity: C'(t) != 0 on [0, 1], decided exactly (a cubic is C^inf,
    so a vanishing derivative is the only way it can fail to be smooth)."""
    t, slowest, _, ratio = _speed_extremes(curve)
    if ratio > REGULARITY_TOL:
        return CriterionResult(
            criterion=Criterion.SMOOTHNESS,
            verdict=Verdict.PASS,
            evidence=(
                f"regular: min |C'| / max |C'| = {ratio:.3e} > "
                f"{REGULARITY_TOL:.0e} on [0, 1]"
            ),
        )
    return CriterionResult(
        criterion=Criterion.SMOOTHNESS,
        verdict=Verdict.FAIL,
        evidence=(
            f"C' vanishes at t = {t:.6f}: |C'| = {slowest:.3e}, "
            f"min/max ratio {ratio:.3e} <= {REGULARITY_TOL:.0e}"
        ),
        witness={"t": t, "speed": slowest, "ratio": ratio},
    )


def _run_bytes(run: PipelineRun) -> tuple:
    """Scores, orders and any curve's control points, as bytes."""
    curve = None if run.curve is None else run.curve.control_points.tobytes()
    return run.ranking.scores.tobytes(), run.ranking.orders.tobytes(), curve


def _rerun_difference(base: PipelineRun, rerun: PipelineRun) -> dict | None:
    """None when the rerun's bytes equal the base run's, else the witness:
    the orders of both runs."""
    if _run_bytes(base) == _run_bytes(rerun):
        return None
    return {
        "orders_run1": base.orders.tolist(),
        "orders_run2": rerun.orders.tolist(),
    }


def _no_free_parameters(
    pipeline: RankingPipeline, base: PipelineRun, difference: dict | None
) -> CriterionResult:
    if pipeline.declared_free_parameters:
        return CriterionResult(
            criterion=Criterion.NO_FREE_PARAMETERS,
            verdict=Verdict.FAIL,
            evidence=(
                "user-tunable parameters declared: "
                + ", ".join(pipeline.declared_free_parameters)
            ),
            witness={
                "declared_free_parameters": list(
                    pipeline.declared_free_parameters
                )
            },
        )
    notes = ["no declared user parameters"]
    if base.curve is not None:
        notes.append(
            f"{base.curve.control_points.size} fitted parameters = "
            f"4 x {base.curve.dim}"
        )
    if difference is not None:
        return CriterionResult(
            criterion=Criterion.NO_FREE_PARAMETERS,
            verdict=Verdict.FAIL,
            evidence="repeated runs are not bit-identical",
            witness=difference,
        )
    notes.append("repeated runs bit-identical")
    return CriterionResult(
        criterion=Criterion.NO_FREE_PARAMETERS,
        verdict=Verdict.PASS,
        evidence="; ".join(notes),
    )


def _reproducibility(difference: dict | None) -> CriterionResult:
    if difference is None:
        return CriterionResult(
            criterion=Criterion.REPRODUCIBILITY,
            verdict=Verdict.PASS,
            evidence="two runs produced bit-identical scores and orders",
        )
    return CriterionResult(
        criterion=Criterion.REPRODUCIBILITY,
        verdict=Verdict.FAIL,
        evidence="repeated runs differ",
        witness=difference,
    )


def check_open_data(
    pipeline: RankingPipeline, table: IndicatorTable
) -> CriterionResult:
    if table.provenance:
        return CriterionResult(
            criterion=Criterion.OPEN_DATA_DECLARED,
            verdict=Verdict.PASS,
            evidence=f"provenance declared: {table.provenance[:80]}",
        )
    return CriterionResult(
        criterion=Criterion.OPEN_DATA_DECLARED,
        verdict=Verdict.FAIL,
        evidence="no dataset provenance declared",
        witness={"provenance": None},
    )


def _criterion_error(criterion: Criterion, exc: Exception) -> CriterionResult:
    return CriterionResult(
        criterion=criterion,
        verdict=Verdict.FAIL,
        evidence=f"pipeline error: {exc}",
        witness={"error": str(exc)},
    )


def _guarded(criterion: Criterion, check, *args) -> CriterionResult:
    try:
        return check(*args)
    except PipelineFailure as exc:
        return _criterion_error(criterion, exc)


def audit(
    pipeline: RankingPipeline, table: IndicatorTable, trials: int = 4
) -> MetaCriteriaReport:
    """Run all eight criteria on one shared base run; per-criterion
    failures never abort the audit."""
    try:
        base = _run_trial(pipeline, table, "base run")
    except PipelineFailure as exc:
        results = [_criterion_error(c, exc) for c in list(Criterion)[:-1]]
        results.append(check_open_data(pipeline, table))
        return MetaCriteriaReport(pipeline=pipeline.name, results=tuple(results))

    results = [
        _guarded(c, _invariance_check, pipeline, table, base.ranking, c, trials)
        for c in _INVARIANCES
    ]
    if base.curve is None:
        results += [
            CriterionResult(c, Verdict.NOT_APPLICABLE, _NO_CURVE)
            for c in (
                Criterion.STRICT_MONOTONICITY,
                Criterion.LINEAR_COMPATIBILITY,
                Criterion.SMOOTHNESS,
            )
        ]
    else:
        results += [
            check_monotonicity(base.curve, table.orientations),
            _guarded(
                Criterion.LINEAR_COMPATIBILITY,
                check_linear_compatibility,
                pipeline,
            ),
            check_smoothness(base.curve),
        ]
    try:
        rerun = _run_trial(pipeline, table, "rerun")
    except PipelineFailure as exc:
        results += [
            _criterion_error(c, exc)
            for c in (Criterion.NO_FREE_PARAMETERS, Criterion.REPRODUCIBILITY)
        ]
    else:
        difference = _rerun_difference(base, rerun)
        results += [
            _no_free_parameters(pipeline, base, difference),
            _reproducibility(difference),
        ]
    results.append(check_open_data(pipeline, table))
    return MetaCriteriaReport(pipeline=pipeline.name, results=tuple(results))


def replay_witness(
    pipeline: RankingPipeline,
    table: IndicatorTable,
    result: CriterionResult,
) -> bool:
    """Replay a scale/translation witness; True iff the recorded order
    discrepancy reproduces exactly."""
    if result.witness is None or "vector" not in result.witness:
        return False
    vec = np.asarray(result.witness["vector"], dtype=float)
    perturbations = {kind: f for kind, _, f in _INVARIANCES.values()}
    perturb = perturbations.get(result.witness["kind"])
    if perturb is None:
        return False
    base = pipeline.run(table).ranking
    res = pipeline.run(table.with_values(perturb(table.values, vec))).ranking
    return (
        base.orders.tolist() == result.witness["base_orders"]
        and res.orders.tolist() == result.witness["perturbed_orders"]
        and not np.array_equal(base.orders, res.orders)
    )


def fleming_wallace_table() -> IndicatorTable:
    """Three items, two positively oriented indicators; rescaling one
    column flips the raw arithmetic-mean leader (classic benchmark-unit
    counterexample)."""
    return IndicatorTable(
        item_ids=("alpha", "beta", "gamma"),
        indicator_names=("ind1", "ind2"),
        orientations=(Orientation.POSITIVE, Orientation.POSITIVE),
        values=np.array([[10.0, 100.0], [50.0, 40.0], [30.0, 70.0]]),
        provenance="synthetic witness table (rescaling counterexample)",
    )


def ratio_scale_table() -> IndicatorTable:
    """Three items of strictly positive ratio-scale data; shifting flips a
    geometric-mean comparison while rescaling never does."""
    return IndicatorTable(
        item_ids=("a", "b", "c"),
        indicator_names=("ind1", "ind2"),
        orientations=(Orientation.POSITIVE, Orientation.POSITIVE),
        values=np.array([[1.0, 100.0], [12.0, 12.0], [5.0, 45.0]]),
        provenance="synthetic ratio-scale witness table",
    )
