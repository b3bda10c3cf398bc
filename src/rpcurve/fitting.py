"""Fitting the ranking curve and turning projections into rankings.

The fit starts from a first-principal-component initialization and
iterates the fixed-point map P -> update(project(P)) of the Hastie &
Stuetzle alternation:

  1. project every normalized item onto the current curve (global
     per-point minimization, see :mod:`rpcurve.projection`);
  2. refit all four control points per dimension by least squares against
     the Bernstein design of the current parameters, with a tiny Tikhonov
     damping (1e-12) for numerical stability.

The plain alternation converges only linearly, so each step is
accelerated by type-II Anderson mixing (Walker & Ni, SIAM J. Numer. Anal.
2011) over the last ``ANDERSON_WINDOW + 1`` (iterate, update) pairs.  The
mixed control points are projected; when their total squared distance
exceeds the last accepted one, the history is cleared and the plain
update is projected instead.  A plain update that fails to lower the
distance ends the fit, so the accepted distances never increase.  The fit
stops when the relative change of the distance falls below
``REL_TOL`` (1e-8) or after ``MAX_PROJECTIONS`` (200) projections,
rejected ones included, whichever comes first.

Every step is deterministic; there is no randomness anywhere, so a
repeated fit on identical input is bit-identical.  The curve is oriented so
that the "best" end (larger mean oriented coordinate) sits at t=1, which
makes scores equal to projection parameters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .bezier import (
    BestEnd,
    Monotonicity,
    RankingCurve,
    _casteljau,
    curve_from_dict,
    curve_to_dict,
    is_monotone,
)
from .data import (
    IndicatorTable,
    NormalizationTransform,
    NormalizedTable,
    ScoringRows,
    apply_transform,
    json_text,
    negative_mask,
    normalize,
    write_text,
)
from .errors import (
    BadCurveFile,
    DegenerateCurve,
    DegenerateParameterSpread,
    DomainError,
    SpreadOverflow,
    TooFewItems,
    TransformMismatch,
)
from .projection import project_points, score_from_t

DAMPING = 1e-12
_MIN_T_SPREAD = 1e-12
ANDERSON_WINDOW = 3  # Walker & Ni's m: differences of the last m + 1 pairs
REL_TOL = 1e-8  # relative change of the distance below which the fit stops
MAX_PROJECTIONS = 200  # cap on the projections of one fit, rejected ones too


@dataclass(frozen=True)
class FitConfig:
    """Deterministic fit settings (no seeds: nothing is random)."""

    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise DomainError("workers must be >= 1")


@dataclass(frozen=True)
class FitReport:
    """How a fit ended.  ``iterations`` counts the accepted iterates, one
    per recorded distance; ``stop_reason`` is ``"tol"`` when the relative
    change of the distance fell below ``REL_TOL`` and ``"max_iters"`` when
    the projection cap stopped the fit first; ``last_rel_change`` is the
    last relative change measured (None if the fit never compared two)."""

    iterations: int
    distances: tuple[float, ...]
    monotonicity: tuple[Monotonicity, ...]
    converged: bool
    stop_reason: str
    last_rel_change: float | None

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "distances": list(self.distances),
            "monotonicity": [m.value for m in self.monotonicity],
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "last_rel_change": self.last_rel_change,
        }


@dataclass(frozen=True)
class RankingResult:
    """Scores plus integer orders (1 = best, descending score).

    Ties share the smaller order (competition style) and are flagged.
    """

    item_ids: tuple[str, ...]
    scores: np.ndarray
    orders: np.ndarray
    method: str
    tied: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.scores, dtype=float)
        o = np.asarray(self.orders, dtype=int)
        t = np.asarray(self.tied, dtype=bool)
        for arr in (s, o, t):
            arr.setflags(write=False)
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "orders", o)
        object.__setattr__(self, "tied", t)

    def order_by_id(self) -> dict[str, int]:
        return {i: int(o) for i, o in zip(self.item_ids, self.orders)}

    def score_by_id(self) -> dict[str, float]:
        return {i: float(s) for i, s in zip(self.item_ids, self.scores)}

    def to_rows(self) -> list[dict]:
        return [
            {
                "id": i,
                "score": float(s),
                "order": int(o),
                "tied": bool(tie),
            }
            for i, s, o, tie in zip(
                self.item_ids, self.scores, self.orders, self.tied
            )
        ]

    def json_items(self) -> list[dict]:
        """The rows as saved in JSON: ``tied`` appears only where true."""
        return [
            {"id": r["id"], "score": r["score"], "order": r["order"]}
            | ({"tied": True} if r["tied"] else {})
            for r in self.to_rows()
        ]


def assign_orders(scores: np.ndarray):
    """Competition ranking of descending scores: order = 1 + #{better}."""
    s = np.asarray(scores, dtype=float)
    uniq, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    cum = np.cumsum(counts)
    orders = 1 + (s.size - cum[inverse])
    tied = counts[inverse] > 1
    return orders.astype(int), tied


def make_ranking(item_ids, scores, method: str) -> RankingResult:
    orders, tied = assign_orders(scores)
    return RankingResult(
        item_ids=tuple(item_ids),
        scores=np.asarray(scores, dtype=float),
        orders=orders,
        method=method,
        tied=tied,
    )


def oriented_mean(point: np.ndarray, orientations) -> float:
    """Mean coordinate after flipping negative dimensions (1 - value)."""
    p = np.asarray(point, dtype=float)
    return float(np.mean(np.where(negative_mask(orientations), 1.0 - p, p)))


def best_end_first(start: np.ndarray, end: np.ndarray, orientations) -> bool:
    """True when ``start`` is the better end and the pair must be reversed
    to put the best end last: the end with the larger mean oriented
    coordinate is better; on an exact tie the larger first coordinate is."""
    ms = oriented_mean(start, orientations)
    me = oriented_mean(end, orientations)
    return ms > me or (ms == me and start[0] > end[0])


def first_principal_axis(values: np.ndarray) -> np.ndarray:
    """Leading right singular vector of the centered data, sign-fixed so
    that its largest-magnitude loading is positive (first index wins ties).
    """
    y = values - values.mean(axis=0)
    _, _, vt = np.linalg.svd(y, full_matrices=False)
    v = vt[0]
    j = int(np.argmax(np.abs(v)))
    if v[j] < 0.0:
        v = -v
    return v


def init_curve(data: NormalizedTable) -> RankingCurve:
    """Cubic curve along the first principal component of the data.

    The segment between the two extreme projections is degree-elevated to a
    cubic (interior points at 1/3 and 2/3 of the chord) and oriented so the
    better end (see :func:`best_end_first`) sits at t=1.
    """
    z = data.values
    if z.shape[0] < 4:
        raise TooFewItems(f"fit needs at least 4 items, got {z.shape[0]}")
    v = first_principal_axis(z)
    center = z.mean(axis=0)
    proj = (z - center) @ v
    a = center + proj.min() * v
    b = center + proj.max() * v
    if best_end_first(a, b, data.orientations):
        a, b = b, a
    p0, p3 = a, b
    p1 = p0 + (p3 - p0) / 3.0
    p2 = p0 + 2.0 * (p3 - p0) / 3.0
    return RankingCurve(
        control_points=np.stack([p0, p1, p2, p3]),
        best_end=BestEnd.AT_T1,
        transform=data.transform,
    )


def _least_squares_update(ts: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Control points (4 x d) that best fit ``z`` at fixed parameters."""
    design = _casteljau(np.eye(4), ts)
    gram = design.T @ design + DAMPING * np.eye(4)
    return np.linalg.solve(gram, design.T @ z)


def _anderson_point(iterates: list, updates: list) -> np.ndarray:
    """Type-II Anderson mixing of the last update with the window's
    differences (Walker & Ni 2011): weights from one least-squares fit of
    the newest residual by the residual differences."""
    x = np.array(iterates)
    g = np.array(updates)
    residuals = g - x
    gamma = np.linalg.lstsq(
        np.diff(residuals, axis=0).T, residuals[-1], rcond=None
    )[0]
    return g[-1] - np.diff(g, axis=0).T @ gamma


def fit(data: NormalizedTable, config: FitConfig | None = None):
    """Accelerated, safeguarded alternation; returns (RankingCurve, FitReport).

    ``MAX_PROJECTIONS`` caps the projections, rejected ones included.
    The recorded distances are those of the accepted iterates, so they never
    increase, and the returned curve is the last accepted one.  After the
    loop the best-end convention is re-checked and each dimension gets an
    exact monotonicity verdict.
    """
    if config is None:
        config = FitConfig()
    z = data.values
    projections = 0

    def project(points: np.ndarray):
        nonlocal projections
        projections += 1
        candidate = RankingCurve(
            control_points=points,
            best_end=BestEnd.AT_T1,
            transform=data.transform,
        )
        ts, dist, _ = project_points(candidate, z, workers=config.workers)
        return candidate, ts, float(np.sum(dist * dist))

    curve, ts, total = project(init_curve(data).control_points)
    distances = [total]
    iterates: list[np.ndarray] = []
    updates: list[np.ndarray] = []
    keep = ANDERSON_WINDOW + 1
    stop_reason = "max_iters"
    rel = None
    while projections < MAX_PROJECTIONS:
        if float(ts.max() - ts.min()) <= _MIN_T_SPREAD:
            raise DegenerateParameterSpread(
                "all projection parameters coincide; cannot update curve"
            )
        update = _least_squares_update(ts, z)
        iterates = (iterates + [curve.control_points.ravel()])[-keep:]
        updates = (updates + [update.ravel()])[-keep:]
        step = None
        if len(iterates) > 1:
            mixed = _anderson_point(iterates, updates).reshape(update.shape)
            step = project(mixed)
            if step[2] > total:  # safeguard: restart from the plain update
                step, iterates, updates = None, [], []
        if step is None:
            if projections >= MAX_PROJECTIONS:
                break
            step = project(update)
        step_total = step[2]
        rel = 0.0 if total == 0.0 else (total - step_total) / total
        if step_total <= total:
            curve, ts, total = step
            distances.append(total)
        if rel < REL_TOL:
            stop_reason = "tol"
            break

    pts = curve.control_points
    if best_end_first(pts[0], pts[3], data.orientations):
        curve = RankingCurve(
            control_points=pts[::-1].copy(),
            best_end=BestEnd.AT_T1,
            transform=data.transform,
        )

    verdicts = tuple(is_monotone(curve, j) for j in range(curve.dim))
    report = FitReport(
        iterations=len(distances),
        distances=tuple(distances),
        monotonicity=verdicts,
        converged=stop_reason == "tol",
        stop_reason=stop_reason,
        last_rel_change=rel,
    )
    return curve, report


def fit_table(table: IndicatorTable, config: FitConfig | None = None):
    """Normalize a raw table and fit; the usual entry point."""
    return fit(normalize(table), config)


def rank(
    table: IndicatorTable | ScoringRows, curve: RankingCurve
) -> RankingResult:
    """Score rows against a fitted curve using its stored transform; a
    row's score depends on that row alone, to the bit."""
    if curve.transform is None:
        raise TransformMismatch("curve carries no normalization transform")
    if curve.transform.indicator_names != table.indicator_names:
        raise TransformMismatch(
            f"curve was fitted on indicators "
            f"{curve.transform.indicator_names}, table has "
            f"{table.indicator_names}"
        )
    z = apply_transform(table.values, curve.transform)
    ts, _, _ = project_points(curve, z)
    scores = score_from_t(ts, curve.best_end)
    return make_ranking(table.item_ids, scores, "rpc")


def fit_result_to_dict(
    curve: RankingCurve, report: FitReport, ranking: RankingResult
) -> dict:
    return {
        "curve": curve_to_dict(curve),
        "report": report.to_dict(),
        "ranking": ranking.json_items(),
        "transform": curve.transform.to_dict(),
    }


def save_fit(path, curve, report, ranking) -> None:
    """Write the curve, its transform, the fit report and the ranking as
    JSON (see :func:`json_text`); :func:`load_curve` reads the curve back."""
    write_text(path, json_text(fit_result_to_dict(curve, report, ranking)))


def load_curve(path) -> RankingCurve:
    """Read the curve and its normalization transform back from a file
    that :func:`save_fit` wrote.  BadCurveFile if the file lacks or garbles
    the ``curve`` or ``transform`` entry, if its control points do not form
    a curve (not 4 x d, not finite, or P0 = P3), or if the transform does
    not fit the control points or has a spread too wide to scale."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        transform = NormalizationTransform.from_dict(payload["transform"])
        curve = curve_from_dict(payload["curve"], transform=transform)
    except DegenerateCurve as exc:
        raise BadCurveFile(f"{path}: bad control points: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise BadCurveFile(
            f"{path}: not a fit output (needs 'curve' and 'transform'): "
            f"{type(exc).__name__}: {exc}"
        ) from None
    sizes = {transform.dim, transform.mins.size, transform.maxs.size}
    if sizes != {curve.dim}:
        raise BadCurveFile(f"{path}: transform and curve dims differ")
    if not np.all(transform.maxs > transform.mins):
        raise BadCurveFile(f"{path}: transform has a max <= its min")
    try:
        transform.check_spread()
    except SpreadOverflow as exc:
        raise BadCurveFile(f"{path}: {exc}") from None
    return curve
