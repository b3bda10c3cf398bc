"""Fitting the ranking curve and turning projections into rankings.

The fit alternates two exact half-steps from a first-principal-component
initialization until the total squared projection distance stalls:

  1. project every normalized item onto the current curve (global
     per-point minimization, see :mod:`rpcurve.projection`);
  2. refit all four control points per dimension by least squares against
     the Bernstein design of the current parameters, with a tiny Tikhonov
     damping (1e-12) for numerical stability.

Both half-steps are deterministic; there is no randomness anywhere, so a
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
    negative_mask,
    normalize,
)
from .errors import (
    BadCurveFile,
    DegenerateParameterSpread,
    DomainError,
    TooFewItems,
    TransformMismatch,
)
from .projection import project_points, score_from_t

DAMPING = 1e-12
_MIN_T_SPREAD = 1e-12


@dataclass(frozen=True)
class FitConfig:
    """Deterministic fit settings (no seeds: nothing is random)."""

    max_iters: int = 200
    rel_tol: float = 1e-8
    workers: int = 1

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise DomainError("max_iters must be >= 1")
        if not (self.rel_tol > 0.0):
            raise DomainError("rel_tol must be positive")
        if self.workers < 1:
            raise DomainError("workers must be >= 1")


@dataclass(frozen=True)
class FitReport:
    iterations: int
    distances: tuple[float, ...]
    monotonicity: tuple[Monotonicity, ...]
    converged: bool

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "distances": list(self.distances),
            "monotonicity": [m.value for m in self.monotonicity],
            "converged": self.converged,
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

    @property
    def has_ties(self) -> bool:
        return bool(self.tied.any())

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


def init_curve(
    data: NormalizedTable, orientations=None
) -> RankingCurve:
    """Cubic curve along the first principal component of the data.

    The segment between the two extreme projections is degree-elevated to a
    cubic (interior points at 1/3 and 2/3 of the chord) and oriented so the
    better end (see :func:`best_end_first`) sits at t=1.
    """
    if orientations is None:
        orientations = data.orientations
    z = data.values
    if z.shape[0] < 4:
        raise TooFewItems(f"fit needs at least 4 items, got {z.shape[0]}")
    v = first_principal_axis(z)
    center = z.mean(axis=0)
    proj = (z - center) @ v
    a = center + proj.min() * v
    b = center + proj.max() * v
    if best_end_first(a, b, orientations):
        a, b = b, a
    p0, p3 = a, b
    p1 = p0 + (p3 - p0) / 3.0
    p2 = p0 + 2.0 * (p3 - p0) / 3.0
    return RankingCurve(
        control_points=np.stack([p0, p1, p2, p3]),
        best_end=BestEnd.AT_T1,
        transform=data.transform,
    )


def _bernstein3(ts: np.ndarray) -> np.ndarray:
    s = 1.0 - ts
    return np.stack([s**3, 3.0 * ts * s**2, 3.0 * ts**2 * s, ts**3], axis=-1)


def fit(
    data: NormalizedTable,
    orientations=None,
    config: FitConfig | None = None,
):
    """Alternating minimization; returns (RankingCurve, FitReport).

    The recorded distance sequence holds the total squared projection
    distance at each projection half-step and is non-increasing up to the
    damping slack.  After convergence the best-end convention is
    re-checked and each dimension gets an exact monotonicity verdict.
    """
    if config is None:
        config = FitConfig()
    if orientations is None:
        orientations = data.orientations
    z = data.values
    curve = init_curve(data, orientations)

    distances: list[float] = []
    converged = False
    prev = None
    for _ in range(config.max_iters):
        ts, dist, _ = project_points(curve, z, workers=config.workers)
        total = float(np.sum(dist * dist))
        distances.append(total)
        if prev is not None:
            rel = 0.0 if prev == 0.0 else (prev - total) / prev
            if rel < config.rel_tol:
                converged = True
                break
        prev = total

        if float(ts.max() - ts.min()) <= _MIN_T_SPREAD:
            raise DegenerateParameterSpread(
                "all projection parameters coincide; cannot update curve"
            )
        design = _bernstein3(ts)
        gram = design.T @ design + DAMPING * np.eye(4)
        new_pts = np.linalg.solve(gram, design.T @ z)
        curve = RankingCurve(
            control_points=new_pts,
            best_end=BestEnd.AT_T1,
            transform=data.transform,
        )

    pts = curve.control_points
    if best_end_first(pts[0], pts[3], orientations):
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
        converged=converged,
    )
    return curve, report


def fit_table(table: IndicatorTable, config: FitConfig | None = None):
    """Normalize a raw table and fit; the usual entry point."""
    return fit(normalize(table), table.orientations, config)


def rank(
    table: IndicatorTable | ScoringRows,
    curve: RankingCurve,
    workers: int = 1,
    method: str = "rpc",
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
    ts, _, _ = project_points(curve, z, workers=workers)
    scores = score_from_t(ts, curve.best_end)
    return make_ranking(table.item_ids, scores, method)


def fit_result_to_dict(
    curve: RankingCurve, report: FitReport, ranking: RankingResult
) -> dict:
    out = {
        "curve": curve_to_dict(curve),
        "report": report.to_dict(),
        "ranking": [
            {"id": r["id"], "score": r["score"], "order": r["order"]}
            | ({"tied": True} if r["tied"] else {})
            for r in ranking.to_rows()
        ],
    }
    if curve.transform is not None:
        out["transform"] = curve.transform.to_dict()
    return out


def save_fit(path, curve, report, ranking) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fit_result_to_dict(curve, report, ranking), fh, indent=2)
        fh.write("\n")


def load_curve(path) -> RankingCurve:
    """Read a curve (with its transform) back from a fit output file;
    BadCurveFile if the transform does not fit the control points."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    transform = None
    if "transform" in payload:
        transform = NormalizationTransform.from_dict(payload["transform"])
    node = payload["curve"] if "curve" in payload else payload
    curve = curve_from_dict(node, transform=transform)
    if transform is not None:
        sizes = {transform.dim, transform.mins.size, transform.maxs.size}
        if sizes != {curve.dim}:
            raise BadCurveFile(f"{path}: transform and curve dims differ")
        if not np.all(transform.maxs > transform.mins):
            raise BadCurveFile(f"{path}: transform has a max <= its min")
    return curve
