"""Classical composite-index baselines and ranking comparison.

Four baselines are provided next to the curve ranking: weighted arithmetic
mean, geometric mean, first-principal-component projection, and
entropy-weighted mean.  The arithmetic and geometric aggregators exist in
two variants:

* ``normalized`` (default): min-max normalized values with negative
  indicators flipped as 1 - value, the standard composite-index practice;
* ``raw``: aggregation of raw columns.  For the arithmetic mean this is
  the widely criticised form whose order depends on per-column units; for
  the geometric mean it is the ratio-scale form whose order is invariant
  under per-column rescaling but not under shifts.  Raw variants handle
  negative orientations by negation (arithmetic) or reciprocal
  (geometric).

Published reference scores for the bundled 2005 snapshot (an elastic-map
ranking and the curve ranking as originally reported for ten countries,
together with the reported control points) ship with the package for
side-by-side comparison.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .data import IndicatorTable, csv_text, negative_mask, normalize
from .errors import (
    BadWeights,
    DegenerateEntropy,
    LengthMismatch,
    NonPositiveAfterShift,
    RankingError,
)
from .fitting import (
    RankingResult,
    assign_orders,
    make_ranking,
    principal_segment,
)
from .resources import REFERENCE_NAME

EPSILON = 1e-9  # floor of the shifted values the geometric/entropy ranks log
# variant -> method name, one map per mean (see :func:`method_name`)
ARITHMETIC_METHODS = {"normalized": "arithmetic-norm", "raw": "arithmetic"}
GEOMETRIC_METHODS = {"normalized": "geometric", "raw": "geometric-raw"}


def method_name(methods: dict[str, str], variant: str) -> str:
    """The name of ``variant`` in one mean's map; ValueError if it has none."""
    if variant not in methods:
        raise ValueError(f"unknown variant {variant!r}")
    return methods[variant]


def _oriented_normalized(table: IndicatorTable) -> np.ndarray:
    z = normalize(table).values
    return np.where(negative_mask(table.orientations), 1.0 - z, z)


def _check_weights(weights, d: int) -> np.ndarray:
    if weights is None:
        return np.full(d, 1.0 / d)
    w = np.asarray(weights, dtype=float)
    if w.shape != (d,):
        raise BadWeights(f"expected {d} weights, got shape {w.shape}")
    if np.any(w <= 0.0) or not np.all(np.isfinite(w)):
        raise BadWeights("weights must all be positive and finite")
    if abs(float(w.sum()) - 1.0) > 1e-9:
        raise BadWeights(f"weights sum to {float(w.sum())}, expected 1")
    return w


def arithmetic_mean_rank(
    table: IndicatorTable,
    weights=None,
    variant: str = "normalized",
) -> RankingResult:
    """Weighted mean; ``raw`` variant averages raw columns directly."""
    w = _check_weights(weights, table.n_indicators)
    method = method_name(ARITHMETIC_METHODS, variant)
    if variant == "normalized":
        vals = _oriented_normalized(table)
    else:
        vals = np.where(
            negative_mask(table.orientations), -table.values, table.values
        )
    return make_ranking(table.item_ids, vals @ w, method)


def geometric_mean_rank(
    table: IndicatorTable, variant: str = "normalized"
) -> RankingResult:
    """Geometric mean of oriented values.

    ``normalized``: oriented normalized values mapped onto (0, 1] via
    v -> EPSILON + (1 - EPSILON) v before taking logs.  ``raw``: strictly
    positive raw values on a ratio scale (reciprocal for negative
    orientations); raises NonPositiveAfterShift otherwise.
    """
    method = method_name(GEOMETRIC_METHODS, variant)
    if variant == "normalized":
        vals = EPSILON + (1.0 - EPSILON) * _oriented_normalized(table)
    else:
        vals = np.array(table.values, dtype=float)
        bad = np.argwhere(vals <= 0.0)
        if bad.size:
            i, j = bad[0]
            raise NonPositiveAfterShift(
                f"raw geometric mean needs strictly positive values; item "
                f"{table.item_ids[i]!r}, indicator "
                f"{table.indicator_names[j]!r} is {vals[i, j]}"
            )
        vals = np.where(negative_mask(table.orientations), 1.0 / vals, vals)
    scores = np.exp(np.mean(np.log(vals), axis=1))
    return make_ranking(table.item_ids, scores, method)


def pca_rank(table: IndicatorTable) -> RankingResult:
    """Position on the line the curve fit starts from.

    The normalized rows' coordinates on their
    :func:`~rpcurve.fitting.principal_segment`, which runs towards its
    better end in the declared orientations, are affinely mapped to
    [0, 1], with 1 at that end (on an exact tie, the end that the axis's
    largest loading points to).
    """
    proj, _, _ = principal_segment(normalize(table).values,
                                   table.orientations)
    scores = (proj - proj.min()) / (proj.max() - proj.min())
    return make_ranking(table.item_ids, scores, "pca")


def entropy_weight_rank(table: IndicatorTable) -> RankingResult:
    """Entropy-weighted arithmetic mean of oriented normalized values.

    e_j = -(1/ln n) sum_i p_ij ln p_ij with p_ij the column shares of the
    EPSILON-shifted values; w_j = (1 - e_j) / sum_k (1 - e_k).
    """
    oriented = _oriented_normalized(table)
    shifted = EPSILON + (1.0 - EPSILON) * oriented
    n = table.n_items
    p = shifted / shifted.sum(axis=0)
    entropy = -np.sum(p * np.log(p), axis=0) / np.log(n)
    leverage = 1.0 - entropy
    total = float(leverage.sum())
    if total <= 1e-12 * table.n_indicators:
        raise DegenerateEntropy(
            "all column entropies are 1; weights are undefined"
        )
    weights = leverage / total
    return make_ranking(table.item_ids, oriented @ weights, "entropy")


@dataclass(frozen=True)
class Comparison:
    """Per-item scores/orders for several methods plus rank correlations.

    ``spearman`` (rho) and ``kendall`` (tau-b) are symmetric matrices over
    ``methods``; entries for the reference method use only items the
    reference covers, and a pair with a constant column reads NaN.  Both
    statistics are exact and equal SciPy's ``spearmanr`` and
    ``kendalltau`` to the bit.
    """

    item_ids: tuple[str, ...]
    methods: tuple[str, ...]
    scores: np.ndarray  # n x k, NaN where a reference does not cover an item
    orders: np.ndarray  # n x k, 0 where not covered
    spearman: np.ndarray
    kendall: np.ndarray

    def to_dict(self) -> dict:
        items = []
        for i, item in enumerate(self.item_ids):
            row: dict = {"id": item}
            for k, m in enumerate(self.methods):
                if np.isnan(self.scores[i, k]):
                    continue
                row[f"{m}_score"] = float(self.scores[i, k])
                row[f"{m}_order"] = int(self.orders[i, k])
            items.append(row)
        return {
            "methods": list(self.methods),
            "items": items,
            "spearman": [
                [None if np.isnan(v) else float(v) for v in row]
                for row in self.spearman
            ],
            "kendall": [
                [None if np.isnan(v) else float(v) for v in row]
                for row in self.kendall
            ],
        }

    def table_csv(self) -> str:
        """The items of :meth:`to_dict` as CSV (see :func:`csv_text`), a
        cell the record lacks left empty."""
        header = ["id"] + [f"{m}_{c}" for m in self.methods
                           for c in ("score", "order")]
        return csv_text([header] + [[row.get(h, "") for h in header]
                                    for row in self.to_dict()["items"]])

    def correlations_csv(self) -> str:
        """Both correlation matrices as CSV rows ``statistic, method,
        <one cell per method>``; a NaN entry is an empty cell."""
        return csv_text(
            [["statistic", "method", *self.methods]]
            + [
                [name, m] + ["" if np.isnan(v) else v for v in mat[k]]
                for name, mat in (("spearman", self.spearman),
                                  ("kendall", self.kendall))
                for k, m in enumerate(self.methods)
            ]
        )


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``; tied values share the mean of their ranks."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    first = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    counts = np.diff(np.r_[first, x.size])
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(first + 1 + (counts - 1) / 2, counts)
    return ranks


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rho: the Pearson correlation of average ranks, NaN when
    either input is constant.  Equal to SciPy's ``spearmanr`` to the bit,
    which takes the same path."""
    if np.all(x == x[0]) or np.all(y == y[0]):
        return np.nan
    ranks = np.column_stack((_average_ranks(x), _average_ranks(y)))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def _tie_pairs(counts: np.ndarray) -> int:
    """Pairs within groups of the given sizes, as an exact Python int."""
    return int((counts * (counts - 1) // 2).sum())


def _discordant_pairs(y: np.ndarray) -> int:
    """Inversions of the integer sequence ``y``: pairs i < j, y[i] > y[j].

    Bottom-up merge sort without an n x n array: at width w the sequence
    is made of sorted blocks of w.  Offsetting each pair of neighbouring
    blocks by its own multiple of ``span`` lets one global sort merge every
    pair at once, and one ``searchsorted`` counts, for each right-block
    element, the left-block elements above it.
    """
    n = y.size
    pos = np.arange(n)
    span = int(y.max()) + 1
    s = y.astype(np.int64)
    dis = 0
    w = 1
    while w < n:
        block = pos // (2 * w)
        keys = s + block * span
        left = pos % (2 * w) < w
        lkeys = keys[left]
        ends = np.searchsorted(lkeys, (block[~left] + 1) * span)
        below = np.searchsorted(lkeys, keys[~left], side="right")
        dis += int((ends - below).sum())
        s = np.sort(keys, kind="stable") - block * span
        w *= 2
    return dis


def _kendall_tau_b(x: np.ndarray, y: np.ndarray) -> float:
    """Kendall's tau-b by Knight's O(n log n) algorithm (JASA 1966), NaN
    when x or y is all ties.  Equal to SciPy's ``kendalltau`` to the bit: the
    same dense ranks, exact integer pair counts and float formula."""
    perm = np.argsort(y)
    x, y = x[perm], y[perm]
    y = np.r_[True, y[1:] != y[:-1]].cumsum(dtype=np.intp)
    perm = np.argsort(x, kind="stable")
    x, y = x[perm], y[perm]
    x = np.r_[True, x[1:] != x[:-1]].cumsum(dtype=np.intp)

    joint = np.r_[True, (x[1:] != x[:-1]) | (y[1:] != y[:-1]), True]
    ntie = _tie_pairs(np.diff(np.flatnonzero(joint)))
    xtie = _tie_pairs(np.bincount(x))
    ytie = _tie_pairs(np.bincount(y))
    tot = x.size * (x.size - 1) // 2
    if xtie == tot or ytie == tot:
        return np.nan
    con_minus_dis = tot - xtie - ytie + ntie - 2 * _discordant_pairs(y)
    tau = con_minus_dis / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return min(1.0, max(-1.0, float(tau)))


def compare(
    results: list[RankingResult],
    reference: dict[str, float] | None = None,
) -> Comparison:
    """Join rankings item-wise and cross-correlate them (Spearman/Kendall).

    All results must cover the identical item sequence, and no two
    columns may share a method name (RankingError).  An optional
    reference maps a subset of ids to scores; it joins as one more column
    named ``REFERENCE_NAME``, and its correlations use the covered subset
    only.  The correlations need numpy only; they are exact and equal
    SciPy's to the bit.
    """
    if not results:
        raise LengthMismatch("nothing to compare")
    ids = results[0].item_ids
    for r in results[1:]:
        if r.item_ids != ids:
            raise LengthMismatch(
                f"method {r.method!r} covers different items than "
                f"{results[0].method!r}"
            )
    methods = [r.method for r in results]
    if reference is not None:
        methods.append(REFERENCE_NAME)
    if len(set(methods)) < len(methods):
        raise RankingError(f"method names repeat: {methods}")
    n = len(ids)
    score_cols = [np.asarray(r.scores, dtype=float) for r in results]
    order_cols = [np.asarray(r.orders, dtype=int) for r in results]

    if reference is not None:
        ref_scores = np.full(n, np.nan)
        for i, item in enumerate(ids):
            if item in reference:
                ref_scores[i] = reference[item]
        if np.isfinite(ref_scores).sum() < 2:
            raise LengthMismatch(
                "reference covers fewer than 2 of the compared items"
            )
        covered = np.isfinite(ref_scores)
        ref_orders = np.zeros(n, dtype=int)
        ref_orders[covered], _ = assign_orders(ref_scores[covered])
        score_cols.append(ref_scores)
        order_cols.append(ref_orders)

    k = len(methods)
    scores = np.column_stack(score_cols)
    orders = np.column_stack(order_cols)
    spearman = np.eye(k)
    kendall = np.eye(k)
    for a in range(k):
        for b in range(a + 1, k):
            mask = np.isfinite(scores[:, a]) & np.isfinite(scores[:, b])
            if mask.sum() < 2:
                sp = kt = np.nan
            else:
                sp = _spearman(scores[mask, a], scores[mask, b])
                kt = _kendall_tau_b(scores[mask, a], scores[mask, b])
            spearman[a, b] = spearman[b, a] = sp
            kendall[a, b] = kendall[b, a] = kt
    return Comparison(
        item_ids=ids,
        methods=tuple(methods),
        scores=scores,
        orders=orders,
        spearman=spearman,
        kendall=kendall,
    )


def _reference_payload() -> dict:
    ref = resources.files("rpcurve.resources").joinpath("reference_2005.json")
    with ref.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def elmap_reference_scores() -> dict[str, float]:
    """Published elastic-map scores for ten countries of the 2005 snapshot."""
    payload = _reference_payload()
    return {k: v["elmap"]["score"] for k, v in payload["countries"].items()}


def published_curve_scores() -> dict[str, float]:
    """Originally reported curve scores for the same ten countries."""
    payload = _reference_payload()
    return {k: v["rpc"]["score"] for k, v in payload["countries"].items()}


def published_curve_orders() -> dict[str, int]:
    payload = _reference_payload()
    return {k: v["rpc"]["order"] for k, v in payload["countries"].items()}


def published_control_points() -> np.ndarray:
    """Raw-unit control points as originally reported (4 x 4)."""
    payload = _reference_payload()
    return np.asarray(payload["control_points_raw"], dtype=float)
