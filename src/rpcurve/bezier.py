"""Cubic Bezier ranking curves and their geometric diagnostics.

A ranking curve is a d-dimensional cubic Bezier segment,

    C(t) = sum_i B_{i,3}(t) * P_i,   t in [0, 1],

with exactly four control points, evaluated through the recursive
de Casteljau construction.  One end of the parameter interval is tagged as
the "best" end; projection parameters are turned into scores against that
tag.  The diagnostics below (monotonicity, speed extremes) are exact, with
no sampling: a coordinate's derivative is a quadratic in t.

One isolator finds the roots on [0, 1] of polynomials of degree <= 5,
here and in ``projection``.  It maps power coefficients to Bernstein ones
on CELLS equal cells, where neighbours share their end coefficient so
that a root on a node cannot slip between them, and sorts each cell by
the convex-hull property (Bezier clipping, Sederberg & Nishita 1990; Ma &
Hewitt 2003): no root where the coefficients share one strict sign;
exactly one where their differences do and the ends go from + to - (the
caller skips or negates the other way); otherwise a de Casteljau split at
the midpoint, which after MAX_DEPTH splits (a multiple root) stands in.
Each + to - root is solved by Newton, safeguarded by bisection, until
its step falls below STEP_TOL.  Every operation is elementwise, so a
root is bit-identical in any batch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import comb
from typing import Mapping

import numpy as np

from .data import NormalizationTransform, denormalize_point
from .errors import DegenerateCurve, DomainError

CELLS = 8
MAX_DEPTH = 24  # splits of a cell before its midpoint stands in: 2**-27 wide
NEWTON_CAP = 100  # bisection alone gets below STEP_TOL within 34 rounds
STEP_TOL = 2.0**-36


class BestEnd(enum.Enum):
    AT_T0 = "at_t0"
    AT_T1 = "at_t1"


class Monotonicity(enum.Enum):
    STRICTLY_INCREASING = "strictly-increasing"
    STRICTLY_DECREASING = "strictly-decreasing"
    NOT_MONOTONE = "not-monotone"


@dataclass(frozen=True)
class RankingCurve:
    """Four control points (rows of a 4 x d array) plus the best-end tag.

    The optional transform records the raw-unit scaling of the space the
    curve was fitted in, so control points can be reported in raw units and
    new tables can be normalized consistently before projection.
    """

    control_points: np.ndarray
    best_end: BestEnd = BestEnd.AT_T1
    transform: NormalizationTransform | None = None

    def __post_init__(self) -> None:
        pts = np.array(self.control_points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] != 4 or pts.shape[1] < 1:
            raise DegenerateCurve(
                f"control points must form a 4 x d array, got {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            raise DegenerateCurve("control points must all be finite")
        if np.array_equal(pts[0], pts[3]):
            raise DegenerateCurve("curve endpoints P0 and P3 coincide")
        pts.setflags(write=False)
        object.__setattr__(self, "control_points", pts)

    @property
    def dim(self) -> int:
        return self.control_points.shape[1]


def _check_t(t) -> np.ndarray:
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0.0) or np.any(tt > 1.0) or not np.all(np.isfinite(tt)):
        bad = tt if tt.ndim == 0 else tt[(tt < 0) | (tt > 1) | ~np.isfinite(tt)][0]
        raise DomainError(f"parameter t={float(bad)} outside [0, 1]")
    return tt


def _casteljau(points: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Repeated linear interpolation of ``points`` (k x d) at t (...)->(..., d)."""
    tt = t[..., None]
    st = 1.0 - tt
    level = points.reshape(points.shape[:1] + (1,) * t.ndim + points.shape[1:])
    while len(level) > 1:
        level = st * level[:-1] + tt * level[1:]
    return level[0]


def evaluate(curve: RankingCurve, t) -> np.ndarray:
    """C(t) by de Casteljau; t may be a scalar or an array in [0, 1]."""
    tt = _check_t(t)
    return _casteljau(curve.control_points, tt)


def derivative(curve: RankingCurve, t) -> np.ndarray:
    """C'(t) = 3 * sum_i B_{i,2}(t) (P_{i+1} - P_i)."""
    tt = _check_t(t)
    hodo = 3.0 * np.diff(curve.control_points, axis=0)
    return _casteljau(hodo, tt)


def second_derivative(curve: RankingCurve, t) -> np.ndarray:
    tt = _check_t(t)
    pts = curve.control_points
    hodo2 = 6.0 * (pts[2:] - 2.0 * pts[1:3] + pts[:2])
    return _casteljau(hodo2, tt)


def _power_coefficients(points: np.ndarray) -> np.ndarray:
    """Power-basis coefficients (4 x d) of the cubic through control rows."""
    q0, q1, q2, q3 = points
    return np.stack(
        [
            q0,
            3.0 * (q1 - q0),
            3.0 * (q2 - 2.0 * q1 + q0),
            q3 - 3.0 * q2 + 3.0 * q1 - q0,
        ]
    )


def _cell_matrices() -> np.ndarray:
    """(6, 6, CELLS): entry [i, r, k] is the r-th Bernstein coefficient of
    t**i on the cell [k / CELLS, (k + 1) / CELLS]."""
    deg = range(6)
    to_bernstein = np.array(
        [[comb(r, m) / comb(5, m) for m in deg] for r in deg])
    h = 1.0 / CELLS
    mats = np.stack([
        to_bernstein @ np.array(
            [[comb(i, m) * (k * h) ** (i - m) * h**m if m <= i else 0.0
              for i in deg] for m in deg])
        for k in range(CELLS)], axis=-1)  # [r, i, k]
    mats[5, :, :-1] = mats[0, :, 1:]  # both evaluate at node (k + 1) / CELLS
    return np.ascontiguousarray(mats.transpose(1, 0, 2))


_CELL_MATRICES = _cell_matrices()


def _halves(b: np.ndarray):
    """de Casteljau split of Bernstein coefficients (6, m) at the cell
    midpoint."""
    left, right = [b[0]], [b[-1]]
    while len(b) > 1:
        b = 0.5 * (b[:-1] + b[1:])
        left.append(b[0])
        right.append(b[-1])
    return np.stack(left), np.stack(right[::-1])


def _isolate(b: np.ndarray, n: int):
    """Brackets (rows, lo, hi, Newton start) of the + to - roots, and the
    depth-cap midpoints (rows, t), of n polynomials' cells (6, CELLS, n);
    rows and lo are built only for the cells found or split."""
    b = b.reshape(6, CELLS * n)
    width = 1.0 / CELLS
    found = []
    for depth in range(MAX_DEPTH + 1):
        diff = b[1:] - b[:-1]
        live = (b.min(axis=0) <= 0.0) & (b.max(axis=0) >= 0.0)
        dec = diff.max(axis=0) < 0.0
        mono = dec | (diff.min(axis=0) > 0.0)
        # a decreasing live cell with b0 = 0 has its root on its left
        # node, which the cell before it (or the candidate t = 0) counts
        m = np.flatnonzero(live & dec & (b[0] > 0.0))
        split = np.flatnonzero(live & ~mono)
        if depth:
            rows_m, lo_m, rows, lo = rows[m], lo[m], rows[split], lo[split]
        else:  # level-0 cell k is row k % n on [k // n, k // n + 1] / CELLS
            rows_m, lo_m = m % n, (m // n) / CELLS
            rows, lo = split % n, (split // n) / CELLS
        # Newton starts where the control polygon crosses zero
        i = np.count_nonzero(b[:, m] > 0.0, axis=0) - 1
        b_i, b_j = b[i, m], b[i + 1, m]
        start = lo_m + width * (i + b_i / (b_i - b_j)) / 5.0
        found.append((rows_m, lo_m, lo_m + width, start))
        b = b[:, split]
        if depth == MAX_DEPTH or not rows.size:
            break
        width *= 0.5
        left, right = _halves(b)
        b = np.concatenate([left, right], axis=1)
        rows = np.concatenate([rows, rows])
        lo = np.concatenate([lo, lo + width])
    mids = (rows, lo + 0.5 * width)
    if len(found) == 1:
        return found[0], mids
    return tuple(np.concatenate(parts) for parts in zip(*found)), mids


def _horner(coef: np.ndarray, t: np.ndarray):
    """g(t) and g'(t) from ascending power coefficients (k >= 2, m)."""
    gp = coef[-1]
    g = gp * t + coef[-2]
    for c in coef[-3::-1]:
        gp = gp * t + g
        g = g * t + c
    return g, gp


def _newton(coef, lo, hi, t):
    """Root of each decreasing g in its bracket, g(lo) > 0 >= g(hi), by
    Newton from the start t, safeguarded by bisection; each bracket stops
    on its own once its step falls below STEP_TOL, and its t stays fixed
    while the others go on."""
    if not t.size:
        return t
    fin = np.zeros(t.shape, dtype=bool)
    dx = dx_old = hi - lo  # step sizes, the last and the one before
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(NEWTON_CAP):
            g, gp = _horner(coef, t)
            pos = g > 0.0
            lo = np.where(pos, t, lo)
            hi = np.where(pos, hi, t)
            tn = t - g / gp
            size = np.abs(tn - t)
            # nan and inf steps fail these tests, so a zero g' bisects
            newton = (tn > lo) & (tn < hi) & (size <= 0.5 * dx_old)
            # a Newton step this small leaves an error of order its square;
            # a rejected one this small is rounding noise in g, so t stays
            small = size < STEP_TOL
            half = 0.5 * (hi - lo)
            dx_old, dx = dx, np.where(newton, size, half)
            stay = fin | ~newton & small
            t = np.where(stay, t, np.where(newton, tn, lo + half))
            fin |= small | (dx < STEP_TOL)
            if fin.all():
                break
    return t


def _roots(polys: np.ndarray) -> np.ndarray:
    """Every sign change on [0, 1] of power-basis rows (degree <= 5), and
    the depth-cap midpoints.  A row's negation turns its - to + roots into
    + to - ones; each row is scaled by a power of two into [0.5, 1); a zero
    row, whose every cell would split down to the depth cap, is dropped."""
    p = polys[np.any(polys != 0.0, axis=1)]
    p = np.concatenate([p, -p])
    p = np.ldexp(p, -np.frexp(np.abs(p).max(axis=1))[1][:, None]).T
    b = (p[:, None, None] * _CELL_MATRICES[:len(p), :, :, None]).sum(axis=0)
    (rows, lo, hi, start), (_, mids) = _isolate(b, p.shape[1])
    return np.concatenate([_newton(p[:, rows], lo, hi, start), mids])


def is_monotone(curve: RankingCurve, dim: int) -> Monotonicity:
    """Exact sign analysis of the coordinate derivative on [0, 1].

    C'_dim / 3 is the quadratic with Bernstein coefficients h0, h1, h2, the
    differences of consecutive control coordinates.  It is >= 0 on [0, 1]
    iff h0 >= 0, h2 >= 0 and either h1 >= 0 or h1^2 <= h0 h2 (its interior
    minimum is (h0 h2 - h1^2) / (h0 - 2 h1 + h2)).  Strictly monotone iff
    that holds for C' or -C' and C' is not identically zero: an isolated
    zero (an interior double root, a zero end slope) keeps strictness.
    Exact whenever the products are, as for coordinates k/4.
    """
    if not 0 <= dim < curve.dim:
        raise DomainError(f"dimension {dim} out of range for d={curve.dim}")
    diffs = np.diff(curve.control_points[:, dim])
    for verdict, (h0, h1, h2) in (
        (Monotonicity.STRICTLY_INCREASING, diffs),
        (Monotonicity.STRICTLY_DECREASING, -diffs),
    ):
        if (h0 >= 0.0 and h2 >= 0.0 and max(h0, h1, h2) > 0.0
                and (h1 >= 0.0 or h1 * h1 <= h0 * h2)):
            return verdict
    return Monotonicity.NOT_MONOTONE


def _speed_extremes(curve: RankingCurve) -> tuple[float, float, float, float]:
    """(t*, |C'(t*)|, max |C'|, ratio of the two) over [0, 1], t* the slowest
    point; max |C'| may overflow.  H = 3 diff(P) is scaled by powers of two
    that keep it in range; unlike C's power coefficients, it holds no offset
    shared by all four points.  Candidates: t = 0, t = 1, the roots of
    <H, H'>, and, for a stop, the roots of each H_j or, where rounding split
    that double root into a complex pair, the vertices, roots of H'_j.
    """
    pts = curve.control_points
    s = max(int(np.frexp(np.abs(pts).max())[1]) - 1021, 0)  # |P| / 2**s
    hodo = 3.0 * np.diff(np.ldexp(pts, -s), axis=0)  # < 2**1021: finite
    e = int(np.frexp(np.abs(hodo).max())[1])
    h0, h1, h2 = hodo = np.ldexp(hodo, -e)
    # power coefficients of H and H', padded to the cubic <H, H'>
    a = np.stack([h0, 2.0 * (h1 - h0), h0 - 2.0 * h1 + h2, 0.0 * h0])
    da = np.stack([a[1], 2.0 * a[2], a[3], a[3]])
    dot = sum(np.convolve(a[:3, j], da[:2, j]) for j in range(curve.dim))
    ts = np.concatenate(([0.0, 1.0], _roots(np.vstack([dot, a.T, da.T]))))
    # each candidate's C' / 2**ev before the norm, so that no coordinate
    # squares to 0; ev is carried into the speeds and their ratio
    tangents = _casteljau(hodo, ts)
    ev = np.frexp(np.abs(tangents).max(axis=1))[1]
    norms = np.linalg.norm(np.ldexp(tangents, -ev[:, None]), axis=1)
    speeds = np.ldexp(norms, ev)  # in units of 2**e
    k, j = int(np.argmin(speeds)), int(np.argmax(speeds))
    with np.errstate(over="ignore"):
        slowest, fastest = np.ldexp(norms[[k, j]], ev[[k, j]] + e + s)
    ratio = np.ldexp(norms[k] / norms[j], ev[k] - ev[j])
    return float(ts[k]), float(slowest), float(fastest), float(ratio)


def speed_extremes(curve: RankingCurve) -> tuple[float, float, float]:
    """(t*, |C'(t*)|, max |C'|) over [0, 1], with t* the slowest point."""
    return _speed_extremes(curve)[:3]


def curve_to_dict(curve: RankingCurve) -> dict:
    """JSON-ready curve payload: normalized and raw-unit control points."""
    out: dict = {
        "dim": curve.dim,
        "control_points": curve.control_points.tolist(),
        "best_end": curve.best_end.value,
    }
    if curve.transform is not None:
        out["control_points_raw"] = denormalize_point(
            curve.control_points, curve.transform
        ).tolist()
    return out


def curve_from_dict(
    d: Mapping, transform: NormalizationTransform | None = None
) -> RankingCurve:
    return RankingCurve(
        control_points=np.asarray(d["control_points"], dtype=float),
        best_end=BestEnd(d["best_end"]),
        transform=transform,
    )
