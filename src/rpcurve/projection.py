"""Orthogonal projection of points onto a ranking curve.

For each point x the projector minimizes ||x - C(t)||^2 over t in [0, 1].
The minimizer is an endpoint or a root of the foot-point function

    g(t) = <x - C(t), C'(t)> = -(1/2) d/dt ||x - C(t)||^2,

a quintic in t; a local minimum of the distance is a root where g goes
from + to -.  Write C(t) = P0 + D(t) and y = x - P0.  Then g(t) =
<y, C'(t)> - <D(t), D'(t)>: the first term is a quadratic whose three
power coefficients are linear in y, the second a quintic that depends on
the curve alone.  So on each cell of the root isolator in ``bezier`` the
Bernstein coefficients of g are a fixed combination of those three
numbers minus the curve's own coefficients, with no per-point matrix.

The candidates are t = 0, g's + to - roots (its - to + ones are maxima),
the depth-cap midpoints (near a double root of g, where the point is on
the evolute) and t = 1.  The squared distance at each comes from de
Casteljau and the smallest wins; values within rounding of the smallest
are ties, which go to the smaller t.  Both minima are per-row scatter-mins
over the candidates.  An endpoint result is ``clamped`` when g points out
of [0, 1] there.

Curve and points are first scaled by the exact power of two that brings
the largest power coefficient of D into [0.5, 1), so that curves with
coordinates near 1e+-150 neither overflow nor underflow.

Rows go through in blocks of BLOCK, which bounds the temporaries; with
several workers, whole blocks go to a thread pool.  Every operation is
elementwise per row, so a point's result is bit-identical whether it is
projected alone, in any batch, or with any worker count, and memory is
O(n * d).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .bezier import BestEnd, RankingCurve, _casteljau, _power_coefficients
from .bezier import _CELL_MATRICES, _isolate, _newton
from .errors import DomainError

BLOCK = 2048
TIE_RTOL = 2.0**-49  # eight units of rounding


@dataclass(frozen=True)
class ProjectionResult:
    """Foot of the projection: parameter, Euclidean distance, clamp flag.

    ``clamped`` is set when the minimizer sits at an endpoint only because
    the parameter range ends there (the unconstrained minimizer would lie
    outside [0, 1]).
    """

    t: float
    distance: float
    clamped: bool


@dataclass(frozen=True)
class _Kernel:
    """Everything about one curve that the projection of a block needs.
    Coefficient arrays are laid out coefficient-major, (6, ...), so that
    each coefficient of many cells is one contiguous row."""

    control_points: np.ndarray
    exponent: int  # y is scaled by 2**-exponent
    hodograph: np.ndarray  # 3 x d power coefficients of the scaled C'
    quintic: np.ndarray  # 6 power coefficients of the scaled <D, D'>
    cells: np.ndarray  # 6 x CELLS Bernstein coefficients of the same


def _kernel(curve: RankingCurve) -> _Kernel:
    cp = curve.control_points
    a = _power_coefficients(cp - cp[0])  # a0 = 0
    e = int(np.frexp(np.abs(a).max())[1])
    a = np.ldexp(a, -e)
    da = a[1:] * np.array([[1.0], [2.0], [3.0]])
    dd = sum(np.convolve(a[:, j], da[:, j]) for j in range(curve.dim))
    cells = (dd[:, None, None] * _CELL_MATRICES).sum(axis=0)
    return _Kernel(cp, e, da, dd, cells)


def _linear_part(kern: _Kernel, y: np.ndarray) -> np.ndarray:
    """(3, n) power coefficients of <y, C'(t)>, summed in a fixed order."""
    da = kern.hodograph[:, :, None]
    lin = y[:, 0] * da[:, 0]
    for j in range(1, y.shape[1]):
        lin = lin + y[:, j] * da[:, j]
    return lin


def _squared_norms(diff: np.ndarray) -> np.ndarray:
    """Row sums of squares of (m, d), in a fixed order."""
    d2 = diff[:, 0] * diff[:, 0]
    for j in range(1, diff.shape[1]):
        d2 = d2 + diff[:, j] * diff[:, j]
    return d2


def _project_block(kern: _Kernel, pts: np.ndarray):
    n = pts.shape[0]
    cp = kern.control_points
    y, y3 = pts - cp[0], pts - cp[3]
    lin = _linear_part(kern, np.ldexp(y, -kern.exponent))
    if not np.all(np.isfinite(lin)):
        raise DomainError("points lie too far from the curve for its scale")
    b = lin[0] - kern.cells[:, :, None]  # (6, CELLS, n)
    for i in (1, 2):
        b += lin[i] * _CELL_MATRICES[i][:, :, None]
    (b_rows, lo, hi, start), (m_rows, mids) = _isolate(b, n)
    coef = np.repeat(-kern.quintic[:, None], b_rows.size, axis=1)
    coef[:3] += lin[:, b_rows]
    inner_rows, inner = b_rows, _newton(coef, lo, hi, start)
    if m_rows.size:  # depth-cap midpoints, near a double root
        inner_rows, inner = np.r_[inner_rows, m_rows], np.r_[inner, mids]

    # C(0) and C(1) are P0 and P3 exactly, so the ends need no de Casteljau
    d2 = _squared_norms(
        np.concatenate([y, y3, pts[inner_rows] - _casteljau(cp, inner)]))
    d2_0, d2_1, d2_in = d2[:n], d2[n:2 * n], d2[2 * n:]
    d2_min = np.minimum(d2_0, d2_1)
    np.minimum.at(d2_min, inner_rows, d2_in)
    # de Casteljau rounds C(t) by a few eps times the largest control
    # coordinate, so a squared distance d^2 is known to about eps (d^2 +
    # 2 d s), s = sqrt(dim) max |P|.  Squared distances that close to a
    # row's smallest are ties, and a tie goes to the smallest t: feet that
    # are equally far in exact arithmetic are chosen alike, whatever their
    # last bits.  Equal t give equal d^2 bits.  A row keeps the sentinel
    # t = 2 when only t = 1 is near it.
    s = np.sqrt(cp.shape[1]) * np.abs(cp).max()
    lim = d2_min + TIE_RTOL * (d2_min + 2.0 * s * np.sqrt(d2_min))
    t_best = np.where(d2_0 <= lim, 0.0, 2.0)
    near = d2_in <= lim[inner_rows]
    np.minimum.at(t_best, inner_rows[near], inner[near])
    np.minimum(t_best, 1.0, out=t_best)
    d2_best = np.where(t_best == 0.0, d2_0, d2_1)
    hit = inner == t_best[inner_rows]
    d2_best[inner_rows[hit]] = d2_in[hit]

    hodo = 3.0 * np.diff(cp, axis=0)
    g0 = np.sum(y * hodo[0], axis=-1)
    g1 = np.sum(y3 * hodo[2], axis=-1)
    clamped = ((t_best == 0.0) & (g0 < 0.0)) | ((t_best == 1.0) & (g1 > 0.0))
    return t_best, np.sqrt(d2_best), clamped


def project_points(curve: RankingCurve, points: np.ndarray, workers: int = 1):
    """Project many points; returns (t, distance, clamped) arrays.

    ``workers`` > 1 projects blocks of BLOCK rows on that many threads; a
    batch of one block runs inline."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != curve.dim:
        raise DomainError(
            f"points have dimension {pts.shape[1]}, curve has {curve.dim}"
        )
    if not np.all(np.isfinite(pts)):
        raise DomainError("points must be finite")
    project = partial(_project_block, _kernel(curve))
    blocks = [pts[i:i + BLOCK] for i in range(0, max(len(pts), 1), BLOCK)]
    if workers <= 1 or len(blocks) == 1:
        parts = [project(b) for b in blocks]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
            parts = list(pool.map(project, blocks))
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(p) for p in zip(*parts))


def project_point(curve: RankingCurve, x: np.ndarray) -> ProjectionResult:
    """Project a single point onto the curve."""
    pts = np.asarray(x, dtype=float)[None, :]
    ts, dist, clamped = project_points(curve, pts)
    return ProjectionResult(
        t=float(ts[0]), distance=float(dist[0]), clamped=bool(clamped[0])
    )


def score_from_t(t, best_end: BestEnd):
    """Score in [0, 1]: t itself when the best end is t=1, else 1 - t."""
    tt = np.asarray(t, dtype=float)
    out = tt if best_end is BestEnd.AT_T1 else 1.0 - tt
    return float(out) if out.ndim == 0 else out
