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
are ties, which go to the smaller t.  Far from the curve the squared
distances to the two ends round alike, so t = 0 ties with t = 1 only when
their exact difference <y + (x - P3), P3 - P0> is within its own rounding;
a point far beyond the end at t = 1 goes there.  Both minima are per-row
scatter-mins over the candidates.  An endpoint result is ``clamped`` when
g points out of [0, 1] there.

Only g is scaled: D and y enter it times the power of two that brings
D's largest power coefficient into [0.5, 1), so that g neither overflows
nor underflows on curves near 1e+-150.  Squared distances, tie slack and
clamp products are unscaled (ROADMAP item 6): on a curve below about
1e-154 they underflow and every candidate ties (the curve P0 = 1.9e-240,
P1 = P2 = P3 = 0 takes the point 0 to t = 0.99899, not 1), and a point
about 1e154 or more from an end overflows them, raising DomainError.

One call can serve a stack of K curves of one dimension, with points
(K, n, d): each curve's numbers (control points, exponent, hodograph,
cells, quintic, tie slack, end vector and end tangents) broadcast along
its own rows, so that the K projections pay one call's fixed cost.  A
single curve runs the same block code without the curve axis.  Rows go
through in blocks of at most BLOCK rows in total, over all curves, which
bounds the temporaries; with several workers, whole blocks go to a thread
pool.  Every operation is elementwise per row, so a point's result is
bit-identical whether it is projected alone, in any batch or stack, or
with any worker count, and memory is O(K * n * d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .bezier import BestEnd, RankingCurve, _casteljau_rows, _power_coefficients
from .bezier import _CELL_MATRICES, _isolate, _newton
from .errors import DomainError

BLOCK = 2048
TIE_RTOL = 2.0**-49  # eight units of rounding
_POWERS = np.array([[1.0], [2.0], [3.0]])  # d/dt t**k = k t**(k - 1)


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


class _Kernel(NamedTuple):
    """Everything about one curve that the projection of a block needs.
    Coefficient arrays are laid out coefficient-major, (6, ...), so that
    each coefficient of many cells is one contiguous row.  A stack of
    curves has one kernel of the same fields (see :func:`_stacked`)."""

    control_points: np.ndarray
    exponent: np.intc  # D and y enter g scaled by 2**-exponent, nothing else
    hodograph: np.ndarray  # 3 x d power coefficients of the scaled C'
    quintic: np.ndarray  # 6 power coefficients of the scaled <D, D'>
    cells: np.ndarray  # 6 x CELLS Bernstein coefficients of the same
    slack: float  # s = sqrt(dim) max |P|, the tie slack's length scale


def _kernel(curve: RankingCurve) -> _Kernel:
    cp = curve.control_points
    a = _power_coefficients(cp - cp[0])  # a0 = 0
    e = np.frexp(np.maximum.reduce(np.abs(a), axis=None))[1]  # an intc
    a = np.ldexp(a, -e)
    da = a[1:] * _POWERS
    dd = sum(np.convolve(a[:, j], da[:, j]) for j in range(curve.dim))
    cells = np.add.reduce(dd[:, None, None] * _CELL_MATRICES)
    s = math.sqrt(curve.dim) * np.maximum.reduce(np.abs(cp), axis=None)
    return _Kernel(cp, e, da, dd, cells, s)


def _stacked(kerns) -> _Kernel:
    """The kernel of a stack of K curves, laid out to broadcast along a
    block of rows (K, m): control points (K, 4, d), exponents (K, 1, 1),
    hodographs (K, 3, d), quintics (K, 6), cells (6, CELLS, K) and slacks
    (K)."""
    cp, e, hodograph, quintic, cells, s = zip(*kerns)
    return _Kernel(np.array(cp), np.array(e)[:, None, None],
                   np.array(hodograph), np.array(quintic),
                   np.stack(cells, axis=-1), np.array(s))


def _linear_part(kern: _Kernel, y: np.ndarray) -> np.ndarray:
    """(3, ...) power coefficients of <y, C'(t)> for the rows of y (..., d):
    one curve's (n, d) or a stack's (K, m, d).  Summed in a fixed order."""
    da = kern.hodograph.swapaxes(0, -2)[..., None, :]
    lin = y[..., 0] * da[..., 0]
    for j in range(1, y.shape[-1]):
        lin = lin + y[..., j] * da[..., j]
    return lin


def _squared_norms(diff: np.ndarray) -> np.ndarray:
    """Row sums of squares of (m, d), in a fixed order."""
    d2 = diff[:, 0] * diff[:, 0]
    for j in range(1, diff.shape[1]):
        d2 = d2 + diff[:, j] * diff[:, j]
    return d2


def _project_block(kern: _Kernel, pts: np.ndarray):
    """(t, distance, clamped) of a block of rows, each shaped like the
    rows: one curve's kernel and rows (n, d), or a stack's kernel (see
    :func:`_stacked`) and rows (K, m, d), with the k-th rows on curve k."""
    lead, dim = pts.shape[:-1], pts.shape[-1]
    n, m = math.prod(lead), lead[-1]  # row r is row r % m of curve r // m
    stack = len(lead) == 2

    def by_row(per_curve: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """A stack's per-curve values (K, ...) of each of the rows, rows
        first; one curve's values as they are."""
        return per_curve.take(rows // m, axis=0) if stack else per_curve

    cp = kern.control_points
    y, y3 = pts - cp[..., :1, :], pts - cp[..., 3:, :]
    lin = _linear_part(kern, np.ldexp(y, -kern.exponent))
    if not np.isfinite(lin).all():
        raise DomainError("points lie too far from the curve for its scale")
    b = lin[0] - kern.cells[..., None]  # (6, CELLS, *lead)
    for i in (1, 2):
        b += lin[i] * _CELL_MATRICES[i][(..., None, None) if stack else
                                        (..., None)]
    if stack:  # every row on its own from here on, to be laid out (K, m)
        lin, pts = lin.reshape(3, n), pts.reshape(n, dim)
        y, y3 = y.reshape(n, dim), y3.reshape(n, dim)
    (b_rows, lo, hi, start), (m_rows, mids) = _isolate(b, n)
    # g = <y, C'> - <D, D'>: only its three lowest coefficients vary by row
    q = by_row(kern.quintic, b_rows).T  # (6,) or (6, rows)
    coef = [*(lin.take(b_rows, axis=1) - q[:3].reshape(3, -1)), *-q[3:]]
    inner_rows, inner = b_rows, _newton(coef, lo, hi, start)
    if m_rows.size:  # depth-cap midpoints, near a double root
        inner_rows = np.concatenate([inner_rows, m_rows])
        inner = np.concatenate([inner, mids])

    # C(0) and C(1) are P0 and P3 exactly, so the ends need no de Casteljau;
    # the differences are laid out (d, rows), so that _squared_norms reads
    # each coordinate as one contiguous row
    with np.errstate(over="ignore"):
        d2 = _squared_norms(np.concatenate(
            [y.T, y3.T, pts.take(inner_rows, axis=0).T
             - _casteljau_rows(by_row(cp, inner_rows), inner)], axis=1).T)
        d2_0, d2_1, d2_in = d2[:n], d2[n:2 * n], d2[2 * n:]
        d2_min = np.minimum(d2_0, d2_1)
        np.minimum.at(d2_min, inner_rows, d2_in)
        # de Casteljau rounds C(t) by a few eps times the largest control
        # coordinate, so a squared distance d^2 is known to about eps (d^2
        # + 2 d s), s = sqrt(dim) max |P|.  Squared distances that close to
        # a row's smallest are ties, and a tie goes to the smallest t: feet
        # that are equally far in exact arithmetic are chosen alike,
        # whatever their last bits.  Equal t give equal d^2 bits.  A row
        # keeps the sentinel t = 2 when only t = 1 is near it.
        s = np.repeat(kern.slack, m) if stack else kern.slack
        lim = d2_min + TIE_RTOL * (d2_min + 2.0 * s * np.sqrt(d2_min))
    if not (np.isfinite(d2).all() and np.isfinite(lim).all()):
        raise DomainError("points lie too far from the curve for its scale")
    # Far from the curve d2_0 and d2_1 round alike, so t = 0 is near only
    # where d2_0 - d2_1 = <y + y3, P3 - P0>, computed without that
    # cancellation, is not positive beyond its own rounding.  With u =
    # 2**-53, each of its dim terms is off by at most 4 u (|y| + |y3|)
    # |P3 - P0| and their sum adds (dim - 1) u of those magnitudes, so
    # (dim + 3) u bounds it; TIE_RTOL = 16 u does for dim up to 13.
    # P3 - P0 is scaled by a power of two to a largest entry in [0.5, 1),
    # so that the products do not underflow where the ends are close.
    # Each row's test is its own, so it runs on the rows with t = 0 near.
    t_best = np.full(n, 2.0)
    end0 = (d2_0 <= lim).nonzero()[0]
    if end0.size:
        rtol = max(TIE_RTOL, (dim + 3) * 2.0**-53)
        w = cp[..., 3, :] - cp[..., 0, :]
        w = np.ldexp(w, -np.frexp(np.abs(w).max(axis=-1, keepdims=True))[1])
        w = by_row(w, end0)
        y0, y30 = y.take(end0, axis=0), y3.take(end0, axis=0)
        gap = np.add.reduce((y0 + y30) * w, axis=-1)
        bound = rtol * np.add.reduce(
            (np.abs(y0) + np.abs(y30)) * np.abs(w), axis=-1)
        t_best[end0[gap <= bound]] = 0.0
    near = d2_in <= lim[inner_rows]
    np.minimum.at(t_best, inner_rows[near], inner[near])
    np.minimum(t_best, 1.0, out=t_best)
    d2_best = np.where(t_best == 0.0, d2_0, d2_1)
    hit = inner == t_best[inner_rows]
    d2_best[inner_rows[hit]] = d2_in[hit]

    # g at each end, from C'(0) = 3 (P1 - P0) and C'(1) = 3 (P3 - P2), on
    # the rows whose foot is that end: clamped where g points outwards
    clamped = np.zeros(n, dtype=bool)
    for end, ys, (k, j), out in ((0.0, y, (1, 0), -1.0),
                                 (1.0, y3, (3, 2), 1.0)):
        rows = (t_best == end).nonzero()[0]
        tangent = 3.0 * (cp[..., k, :] - cp[..., j, :])
        g = np.add.reduce(ys.take(rows, axis=0) * by_row(tangent, rows),
                          axis=-1)
        clamped[rows] = out * g > 0.0
    out = t_best, np.sqrt(d2_best), clamped
    return tuple(a.reshape(lead) for a in out) if stack else out


def project_points(curve: RankingCurve | Sequence[RankingCurve],
                   points: np.ndarray, workers: int = 1):
    """Project many points; returns (t, distance, clamped) arrays.

    ``curve`` is one curve, with points (n, d) and arrays (n), or a
    sequence of K curves of one dimension, with a stack of points
    (K, n, d) whose k-th rows go onto the k-th curve, and arrays (K, n).
    The rows go through in blocks of at most BLOCK rows in all;
    ``workers`` > 1 projects the blocks on that many threads, and a batch
    of one block runs inline.  DomainError if ``workers`` < 1."""
    if workers < 1:
        raise DomainError("workers must be >= 1")
    one = isinstance(curve, RankingCurve)
    curves = [curve] if one else list(curve)
    pts = np.asarray(points, dtype=float)
    if one:
        pts = np.atleast_2d(pts)
    elif pts.ndim != 3 or not curves or len(pts) != len(curves):
        raise DomainError(
            f"a stack of {len(curves)} curves takes points of shape "
            f"({len(curves)}, n, d), got {pts.shape}"
        )
    for c in curves:
        if pts.shape[-1] != c.dim:
            raise DomainError(
                f"points have dimension {pts.shape[-1]}, curve has {c.dim}"
            )
    if not np.isfinite(pts).all():
        raise DomainError("points must be finite")
    # blocks of at most BLOCK rows in all: one curve's rows BLOCK at a time,
    # or a group of up to BLOCK curves' rows BLOCK // group at a time
    if one:
        groups, rows = [(_kernel(curve), pts)], BLOCK
    else:
        kerns = [_kernel(c) for c in curves]
        size = min(len(kerns), BLOCK)
        groups = [(_stacked(kerns[a:a + size]), pts[a:a + size])
                  for a in range(0, len(kerns), size)]
        rows = BLOCK // size
    n = pts.shape[-2]
    if len(groups) == 1 and n <= rows:
        return _project_block(*groups[0])
    starts = range(0, max(n, 1), rows)
    blocks = [(kern, p[..., i:i + rows, :]) for kern, p in groups
              for i in starts]
    if workers == 1:
        parts = [_project_block(*block) for block in blocks]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
            parts = list(pool.map(_project_block, *zip(*blocks)))
    per = len(starts)
    return tuple(
        np.concatenate([np.concatenate([p[k] for p in parts[g:g + per]],
                                       axis=-1)
                        for g in range(0, len(parts), per)])
        for k in range(3))


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
