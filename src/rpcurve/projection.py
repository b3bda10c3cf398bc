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

One call serves a stack of K curves of one dimension, with points
(K, n, d), so that the K projections pay one call's fixed cost; a single
curve is a stack of one, and every layer below ``project_points`` takes
stacks alone.  Each curve's numbers (control points, scale, hodograph,
cells, quintic, tie slack, end vector and end tangents) reach its own
rows: a stack of one broadcasts them along the rows, and a stack of more
gathers each row's by index.  Rows go through in blocks of at most BLOCK
rows in total, over all curves, which bounds the temporaries; with
several workers, whole blocks go to a thread pool.  Every operation is
elementwise per row, so a point's result is bit-identical whether it is
projected alone, in any batch or stack, or with any worker count, and
memory is O(K * n * d).
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
_POWERS = np.array([1.0, 2.0, 3.0])[:, None, None]  # d/dt t**k = k t**(k-1)
_ROW_CELLS = _CELL_MATRICES[..., None, None]  # to broadcast along (K, m)


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
    """Everything about a stack of K curves of one dimension that the
    projection of a block of rows (K, m) needs, laid out to broadcast
    along them: control points (K, 4, d), shifts (K, 1, 1), hodographs (3,
    K, 1, d), quintics (K, 6), cells (6, CELLS, K, 1), slacks (K) and end
    tangents (K, 2, d); hodographs and cells coefficient first, so that
    each coefficient of many rows or cells is one contiguous run."""

    control_points: np.ndarray
    shift: np.ndarray  # D and y enter g times 2**shift, nothing else
    hodograph: np.ndarray  # power coefficients of the scaled C'
    quintic: np.ndarray  # 6 power coefficients of the scaled <D, D'>
    cells: np.ndarray  # Bernstein coefficients of the same on each cell
    slack: np.ndarray  # s = sqrt(dim) max |P|, the tie slack's length scale
    tangents: np.ndarray  # C'(0) = 3 (P1 - P0) and C'(1) = 3 (P3 - P2)


def _kernel(curves: Sequence[RankingCurve]) -> _Kernel:
    cp = np.array([c.control_points for c in curves])
    dim = cp.shape[2]
    a = _power_coefficients(cp.swapaxes(0, 1) - cp[:, 0])  # (4, K, d), a0 = 0
    shift = -np.frexp(np.maximum.reduce(np.abs(a), axis=(0, 2),
                                        keepdims=True))[1]  # (1, K, 1)
    a = np.ldexp(a, shift)
    da = a[1:] * _POWERS
    # one np.convolve per curve and dimension: a sum per output coefficient
    # in any other order would round differently
    dd = np.zeros((len(cp), 6))
    for k in range(len(cp)):
        for j in range(dim):
            dd[k] += np.convolve(a[:, k, j], da[:, k, j])
    cells = np.add.reduce(dd.T[:, None, None, :, None] * _ROW_CELLS)
    s = math.sqrt(dim) * np.maximum.reduce(np.abs(cp), axis=(1, 2))
    tangents = 3.0 * (cp[:, 1::2] - cp[:, ::2])
    return _Kernel(cp, shift.swapaxes(0, 1), da[:, :, None], dd, cells, s,
                   tangents)


def _linear_part(kern: _Kernel, y: np.ndarray) -> np.ndarray:
    """(3, K, m) power coefficients of <y, C'(t)> for the rows of y
    (K, m, d).  Summed in a fixed order."""
    da = kern.hodograph
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
    """(t, distance, clamped) of a block of rows (K, m, d), the k-th rows
    on curve k of the stack's kernel, each flat (K * m), curve by curve."""
    size, m, dim = pts.shape
    n = size * m  # row r is row r % m of curve r // m

    def by_row(per_curve: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Per-curve values (K, ...) for the rows: one curve's broadcast."""
        return per_curve[0] if size == 1 else per_curve.take(rows // m, 0)

    cp = kern.control_points
    y, y3 = pts - cp[:, :1], pts - cp[:, 3:]
    lin = _linear_part(kern, np.ldexp(y, kern.shift))
    if not np.isfinite(lin).all():
        raise DomainError("points lie too far from the curve for its scale")
    b = lin[0] - kern.cells  # (6, CELLS, K, m)
    for i in (1, 2):
        b += lin[i] * _ROW_CELLS[i]
    # every row on its own from here on, curve by curve
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
        s = kern.slack[0] if size == 1 else np.repeat(kern.slack, m)
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
        w = cp[:, 3] - cp[:, 0]
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
    for end, ys, outwards in ((0.0, y, np.less), (1.0, y3, np.greater)):
        rows = (t_best == end).nonzero()[0]
        tangent = by_row(kern.tangents[:, int(end)], rows)
        g = np.add.reduce(ys.take(rows, axis=0) * tangent, axis=-1)
        clamped[rows] = outwards(g, 0.0)
    return t_best, np.sqrt(d2_best), clamped


def project_points(curve: RankingCurve | Sequence[RankingCurve],
                   points: np.ndarray, workers: int = 1):
    """Project many points; returns (t, distance, clamped) arrays.

    ``curve`` is one curve, with points (n, d) or one point (d,) and
    arrays (n) or (1), or a sequence of K curves of one dimension, with a
    stack of points (K, n, d) whose k-th rows go onto the k-th curve, and
    arrays (K, n); one curve is projected as a stack of one.  The rows go
    through in blocks of at most BLOCK rows in all; ``workers`` > 1
    projects the blocks on that many threads, and a batch of one block
    runs inline.  DomainError if ``workers`` < 1 or the points are not
    shaped so."""
    if workers < 1:
        raise DomainError("workers must be >= 1")
    pts = np.asarray(points, dtype=float)
    one = isinstance(curve, RankingCurve)
    if one and not 1 <= pts.ndim <= 2:
        raise DomainError(
            f"one curve takes points of shape (d,) or (n, d), got {pts.shape}")
    curves = [curve] if one else list(curve)
    if one:
        pts = pts[(None,) * (3 - pts.ndim)]  # a stack of one, (1, n, d)
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
    # blocks of at most BLOCK rows in all: as many whole curves as fit, or
    # one curve's rows BLOCK at a time
    n = pts.shape[1]
    per = max(1, BLOCK // max(n, 1))
    if len(curves) <= per and n <= BLOCK:
        out = _project_block(_kernel(curves), pts)
    else:
        groups = range(0, len(curves), per)
        kerns = [_kernel(curves[a:a + per]) for a in groups]
        blocks = [(kern, pts[a:a + per, i:i + BLOCK])
                  for a, kern in zip(groups, kerns)
                  for i in range(0, max(n, 1), BLOCK)]
        if workers == 1:
            parts = [_project_block(*block) for block in blocks]
        else:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(min(workers, len(blocks))) as pool:
                parts = list(pool.map(_project_block, *zip(*blocks)))
        out = tuple(np.concatenate([p[k] for p in parts]) for k in range(3))
    return out if one else tuple(a.reshape(pts.shape[:2]) for a in out)


def project_point(curve: RankingCurve, x: np.ndarray) -> ProjectionResult:
    """Project a single point (d,) onto the curve; DomainError if the point
    is not shaped so."""
    if np.ndim(x) != 1:
        raise DomainError(f"a point has shape (d,), got {np.shape(x)}")
    ts, dist, clamped = project_points(curve, x)
    return ProjectionResult(
        t=float(ts[0]), distance=float(dist[0]), clamped=bool(clamped[0])
    )


def score_from_t(t, best_end: BestEnd):
    """Score in [0, 1]: t itself when the best end is t=1, else 1 - t."""
    tt = np.asarray(t, dtype=float)
    out = tt if best_end is BestEnd.AT_T1 else 1.0 - tt
    return float(out) if out.ndim == 0 else out
