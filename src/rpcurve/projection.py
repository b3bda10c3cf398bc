"""Orthogonal projection of points onto a ranking curve.

For each point x the projector minimizes ||x - C(t)||^2 over t in [0, 1].
The minimizer is an endpoint or a root of the foot-point function

    g(t) = <x - C(t), C'(t)> = -(1/2) d/dt ||x - C(t)||^2,

a quintic in t; a local minimum of the distance is a root where g goes
from + to -.  Write C(t) = P0 + D(t) and y = x - P0.  Then g(t) =
<y, C'(t)> - <D(t), D'(t)>: the first term is a quadratic whose three
power coefficients are linear in y, the second a quintic that depends on
the curve alone.  So on each of the CELLS equal cells of [0, 1] the
Bernstein coefficients of g are a fixed combination of those three
numbers minus the curve's own coefficients, with no per-point matrix.
The matrices that take power coefficients to Bernstein ones on each cell
are built once, at import; the end coefficients of neighbouring cells are
made the same numbers, so a sign on a cell node reads alike from both
sides and a root on a node cannot slip between two cells.

Each cell is sorted by the convex-hull property of the Bernstein form
(Bezier clipping, Sederberg & Nishita 1990; Ma & Hewitt 2003):
- all six coefficients of one strict sign: g has no root there;
- coefficient differences of one strict sign: g is strictly monotone, so
  a cell whose ends go from + to - holds exactly one local minimum, and
  one going from - to + holds a maximum, which is skipped;
- anything else is split at its midpoint by de Casteljau and sorted
  again; a cell still undecided after MAX_DEPTH splits (near a double
  root of g, where the point sits on the curve's evolute) offers its
  midpoint as a candidate.

Each minimum's bracket is solved by safeguarded Newton: a step that
leaves the bracket, or does not halve the step before last, is replaced
by bisection.  Every bracket stops on its own, once its Newton step falls
below STEP_TOL (the error left is of the order of that step squared).
The candidates are t = 0, the local minima, the
depth-cap midpoints and t = 1; the squared distance is evaluated at each
with the de Casteljau kernel and the smallest wins.  Values within
rounding of the smallest are ties, and ties go to the smaller t.  An
endpoint result is ``clamped`` when g points out of [0, 1] there.

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
from math import comb

import numpy as np

from .bezier import BestEnd, RankingCurve, _casteljau, _power_coefficients
from .errors import DomainError

CELLS = 8
MAX_DEPTH = 24  # splits of a cell before its midpoint stands in: 2**-27 wide
BLOCK = 2048
NEWTON_CAP = 100  # bisection alone gets below STEP_TOL within 34 rounds
STEP_TOL = 2.0**-36
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


def _halves(b: np.ndarray):
    """de Casteljau split of Bernstein coefficients (6, m) at the cell
    midpoint."""
    left, right = [b[0]], [b[-1]]
    while len(b) > 1:
        b = 0.5 * (b[:-1] + b[1:])
        left.append(b[0])
        right.append(b[-1])
    return np.stack(left), np.stack(right[::-1])


def _brackets(lin: np.ndarray, kern: _Kernel):
    """Sort the cells of every row's g.  Returns the minima's brackets as
    (rows, lo, hi, Newton start) and the depth-cap midpoints as (rows, t)."""
    n = lin.shape[1]
    b = lin[0] - kern.cells[:, :, None]  # (6, CELLS, n)
    for i in (1, 2):
        b = b + lin[i] * _CELL_MATRICES[i][:, :, None]
    b = b.reshape(6, CELLS * n)
    rows = np.tile(np.arange(n), CELLS)
    lo = np.repeat(np.arange(CELLS) / CELLS, n)
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
        # Newton starts where the control polygon crosses zero
        i = np.count_nonzero(b[:, m] > 0.0, axis=0) - 1
        b_i, b_j = b[i, m], b[i + 1, m]
        start = lo[m] + width * (i + b_i / (b_i - b_j)) / 5.0
        found.append((rows[m], lo[m], lo[m] + width, start))
        split = live & ~mono
        rows, lo, b = rows[split], lo[split], b[:, split]
        if depth == MAX_DEPTH or not rows.size:
            break
        width *= 0.5
        left, right = _halves(b)
        b = np.concatenate([left, right], axis=1)
        rows = np.concatenate([rows, rows])
        lo = np.concatenate([lo, lo + width])
    brackets = tuple(np.concatenate(parts) for parts in zip(*found))
    return brackets, (rows, lo + 0.5 * width)


def _horner(coef: np.ndarray, t: np.ndarray):
    """g(t) and g'(t) from ascending power coefficients (6, m)."""
    g = coef[-1]
    gp = np.zeros_like(t)
    for c in coef[-2::-1]:
        gp = gp * t + g
        g = g * t + c
    return g, gp


def _newton(coef, lo, hi, t):
    """Root of each decreasing g in its bracket, g(lo) > 0 >= g(hi), by
    Newton from the start t, safeguarded by bisection; each bracket stops
    on its own once its step falls below STEP_TOL."""
    out = np.empty_like(t)
    idx = np.arange(t.size)
    dx = dx_old = hi - lo  # step sizes, the last and the one before
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(NEWTON_CAP):
            if not idx.size:
                break
            g, gp = _horner(coef, t)
            pos = g > 0.0
            lo = np.where(pos, t, lo)
            hi = np.where(pos, hi, t)
            tn = t - g / gp
            size = np.abs(tn - t)
            # nan comparisons are false, so a zero g' bisects
            newton = (tn > lo) & (tn < hi) & (size <= 0.5 * dx_old)
            # a Newton step this small leaves an error of order its square;
            # a rejected one this small is rounding noise in g, so t stays
            stay = ~newton & (size < STEP_TOL)
            half = 0.5 * (hi - lo)
            dx_old, dx = dx, np.where(newton, size, half)
            done = stay | (dx < STEP_TOL)
            t = np.where(newton, tn, np.where(stay, t, lo + half))
            if done.any():
                out[idx[done]] = t[done]
                keep = ~done
                idx, t, lo, hi = idx[keep], t[keep], lo[keep], hi[keep]
                coef, dx, dx_old = coef[:, keep], dx[keep], dx_old[keep]
    out[idx] = t
    return out


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
    (b_rows, lo, hi, start), (m_rows, mids) = _brackets(lin, kern)
    coef = np.repeat(-kern.quintic[:, None], b_rows.size, axis=1)
    coef[:3] += lin[:, b_rows]
    feet = _newton(coef, lo, hi, start)

    # C(0) and C(1) are P0 and P3 exactly, so the ends need no de Casteljau
    inner_rows = np.concatenate([b_rows, m_rows])
    inner = np.concatenate([feet, mids])
    rows = np.concatenate([np.arange(n), np.arange(n), inner_rows])
    cand = np.concatenate([np.zeros(n), np.ones(n), inner])
    d2 = np.concatenate([
        _squared_norms(y),
        _squared_norms(y3),
        _squared_norms(pts[inner_rows] - _casteljau(cp, inner)),
    ])
    order = np.lexsort((cand, rows))  # by row, then by t
    rows, cand, d2 = rows[order], cand[order], d2[order]
    d2_min = np.minimum.reduceat(d2, np.searchsorted(rows, np.arange(n)))
    # de Casteljau rounds C(t) by a few eps times the largest control
    # coordinate, so a squared distance d^2 is known to about eps (d^2 +
    # 2 d s), s = sqrt(dim) max |P|.  Squared distances that close to a
    # row's smallest are ties, and a tie goes to the smallest t: feet that
    # are equally far in exact arithmetic are chosen alike, whatever their
    # last bits.
    s = np.sqrt(cp.shape[1]) * np.abs(cp).max()
    slack = TIE_RTOL * (d2_min + 2.0 * s * np.sqrt(d2_min))
    near = np.flatnonzero(d2 <= (d2_min + slack)[rows])
    best = near[np.searchsorted(rows[near], np.arange(n))]
    t_best = cand[best]

    hodo = 3.0 * np.diff(cp, axis=0)
    g0 = np.sum(y * hodo[0], axis=-1)
    g1 = np.sum(y3 * hodo[2], axis=-1)
    clamped = ((t_best == 0.0) & (g0 < 0.0)) | ((t_best == 1.0) & (g1 > 0.0))
    return t_best, np.sqrt(d2[best]), clamped


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
