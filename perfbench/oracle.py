"""Reference computations made apart from rpcurve.

Nothing here imports the package under test.  Curves are plain 4 x d arrays
of cubic Bezier control points; tables are plain arrays read by the
benchmark itself.  Projection is a dense grid search whose grid-local
minima are polished by golden-section search, then compared with both
endpoints, so it shares no code or method with the program's projector.
"""

from __future__ import annotations

import csv

import numpy as np

GRID = 16385  # 2**14 + 1 samples of [0, 1]
_CHUNK = 16  # points per grid pass: 16 x 16385 x d doubles, a few MB
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_POLISH_ROUNDS = 64  # shrinks a two-cell bracket (1.2e-4) below 1e-16


def bernstein(pts, t) -> np.ndarray:
    """C(t) of the cubic with control points ``pts`` (4 x d) at each t."""
    p = np.asarray(pts, dtype=float)
    t = np.asarray(t, dtype=float)[..., None]
    s = 1.0 - t
    return (s**3 * p[0] + 3.0 * s * s * t * p[1] + 3.0 * s * t * t * p[2]
            + t**3 * p[3])


def sq_dist(pts, x, t) -> np.ndarray:
    """||x_i - C(t_i)||^2 for each row x_i and its own t_i."""
    diff = np.atleast_2d(np.asarray(x, dtype=float)) - bernstein(pts, t)
    return np.sum(diff * diff, axis=-1)


def project(pts, x, grid: int = GRID):
    """Global minimizer of ||x - C(t)||^2 over [0, 1] for each row of x.

    Returns (t, d2).  Every grid-local minimum of the squared distance is
    polished by golden-section search on its two neighbouring cells; the
    polished candidates and both endpoints compete, ties going to the
    smaller t.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    ts = np.linspace(0.0, 1.0, grid)
    curve = bernstein(pts, ts)
    best_t = np.empty(n)
    best_d2 = np.empty(n)
    for lo in range(0, n, _CHUNK):
        xc = x[lo:lo + _CHUNK]
        c = xc.shape[0]
        diff = xc[:, None, :] - curve[None, :, :]
        f = np.sum(diff * diff, axis=-1)
        dip = (f[:, 1:-1] <= f[:, :-2]) & (f[:, 1:-1] <= f[:, 2:])
        row, k = np.nonzero(dip)
        k = k + 1
        a, b = ts[k - 1], ts[k + 1]
        xs = xc[row]
        for _ in range(_POLISH_ROUNDS):
            left = b - _GOLDEN * (b - a)
            right = a + _GOLDEN * (b - a)
            keep_left = sq_dist(pts, xs, left) <= sq_dist(pts, xs, right)
            b = np.where(keep_left, right, b)
            a = np.where(keep_left, a, left)
        cand_row = np.concatenate([np.arange(c), np.arange(c), row])
        cand_t = np.concatenate([np.zeros(c), np.ones(c), 0.5 * (a + b)])
        cand_d2 = sq_dist(pts, xc[cand_row], cand_t)
        for i in range(c):
            mine = cand_row == i
            t_i, d_i = cand_t[mine], cand_d2[mine]
            j = np.lexsort((t_i, d_i))[0]
            best_t[lo + i] = t_i[j]
            best_d2[lo + i] = d_i[j]
    return best_t, best_d2


def projection_gaps(pts, x, t) -> np.ndarray:
    """How far each given t is from the best squared distance: d2(t) - min."""
    _, d2_min = project(pts, x)
    return sq_dist(pts, x, t) - d2_min


def competition_orders(scores) -> np.ndarray:
    """Order 1 for the highest score; equal scores share 1 + #{higher}."""
    s = np.asarray(scores, dtype=float)
    ascending = np.sort(s)
    return 1 + (s.size - np.searchsorted(ascending, s, side="right"))


def average_ranks(values) -> np.ndarray:
    """1-based ranks of ascending values; tied values share their mean rank."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="mergesort")
    sorted_v = v[order]
    starts = np.flatnonzero(np.r_[True, sorted_v[1:] != sorted_v[:-1]])
    sizes = np.diff(np.r_[starts, v.size])
    mean_rank = starts + (sizes + 1) / 2.0
    ranks = np.empty(v.size)
    ranks[order] = np.repeat(mean_rank, sizes)
    return ranks


def spearman(a, b) -> float:
    """Spearman's rho: Pearson correlation of the average ranks."""
    ra = average_ranks(a)
    rb = average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    return float(ra @ rb / np.sqrt((ra @ ra) * (rb @ rb)))


def monotonicity(pts) -> list[int]:
    """Per dimension: +1 strictly increasing in t, -1 strictly decreasing,
    0 neither.

    The derivative of each coordinate is a quadratic; the coordinate is
    strictly monotone exactly when that quadratic keeps one sign on [0, 1]
    and is not identically zero (its zeros are then isolated).
    """
    p = np.asarray(pts, dtype=float)
    b0, b1, b2 = 3.0 * np.diff(p, axis=0)
    c2 = b0 - 2.0 * b1 + b2
    c1 = 2.0 * (b1 - b0)
    out = []
    for j in range(p.shape[1]):
        ts = [0.0, 1.0]
        if c2[j] != 0.0 and 0.0 < -c1[j] / (2.0 * c2[j]) < 1.0:
            ts.append(-c1[j] / (2.0 * c2[j]))
        q = [c2[j] * t * t + c1[j] * t + b0[j] for t in ts]
        if b0[j] == b1[j] == b2[j] == 0.0:
            out.append(0)
        elif min(q) >= 0.0:
            out.append(1)
        elif max(q) <= 0.0:
            out.append(-1)
        else:
            out.append(0)
    return out


def read_table(path):
    """(ids, names, values) of an ``id,<indicator>...`` CSV file."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    names = rows[0][1:]
    ids = [r[0] for r in rows[1:]]
    values = np.array([[float(c) for c in r[1:]] for r in rows[1:]])
    return ids, names, values


def scale(values, mins, maxs) -> np.ndarray:
    """Map raw values onto the unit interval of a (min, max) transform."""
    return (np.asarray(values, dtype=float) - mins) / (maxs - mins)
