"""Orthogonal projection of points onto a ranking curve.

For each point x the projector minimizes ||x - C(t)||^2 over t in [0, 1].
The minimizer is an endpoint or a root of the foot-point function

    g(t) = <x - C(t), C'(t)>.

Write C(t) = P0 + D(t) with D(t) = a1 t + a2 t^2 + a3 t^3 (power basis)
and y = x - P0.  Then g(t) = <y, C'(t)> - <D(t), D'(t)>: the second term
is a degree-5 polynomial that depends on the curve alone, the first is of
degree at most 2 with coefficients linear in y.  So each point's g is a
quintic with leading coefficient -3 ||a3||^2, and its roots are the
eigenvalues of a 5 x 5 companion matrix; all points' matrices go through
one batched ``np.linalg.eigvals`` call.

Degree drop: on a quadratic curve (a3 = 0) or a straight one (a2 = a3 = 0)
the leading coefficients vanish, and g is solved at its true degree, the
highest nonzero coefficient of <D, D'>: 3 for a quadratic, 1 for a line.
Power-coefficient entries within rounding of the largest one count as
zero, so a curve that is quadratic or straight up to rounding drops too.

Candidates are t = 0, t = 1 and the real part of every root, complex ones
included so that a nearly real pair is not lost, clipped to [0, 1].  Each
root candidate is polished by two Newton steps on g; a step is kept only
where it lowers |g|.  The squared distance is then evaluated at every
candidate with the de Casteljau kernel and the smallest wins, ties going
to the smaller t.  An endpoint result is ``clamped`` when g points out of
[0, 1] there.

All per-point work is elementwise (no matrix product whose kernel depends
on the batch size), and multi-worker runs reassemble per-item results in
input order, so a point's result is bit-identical whether it is projected
alone, in any batch, or with any worker count.  Memory is O(n * d).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bezier import BestEnd, RankingCurve, _casteljau, _power_coefficients
from .errors import DomainError


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


def _horner(coef: np.ndarray, t: np.ndarray):
    """g(t) and g'(t) at t (n x m) from ascending coefficients (n x k+1)."""
    g = np.zeros_like(t)
    gp = np.zeros_like(t)
    for c in coef.T[::-1]:
        gp = gp * t + g
        g = g * t + c[:, None]
    return g, gp


def _project_batch(curve: RankingCurve, pts: np.ndarray):
    n, d = pts.shape
    cp = curve.control_points
    a = _power_coefficients(cp - cp[0])  # a0 = 0
    # an exact power-of-two scale brings the largest entry into [0.5, 1), so
    # products neither underflow nor overflow; entries within rounding of it
    # are zero, so a3 (and a2) of rounding noise drop the degree rather than
    # put a leading coefficient of noise into the companion matrix
    e = np.frexp(np.abs(a).max())[1]
    a = np.ldexp(a, -e)
    a[np.abs(a) < np.finfo(float).eps] = 0.0
    da = a[1:] * np.array([[1.0], [2.0], [3.0]])  # C'(t), ascending
    dd = sum(np.convolve(a[:, j], da[:, j]) for j in range(d))  # <D, D'>
    deg = int(np.flatnonzero(dd)[-1])  # 5, or 3 / 1 after a degree drop

    y = np.ldexp(pts - cp[0], -e)
    coef = np.zeros((n, 6))
    coef[:, :3] = np.sum(y[:, None, :] * da, axis=-1)
    coef = (coef - dd)[:, :deg + 1]

    companion = np.zeros((n, deg, deg))
    companion[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
    companion[:, :, -1] = -coef[:, :deg] / coef[:, deg:]
    t = np.clip(np.linalg.eigvals(companion).real, 0.0, 1.0)

    g, gp = _horner(coef, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(2):  # Newton steps
            tn = np.clip(t - g / gp, 0.0, 1.0)
            gn, gpn = _horner(coef, tn)
            keep = np.abs(gn) < np.abs(g)  # false on nan
            t = np.where(keep, tn, t)
            g = np.where(keep, gn, g)
            gp = np.where(keep, gpn, gp)

    # sorted candidates: argmin's first hit is the smallest tied t
    cand = np.sort(np.concatenate([np.zeros((n, 1)), np.ones((n, 1)), t], 1))
    diff = pts[:, None, :] - _casteljau(cp, cand)
    d2 = np.sum(diff * diff, axis=-1)
    best = np.argmin(d2, axis=1)
    rows = np.arange(n)
    t_best = cand[rows, best]

    hodo = 3.0 * np.diff(cp, axis=0)
    g0 = np.sum((pts - cp[0]) * hodo[0], axis=-1)
    g1 = np.sum((pts - cp[3]) * hodo[2], axis=-1)
    clamped = ((t_best == 0.0) & (g0 < 0.0)) | ((t_best == 1.0) & (g1 > 0.0))
    return t_best, np.sqrt(d2[rows, best]), clamped


def project_points(curve: RankingCurve, points: np.ndarray, workers: int = 1):
    """Project many points; returns (t, distance, clamped) arrays."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != curve.dim:
        raise DomainError(
            f"points have dimension {pts.shape[1]}, curve has {curve.dim}"
        )
    if not np.all(np.isfinite(pts)):
        raise DomainError("points must be finite")
    if workers <= 1 or pts.shape[0] < 2:
        return _project_batch(curve, pts)
    chunks = np.array_split(np.arange(pts.shape[0]), workers)
    chunks = [c for c in chunks if c.size]
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        parts = list(pool.map(lambda c: _project_batch(curve, pts[c]), chunks))
    ts = np.concatenate([p[0] for p in parts])
    dist = np.concatenate([p[1] for p in parts])
    clamped = np.concatenate([p[2] for p in parts])
    return ts, dist, clamped


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


def score(result: ProjectionResult, best_end: BestEnd) -> float:
    return float(score_from_t(result.t, best_end))
