"""Cubic Bezier ranking curves and their geometric diagnostics.

A ranking curve is a d-dimensional cubic Bezier segment,

    C(t) = sum_i B_{i,3}(t) * P_i,   t in [0, 1],

with exactly four control points, evaluated through the recursive
de Casteljau construction.  One end of the parameter interval is tagged as
the "best" end; projection parameters are turned into scores against that
tag.  The diagnostics below (monotonicity, speed extremes) are closed-form:
the derivative of each coordinate is a quadratic in t and the squared
speed a quartic, so no sampling is needed for exact verdicts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import NormalizationTransform, denormalize_point
from .errors import DegenerateCurve, DomainError


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
    level = [p for p in points]
    while len(level) > 1:
        level = [
            (1.0 - tt) * a + tt * b for a, b in zip(level[:-1], level[1:])
        ]
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


def _critical_points(coeffs: np.ndarray) -> np.ndarray:
    """Where the power-basis polynomial ``coeffs`` can take its extremes
    over [0, 1]: t = 0, t = 1 and the real part of every root of its
    derivative, clipped to [0, 1].  No root is filtered out: an extra
    point of [0, 1] cannot overshoot the maximum or the minimum.

    Leading derivative coefficients below machine epsilon times the
    largest are dropped first: the companion matrix would divide by them,
    and the roots they add lie far outside [0, 1], so clip to an end that
    is a candidate already."""
    from numpy.polynomial import polynomial as npoly

    der = npoly.polyder(coeffs)
    mags = np.abs(der)
    kept = np.flatnonzero(mags > np.finfo(float).eps * mags.max())
    roots = npoly.polyroots(der[: kept[-1] + 1 if kept.size else 1])
    return np.concatenate(([0.0, 1.0], np.clip(roots.real, 0.0, 1.0)))


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


def speed_extremes(curve: RankingCurve) -> tuple[float, float, float]:
    """(t*, |C'(t*)|, max |C'|) over [0, 1], with t* the slowest point.

    The extremes of the quartic |C'|^2 sit at its critical points.  A zero
    of C' is also a root of every coordinate's C'_j, found there to full
    precision even where it is a multiple root of the quartic's derivative
    (a stopping point on a straight curve).  Speeds come from de Casteljau.
    """
    from numpy.polynomial import polynomial as npoly

    coeffs = _power_coefficients(curve.control_points)
    hodograph = npoly.polyder(coeffs)
    speed_sq = sum(np.convolve(col, col) for col in hodograph.T)
    ts = np.concatenate(
        [_critical_points(speed_sq)]
        + [_critical_points(col) for col in coeffs.T]
    )
    speeds = np.linalg.norm(derivative(curve, ts), axis=1)
    k = int(np.argmin(speeds))
    return float(ts[k]), float(speeds[k]), float(speeds.max())


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
