"""Fitting the ranking curve and turning projections into rankings.

The fit minimizes F(P) = sum_i min_t ||z_i - C(t; P)||^2 over the four
control points P, from a first-principal-component initialization, by a
projected Levenberg-Marquardt iteration:

  1. project every normalized item onto the current curve (global
     per-point minimization, see :mod:`rpcurve.projection`), which gives
     the feet t_i and residuals e_i = z_i - C(t_i);
  2. build the exact Jacobian of the residuals, in which each foot moves
     with P (the implicit derivative of <e_i, C'(t_i)> = 0; without its
     curvature terms it would be the tangent-distance step of Wang,
     Pottmann & Liu, ACM TOG 2006, which stalls here), and from the same
     factors the exact Hessian H of F / 2;
  3. solve (A + mu diag J^T J) delta = -J^T e, with the model A = J^T J
     (Marquardt 1963) or A = H, and project P + delta, dimension by
     dimension, onto the control points of cubics that are monotone in
     the indicator's declared orientation;
  4. reject the trial unprojected if it does not lower H's model of F
     (see below); else project the items onto the trial curve; keep it if
     F did not rise and divide mu by 3, else multiply mu by 4 and try
     again from 3.

F does not go to zero at the optimum (1.406 on the bundled table), and
on such a large-residual fit Gauss-Newton converges only linearly.  So the
model is J^T J until an accepted iteration lowers F by less than
``NEWTON_SWITCH`` (1%) relatively, and H after such an iteration (the
hybrid of Fletcher & Xu, IMA J. Numer. Anal. 1987); an iteration that
lowers F by more switches back.  Far from the optimum an indefinite H
wastes trials; near it the Newton steps converge fast.  H is F's own
second-order model, so any trial, Gauss-Newton or Newton, whose step,
after the cone projection, does not lower that model is rejected without
projecting the items; the first four Gauss-Newton trials of the bundled
fit are such uphill steps.  The bundled fit takes 15 projections, where
Gauss-Newton alone takes 34.  After ``MAX_PROJECTIONS`` such rejections
the fit models F by J^T J alone and projects every trial, so that each
counts against the cap.

The constraint keeps C'_j / 3, with Bernstein coefficients h = s_j diff(P_j),
in the cone that :func:`rpcurve.bezier.is_monotone` tests, with s_j = -1
for a negative indicator and +1 for a positive one (the meta-rule of Li,
Mei & Hu, IEEE TKDE 2015), so a converged curve cannot overshoot the data
and reverse the ranking; a column whose start line runs against its
orientation starts flat.  Where a dimension sits on a face of its cone
(h0 = 0, h2 = 0 or the curved h1^2 = h0 h2) and the gradient presses
against it, step 3 solves for moves along that face only, so that the
fit does not crawl along it by clipped steps.

The fit stops on ``"tol"`` when a step accepted at its first trial lowers
F by less than ``REL_TOL`` (1e-8) relatively, when the projected trial
equals P (stationary on the cone), or when F is at rounding level; it
stops on ``"max_iters"`` after ``MAX_PROJECTIONS`` (200) projections,
rejected trials included.  The accepted distances never increase.

The fit is a generator of the projections and normal equations it needs
(:func:`_fit_steps`), and below it every call takes a stack of curves.
One fit, of :func:`fit` or :func:`fit_and_rank`, runs in :func:`_drive`,
which answers each request as a stack of one.  :func:`_lockstep` is for
several fits: :func:`fit_many` runs them together and answers, each
round, the requests of one kind on tables of one shape with one stacked
call, which pays a call's fixed numpy cost once where the rows are few.
The audit's same-shape runs go through it, and it is the engine that fits
from several starts (ROADMAP item 3) need.

Every step is deterministic; there is no randomness anywhere, so a
repeated fit on identical input is bit-identical.  The start line runs
towards the better end in the declared orientations (see
:func:`principal_segment`), and every oriented coordinate stays
nondecreasing from P0 to P3, so the better end sits at t=1, which makes
scores equal to projection parameters.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import accumulate

import numpy as np

from .bezier import (
    BestEnd,
    Monotonicity,
    RankingCurve,
    _copositive,
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
    json_text,
    normalize,
    orientation_signs,
    write_text,
)
from .errors import (
    BadCurveFile,
    DegenerateCurve,
    DomainError,
    SchemaError,
    SpreadOverflow,
    TooFewItems,
    TransformMismatch,
)
from .projection import BLOCK, project_points, score_from_t

_EPS = float(np.finfo(float).eps)
DAMPING_START = 1e-3  # Marquardt's mu: x4 after a rejected trial, /3 after
REL_TOL = 1e-8  # relative change of the distance below which the fit stops
NEWTON_SWITCH = 0.01  # ... below which the next step models F by its Hessian
MAX_PROJECTIONS = 200  # cap on the projections of one fit, rejected ones too
# a fit whose distance is below z.size * ROUNDING**2 is at rounding level
ROUNDING = 8.0 * _EPS  # for normalized data, with coordinates in [0, 1]


@dataclass(frozen=True)
class FitConfig:
    """Deterministic fit settings (no seeds: nothing is random)."""

    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise DomainError("workers must be >= 1")


@dataclass(frozen=True)
class FitReport:
    """How a fit ended.  ``iterations`` counts the accepted iterates, one
    per recorded distance, and ``projections`` every projection, rejected
    trials included; ``stop_reason`` is ``"tol"`` when the fit was
    stationary (see :func:`fit`) and ``"max_iters"`` when the projection
    cap stopped it first; ``last_rel_change`` is the last relative change
    of the distance measured (None if the fit never compared two);
    ``active_constraints`` names the indicators that end on a face of the
    set of monotone cubics the fit keeps them in.  An indicator whose data
    run against its orientation is held flat and named there."""

    iterations: int
    distances: tuple[float, ...]
    monotonicity: tuple[Monotonicity, ...]
    converged: bool
    stop_reason: str
    last_rel_change: float | None
    projections: int
    active_constraints: tuple[str, ...]

    def to_dict(self) -> dict:
        """The fields as saved: tuples as lists, verdicts as values."""
        out = {k: list(v) if isinstance(v, tuple) else v
               for k, v in asdict(self).items()}
        out["monotonicity"] = [m.value for m in self.monotonicity]
        return out


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

    def json_items(self) -> list[dict]:
        """The rows as saved in JSON: ``tied`` appears only where true."""
        return [
            {"id": r["id"], "score": r["score"], "order": r["order"]}
            | ({"tied": True} if r["tied"] else {})
            for r in self.to_rows()
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


def principal_segment(values: np.ndarray, orientations):
    """The rows' first-principal line, run towards its better end:
    ``(proj, a, b)`` with ``proj`` the rows' coordinates on the unit axis v
    through their mean, and ``a`` and ``b`` the line's points at the
    smallest and the largest coordinate.  v is :func:`first_principal_axis`
    turned so that s . v >= 0, with s the :func:`orientation_signs`, which
    makes ``b`` the better end: its mean oriented coordinate exceeds
    ``a``'s by (max proj - min proj) / d * s . v.  On an exact tie
    (s . v = 0) v keeps its sign, largest-magnitude loading positive."""
    v = first_principal_axis(values)
    if orientation_signs(orientations) @ v < 0.0:
        v = -v
    center = values.mean(axis=0)
    proj = (values - center) @ v
    a = center + proj.min() * v
    b = center + proj.max() * v
    return proj, a, b


def init_curve(data: NormalizedTable) -> RankingCurve:
    """Cubic curve along the first principal component of the data.

    The :func:`principal_segment` from ``a`` to ``b`` is degree-elevated to
    a cubic (interior points at 1/3 and 2/3 of the chord): P0 = a and
    P3 = b, so the better end in the declared orientations is at t=1 (on
    an exact tie, the end that the axis's largest loading points to).
    """
    z = data.values
    if z.shape[0] < 4:
        raise TooFewItems(f"fit needs at least 4 items, got {z.shape[0]}")
    _, a, b = principal_segment(z, data.orientations)
    p1 = a + (b - a) / 3.0
    p2 = a + 2.0 * (b - a) / 3.0
    return RankingCurve(
        control_points=np.stack([a, p1, p2, b]),
        best_end=BestEnd.AT_T1,
        transform=data.transform,
    )


def _foot_derivatives(curves, z: np.ndarray, ts: np.ndarray):
    """Residuals e = z - C(t) and the factors of their exact Jacobian, in
    which each foot t_i moves with P,

        d e_i / d P_kj = -B_k(t_i) u_j - C'(t_i) d t_i / d P_kj,

    for a stack of K curves with rows z (K, n, d) and feet ts (K, n), as
    (e (K, n, d), B (K, n, 4), C'(t) (K, n, d), d t / d P (K, n, 4, d),
    den (K, n)); each curve's are the bits it gets in a stack of one.
    Differentiating g_i = <e_i, C'(t_i)> = 0 gives

        d t_i / d P_kj = (B'_k e_ij - B_k C'_j) / den_i,
        den_i = |C'(t_i)|^2 - <e_i, C''(t_i)>.

    An end foot stays put, and so does a foot whose denominator is not
    positive beyond rounding (on or past the evolute): d t / d P = 0."""
    pts = np.array([c.control_points for c in curves])
    # cubic Bernstein values and derivatives from the quadratic ones b =
    # ((1 - t)^2, 2 t (1 - t), t^2), rounded as de Casteljau rounds them:
    # B_k = (1 - t) b_k + t b_(k-1) and B'_k = 3 (b_(k-1) - b_k); the
    # elementwise work runs on items-last layouts, and every factor
    # returned or multiplied by BLAS is laid out items-first
    st = 1.0 - ts
    quad = np.array([st * st, 2.0 * (st * ts), ts * ts])
    zero = np.zeros((1, *ts.shape))
    lo, hi = np.concatenate([quad, zero]), np.concatenate([zero, quad])
    basis_t = st * lo + ts * hi
    dbasis_t = 3.0 * (hi - lo)
    basis = basis_t.transpose(1, 2, 0).copy()
    dbasis = dbasis_t.transpose(1, 2, 0).copy()
    e = z - basis @ pts
    c1 = dbasis @ pts
    # C'' by de Casteljau on its two control points, (d, K, 2, 1)
    h = 6.0 * (pts[:, 2:] - 2.0 * pts[:, 1:3] + pts[:, :2])
    h = h.transpose(2, 0, 1)[..., None]
    c2 = np.ascontiguousarray(
        (st * h[..., 0, :] + ts * h[..., 1, :]).transpose(1, 2, 0))
    speed2 = np.add.reduce(c1 * c1, axis=-1)
    den = speed2 - np.add.reduce(e * c2, axis=-1)
    moves = (ts > 0.0) & (ts < 1.0) & (den > _EPS * speed2)
    num = (dbasis_t[:, None] * e.transpose(2, 0, 1).copy()
           - basis_t[:, None] * c1.transpose(2, 0, 1).copy())
    dt = np.divide(num, den, out=np.zeros_like(num), where=moves)
    return e, basis, c1, dt.transpose(2, 3, 0, 1).copy(), den


def _normal_equations(curves, z: np.ndarray, ts: np.ndarray):
    """J^T J (4d x 4d), J^T e (4d) and the Hessian H (4d x 4d) of F / 2,
    each with a leading curve axis, for the Jacobians J (nd x 4d) of
    :func:`_foot_derivatives` of a stack of curves, summed over the items
    without forming J, which would take O(n d^2) memory.  With tau_i = d
    t_i / d P raveled, J_i = -(B_i kron I_d) - C'_i tau_i^T, so that

        J^T J = (B^T B) kron I_d + U^T T + T^T U + T^T diag|C'|^2 T,
        J^T e = -vec(B^T e) - T^T <C', e>,
        H     = (B^T B) kron I_d - T^T diag(den) T,

    where row i of U is B_i kron C'_i and row i of T is tau_i.  At a foot
    <C', e> = 0, so F / 2 has the gradient -vec(B^T e) (the envelope
    theorem), and H is its derivative with the feet moving; a foot that
    does not move has tau_i = 0 and adds nothing.  The products are
    stacked matrix products, one per curve."""
    e, basis, c1, dt, den = _foot_derivatives(curves, z, ts)
    size, n, d = e.shape
    tau = dt.reshape(size, n, -1)
    tau_t = tau.swapaxes(-1, -2)
    basis_t = basis.swapaxes(-1, -2)
    # (B^T B) kron I_d, entry by entry
    btb = ((basis_t @ basis)[..., :, None, :, None]
           * np.eye(d)[:, None]).reshape(size, 4 * d, 4 * d)
    cross = (basis[..., None] * c1[..., None, :]).reshape(
        size, n, -1).swapaxes(-1, -2) @ tau
    jtj = (btb + cross + cross.swapaxes(-1, -2)
           + tau_t @ (np.add.reduce(c1 * c1, axis=-1)[..., None] * tau))
    grad = (-(basis_t @ e).reshape(size, -1)
            - (tau_t @ np.add.reduce(c1 * e, axis=-1)[..., None])[..., 0])
    hess = btb - tau_t @ (den[..., None] * tau)
    return jtj, grad, hess


def _cone_projection(h0: float, h1: float, h2: float):
    """Nearest point to h of the copositive cone {h0 >= 0, h2 >= 0,
    h1 >= -sqrt(h0 h2)}, in the norm h0^2 + 2 h1^2 + h2^2 of the matrix
    M = [[h0, h1], [h1, h2]].  The cone is the union of the nonnegative
    orthant and the positive semidefinite cone, so the answer is the nearer
    of the two projections: h with its coordinates clipped at 0, and M with
    its eigenvalues clipped at 0.  A point of the cone comes back as it is.
    """
    if _copositive(h0, h1, h2):
        return h0, h1, h2
    orthant = (max(h0, 0.0), max(h1, 0.0), max(h2, 0.0))
    # the larger eigenvalue of M, from the determinant when it is the
    # smaller in magnitude; its unit eigenvector is (cos a, sin a)
    mean, radius = 0.5 * (h0 + h2), math.hypot(0.5 * (h0 - h2), h1)
    det = h0 * h2 - h1 * h1
    hi = mean + radius if mean >= 0.0 else det / (mean - radius)
    if hi <= 0.0:
        psd = (0.0, 0.0, 0.0)
    else:  # M is not semidefinite, so its smaller eigenvalue is < 0
        a = 0.5 * math.atan2(2.0 * h1, h0 - h2)
        u, v = hi * math.cos(a), math.sin(a)
        psd = (u * math.cos(a), u * v, hi * v * v)

    def gap(c):
        return (c[0] - h0) ** 2 + 2.0 * (c[1] - h1) ** 2 + (c[2] - h2) ** 2

    return min(orthant, psd, key=gap)


def _constrain(points: np.ndarray, signs: np.ndarray):
    """Control points (4 x d) whose every dimension j is monotone in
    direction signs[j] (+1 or -1), and the faces of its cone that each
    dimension then sits on, as (j, inward normal in h): h0 = 0
    (P0 = P1), h2 = 0 (P2 = P3) and, where dimension j had to move and
    lands on h1 < 0, the curved face h1^2 = h0 h2, whose normal is the
    gradient of h0 h2 - h1^2.  h = s diff(P_j) goes to its cone projection
    and the column is rebuilt as P0_j + s cumsum(h).  The rebuild rounds,
    and can leave h1^2 a few units above h0 h2; h1 is then moved towards
    0, by about 2**k units of rounding at the k-th try, until the rebuilt
    column passes."""
    out = points.copy()
    faces = []
    h = (signs * np.diff(points, axis=0)).T.tolist()
    for j, s in enumerate(signs.tolist()):
        moved = not _copositive(*h[j])
        if moved:
            h0, h1, h2 = _cone_projection(*h[j])
            p0 = float(points[0, j])
            for k in range(54):  # h1 is 0 at k = 53, and 0 always passes
                # in floats, summed in the order of np.cumsum
                col = [p0 + s * c for c in accumulate((0.0, h0, h1, h2))]
                h[j] = [s * (b - a) for a, b in zip(col, col[1:])]
                if _copositive(*h[j]):
                    break
                h1 -= h1 * 2.0 ** (k - 52)
            out[:, j] = col
        h0, h1, h2 = h[j]
        if h0 == 0.0:
            faces.append((j, (1.0, 0.0, 0.0)))
        if h2 == 0.0:
            faces.append((j, (0.0, 0.0, 1.0)))
        if moved and h1 < 0.0:
            faces.append((j, (h2, -2.0 * h1, h0)))
    return out, faces


def _free_directions(points: np.ndarray, signs: np.ndarray,
                     grad: np.ndarray, faces: list) -> np.ndarray | None:
    """Orthonormal basis (4d x m) of the control point moves that keep to
    the tangent plane of each face (see :func:`_constrain`) that the
    gradient of F / 2 (shaped like the points), taken along h, presses
    against; a face the gradient would leave is free.  Steps along a face
    are then full steps of the model, where steps clipped onto it crawl.
    None when no face is pressed: every direction is free."""
    if not faces:
        return None
    rows = []
    by_h = signs * np.cumsum(grad[:0:-1], axis=0)[::-1]  # dF/2 by h0, h1, h2
    for j, normal in faces:
        if np.array(normal) @ by_h[:, j] >= 0.0:
            row = np.zeros(points.shape)
            # n . s diff
            row[:, j] = signs[j] * np.subtract((0.0, *normal), (*normal, 0.0))
            rows.append(row.ravel())
    if not rows:
        return None
    return np.linalg.svd(np.array(rows))[2][len(rows):].T


def _answer(kind: str, curves, *arrays, workers: int = 1):
    """The answer to requests of :func:`_fit_steps` for a stack of curves,
    with a leading curve axis: ``"project"`` (curves, rows) gets the rows'
    (t, distance) from :func:`project_points`, ``"normal"`` (curves, rows,
    t) the :func:`_normal_equations` of those feet."""
    if kind == "project":
        return project_points(curves, *arrays, workers=workers)[:2]
    return _normal_equations(curves, *arrays)


def _fit_steps(data: NormalizedTable):
    """The fit of :func:`fit` as a generator of one curve's requests, which
    :func:`_answer` answers in stacks: it yields each projection and each
    set of normal equations it needs, is sent the answer, and returns
    (curve, report, t)."""
    z = data.values
    projections = 0

    def project(points: np.ndarray):
        nonlocal projections
        projections += 1
        candidate = RankingCurve(
            control_points=points,
            best_end=BestEnd.AT_T1,
            transform=data.transform,
        )
        ts, dist = yield "project", candidate, z
        return candidate, ts, float(np.sum(dist * dist))

    start = init_curve(data).control_points
    signs = orientation_signs(data.orientations)
    # flattens each column whose line runs against its orientation
    start, faces = _constrain(start, signs)
    curve, ts, total = yield from project(start)
    distances = [total]
    floor = z.size * ROUNDING**2
    damping = DAMPING_START
    stop_reason = "max_iters"
    rel = None
    newton = False
    unprojected = 0  # trials rejected by the Hessian model
    while projections < MAX_PROJECTIONS:
        if total <= floor:
            stop_reason = "tol"
            break
        jtj, grad, hess = yield "normal", curve, z, ts
        scale = np.diag(np.diag(jtj))
        pts = curve.control_points
        basis = _free_directions(pts, signs, grad.reshape(pts.shape), faces)
        rhs = -grad if basis is None else -basis.T @ grad
        accepted = stationary = False
        trials = 0
        while not accepted and projections < MAX_PROJECTIONS:
            trials += 1
            screened = unprojected < MAX_PROJECTIONS
            model = hess if newton and screened else jtj
            lhs = model + damping * scale
            if basis is not None:
                lhs = basis.T @ lhs @ basis
            # least squares: J is singular where no foot holds the curve,
            # as along a tail beyond the data
            delta = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
            if basis is not None:
                delta = basis @ delta
            trial, held = _constrain(pts + delta.reshape(pts.shape), signs)
            if (trial == pts).all():  # stationary on the cone
                stationary = True
                break
            move = (trial - pts).ravel()
            if screened and grad @ move + 0.5 * move @ hess @ move >= 0.0:
                # F's own second-order model says that the step, after the
                # cone projection, does not descend: a rejected trial,
                # known without projecting.  After MAX_PROJECTIONS of them
                # the fit models F by J^T J alone and projects every trial,
                # so that each counts against the cap
                unprojected += 1
                damping *= 4.0
                continue
            step = yield from project(trial)
            rel = (total - step[2]) / total
            accepted = step[2] <= total
            if accepted:
                curve, ts, total = step
                faces = held
                distances.append(total)
                damping /= 3.0
                newton = rel < NEWTON_SWITCH
            else:
                damping *= 4.0
        if stationary or (accepted and trials == 1 and rel < REL_TOL):
            stop_reason = "tol"
            break

    active = {j for j, _ in faces}
    verdicts = tuple(is_monotone(curve, j) for j in range(curve.dim))
    names = data.source.indicator_names
    report = FitReport(
        iterations=len(distances),
        distances=tuple(distances),
        monotonicity=verdicts,
        converged=stop_reason == "tol",
        stop_reason=stop_reason,
        last_rel_change=rel,
        projections=projections,
        active_constraints=tuple(names[j] for j in sorted(active)),
    )
    return curve, report, ts


def fit(data: NormalizedTable, config: FitConfig = FitConfig()):
    """Projected Levenberg-Marquardt fit; returns (RankingCurve, FitReport).

    Each step models F by J^T J, or by its exact Hessian after an accepted
    iteration that lowered F by less than ``NEWTON_SWITCH`` relatively;
    the damping is Marquardt's mu diag(J^T J) either way.  Any trial, Gauss-
    Newton or Newton, that the Hessian model says does not descend is
    rejected unprojected, at most ``MAX_PROJECTIONS`` times in a fit.
    ``MAX_PROJECTIONS`` caps the projections, rejected trials included.
    The recorded distances are those of the accepted iterates, so they never
    increase, and the returned curve is the last accepted one; each
    dimension then gets an exact monotonicity verdict.  The fit drives
    :func:`_fit_steps` (see :func:`_drive`).
    """
    return _drive(_fit_steps(data), config.workers)[:2]


def _drive(steps, workers: int):
    """Run one generator of a fit (see :func:`_fit_steps`) to its end,
    answering its requests one at a time, and return what it returns."""
    try:
        request = next(steps)
        while True:
            request = steps.send(_answer_one(*request, workers=workers))
    except StopIteration as done:
        return done.value


def _answer_one(kind: str, curve, *arrays, workers: int):
    """:func:`_answer` to one request, asked as a stack of one (views of
    its arrays) and answered without the curve axis."""
    answer = _answer(kind, [curve], *(a[None] for a in arrays),
                     workers=workers)
    return tuple(a[0] for a in answer)


def _answer_stack(kind: str, requests: list, workers: int) -> list:
    """The answers to requests of one kind on rows of one shape, from one
    stacked call of :func:`_answer`; should it raise, from one call per
    request (see :func:`_answer_one`), each answer then what that call
    returned or raised."""
    curves, *arrays = zip(*(request[1:] for request in requests))
    try:
        return list(zip(*_answer(kind, curves, *map(np.stack, arrays),
                                 workers=workers)))
    except Exception:  # noqa: BLE001 - answered one by one
        answers = []
        for request in requests:
            try:
                answers.append(_answer_one(*request, workers=workers))
            except Exception as exc:  # noqa: BLE001 - sent back to its fit
                answers.append(exc)
        return answers


def _lockstep(steps: list, workers: int) -> list:
    """Drive several generators of fits (see :func:`_fit_steps`) together.
    Each round answers every fit that waits: the requests of one kind on
    rows of one shape share stacked calls of :func:`_answer`, so that the
    fits pay its fixed cost once; a stack holds at most BLOCK rows in all
    (or one fit's), which bounds the normal equations' temporaries as the
    projector's blocks bound its own.  A row's foot and each curve's normal
    equations do not depend on the stack, so each fit takes the steps it
    takes alone.  Returns, per generator, what it returned or the
    exception it raised; should a stacked call raise, its requests are
    answered one by one, so that only the fit whose request raises gets
    the exception, as it would alone."""
    out: list = [None] * len(steps)
    waiting = {}

    def advance(i, resume, value):
        try:
            waiting[i] = resume(value)
        except StopIteration as done:
            out[i] = done.value
        except Exception as exc:  # noqa: BLE001 - this fit's own failure
            out[i] = exc

    for i, gen in enumerate(steps):
        advance(i, gen.send, None)
    while waiting:
        asked, waiting = waiting, {}
        groups: dict = {}
        for i, (kind, _, rows, *_) in asked.items():
            groups.setdefault((kind, rows.shape), []).append(i)
        for (kind, (n, _)), same in groups.items():
            size = max(1, BLOCK // max(n, 1))  # BLOCK rows in all, or one fit's
            for a in range(0, len(same), size):
                group = same[a:a + size]
                answers = _answer_stack(kind, [asked[i] for i in group],
                                        workers)
                for i, answer in zip(group, answers):
                    if isinstance(answer, Exception):
                        advance(i, steps[i].throw, answer)
                    else:
                        advance(i, steps[i].send, answer)
    return out


def fit_table(table: IndicatorTable, config: FitConfig = FitConfig()):
    """Normalize a raw table and fit; the usual entry point."""
    return fit(normalize(table), config)


def fit_and_rank(table: IndicatorTable, config: FitConfig = FitConfig()):
    """:func:`fit_table` and the ranking of the table's own rows, as
    (curve, report, ranking).  The ranking is ``rank(table, curve)`` bit for
    bit: the fit's last accepted projection put the same normalized rows
    (both go through :func:`apply_transform`) onto the returned curve, and
    a row's foot does not depend on its batch, so the rows are not
    projected again."""
    return _drive(_ranked_steps(table), config.workers)


def _ranked_steps(table: IndicatorTable):
    """:func:`fit_and_rank` of the table as a generator of its projections,
    as :func:`_fit_steps` makes them, ranked from the feet of the fit's
    last projection."""
    curve, report, ts = yield from _fit_steps(normalize(table))
    scores = score_from_t(ts, curve.best_end)
    return curve, report, make_ranking(table.item_ids, scores, "rpc")


def fit_many(tables, config: FitConfig = FitConfig()) -> list:
    """:func:`fit_and_rank` of each table, bit for bit, with the fits run
    in lockstep (see :func:`_lockstep`): each round makes one stacked
    projection, and one stacked set of normal equations, for the fits of
    one table shape that ask for it, where one call per fit would each pay
    the fixed cost of a call.  Returns one entry per table:
    its (curve, report, ranking), or the exception that its fit raised,
    which leaves the other fits as they are."""
    return _lockstep([_ranked_steps(table) for table in tables],
                     config.workers)


def rank(
    table: IndicatorTable | ScoringRows, curve: RankingCurve
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
    ts, _, _ = project_points(curve, z)
    scores = score_from_t(ts, curve.best_end)
    return make_ranking(table.item_ids, scores, "rpc")


def save_fit(path, curve, report, ranking) -> None:
    """Write the curve, its transform, the fit report and the ranking as
    JSON (see :func:`json_text`); :func:`load_curve` reads the curve back."""
    write_text(path, json_text({
        "curve": curve_to_dict(curve),
        "report": report.to_dict(),
        "ranking": ranking.json_items(),
        "transform": curve.transform.to_dict(),
    }))


def load_curve(path) -> RankingCurve:
    """Read the curve and its normalization transform back from a file
    that :func:`save_fit` wrote.  BadCurveFile if the file lacks or garbles
    the ``curve`` or ``transform`` entry, if its control points do not form
    a curve (not 4 x d, not finite, or P0 = P3), if its transform fails
    :class:`NormalizationTransform`'s checks, or if the transform and the
    curve differ in dimension."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        payload = json.load(fh)
    try:
        transform = NormalizationTransform.from_dict(payload["transform"])
        curve = curve_from_dict(payload["curve"], transform=transform)
    except DegenerateCurve as exc:
        raise BadCurveFile(f"{path}: bad control points: {exc}") from None
    except (SchemaError, SpreadOverflow) as exc:
        raise BadCurveFile(f"{path}: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise BadCurveFile(
            f"{path}: not a fit output (needs 'curve' and 'transform'): "
            f"{type(exc).__name__}: {exc}"
        ) from None
    if transform.dim != curve.dim:
        raise BadCurveFile(f"{path}: transform and curve dims differ")
    return curve
