"""Orthogonal projection onto the curve, checked against brute force."""

import dataclasses
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rpcurve import projection
from rpcurve.baselines import published_control_points
from rpcurve.bezier import (
    _CELL_MATRICES,
    CELLS,
    BestEnd,
    RankingCurve,
    _casteljau,
    _isolate,
    _newton,
    derivative,
    evaluate,
    second_derivative,
)
from rpcurve.data import (
    apply_transform,
    load_bundled_table,
    negative_mask,
    normalize,
)
from rpcurve.errors import DomainError
from rpcurve.fitting import rank
from rpcurve.projection import (
    BLOCK,
    TIE_RTOL,
    _kernel,
    _linear_part,
    _project_block,
    _squared_norms,
    project_point,
    project_points,
    score_from_t,
)


def curve(P, best_end=BestEnd.AT_T1):
    return RankingCurve(
        control_points=np.asarray(P, dtype=float), best_end=best_end
    )


def dense_min(c, x, m=200001):
    ts = np.linspace(0.0, 1.0, m)
    d2 = ((evaluate(c, ts) - x) ** 2).sum(axis=1)
    k = int(np.argmin(d2))
    return ts[k], d2[k]


class TestProjectPoint:
    def test_point_on_curve_projects_to_itself(self):
        c = curve([[0, 0], [0.3, 0.8], [0.7, 0.2], [1, 1]])
        for t0 in (0.0, 0.31, 0.5, 0.77, 1.0):
            x = evaluate(c, t0)
            r = project_point(c, x)
            assert r.distance < 1e-9
            assert abs(r.t - t0) < 1e-6

    def test_matches_dense_grid(self):
        rng = np.random.default_rng(20240518)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            c = curve(rng.normal(size=(4, d)))
            x = rng.normal(size=d) * 2
            r = project_point(c, x)
            tg, dg = dense_min(c, x)
            # never worse than the best grid point
            assert r.distance**2 <= dg + 1e-12
            p = evaluate(c, r.t)
            assert abs(((p - x) ** 2).sum() - r.distance**2) < 1e-9

    def test_endpoint_clamping(self):
        c = curve([[0, 0], [1.0 / 3, 0], [2.0 / 3, 0], [1, 0]])
        far = np.array([2.0, 0.0])
        r = project_point(c, far)
        assert r.t == 1.0
        assert r.clamped
        near = np.array([0.5, 0.3])
        r2 = project_point(c, near)
        assert not r2.clamped
        assert abs(r2.t - 0.5) < 1e-9

    def test_tie_prefers_smaller_t(self):
        # symmetric arch: center point is equidistant from both lobes
        c = curve([[0, 0], [1.0 / 3, 1], [2.0 / 3, 1], [1, 0]])
        x = np.array([0.5, 0.0])
        r = project_point(c, x)
        assert r.t <= 0.5 + 1e-12

    def test_validation(self):
        c = curve([[0, 0], [0.3, 0.8], [0.7, 0.2], [1, 1]])
        with pytest.raises(DomainError):
            project_point(c, np.array([0.5, 0.5, 0.5]))
        with pytest.raises(DomainError):
            project_points(c, np.array([[np.inf, 0.0]]))
        for workers in (0, -3):
            with pytest.raises(DomainError, match="workers must be >= 1"):
                project_points(c, np.array([[0.5, 0.5]]), workers=workers)
        # scaled to the curve's size, the offset overflows
        tiny = curve(c.control_points * 1e-300)
        with np.errstate(all="ignore"), pytest.raises(
                DomainError, match="too far from the curve"):
            project_points(tiny, np.array([[1e10, 1e10]]))

    @pytest.mark.parametrize("shape", [(), (1, 3, 2), (2, 1, 2)])
    def test_points_of_a_wrong_shape_are_a_domain_error(self, shape):
        """One curve takes points (d,) or (n, d); project_point takes a
        point (d,) alone.  Any other shape is named in the error."""
        c = curve([[0, 0], [0.3, 0.8], [0.7, 0.2], [1, 1]])
        with pytest.raises(DomainError, match=re.escape(str(shape))):
            project_points(c, np.full(shape, 0.5))
        with pytest.raises(DomainError, match=re.escape(str(shape))):
            project_point(c, np.full(shape, 0.5))
        with pytest.raises(DomainError, match=re.escape("(2, 2)")):
            project_point(c, np.ones((2, 2)))
        assert project_points(c, np.full(2, 0.5))[0].shape == (1,)


class TestProjectPoints:
    def test_batch_equals_loop(self):
        rng = np.random.default_rng(5)
        c = curve(rng.normal(size=(4, 3)))
        xs = rng.normal(size=(40, 3))
        ts, dist, clamped = project_points(c, xs)
        for i in range(40):
            r = project_point(c, xs[i])
            assert ts[i] == r.t
            assert dist[i] == r.distance
            assert clamped[i] == r.clamped

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_empty_batch(self, d):
        c = curve(np.arange(4.0 * d).reshape(4, d) ** 1.5)
        got = project_points(c, np.empty((0, d)))
        assert [(a.shape, a.dtype) for a in got] == [
            ((0,), np.dtype(float)), ((0,), np.dtype(float)),
            ((0,), np.dtype(bool))]

    def test_one_row_batch_equals_its_row_in_a_larger_batch(self):
        rng = np.random.default_rng(8)
        c = curve(rng.normal(size=(4, 3)))
        xs = rng.normal(scale=2.0, size=(25, 3))
        base = project_points(c, xs)
        for i in range(len(xs)):
            one = project_points(c, xs[i:i + 1])
            for a, b in zip(base, one):
                assert a[i:i + 1].tobytes() == b.tobytes()

    def test_workers_bit_identical(self):
        rng = np.random.default_rng(6)
        c = curve(rng.normal(size=(4, 4)))
        xs = rng.normal(size=(101, 4))
        base = project_points(c, xs, workers=1)
        for w in (2, 3, 8):
            got = project_points(c, xs, workers=w)
            for a, b in zip(base, got):
                np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------- properties

PROPERTY = settings(max_examples=40, deadline=None)
DENSE_SLACK = 1e-12


def coords(shape, exact=False):
    """Arrays of coordinates in [-3, 3]; ``exact`` draws multiples of 3/4,
    so that the degree-elevated and equally spaced constructions below are
    exact and the foot-point quintic really drops degree."""
    if exact:
        return arrays(np.int64, shape, elements=st.integers(-4, 4)).map(
            lambda a: 0.75 * a)
    return arrays(float, shape, elements=st.floats(
        -3.0, 3.0, allow_subnormal=False))


@st.composite
def random_curves(draw, kind="cubic"):
    d = draw(st.integers(1, 5))
    exact = draw(st.booleans()) if kind != "cubic" else False
    if kind == "cubic":
        P = draw(coords((4, d)))
    elif kind == "quadratic":
        Q = draw(coords((3, d), exact))
        inner = [(Q[0] + 2 * Q[1]) / 3, (2 * Q[1] + Q[2]) / 3]
        P = np.stack([Q[0], *inner, Q[2]])
    elif kind == "line":
        ends = draw(coords((2, d), exact))
        step = (ends[1] - ends[0]) / 3
        P = np.stack([ends[0], ends[0] + step, ends[0] + 2 * step, ends[1]])
    else:  # coincident inner points
        Q = draw(coords((3, d), exact))
        P = np.stack([Q[0], Q[1], Q[1], Q[2]])
    assume(not np.array_equal(P[0], P[3]))
    xs = draw(coords((6, d)))
    return curve(P), xs


def assert_not_worse_than_dense(c, xs):
    ts, dist, _ = project_points(c, xs)
    grid = evaluate(c, np.linspace(0.0, 1.0, 200001))
    for x, t, r in zip(xs, ts, dist):
        dense = float(((grid - x) ** 2).sum(axis=1).min())
        assert r**2 <= dense + DENSE_SLACK
        assert abs(((evaluate(c, t) - x) ** 2).sum() - r**2) < 1e-9


class TestProjectionProperties:
    @PROPERTY
    @given(random_curves())
    def test_never_worse_than_dense_grid(self, case):
        assert_not_worse_than_dense(*case)

    @PROPERTY
    @given(st.sampled_from(["quadratic", "line", "coincident"]).flatmap(
        random_curves))
    # quadratics whose a3 is rounding noise 1e-150 times the size of a2
    @example((curve([[2.71065330e-151, 1.0], [9.03551101e-152, 1 / 3],
                     [0.0, 0.0], [0.0, 0.0]]), np.zeros((6, 2))))
    @example((curve([[1.03096590e-137, 2.0], [3.43655299e-138, 2 / 3],
                     [0.0, 0.0], [0.0, 0.0]]), np.ones((6, 2))))
    def test_degree_drop_never_worse_than_dense_grid(self, case):
        assert_not_worse_than_dense(*case)

    @PROPERTY
    @given(random_curves(), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_batch_equals_loop_and_workers(self, case, n, seed):
        c, _ = case
        xs = np.random.default_rng(seed).normal(scale=2.0, size=(n, c.dim))
        base = project_points(c, xs)
        for i in range(n):
            r = project_point(c, xs[i])
            assert (base[0][i], base[1][i], base[2][i]) == (
                r.t, r.distance, r.clamped)
        for w in (2, 8):
            for a, b in zip(base, project_points(c, xs, workers=w)):
                np.testing.assert_array_equal(a, b)

    @PROPERTY
    @given(st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.floats(1.01, 3.0))
    def test_tie_between_ends_goes_to_smaller_t(self, w, h, k):
        arch, x = arch_case(w, h, k)
        r = project_point(arch, x[0])
        assert r.t == 0.0 and r.clamped


NEAR_TIE = Fraction(2) ** -40  # above any rounding bound for dim < 8000


def exact_end_gap(x, p0, p3):
    """|x - P0|^2 - |x - P3|^2 = <2 x - P0 - P3, P3 - P0> and the sum of
    its terms' magnitudes, (|x - P0| + |x - P3|) . |P3 - P0|, in exact
    rational arithmetic."""
    x, p0, p3 = ([Fraction(v) for v in a] for a in (x, p0, p3))
    gap = sum((a - b) ** 2 - (a - c) ** 2 for a, b, c in zip(x, p0, p3))
    mag = sum((abs(a - b) + abs(a - c)) * abs(c - b)
              for a, b, c in zip(x, p0, p3))
    return gap, mag


def reference_block(kern, pts, near_ties):
    """The foot selection by sort: candidates ordered by row, then t, with
    ``np.lexsort``, each row's smallest d^2 by ``np.minimum.reduceat`` and
    its first near candidate by ``np.searchsorted``.  t = 0 is not near
    where P3 is nearer than P0 in exact arithmetic, or, with
    ``near_ties``, nearer by more than NEAR_TIE of the gap's magnitudes.
    The same internals feed it, so on each row it must agree with
    ``_project_block`` bit for bit, with or without ``near_ties``."""
    n = pts.shape[0]
    cp = kern.control_points[0]  # the kernel of a stack of one
    y, y3 = pts - cp[0], pts - cp[3]
    lin = _linear_part(kern, np.ldexp(y, kern.shift))[:, 0]
    b = lin[0] - kern.cells[:, :, 0]
    for i in (1, 2):
        b = b + lin[i] * _CELL_MATRICES[i][:, :, None]
    (b_rows, lo, hi, start), (m_rows, mids) = _isolate(b, n)
    coef = np.repeat(-kern.quintic[0][:, None], b_rows.size, axis=1)
    coef[:3] += lin[:, b_rows]
    feet = _newton(coef, lo, hi, start)
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
    s = np.sqrt(cp.shape[1]) * np.abs(cp).max()
    slack = TIE_RTOL * (d2_min + 2.0 * s * np.sqrt(d2_min))
    tie = NEAR_TIE if near_ties else 0
    far0 = np.array([gap > tie * mag for gap, mag in (
        exact_end_gap(x, cp[0], cp[3]) for x in pts)], dtype=bool)
    near = np.flatnonzero((d2 <= (d2_min + slack)[rows])
                          & ~((cand == 0.0) & far0[rows]))
    best = near[np.searchsorted(rows[near], np.arange(n))]
    t_best = cand[best]
    hodo = 3.0 * np.diff(cp, axis=0)
    g0 = np.sum(y * hodo[0], axis=-1)
    g1 = np.sum(y3 * hodo[2], axis=-1)
    clamped = ((t_best == 0.0) & (g0 < 0.0)) | ((t_best == 1.0) & (g1 > 0.0))
    return t_best, np.sqrt(d2[best]), clamped


def normals(c, t):
    """Unit normals of a planar curve at t (rows)."""
    d = derivative(c, t)
    return np.stack([-d[:, 1], d[:, 0]], axis=1) / np.hypot(
        d[:, 0], d[:, 1])[:, None]


def arch_case(w=1.0, h=1.0, k=2.0):
    """The arch x(t) = w (2t - 1), y(t) = 3 h t (1 - t) and the point
    (0, -s): with u = t (1 - t), d^2 = w^2 + s^2 + u (6 h s - 4 w^2) +
    9 h^2 u^2, so both ends are the nearest points, at exactly equal
    distances, once s > 2 w^2 / (3 h)."""
    arch = curve([[-w, 0.0], [-w / 3, h], [w / 3, h], [w, 0.0]])
    return arch, np.array([[0.0, -k * 2 * w * w / (3 * h)]])


def end_tie_case(dim=40):
    """The arch of :func:`arch_case` and its point in the first two
    coordinates; in the others P3 is P0 with its coordinates rotated by
    one, the point's coordinates are all equal, and P1 and P2 lie on the
    far side of P0 from them.  So the point is exactly as far from P0 as
    from P3, and both ends are its nearest points.  At dim = 40 the
    computed <y + y3, P3 - P0> is 1.1 * 2**-53 of its terms' magnitudes,
    above zero."""
    arch, x = arch_case()
    v = np.linspace(-1.0, 1.0, dim - 2) / 3.0
    extra = np.stack([v, np.full_like(v, -10.0), np.full_like(v, -10.0),
                      np.roll(v, 1)])
    cp = np.hstack([arch.control_points, extra])
    return curve(cp), np.hstack([x, np.full((1, dim - 2), 1e8 / 3.0)])


def node_case():
    """C(k / CELLS) and C'(k / CELLS) are exact for integer control
    points, so x = C + s N has g(k / CELLS) = 0 exactly."""
    c = curve([[0, 0], [3, 5], [6, 7], [9, 6]])
    nodes = np.arange(CELLS + 1) / CELLS
    d = derivative(c, nodes)
    normal = np.stack([-d[:, 1], d[:, 0]], 1)
    pts = evaluate(c, nodes)
    return c, np.concatenate([pts + 2.0**-6 * normal, pts - 2.0**-6 * normal])


def evolute_case():
    """The centre of curvature E(t0) makes t0 a double root of g; the
    centres and points near them leave depth-cap midpoints as candidates."""
    c = curve([[0, 0], [3, 5], [6, 7], [9, 6]])
    t0 = np.linspace(0.05, 0.95, 10)
    d, dd = derivative(c, t0), second_derivative(c, t0)
    radius = (d * d).sum(1) / (d[:, 0] * dd[:, 1] - d[:, 1] * dd[:, 0])
    centres = evaluate(c, t0) + normals(c, t0) * (
        radius * np.hypot(d[:, 0], d[:, 1]))[:, None]
    tangents = d / np.hypot(d[:, 0], d[:, 1])[:, None]
    xs = [centres] + [centres + off * v for off in (1e-9, 1e-6, 1e-3)
                      for sign in (1, -1) for v in (
                          sign * normals(c, t0), sign * tangents)]
    return c, np.concatenate(xs)


class TestSelection:
    def test_evolute_case_has_depth_cap_midpoints(self, monkeypatch):
        midpoints = []

        def spy(b, n):
            brackets, mids = _isolate(b, n)
            midpoints.append(mids[0].size)
            return brackets, mids

        monkeypatch.setattr(projection, "_isolate", spy)
        project_points(*evolute_case())
        assert sum(midpoints) > 0

    @PROPERTY
    @given(st.sampled_from(["cubic", "quadratic", "line", "coincident"])
           .flatmap(random_curves))
    @example(arch_case())
    @example(arch_case(0.5, 2.0, 1.5))
    @example(end_tie_case())
    # ends so close that the products in <y + y3, P3 - P0> underflow
    @example((curve([[1.9e-240], [0.0], [0.0], [0.0]]), np.zeros((1, 1))))
    @example((curve([[4.25e-258], [1.0], [0.0], [0.0]]), np.zeros((1, 1))))
    @example(node_case())
    @example(evolute_case())
    def test_scatter_min_equals_sorted_selection(self, case):
        """An exact tie between the ends, or P0 nearer, must leave t = 0
        near; P3 nearer by more than NEAR_TIE must not.  Between, the end
        gap is within rounding, and either choice is right."""
        c, xs = case
        kern = _kernel([c])
        got = _project_block(kern, xs[None])
        refs = [reference_block(kern, xs, ties) for ties in (False, True)]
        for ref in refs:
            assert [a.dtype for a in got] == [a.dtype for a in ref]
        for i in range(len(xs)):
            assert [a[i:i + 1].tobytes() for a in got] in [
                [a[i:i + 1].tobytes() for a in ref] for ref in refs]


class TestHardGeometry:
    """Cases the cell sorter of the projector must get right: block
    boundaries, roots on cell nodes, two minima in one cell, double roots
    and extreme scales."""

    def test_batch_equals_loop_and_workers_across_blocks(self):
        rng = np.random.default_rng(11)
        c = curve(rng.normal(size=(4, 3)))
        xs = rng.normal(scale=2.0, size=(2 * BLOCK + 3, 3))
        base = project_points(c, xs)
        for i in range(len(xs)):
            r = project_point(c, xs[i])
            assert (base[0][i], base[1][i], base[2][i]) == (
                r.t, r.distance, r.clamped)
        for w in (1, 2, 8):
            for a, b in zip(base, project_points(c, xs, workers=w)):
                np.testing.assert_array_equal(a, b)
        edges = [k + j for k in (0, BLOCK, 2 * BLOCK) for j in (-2, -1, 0, 1)]
        assert_not_worse_than_dense(c, xs[[e for e in edges if e >= 0]])

    def test_feet_on_cell_nodes(self):
        c, xs = node_case()
        ts, _, clamped = project_points(c, xs)
        nodes = np.tile(np.arange(CELLS + 1) / CELLS, 2)
        np.testing.assert_allclose(ts, nodes, rtol=0, atol=1e-12)
        assert not clamped.any()
        assert_not_worse_than_dense(c, xs)

    def test_two_minima_in_one_cell(self):
        # a near-cusp at t = 0.6: the point between its two branches has a
        # local minimum on each, both inside the cell [0.5, 0.625]
        c = curve([[0.392, 0.48], [0.572, 0.78], [0.452, 0.83],
                   [0.532, 0.63]])
        ts = np.linspace(0.0, 1.0, 200001)
        for x in ([0.4995, 0.7499], [0.499, 0.7497], [0.501, 0.7497]):
            x = np.array(x)
            d2 = ((evaluate(c, ts) - x) ** 2).sum(axis=1)
            low = np.flatnonzero((d2[1:-1] < d2[:-2]) & (d2[1:-1] < d2[2:]))
            assert (np.floor(ts[low + 1] * CELLS) == 4).sum() == 2
            r = project_point(c, x)
            assert abs(r.t - ts[np.argmin(d2)]) < 1e-4
            assert_not_worse_than_dense(c, x[None, :])

    def test_on_and_near_the_evolute(self):
        assert_not_worse_than_dense(*evolute_case())

    def test_scaled_by_powers_of_two(self):
        rng = np.random.default_rng(12)
        P = rng.normal(size=(4, 3))
        xs = rng.normal(scale=2.0, size=(50, 3))
        ts, dist, clamped = project_points(curve(P), xs)
        assert_not_worse_than_dense(curve(P), xs)
        for e in (400, -400):
            c = curve(np.ldexp(P, e))
            got = project_points(c, np.ldexp(xs, e))
            np.testing.assert_array_equal(got[0], ts)
            np.testing.assert_array_equal(got[1], np.ldexp(dist, e))
            np.testing.assert_array_equal(got[2], clamped)
            grid = evaluate(c, np.linspace(0.0, 1.0, 200001))
            for x, r in zip(np.ldexp(xs, e), got[1]):
                dense = float(((grid - x) ** 2).sum(axis=1).min())
                assert r**2 <= dense + np.ldexp(DENSE_SLACK, 2 * e)


def seeded_group(d, k):
    """Eight curves with standard normal control points and 240 points for
    each, 120 near the curve and 120 spread about it, all times 2**k: the
    projection groups of ``scripts/fit_digests.py``."""
    rng = np.random.default_rng(d)
    group = []
    for _ in range(8):
        c = curve(np.ldexp(rng.normal(size=(4, d)), k))
        near = evaluate(c, rng.uniform(size=120)) + np.ldexp(
            rng.normal(scale=0.05, size=(120, d)), k)
        spread = np.ldexp(rng.normal(scale=2.0, size=(120, d)), k)
        group.append((c, np.r_[near, spread]))
    return group


def assert_stack_equals_each_alone(group, workers=1):
    curves = [c for c, _ in group]
    got = project_points(curves, np.stack([x for _, x in group]),
                         workers=workers)
    assert [(a.shape, a.dtype) for a in got] == [
        ((len(group), len(group[0][1])), np.dtype(t))
        for t in (float, float, bool)]
    for k, (c, x) in enumerate(group):
        for a, b in zip(got, project_points(c, x)):
            assert a[k].tobytes() == b.tobytes()


class TestStacks:
    """K curves with one (K, n, d) stack of rows, in one call: each row's
    t, distance and clamp flag are the bits it gets alone."""

    @pytest.mark.parametrize("k", [-40, 0, 40])
    @pytest.mark.parametrize("d", [1, 2, 4, 6])
    def test_seeded_curves_equal_each_alone(self, d, k):
        assert_stack_equals_each_alone(seeded_group(d, k))

    def test_evolute_case_equals_alone(self):
        c, xs = evolute_case()
        rng = np.random.default_rng(4)
        other = curve(rng.normal(size=(4, 2)))
        assert_stack_equals_each_alone(
            [(c, xs), (other, rng.normal(size=xs.shape)), (c, xs[::-1])])

    def test_tiles_of_many_rows_and_curves(self):
        """K * n at or above BLOCK: the rows go through in tiles of at most
        BLOCK rows in all, inline and on threads.  In a tile of one curve
        its values broadcast along the rows, in a tile of several they are
        gathered by row; the last three stacks put a tile edge one row
        before, on and after the K = 3 curves' whole rows."""
        for size, n in ((8, 5 * 240), (1, BLOCK + 1), (3, BLOCK // 3 - 1),
                        (3, BLOCK // 3), (3, BLOCK // 3 + 1)):
            group = [(c, np.resize(x, (n, 3)))
                     for c, x in seeded_group(3, 0)[:size]]
            assert size * n >= BLOCK - 5
            for workers in (1, 2):
                assert_stack_equals_each_alone(group, workers)

    def test_one_curve_stack_and_empty_rows(self):
        c, x = seeded_group(2, 0)[0]
        assert_stack_equals_each_alone([(c, x)])
        got = project_points([c, c], np.empty((2, 0, 2)))
        assert [a.shape for a in got] == [(2, 0)] * 3

    def test_validation(self):
        c, x = seeded_group(2, 0)[0]
        for pts in (x, np.stack([x, x, x])):
            with pytest.raises(DomainError, match="a stack of 2 curves"):
                project_points([c, c], pts)
        with pytest.raises(DomainError, match="a stack of 0 curves"):
            project_points([], np.empty((0, 3, 2)))
        wide = curve(np.zeros((4, 3)) + np.arange(4.0)[:, None])
        with pytest.raises(DomainError, match="curve has 3"):
            project_points([c, wide], np.stack([x, x]))
        with pytest.raises(DomainError, match="finite"):
            project_points([c, c], np.stack([x, np.full_like(x, np.nan)]))

    def test_a_curve_too_small_for_its_rows_raises_as_alone(self):
        c, x = seeded_group(2, 0)[0]
        tiny = curve(c.control_points * 1e-300)
        far = np.full_like(x, 1e10)
        with np.errstate(all="ignore"), pytest.raises(DomainError) as alone:
            project_points(tiny, far)
        with np.errstate(all="ignore"), pytest.raises(DomainError) as stack:
            project_points([c, tiny], np.stack([x, far]))
        assert "too far from the curve" in str(alone.value)
        assert str(stack.value) == str(alone.value)


def exact_foot_residual(P, x, t):
    """|g(t)| = |<x - C(t), C'(t)>| in exact rational arithmetic."""
    P = [[Fraction(v) for v in row] for row in P]
    t = Fraction(t)
    s = 1 - t
    b = [s**3, 3 * s * s * t, 3 * s * t * t, t**3]
    db = [3 * s * s, 6 * s * t, 3 * t * t]
    g = sum(
        (Fraction(x[j]) - sum(b[i] * P[i][j] for i in range(4)))
        * sum(db[i] * (P[i + 1][j] - P[i][j]) for i in range(3))
        for j in range(len(x)))
    return abs(float(g))


class TestExactness:
    @pytest.fixture(scope="class")
    def published(self):
        """The published curve in the bundled table's normalized units, and
        the bundled rows with every cell times exp(N(0, 0.1^2))."""
        nt = normalize(load_bundled_table())
        P = apply_transform(published_control_points(), nt.transform)
        return curve(P), nt.source.values, nt.transform

    def test_feet_are_roots_to_working_precision(self, published):
        c, raw, transform = published
        rng = np.random.default_rng(901)
        picks = raw[rng.integers(0, len(raw), 200)]
        xs = apply_transform(
            picks * np.exp(rng.normal(0.0, 0.1, size=picks.shape)), transform)
        ts, _, _ = project_points(c, xs)
        inner = (ts > 0.0) & (ts < 1.0)
        assert inner.sum() > 150
        worst = max(exact_foot_residual(c.control_points, x, t)
                    for x, t in zip(xs[inner], ts[inner]))
        assert worst <= 1e-14

    def test_memory_is_linear_in_the_batch(self, published):
        c, _, _ = published
        xs = np.random.default_rng(3).uniform(size=(100_000, 4))
        tracemalloc.start()
        try:
            project_points(c, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


def beyond_an_end(table, k, best=True):
    """The table with one row appended, k column ranges beyond every
    indicator's best value (or its worst)."""
    v = table.values
    up = ~negative_mask(table.orientations) == best
    row = np.where(up, v.max(0), v.min(0)) + np.where(up, k, -k) * np.ptp(v, 0)
    return dataclasses.replace(table, item_ids=table.item_ids + ("far",),
                               values=np.vstack([v, row]))


class TestFarBeyondAnEnd:
    """Far from the curve |x - P0|^2 and |x - P3|^2 round alike; the end
    nearer in exact arithmetic must still win."""

    @pytest.mark.parametrize("k", [1e15, 1e16, 1e18, 1e153])
    def test_best_and_worst_rows_score_1_and_0(self, k, bundled_fit,
                                                bundled_table):
        curve_ = bundled_fit[0]
        n = bundled_table.values.shape[0] + 1
        top = rank(beyond_an_end(bundled_table, k), curve_)
        assert (top.scores[-1], top.orders[-1]) == (1.0, 1)
        bottom = rank(beyond_an_end(bundled_table, k, best=False), curve_)
        assert (bottom.scores[-1], bottom.orders[-1]) == (0.0, n)

    def test_nearer_end_wins_where_the_squares_round_alike(self):
        # |x - P0|^2 = (1 + 8.4e-113)^2 and |x - P3|^2 = 1 both round to 1
        c = curve([[8.40692509e-113], [2.80230836e-113], [0.0], [0.0]])
        assert project_point(c, np.array([-1.0])).t == 1.0

    def test_overflowing_distance_is_a_domain_error(self, bundled_fit,
                                                    bundled_table):
        for best in (True, False):
            with pytest.raises(DomainError, match="too far from the curve"):
                rank(beyond_an_end(bundled_table, 1e155, best), bundled_fit[0])


class TestScore:
    def test_orientation_of_score(self):
        assert score_from_t(0.25, BestEnd.AT_T1) == 0.25
        assert score_from_t(0.25, BestEnd.AT_T0) == 0.75

    def test_vectorized(self):
        ts = np.array([0.0, 0.5, 1.0])
        np.testing.assert_array_equal(
            score_from_t(ts, BestEnd.AT_T0), [1.0, 0.5, 0.0]
        )
