"""Orthogonal projection onto the curve, checked against brute force."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rpcurve.bezier import BestEnd, RankingCurve, evaluate
from rpcurve.errors import DomainError
from rpcurve.projection import (
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
        # the arch x(t) = w (2t - 1), y(t) = 3 h t (1 - t) seen from (0, -s):
        # with u = t (1 - t), d^2 = w^2 + s^2 + u (6 h s - 4 w^2) + 9 h^2 u^2,
        # so both ends are the nearest points, at exactly equal distances,
        # once s > 2 w^2 / (3 h)
        arch = curve([[-w, 0.0], [-w / 3, h], [w / 3, h], [w, 0.0]])
        s = k * 2 * w * w / (3 * h)
        r = project_point(arch, np.array([0.0, -s]))
        assert r.t == 0.0 and r.clamped


class TestScore:
    def test_orientation_of_score(self):
        assert score_from_t(0.25, BestEnd.AT_T1) == 0.25
        assert score_from_t(0.25, BestEnd.AT_T0) == 0.75

    def test_vectorized(self):
        ts = np.array([0.0, 0.5, 1.0])
        np.testing.assert_array_equal(
            score_from_t(ts, BestEnd.AT_T0), [1.0, 0.5, 0.0]
        )
