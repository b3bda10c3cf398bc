"""Curve evaluation, monotonicity and speed extremes.

The evaluator is checked against the explicit Bernstein polynomial and the
exact monotonicity test against dense derivative sampling, so the two
implementations fail independently.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from rpcurve.bezier import (
    BestEnd,
    Monotonicity,
    RankingCurve,
    curve_from_dict,
    curve_to_dict,
    derivative,
    evaluate,
    is_monotone,
    second_derivative,
    _roots,
    _speed_extremes,
)
from rpcurve.errors import DegenerateCurve, DomainError


def bernstein_eval(P, t):
    t = np.asarray(t, dtype=float)
    b = np.stack(
        [(1 - t) ** 3, 3 * t * (1 - t) ** 2, 3 * t**2 * (1 - t), t**3]
    )
    return np.tensordot(b, P, axes=(0, 0))


def curve(P, best_end=BestEnd.AT_T1):
    return RankingCurve(
        control_points=np.asarray(P, dtype=float), best_end=best_end
    )


class TestEvaluate:
    def test_endpoints_are_control_points(self):
        c = curve([[0, 0], [0.2, 1], [0.8, -1], [1, 1]])
        np.testing.assert_allclose(evaluate(c, 0.0), [0, 0])
        np.testing.assert_allclose(evaluate(c, 1.0), [1, 1])

    def test_matches_bernstein_polynomial(self):
        rng = np.random.default_rng(11)
        ts = np.linspace(0, 1, 257)
        for _ in range(40):
            P = rng.normal(size=(4, rng.integers(1, 6)))
            c = curve(P)
            np.testing.assert_allclose(
                evaluate(c, ts), bernstein_eval(P, ts), atol=1e-12
            )

    def test_derivative_matches_difference_quotient(self):
        rng = np.random.default_rng(12)
        h = 1e-7
        for _ in range(20):
            P = rng.normal(size=(4, 3))
            c = curve(P)
            t = rng.uniform(0.05, 0.95)
            fd = (evaluate(c, t + h) - evaluate(c, t - h)) / (2 * h)
            np.testing.assert_allclose(derivative(c, t), fd, atol=1e-5)

    def test_second_derivative_is_linear_in_t(self):
        rng = np.random.default_rng(13)
        P = rng.normal(size=(4, 2))
        c = curve(P)
        a = second_derivative(c, 0.0)
        b = second_derivative(c, 1.0)
        mid = second_derivative(c, 0.5)
        np.testing.assert_allclose(mid, 0.5 * (a + b), atol=1e-12)

    def test_domain_checked(self):
        c = curve([[0], [0], [1], [1]])
        with pytest.raises(DomainError):
            evaluate(c, 1.5)
        with pytest.raises(DomainError):
            evaluate(c, -0.01)
        for dim in (-1, 1):
            with pytest.raises(DomainError, match="out of range"):
                is_monotone(c, dim)


class TestIsMonotone:
    def test_increasing(self):
        c = curve([[0.0], [0.3], [0.6], [1.0]])
        assert is_monotone(c, 0) is Monotonicity.STRICTLY_INCREASING

    def test_decreasing(self):
        c = curve([[1.0], [0.7], [0.2], [0.0]])
        assert is_monotone(c, 0) is Monotonicity.STRICTLY_DECREASING

    def test_interior_dip_detected(self):
        c = curve([[0.0], [1.5], [-0.5], [1.0]])
        assert is_monotone(c, 0) is Monotonicity.NOT_MONOTONE

    def test_constant_coordinate_is_not_monotone(self):
        c = curve([[0.5, 0.0], [0.5, 0.3], [0.5, 0.6], [0.5, 1.0]])
        assert is_monotone(c, 0) is Monotonicity.NOT_MONOTONE

    def test_flat_start_still_strict(self):
        # derivative vanishes only at t=0
        c = curve([[0.0], [0.0], [0.4], [1.0]])
        assert is_monotone(c, 0) is Monotonicity.STRICTLY_INCREASING

    def test_interior_double_root_still_strict(self):
        # successive differences [1/4, -1/4, 1/4] give a derivative
        # proportional to (t - 1/2)^2: one interior zero, never negative
        c = curve([[0.0], [0.25], [0.0], [0.25]])
        assert is_monotone(c, 0) is Monotonicity.STRICTLY_INCREASING

    def test_agrees_with_dense_sampling(self):
        """Randomized cross-check of the closed-form verdict."""
        rng = np.random.default_rng(20240517)
        ts = np.linspace(0, 1, 4001)
        for _ in range(400):
            P = rng.normal(size=(4, 1))
            c = curve(P)
            got = is_monotone(c, 0)
            vals = evaluate(c, ts)[:, 0]
            diffs = np.diff(vals)
            inc = np.all(diffs > -1e-12) and vals[-1] > vals[0]
            dec = np.all(diffs < 1e-12) and vals[-1] < vals[0]
            if got is Monotonicity.STRICTLY_INCREASING:
                assert inc
            elif got is Monotonicity.STRICTLY_DECREASING:
                assert dec
            else:
                assert not (inc or dec) or abs(vals[-1] - vals[0]) < 1e-9

    # control coordinates on a 1e-5 grid in [-10, 10]
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-(10**6), 10**6).map(lambda k: k / 1e5),
                    min_size=4, max_size=4))
    def test_verdict_agrees_with_dense_derivative_sampling(self, coords):
        # a straight second coordinate keeps P0 and P3 apart
        c = curve([[x, k / 3.0] for k, x in enumerate(coords)])
        q = derivative(c, np.linspace(0.0, 1.0, 20001))[:, 0]
        lo, hi = q.min(), q.max()
        # The samples include t = 0 and t = 1, so only the interior vertex
        # of the quadratic C' can fall between them; the sampled extreme
        # misses it by at most |C'''| / 2 * (2.5e-5)^2 <= 240 * 6.25e-10
        # = 1.5e-7.  Draws with a sampled extreme within this margin of 0
        # are near the boundary (C' = 0 at an end, or a double root) and
        # are skipped.
        margin = 1e-6
        assume(abs(lo) > margin and abs(hi) > margin)
        if lo > 0.0:
            want = Monotonicity.STRICTLY_INCREASING
        elif hi < 0.0:
            want = Monotonicity.STRICTLY_DECREASING
        else:
            want = Monotonicity.NOT_MONOTONE
        assert is_monotone(c, 0) is want

    def test_verdict_equals_exact_oracle_on_quarter_grid(self):
        # Every curve with P0 = 0 and the other coordinates k/4 in [-4, 4]
        # (the verdict depends only on differences): differences and their
        # products are exact in doubles, so the verdict must equal the
        # exact one, worked out here in integers (4 times the coordinates)
        # and fractions.  The grid holds zero end slopes and interior
        # double roots, e.g. (0, 4, 1, 3.25) with C' = 3 (7t - 4)^2 / 4,
        # whose vertex 4/7 no double represents.
        def exact(ks):
            d0, d1, d2 = (b - a for a, b in zip(ks, ks[1:]))
            a, b = d0 - 2 * d1 + d2, 2 * (d1 - d0)  # C' ~ a t^2 + b t + d0
            vals = [d0, d2]
            if a != 0 and 0 < Fraction(-b, 2 * a) < 1:
                vals.append(d0 - Fraction(b * b, 4 * a))
            if min(vals) >= 0 < max(vals):
                return Monotonicity.STRICTLY_INCREASING
            if max(vals) <= 0 > min(vals):
                return Monotonicity.STRICTLY_DECREASING
            return Monotonicity.NOT_MONOTONE

        double_roots = 0
        for ks in itertools.product([0], *[range(-16, 17)] * 3):
            c = curve([[k / 4, i / 3.0] for i, k in enumerate(ks)])
            want = exact(ks)
            assert is_monotone(c, 0) is want, ks
            d0, d1, d2 = (b - a for a, b in zip(ks, ks[1:]))
            double_roots += d1 * d1 == d0 * d2 != 0 > d0 * d1
        assert double_roots > 0


class TestCriticalPoints:
    # coefficients on a 1e-5 grid in [-10, 10]
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-(10**6), 10**6).map(lambda k: k / 1e5),
                    min_size=1, max_size=7))
    def test_extremes_match_dense_grid(self, coeffs):
        c = np.array(coeffs)
        at_candidates = npoly.polyval(
            np.r_[0.0, 1.0, _roots(npoly.polyder(c)[None])], c)
        sampled = npoly.polyval(np.linspace(0.0, 1.0, 200001), c)
        rounding = 1e-12 * (1.0 + np.abs(c).sum())
        # samples are 5e-6 apart and p' = 0 at an interior extreme, so a
        # sampled extreme is within (2.5e-6)^2 / 2 * max |p''| of the true one
        k = np.arange(len(c))
        resolution = 3.2e-12 * np.abs(k * (k - 1) * c).sum() + rounding
        for ext, sign in ((np.max, 1.0), (np.min, -1.0)):
            gap = sign * (ext(at_candidates) - ext(sampled))
            assert -rounding <= gap <= resolution

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda k: st.lists(
        st.lists(st.integers(-(10**6), 10**6).map(lambda m: m / 1e5),
                 min_size=k, max_size=k),
        min_size=1, max_size=6)))
    def test_batch_roots_equal_per_row_roots(self, rows):
        polys = np.array(rows)
        batch = _roots(polys)
        alone = np.concatenate([_roots(row[None]) for row in polys])
        # sorted bit patterns: equal as multisets, to the last bit
        assert (np.sort(batch.view(np.int64)).tobytes()
                == np.sort(alone.view(np.int64)).tobytes())

    def test_zero_rows_have_no_roots(self):
        # every cell of a zero row is live: unguarded, the sort would split
        # CELLS * 2**MAX_DEPTH cells
        assert _roots(np.zeros((3, 4))).shape == (0,)
        np.testing.assert_array_equal(
            _roots(np.array([[0.0, 0.0], [-1.0, 2.0]])), [0.5])

    def test_uniform_speed_line(self):
        # C'' = 0, so <C', C''> and each C''_j are zero rows
        c = curve([[0, 0], [1, 1], [2, 2], [3, 3]])
        speed = float(np.linalg.norm([3.0, 3.0]))
        assert _speed_extremes(c)[:3] == (0.0, speed, speed)

    def test_speeds_near_1e_160_beside_speeds_near_1(self):
        # offsets near 1e-160 square to |C'|^2 coefficients near 1e-320
        c = curve([[0, 0], [0, 1e-160], [1, 0], [3, 2e-160]])
        t_min, slowest, fastest = _speed_extremes(c)[:3]
        assert (t_min, fastest) == (0.0, 6.0)
        assert 0.0 < slowest < 1e-159


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        P = rng.normal(size=(4, 4))
        c = curve(P, best_end=BestEnd.AT_T0)
        c2 = curve_from_dict(curve_to_dict(c))
        np.testing.assert_array_equal(c2.control_points, c.control_points)
        assert c2.best_end is BestEnd.AT_T0

    def test_rejects_wrong_shape(self):
        with pytest.raises(Exception):
            RankingCurve(
                control_points=np.zeros((3, 2)), best_end=BestEnd.AT_T1
            )

    def test_coincident_endpoints_rejected_at_construction(self):
        with pytest.raises(DegenerateCurve):
            curve([[0, 0], [1, 1], [-1, 1], [0, 0]])
