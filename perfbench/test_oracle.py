"""The benchmark's oracle on cases with closed-form answers.

Run with: python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402

ARC = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])


def segment(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return np.stack([a, a + (b - a) / 3.0, a + 2.0 * (b - a) / 3.0, b])


def test_bernstein_endpoints_and_segment_midpoint():
    pts = segment([1.0, 2.0, 3.0], [4.0, 0.0, 3.5])
    assert np.allclose(oracle.bernstein(pts, [0.0, 1.0]), pts[[0, 3]])
    assert np.allclose(oracle.bernstein(pts, 0.5), [2.5, 1.0, 3.25])


def test_straight_segment_foot_is_clamped_chord_parameter():
    a, b = np.array([0.2, -1.0, 0.5]), np.array([1.7, 0.5, -0.5])
    rng = np.random.default_rng(3)
    x = rng.normal(size=(60, 3)) * 1.5
    t, d2 = oracle.project(segment(a, b), x)
    u = b - a
    want = np.clip((x - a) @ u / (u @ u), 0.0, 1.0)
    foot = a + want[:, None] * u
    assert np.allclose(t, want, atol=1e-7)
    assert np.allclose(d2, np.sum((x - foot) ** 2, axis=1), atol=1e-12)
    assert np.any(want == 0.0) and np.any(want == 1.0)


def test_points_on_the_curve_project_to_themselves():
    t0 = np.linspace(0.05, 0.95, 19)
    t, d2 = oracle.project(ARC, oracle.bernstein(ARC, t0))
    assert np.allclose(t, t0, atol=1e-7)
    assert np.all(d2 <= 1e-24)


def test_point_on_axis_of_symmetric_arc_has_foot_at_apex():
    t, d2 = oracle.project(ARC, [[0.5, 2.0]])
    assert t[0] == pytest.approx(0.5, abs=1e-7)
    assert d2[0] == pytest.approx((2.0 - 0.75) ** 2, abs=1e-12)


def test_projection_gap_is_zero_at_the_foot_and_positive_off_it():
    x = np.array([[0.5, 2.0], [0.1, 0.1]])
    t, _ = oracle.project(ARC, x)
    assert np.all(np.abs(oracle.projection_gaps(ARC, x, t)) <= 1e-15)
    assert np.all(oracle.projection_gaps(ARC, x, t + 1e-3) > 1e-12)


def test_competition_orders_share_the_better_order():
    got = oracle.competition_orders([0.3, 0.9, 0.3, 0.5, 0.1])
    assert got.tolist() == [3, 1, 3, 2, 5]


def test_average_ranks_split_ties():
    assert oracle.average_ranks([10, 20, 20, 30]).tolist() == [1, 2.5, 2.5, 4]


def test_spearman_extremes_and_ties_against_scipy():
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert oracle.spearman(a, np.exp(a)) == pytest.approx(1.0, abs=1e-15)
    assert oracle.spearman(a, -a) == pytest.approx(-1.0, abs=1e-15)
    rng = np.random.default_rng(7)
    x = rng.integers(0, 5, 40).astype(float)
    y = x + rng.integers(0, 3, 40)
    want = scipy.stats.spearmanr(x, y).statistic
    assert oracle.spearman(x, y) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize(
    "coords, want",
    [
        ([0.0, 1.0, 2.0, 3.0], 1),  # straight, increasing
        ([3.0, 2.0, 1.0, 0.0], -1),  # straight, decreasing
        ([0.0, 0.0, 0.5, 1.0], 1),  # zero slope at t = 0 only
        ([0.0, 1.0, 0.0, 1.0], 1),  # slope 3 (1 - 2t)^2: double zero at 1/2
        ([0.0, 1.0, -0.5, 1.0], 0),  # interior dip
        ([2.0, 2.0, 2.0, 2.0], 0),  # constant
    ],
)
def test_monotonicity_from_control_points(coords, want):
    pts = np.column_stack([coords, np.linspace(0.0, 1.0, 4)])
    assert oracle.monotonicity(pts) == [want, 1]
