import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from rpcurve.baselines import (
    _kendall_tau_b,
    _spearman,
    arithmetic_mean_rank,
    compare,
    elmap_reference_scores,
    entropy_weight_rank,
    geometric_mean_rank,
    pca_rank,
    published_control_points,
    published_curve_orders,
    published_curve_scores,
)
from rpcurve.data import Orientation, normalize
from rpcurve.errors import (
    BadWeights,
    LengthMismatch,
    NonPositiveAfterShift,
)
from rpcurve.fitting import make_ranking


def oriented(table):
    z = normalize(table).values.copy()
    for j, o in enumerate(table.orientations):
        if o is Orientation.NEGATIVE:
            z[:, j] = 1.0 - z[:, j]
    return z


class TestArithmetic:
    def test_normalized_matches_formula(self, make_table):
        rng = np.random.default_rng(41)
        t = make_table(
            rng.uniform(1, 9, size=(12, 3)),
            orientations=["positive", "negative", "positive"],
        )
        r = arithmetic_mean_rank(t)
        want = oriented(t).mean(axis=1)
        np.testing.assert_allclose(np.asarray(r.scores), want, atol=1e-12)

    def test_weights_validated(self, make_table):
        t = make_table([[1, 2], [3, 4], [5, 6]])
        with pytest.raises(BadWeights):
            arithmetic_mean_rank(t, weights=[0.7, 0.7])
        with pytest.raises(BadWeights):
            arithmetic_mean_rank(t, weights=[1.0, 0.0])
        with pytest.raises(BadWeights):
            arithmetic_mean_rank(t, weights=[0.5])

    def test_raw_variant_not_scale_invariant(self, make_table):
        rng = np.random.default_rng(42)
        vals = rng.uniform(1, 30, size=(10, 3))
        t = make_table(vals)
        base = arithmetic_mean_rank(t, variant="raw")
        stretched = t.with_values(vals * np.array([1000.0, 1.0, 1.0]))
        pert = arithmetic_mean_rank(stretched, variant="raw")
        assert not np.array_equal(base.orders, pert.orders)

    def test_normalized_variant_is_scale_invariant(self, make_table):
        rng = np.random.default_rng(43)
        vals = rng.uniform(1, 30, size=(10, 3))
        t = make_table(vals)
        base = arithmetic_mean_rank(t)
        pert = arithmetic_mean_rank(
            t.with_values(vals * np.array([1000.0, 0.01, 7.7]))
        )
        np.testing.assert_array_equal(base.orders, pert.orders)


class TestGeometric:
    def test_normalized_uses_epsilon_floor(self, make_table):
        # the row holding a zero after normalization must not score -inf
        t = make_table([[0.0, 5.0], [1.0, 6.0], [2.0, 7.0]])
        r = geometric_mean_rank(t)
        assert np.isfinite(np.asarray(r.scores)).all()

    def test_raw_requires_positive(self, make_table):
        t = make_table([[0.0, 5.0], [1.0, 6.0], [2.0, 7.0]])
        with pytest.raises(NonPositiveAfterShift):
            geometric_mean_rank(t, variant="raw")

    def test_raw_scale_invariant_translation_not(self, make_table):
        rng = np.random.default_rng(44)
        vals = rng.uniform(2, 40, size=(14, 3))
        t = make_table(vals)
        base = geometric_mean_rank(t, variant="raw")
        scaled = geometric_mean_rank(
            t.with_values(vals * np.array([6.8, 1.0, 1.0])),
            variant="raw",
        )
        np.testing.assert_array_equal(base.orders, scaled.orders)
        shifted = geometric_mean_rank(
            t.with_values(vals + np.array([100.0, 0.0, 0.0])),
            variant="raw",
        )
        assert not np.array_equal(base.orders, shifted.orders)

    def test_raw_negative_orientation_reciprocal(self, make_table):
        t = make_table(
            [[4.0, 2.0], [5.0, 8.0], [4.5, 5.0]],
            orientations=["positive", "negative"],
        )
        r = geometric_mean_rank(t, variant="raw")
        # smaller second indicator is better
        assert r.order_by_id()["it00"] == 1
        assert r.order_by_id()["it01"] == 3


class TestPca:
    def test_collinear_recovers_line_order(self, make_table):
        rng = np.random.default_rng(45)
        t = np.sort(rng.uniform(size=18))
        vals = np.outer(t, [3.0, 40.0, 0.5]) + [2.0, 10.0, 5.0]
        tab = make_table(vals)
        r = pca_rank(tab)
        want = scipy.stats.rankdata(-t, method="min").astype(int)
        np.testing.assert_array_equal(r.orders, want)

    def test_scores_in_unit_interval(self, make_table):
        rng = np.random.default_rng(46)
        tab = make_table(rng.normal(size=(25, 4)))
        s = np.asarray(pca_rank(tab).scores)
        assert s.min() == 0.0 and s.max() == 1.0


class TestEntropy:
    def test_weights_match_direct_formula(self, make_table):
        rng = np.random.default_rng(47)
        vals = rng.uniform(0.5, 9.5, size=(15, 4))
        tab = make_table(vals)
        r = entropy_weight_rank(tab)
        z = oriented(tab)
        eps = 1e-9
        shifted = eps + (1.0 - eps) * z
        p = shifted / shifted.sum(axis=0)
        e = -(p * np.log(p)).sum(axis=0) / np.log(z.shape[0])
        w = (1.0 - e) / (1.0 - e).sum()
        want = z @ w
        np.testing.assert_allclose(np.asarray(r.scores), want, atol=1e-9)

    def test_rank_follows_weighted_sum(self, make_table):
        # both columns rise together, so orders must be 12..1
        vals = np.column_stack(
            [
                np.linspace(10.0, 10.2, 12),
                np.linspace(0.0, 100.0, 12),
            ]
        )
        vals[3, 0] = 10.05
        tab = make_table(vals)
        r = entropy_weight_rank(tab)
        # ranking must follow the informative column
        np.testing.assert_array_equal(
            r.orders, np.arange(12, 0, -1)
        )


class TestCompare:
    def test_matrix_matches_scipy(self, make_table):
        rng = np.random.default_rng(48)
        ids = tuple(f"r{i}" for i in range(20))
        a = make_ranking(ids, rng.uniform(size=20), "a")
        b = make_ranking(ids, rng.uniform(size=20), "b")
        comp = compare([a, b])
        rho = scipy.stats.spearmanr(a.scores, b.scores).statistic
        tau = scipy.stats.kendalltau(a.scores, b.scores).statistic
        assert comp.spearman[0, 1] == pytest.approx(rho, abs=1e-12)
        assert comp.kendall[0, 1] == pytest.approx(tau, abs=1e-12)
        assert comp.spearman[0, 0] == pytest.approx(1.0)

    def test_requires_common_items(self, make_table):
        a = make_ranking(("x", "y"), np.array([0.1, 0.2]), "a")
        b = make_ranking(("x", "z"), np.array([0.1, 0.2]), "b")
        with pytest.raises(LengthMismatch):
            compare([a, b])

    def test_reference_joins_as_subset_column(self):
        ids = tuple(f"r{i}" for i in range(6))
        scores = np.linspace(0, 1, 6)
        a = make_ranking(ids, scores, "a")
        ref = {"r0": 0.0, "r3": 0.5, "r5": 1.0}
        comp = compare([a], reference=ref)
        assert comp.methods[-1] == "elmap-reference"
        # perfect agreement on the covered subset
        assert comp.spearman[0, 1] == pytest.approx(1.0)
        col = comp.scores[:, 1]
        assert np.isnan(col).sum() == 3

    def test_csv_shapes(self):
        ids = ("a", "b", "c")
        r1 = make_ranking(ids, np.array([0.3, 0.2, 0.1]), "m1")
        comp = compare([r1])
        text = comp.table_csv()
        assert text.splitlines()[0].startswith("id,")
        corr = comp.correlations_csv()
        assert "spearman" in corr


@st.composite
def tied_pairs(draw):
    """Two equal-length float arrays drawn from small pools of values, so
    ties are heavy; a pool of one value makes a constant column."""
    n = draw(st.integers(2, 80))
    columns = []
    for _ in range(2):
        pool = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                             min_size=1, max_size=6))
        columns.append(np.array(draw(st.lists(st.sampled_from(pool),
                                              min_size=n, max_size=n))))
    return tuple(columns)


def assert_same(got, want):
    assert got == want or (np.isnan(got) and np.isnan(want))


@pytest.mark.filterwarnings("ignore::scipy.stats.ConstantInputWarning")
class TestCorrelations:
    """The numpy statistics behind ``compare`` equal scipy's to the bit."""

    @settings(max_examples=400, deadline=None)
    @given(tied_pairs())
    def test_equal_scipy_on_tied_samples(self, pair):
        x, y = pair
        assert_same(_spearman(x, y), float(scipy.stats.spearmanr(x, y)[0]))
        assert_same(_kendall_tau_b(x, y),
                    float(scipy.stats.kendalltau(x, y)[0]))

    def test_constant_column_is_nan(self):
        x = np.array([0.5, 0.5, 0.5])
        y = np.array([1.0, 3.0, 2.0])
        assert np.isnan(_spearman(x, y)) and np.isnan(_spearman(y, x))
        assert np.isnan(_kendall_tau_b(x, y))
        assert np.isnan(_kendall_tau_b(y, x))

    def test_equal_scipy_at_twenty_thousand(self):
        rng = np.random.default_rng(20000)
        x = rng.uniform(size=20_000)
        y = np.round(x + rng.normal(scale=0.3, size=20_000), 2)
        assert _spearman(x, y) == scipy.stats.spearmanr(x, y)[0]
        assert _kendall_tau_b(x, y) == scipy.stats.kendalltau(x, y)[0]


class TestReferenceData:
    def test_reference_scores_available(self):
        ref = elmap_reference_scores()
        assert len(ref) >= 10
        assert all(0.0 <= v <= 1.0 for v in ref.values())

    def test_published_scores_and_orders_agree(self):
        scores = published_curve_scores()
        orders = published_curve_orders()
        assert set(scores) == set(orders)
        best = min(orders, key=orders.get)
        assert scores[best] == max(scores.values())
        assert orders["Luxembourg"] == 1

    def test_published_control_points_shape(self):
        cp = published_control_points()
        assert cp.shape == (4, 4)
