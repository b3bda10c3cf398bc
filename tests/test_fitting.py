import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rpcurve import fitting
from rpcurve.bezier import BestEnd, Monotonicity, evaluate
from rpcurve.data import IndicatorTable, Orientation, normalize
from rpcurve.errors import BadCurveFile, TooFewItems, TransformMismatch
from rpcurve.fitting import (
    MAX_PROJECTIONS,
    REL_TOL,
    FitConfig,
    assign_orders,
    first_principal_axis,
    fit,
    fit_table,
    init_curve,
    load_curve,
    make_ranking,
    oriented_mean,
    rank,
    save_fit,
)
from rpcurve.projection import project_points


def line_table(make_table, n=30, d=3, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(size=n))
    base = np.outer(t, np.linspace(1.0, 2.0, d)) + rng.normal(
        scale=noise, size=(n, d)
    )
    base[0] = 0.0
    base[-1] = np.linspace(1.0, 2.0, d)
    return make_table(base)


# values on a 2**-10 grid with |value| < 2**20
_grid_value = st.integers(-(2**30) + 1, 2**30 - 1).map(lambda k: k / 1024.0)


@st.composite
def grid_tables(draw):
    """n x d tables (n 8-30, d 2-4) with no constant column."""
    n = draw(st.integers(8, 30))
    d = draw(st.integers(2, 4))
    values = np.array(draw(st.lists(
        st.lists(_grid_value, min_size=d, max_size=d), min_size=n, max_size=n
    )))
    assume(np.all(values.max(axis=0) > values.min(axis=0)))
    orientations = draw(st.lists(
        st.sampled_from(list(Orientation)), min_size=d, max_size=d
    ))
    return IndicatorTable(
        item_ids=tuple(f"it{i:02d}" for i in range(n)),
        indicator_names=tuple(f"c{j}" for j in range(d)),
        orientations=tuple(orientations),
        values=values,
    )


def counted_fit(table):
    """fit_table plus the number of projections the fit made."""
    with mock.patch.object(
        fitting, "project_points", wraps=fitting.project_points
    ) as spy:
        curve, report = fit_table(table)
    return curve, report, spy.call_count


class TestFitConfig:
    def test_defaults(self):
        c = FitConfig()
        assert [f.name for f in dataclasses.fields(c)] == ["workers"]
        assert MAX_PROJECTIONS == 200
        assert REL_TOL == 1e-8
        assert c.workers == 1

    def test_validation(self):
        with pytest.raises(Exception):
            FitConfig(workers=0)
        for name in ("rel_tol", "max_iters"):
            with pytest.raises(TypeError, match=name):
                FitConfig(**{name: 3})


class TestAssignOrders:
    def test_competition_ranking(self):
        scores = np.array([0.9, 0.2, 0.9, 0.5])
        orders, tied = assign_orders(scores)
        assert orders.tolist() == [1, 4, 1, 3]
        assert tied.tolist() == [True, False, True, False]

    def test_matches_rankdata(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            scores = rng.integers(0, 6, size=12).astype(float) / 5.0
            orders, _ = assign_orders(scores)
            want = scipy.stats.rankdata(-scores, method="min")
            np.testing.assert_array_equal(orders, want.astype(int))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.sampled_from([0.0, -0.0, 0.25, 1.0])
        | st.floats(-1.0, 1.0, allow_nan=False),
        min_size=1, max_size=30,
    ))
    def test_matches_sort_based_oracle(self, scores):
        """Walk the scores best-first; an item ties the one before it or
        takes its 1-based position (competition ranking)."""
        best_first = sorted(range(len(scores)), key=lambda i: -scores[i])
        want = [0] * len(scores)
        for pos, i in enumerate(best_first):
            prev = best_first[pos - 1]
            tie = pos > 0 and scores[prev] == scores[i]
            want[i] = want[prev] if tie else pos + 1
        orders, tied = assign_orders(np.array(scores))
        assert orders.tolist() == want
        assert tied.tolist() == [scores.count(x) > 1 for x in scores]

    def test_ranking_result_lookups(self):
        r = make_ranking(("a", "b", "c"), np.array([0.1, 0.9, 0.5]), "m")
        assert r.order_by_id()["b"] == 1
        assert r.order_by_id()["a"] == 3
        rows = r.to_rows()
        assert [row["id"] for row in rows] == ["a", "b", "c"]


class TestPrincipalAxis:
    def test_matches_eigendecomposition(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            X = rng.normal(size=(40, 4)) @ rng.normal(size=(4, 4))
            v = first_principal_axis(X)
            C = np.cov((X - X.mean(axis=0)).T)
            w, V = np.linalg.eigh(C)
            top = V[:, -1]
            if top[np.argmax(np.abs(top))] < 0:
                top = -top
            assert abs(abs(v @ top) - 1.0) < 1e-9
            np.testing.assert_allclose(v, top, atol=1e-9)

    def test_unit_norm(self):
        rng = np.random.default_rng(32)
        X = rng.normal(size=(10, 3))
        assert abs(np.linalg.norm(first_principal_axis(X)) - 1.0) < 1e-12


class TestOrientedMean:
    def test_flips_negative(self):
        v = np.array([0.2, 0.8])
        both_pos = oriented_mean(
            v, (Orientation.POSITIVE, Orientation.POSITIVE)
        )
        mixed = oriented_mean(
            v, (Orientation.POSITIVE, Orientation.NEGATIVE)
        )
        assert both_pos == pytest.approx(0.5)
        assert mixed == pytest.approx(0.2)


class TestInitCurve:
    def test_too_few_items(self, make_table):
        t = make_table([[0, 0], [1, 1], [0.5, 0.5]])
        with pytest.raises(TooFewItems):
            init_curve(normalize(t))

    def test_segment_through_data(self, make_table):
        t = line_table(make_table, n=20, d=2, seed=3)
        nt = normalize(t)
        c = init_curve(nt)
        # a PC segment through collinear data is itself collinear
        mid = evaluate(c, 0.5)
        ends = 0.5 * (evaluate(c, 0.0) + evaluate(c, 1.0))
        np.testing.assert_allclose(mid, ends, atol=1e-9)
        assert c.best_end is BestEnd.AT_T1


class TestFit:
    def test_distances_non_increasing(self, make_table):
        t = line_table(make_table, n=40, d=3, noise=0.05, seed=8)
        curve, report = fit_table(t)
        d = np.array(report.distances)
        assert np.all(np.diff(d) <= 1e-9)

    def test_converges_on_clean_line(self, make_table):
        t = line_table(make_table, n=40, d=3, noise=0.0, seed=9)
        curve, report = fit_table(t)
        assert report.converged
        nt = normalize(t)
        _, dist, _ = project_points(curve, nt.values)
        assert float((dist**2).sum()) < 1e-10

    def test_deterministic(self, make_table, projection_cap):
        t = line_table(make_table, n=35, d=4, noise=0.1, seed=10)
        with projection_cap(40):
            c1, r1 = fit_table(t)
            c2, r2 = fit_table(t)
        np.testing.assert_array_equal(c1.control_points, c2.control_points)
        assert r1.distances == r2.distances

    def test_workers_do_not_change_result(self, make_table, projection_cap):
        t = line_table(make_table, n=35, d=4, noise=0.1, seed=11)
        with projection_cap(40):
            c1, _ = fit_table(t, FitConfig(workers=1))
            c8, _ = fit_table(t, FitConfig(workers=8))
        np.testing.assert_array_equal(c1.control_points, c8.control_points)

    def test_report_monotonicity_entries(self, make_table):
        t = line_table(make_table, n=40, d=3, noise=0.0, seed=12)
        _, report = fit_table(t)
        assert len(report.monotonicity) == 3
        for v in report.monotonicity:
            assert isinstance(v, Monotonicity)

    def test_bundled_fit_converges_by_tolerance(self, bundled_table):
        _, report, projections = counted_fit(bundled_table)
        assert report.converged and report.stop_reason == "tol"
        assert projections < MAX_PROJECTIONS
        assert report.iterations == len(report.distances) <= projections
        assert 0.0 <= report.last_rel_change < REL_TOL
        assert np.all(np.diff(report.distances) <= 0.0)
        saved = report.to_dict()
        assert saved["stop_reason"] == "tol"
        assert saved["last_rel_change"] == report.last_rel_change

    def test_projection_cap_reports_max_iters(self, make_table,
                                              projection_cap):
        t = line_table(make_table, n=40, d=3, noise=0.05, seed=8)
        with projection_cap(3):
            _, report, projections = counted_fit(t)
        assert report.stop_reason == "max_iters"
        assert not report.converged
        assert projections == 3

    @settings(max_examples=40, deadline=None)
    @given(grid_tables(), st.integers(2, 30))
    def test_distances_and_projection_cap(self, table, max_iters):
        # patched here: function-scoped fixtures do not mix with @given
        with mock.patch.object(fitting, "MAX_PROJECTIONS", max_iters):
            _, report, projections = counted_fit(table)
        assert np.all(np.diff(report.distances) <= 0.0)
        assert projections <= max_iters
        assert report.converged == (report.stop_reason == "tol")
        if report.stop_reason == "max_iters":
            assert projections == max_iters

    @settings(max_examples=25, deadline=None)
    @given(
        grid_tables(),
        st.lists(st.integers(-8, 8), min_size=4, max_size=4),
        st.lists(_grid_value, min_size=4, max_size=4),
    )
    def test_scores_invariant_under_exact_scale_and_shift(
        self, table, exponents, shifts
    ):
        """Scaling a column by a power of two and shifting it by a grid
        multiple leaves its normalized values exact, so rpc scores and
        orders must not move by a bit."""
        d = table.n_indicators
        moved = table.with_values(
            table.values * np.exp2(exponents[:d]) + np.array(shifts[:d])
        )
        base = rank(table, fit_table(table)[0])
        other = rank(moved, fit_table(moved)[0])
        assert base.scores.tobytes() == other.scores.tobytes()
        np.testing.assert_array_equal(base.orders, other.orders)

    def test_best_end_orientation(self, make_table):
        """The high-scoring end must carry the oriented-best profile."""
        t = line_table(make_table, n=30, d=2, noise=0.02, seed=13)
        curve, _ = fit_table(t)
        top = evaluate(curve, 1.0 if curve.best_end is BestEnd.AT_T1 else 0.0)
        bot = evaluate(curve, 0.0 if curve.best_end is BestEnd.AT_T1 else 1.0)
        om = lambda p: oriented_mean(p, t.orientations)
        assert om(top) > om(bot)


class TestRank:
    def test_orders_follow_scores(self, make_table):
        t = line_table(make_table, n=25, d=3, noise=0.02, seed=14)
        curve, _ = fit_table(t)
        r = rank(t, curve)
        s = np.array(r.scores)
        o = np.array(r.orders)
        assert o[np.argmax(s)] == 1
        # same permutation both ways
        np.testing.assert_array_equal(
            np.argsort(-s, kind="stable"), np.argsort(o, kind="stable")
        )

    def test_requires_matching_transform(self, make_table):
        t = line_table(make_table, n=25, d=2, noise=0.02, seed=15)
        curve, _ = fit_table(t)
        other = make_table(
            np.asarray(t.values), names=["foo", "bar"]
        )
        with pytest.raises(TransformMismatch):
            rank(other, curve)

    def test_rank_of_training_data_matches_projection(self, make_table):
        t = line_table(make_table, n=25, d=3, noise=0.05, seed=16)
        curve, _ = fit_table(t)
        r = rank(t, curve)
        nt = normalize(t)
        ts, _, _ = project_points(curve, nt.values)
        want = ts if curve.best_end is BestEnd.AT_T1 else 1.0 - ts
        np.testing.assert_array_equal(np.asarray(r.scores), want)


class TestPersistence:
    def test_save_and_load_roundtrip(self, make_table, tmp_path):
        t = line_table(make_table, n=30, d=3, noise=0.05, seed=17)
        curve, report = fit_table(t)
        ranking = rank(t, curve)
        path = tmp_path / "fit.json"
        save_fit(path, curve, report, ranking)
        loaded = load_curve(path)
        np.testing.assert_array_equal(
            loaded.control_points, curve.control_points
        )
        assert loaded.best_end is curve.best_end
        assert loaded.transform is not None
        np.testing.assert_array_equal(
            loaded.transform.mins, curve.transform.mins
        )
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert "curve" in payload and "ranking" in payload

    @pytest.mark.parametrize("field, value", [
        ("mins", [0.0, 0.0]),  # two dimensions for a 3-d curve
        ("maxs", [1.0, 0.0, 1.0]),  # max == min in one column
        ("mins", ["x", "y", "z"]),
        ("indicator_names", None),
    ])
    def test_load_rejects_bad_transform(self, make_table, tmp_path,
                                        field, value):
        t = line_table(make_table, n=30, d=3, noise=0.05, seed=19)
        curve, report = fit_table(t)
        path = tmp_path / "fit.json"
        save_fit(path, curve, report, rank(t, curve))
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["transform"][field] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(BadCurveFile):
            load_curve(path)

    def test_load_rejects_overflowing_spread(self, make_table, tmp_path):
        # max > min holds, but max - min overflows to inf
        t = line_table(make_table, n=30, d=3, noise=0.05, seed=19)
        curve, report = fit_table(t)
        path = tmp_path / "fit.json"
        save_fit(path, curve, report, rank(t, curve))
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["transform"]["mins"][0] = -1e308
        payload["transform"]["maxs"][0] = 1e308
        path.write_text(json.dumps(payload), encoding="utf-8")
        name = payload["transform"]["indicator_names"][0]
        with pytest.raises(BadCurveFile) as exc:
            load_curve(path)
        assert str(exc.value) == (
            f"{path}: indicator {name!r} spans -1e+308 to 1e+308, a range "
            f"too wide to scale"
        )

    @pytest.mark.parametrize("strip", [
        lambda p: {k: v for k, v in p.items() if k != "transform"},
        lambda p: {k: v for k, v in p.items() if k != "curve"},
        lambda p: p["curve"],
    ], ids=["no-transform", "no-curve", "bare-curve"])
    def test_load_requires_curve_and_transform(self, make_table, tmp_path,
                                               strip):
        t = line_table(make_table, n=30, d=3, noise=0.05, seed=19)
        curve, report = fit_table(t)
        path = tmp_path / "fit.json"
        save_fit(path, curve, report, rank(t, curve))
        payload = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(strip(payload)), encoding="utf-8")
        with pytest.raises(BadCurveFile):
            load_curve(path)

    @pytest.mark.parametrize("edit, fault", [
        (lambda cp: cp[:3], "4 x d"),
        (lambda cp: [cp[0], [float("nan")] * len(cp[0]), cp[2], cp[3]],
         "finite"),
        (lambda cp: cp[:3] + [cp[0]], "coincide"),
    ], ids=["three-rows", "nan", "p0-equals-p3"])
    def test_load_rejects_bad_control_points(self, make_table, tmp_path,
                                             edit, fault):
        t = line_table(make_table, n=30, d=3, noise=0.05, seed=19)
        curve, report = fit_table(t)
        path = tmp_path / "fit.json"
        save_fit(path, curve, report, rank(t, curve))
        payload = json.loads(path.read_text(encoding="utf-8"))
        cp = payload["curve"]["control_points"]
        payload["curve"]["control_points"] = edit(cp)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(BadCurveFile, match=fault):
            load_curve(path)

    def test_rank_with_loaded_curve(self, make_table, tmp_path):
        t = line_table(make_table, n=30, d=3, noise=0.05, seed=18)
        curve, report = fit_table(t)
        path = tmp_path / "fit.json"
        save_fit(path, curve, report, rank(t, curve))
        loaded = load_curve(path)
        r1 = rank(t, curve)
        r2 = rank(t, loaded)
        np.testing.assert_array_equal(r1.orders, r2.orders)
