import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rpcurve import fitting
from rpcurve.baselines import pca_rank
from rpcurve.bezier import (
    BestEnd,
    Monotonicity,
    RankingCurve,
    _copositive,
    derivative,
    evaluate,
    is_monotone,
)
from rpcurve.data import (
    IndicatorTable,
    Orientation,
    normalize,
    orientation_signs,
)
from rpcurve.data import json_text
from rpcurve.evaluation import (
    Criterion,
    Verdict,
    audit,
    check_monotonicity,
    rpc_pipeline,
)
from rpcurve.errors import (
    BadCurveFile,
    DomainError,
    TooFewItems,
    TransformMismatch,
)
from rpcurve.fitting import (
    MAX_PROJECTIONS,
    REL_TOL,
    FitConfig,
    _cone_projection,
    _constrain,
    _fit_steps,
    _lockstep,
    _foot_derivatives,
    _normal_equations,
    assign_orders,
    first_principal_axis,
    fit,
    fit_and_rank,
    fit_many,
    fit_table,
    init_curve,
    load_curve,
    make_ranking,
    principal_segment,
    rank,
    save_fit,
)
from rpcurve.projection import project_points

_EPS = float(np.finfo(float).eps)


def oriented_mean(point, orientations) -> float:
    """Mean coordinate after flipping the negative dimensions (1 - value):
    these tests' own measure of which end of a curve is the better one."""
    p = np.asarray(point, dtype=float)
    flip = [o is Orientation.NEGATIVE for o in orientations]
    return float(np.mean(np.where(flip, 1.0 - p, p)))


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


class TestPrincipalSegment:
    @settings(max_examples=60, deadline=None)
    @given(grid_tables())
    def test_runs_towards_the_better_end(self, table):
        """b is the better end in the declared orientations, init_curve
        starts at a and ends at b, and pca_rank scores along the segment."""
        nt = normalize(table)
        proj, a, b = principal_segment(nt.values, table.orientations)
        # s . (b - a) = (max proj - min proj) s . v, which is >= 0 but
        # may be within rounding of 0, where b - a rounds either way
        d = a.size
        slack = 4.0 * d * _EPS * (np.ptp(proj) + np.abs(a).max()
                                  + np.abs(b).max())
        assert orientation_signs(table.orientations) @ (b - a) >= -slack
        pts = init_curve(nt).control_points
        assert pts[0].tobytes() == a.tobytes()
        assert pts[3].tobytes() == b.tobytes()
        # along rising proj, pca orders (1 = best) never rise
        orders = pca_rank(table).orders[np.argsort(proj, kind="stable")]
        assert np.all(np.diff(orders) <= 0)

    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_one_column_runs_from_worst_to_best(self, make_table,
                                                orientation):
        raw = np.array([[3.0], [-2.0], [7.5], [0.25], [4.0]])
        table = make_table(raw, orientations=[orientation])
        nt = normalize(table)
        _, a, b = principal_segment(nt.values, table.orientations)
        worst, best = raw.min(), raw.max()
        if orientation is Orientation.NEGATIVE:
            worst, best = best, worst
        scale = lambda x: (x - raw.min()) / (raw.max() - raw.min())
        np.testing.assert_allclose(a, [scale(worst)], atol=4 * _EPS)
        np.testing.assert_allclose(b, [scale(best)], atol=4 * _EPS)


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
        assert projections <= 15  # Gauss-Newton steps alone take 34
        assert report.iterations == len(report.distances) <= projections
        assert 0.0 <= report.last_rel_change < REL_TOL
        assert np.all(np.diff(report.distances) <= 0.0)
        saved = report.to_dict()
        assert saved["stop_reason"] == "tol"
        assert saved["last_rel_change"] == report.last_rel_change
        assert saved["projections"] == report.projections == projections
        assert saved["active_constraints"] == []

    def test_projection_cap_reports_max_iters(self, make_table,
                                              projection_cap):
        t = line_table(make_table, n=40, d=3, noise=0.05, seed=8)
        with projection_cap(3):
            _, report, projections = counted_fit(t)
        assert report.stop_reason == "max_iters"
        assert not report.converged
        assert projections == 3

    def test_newton_trials_rejected_unprojected_are_capped(
            self, make_table, projection_cap):
        """From the second iteration on every trial steps uphill along the
        gradient, a step that the Hessian model rejects whatever the
        damping.  After the cap's number of such trials the fit models F by
        J^T J, whose trials are projected and count against the cap, where
        growing mu without end would overflow."""
        t = line_table(make_table, n=40, d=3, noise=0.05, seed=8)
        calls = {"normal": 0, "uphill": 0}

        def normal_equations(curves, z, ts):
            jtj, grad, hess = _normal_equations(curves, z, ts)
            calls["normal"] += 1
            pts = curves[0].control_points
            calls["pts"] = pts + 1e-9 * grad[0].reshape(pts.shape)
            return jtj, grad, hess

        def constrain(points, signs):
            trial, held = _constrain(points, signs)
            if calls["normal"] < 2:
                return trial, held
            calls["uphill"] += 1
            return calls["pts"], held

        cap = 10
        with projection_cap(cap), \
                mock.patch.object(fitting, "NEWTON_SWITCH", np.inf), \
                mock.patch.object(fitting, "_normal_equations",
                                  normal_equations), \
                mock.patch.object(fitting, "_constrain", constrain):
            _, report, projections = counted_fit(t)
        assert report.stop_reason == "max_iters" and projections == cap
        assert cap < calls["uphill"] < 2 * cap

    def test_trials_uphill_on_the_hessian_model_are_not_projected(
            self, bundled_table):
        """Gauss-Newton alone (the switch to Newton steps disabled): a trial
        whose step, after the cone projection, does not lower F's Hessian
        model is rejected without projecting the items, and every other
        trial is projected.  On the bundled table the first trials are
        such uphill steps."""
        seen, events = {}, []
        project = fitting.project_points

        def normal_equations(curves, z, ts):
            jtj, grad, hess = _normal_equations(curves, z, ts)
            seen.update(pts=curves[0].control_points, grad=grad[0],
                        hess=hess[0])
            return jtj, grad, hess

        def constrain(points, signs):
            trial, held = _constrain(points, signs)
            if seen:  # a trial, not the start
                move = (trial - seen["pts"]).ravel()
                g, h = seen["grad"], seen["hess"]
                events.append(g @ move + 0.5 * move @ h @ move)
            return trial, held

        def counted_projection(*args, **kwargs):
            events.append("projected")
            return project(*args, **kwargs)

        with mock.patch.object(fitting, "NEWTON_SWITCH", -np.inf), \
                mock.patch.object(fitting, "_normal_equations",
                                  normal_equations), \
                mock.patch.object(fitting, "_constrain", constrain), \
                mock.patch.object(fitting, "project_points",
                                  counted_projection):
            _, report = fit_table(bundled_table)
        assert report.stop_reason == "tol"
        assert events[0] == "projected"  # the start
        trials = [(model, events[i + 1:i + 2] == ["projected"])
                  for i, model in enumerate(events) if model != "projected"]
        assert all(projected == (model < 0.0) for model, projected in trials)
        uphill = [model for model, _ in trials if model >= 0.0]
        assert len(uphill) >= 4 and all(m > 0.0 for m in uphill[:4])
        assert report.projections == 1 + len(trials) - len(uphill)

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
        bare = dataclasses.replace(curve, transform=None)
        with pytest.raises(TransformMismatch, match="no normalization"):
            rank(t, bare)

    def test_rank_of_training_data_matches_projection(self, make_table):
        t = line_table(make_table, n=25, d=3, noise=0.05, seed=16)
        curve, _ = fit_table(t)
        r = rank(t, curve)
        nt = normalize(t)
        ts, _, _ = project_points(curve, nt.values)
        want = ts if curve.best_end is BestEnd.AT_T1 else 1.0 - ts
        np.testing.assert_array_equal(np.asarray(r.scores), want)


def assert_pipeline_ranks_as_rank(table):
    """The rpc pipeline ranks a table's rows from its fit's own feet; that
    ranking must be rank(table, curve), bit for bit."""
    run = rpc_pipeline().run(table)
    want = rank(table, run.curve)
    got = run.ranking
    assert got.item_ids == want.item_ids and got.method == want.method
    assert got.scores.tobytes() == want.scores.tobytes()
    assert got.orders.tobytes() == want.orders.tobytes()
    assert got.tied.tobytes() == want.tied.tobytes()


class TestPipelineRanking:
    @pytest.mark.parametrize("perturb", ["none", "scale", "shift"])
    def test_bundled_and_its_perturbations(self, bundled_table, perturb):
        values = bundled_table.values.copy()
        if perturb == "scale":
            values[:, 0] *= 6.8
        elif perturb == "shift":
            values[:, 1] += 100.0
        assert_pipeline_ranks_as_rank(bundled_table.with_values(values))

    @settings(max_examples=30, deadline=None)
    @given(grid_tables())
    def test_grid_tables(self, table):
        assert_pipeline_ranks_as_rank(table)


def fitted_bytes(fitted):
    """A fit_and_rank triple as bytes, its report as fit.json holds it."""
    curve, report, ranking = fitted
    return (curve.control_points.tobytes(), json_text(report.to_dict()),
            ranking.item_ids, ranking.method, ranking.scores.tobytes(),
            ranking.orders.tobytes(), ranking.tied.tobytes())


def uniform_table(seed):
    return positive_table(np.random.default_rng(seed).uniform(size=(20, 3)))


def positive_table(values):
    n, d = values.shape
    return IndicatorTable(
        item_ids=tuple(f"it{i:02d}" for i in range(n)),
        indicator_names=tuple(f"c{j}" for j in range(d)),
        orientations=(Orientation.POSITIVE,) * d,
        values=values,
    )


def assert_batched_audit_as_one_run_at_a_time(table, trials):
    """The audit through ``run_many`` (the fits in lockstep) and through a
    copy of the pipeline without it (one fit per run) agree to the byte."""
    pipe = rpc_pipeline()
    batched = audit(pipe, table, trials=trials)
    single = audit(dataclasses.replace(pipe, run_many=None), table,
                   trials=trials)
    assert json_text(batched.to_dict()) == json_text(single.to_dict())
    return batched


class TestLockstep:
    def test_fit_many_equals_fit_and_rank(self, bundled_table):
        scaled, shifted = bundled_table.values.copy(), bundled_table.values.copy()
        scaled[:, 0] *= 6.8
        shifted[:, 1] += 100.0
        tables = [bundled_table, bundled_table.with_values(scaled),
                  uniform_table(4), positive_table(np.eye(3)),
                  bundled_table.with_values(shifted), uniform_table(8),
                  bundled_table]
        got = fit_many(tables)
        with pytest.raises(TooFewItems) as alone:
            fit_and_rank(tables[3])
        assert type(got[3]) is TooFewItems
        assert str(got[3]) == str(alone.value)
        for table, fitted in zip(tables, got):
            if table is not tables[3]:
                assert fitted_bytes(fitted) == fitted_bytes(
                    fit_and_rank(table))

    def test_a_failing_projection_fails_only_its_fit(self, bundled_table):
        """A stacked call that raises is retried curve by curve: the fit
        whose rows raise gets the exception it would get alone."""
        data = normalize(bundled_table)
        tiny = RankingCurve(np.linspace(0.0, 1e-300, 4)[:, None]
                            * np.ones(data.values.shape[1]))
        far = np.full(data.values.shape, 1e10)

        def doomed():
            yield "project", tiny, far
            raise AssertionError("sent feet it cannot have")

        got = _lockstep([_fit_steps(data), doomed(), _fit_steps(data)],
                        workers=1)
        with pytest.raises(Exception) as alone:
            project_points(tiny, far)
        assert isinstance(alone.value, (DomainError, RuntimeWarning))
        assert type(got[1]) is type(alone.value)
        assert str(got[1]) == str(alone.value)
        curve, report = fit(data)
        want = curve, report, project_points(curve, data.values)[0]
        for fitted in (got[0], got[2]):
            assert fitted[0].control_points.tobytes() == (
                want[0].control_points.tobytes())
            assert fitted[1] == want[1]
            assert fitted[2].tobytes() == want[2].tobytes()

    def test_stacks_hold_at_most_block_rows(self):
        """With BLOCK at 45 rows, the 20-row fits are answered two at a
        time, with the bits each gets alone."""
        tables = [uniform_table(seed) for seed in range(5)]
        rows = []

        def spy(answer):
            def counted(kind, curve, z, *arrays, **kwargs):
                rows.append(z.size // z.shape[-1])
                return answer(kind, curve, z, *arrays, **kwargs)
            return counted

        with mock.patch.object(fitting, "BLOCK", 45), mock.patch.object(
                fitting, "_answer", spy(fitting._answer)):
            got = fit_many(tables)
        assert max(rows) == 40 and min(rows) == 20
        for table, fitted in zip(tables, got):
            assert fitted_bytes(fitted) == fitted_bytes(fit_and_rank(table))

    def test_stacked_normal_equations_equal_each_alone(self, bundled_fit,
                                                       bundled_table):
        curve, _ = bundled_fit
        z = normalize(bundled_table).values
        rng = np.random.default_rng(2)
        curves = [curve] + [
            RankingCurve(curve.control_points
                         + rng.normal(scale=0.05, size=(4, z.shape[1])))
            for _ in range(3)]
        feet = [project_points(c, z)[0] for c in curves]
        stacked = _normal_equations(curves, np.stack([z] * 4),
                                    np.stack(feet))
        factors = _foot_derivatives(curves, np.stack([z] * 4),
                                    np.stack(feet))
        for k, (c, ts) in enumerate(zip(curves, feet)):
            for got, alone in ((stacked, one_curve(_normal_equations,
                                                   c, z, ts)),
                               (factors, one_curve(_foot_derivatives,
                                                   c, z, ts))):
                for a, b in zip(got, alone):
                    assert a[k].tobytes() == b.tobytes()

    @settings(max_examples=15, deadline=None)
    @given(grid_tables(), st.sampled_from([1, 2]))
    def test_batched_audit_on_grid_tables(self, table, trials):
        assert_batched_audit_as_one_run_at_a_time(table, trials)

    @pytest.mark.parametrize("trials", [1, 2])
    @pytest.mark.parametrize("seed", [9, 10, 17, 19])
    def test_batched_audit_where_invariance_fails(self, seed, trials):
        report = assert_batched_audit_as_one_run_at_a_time(
            uniform_table(seed), trials)
        if seed != 10 or trials == 2:
            assert Verdict.FAIL in {
                report.get(c).verdict for c in (
                    Criterion.SCALE_INVARIANCE,
                    Criterion.TRANSLATION_INVARIANCE)}


def as_column(values):
    """A list as a column: each entry in a list of its own."""
    return [[v] for v in values]


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
        # a repeated name, which would read c0 into c1's slot
        ("indicator_names", ["c0", "c0", "c2"]),
        # d x 1 bounds: d entries, but they broadcast into a d x d scaling
        ("mins", as_column),
        ("maxs", as_column),
    ])
    def test_load_rejects_bad_transform(self, make_table, tmp_path,
                                        field, value):
        t = line_table(make_table, n=30, d=3, noise=0.05, seed=19)
        curve, report = fit_table(t)
        path = tmp_path / "fit.json"
        save_fit(path, curve, report, rank(t, curve))
        payload = json.loads(path.read_text(encoding="utf-8"))
        transform = payload["transform"]
        transform[field] = value(transform[field]) if callable(value) else value
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


def noisy30(seed):
    """Latent parameters and values of a 30 x 3 noisy30 table: t uniform,
    columns t * (1, 1.5, 2) plus N(0, 0.05^2) noise."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(size=30)
    return t, t[:, None] * np.array([1.0, 1.5, 2.0]) + rng.normal(
        scale=0.05, size=(30, 3))


class TestMonotoneFit:
    @pytest.mark.parametrize("seed", range(30))
    def test_noisy30_stays_monotone_and_keeps_the_order(self, seed,
                                                         make_table):
        latent, values = noisy30(seed)
        table = make_table(values)
        curve, report = fit_table(table)
        # Newton trials that their model rejects are not projected: seed 7
        # took 91 projections when they were
        assert report.stop_reason == "tol" and report.projections <= 60
        verdict = check_monotonicity(curve, table.orientations)
        assert verdict.verdict is Verdict.PASS, verdict.evidence
        rho = scipy.stats.spearmanr(rank(table, curve).scores, latent)[0]
        assert rho >= 0.98

    def test_arch_is_held_on_a_face_and_reported(self, make_table):
        """c1 rises then falls; its fitted coordinate must still rise, with
        the constraint active at the end."""
        t = np.sort(np.random.default_rng(3).uniform(size=40))
        table = make_table(np.stack([t, 0.3 * t + 0.4 * np.sin(np.pi * t)], 1))
        curve, report = fit_table(table)
        assert report.stop_reason == "tol"
        assert report.projections <= 48  # Gauss-Newton steps alone took 94
        assert report.active_constraints == ("c1",)
        assert report.to_dict()["active_constraints"] == ["c1"]
        assert report.monotonicity == (Monotonicity.STRICTLY_INCREASING,) * 2

    @pytest.mark.parametrize("seed", range(20))
    def test_uniform_tables_are_monotone(self, seed, make_table):
        """A structureless table has no principal direction to follow; the
        fit still rises in every positive indicator."""
        table = make_table(np.random.default_rng(seed).uniform(size=(20, 3)))
        verdict = check_monotonicity(fit_table(table)[0], table.orientations)
        assert verdict.verdict is Verdict.PASS, verdict.evidence

    @settings(max_examples=60, deadline=None)
    @given(grid_tables())
    def test_held_in_the_declared_orientation(self, table):
        """Every fitted column lies in the cone of its declared direction,
        so the oriented coordinates rise from P0 to P3 and the best end is
        at t=1 without reversing the curve."""
        pts = fit_table(table)[0].control_points
        signs = [-1.0 if o is Orientation.NEGATIVE else 1.0
                 for o in table.orientations]
        for j, s in enumerate(signs):
            assert _copositive(*(s * np.diff(pts[:, j]))), j
        om = lambda p: oriented_mean(p, table.orientations)
        assert om(pts[3]) >= om(pts[0])

    def test_column_against_its_orientation_is_held_flat(self, make_table):
        """c1 falls as the others rise, against its positive orientation:
        the fit holds it flat and reports it, and lets it fall nowhere."""
        rng = np.random.default_rng(0)
        t = np.sort(rng.uniform(size=30))
        table = make_table(np.stack([
            t,
            1.0 - t + 0.05 * rng.normal(size=30),
            2.0 * t + 0.05 * rng.normal(size=30),
        ], 1))
        curve, report = fit_table(table)
        assert report.stop_reason == "tol"
        assert report.active_constraints == ("c1",)
        c1 = curve.control_points[:, 1]
        assert np.all(np.diff(c1) >= 0.0)
        assert np.ptp(c1) <= 1e-6
        assert np.ptp(curve.control_points[:, 0]) > 1.0


def foot_residuals(points, z):
    """The residuals z - C(t) at the feet on the curve of ``points``, and
    which feet are at an end."""
    c = RankingCurve(points)
    ts, _, _ = project_points(c, z)
    return z - evaluate(c, ts), (ts == 0.0) | (ts == 1.0)


def one_curve(factors, curve, z, ts):
    """``factors`` (:func:`_foot_derivatives` or :func:`_normal_equations`)
    of one curve, as a stack of one, without the curve axis."""
    return tuple(a[0] for a in factors([curve], z[None], ts[None]))


def reference_jacobian(basis, c1, dt):
    """J (n, d, 4, d), [i, a, k, j] = -B_k(t_i) [a = j] - C'_a(t_i) dt_kj."""
    d = c1.shape[1]
    return (-basis[:, None, :, None] * np.eye(d)[None, :, None, :]
            - c1[:, :, None, None] * dt[:, None, :, :])


class TestJacobian:
    @staticmethod
    def interior_case():
        """Points off the curve along its normals, each foot interior."""
        c = RankingCurve(np.array([[0, 0], [3, 5], [6, 7], [9, 6]]) / 9.0)
        t0 = np.linspace(0.1, 0.9, 17)
        d = derivative(c, t0)
        normal = np.stack([-d[:, 1], d[:, 0]], 1) / np.hypot(*d.T)[:, None]
        off = 0.05 * np.where(np.arange(t0.size) % 2, 1.0, -1.0)
        return c, evaluate(c, t0) + off[:, None] * normal

    @staticmethod
    def end_case():
        """The interior case's points, and points 0.1 beyond each end of
        its curve along the end tangent, whose feet sit firmly at the end."""
        c, z = TestJacobian.interior_case()
        d = derivative(c, np.array([0.0, 1.0]))
        tangent = d / np.hypot(*d.T)[:, None]
        normal = tangent @ np.array([[0.0, 1.0], [-1.0, 0.0]])
        beyond = [c.control_points[k] + 0.1 * sign * tangent[end]
                  + off * normal[end]
                  for k, sign, end in ((0, -1.0, 0), (3, 1.0, 1))
                  for off in (-0.05, 0.0, 0.05)]
        return c, np.vstack([z, beyond])

    @staticmethod
    def named_case(name, bundled_fit, bundled_table):
        if name == "interior":
            return TestJacobian.interior_case()
        if name == "ends":
            return TestJacobian.end_case()
        return bundled_fit[0], normalize(bundled_table).values

    @pytest.fixture(params=["interior", "ends", "bundled"])
    def case(self, request, bundled_fit, bundled_table):
        c, z = self.named_case(request.param, bundled_fit, bundled_table)
        ts, _, _ = project_points(c, z)
        return c, z, ts

    def test_matches_central_differences(self, case):
        """Every row counts, end feet too, except where a step of h moves
        a foot between an end and the interior, where e has a kink: on the
        bundled fit that is row 0, at t = 1 with g(1) = 6e-8."""
        c, z, ts = case
        e, basis, c1, dt, _ = one_curve(_foot_derivatives, c, z, ts)
        np.testing.assert_allclose(e, z - evaluate(c, ts), rtol=0, atol=1e-14)
        jac = reference_jacobian(basis, c1, dt)
        ends = (ts == 0.0) | (ts == 1.0)
        kinked = np.zeros_like(ends)
        pts, h = c.control_points, 1e-6
        for k in range(4):
            for j in range(c.dim):
                step = np.zeros_like(pts)
                step[k, j] = h
                e_plus, ends_plus = foot_residuals(pts + step, z)
                e_minus, ends_minus = foot_residuals(pts - step, z)
                smooth = (ends_plus == ends) & (ends_minus == ends)
                kinked |= ~smooth
                np.testing.assert_allclose(
                    jac[smooth, :, k, j],
                    ((e_plus - e_minus) / (2 * h))[smooth], atol=1e-6)
        assert kinked.sum() <= 1

    def test_normal_equations_sum_the_jacobian(self, case):
        c, z, ts = case
        e, basis, c1, dt, _ = one_curve(_foot_derivatives, c, z, ts)
        jac = reference_jacobian(basis, c1, dt).reshape(e.size, -1)
        jtj, grad, _ = one_curve(_normal_equations, c, z, ts)
        np.testing.assert_allclose(jtj, jac.T @ jac, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grad, jac.T @ e.ravel(), rtol=1e-12,
                                   atol=1e-12)

    def test_end_feet_do_not_move(self, bundled_fit, bundled_table):
        c, z = bundled_fit[0], normalize(bundled_table).values
        ts, _, _ = project_points(c, z)
        ends = (ts == 0.0) | (ts == 1.0)
        assert ends.any() and not ends.all()
        dt = one_curve(_foot_derivatives, c, z, ts)[3]
        assert not dt[ends].any() and dt[~ends].any(axis=(1, 2)).all()

    def test_feet_on_and_past_the_evolute(self):
        """On C(t) = (3t, 3t(1 - t)) at t = 1/2, |C'|^2 = 9 and C'' = (0, -6),
        so the point (1.5, -0.75), the centre of curvature, makes the
        denominator exactly 0, and (1.5, -2) makes it negative."""
        c = RankingCurve([[0.0, 0.0], [1.0, 1.0], [2.0, 1.0], [3.0, 0.0]])
        z = np.array([[1.5, -0.75], [1.5, -2.0], [1.5, 0.25]])
        ts = np.full(3, 0.5)
        with np.errstate(all="raise"):
            dt = one_curve(_foot_derivatives, c, z, ts)[3]
            jtj, grad, hess = one_curve(_normal_equations, c, z, ts)
        assert not dt[:2].any() and dt[2].any()
        assert np.all(np.isfinite(jtj)) and np.all(np.isfinite(grad))
        assert np.all(np.isfinite(hess))
        np.testing.assert_array_equal(hess, hess.T)


def envelope_terms(points, z):
    """Each row's term of the gradient of F / 2 by the envelope theorem,
    -B(t_i) e_i^T (n x 4 x d), with the row projected again onto the curve
    of ``points``, and which feet are at an end."""
    c = RankingCurve(points)
    ts, _, _ = project_points(c, z)
    basis = np.stack([(1 - ts) ** 3, 3 * ts * (1 - ts) ** 2,
                      3 * ts**2 * (1 - ts), ts**3], 1)
    return (-basis[:, :, None] * (z - evaluate(c, ts))[:, None, :],
            (ts == 0.0) | (ts == 1.0))


class TestHessian:
    @pytest.mark.parametrize("name", ["interior", "ends", "bundled"])
    def test_matches_central_differences(self, name, bundled_fit,
                                         bundled_table):
        """Each row's H is the derivative of its envelope gradient term
        with its foot moving.  Every row counts, end feet too, except
        where a step of h moves a foot between an end and the interior,
        where F has a kink: on the bundled fit that is row 0, at t = 1
        with g(1) = 6e-8."""
        c, z = TestJacobian.named_case(name, bundled_fit, bundled_table)
        ts, _, _ = project_points(c, z)
        ends = (ts == 0.0) | (ts == 1.0)
        _, grad, hess = one_curve(_normal_equations, c, z, ts)
        pts, h = c.control_points, 1e-6
        np.testing.assert_allclose(
            grad, envelope_terms(pts, z)[0].sum(axis=0).ravel(), rtol=0,
            atol=1e-12)
        np.testing.assert_allclose(hess, hess.T, rtol=0, atol=1e-12)
        fd = np.empty((z.shape[0], pts.size, pts.size))
        kinked = np.zeros_like(ends)
        for col in range(pts.size):
            step = h * np.eye(pts.size)[col].reshape(pts.shape)
            plus, ends_plus = envelope_terms(pts + step, z)
            minus, ends_minus = envelope_terms(pts - step, z)
            kinked |= (ends_plus != ends) | (ends_minus != ends)
            fd[:, :, col] = (plus - minus).reshape(z.shape[0], -1) / (2 * h)
        assert kinked.sum() <= 1
        for i in np.flatnonzero(~kinked):
            row = one_curve(_normal_equations, c, z[i:i + 1],
                            ts[i:i + 1])[2]
            np.testing.assert_allclose(row, fd[i], rtol=0, atol=1e-8)


def frobenius_gap(c, h):
    return (c[0] - h[0]) ** 2 + 2.0 * (c[1] - h[1]) ** 2 + (c[2] - h[2]) ** 2


def cone_candidates(h):
    """The orthant point and the eigenvalue-clipped matrix, by eigh."""
    w, v = np.linalg.eigh(np.array([[h[0], h[1]], [h[1], h[2]]]))
    m = (v * np.maximum(w, 0.0)) @ v.T
    return [np.maximum(h, 0.0), np.array([m[0, 0], m[0, 1], m[1, 1]])]


_h = st.floats(-4.0, 4.0, allow_subnormal=False)
# 1 and 2 units of rounding outside the curved face h1 = -sqrt(h0 h2), as
# (P0, h0, h1, h2, direction); the rebuilt columns need h1 moved inwards
_one_ulp, _two_ulp = np.nextafter(1.0, 2.0), np.nextafter(1.0, 2.0) + 2.0**-52
_just_outside = [
    (0.3, 0.25, -_one_ulp, 4.0, 1.0),
    (0.3, 0.25, -_two_ulp, 4.0, 1.0),
    (-0.75, 0.25, -_one_ulp, 4.0, -1.0),
    (-0.7526741919580582, 0.8466528979451513, -1.1838722901519367,
     1.6554051876408835, 1.0),
]


class TestConeProjection:
    @settings(max_examples=300, deadline=None)
    @given(_h, _h, _h, _h, st.sampled_from([1.0, -1.0]))
    @example(*_just_outside[0])
    @example(*_just_outside[1])
    @example(*_just_outside[2])
    @example(*_just_outside[3])
    def test_rebuilt_column_is_monotone_and_nearest(self, p0, h0, h1, h2,
                                                    sign):
        h = (h0, h1, h2)
        col = p0 + sign * np.cumsum([0.0, h0, h1, h2])
        out, _ = _constrain(col[:, None], np.array([sign]))
        moved = out.tobytes() != col[:, None].tobytes()
        got = _cone_projection(*h)
        feasible = fitting._copositive(*(sign * np.diff(col)))
        assert moved != feasible
        if feasible:
            assert out.tobytes() == col[:, None].tobytes()
        if fitting._copositive(*h):
            assert got == h
        assert out[0, 0] == col[0]
        want = Monotonicity.STRICTLY_INCREASING if sign > 0 else (
            Monotonicity.STRICTLY_DECREASING)
        rebuilt = np.diff(out[:, 0]) * sign
        assert fitting._copositive(*rebuilt)
        if max(rebuilt) > 0.0:
            stacked = np.hstack([out, out + 1.0])
            assert is_monotone(RankingCurve(stacked), 0) is want
        best = min(frobenius_gap(c, h) for c in cone_candidates(h))
        assert frobenius_gap(got, h) <= best + 1e-12 * (1.0 + best)
        # on the curved face the candidate may be off by rounding, relative
        # or, where the products are subnormal, absolute
        assert got[0] >= 0.0 and got[2] >= 0.0
        assert got[1] >= 0.0 or (
            got[1] ** 2 <= got[0] * got[2] * (1 + 2.0**-48) + 2.0**-1000)
