"""Meta-criteria audit machinery on small synthetic tables."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rpcurve import evaluation
from rpcurve.baselines import pca_rank
from rpcurve.bezier import RankingCurve, derivative
from rpcurve.data import IndicatorTable, Orientation
from rpcurve.evaluation import (
    REGULARITY_TOL,
    Criterion,
    PipelineRun,
    RankingPipeline,
    Verdict,
    arithmetic_pipeline,
    audit,
    check_linear_compatibility,
    check_monotonicity,
    check_scale_invariance,
    check_smoothness,
    check_translation_invariance,
    collinear_table,
    entropy_pipeline,
    fleming_wallace_table,
    geometric_pipeline,
    pca_pipeline,
    ratio_scale_table,
    replay_witness,
    rpc_pipeline,
    scale_vectors,
    shift_vectors,
)
from rpcurve.fitting import make_ranking


@pytest.fixture(scope="module")
def noisy_table():
    rng = np.random.default_rng(20240519)
    t = np.sort(rng.uniform(size=24))
    base = np.column_stack(
        [
            40 + 160 * t + rng.normal(scale=3.0, size=24),
            5 + 20 * t + rng.normal(scale=0.4, size=24),
            90 - 70 * t + rng.normal(scale=1.5, size=24),
        ]
    )
    return IndicatorTable(
        item_ids=tuple(f"u{i:02d}" for i in range(24)),
        indicator_names=("alpha", "beta", "gamma"),
        orientations=(
            Orientation.POSITIVE,
            Orientation.POSITIVE,
            Orientation.NEGATIVE,
        ),
        values=base,
        provenance="synthetic diagnostic table (generated in-test)",
    )


@pytest.fixture(scope="module")
def rpc_audit(noisy_table):
    """One rpc audit of the noisy table, shared by the tests that read it."""
    return audit(rpc_pipeline(), noisy_table, trials=2)


class TestPerturbationVectors:
    def test_scale_vectors_first_trial(self):
        vecs = scale_vectors(4, 3)
        assert vecs[0][0] == 6.8
        assert all(v.shape == (4,) for v in vecs)
        assert all(np.all(v > 0) for v in vecs)

    def test_shift_vectors_deterministic(self):
        a = shift_vectors(3, 4)
        b = shift_vectors(3, 4)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestInvariance:
    def test_rpc_scale_invariant(self, noisy_table):
        res = check_scale_invariance(rpc_pipeline(), noisy_table, trials=2)
        assert res.verdict is Verdict.PASS

    def test_rpc_translation_invariant(self, noisy_table):
        res = check_translation_invariance(
            rpc_pipeline(), noisy_table, trials=2
        )
        assert res.verdict is Verdict.PASS

    def test_raw_arithmetic_fails_scale_with_witness(self, noisy_table):
        pipe = arithmetic_pipeline(variant="raw")
        res = check_scale_invariance(pipe, noisy_table, trials=4)
        assert res.verdict is Verdict.FAIL
        assert res.witness is not None
        assert res.witness["kind"] == "scale"
        assert replay_witness(pipe, noisy_table, res)

    def test_raw_geometric_passes_scale_fails_shift(self, noisy_table):
        # gamma is negative-oriented; raw geometric needs positives, which
        # this table satisfies
        pipe = geometric_pipeline(variant="raw")
        s = check_scale_invariance(pipe, noisy_table, trials=4)
        assert s.verdict is Verdict.PASS
        tr = check_translation_invariance(pipe, noisy_table, trials=4)
        assert tr.verdict is Verdict.FAIL
        assert tr.witness["kind"] == "shift"
        assert replay_witness(pipe, noisy_table, tr)

    def test_witness_replay_rejects_tampering(self, noisy_table):
        pipe = arithmetic_pipeline(variant="raw")
        res = check_scale_invariance(pipe, noisy_table, trials=4)
        doctored = dict(res.witness)
        doctored["base_orders"] = list(res.witness["perturbed_orders"])
        fake = type(res)(
            criterion=res.criterion,
            verdict=res.verdict,
            evidence=res.evidence,
            witness=doctored,
        )
        assert not replay_witness(pipe, noisy_table, fake)


class TestMonotonicityCheck:
    def test_collinear_fit_is_monotone(self):
        tab = collinear_table()
        pipe = rpc_pipeline()
        curve = pipe.run(tab)[1]
        res = check_monotonicity(curve, tab.orientations)
        assert res.verdict is Verdict.PASS


class TestLinearCompatibility:
    def test_collinear_table_shape(self):
        tab = collinear_table()
        assert tab.n_items == 50
        assert tab.n_indicators == 4
        z = (tab.values - tab.values.min(axis=0)) / (
            tab.values.max(axis=0) - tab.values.min(axis=0)
        )
        # all four normalized columns identical: perfectly collinear
        for j in range(1, 4):
            np.testing.assert_allclose(z[:, j], z[:, 0], atol=1e-12)

    def test_rpc_passes(self):
        res = check_linear_compatibility(rpc_pipeline())
        assert res.verdict is Verdict.PASS

    @staticmethod
    def fixed_run(points, reverse_order=False):
        """A pipeline that skips the fit: the given curve, and the
        first-component ranking of the table (reversed on request)."""
        def run(table):
            pca = pca_rank(table)
            scores = -pca.scores if reverse_order else pca.scores
            ranking = make_ranking(table.item_ids, scores, "fixed")
            return PipelineRun(ranking, RankingCurve(points))

        return RankingPipeline("fixed", run)

    def test_bent_curve_fails_with_its_offset(self):
        points = np.array([[0.0, 0.0, 0.0, 0.0], [0.4, 0.1, 0.5, 0.2],
                           [0.6, 0.9, 0.4, 0.7], [1.0, 1.0, 1.0, 1.0]])
        res = check_linear_compatibility(self.fixed_run(points))
        assert res.verdict is Verdict.FAIL
        assert "order match: True" in res.evidence
        # distance of P1 and P2 from the line P0-P3, over |P3 - P0|
        chord = points[3] - points[0]
        offsets = [
            np.sqrt(v @ v - (v @ chord) ** 2 / (chord @ chord))
            for v in points[1:3] - points[0]
        ]
        want = max(offsets) / np.sqrt(chord @ chord)
        assert res.witness["residual"] == pytest.approx(want, rel=1e-12)
        assert res.witness["curve_orders"] == res.witness["pca_orders"]

    def test_straight_curve_with_reversed_order_fails(self):
        points = np.outer([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 0.5, 4.0])
        res = check_linear_compatibility(
            self.fixed_run(points, reverse_order=True)
        )
        assert res.verdict is Verdict.FAIL
        assert res.evidence.endswith("order match: False")
        # straight to rounding: the order alone fails it
        assert res.witness["residual"] <= evaluation.LINEAR_RESIDUAL_TOL
        assert res.witness["curve_orders"] != res.witness["pca_orders"]


def cusp_curve(c):
    """Control points with C'(t) = (12 (t - c)^2, -6 (t - c)), a cusp at
    t = c; c = 0.5 gives (0, 0), (1, 1), (0, 1), (1, 0)."""
    dx = 4.0 * np.array([c * c, -c * (1.0 - c), (1.0 - c) ** 2])
    dy = 2.0 * np.array([c, c - 0.5, c - 1.0])
    steps = np.column_stack([dx, dy])
    return np.vstack([np.zeros(2), np.cumsum(steps, axis=0)])


def stationary_line(c):
    """C(t) = (t - c)^3 (1, 2): a straight curve whose speed has a double
    zero at t = c."""
    x = np.array([-c**3, c * c - c**3, 2 * c * c - c - c**3, (1 - c) ** 3])
    return np.outer(x, [1.0, 2.0])


def _remainder(a, b):
    """a mod b for exact ascending coefficient lists, b without a leading
    zero; the remainder is trimmed of leading zeros."""
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        a = [x - f * y for x, y in zip(a, [0] * (len(a) - len(b)) + b)]
        while a and a[-1] == 0:
            a.pop()
    return a


def exact_stop(points):
    """Whether C' of the control points, read as exact fractions, vanishes
    on [0, 1]: whether the gcd of the power-basis C'_j, by Euclid over the
    rationals, has a real root there."""
    g = []
    for col in np.asarray(points).T:
        h0, h1, h2 = (Fraction(b) - Fraction(a) for a, b in zip(col, col[1:]))
        p = [h0, 2 * (h1 - h0), h0 - 2 * h1 + h2]
        while p and p[-1] == 0:
            p.pop()
        while p:
            g, p = p, _remainder(g, p)
    if len(g) == 2:
        return 0 <= -g[0] / g[1] <= 1
    if len(g) == 3:  # the C'_j are proportional: a straight curve
        c0, c1, c2 = g
        ends = c0 * (c0 + c1 + c2)
        vertex = -c1 / (2 * c2)
        return c1 * c1 >= 4 * c0 * c2 and (
            ends <= 0 or (0 < vertex < 1 and c0 * c2 > 0))
    return False


FLOAT_MAX = np.finfo(float).max


@st.composite
def wide_curves(draw):
    """One random shape at one random scale of the double range, from
    subnormal control points to ones near the largest float."""
    d = draw(st.integers(1, 3))
    mantissas = draw(st.lists(
        st.floats(-2.0, 2.0, exclude_min=True, exclude_max=True),
        min_size=4 * d, max_size=4 * d))
    points = np.ldexp(np.reshape(mantissas, (4, d)),
                      draw(st.integers(-1074, 1023)))
    assume(not np.array_equal(points[0], points[3]))
    return points


REGULARITY_CASES = {
    "cusp at 0.5": ([[0, 0], [1, 1], [0, 1], [1, 0]], Verdict.FAIL),
    # off every sample grid: the finite-difference check passed it
    "cusp at 0.503": (cusp_curve(0.503), Verdict.FAIL),
    # C'(0) = 3 (P1 - P0) = 0 exactly: the finite-difference check passed it
    "P1 = P0": ([[0, 0], [0, 0], [1, 1], [2, 0]], Verdict.FAIL),
    "stationary point on a line": (stationary_line(0.503), Verdict.FAIL),
    "near-cusp P2 = (0, 1.0001)": (
        [[0, 0], [1, 1], [0, 1.0001], [1, 0]], Verdict.PASS
    ),
}


class TestSmoothness:
    def test_rpc_curve_smooth(self, noisy_table):
        pipe = rpc_pipeline()
        curve = pipe.run(noisy_table)[1]
        res = check_smoothness(curve)
        assert res.verdict is Verdict.PASS

    def test_cusp_helper_reproduces_the_classic_cusp(self):
        np.testing.assert_array_equal(
            cusp_curve(0.5), REGULARITY_CASES["cusp at 0.5"][0]
        )

    @pytest.mark.parametrize("name", sorted(REGULARITY_CASES))
    @pytest.mark.parametrize(
        "scale,shift", [(1.0, 0.0), (1e6, 7.0), (1e160, 0.0), (1e-160, 0.0)]
    )
    def test_exact_regularity_verdict(self, name, scale, shift):
        points, verdict = REGULARITY_CASES[name]
        curve = RankingCurve(np.asarray(points, dtype=float) * scale + shift)
        res = check_smoothness(curve)
        assert res.verdict is verdict, res.evidence
        assert f"{REGULARITY_TOL:.0e}" in res.evidence
        if verdict is Verdict.FAIL:
            assert res.witness["ratio"] <= REGULARITY_TOL
            # |C'| of the control points scaled by the power of two that
            # keeps |C'|^2 in range, scaled back: exact at any scale
            cp = curve.control_points
            e = int(np.frexp(np.abs(np.diff(cp, axis=0)).max())[1])
            tangent = derivative(RankingCurve(np.ldexp(cp, -e)),
                                 res.witness["t"])
            assert res.witness["speed"] == np.ldexp(np.linalg.norm(tangent), e)

    @pytest.mark.parametrize("c", [0.6729417759986215, 0.12442135539955654])
    def test_stop_of_shifted_line_fails(self, c):
        # 3 + 1e-6 C(t) rounds each control point, yet the rounded ones
        # still stop exactly; power coefficients of C would sum the shared
        # offset 3 and lose the stop
        points = stationary_line(c) * 1e-6 + 3.0
        assert exact_stop(points)
        res = check_smoothness(RankingCurve(points))
        assert res.verdict is Verdict.FAIL, res.evidence

    @settings(max_examples=100, deadline=None)
    @given(wide_curves())
    @example(np.array([[-1, 1], [1, 1], [-1, -1], [1, -1]]) * FLOAT_MAX)
    @example(np.array([[0.0], [0.0], [0.0], [5e-324]]))
    def test_ratio_is_never_nan(self, points):
        res = check_smoothness(RankingCurve(points))
        assert "nan" not in res.evidence, res.evidence

    def test_witness_speed_beside_a_subnormal_hodograph_coordinate(self):
        # the scaled C' is about 1 at the ends and (0, 3 * 2**-1026) at
        # t = 0.5: its norm must not square that y to 0
        curve = RankingCurve([[-1e308, 0], [1e308, 1], [-1e308, 2],
                              [1e308, 3]])
        res = check_smoothness(curve)
        assert res.verdict is Verdict.FAIL, res.evidence
        assert res.witness["t"] == 0.5
        assert res.witness["speed"] == 3.0
        assert 0.0 < res.witness["ratio"] <= REGULARITY_TOL


    def test_offsets_near_1e_160_fail_without_raising(self):
        # |C'|^2 has coefficients near 1e-320 beside ones near 1: the root
        # finder must not divide by them
        curve = RankingCurve([[0, 0], [0, 1e-160], [1, 0], [3, 2e-160]])
        res = check_smoothness(curve)
        assert res.verdict is Verdict.FAIL, res.evidence
        assert res.witness["t"] == 0.0


def _second_derivative_bound(points):
    """max |C''| over [0, 1], bounded by the second-difference hull."""
    return 6.0 * np.linalg.norm(np.diff(points, n=2, axis=0), axis=1).max()


# control points on a 1e-5 grid in [-10, 10]
_coord = st.integers(-(10**6), 10**6).map(lambda k: k / 1e5)


@st.composite
def curves_with_zero(draw):
    """A random cubic and, if ``stop`` is set, the same first two
    hodograph steps with the last one solved so that C'(stop) = 0."""
    d = draw(st.integers(1, 3))
    points = np.array(
        draw(st.lists(st.lists(_coord, min_size=d, max_size=d),
                      min_size=4, max_size=4)),
        dtype=float,
    )
    stop = draw(st.one_of(st.none(), st.floats(0.05, 1.0)))
    if stop is not None:
        steps = np.diff(points, axis=0)
        b0, b1, b2 = (1 - stop) ** 2, 2 * stop * (1 - stop), stop**2
        steps[2] = -(b0 * steps[0] + b1 * steps[1]) / b2
        points = np.vstack([points[:1], points[0] + np.cumsum(steps, axis=0)])
    assume(not np.array_equal(points[0], points[3]))
    return points, stop


class TestSmoothnessProperties:
    @settings(max_examples=60, deadline=None)
    @given(curves_with_zero())
    def test_verdict_agrees_with_dense_sampling(self, case):
        points, stop = case
        curve = RankingCurve(points)
        res = check_smoothness(curve)
        speeds = np.linalg.norm(
            derivative(curve, np.linspace(0.0, 1.0, 200001)), axis=1
        )
        # neighbouring samples are 5e-6 apart: the true extremes of |C'|
        # lie within 2.5e-6 * max |C''| of the sampled ones
        slack = 2.5e-6 * _second_derivative_bound(points)
        if stop is not None:
            assert speeds.min() <= slack + 1e-9
            assert res.verdict is Verdict.FAIL, res.evidence
        elif speeds.min() - slack > 1e-6 * (speeds.max() + slack):
            assert res.verdict is Verdict.PASS, res.evidence


class TestNoFreeParameters:
    def test_rpc_counts_four_per_dimension(self, rpc_audit):
        res = rpc_audit.get(Criterion.NO_FREE_PARAMETERS)
        assert res.verdict is Verdict.PASS
        assert "12 fitted parameters" in res.evidence

    def test_declared_weights_fail(self, noisy_table):
        pipe = arithmetic_pipeline(
            weights=[0.5, 0.3, 0.2], variant="normalized"
        )
        res = audit(pipe, noisy_table, trials=1).get(
            Criterion.NO_FREE_PARAMETERS
        )
        assert res.verdict is Verdict.FAIL
        assert res.witness == {"declared_free_parameters": ["weights"]}


class TestReproducibility:
    def test_rpc_repro(self, rpc_audit):
        res = rpc_audit.get(Criterion.REPRODUCIBILITY)
        assert res.verdict is Verdict.PASS


class TestAudit:
    def test_every_criterion_reported_once(self, rpc_audit):
        seen = [r.criterion for r in rpc_audit.results]
        assert seen == list(Criterion)

    def test_rpc_all_applicable_pass(self, rpc_audit):
        assert rpc_audit.all_applicable_pass

    def test_baselines_get_not_applicable_for_curve_criteria(
        self, noisy_table
    ):
        report = audit(entropy_pipeline(), noisy_table, trials=2)
        na = {
            r.criterion
            for r in report.results
            if r.verdict is Verdict.NOT_APPLICABLE
        }
        assert Criterion.STRICT_MONOTONICITY in na
        assert Criterion.SMOOTHNESS in na

    def test_pca_is_shift_invariant_but_not_scale(self, noisy_table):
        report = audit(pca_pipeline(), noisy_table, trials=4)
        tr = report.get(Criterion.TRANSLATION_INVARIANCE)
        assert tr.verdict is Verdict.PASS

    def test_render_text_mentions_each_criterion(self, rpc_audit):
        text = rpc_audit.render_text()
        for c in Criterion:
            assert c.value in text


class TestAuditRuns:
    @pytest.mark.parametrize("trials", [1, 2])
    def test_rpc_audit_makes_two_t_plus_three_runs(
        self, noisy_table, trials, monkeypatch
    ):
        """One shared base run, T perturbed runs per invariance criterion,
        the collinear fit and one Reproducibility rerun; every run one fit."""
        fits, runs = [], []
        fit_table = evaluation.fit_table

        def counted_fit(table, config):
            fits.append(table)
            return fit_table(table, config)

        monkeypatch.setattr(evaluation, "fit_table", counted_fit)
        pipe = rpc_pipeline()

        def counted_run(table):
            runs.append(table)
            return pipe.run(table)

        counted = dataclasses.replace(pipe, run=counted_run)
        report = audit(counted, noisy_table, trials=trials)
        assert report.all_applicable_pass
        assert len(runs) == 2 * trials + 3
        assert len(fits) == 2 * trials + 3

    def test_failed_base_run_fails_every_run_dependent_criterion(
        self, noisy_table
    ):
        def broken(table):
            raise ValueError("no ranking today")

        report = audit(RankingPipeline("broken", broken), noisy_table, trials=2)
        assert [r.criterion for r in report.results] == list(Criterion)
        for r in report.results[:-1]:
            assert r.verdict is Verdict.FAIL, r.criterion
            assert r.evidence.startswith("pipeline error:"), r.criterion
            assert "no ranking today" in r.evidence
        open_data = report.get(Criterion.OPEN_DATA_DECLARED)
        assert open_data.verdict is Verdict.PASS
        assert noisy_table.provenance in open_data.evidence

    def test_failed_rerun_fails_only_the_rerun_criteria(self, noisy_table):
        pipe = pca_pipeline()
        runs = []

        def flaky(table):
            runs.append(table)
            if len(runs) == 4:  # base, one scale, one shift, then the rerun
                raise ValueError("second run broke")
            return pipe.run(table)

        report = audit(RankingPipeline("flaky", flaky), noisy_table, trials=1)
        rerun_criteria = {
            Criterion.NO_FREE_PARAMETERS,
            Criterion.REPRODUCIBILITY,
        }
        for r in report.results:
            if r.criterion in rerun_criteria:
                assert r.verdict is Verdict.FAIL
                assert r.evidence.startswith("pipeline error:")
            else:
                assert not r.evidence.startswith("pipeline error:")


class TestNamedTables:
    def test_fleming_wallace_rows(self):
        tab = fleming_wallace_table()
        assert tab.n_items == 3
        assert tab.n_indicators == 2
        np.testing.assert_array_equal(
            tab.values, [[10, 100], [50, 40], [30, 70]]
        )

    def test_ratio_scale_rows(self):
        tab = ratio_scale_table()
        np.testing.assert_array_equal(
            tab.values, [[1, 100], [12, 12], [5, 45]]
        )
