"""Acceptance gate: eleven checks over the bundled 2005 snapshot.

Each test prints a single PASS/FAIL line so the gate can be read off a
plain pytest -s run.  Tolerances and runtime budgets are part of the
contract and asserted, not just reported.  Runtime budgets time only calls
into rpcurve, never the test's own oracles or setup.
"""

import json
import time

import numpy as np
import scipy.stats

from rpcurve.baselines import (
    pca_rank,
    published_curve_orders,
    published_curve_scores,
)
from rpcurve.bezier import Monotonicity, evaluate, is_monotone
from rpcurve.cli import main as cli_main
from rpcurve.data import load_bundled_table
from rpcurve.evaluation import (
    Criterion,
    Verdict,
    arithmetic_pipeline,
    audit,
    check_scale_invariance,
    check_translation_invariance,
    collinear_table,
    fleming_wallace_table,
    geometric_pipeline,
    ratio_scale_table,
    replay_witness,
    rpc_pipeline,
)
from rpcurve.fitting import FitConfig, fit_table, rank, save_fit

TOP5 = ("Luxembourg", "Norway", "Kuwait", "Singapore", "United States")
MID_WINDOW = {"China": (75, 81)}
MID_TOL = 3  # Turkey, Iran, Armenia, Samoa: published order +/- 3


def emit(label, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"acceptance {label}: {state}{tail}")
    return ok


def random_curve(rng, d):
    from rpcurve.bezier import BestEnd, RankingCurve

    while True:
        P = rng.normal(size=(4, d))
        if not np.array_equal(P[0], P[3]):
            return RankingCurve(control_points=P, best_end=BestEnd.AT_T1)


def test_01_top_five_order(bundled_table):
    start = time.perf_counter()
    curve, report = fit_table(bundled_table)
    ranking = rank(bundled_table, curve)
    elapsed = time.perf_counter() - start
    first5 = tuple(
        r["id"] for r in sorted(ranking.to_rows(), key=lambda r: r["order"])[:5]
    )
    ok = first5 == TOP5 and elapsed < 10.0
    assert emit(
        "01 top-five order",
        ok,
        f"got {list(first5)}, {elapsed:.1f}s",
    )


def test_02_mid_table_window(bundled_table, bundled_fit):
    curve, _ = bundled_fit
    ranking = rank(bundled_table, curve)
    orders = ranking.order_by_id()
    published = published_curve_orders()
    bad = []
    lo, hi = MID_WINDOW["China"]
    if not (lo <= orders["China"] <= hi):
        bad.append(f"China={orders['China']}")
    for name in ("Turkey", "Iran", "Armenia", "Samoa"):
        want = published[name]
        got = orders[name]
        if abs(got - want) > MID_TOL:
            bad.append(f"{name}={got} (published {want})")
    got_all = {
        n: orders[n]
        for n in ("Turkey", "Iran", "Armenia", "China", "Samoa")
    }
    assert emit(
        "02 mid-table window",
        not bad,
        f"orders {got_all}" + (f"; out of band: {bad}" if bad else ""),
    )


def test_03_score_correlation(bundled_table, bundled_fit):
    curve, _ = bundled_fit
    ranking = rank(bundled_table, curve)
    mine = ranking.score_by_id()
    published = published_curve_scores()
    names = sorted(published)
    rho = scipy.stats.spearmanr(
        [mine[n] for n in names], [published[n] for n in names]
    ).statistic
    assert emit(
        "03 published-score correlation", rho >= 0.95, f"spearman {rho:.4f}"
    )


def test_04_rescaling_and_shifts(bundled_table):
    pipe = rpc_pipeline()
    base = pipe.run(bundled_table).orders
    gdp_scaled = bundled_table.values * np.array([6.8, 1.0, 1.0, 1.0])
    scaled_orders = pipe.run(bundled_table.with_values(gdp_scaled)).orders
    ok = np.array_equal(base, scaled_orders)
    details = []
    if not ok:
        details.append("GDP x 6.8 changed the order")
    shifts = (100.0, 10.0, -0.5, 3.75)
    for j, amount in enumerate(shifts):
        vec = np.zeros(4)
        vec[j] = amount
        shifted = pipe.run(
            bundled_table.with_values(bundled_table.values + vec)
        ).orders
        if not np.array_equal(base, shifted):
            ok = False
            details.append(f"shift {amount:+g} on dim {j} changed the order")
    assert emit(
        "04 scale/translation invariance", ok, "; ".join(details) or "6 reruns"
    )


def test_05_projection_oracle():
    from rpcurve.projection import project_point

    rng = np.random.default_rng(20240521)
    m = 10**6
    ts = np.linspace(0.0, 1.0, m)
    basis = np.stack(
        [
            (1 - ts) ** 3,
            3 * ts * (1 - ts) ** 2,
            3 * ts**2 * (1 - ts),
            ts**3,
        ],
        axis=1,
    )
    # the oracle's squared distances, summed column by column into one
    # buffer instead of from a 10**6 x d grid and its difference
    d2, col = np.empty(m), np.empty(m)
    projector_seconds = 0.0
    oracle_seconds = 0.0
    worst_gap = 0.0
    worst_dt = 0.0
    failures = 0
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        c = random_curve(rng, d)
        if rng.uniform() < 0.5:
            x = evaluate(c, float(rng.uniform())) + rng.normal(
                scale=0.05, size=d
            )
        else:
            x = rng.normal(scale=2.0, size=d)
        start = time.perf_counter()
        r = project_point(c, x)
        projector_seconds += time.perf_counter() - start
        start = time.perf_counter()
        d2.fill(0.0)
        for j in range(d):
            np.matmul(basis, c.control_points[:, j], out=col)
            col -= x[j]
            np.square(col, out=col)
            d2 += col
        i = int(np.argmin(d2))
        oracle_seconds += time.perf_counter() - start
        gap = r.distance**2 - float(d2[i])
        worst_gap = max(worst_gap, gap)
        if gap > 1e-12:
            failures += 1
            continue
        dt = abs(r.t - ts[i])
        if dt > 1e-4 and abs(r.distance**2 - float(d2[i])) > 1e-9:
            failures += 1
            worst_dt = max(worst_dt, dt)
    ok = failures == 0 and projector_seconds < 60.0
    assert emit(
        "05 projection oracle",
        ok,
        f"1000 instances, {failures} failures, worst gap {worst_gap:.2e}, "
        f"worst dt {worst_dt:.2e}, projector {projector_seconds:.1f}s, "
        f"oracle {oracle_seconds:.1f}s",
    )


def test_06_linear_compatibility():
    table = collinear_table(n=50, d=4)
    curve, _ = fit_table(table)
    P = curve.control_points
    chord = P[3] - P[0]
    L = float(np.linalg.norm(chord))
    u = chord / L
    rel = P[1:3] - P[0]
    perp = rel - np.outer(rel @ u, u)
    residual = float(np.abs(np.linalg.norm(perp, axis=1)).max()) / L
    rpc_orders = rank(table, curve).orders
    pca_orders = pca_rank(table).orders
    ok = residual <= 1e-6 and np.array_equal(rpc_orders, pca_orders)
    assert emit(
        "06 linear compatibility",
        ok,
        f"residual {residual:.2e}, orders equal: "
        f"{bool(np.array_equal(rpc_orders, pca_orders))}",
    )


def test_07_strict_monotonicity(bundled_fit):
    curve, _ = bundled_fit
    verdicts = [is_monotone(curve, j) for j in range(curve.dim)]
    ok = all(v is not Monotonicity.NOT_MONOTONE for v in verdicts)
    assert emit(
        "07 strict monotonicity",
        ok,
        ", ".join(v.value for v in verdicts),
    )


def test_08_parameter_determinacy(bundled_table, tmp_path):
    c1, r1 = fit_table(bundled_table)
    c2, r2 = fit_table(bundled_table)
    identical = (
        c1.control_points.tobytes() == c2.control_points.tobytes()
        and r1.distances == r2.distances
    )
    out = tmp_path / "fit.json"
    save_fit(out, c1, r1, rank(bundled_table, c1))
    payload = json.loads(out.read_text(encoding="utf-8"))
    serialized = payload["curve"]["control_points"]
    count = sum(len(row) for row in serialized)
    c8, _ = fit_table(bundled_table, FitConfig(workers=8))
    workers_same = c1.control_points.tobytes() == c8.control_points.tobytes()
    ok = identical and count == 16 and workers_same
    assert emit(
        "08 parameter determinacy",
        ok,
        f"bit-identical={identical}, params={count}, workers1==8={workers_same}",
    )


def test_09_smoothness():
    from rpcurve.bezier import derivative

    rng = np.random.default_rng(20240522)
    h = 1e-6
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        c = random_curve(rng, d)
        t = float(rng.uniform(h, 1.0 - h))
        analytic = derivative(c, t)
        fd = (evaluate(c, t + h) - evaluate(c, t - h)) / (2.0 * h)
        rel = float(
            np.linalg.norm(analytic - fd)
            / max(1.0, np.linalg.norm(analytic))
        )
        worst = max(worst, rel)
    ok = worst <= 1e-6
    assert emit("09 smoothness", ok, f"worst relative error {worst:.2e}")


def test_10_method_audits(bundled_table):
    rpc_report = audit(rpc_pipeline(), bundled_table, trials=2)
    rpc_ok = rpc_report.all_applicable_pass

    fw = fleming_wallace_table()
    arith = arithmetic_pipeline(variant="raw")
    arith_res = check_scale_invariance(arith, fw, trials=4)
    arith_ok = arith_res.verdict is Verdict.FAIL and replay_witness(
        arith, fw, arith_res
    )

    ratio = ratio_scale_table()
    geo = geometric_pipeline(variant="raw")
    geo_scale = check_scale_invariance(geo, ratio, trials=4)
    geo_shift = check_translation_invariance(geo, ratio, trials=4)
    geo_ok = (
        geo_scale.verdict is Verdict.PASS
        and geo_shift.verdict is Verdict.FAIL
        and replay_witness(geo, ratio, geo_shift)
    )

    failing = [
        r.criterion.value
        for r in rpc_report.results
        if r.verdict is Verdict.FAIL
    ]
    ok = rpc_ok and arith_ok and geo_ok
    assert emit(
        "10 method audits",
        ok,
        f"rpc fail list {failing or 'none'}, arithmetic witness "
        f"replay {arith_ok}, geometric witness replay {geo_ok}",
    )


def test_11_plot_bundle(bundled_table, bundled_fit, tmp_path):
    from rpcurve.data import bundled_data_path

    curve, report = bundled_fit
    fitfile = tmp_path / "fit.json"
    save_fit(fitfile, curve, report, rank(bundled_table, curve))
    outdir = tmp_path / "plots"
    code = cli_main([
        "plotdata",
        "--data", str(bundled_data_path()),
        "--curve", str(fitfile),
        "--out", str(outdir),
    ])
    hists = sorted(outdir.glob("hist_*.csv"))
    pairs = sorted(outdir.glob("pair_*.csv"))
    sums_ok = True
    for h in hists:
        lines = h.read_text(encoding="utf-8").splitlines()[1:]
        total = sum(int(line.rsplit(",", 1)[1]) for line in lines)
        sums_ok = sums_ok and total == 171
    ok = code == 0 and len(hists) == 4 and len(pairs) == 6 and sums_ok
    assert emit(
        "11 plot bundle",
        ok,
        f"{len(hists)} histograms, {len(pairs)} panels, counts ok {sums_ok}",
    )
