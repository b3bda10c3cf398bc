"""Correctness checks of each workload's outputs.

Every check takes plain data (arrays, lists, file paths) and returns a list
of problems, empty when the outputs are right.  Expected values come from
:mod:`oracle`, from the published 2005 results, or from properties the
method must have; none comes from a saved copy of the program's output.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import oracle

T_TOL = 1e-12  # squared-distance slack of a returned t over the oracle's
SPEARMAN_TOL = 1e-12
ON_CURVE_TOL = 1e-9

TOP5 = ("Luxembourg", "Norway", "Kuwait", "Singapore", "United States")
NEAR_PUBLISHED = ("Turkey", "Iran", "Armenia", "Samoa")  # published order +/- 3
CHINA_WINDOW = (75, 81)
MIN_PUBLISHED_SPEARMAN = 0.95

CRITERIA = (
    "ScaleInvariance",
    "TranslationInvariance",
    "StrictMonotonicity",
    "LinearCompatibility",
    "Smoothness",
    "NoFreeParameters",
    "Reproducibility",
    "OpenDataDeclared",
)

VERDICT_SIGN = {
    "strictly-increasing": 1,
    "strictly-decreasing": -1,
    "not-monotone": 0,
}


def params(scores, best_end: str) -> np.ndarray:
    """Curve parameters behind scores: the score is t, or 1 - t when the
    best end sits at t = 0."""
    s = np.asarray(scores, dtype=float)
    return s if best_end == "at_t1" else 1.0 - s


def check_ranking(label, ids, expected_ids, scores, orders) -> list[str]:
    """Rows in input order, scores in [0, 1], competition orders."""
    problems = []
    if list(ids) != list(expected_ids):
        problems.append(f"{label}: item ids differ from the input rows")
    s = np.asarray(scores, dtype=float)
    if s.size and not (np.all(s >= 0.0) and np.all(s <= 1.0)):
        problems.append(f"{label}: scores outside [0, 1]")
    want = oracle.competition_orders(s)
    bad = np.flatnonzero(np.asarray(orders) != want)
    if bad.size:
        problems.append(
            f"{label}: {bad.size} orders are not competition ranks of the "
            f"scores (first: row {bad[0]}, order {orders[bad[0]]}, "
            f"expected {want[bad[0]]})"
        )
    return problems


def check_feet(label, pts, best_end, z, scores) -> list[str]:
    """Each row's t must reach the oracle's minimum squared distance."""
    gaps = oracle.projection_gaps(pts, z, params(scores, best_end))
    bad = np.flatnonzero(gaps > T_TOL)
    if bad.size:
        return [
            f"{label}: {bad.size} rows miss the oracle's foot (worst squared "
            f"distance gap {gaps.max():.3e} > {T_TOL:.0e})"
        ]
    return []


def check_directions(label, pts, best_end, signs) -> list[str]:
    """Every dimension strictly monotone in its orientation's direction."""
    want = [s if best_end == "at_t1" else -s for s in signs]
    got = oracle.monotonicity(pts)
    if got != want:
        return [f"{label}: monotonicity {got}, expected {want}"]
    return []


def check_bundled_fit(out: dict, ref: dict) -> list[str]:
    """One bundled fit.

    ``out``: ids, scores, orders, control_points, best_end, distances,
    monotonicity (the program's verdict strings) and the reloaded curve's
    control_points and best_end.  ``ref``: the bundled table normalized by
    the benchmark (z), its orientation signs, and the published orders and
    scores.
    """
    ids, scores, orders = out["ids"], out["scores"], out["orders"]
    pts, best_end = out["control_points"], out["best_end"]
    problems = check_ranking("bundled fit", ids, ref["ids"], scores, orders)
    if list(ids) != list(ref["ids"]):
        return problems
    order_of = dict(zip(ids, np.asarray(orders).tolist()))
    top5 = tuple(sorted(ids, key=lambda i: order_of[i])[:5])
    if top5 != TOP5:
        problems.append(f"bundled fit: top five {top5}, expected {TOP5}")
    for name in NEAR_PUBLISHED:
        if abs(order_of[name] - ref["published_orders"][name]) > 3:
            problems.append(
                f"bundled fit: {name} at {order_of[name]}, published "
                f"{ref['published_orders'][name]} +/- 3"
            )
    lo, hi = CHINA_WINDOW
    if not lo <= order_of["China"] <= hi:
        problems.append(f"bundled fit: China at {order_of['China']}, "
                        f"expected {lo}-{hi}")
    score_of = dict(zip(ids, np.asarray(scores, dtype=float).tolist()))
    names = sorted(ref["published_scores"])
    rho = oracle.spearman([score_of[n] for n in names],
                          [ref["published_scores"][n] for n in names])
    if not rho >= MIN_PUBLISHED_SPEARMAN:
        problems.append(f"bundled fit: Spearman {rho:.4f} against the "
                        f"published scores, expected >= 0.95")
    problems += check_feet("bundled fit", pts, best_end, ref["z"], scores)
    d = np.asarray(out["distances"], dtype=float)
    if np.any(np.diff(d) > 0.0):
        problems.append("bundled fit: reported distances increase")
    problems += check_directions("bundled fit", pts, best_end, ref["signs"])
    verdicts = [VERDICT_SIGN.get(v) for v in out["monotonicity"]]
    if verdicts != oracle.monotonicity(pts):
        problems.append(
            f"bundled fit: reported monotonicity {out['monotonicity']} "
            f"disagrees with the control points"
        )
    if not (np.array_equal(out["reloaded_points"], pts)
            and out["reloaded_best_end"] == best_end):
        problems.append("bundled fit: saved curve reloads differently")
    return problems


def check_score_bulk(out: dict, ref: dict) -> list[str]:
    """One bulk scoring pass.

    ``out``: ids, scores, orders as written, and the sample's scores when
    the sample rows are scored on their own (sample_alone).  ``ref``: input
    ids, curve control points and best end, the sample's row indices and
    normalized rows.
    """
    scores = np.asarray(out["scores"], dtype=float)
    problems = check_ranking("score-bulk", out["ids"], ref["ids"], scores,
                             out["orders"])
    if problems:
        return problems
    sample = ref["sample"]
    problems += check_feet("score-bulk sample", ref["points"],
                           ref["best_end"], ref["sample_z"], scores[sample])
    alone = np.asarray(out["sample_alone"], dtype=float)
    worst = float(np.max(np.abs(alone - scores[sample])))
    if not worst <= T_TOL:
        problems.append(
            f"score-bulk: the sample scored on its own differs by {worst:.3e}"
        )
    return problems


def check_audit(criteria) -> list[str]:
    """``criteria``: (name, verdict) pairs as the audit reported them."""
    names = [c for c, _ in criteria]
    if names != list(CRITERIA):
        return [f"audit: criteria {names}, expected {list(CRITERIA)}"]
    failing = [f"{c}={v}" for c, v in criteria if v != "Pass"]
    if failing:
        return [f"audit: criteria not passing for rpc: {failing}"]
    return []


# ---------------------------------------------------------------- cli-session

def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return [r for r in csv.reader(fh) if r]


def _ranking_csv(path):
    _, *rows = _read_rows(path)
    return ([r[0] for r in rows], np.array([float(r[1]) for r in rows]),
            np.array([int(r[2]) for r in rows]))


def _ranking_json(path):
    with open(path, encoding="utf-8") as fh:
        items = json.load(fh)["items"]
    return ([i["id"] for i in items], np.array([i["score"] for i in items]),
            np.array([i["order"] for i in items]))


def check_cli_outputs(out: Path, stdout: dict, ref: dict) -> list[str]:
    """Outputs of one CLI session in directory ``out``.

    ``stdout`` maps each command label that exited as expected to its
    output text; only those commands' files are checked.  ``ref`` holds the
    curve (points, best_end, mins, maxs), the bundled table (ids, raw,
    names) and the small request tables by label (ids, raw).
    """
    problems: list[str] = []
    pts, best_end = ref["points"], ref["best_end"]

    def z_of(raw):
        return oracle.scale(raw, ref["mins"], ref["maxs"])

    def ranking(label, got, ids, raw):
        got_ids, scores, orders = got
        found = check_ranking(label, got_ids, ids, scores, orders)
        if not found:
            found = check_feet(label, pts, best_end, z_of(raw), scores)
        return found

    full = {label: read(out / name) for label, name, read in (
        ("rank_csv", "rank.csv", _ranking_csv),
        ("rank_json", "rank.json", _ranking_json),
    ) if label in stdout}
    for label, got in full.items():
        problems += ranking(label, got, ref["ids"], ref["raw"])
    if len(full) == 2:
        a, b = full.values()
        if not (a[0] == b[0] and np.array_equal(a[1], b[1])
                and np.array_equal(a[2], b[2])):
            problems.append("rank: CSV and JSON rankings disagree")
    for label, name in (("rank_rows8", "rows8"), ("rank_row1", "row1"),
                        ("rank_equal_col", "equal")):
        if label in stdout:
            problems += ranking(label, _ranking_csv(out / f"{name}.out.csv"),
                                *ref["requests"][name])
    if "compare" in stdout:
        problems += _check_compare(out / "compare.json", ref["methods"])
    if "check" in stdout:
        lines = [ln.split() for ln in stdout["check"].splitlines()]
        if ["ScaleInvariance", "Fail"] not in [ln[:2] for ln in lines]:
            problems.append("check arithmetic: ScaleInvariance does not fail")
    if "plotdata" in stdout:
        problems += _check_plots(out / "plots", ref, z_of(ref["raw"]))
    return problems


def _check_compare(path, methods) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        cmp = json.load(fh)
    if cmp["methods"] != list(methods):
        return [f"compare: methods {cmp['methods']}, expected {methods}"]
    problems = []
    cols = []
    for m in methods:
        scores = np.array([row[f"{m}_score"] for row in cmp["items"]])
        orders = np.array([row[f"{m}_order"] for row in cmp["items"]])
        if not np.array_equal(orders, oracle.competition_orders(scores)):
            problems.append(f"compare: {m} orders are not competition ranks")
        cols.append(scores)
    for a in range(len(methods)):
        for b in range(len(methods)):
            want = oracle.spearman(cols[a], cols[b])
            got = cmp["spearman"][a][b]
            if not abs(got - want) <= SPEARMAN_TOL:
                problems.append(
                    f"compare: Spearman {methods[a]}/{methods[b]} is {got}, "
                    f"recomputed {want}"
                )
    return problems


def _check_plots(plots: Path, ref, z) -> list[str]:
    problems = []
    names = ref["names"]
    for name in names:
        _, *rows = _read_rows(plots / f"hist_{name}.csv")
        total = sum(int(r[2]) for r in rows)
        if total != len(ref["ids"]):
            problems.append(f"plotdata: hist_{name} counts {total} items")
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            _, *rows = _read_rows(plots / f"pair_{names[a]}_{names[b]}.csv")
            data = np.array([[float(r[2]), float(r[3])] for r in rows
                             if r[0] == "data"])
            curve = np.array([[float(r[2]), float(r[3])] for r in rows
                              if r[0] == "curve"])
            if data.shape != (len(ref["ids"]), 2) or not np.allclose(
                    data, z[:, [a, b]], rtol=0.0, atol=1e-12):
                problems.append(f"plotdata: pair {names[a]}/{names[b]} data "
                                f"rows are not the normalized table")
            if not len(curve):
                problems.append(f"plotdata: pair {names[a]}/{names[b]} has "
                                f"no curve rows")
                continue
            _, d2 = oracle.project(ref["points"][:, [a, b]], curve, grid=2049)
            if not np.all(d2 <= ON_CURVE_TOL**2):
                problems.append(
                    f"plotdata: pair {names[a]}/{names[b]} curve rows lie up "
                    f"to {np.sqrt(d2.max()):.3e} off the curve"
                )
    return problems
