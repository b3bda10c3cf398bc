"""Every workload's check accepts the program's outputs and rejects wrong ones.

Each check is fed real outputs, then the same outputs with scores shifted,
two orders swapped, or one t moved off its foot.

Run with: python3 -m pytest perfbench
"""

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import checks  # noqa: E402
import prepare  # noqa: E402
import run  # noqa: E402
from rpcurve import cli, data, fitting  # noqa: E402


def swap_two(orders, a=0, b=1):
    out = np.array(orders)
    out[[a, b]] = out[[b, a]]
    return out


def mid_item(scores):
    return int(np.argsort(scores)[len(scores) // 2])


# ---------------------------------------------------------------- bundled-fit

@pytest.fixture(scope="module")
def bundled(tmp_path_factory):
    table = data.load_bundled_table()
    curve, report = fitting.fit_table(table)
    ranking = fitting.rank(table, curve)
    path = tmp_path_factory.mktemp("fit") / "fit.json"
    fitting.save_fit(path, curve, report, ranking)
    out = run.fit_outputs(curve, report, ranking, fitting.load_curve(path))
    return out, run.bundled_ref()


def test_bundled_fit_accepts_the_fit(bundled):
    out, ref = bundled
    assert checks.check_bundled_fit(out, ref) == []


def test_bundled_fit_rejects_shifted_scores(bundled):
    out, ref = bundled
    wrong = dict(out, scores=out["scores"] - 0.01)
    assert checks.check_bundled_fit(wrong, ref)


def test_bundled_fit_rejects_swapped_orders(bundled):
    out, ref = bundled
    wrong = dict(out, orders=swap_two(out["orders"]))
    assert any("competition" in p for p in checks.check_bundled_fit(wrong, ref))


def test_bundled_fit_rejects_t_off_the_foot(bundled):
    out, ref = bundled
    scores = np.array(out["scores"])
    scores[mid_item(scores)] += 1e-4
    orders = checks.oracle.competition_orders(scores)
    wrong = dict(out, scores=scores, orders=orders)
    assert any("foot" in p for p in checks.check_bundled_fit(wrong, ref))


def test_bundled_fit_rejects_a_bad_reload_or_increasing_distances(bundled):
    out, ref = bundled
    moved = np.array(out["reloaded_points"])
    moved[1, 0] += 1e-9
    assert checks.check_bundled_fit(dict(out, reloaded_points=moved), ref)
    rising = list(out["distances"]) + [out["distances"][-1] * 1.001]
    assert checks.check_bundled_fit(dict(out, distances=rising), ref)


# ----------------------------------------------------------------- score-bulk

@pytest.fixture(scope="module")
def bulk(tmp_path_factory):
    work = tmp_path_factory.mktemp("bulk")
    inputs = work / "inputs"
    inputs.mkdir()
    prepare.write_csv(inputs / "bulk.csv", prepare.bulk_rows(SRC, 11, n=400))
    with open(inputs / "curve.json", "w", encoding="utf-8") as fh:
        json.dump(prepare.published_curve(SRC), fh)
    table = data.load_table(inputs / "bulk.csv",
                            data.load_schema(run.BUNDLED_SCHEMA))
    ranking = fitting.rank(table, fitting.load_curve(inputs / "curve.json"))
    run.write_ranking(work / "ranking.csv", ranking)
    return work, inputs, ranking


def bulk_problems_with(bulk, scores, orders):
    work, inputs, ranking = bulk
    dest = work / "wrong.csv"
    with open(dest, "w", encoding="utf-8") as fh:
        fh.write("id,score,order\n")
        for i, s, o in zip(ranking.item_ids, scores, orders):
            fh.write(f"{i},{float(s)!r},{int(o)}\n")
    return run.bulk_problems(inputs, dest, work, seed=11)


def test_score_bulk_accepts_the_ranking(bulk):
    work, inputs, ranking = bulk
    assert run.bulk_problems(inputs, work / "ranking.csv", work, seed=11) == []
    assert bulk_problems_with(bulk, ranking.scores, ranking.orders) == []


def test_score_bulk_rejects_shifted_scores(bulk):
    _, _, ranking = bulk
    assert bulk_problems_with(bulk, ranking.scores * 0.9 + 0.05,
                              ranking.orders)


def test_score_bulk_rejects_swapped_orders(bulk):
    _, _, ranking = bulk
    a, b = np.argsort(ranking.scores)[[0, -1]]
    assert bulk_problems_with(bulk, ranking.scores,
                              swap_two(ranking.orders, a, b))


def test_score_bulk_rejects_t_off_the_foot(bulk):
    _, _, ranking = bulk
    scores = np.array(ranking.scores)
    scores[(scores > 0.01) & (scores < 0.99)] -= 1e-4  # sampled rows too
    problems = bulk_problems_with(bulk, scores,
                                  checks.oracle.competition_orders(scores))
    assert any("foot" in p for p in problems)


# ------------------------------------------------------------------ audit-rpc

def test_audit_accepts_all_passing_in_order():
    assert checks.check_audit([(c, "Pass") for c in checks.CRITERIA]) == []


def test_audit_rejects_a_failing_or_missing_or_reordered_criterion():
    good = [(c, "Pass") for c in checks.CRITERIA]
    assert checks.check_audit(good[:4] + [(good[4][0], "Fail")] + good[5:])
    assert checks.check_audit(good[:-1])
    assert checks.check_audit([good[1], good[0]] + good[2:])


# ---------------------------------------------------------------- cli-session

@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """One CLI session run in this process: (outputs, stdout, refused, ref)."""
    work = tmp_path_factory.mktemp("cli")
    inputs, out = work / "inputs", work / "out"
    prepare.write_inputs(SRC, "cli-session", 3, inputs)
    out.mkdir()
    stdout, refused = {}, []
    for label, expect, argv in run.session_commands(inputs, out):
        text = io.StringIO()
        with contextlib.redirect_stdout(text), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code == expect:
            stdout[label] = text.getvalue()
        else:
            refused.append(label)
    return out, stdout, refused, run.cli_ref(inputs)


def mutated(session, tmp_path, edit):
    """Check a copy of the session's outputs after ``edit(copy_dir)``."""
    out, stdout, _, ref = session
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    edit(copy)
    return checks.check_cli_outputs(copy, stdout, ref)


def rewrite_csv(path, change):
    header, *rows = [ln.split(",") for ln in path.read_text().splitlines()]
    change(rows)
    path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")


def test_cli_session_accepts_its_outputs(session):
    out, stdout, refused, ref = session
    assert checks.check_cli_outputs(out, stdout, ref) == []
    # Scoring one row, or rows with an equal column, is refused today.
    assert set(refused) <= {"rank_row1", "rank_equal_col"}


def test_cli_session_rejects_shifted_scores(session, tmp_path):
    def shift(rows):
        for r in rows:
            r[1] = repr(float(r[1]) * 0.99)

    assert mutated(session, tmp_path,
                   lambda d: rewrite_csv(d / "rank.csv", shift))


def test_cli_session_rejects_swapped_orders(session, tmp_path):
    def swap(rows):
        a = min(rows, key=lambda r: int(r[2]))
        b = max(rows, key=lambda r: int(r[2]))
        a[2], b[2] = b[2], a[2]

    assert mutated(session, tmp_path,
                   lambda d: rewrite_csv(d / "rows8.out.csv", swap))


def test_cli_session_rejects_swapped_orders_in_json(session, tmp_path):
    def swap(d):
        payload = json.loads((d / "rank.json").read_text())
        items = sorted(payload["items"], key=lambda i: i["order"])
        items[0]["order"], items[-1]["order"] = (items[-1]["order"],
                                                 items[0]["order"])
        (d / "rank.json").write_text(json.dumps(payload))

    assert mutated(session, tmp_path, swap)


def test_cli_session_rejects_t_off_the_foot(session, tmp_path):
    def nudge(rows):
        rows[3][1] = repr(float(rows[3][1]) + 1e-4)

    problems = mutated(session, tmp_path,
                       lambda d: rewrite_csv(d / "rank.csv", nudge))
    assert any("foot" in p for p in problems)


def test_cli_session_rejects_wrong_compare_and_plots(session, tmp_path):
    def corr(d):
        payload = json.loads((d / "compare.json").read_text())
        payload["spearman"][0][1] += 1e-6
        (d / "compare.json").write_text(json.dumps(payload))

    assert mutated(session, tmp_path, corr)

    def hist(d):
        path = next((d / "plots").glob("hist_*.csv"))
        rewrite_csv(path, lambda rows: rows[0].__setitem__(2, "999"))

    shutil.rmtree(tmp_path / "copy")
    assert mutated(session, tmp_path, hist)


def test_cli_session_rejects_a_passing_arithmetic_check(session):
    out, stdout, _, ref = session
    text = stdout["check"].replace("ScaleInvariance        Fail",
                                   "ScaleInvariance        Pass")
    assert text != stdout["check"]
    assert checks.check_cli_outputs(out, dict(stdout, check=text), ref)
