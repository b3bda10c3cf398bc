"""End-to-end command-line runs through main(argv)."""

import csv
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rpcurve
from rpcurve import evaluation
from rpcurve.baselines import elmap_reference_scores
from rpcurve.cli import (
    EXIT_CHECK_FAILED,
    EXIT_FIT_FAILURE,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)
from rpcurve.data import bundled_data_path, bundled_schema_path


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Small synthetic dataset plus a fit of it, shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(20240520)
    t = np.sort(rng.uniform(size=26))
    rows = np.column_stack(
        [
            100 + 900 * t + rng.normal(scale=12.0, size=26),
            30 + 45 * t + rng.normal(scale=0.8, size=26),
            240 - 200 * t + rng.normal(scale=6.0, size=26),
        ]
    )
    data = root / "data.csv"
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "inc", "life", "bad"])
        for i, r in enumerate(rows):
            w.writerow([f"c{i:02d}"] + [f"{v:.6f}" for v in r])
    schema = root / "schema.json"
    schema.write_text(
        json.dumps({"inc": "positive", "life": "positive",
                    "bad": "negative"}),
        encoding="utf-8",
    )
    fitfile = root / "fit.json"
    code = main([
        "fit", "--data", str(data), "--schema", str(schema),
        "--out", str(fitfile),
    ])
    assert code == EXIT_OK
    return {"root": root, "data": data, "schema": schema, "fit": fitfile}


class TestFit:
    def test_output_contents(self, workdir):
        payload = json.loads(workdir["fit"].read_text())
        cp = payload["curve"]["control_points"]
        assert len(cp) == 4 and all(len(row) == 3 for row in cp)
        assert payload["report"]["iterations"] >= 1
        assert len(payload["ranking"]) == 26

    def test_converged_fit_prints_no_warning(self, tmp_path, capsys):
        code = main([
            "fit", "--data", str(bundled_data_path()),
            "--schema", str(bundled_schema_path()),
            "--out", str(tmp_path / "fit.json"),
        ])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "converged=true" in captured.out
        assert captured.err == ""
        report = json.loads((tmp_path / "fit.json").read_text())["report"]
        assert report["stop_reason"] == "tol"

    def test_projection_cap_warns_on_stderr(self, workdir, tmp_path, capsys,
                                           projection_cap):
        # the CLI has no flag for the cap, so lower the fit's constant
        out = tmp_path / "fit.json"
        with projection_cap(3):
            code = main([
                "fit", "--data", str(workdir["data"]),
                "--schema", str(workdir["schema"]), "--out", str(out),
            ])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        report = json.loads(out.read_text())["report"]
        assert report["stop_reason"] == "max_iters"
        assert captured.out == (
            f"fit: 26 items, 3 dims, {report['iterations']} iterations, "
            f"converged=false, wrote {out}\n"
        )
        assert captured.err == (
            "warning: fit stopped at its projection cap before converging "
            f"(last relative change {report['last_rel_change']})\n"
        )

    def test_missing_file_exits_2(self, workdir, capsys):
        code = main([
            "fit", "--data", str(workdir["root"] / "nope.csv"),
            "--schema", str(workdir["schema"]),
            "--out", str(workdir["root"] / "x.json"),
        ])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err != ""

    def test_too_few_rows_exits_3(self, workdir, tmp_path):
        data = tmp_path / "tiny.csv"
        data.write_text(
            "id,inc,life,bad\na,1,2,3\nb,2,3,4\nc,3,4,5\n",
            encoding="utf-8",
        )
        code = main([
            "fit", "--data", str(data), "--schema", str(workdir["schema"]),
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == EXIT_FIT_FAILURE

    def test_overflowing_spread_exits_2(self, workdir, tmp_path, capsys):
        data = tmp_path / "huge.csv"
        data.write_text(
            "id,inc,life,bad\na,-1e308,2,3\nb,1e308,3,4\nc,0,4,5\n"
            "d,5,5,6\ne,1,6,7\n",
            encoding="utf-8",
        )
        code = main([
            "fit", "--data", str(data), "--schema", str(workdir["schema"]),
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'inc'" in err

    @pytest.mark.parametrize(
        "command", ["fit", "rank", "check", "compare", "plotdata"]
    )
    def test_field_over_csv_size_limit_exits_2(self, workdir, tmp_path,
                                               capsys, command):
        # a quoted id of 140,000 characters, over csv's 131,072 limit
        data = tmp_path / "long_id.csv"
        data.write_text(
            "id,inc,life,bad\n" + "".join(
                f"c{i},{i},{i + 1},{9 - i}\n" for i in range(5)
            ) + '"' + "x" * 140_000 + '",5,6,4\n',
            encoding="utf-8",
        )
        schema = ["--schema", str(workdir["schema"])]
        curve = ["--curve", str(workdir["fit"])]
        out = ["--out", str(tmp_path / "out")]
        args = {
            "fit": [*schema, *out],
            "rank": [*curve, *out],
            "check": [*schema, "--method", "pca"],
            "compare": [*schema, "--methods", "pca", *out],
            "plotdata": [*curve, *out],
        }[command]
        code = main([command, "--data", str(data), *args])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: {data}:7: field larger than field limit (131072)\n"
        )

    def test_byte_order_mark_is_skipped(self, tmp_path):
        """Excel's "CSV UTF-8" starts the file with a BOM."""
        outputs = {}
        for name, prefix in (("plain", ""), ("bom", "\ufeff")):
            root = tmp_path / name
            root.mkdir()
            data, schema = root / "data.csv", root / "schema.json"
            for path, source in ((data, bundled_data_path()),
                                 (schema, bundled_schema_path())):
                path.write_text(prefix + Path(source).read_text("utf-8"),
                                encoding="utf-8")
            assert main(["fit", "--data", str(data), "--schema", str(schema),
                         "--out", str(root / "fit.json")]) == EXIT_OK
            curve = root / "curve.json"
            curve.write_text(prefix + (root / "fit.json").read_text("utf-8"),
                             encoding="utf-8")
            assert main(["rank", "--data", str(data), "--curve", str(curve),
                         "--out", str(root / "rank.csv")]) == EXIT_OK
            outputs[name] = [(root / f).read_bytes()
                             for f in ("fit.json", "rank.csv")]
        assert outputs["bom"] == outputs["plain"]

    def test_deterministic_bytes(self, workdir, tmp_path):
        # every command that writes files writes the same bytes twice
        common = ["--data", str(workdir["data"])]
        fitted = common + ["--curve", str(workdir["fit"])]
        audited = common + ["--schema", str(workdir["schema"])]
        methods = ["--methods", "rpc,pca,entropy"]
        runs = {
            "fit.json": ["fit", *audited],
            "rank.csv": ["rank", *fitted],
            "rank.json": ["rank", *fitted, "--format", "json"],
            "cmp.json": ["compare", *audited, *methods],
            "cmp.csv": ["compare", *audited, *methods, "--format", "csv"],
            "plots": ["plotdata", *fitted],
        }

        def written(out):
            out.mkdir()
            for name, args in runs.items():
                assert main([*args, "--out", str(out / name)]) == EXIT_OK
            return {p.relative_to(out): p.read_bytes()
                    for p in sorted(out.rglob("*")) if p.is_file()}

        first = written(tmp_path / "a")
        assert len(first) == 6 + 3 + 3  # with correlations, hists, pairs
        assert written(tmp_path / "b") == first


class TestRank:
    def test_csv_contract(self, workdir, tmp_path):
        out = tmp_path / "rank.csv"
        code = main([
            "rank", "--data", str(workdir["data"]),
            "--curve", str(workdir["fit"]), "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "id,score,order"
        assert len(lines) == 27

    def test_json_format(self, workdir, tmp_path):
        out = tmp_path / "rank.json"
        code = main([
            "rank", "--data", str(workdir["data"]),
            "--curve", str(workdir["fit"]), "--out", str(out),
            "--format", "json",
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        orders = [it["order"] for it in payload["items"]]
        assert min(orders) == 1

    def test_mismatched_dims_exit_2(self, workdir, tmp_path):
        data = tmp_path / "wide.csv"
        data.write_text(
            "id,inc,life\na,1,2\nb,2,3\nc,3,4\nd,4,5\n", encoding="utf-8"
        )
        code = main([
            "rank", "--data", str(data), "--curve", str(workdir["fit"]),
            "--out", str(tmp_path / "r.csv"),
        ])
        assert code == EXIT_VALIDATION


    def test_one_row_and_constant_columns_score_as_in_full_table(
        self, tmp_path
    ):
        fitfile = tmp_path / "fit.json"
        assert main([
            "fit", "--data", str(bundled_data_path()),
            "--schema", str(bundled_schema_path()), "--out", str(fitfile),
        ]) == EXIT_OK

        def scores(data):
            out = tmp_path / (data.stem + ".out.csv")
            code = main([
                "rank", "--data", str(data), "--curve", str(fitfile),
                "--out", str(out),
            ])
            assert code == EXIT_OK
            with open(out, newline="") as fh:
                return {r["id"]: r["score"] for r in csv.DictReader(fh)}

        full = scores(Path(str(bundled_data_path())))
        lines = Path(str(bundled_data_path())).read_text().splitlines()
        row = {ln.split(",")[0]: ln for ln in lines[1:]}
        # France and Spain share two of their four values
        for name, ids in (("one", ["Turkey"]), ("equal", ["France", "Spain"])):
            data = tmp_path / f"{name}.csv"
            data.write_text(
                "\n".join([lines[0]] + [row[i] for i in ids]) + "\n"
            )
            # the CSV holds repr(score): equal text is equal bits
            assert scores(data) == {i: full[i] for i in ids}


def test_reversed_columns_score_and_plot_as_the_original(tmp_path):
    fitfile = tmp_path / "fit.json"
    assert main([
        "fit", "--data", str(bundled_data_path()),
        "--schema", str(bundled_schema_path()), "--out", str(fitfile),
    ]) == EXIT_OK
    with open(bundled_data_path(), newline="") as fh:
        rows = list(csv.reader(fh))
    reversed_csv = tmp_path / "columns_reversed.csv"
    with open(reversed_csv, "w", newline="") as fh:
        csv.writer(fh).writerows([r[0]] + r[:0:-1] for r in rows)

    def outputs(data, tag):
        out = tmp_path / tag
        for args in (
            ["rank", "--out", str(out) + ".csv"],
            ["rank", "--out", str(out) + ".json", "--format", "json"],
            ["plotdata", "--out", str(out)],
        ):
            assert main([*args, "--data", str(data),
                         "--curve", str(fitfile)]) == EXIT_OK
        files = [Path(str(out) + ".csv"), Path(str(out) + ".json")]
        files += sorted(out.iterdir())
        return {f.name: f.read_bytes() for f in files}

    want = outputs(bundled_data_path(), "original")
    assert len(want) == 2 + 4 + 6
    assert outputs(reversed_csv, "reversed") == {
        name.replace("original", "reversed"): data
        for name, data in want.items()
    }


@pytest.mark.parametrize("command", ["rank", "plotdata"])
def test_curve_file_without_transform_exits_2(workdir, tmp_path, capsys,
                                              command):
    payload = json.loads(workdir["fit"].read_text())
    del payload["transform"]
    curve = tmp_path / "bare.json"
    curve.write_text(json.dumps(payload), encoding="utf-8")
    code = main([
        command, "--data", str(workdir["data"]), "--curve", str(curve),
        "--out", str(tmp_path / "out"),
    ])
    assert code == EXIT_VALIDATION
    assert "needs 'curve' and 'transform'" in capsys.readouterr().err


def test_overflowing_curve_transform_exits_2(workdir, tmp_path, capsys):
    # a saved spread too wide to scale is refused, not scored as zeros
    payload = json.loads(workdir["fit"].read_text())
    payload["transform"]["mins"][0] = -1e308
    payload["transform"]["maxs"][0] = 1e308
    curve = tmp_path / "huge.json"
    curve.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "rank.csv"
    code = main([
        "rank", "--data", str(workdir["data"]), "--curve", str(curve),
        "--out", str(out),
    ])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {curve}: indicator 'inc' spans ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("case", ["repeated-name", "column-bounds"])
def test_malformed_curve_transform_exits_2(workdir, tmp_path, capsys, case):
    # both files scored without complaint before the transform checked
    # itself: a repeated name read 'inc' into the slot of 'life', and
    # 3 x 1 bounds broadcast a 3-row file into a 3 x 3 scaling
    payload = json.loads(workdir["fit"].read_text())
    transform = payload["transform"]
    rows = [line.split(",")
            for line in workdir["data"].read_text().splitlines()]
    if case == "repeated-name":
        assert transform["indicator_names"] == ["inc", "life", "bad"]
        transform["indicator_names"][1] = "inc"
        rows = [row[:2] + row[3:] for row in rows]
    else:
        for key in ("mins", "maxs"):
            transform[key] = [[v] for v in transform[key]]
        rows = rows[:4]
    data = tmp_path / "data.csv"
    data.write_text("".join(",".join(row) + "\n" for row in rows))
    curve = tmp_path / "bad.json"
    curve.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "rank.csv"
    code = main([
        "rank", "--data", str(data), "--curve", str(curve),
        "--out", str(out),
    ])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {curve}: transform ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["rank", "plotdata"])
@pytest.mark.parametrize("edit, fault", [
    (lambda cp: cp[:3], "4 x d"),
    (lambda cp: [cp[0], [float("nan")] * len(cp[0]), cp[2], cp[3]],
     "finite"),
    (lambda cp: cp[:3] + [cp[0]], "coincide"),
], ids=["three-rows", "nan", "p0-equals-p3"])
def test_malformed_curve_file_exits_2(workdir, tmp_path, capsys, command,
                                      edit, fault):
    # nothing is fitted, so a bad saved curve is a validation error
    payload = json.loads(workdir["fit"].read_text())
    cp = payload["curve"]["control_points"]
    payload["curve"]["control_points"] = edit(cp)
    curve = tmp_path / "bad.json"
    curve.write_text(json.dumps(payload), encoding="utf-8")
    code = main([
        command, "--data", str(workdir["data"]), "--curve", str(curve),
        "--out", str(tmp_path / "out"),
    ])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {curve}: bad control points: ")
    assert fault in err


@pytest.mark.parametrize("bad, command", [
    ("data", "fit"), ("data", "check"), ("data", "compare"),
    ("data", "rank"), ("data", "plotdata"),
    ("schema", "fit"), ("schema", "check"), ("schema", "compare"),
    ("curve", "rank"), ("curve", "plotdata"),
])
def test_non_utf8_input_exits_2(workdir, tmp_path, capsys, bad, command):
    paths = {k: str(workdir[k]) for k in ("data", "schema", "fit")}
    key = "fit" if bad == "curve" else bad
    paths[key] = str(tmp_path / "binary")
    Path(paths[key]).write_bytes(b"\x89PNG\r\n\xff\xfe")
    inputs = {
        "fit": ["--schema", paths["schema"], "--out", os.devnull],
        "check": ["--schema", paths["schema"], "--method", "pca"],
        "compare": ["--schema", paths["schema"], "--methods", "pca",
                    "--out", os.devnull],
        "rank": ["--curve", paths["fit"], "--out", os.devnull],
        "plotdata": ["--curve", paths["fit"],
                     "--out", str(tmp_path / "plots")],
    }
    code = main([command, "--data", paths["data"], *inputs[command]])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: input is not UTF-8 text: ")
    assert err.count("\n") == 1


def test_malformed_json_message(workdir, tmp_path, capsys):
    schema = tmp_path / "schema.json"
    schema.write_text("{", encoding="utf-8")
    code = main([
        "check", "--data", str(workdir["data"]), "--schema", str(schema),
        "--method", "pca",
    ])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "malformed JSON input: Expecting property name enclosed in double "
        "quotes: line 1 column 2 (char 1)\n"
    )


def test_rank_schema_flag_is_rejected(workdir, tmp_path, capsys):
    # rank takes the indicator names from the curve file alone
    with pytest.raises(SystemExit) as exc:
        main([
            "rank", "--data", str(workdir["data"]),
            "--curve", str(workdir["fit"]), "--out", str(tmp_path / "r.csv"),
            "--schema", str(workdir["schema"]),
        ])
    assert exc.value.code == EXIT_VALIDATION
    assert "unrecognized arguments: --schema" in capsys.readouterr().err


class TestCheck:
    def test_arithmetic_fails_audit(self, workdir, capsys):
        code = main([
            "check", "--data", str(workdir["data"]),
            "--schema", str(workdir["schema"]), "--method", "arithmetic",
        ])
        assert code == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert "ScaleInvariance" in out
        assert "Fail" in out

    def test_unknown_method_exit_2(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "check", "--data", str(workdir["data"]),
                "--schema", str(workdir["schema"]), "--method", "bogus",
            ])
        assert exc.value.code == EXIT_VALIDATION

    def test_geometric_on_bundled_passes(self, capsys):
        code = main([
            "check", "--data", str(bundled_data_path()),
            "--schema", str(bundled_schema_path()), "--method", "geometric",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "NotApplicable" in out


class TestCompare:
    def test_three_methods_json(self, workdir, tmp_path):
        out = tmp_path / "cmp.json"
        code = main([
            "compare", "--data", str(workdir["data"]),
            "--schema", str(workdir["schema"]),
            "--methods", "pca,geometric,entropy", "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["methods"] == ["pca", "geometric", "entropy"]
        mat = payload["spearman"]
        assert len(mat) == 3 and len(mat[0]) == 3
        assert mat[0][0] == 1.0

    def test_single_method_matrix_is_one(self, workdir, tmp_path):
        out = tmp_path / "one.json"
        code = main([
            "compare", "--data", str(workdir["data"]),
            "--schema", str(workdir["schema"]),
            "--methods", "pca", "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["spearman"] == [[1.0]]

    def test_repeated_method_exit_2(self, workdir, tmp_path, capsys):
        out = tmp_path / "cmp.json"
        code = main([
            "compare", "--data", str(workdir["data"]),
            "--schema", str(workdir["schema"]),
            "--methods", "pca,pca", "--out", str(out),
        ])
        assert code == EXIT_VALIDATION
        assert "twice" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_method_runs_no_fit(self, workdir, tmp_path, capsys,
                                        monkeypatch):
        fits = []
        monkeypatch.setattr(evaluation, "fit_and_rank",
                            lambda *args: fits.append(args))
        out = tmp_path / "cmp.json"
        code = main([
            "compare", "--data", str(workdir["data"]),
            "--schema", str(workdir["schema"]),
            "--methods", "rpc,bogus", "--out", str(out),
        ])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: unknown method 'bogus'\n"
        assert fits == []
        assert not out.exists()

    @pytest.mark.parametrize("methods, message", [
        ("elmap-reference", "need at least one computable method"),
        (" , ", "no methods given"),
    ])
    def test_no_computable_method_exit_2(self, workdir, tmp_path, capsys,
                                         methods, message):
        out = tmp_path / "cmp.json"
        code = main([
            "compare", "--data", str(workdir["data"]),
            "--schema", str(workdir["schema"]),
            "--methods", methods, "--out", str(out),
        ])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_reference_column_on_bundled_data(self, tmp_path):
        out = tmp_path / "cmp.json"
        code = main([
            "compare", "--data", str(bundled_data_path()),
            "--schema", str(bundled_schema_path()),
            "--methods", "pca,elmap-reference", "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["methods"] == ["pca", "elmap-reference"]
        got = {
            item["id"]: item["elmap-reference_score"]
            for item in payload["items"] if "elmap-reference_score" in item
        }
        assert got == elmap_reference_scores()
        assert len(got) == 10
        assert all("pca_score" in item for item in payload["items"])

    def test_csv_writes_correlations_file(self, workdir, tmp_path):
        out = tmp_path / "cmp.csv"
        code = main([
            "compare", "--data", str(workdir["data"]),
            "--schema", str(workdir["schema"]),
            "--methods", "pca,entropy", "--format", "csv",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        assert out.exists()
        assert (tmp_path / "cmp.csv.correlations.csv").exists()


class TestPlotdata:
    def test_files_and_counts(self, workdir, tmp_path):
        outdir = tmp_path / "plots"
        code = main([
            "plotdata", "--data", str(workdir["data"]),
            "--curve", str(workdir["fit"]), "--out", str(outdir),
        ])
        assert code == EXIT_OK
        hists = sorted(p.name for p in outdir.glob("hist_*.csv"))
        pairs = sorted(p.name for p in outdir.glob("pair_*.csv"))
        assert len(hists) == 3
        assert len(pairs) == 3
        for h in hists:
            rows = list(csv.DictReader(open(outdir / h)))
            assert len(rows) == 20
            assert sum(int(r["count"]) for r in rows) == 26
        for p in pairs:
            rows = list(csv.DictReader(open(outdir / p)))
            kinds = {r["series"] for r in rows}
            assert kinds == {"data", "curve"}
            assert sum(r["series"] == "curve" for r in rows) == 201
            assert sum(r["series"] == "data" for r in rows) == 26


@pytest.mark.parametrize("flag,value", [("--max-iters", "5"),
                                        ("--rel-tol", "1e-3")])
@pytest.mark.parametrize("command,extra", [
    ("fit", ["--out", os.devnull]),
    ("check", ["--method", "rpc"]),
    ("compare", ["--methods", "rpc", "--out", os.devnull]),
])
def test_fit_tuning_flags_are_rejected(workdir, capsys, flag, value, command,
                                       extra):
    # the fit has no user-tunable settings on the command line
    with pytest.raises(SystemExit) as exc:
        main([
            command, "--data", str(workdir["data"]),
            "--schema", str(workdir["schema"]), *extra, flag, value,
        ])
    assert exc.value.code == EXIT_VALIDATION
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def _run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this rpcurve."""
    src = str(Path(rpcurve.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )


def test_cli_import_leaves_scipy_unloaded():
    # scipy costs about a second to import, and only the tests use it
    out = _run_python("import sys, rpcurve.cli; print('scipy' in sys.modules)")
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_unused_modules_unloaded():
    # the audit, the baselines, the thread pool and numpy.polynomial load
    # only in the commands and functions that use them
    out = _run_python(
        "import sys, rpcurve.cli; print(sorted(m for m in sys.argv[1:] "
        "if m in sys.modules))",
        "rpcurve.evaluation", "rpcurve.baselines", "concurrent.futures",
        "numpy.polynomial",
    )
    assert out.stdout.strip() == "[]"


def test_smoothness_check_leaves_numpy_polynomial_unloaded():
    # the speed's critical points come from the package's own Bernstein
    # root isolator, not from a companion-matrix eigen solve
    out = _run_python(
        "import sys\n"
        "from rpcurve.bezier import RankingCurve\n"
        "from rpcurve.evaluation import check_smoothness\n"
        "check_smoothness(RankingCurve([[0, 0], [1, 1], [0, 1], [1, 0]]))\n"
        "print('numpy.polynomial' in sys.modules)"
    )
    assert out.stdout.strip() == "False"


# the package's exported names, each defined in one of its modules
EXPORTED = """
Comparison arithmetic_mean_rank compare elmap_reference_scores
entropy_weight_rank geometric_mean_rank pca_rank published_control_points
published_curve_orders published_curve_scores BestEnd Monotonicity
RankingCurve curve_from_dict curve_to_dict
derivative evaluate is_monotone IndicatorTable
NormalizationTransform NormalizedTable Orientation ScoringRows
denormalize_point load_bundled_table load_rows load_schema load_table
normalize Criterion CriterionResult MetaCriteriaReport RankingPipeline
Verdict arithmetic_pipeline audit entropy_pipeline geometric_pipeline
pca_pipeline replay_witness rpc_pipeline FitConfig FitReport RankingResult
fit fit_table init_curve load_curve rank save_fit ProjectionResult
project_point project_points score_from_t
""".split()


def test_package_exports_resolve_on_first_use():
    # a fresh interpreter lists every name before any has been looked up
    out = _run_python(
        "import sys, rpcurve; "
        "print(sorted(set(sys.argv[1:]) - set(dir(rpcurve))))",
        *EXPORTED,
    )
    assert out.stdout.strip() == "[]"
    assert sorted(rpcurve.__all__) == sorted(EXPORTED)
    for name in EXPORTED:
        value = getattr(rpcurve, name)
        home = importlib.import_module(value.__module__)
        assert getattr(home, name) is value
    with pytest.raises(AttributeError):
        rpcurve.no_such_name


BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"import of {name} blocked")

sys.meta_path.insert(0, BlockScipy())
from rpcurve import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def test_compare_runs_without_scipy(tmp_path):
    args = [
        "compare", "--data", str(bundled_data_path()),
        "--schema", str(bundled_schema_path()),
        "--methods", "rpc,arithmetic-norm,geometric,pca,entropy",
    ]
    blocked, free = tmp_path / "blocked.json", tmp_path / "free.json"
    # check=True: the blocked run raises unless it exits 0
    _run_python(BLOCK_SCIPY, *args, "--out", str(blocked))
    assert main([*args, "--out", str(free)]) == EXIT_OK
    assert blocked.read_bytes() == free.read_bytes()
