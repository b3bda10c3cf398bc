"""End-to-end command-line runs through main(argv)."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rpcurve
from rpcurve import cli
from rpcurve.cli import (
    EXIT_CHECK_FAILED,
    EXIT_FIT_FAILURE,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)
from rpcurve.data import bundled_data_path, bundled_schema_path
from rpcurve.fitting import FitConfig, fit_table


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
                                           monkeypatch):
        # the CLI has no flag for the cap, so cap the fit it calls
        monkeypatch.setattr(
            cli, "fit_table",
            lambda table: fit_table(table, FitConfig(max_iters=3)),
        )
        out = tmp_path / "fit.json"
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

    def test_deterministic_bytes(self, workdir, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            code = main([
                "fit", "--data", str(workdir["data"]),
                "--schema", str(workdir["schema"]), "--out", str(out),
            ])
            assert code == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()


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
