"""rpcurve benchmark: four workloads through the package's public API and CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one client, one process at a time):

* ``bundled-fit``: load_bundled_table -> fit_table -> rank -> save_fit ->
  load_curve on the 171 x 4 bundled table at default settings.
* ``score-bulk``: one seeded table of 20,000 rows scored with one ``rank``
  call against the published curve: load_curve, load_table, rank, and the
  ranking written back as CSV.  No fit.
* ``audit-rpc``: one ``audit(rpc_pipeline(), table, trials=1)`` on the
  bundled table.
* ``cli-session``: a fixed script of eight ``python -m rpcurve.cli``
  commands, each in a fresh process.

Operations repeat until ``--seconds`` have passed (at least one).  Every
workload reports the same end-to-end metrics: ``op_s``, the median wall
time of one operation; ``setup_s``; and ``peak_rss_mb``.  Set-up is timed
SETUP_REPEATS times, each a fresh interpreter that imports rpcurve.cli
and writes the workload's inputs (see prepare.py).  Outputs are checked
against oracle.py and the published results (see checks.py).

With ``--trace 1`` each round is one untraced and one traced operation; the
spans of the traced ones give the per-layer metrics, and the difference of
the two medians is printed as the tracing overhead.  The last line of
standard output is the JSON result; the run's details are written to
``perfbench/out/<workload>-seed<N>-trace<T>/``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import oracle
import prepare
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BUNDLED_CSV = SRC / "rpcurve" / "resources" / "countries_2005.csv"
BUNDLED_SCHEMA = SRC / "rpcurve" / "resources" / "countries_2005.schema.json"
REFERENCE = SRC / "rpcurve" / "resources" / "reference_2005.json"

SETUP_REPEATS = 3
AUDIT_TRIALS = 1
BULK_SAMPLE = 200  # score-bulk rows checked against the oracle
CHILD_TIMEOUT = 150.0
REFUSED = (2, 3)  # CLI exit codes for rejected input and failed fits
COMPARE_METHODS = ("arithmetic-norm", "geometric", "pca", "entropy")

WORKLOADS = ("bundled-fit", "score-bulk", "audit-rpc", "cli-session")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn(cmd, log: Path):
    """Run ``cmd`` to its end; returns (exit code, peak RSS in MB)."""
    with open(log, "wb") as fh:
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def timed_setup(workload: str, seed: int, workdir: Path):
    """Median wall time of SETUP_REPEATS fresh set-ups; returns it, the
    median time they took to import rpcurve.cli and the directory holding
    the inputs."""
    inputs = workdir / "inputs"
    times, imports = [], []
    for k in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        log = workdir / f"setup{k}.log"
        start = time.perf_counter()
        code, _ = spawn([sys.executable, str(HERE / "prepare.py"), str(SRC),
                         workload, str(seed), str(inputs)], log)
        times.append(time.perf_counter() - start)
        if code != 0:
            raise SystemExit(f"perfbench: set-up failed, see {log}")
        imports.append(float((inputs / "import_s.txt").read_text()))
    return statistics.median(times), statistics.median(imports), inputs


def host_info() -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def rounds(seconds: float, op, tracer):
    """Closed loop: ``op(index, tracer_or_None)`` after op until ``seconds``
    have passed.  With a tracer each round is one untraced and one traced
    op, the untraced one first in even rounds and second in odd ones."""
    done = []
    start = time.perf_counter()
    while not done or time.perf_counter() - start < seconds:
        if tracer is None:
            done.append(op(len(done), None))
            continue
        pair = (None, tracer) if len(done) % 4 == 0 else (tracer, None)
        for tr in pair:
            done.append(op(len(done), tr))
    return done


def call(tracer, index, fn, *args):
    return fn(*args) if tracer is None else tracer.run(index, fn, *args)


def bundled_ref() -> dict:
    """What a bundled fit is checked against, read by the benchmark."""
    ids, names, raw = oracle.read_table(BUNDLED_CSV)
    with open(BUNDLED_SCHEMA, encoding="utf-8") as fh:
        schema = json.load(fh)
    with open(REFERENCE, encoding="utf-8") as fh:
        published = json.load(fh)["countries"]
    return {
        "ids": ids,
        "z": oracle.scale(raw, raw.min(axis=0), raw.max(axis=0)),
        "signs": [1 if schema[n] == "positive" else -1 for n in names],
        "published_orders": {k: v["rpc"]["order"] for k, v in published.items()},
        "published_scores": {k: v["rpc"]["score"] for k, v in published.items()},
    }


def curve_ref(inputs: Path) -> dict:

    with open(inputs / "curve.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    return {
        "points": np.asarray(payload["curve"]["control_points"], dtype=float),
        "best_end": payload["curve"]["best_end"],
        "mins": np.asarray(payload["transform"]["mins"], dtype=float),
        "maxs": np.asarray(payload["transform"]["maxs"], dtype=float),
    }


# ------------------------------------------------------------------ workloads

def fit_outputs(curve, report, ranking, reloaded) -> dict:
    """A fit's results as plain data for checks.check_bundled_fit."""
    return {
        "ids": list(ranking.item_ids),
        "scores": np.array(ranking.scores),
        "orders": np.array(ranking.orders),
        "control_points": np.array(curve.control_points),
        "best_end": curve.best_end.value,
        "distances": list(report.distances),
        "monotonicity": [m.value for m in report.monotonicity],
        "reloaded_points": np.array(reloaded.control_points),
        "reloaded_best_end": reloaded.best_end.value,
    }


def bundled_fit(args, workdir, inputs, tracer):
    from rpcurve import data, fitting


    path = workdir / "fit.json"

    def once():
        table = data.load_bundled_table()
        curve, report = fitting.fit_table(table)
        ranking = fitting.rank(table, curve)
        fitting.save_fit(path, curve, report, ranking)
        return curve, report, ranking, fitting.load_curve(path)

    def op(i, tr):
        start = time.perf_counter()
        curve, report, ranking, reloaded = call(tr, i, once)
        seconds = time.perf_counter() - start
        return {
            "seconds": seconds, "traced": tr is not None, "attempted": 1,
            "failed": 0, "bytes": path.read_bytes(),
            "out": fit_outputs(curve, report, ranking, reloaded),
        }

    done = rounds(args.seconds, op, tracer)
    problems = checks.check_bundled_fit(done[0]["out"], bundled_ref())
    problems += same_outputs(done)
    return done, problems


def write_ranking(path, ranking) -> None:
    """A ranking as ``id,score,order`` CSV, in the format the CLI writes."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "score", "order"])
        writer.writerows(
            [i, repr(float(s)), int(o)] for i, s, o in
            zip(ranking.item_ids, ranking.scores, ranking.orders)
        )


def score_bulk(args, workdir, inputs, tracer):
    from rpcurve import data, fitting

    dest = workdir / "ranking.csv"

    def once():
        curve = fitting.load_curve(inputs / "curve.json")
        table = data.load_table(inputs / "bulk.csv",
                                data.load_schema(BUNDLED_SCHEMA))
        write_ranking(dest, fitting.rank(table, curve))

    def op(i, tr):
        start = time.perf_counter()
        call(tr, i, once)
        seconds = time.perf_counter() - start
        return {"seconds": seconds, "traced": tr is not None,
                "attempted": 1, "failed": 0, "bytes": dest.read_bytes()}

    done = rounds(args.seconds, op, tracer)
    problems = bulk_problems(inputs, dest, workdir, args.seed)
    problems += same_outputs(done)
    return done, problems


def bulk_problems(inputs: Path, ranking_csv: Path, workdir: Path,
                  seed: int) -> list[str]:
    """Check a bulk ranking; BULK_SAMPLE rows drawn by the seed are checked
    against the oracle and scored again on their own."""
    from rpcurve import data, fitting

    ids, names, raw = oracle.read_table(inputs / "bulk.csv")
    curve = curve_ref(inputs)
    rng = np.random.default_rng([seed, 2])
    sample = np.sort(rng.choice(len(ids), min(BULK_SAMPLE, len(ids)),
                                replace=False))
    prepare.write_csv(workdir / "sample.csv", [["id", *names]] + [
        [ids[k], *map(repr, raw[k].tolist())] for k in sample])
    alone = fitting.rank(
        data.load_table(workdir / "sample.csv",
                        data.load_schema(BUNDLED_SCHEMA)),
        fitting.load_curve(inputs / "curve.json"),
    ).scores
    got_ids, _, got = oracle.read_table(ranking_csv)
    out = {"ids": got_ids, "scores": got[:, 0],
           "orders": got[:, 1].astype(int), "sample_alone": alone}
    ref = {"ids": ids, "points": curve["points"],
           "best_end": curve["best_end"], "sample": sample,
           "sample_z": oracle.scale(raw[sample], curve["mins"], curve["maxs"])}
    return checks.check_score_bulk(out, ref)


def audit_rpc(args, workdir, inputs, tracer):
    from rpcurve import data, evaluation

    table = data.load_bundled_table()

    def once():
        return evaluation.audit(evaluation.rpc_pipeline(), table,
                                trials=AUDIT_TRIALS)

    def op(i, tr):
        start = time.perf_counter()
        report = call(tr, i, once)
        seconds = time.perf_counter() - start
        criteria = [(c["criterion"], c["verdict"])
                    for c in report.to_dict()["criteria"]]
        return {"seconds": seconds, "traced": tr is not None, "attempted": 1,
                "failed": 0, "criteria": criteria}

    done = rounds(args.seconds, op, tracer)
    problems = []
    for d in done:
        problems += checks.check_audit(d["criteria"])
    return done, sorted(set(problems))


def session_commands(inputs: Path, out: Path):
    """(label, expected exit code, CLI arguments) of the session's script."""
    curve = str(inputs / "curve.json")
    data = ["--data", str(BUNDLED_CSV)]
    schema = ["--schema", str(BUNDLED_SCHEMA)]
    return [
        ("rank_csv", 0, ["rank", *data, "--curve", curve,
                         "--out", str(out / "rank.csv")]),
        ("rank_json", 0, ["rank", *data, "--curve", curve,
                          "--out", str(out / "rank.json"), "--format", "json"]),
        ("compare", 0, ["compare", *data, *schema, "--methods",
                        ",".join(COMPARE_METHODS),
                        "--out", str(out / "compare.json")]),
        ("check", 1, ["check", *data, *schema, "--method", "arithmetic"]),
        ("plotdata", 0, ["plotdata", *data, "--curve", curve,
                         "--out", str(out / "plots")]),
    ] + [
        (label, 0, ["rank", "--data", str(inputs / f"{name}.csv"),
                    "--curve", curve, "--out", str(out / f"{name}.out.csv")])
        for label, name in (("rank_rows8", "rows8"), ("rank_row1", "row1"),
                            ("rank_equal_col", "equal"))
    ]


def cli_ref(inputs: Path) -> dict:
    """What a CLI session's outputs are checked against."""
    ids, names, raw = oracle.read_table(BUNDLED_CSV)
    ref = dict(curve_ref(inputs), ids=ids, names=names, raw=raw,
               methods=list(COMPARE_METHODS), requests={})
    for name in ("rows8", "row1", "equal"):
        r_ids, _, r_raw = oracle.read_table(inputs / f"{name}.csv")
        ref["requests"][name] = (r_ids, r_raw)
    return ref


def cli_session(args, workdir, inputs, tracer):
    def op(i, tr):
        out = workdir / f"session{i}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        stdout, refused, wrong, peak = {}, [], [], 0.0
        start = time.perf_counter()
        for label, expect, argv in session_commands(inputs, out):
            log = out / f"{label}.log"
            if tr is None:
                cmd = [sys.executable, "-m", "rpcurve.cli", *argv]
            else:
                cmd = [sys.executable, str(HERE / "cli_child.py"), str(SRC),
                       str(out / f"{label}.spans.json"), "--", *argv]
            code, rss = spawn(cmd, log)
            peak = max(peak, rss)
            if code == expect:
                stdout[label] = log.read_text(encoding="utf-8")
            elif code in REFUSED:
                refused.append(label)
            else:
                wrong.append(f"{label}: exit {code}, expected {expect}")
        seconds = time.perf_counter() - start
        if tr is not None:
            for label, *_ in session_commands(inputs, out):
                with open(out / f"{label}.spans.json", encoding="utf-8") as fh:
                    spans.extend(tr.spans, [dict(s, op=i) for s in json.load(fh)])
        return {"seconds": seconds, "traced": tr is not None,
                "attempted": len(session_commands(inputs, out)),
                "failed": len(refused), "refused": refused, "wrong": wrong,
                "stdout": stdout, "dir": out, "peak_rss_mb": peak}

    done = rounds(args.seconds, op, tracer)
    ref = cli_ref(inputs)
    first = done[0]
    problems = list(first["wrong"])
    problems += checks.check_cli_outputs(first["dir"], first["stdout"], ref)
    for d in done[1:]:
        problems += d["wrong"]
        if (d["refused"] != first["refused"]
                or set(d["stdout"]) != set(first["stdout"])):
            problems.append("cli-session: sessions ended differently")
            continue
        for path in sorted(first["dir"].rglob("*")):
            if path.suffix in (".csv", ".json") and ".spans" not in path.name:
                twin = d["dir"] / path.relative_to(first["dir"])
                if twin.read_bytes() != path.read_bytes():
                    problems.append(f"cli-session: {twin.name} differs "
                                    f"between sessions")
    return done, sorted(set(problems))


def same_outputs(done) -> list[str]:
    """Repeated operations on the same inputs must write the same bytes."""
    if any(d["bytes"] != done[0]["bytes"] for d in done[1:]):
        return ["repeated operations wrote different outputs"]
    return []


RUNNERS = {
    "bundled-fit": bundled_fit,
    "score-bulk": score_bulk,
    "audit-rpc": audit_rpc,
    "cli-session": cli_session,
}


# ----------------------------------------------------------------------- main

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rpcurve" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no rpcurve source under {SRC}")
    sys.path.insert(0, str(SRC))
    import rpcurve

    if Path(rpcurve.__file__).resolve().parent != (SRC / "rpcurve").resolve():
        raise SystemExit(f"perfbench: imported rpcurve from {rpcurve.__file__}")

    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    setup_s, import_s, inputs = timed_setup(args.workload, args.seed, workdir)
    tracer = spans.Tracer() if args.trace else None

    done, problems = RUNNERS[args.workload](args, workdir, inputs, tracer)

    untraced = [d["seconds"] for d in done if not d["traced"]]
    attempted = sum(d["attempted"] for d in done)
    failed = sum(d["failed"] for d in done)
    host = host_info()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    print(f"operations: attempted={attempted} failed={failed}; op_s is the "
          f"median of {len(untraced)} untraced, setup_s of {SETUP_REPEATS}")
    if args.trace:
        traced = [d["seconds"] for d in done if d["traced"]]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in
                   spans.layer_metrics(tracer.spans, len(traced),
                                       import_s).items()}
        t_med, u_med = statistics.median(traced), statistics.median(untraced)
        print(f"tracing overhead: op_s traced {t_med:.6g} - untraced "
              f"{u_med:.6g} = {t_med - u_med:+.6g} s "
              f"({100.0 * (t_med - u_med) / u_med:+.1f}%)")
        with open(workdir / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    else:
        if args.workload == "cli-session":
            peak = max(d["peak_rss_mb"] for d in done)
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "op_s": {"value": statistics.median(untraced), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, host=host, problems=problems,
                       samples=[d["seconds"] for d in done]), fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
