"""Make a workload's inputs from its seed.

Usage: python prepare.py SRC WORKLOAD SEED OUTDIR

Run as a script this is one set-up of the benchmark: a fresh interpreter
imports ``rpcurve.cli`` and writes the workload's inputs to OUTDIR, with
the import's wall time in ``import_s.txt``.  The same seed always gives
the same files.

* ``score-bulk``: ``bulk.csv``, BULK_ROWS rows drawn with replacement from
  the bundled table, every cell multiplied by exp(N(0, JITTER^2)), so some
  rows fall beyond the curve's ends; plus ``curve.json``.
* ``cli-session``: ``curve.json`` and three small tables to score:
  ``rows8.csv`` (eight bundled rows drawn by the seed, redrawn until no
  column is constant), ``row1.csv`` (Turkey alone) and ``equal.csv``
  (France and Spain, whose life expectancy is equal).  The last two do not
  depend on the seed.
* ``bundled-fit`` and ``audit-rpc`` use the bundled table as it is.

``curve.json`` is the published 2005 curve: the raw-unit control points of
``reference_2005.json`` normalized by the bundled table's min-max
transform, best end at t = 0.
"""

from __future__ import annotations

import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

BULK_ROWS = 20_000
JITTER = 0.1
SAMPLE_ROWS = 8
SINGLE_ROW = ("Turkey",)
EQUAL_ROWS = ("France", "Spain")


def resources(src) -> Path:
    return Path(src) / "rpcurve" / "resources"


def bundled_rows(src) -> list[list[str]]:
    """Header plus rows of the bundled CSV, as text."""
    with open(resources(src) / "countries_2005.csv", newline="",
              encoding="utf-8") as fh:
        return [r for r in csv.reader(fh) if r]


def write_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def bulk_rows(src, seed: int, n: int = BULK_ROWS) -> list[list]:
    header, *rows = bundled_rows(src)
    raw = np.array([[float(c) for c in r[1:]] for r in rows])
    rng = np.random.default_rng([seed, 0])
    picks = rng.integers(0, len(rows), size=n)
    values = raw[picks] * np.exp(rng.normal(0.0, JITTER, size=(n, raw.shape[1])))
    return [header] + [
        [f"row{i:05d}"] + [repr(float(v)) for v in values[i]] for i in range(n)
    ]


def small_tables(src, seed: int) -> dict[str, list[list[str]]]:
    header, *rows = bundled_rows(src)
    by_id = {r[0]: r for r in rows}
    rng = np.random.default_rng([seed, 1])
    while True:
        picked = [rows[i] for i in rng.choice(len(rows), SAMPLE_ROWS,
                                              replace=False)]
        if all(len({r[j] for r in picked}) > 1 for j in range(1, len(header))):
            break
    return {
        "rows8.csv": [header] + picked,
        "row1.csv": [header] + [by_id[i] for i in SINGLE_ROW],
        "equal.csv": [header] + [by_id[i] for i in EQUAL_ROWS],
    }


def published_curve(src) -> dict:
    """The published curve as the payload ``rpcurve.fitting.load_curve`` reads."""
    from rpcurve.bezier import BestEnd, RankingCurve, curve_to_dict
    from rpcurve.data import load_bundled_table, normalize

    transform = normalize(load_bundled_table()).transform
    with open(resources(src) / "reference_2005.json", encoding="utf-8") as fh:
        raw = np.asarray(json.load(fh)["control_points_raw"], dtype=float)
    points = (raw - transform.mins) / (transform.maxs - transform.mins)
    curve = RankingCurve(points, best_end=BestEnd.AT_T0, transform=transform)
    return {"curve": curve_to_dict(curve), "transform": transform.to_dict()}


def write_inputs(src, workload: str, seed: int, outdir) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    if workload in ("score-bulk", "cli-session"):
        with open(out / "curve.json", "w", encoding="utf-8") as fh:
            json.dump(published_curve(src), fh, indent=2)
    if workload == "score-bulk":
        write_csv(out / "bulk.csv", bulk_rows(src, seed))
    if workload == "cli-session":
        for name, rows in small_tables(src, seed).items():
            write_csv(out / name, rows)
    if workload in ("bundled-fit", "audit-rpc"):
        from rpcurve.data import load_bundled_table

        load_bundled_table()


if __name__ == "__main__":
    src_dir, name, seed_text, outdir = sys.argv[1:]
    sys.path.insert(0, src_dir)
    start = time.perf_counter()
    import rpcurve.cli  # noqa: F401 - the import is part of set-up

    import_s = time.perf_counter() - start
    write_inputs(src_dir, name, int(seed_text), outdir)
    (Path(outdir) / "import_s.txt").write_text(repr(import_s) + "\n")
