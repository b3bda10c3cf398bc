"""Print one digest per fit, per ``pca`` ranking and per rpc audit of a
fixed set of check tables, and one per group of projections, to compare
two versions of the fit, the baseline, the audit and the projector bit for
bit.

Each table gives three lines.  The first is ``name digest projections``; the
digest covers the fitted control points, the rpc scores and orders of the
table's own rows and the fit report as ``fit.json`` holds it, less its
``projections`` entry, which is the last field; so a change that only
saves projections keeps every digest.  The second is ``name pca digest``,
over the :func:`pca_rank` scores and orders.  The third is ``name audit
digest``, over the JSON text of ``audit(rpc_pipeline(), table, trials=1)``,
which holds the audit's verdicts, evidence and witnesses.  Then each
projection group gives ``proj d<d> 2^<k> digest clamped``: the digest
covers the :func:`project_points` t, distance and clamped arrays of 240
points on each of 8 seeded random curves of dimension d with coordinates
scaled by 2**k (d = 1-6, k = -40, 0, 40), and the last field counts the
clamped feet.  The next line, ``proj d<d> 2^<k> stack digest``, projects
the group's 8 curves in one stacked call and digests each curve's arrays
in the same order, so its digest equals the line before's.
The last line is ``total projections N``, the sum over the tables' fits.
Run it against two source trees and diff:

    PYTHONPATH=src python scripts/fit_digests.py > new.txt
    PYTHONPATH=/path/to/other/src python scripts/fit_digests.py > old.txt
    diff old.txt new.txt

The tables are the bundled table and its two first invariance-trial
perturbations (column 0 times 6.8, column 1 plus 100), the collinear
table, the noisy30 tables of seeds 0-29 and the arch table of
``tests/test_fitting.py``, ten 300-row resamples of the bundled rows
(seeds 0-9, log-normal noise with sigma 0.1) and the uniform 20 x 3
tables of seeds 0-19, all orientations positive.
"""

import hashlib

import numpy as np

from rpcurve.baselines import pca_rank
from rpcurve.bezier import BestEnd, RankingCurve, evaluate
from rpcurve.data import (IndicatorTable, Orientation, json_text,
                          load_bundled_table)
from rpcurve.evaluation import audit, collinear_table, rpc_pipeline
from rpcurve.fitting import fit_table, rank
from rpcurve.projection import project_points


def positive_table(values):
    n, d = values.shape
    return IndicatorTable(
        item_ids=tuple(f"it{i:02d}" for i in range(n)),
        indicator_names=tuple(f"c{j}" for j in range(d)),
        orientations=(Orientation.POSITIVE,) * d,
        values=values,
    )


def check_tables():
    bundled = load_bundled_table()
    yield "bundled", bundled
    scaled, shifted = bundled.values.copy(), bundled.values.copy()
    scaled[:, 0] *= 6.8
    shifted[:, 1] += 100.0
    yield "bundled-scale", bundled.with_values(scaled)
    yield "bundled-shift", bundled.with_values(shifted)
    yield "collinear", collinear_table()
    for seed in range(30):
        rng = np.random.default_rng(seed)
        t = rng.uniform(size=30)
        yield f"noisy30-{seed}", positive_table(
            t[:, None] * np.array([1.0, 1.5, 2.0])
            + rng.normal(scale=0.05, size=(30, 3)))
    t = np.sort(np.random.default_rng(3).uniform(size=40))
    yield "arch", positive_table(
        np.stack([t, 0.3 * t + 0.4 * np.sin(np.pi * t)], 1))
    n, d = bundled.values.shape
    for seed in range(10):
        rng = np.random.default_rng(seed)
        rows = bundled.values[rng.integers(0, n, size=300)]
        yield f"resample-{seed}", IndicatorTable(
            item_ids=tuple(f"r{i:03d}" for i in range(300)),
            indicator_names=bundled.indicator_names,
            orientations=bundled.orientations,
            values=rows * rng.lognormal(0.0, 0.1, size=(300, d)),
        )
    for seed in range(20):
        yield f"uniform-{seed}", positive_table(
            np.random.default_rng(seed).uniform(size=(20, 3)))


def projection_groups():
    """(d, k, [(curve, points)] * 8): curves with standard normal control
    points and, for each, 120 points near the curve (a uniform t plus
    normal noise of scale 0.05) and 120 spread about it (scale 2), all
    times 2**k; seeded by d, so each k scales the same curves and points."""
    for d in range(1, 7):
        for k in (-40, 0, 40):
            rng = np.random.default_rng(d)
            group = []
            for _ in range(8):
                curve = RankingCurve(
                    control_points=np.ldexp(rng.normal(size=(4, d)), k),
                    best_end=BestEnd.AT_T1)
                near = evaluate(curve, rng.uniform(size=120)) + np.ldexp(
                    rng.normal(scale=0.05, size=(120, d)), k)
                spread = np.ldexp(rng.normal(scale=2.0, size=(120, d)), k)
                group.append((curve, np.r_[near, spread]))
            yield d, k, group


def digest(*parts):
    sha = hashlib.sha256()
    for part in parts:
        sha.update(np.ascontiguousarray(part).tobytes())
    return sha.hexdigest()[:16]


def main():
    total = 0
    for name, table in check_tables():
        curve, report = fit_table(table)
        ranking = rank(table, curve)
        saved = report.to_dict()
        total += saved.pop("projections")
        print(name, digest(curve.control_points, ranking.scores,
                           ranking.orders, json_text(saved)),
              report.projections)
        pca = pca_rank(table)
        print(name, "pca", digest(pca.scores, pca.orders))
        report = audit(rpc_pipeline(), table, trials=1)
        print(name, "audit", digest(json_text(report.to_dict())))
    for d, k, group in projection_groups():
        feet = [project_points(curve, x) for curve, x in group]
        clamped = sum(int(c.sum()) for _, _, c in feet)
        print(f"proj d{d} 2^{k}", digest(*(a for f in feet for a in f)),
              clamped)
        stack = project_points([curve for curve, _ in group],
                               np.stack([x for _, x in group]))
        print(f"proj d{d} 2^{k} stack",
              digest(*(a[i] for i in range(len(group)) for a in stack)))
    print("total projections", total)


if __name__ == "__main__":
    main()
