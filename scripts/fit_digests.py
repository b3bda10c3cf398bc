"""Print one digest per fit and per ``pca`` ranking of a fixed set of check
tables, to compare two versions of the fit and of the baseline bit for bit.

Each table gives two lines.  The first is ``name digest projections``; the
digest covers the fitted control points and the rpc scores and orders of
the table's own rows, and the last field is the fit's projection count.
The second is ``name pca digest``, over the :func:`pca_rank` scores and
orders.  Run it against two source trees and diff:

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
from rpcurve.data import IndicatorTable, Orientation, load_bundled_table
from rpcurve.evaluation import collinear_table
from rpcurve.fitting import fit_table, rank


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


def digest(*parts):
    sha = hashlib.sha256()
    for part in parts:
        sha.update(np.ascontiguousarray(part).tobytes())
    return sha.hexdigest()[:16]


def main():
    for name, table in check_tables():
        curve, report = fit_table(table)
        ranking = rank(table, curve)
        print(name, digest(curve.control_points, ranking.scores,
                           ranking.orders), report.projections)
        pca = pca_rank(table)
        print(name, "pca", digest(pca.scores, pca.orders))


if __name__ == "__main__":
    main()
