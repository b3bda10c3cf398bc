from unittest import mock

import numpy as np
import pytest

from rpcurve import fitting
from rpcurve.data import IndicatorTable, Orientation, load_bundled_table
from rpcurve.fitting import fit_table


@pytest.fixture(scope="session")
def bundled_table():
    return load_bundled_table()


@pytest.fixture(scope="session")
def bundled_fit(bundled_table):
    """Fit on the bundled snapshot once per session; several modules and the
    acceptance gate all need it."""
    curve, report = fit_table(bundled_table)
    return curve, report


def small_table(values, orientations=None, ids=None, names=None):
    values = np.asarray(values, dtype=float)
    n, d = values.shape
    if orientations is None:
        orientations = (Orientation.POSITIVE,) * d
    else:
        orientations = tuple(
            o if isinstance(o, Orientation) else Orientation(o)
            for o in orientations
        )
    return IndicatorTable(
        item_ids=tuple(ids) if ids else tuple(f"it{i:02d}" for i in range(n)),
        indicator_names=tuple(names) if names else tuple(
            f"c{j}" for j in range(d)),
        orientations=orientations,
        values=values,
    )


@pytest.fixture
def make_table():
    return small_table


@pytest.fixture
def projection_cap():
    """``with projection_cap(n):`` fits stop after n projections."""
    return lambda n: mock.patch.object(fitting, "MAX_PROJECTIONS", n)
