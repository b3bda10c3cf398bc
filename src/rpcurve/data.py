"""Indicator tables: CSV/schema loading, validation, unit-interval scaling.

A table holds items (rows) by indicator columns, each column tagged with an
orientation: ``positive`` means larger raw values are better, ``negative``
means smaller raw values are better.  Normalization is per-column min-max
onto [0, 1] and keeps raw-unit recovery exact through the stored transform.
"""

from __future__ import annotations

import csv
import enum
import json
from dataclasses import dataclass
from importlib import resources
from typing import Mapping

import numpy as np

from .errors import (
    ConstantColumn,
    MissingCell,
    NonNumericCell,
    SchemaError,
    UnknownIndicator,
)


class Orientation(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"

    @classmethod
    def parse(cls, text: str) -> "Orientation":
        try:
            return cls(text)
        except ValueError:
            raise SchemaError(
                f"orientation must be 'positive' or 'negative', got {text!r}"
            ) from None


def negative_mask(orientations) -> np.ndarray:
    """Boolean mask of the negatively oriented dimensions."""
    return np.array(
        [o is Orientation.NEGATIVE for o in orientations], dtype=bool
    )


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ScoringRows:
    """Raw rows to score against a fitted curve, as :func:`load_rows` reads
    them.  Unlike :class:`IndicatorTable` they hold no fit-time invariant:
    one row or a constant column is fine, since the curve's stored
    transform does the scaling."""

    item_ids: tuple[str, ...]
    indicator_names: tuple[str, ...]
    values: np.ndarray


@dataclass(frozen=True)
class IndicatorTable:
    """Validated raw indicator data, the input of a fit.

    Invariants enforced at construction: at least 2 items and 1 indicator,
    all cells finite, every column has at least two distinct values, and
    row order is preserved exactly as given.
    """

    item_ids: tuple[str, ...]
    indicator_names: tuple[str, ...]
    orientations: tuple[Orientation, ...]
    values: np.ndarray
    provenance: str | None = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise SchemaError("values must be a 2-D array")
        n, d = vals.shape
        if n != len(self.item_ids):
            raise SchemaError(
                f"{len(self.item_ids)} ids for {n} rows of values"
            )
        if d != len(self.indicator_names):
            raise SchemaError(
                f"{len(self.indicator_names)} indicator names for {d} columns"
            )
        if len(self.orientations) != d:
            raise SchemaError(
                f"{len(self.orientations)} orientations for {d} columns"
            )
        if n < 2:
            raise ConstantColumn("need at least 2 items")
        if d < 1:
            raise SchemaError("need at least 1 indicator")
        bad = np.argwhere(~np.isfinite(vals))
        if bad.size:
            i, j = bad[0]
            raise NonNumericCell(
                f"non-finite value for item {self.item_ids[i]!r}, "
                f"indicator {self.indicator_names[j]!r}"
            )
        for j, name in enumerate(self.indicator_names):
            if np.unique(vals[:, j]).size < 2:
                raise ConstantColumn(
                    f"indicator {name!r} is constant across all items"
                )
        object.__setattr__(self, "values", _readonly(vals))

    @property
    def n_items(self) -> int:
        return self.values.shape[0]

    @property
    def n_indicators(self) -> int:
        return self.values.shape[1]

    def indicator_index(self, name: str) -> int:
        try:
            return self.indicator_names.index(name)
        except ValueError:
            raise UnknownIndicator(f"no indicator named {name!r}") from None

    def with_values(self, values: np.ndarray) -> "IndicatorTable":
        """Same items/indicators/orientations with replaced cell values."""
        return IndicatorTable(
            item_ids=self.item_ids,
            indicator_names=self.indicator_names,
            orientations=self.orientations,
            values=np.asarray(values, dtype=float),
            provenance=self.provenance,
        )


@dataclass(frozen=True)
class NormalizationTransform:
    """Per-column (min, max) pairs used for the [0, 1] scaling."""

    indicator_names: tuple[str, ...]
    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "mins", _readonly(self.mins))
        object.__setattr__(self, "maxs", _readonly(self.maxs))

    @property
    def dim(self) -> int:
        return len(self.indicator_names)

    def to_dict(self) -> dict:
        return {
            "indicator_names": list(self.indicator_names),
            "mins": self.mins.tolist(),
            "maxs": self.maxs.tolist(),
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "NormalizationTransform":
        return cls(
            indicator_names=tuple(d["indicator_names"]),
            mins=np.asarray(d["mins"], dtype=float),
            maxs=np.asarray(d["maxs"], dtype=float),
        )


@dataclass(frozen=True)
class NormalizedTable:
    source: IndicatorTable
    values: np.ndarray
    transform: NormalizationTransform

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _readonly(self.values))

    @property
    def orientations(self) -> tuple[Orientation, ...]:
        return self.source.orientations


def load_schema(path) -> dict[str, Orientation]:
    """Read a JSON mapping of indicator name -> 'positive' | 'negative'."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict) or not raw:
        raise SchemaError(f"schema {path} must be a non-empty JSON object")
    return {str(k): Orientation.parse(v) for k, v in raw.items()}


def _read_csv(path, expected):
    """Ids, indicator names and parsed values of ``id,<ind1>,...`` CSV rows
    whose header holds exactly the names in ``expected``, in any order."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r]  # ignore fully blank lines
    if len(rows) < 2:
        raise SchemaError(f"{path}: no data rows")
    header = [h.strip() for h in rows[0]]
    if not header or header[0] != "id":
        raise SchemaError(f"{path}: first header column must be 'id'")
    names = header[1:]
    if not names:
        raise SchemaError(f"{path}: no indicator columns")
    if len(set(names)) != len(names):
        raise SchemaError(f"{path}: duplicate indicator columns in header")
    for name in names:
        if name not in expected:
            raise UnknownIndicator(
                f"indicator {name!r} in {path} is not an expected indicator"
            )
    for name in expected:
        if name not in names:
            raise UnknownIndicator(
                f"expected indicator {name!r} is absent from {path}"
            )

    body = rows[1:]
    width = len(header)
    if all(len(row) == width for row in body):
        try:
            values = np.array([row[1:] for row in body], dtype=float)
        except ValueError:
            pass
        else:
            if np.isfinite(values).all():
                return (tuple(row[0].strip() for row in body),
                        tuple(names), values)
    # Cell by cell, in row-major order: names the first faulty cell, and
    # parses any cell that numpy refuses but float() accepts.
    ids: list[str] = []
    data: list[list[float]] = []
    for lineno, row in enumerate(body, start=2):
        if len(row) < width:
            raise MissingCell(
                f"{path}:{lineno}: expected {width} fields, got {len(row)}"
            )
        if len(row) > width:
            raise SchemaError(
                f"{path}:{lineno}: expected {width} fields, got {len(row)}"
            )
        item_id = row[0].strip()
        parsed = []
        for name, cell in zip(names, row[1:]):
            text = cell.strip()
            if not text:
                raise MissingCell(
                    f"{path}:{lineno}: item {item_id!r} is missing "
                    f"indicator {name!r}"
                )
            try:
                value = float(text)
            except ValueError:
                raise NonNumericCell(
                    f"{path}:{lineno}: item {item_id!r}, indicator "
                    f"{name!r}: cannot parse {text!r}"
                ) from None
            if not np.isfinite(value):
                raise NonNumericCell(
                    f"{path}:{lineno}: item {item_id!r}, indicator "
                    f"{name!r}: non-finite value {text!r}"
                )
            parsed.append(value)
        ids.append(item_id)
        data.append(parsed)

    return tuple(ids), tuple(names), np.asarray(data, dtype=float)


def load_table(
    path,
    schema: Mapping[str, Orientation | str],
    provenance: str | None = None,
) -> IndicatorTable:
    """Load ``id,<ind1>,...,<indD>`` CSV rows against an orientation schema.

    Raises MissingCell / NonNumericCell / ConstantColumn / UnknownIndicator
    naming the offending row or column.
    """
    schema = {
        k: v if isinstance(v, Orientation) else Orientation.parse(v)
        for k, v in schema.items()
    }
    ids, names, values = _read_csv(path, schema)
    return IndicatorTable(
        item_ids=ids,
        indicator_names=names,
        orientations=tuple(schema[name] for name in names),
        values=values,
        provenance=provenance,
    )


def load_rows(path, names) -> ScoringRows:
    """Load CSV rows to score, checked as by :func:`load_table` except for
    the fit-time invariants; the header must hold exactly ``names``."""
    return ScoringRows(*_read_csv(path, set(names)))


def normalize(table: IndicatorTable) -> NormalizedTable:
    """Min-max scale each column onto [0, 1] (endpoints attained exactly)."""
    mins = table.values.min(axis=0)
    maxs = table.values.max(axis=0)
    spread = maxs - mins
    if np.any(spread <= 0):
        j = int(np.argmax(spread <= 0))
        raise ConstantColumn(
            f"indicator {table.indicator_names[j]!r} has zero spread"
        )
    transform = NormalizationTransform(
        indicator_names=table.indicator_names, mins=mins, maxs=maxs
    )
    return NormalizedTable(
        source=table,
        values=(table.values - mins) / spread,
        transform=transform,
    )


def apply_transform(
    values: np.ndarray, transform: NormalizationTransform
) -> np.ndarray:
    """Scale raw values with a stored transform (no [0, 1] guarantee)."""
    return (np.asarray(values, dtype=float) - transform.mins) / (
        transform.maxs - transform.mins
    )


def denormalize_point(
    point: np.ndarray, transform: NormalizationTransform
) -> np.ndarray:
    """Map one normalized point back to raw units."""
    return transform.mins + np.asarray(point, dtype=float) * (
        transform.maxs - transform.mins
    )


BUNDLED_PROVENANCE = (
    "Bundled snapshot: 2005 national development statistics for 171 "
    "countries (GDP per capita at purchasing power parity, life expectancy "
    "at birth, a tuberculosis case rate, and infant mortality), assembled "
    "from public World Development Indicators era sources for offline "
    "reproducibility."
)


def bundled_data_path():
    return resources.files("rpcurve.resources").joinpath("countries_2005.csv")


def bundled_schema_path():
    return resources.files("rpcurve.resources").joinpath(
        "countries_2005.schema.json"
    )


def load_bundled_table() -> IndicatorTable:
    """The committed 2005 snapshot (171 countries x 4 indicators)."""
    with resources.as_file(bundled_data_path()) as data_file, resources.as_file(
        bundled_schema_path()
    ) as schema_file:
        schema = load_schema(schema_file)
        return load_table(data_file, schema, provenance=BUNDLED_PROVENANCE)
