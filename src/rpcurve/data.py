"""Indicator tables: CSV/schema loading, validation, unit-interval scaling,
and the text layout of every result file the package writes.

A table holds items (rows) by indicator columns, each column tagged with an
orientation: ``positive`` means larger raw values are better, ``negative``
means smaller raw values are better.  Normalization is per-column min-max
onto [0, 1] and keeps raw-unit recovery exact through the stored transform.
"""

from __future__ import annotations

import csv
import enum
import io
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
    SpreadOverflow,
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


def orientation_signs(orientations) -> np.ndarray:
    """-1.0 for each negatively oriented dimension and +1.0 for the others:
    the direction in which a dimension gets better."""
    return np.where(negative_mask(orientations), -1.0, 1.0)


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
        constant = vals.min(axis=0) == vals.max(axis=0)
        if constant.any():
            name = self.indicator_names[int(constant.argmax())]
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
    """Per-column (min, max) pairs used for the [0, 1] scaling.

    Checked at construction: SchemaError unless the names are unique and
    ``mins`` and ``maxs`` are 1-D with one entry per name and every max >
    min; SpreadOverflow naming the first indicator whose ``max - min`` is
    not finite, a range too wide to scale.
    """

    indicator_names: tuple[str, ...]
    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self) -> None:
        mins, maxs = _readonly(self.mins), _readonly(self.maxs)
        names = self.indicator_names
        if len(set(names)) != len(names):
            raise SchemaError(f"transform repeats an indicator: {names}")
        if not mins.shape == maxs.shape == (len(names),):
            raise SchemaError(
                f"transform bounds of shapes {mins.shape} and {maxs.shape} "
                f"for {len(names)} indicators"
            )
        if not np.all(maxs > mins):
            raise SchemaError("transform has a max <= its min")
        with np.errstate(over="ignore"):
            spread = maxs - mins
        for name, lo, hi, width in zip(names, mins, maxs, spread):
            if not np.isfinite(width):
                raise SpreadOverflow(
                    f"indicator {name!r} spans {float(lo)!r} to "
                    f"{float(hi)!r}, a range too wide to scale"
                )
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)

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
    with open(path, "r", encoding="utf-8-sig") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict) or not raw:
        raise SchemaError(f"schema {path} must be a non-empty JSON object")
    return {str(k): Orientation.parse(v) for k, v in raw.items()}


def _csv_rows(path, text: str) -> list[tuple[int, list[str]]]:
    """``(file line, fields)`` of each non-blank row, as :mod:`csv` reads
    them from a file opened with ``newline=""``; SchemaError naming the
    file line where :mod:`csv` gives up (a field over its size limit)."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        return [(reader.line_num, row) for row in reader if row]
    except csv.Error as exc:
        raise SchemaError(f"{path}:{reader.line_num}: {exc}") from None


def _plain_lines(text: str) -> list[str] | None:
    """The non-blank lines of ``text``, line ends dropped, if :mod:`csv`
    would split each of them exactly at its commas, else None."""
    if '"' in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    # csv.reader then ends lines only at "\n" or "\r\n" (str.splitlines
    # would also break at "\x1c", "\x85", ...) and skips the empty ones; a
    # field over its size limit is left for it to reject
    lines = list(filter(None, text.split("\n")))
    if max(map(len, lines), default=0) > csv.field_size_limit():
        return None
    return lines


def _parse_plain(body: list[str], width: int, commas: int):
    """Values of ``body``, lines of ``width`` comma-separated fields holding
    ``commas`` commas in all, parsed by one ``np.loadtxt`` call; None
    unless every line has ``width`` fields and every cell is finite."""
    if commas != (width - 1) * len(body):
        return None
    try:
        values = np.loadtxt(body, delimiter=",", usecols=range(1, width),
                            dtype=float, comments=None, ndmin=2)
    except ValueError:
        return None
    # loadtxt read every line (it drops none here) and found no line short
    # of ``width`` fields; the comma count then leaves none with more
    if values.shape[0] != len(body) or not np.isfinite(values).all():
        return None
    return values


def _read_csv(path, expected):
    """Ids, indicator names (in header order) and parsed values of
    ``id,<ind1>,...`` CSV rows whose header holds exactly the names in
    ``expected``, in any order.  Fully blank lines are skipped; messages
    name a row by its file line.

    The file is read once as text and parsed by one of two paths, which
    give the same ids and value bytes wherever both run:

    * one ``np.loadtxt`` call, when the text holds no ``"`` and no ``\\r``
      outside ``\\r\\n`` line ends (so :mod:`csv` would split each line
      exactly at its commas), every row has as many fields as the header,
      and every cell parses to a finite value;
    * otherwise :mod:`csv` rows parsed cell by cell with ``float()``: the
      only path that reads quoted fields or lone ``\\r`` line ends, parses
      the cells numpy refuses but ``float()`` accepts (``1_0``, non-ASCII
      digits), and names a fault by its file line.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        content = fh.read()
    lines = _plain_lines(content)
    if lines is None:
        rows = _csv_rows(path, content)
        heads = [row for _, row in rows[:2]]
    else:
        heads = [line.split(",") for line in lines[:2]]
    if len(heads) < 2:
        raise SchemaError(f"{path}: no data rows")
    header = [h.strip() for h in heads[0]]
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

    width = len(header)
    if lines is not None:
        body = lines[1:]
        values = _parse_plain(body, width,
                              content.count(",") - lines[0].count(","))
        if values is not None:
            return (tuple(line.partition(",")[0].strip() for line in body),
                    tuple(names), values)
        rows = _csv_rows(path, content)
    # Cell by cell, in row-major order: names the first faulty cell, and
    # parses any cell that numpy refuses but float() accepts.
    ids: list[str] = []
    data: list[list[float]] = []
    for lineno, row in rows[1:]:
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
    """Load CSV rows to score against a curve fitted on indicators
    ``names``.  The header must hold exactly those names, in any order;
    the columns come back in the order of ``names``.  Cells are checked as
    by :func:`load_table`, but the fit-time invariants are not: one row or
    a constant column is fine."""
    names = tuple(names)
    ids, header, values = _read_csv(path, set(names))
    return ScoringRows(ids, names, values[:, [header.index(n) for n in names]])


def normalize(table: IndicatorTable) -> NormalizedTable:
    """Min-max scale each column onto [0, 1] with :func:`apply_transform`
    (endpoints attained exactly).  No column can have zero spread: an
    :class:`IndicatorTable` column holds two distinct finite values, and
    x != y implies x - y != 0 in IEEE arithmetic.  A spread that overflows
    (finite values over 1.8e308 apart) raises SpreadOverflow."""
    transform = NormalizationTransform(
        indicator_names=table.indicator_names,
        mins=table.values.min(axis=0),
        maxs=table.values.max(axis=0),
    )
    return NormalizedTable(
        source=table,
        values=apply_transform(table.values, transform),
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


def csv_text(rows) -> str:
    r"""CSV text of ``rows`` (iterables of cells), each line ended by ``\n``.
    Floats, numpy ones included, are written as ``repr(float(x))``, which
    reads back to the same double; other cells as :mod:`csv` writes them
    (ints and strings unchanged, quoted only where needed)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(
            [repr(float(v)) if isinstance(v, (float, np.floating)) else v
             for v in row]
        )
    return buf.getvalue()


def json_text(payload) -> str:
    """JSON text of ``payload``: two-space indent, one final newline."""
    return json.dumps(payload, indent=2) + "\n"


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, line ends untranslated."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


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
