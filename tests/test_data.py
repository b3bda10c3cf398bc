import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rpcurve.data import (
    IndicatorTable,
    NormalizationTransform,
    Orientation,
    apply_transform,
    denormalize_point,
    load_bundled_table,
    load_rows,
    load_schema,
    load_table,
    normalize,
)
from rpcurve.errors import (
    ConstantColumn,
    MissingCell,
    NonNumericCell,
    SchemaError,
    UnknownIndicator,
)


def write_csv(tmp_path, text, name="t.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


GOOD_CSV = "id,a,b\nx,1,10\ny,2,20\nz,3,15\n"
GOOD_SCHEMA = {"a": "positive", "b": "negative"}


class TestOrientation:
    def test_parse_tokens(self):
        assert Orientation.parse("positive") is Orientation.POSITIVE
        assert Orientation.parse("negative") is Orientation.NEGATIVE

    def test_parse_rejects_junk(self):
        with pytest.raises(SchemaError):
            Orientation.parse("up")


class TestIndicatorTable:
    def test_values_are_readonly(self, make_table):
        t = make_table([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            t.values[0, 0] = 9.0

    def test_rejects_single_item(self):
        with pytest.raises(Exception):
            IndicatorTable(
                item_ids=("only",),
                indicator_names=("a",),
                orientations=(Orientation.POSITIVE,),
                values=np.array([[1.0]]),
            )

    def test_rejects_nonfinite(self, make_table):
        with pytest.raises(Exception):
            make_table([[1.0, np.nan], [2.0, 3.0]])

    def test_indicator_index(self, make_table):
        t = make_table([[1, 2], [3, 4]], names=["gdp", "leb"])
        assert t.indicator_index("leb") == 1
        with pytest.raises(UnknownIndicator):
            t.indicator_index("nope")

    def test_with_values_keeps_ids(self, make_table):
        t = make_table([[1, 2], [3, 4]])
        t2 = t.with_values(np.array([[5.0, 6.0], [7.0, 8.0]]))
        assert t2.item_ids == t.item_ids
        assert t2.orientations == t.orientations
        assert t2.values[1, 1] == 8.0


class TestLoadTable:
    def test_roundtrip(self, tmp_path):
        p = write_csv(tmp_path, GOOD_CSV)
        t = load_table(p, GOOD_SCHEMA)
        assert t.item_ids == ("x", "y", "z")
        assert t.indicator_names == ("a", "b")
        assert t.orientations == (Orientation.POSITIVE, Orientation.NEGATIVE)
        np.testing.assert_allclose(t.values, [[1, 10], [2, 20], [3, 15]])

    def test_header_must_start_with_id(self, tmp_path):
        p = write_csv(tmp_path, "name,a,b\nx,1,10\ny,2,20\n")
        with pytest.raises(SchemaError):
            load_table(p, GOOD_SCHEMA)

    def test_missing_cell_names_row(self, tmp_path):
        p = write_csv(tmp_path, "id,a,b\nx,1,10\ny,2\n")
        with pytest.raises(MissingCell) as exc:
            load_table(p, GOOD_SCHEMA)
        assert "3" in str(exc.value)

    def test_nonnumeric_cell(self, tmp_path):
        p = write_csv(tmp_path, "id,a,b\nx,1,10\ny,two,20\n")
        with pytest.raises(NonNumericCell) as exc:
            load_table(p, GOOD_SCHEMA)
        msg = str(exc.value)
        assert "two" in msg and "a" in msg

    def test_schema_column_mismatch_both_ways(self, tmp_path):
        p = write_csv(tmp_path, GOOD_CSV)
        with pytest.raises(UnknownIndicator):
            load_table(p, {"a": "positive"})
        with pytest.raises(UnknownIndicator):
            load_table(p, {**GOOD_SCHEMA, "c": "positive"})

    def test_duplicate_column_rejected(self, tmp_path):
        p = write_csv(tmp_path, "id,a,a\nx,1,10\ny,2,20\n")
        with pytest.raises(SchemaError):
            load_table(p, {"a": "positive"})

    def test_extra_field_rejected(self, tmp_path):
        p = write_csv(tmp_path, "id,a,b\nx,1,10,99\ny,2,20\n")
        with pytest.raises(SchemaError):
            load_table(p, GOOD_SCHEMA)

    def test_constant_column_rejected_at_load(self, tmp_path):
        p = write_csv(tmp_path, "id,a,b\nx,1,7\ny,2,7\n")
        with pytest.raises(ConstantColumn):
            load_table(p, GOOD_SCHEMA)


# Padding around a cell; numpy's string conversion refuses "\x1c", which
# float() strips as whitespace, so such cells take the cell-by-cell path.
PAD = st.text(alphabet=" \t\u2003\x1c", max_size=2)


@st.composite
def padded_rows(draw):
    """Rows of two ``repr``-ed finite floats with whitespace padding."""
    n = draw(st.integers(1, 4))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=2 * n, max_size=2 * n))
    cells = [draw(PAD) + repr(v) + draw(PAD) for v in values]
    return [cells[2 * i:2 * i + 2] for i in range(n)]


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("parse") / "t.csv"


LOADERS = [
    pytest.param(lambda p: load_table(p, GOOD_SCHEMA), id="load_table"),
    pytest.param(lambda p: load_rows(p, ["a", "b"]), id="load_rows"),
]

FAULTS = [
    pytest.param("id,a,b\nx,1,10\ny,2\n", MissingCell,
                 "{p}:3: expected 3 fields, got 2", id="short-row"),
    pytest.param("id,a,b\nx,1,10,99\ny,2,20\n", SchemaError,
                 "{p}:2: expected 3 fields, got 4", id="long-row"),
    pytest.param("id,a,b\nx,1, \ny,2,20\n", MissingCell,
                 "{p}:2: item 'x' is missing indicator 'b'", id="blank-cell"),
    pytest.param("id,a,b\nx,1,10\ny,two,20\n", NonNumericCell,
                 "{p}:3: item 'y', indicator 'a': cannot parse 'two'",
                 id="non-numeric"),
    pytest.param("id,a,b\nx,1,nan\ny,2,20\n", NonNumericCell,
                 "{p}:2: item 'x', indicator 'b': non-finite value 'nan'",
                 id="nan"),
    pytest.param("id,a,b\nx,1,10\ny, -inf ,20\n", NonNumericCell,
                 "{p}:3: item 'y', indicator 'a': non-finite value '-inf'",
                 id="inf"),
    # two faults: the first in row-major order is the one named
    pytest.param("id,a,b\nx,1,bad\ny,nan,20\n", NonNumericCell,
                 "{p}:2: item 'x', indicator 'b': cannot parse 'bad'",
                 id="row-major-first-cell"),
    pytest.param("id,a,b\nx,1,inf\ny,2\n", NonNumericCell,
                 "{p}:2: item 'x', indicator 'b': non-finite value 'inf'",
                 id="cell-before-short-row"),
]


class TestCsvParse:
    @settings(max_examples=200, deadline=None)
    @given(padded_rows())
    @example([["-0.0 ", " 5e-324"], ["\t1e+308", "-1e+308"],
              ["2.2250738585072014e-308", "1e-310"]])
    @example([["\x1c1.5", "-0.0 "]])
    def test_values_bit_identical_to_float(self, csv_path, rows):
        csv_path.write_text(
            "id,a,b\n"
            + "".join(f" r{i}\t,{a},{b}\n" for i, (a, b) in enumerate(rows)),
            encoding="utf-8",
        )
        got = load_rows(csv_path, ["a", "b"])
        assert got.item_ids == tuple(f"r{i}" for i in range(len(rows)))
        want = np.array([[float(c.strip()) for c in row] for row in rows])
        assert got.values.dtype == want.dtype
        assert got.values.shape == want.shape
        assert got.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("load", LOADERS)
    @pytest.mark.parametrize("text,error,message", FAULTS)
    def test_first_fault_is_named(self, tmp_path, load, text, error,
                                  message):
        p = write_csv(tmp_path, text)
        with pytest.raises(error) as exc:
            load(p)
        assert type(exc.value) is error
        assert str(exc.value) == message.format(p=p)


class TestLoadSchema:
    def test_reads_json(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(GOOD_SCHEMA), encoding="utf-8")
        s = load_schema(p)
        assert s == {
            "a": Orientation.POSITIVE,
            "b": Orientation.NEGATIVE,
        }

    def test_rejects_empty(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text("{}", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_schema(p)


class TestNormalize:
    def test_endpoints_exact(self, make_table):
        t = make_table([[1.0, 100.0], [3.0, 300.0], [2.0, 150.0]])
        nt = normalize(t)
        assert nt.values.min(axis=0).tolist() == [0.0, 0.0]
        assert nt.values.max(axis=0).tolist() == [1.0, 1.0]

    def test_matches_direct_formula(self, make_table):
        rng = np.random.default_rng(20240301)
        for _ in range(25):
            vals = rng.normal(size=(8, 3)) * rng.uniform(0.5, 50)
            vals[:, 1] += 1000.0
            t = make_table(vals)
            nt = normalize(t)
            lo = vals.min(axis=0)
            hi = vals.max(axis=0)
            np.testing.assert_allclose(nt.values, (vals - lo) / (hi - lo))

    def test_transform_roundtrip(self, make_table):
        rng = np.random.default_rng(7)
        vals = rng.uniform(-5, 5, size=(6, 4))
        t = make_table(vals)
        nt = normalize(t)
        back = np.array(
            [denormalize_point(z, nt.transform) for z in nt.values]
        )
        np.testing.assert_allclose(back, vals, atol=1e-12)

    def test_apply_transform_can_leave_unit_box(self, make_table):
        t = make_table([[0.0, 0.0], [10.0, 1.0]])
        nt = normalize(t)
        z = apply_transform(np.array([[20.0, 0.5]]), nt.transform)
        assert z[0, 0] == 2.0

    def test_transform_dict_roundtrip(self, make_table):
        t = make_table([[1.0, 2.0], [4.0, 9.0]])
        tr = normalize(t).transform
        tr2 = NormalizationTransform.from_dict(tr.to_dict())
        assert tr2.indicator_names == tr.indicator_names
        np.testing.assert_array_equal(tr2.mins, tr.mins)
        np.testing.assert_array_equal(tr2.maxs, tr.maxs)


class TestBundledData:
    def test_shape_and_names(self, bundled_table):
        assert bundled_table.n_items == 171
        assert bundled_table.n_indicators == 4
        assert len(set(bundled_table.item_ids)) == 171

    def test_orientations(self, bundled_table):
        kinds = [o.value for o in bundled_table.orientations]
        assert kinds == ["positive", "positive", "negative", "negative"]

    def test_loads_fresh_each_call(self):
        a = load_bundled_table()
        b = load_bundled_table()
        assert a.item_ids == b.item_ids
        np.testing.assert_array_equal(a.values, b.values)
