import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rpcurve import data
from rpcurve.data import (
    IndicatorTable,
    NormalizationTransform,
    Orientation,
    apply_transform,
    csv_text,
    denormalize_point,
    json_text,
    load_bundled_table,
    load_rows,
    load_schema,
    load_table,
    normalize,
    write_text,
)
from rpcurve.errors import (
    ConstantColumn,
    MissingCell,
    NonNumericCell,
    SchemaError,
    SpreadOverflow,
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

    @pytest.mark.parametrize("fields, message", [
        ({"values": np.zeros(4)}, "values must be a 2-D array"),
        ({"item_ids": ("x",)}, "1 ids for 2 rows of values"),
        ({"indicator_names": ("a",)}, "1 indicator names for 2 columns"),
        ({"orientations": (Orientation.POSITIVE,)},
         "1 orientations for 2 columns"),
        ({"values": np.zeros((2, 0)), "indicator_names": (),
          "orientations": ()}, "need at least 1 indicator"),
    ])
    def test_shape_errors(self, fields, message):
        good = {
            "item_ids": ("x", "y"),
            "indicator_names": ("a", "b"),
            "orientations": (Orientation.POSITIVE,) * 2,
            "values": np.array([[1.0, 2.0], [3.0, 4.0]]),
        }
        with pytest.raises(SchemaError) as exc:
            IndicatorTable(**(good | fields))
        assert str(exc.value) == message

    def test_rejects_nonfinite(self, make_table):
        with pytest.raises(Exception):
            make_table([[1.0, np.nan], [2.0, 3.0]])

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

LONG_ID = "y" * 140_000  # over csv.field_size_limit(), 131,072

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
    # a skipped blank line still counts: the row is named by its file line
    pytest.param("id,a,b\n\nx,1,10\ny,2\n", MissingCell,
                 "{p}:4: expected 3 fields, got 2", id="after-blank-line"),
    pytest.param(f"id,a,b\nx,1,10\n{LONG_ID},2,20\n", SchemaError,
                 "{p}:3: field larger than field limit (131072)",
                 id="long-id"),
    pytest.param(f'id,a,b\nx,1,10\n"{LONG_ID}",2,20\n', SchemaError,
                 "{p}:3: field larger than field limit (131072)",
                 id="long-quoted-id"),
    pytest.param("id,a,b\n\n", SchemaError, "{p}: no data rows",
                 id="header-only"),
    pytest.param("id\nx\ny\n", SchemaError, "{p}: no indicator columns",
                 id="ids-only"),
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


# Pieces of CSV text for the differential test: number parts, whitespace
# that float() strips (numpy refuses some), digits only float() reads, the
# non-finite words, and the characters csv treats specially.
CELL_PARTS = st.sampled_from([
    *"0123456789", "+", "-", ".", "e", "_",
    " ", "\t", "\x1c", "\u3000",
    "\u0661", "\u0663", "\uff11", "\uff15",
    "nan", "inf", '"', ",", "\r",
])


@st.composite
def csv_texts(draw):
    """``id,a,b`` CSV text: cells mostly formatted doubles with padding,
    else strings of CELL_PARTS; rows mostly of three fields; mostly
    ``\\n`` or ``\\r\\n`` line ends; blank lines anywhere."""
    number = st.builds(
        lambda pad, v, fmt, end: pad + (fmt % v) + end,
        PAD, st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(["%r", "%.17g", "%.5e", "%8.3f"]), PAD,
    )
    junk = st.lists(CELL_PARTS, max_size=5).map("".join)
    cell = st.integers(0, 9).flatmap(lambda k: junk if k == 0 else number)
    ends = st.sampled_from(["\n"] * 6 + ["\r\n"] * 3 + ["\r"])
    lines = [draw(st.sampled_from(["id,a,b"] * 4 + [" id , b,a", "id,a,b,"]))]
    for i in range(draw(st.integers(1, 5))):
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
        width = draw(st.sampled_from([3] * 8 + [2, 4]))
        lines.append(",".join([draw(PAD) + f"r{i}"] + draw(st.lists(
            cell, min_size=width - 1, max_size=width - 1))))
    return "".join(line + draw(ends) for line in lines) + draw(
        st.sampled_from(["", "\n", "\n\n"]))


def read_both(path):
    """``_read_csv`` of ``path`` as it runs, and through the csv.reader
    path alone: each its (ids, names, value bytes) or its error."""

    def outcome():
        try:
            ids, names, values = data._read_csv(path, {"a", "b"})
        except Exception as exc:  # the error is the outcome
            return type(exc), str(exc)
        return ids, names, values.dtype, values.shape, values.tobytes()

    got = outcome()
    with mock.patch.object(data, "_plain_lines", lambda text: None):
        return got, outcome()


class TestTwoParsePaths:
    @settings(max_examples=400, deadline=None)
    @given(csv_texts())
    @example("id,a,b\nx,1_0,\u0661\ny,\x1c2,\uff13\n")
    @example("id,a,b\r\nx,1,2\r\n\r\ny,3,4\r\n")
    @example("id,a,b\nx,1,2\ny,3,4,\n")
    @example("id,a,b\nx,1,2,5\ny,3\n")
    def test_same_result_as_csv_reader(self, csv_path, text):
        csv_path.write_text(text, encoding="utf-8", newline="")
        got, want = read_both(csv_path)
        assert got == want

    @pytest.mark.parametrize("text,ids,values", [
        ('id,a,b\n"Korea, Rep.",1,2\nx,3,4\n', ("Korea, Rep.", "x"),
         [[1, 2], [3, 4]]),
        ("id,a,b\r\nx,1,2\r\ny,3,4\r\n", ("x", "y"), [[1, 2], [3, 4]]),
        ("id,a,b\nx,1,2\ny,3,4\n\n\n", ("x", "y"), [[1, 2], [3, 4]]),
        ("id,a,b\nx,1_000,2\ny,3,4\n", ("x", "y"), [[1000, 2], [3, 4]]),
    ], ids=["quoted-comma-id", "crlf", "trailing-blank-lines", "underscore"])
    def test_cases(self, tmp_path, text, ids, values):
        p = write_csv(tmp_path, text)
        got, want = read_both(p)
        assert got == want
        assert got[0] == ids
        assert got[4] == np.array(values, dtype=float).tobytes()

    @pytest.mark.parametrize("text", [
        "id,a,b\nx,1,2\n\ny, 3 ,\t4e0\n",
        "id,a,b\r\nx,1,2\r\ny,3,4\r\n",
    ], ids=["lf", "crlf"])
    def test_plain_text_skips_csv_reader(self, tmp_path, text):
        p = write_csv(tmp_path, text)
        with mock.patch.object(data, "_csv_rows", side_effect=AssertionError):
            rows = load_rows(p, ["a", "b"])
        assert rows.item_ids == ("x", "y")
        assert rows.values.tolist() == [[1, 2], [3, 4]]

    def test_load_rows_peak_memory(self, tmp_path):
        # 10^5 rows of four repr-ed doubles, an 8 MB file: the text, its
        # lines and the ids, not a list of lists of cell strings
        rng = np.random.default_rng(5)
        values = rng.lognormal(3.0, 2.0, size=(100_000, 4))
        p = tmp_path / "big.csv"
        p.write_text("id,a,b,c,d\n" + "".join(
            f"item{i:06d},{a!r},{b!r},{c!r},{d!r}\n"
            for i, (a, b, c, d) in enumerate(values.tolist())
        ), encoding="utf-8")
        tracemalloc.start()
        try:
            rows = load_rows(p, ["a", "b", "c", "d"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.values.tobytes() == values.tobytes()
        assert peak < 40e6


class TestLoadRows:
    def test_columns_come_in_the_order_asked_for(self, tmp_path):
        p = write_csv(tmp_path, "id,b,a\nx,10,1\ny,20,2\n")
        rows = load_rows(p, ["a", "b"])
        assert rows.indicator_names == ("a", "b")
        assert rows.values.tolist() == [[1.0, 10.0], [2.0, 20.0]]
        # load_table keeps the header's order
        assert load_table(p, GOOD_SCHEMA).indicator_names == ("b", "a")


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

    def test_overflowing_spread_names_the_indicator(self, make_table):
        # -1e308 .. 1e308 is finite at both ends but max - min overflows
        t = make_table([[-1e308, 1.0], [1e308, 2.0], [0.0, 3.0],
                        [5.0, 4.0], [1.0, 5.0]])
        with pytest.raises(SpreadOverflow, match="'c0'"):
            normalize(t)
        # a spread just inside the double range scales as usual
        wide = make_table([[-8e307, 1.0], [8e307, 2.0], [0.0, 3.0]])
        assert normalize(wide).values[:, 0].tolist() == [0.0, 1.0, 0.5]

    def test_transform_dict_roundtrip(self, make_table):
        t = make_table([[1.0, 2.0], [4.0, 9.0]])
        tr = normalize(t).transform
        tr2 = NormalizationTransform.from_dict(tr.to_dict())
        assert tr2.indicator_names == tr.indicator_names
        np.testing.assert_array_equal(tr2.mins, tr.mins)
        np.testing.assert_array_equal(tr2.maxs, tr.maxs)


class TestWriters:
    def test_csv_cells(self):
        text = csv_text([
            ("id", "x", "n"),
            ("a,b", np.float64(0.1) + np.float64(0.2), np.int64(7)),
            ("c", np.float32(0.1), 3),
            ("d", 1.0 / 3.0, ""),
        ])
        assert text == (
            "id,x,n\n"
            '"a,b",0.30000000000000004,7\n'
            f"c,{float(np.float32(0.1))!r},3\n"
            "d,0.3333333333333333,\n"
        )

    def test_json_ends_in_one_newline(self):
        text = json_text({"a": [1, 2.5], "b": None})
        assert text == '{\n  "a": [\n    1,\n    2.5\n  ],\n  "b": null\n}\n'
        assert json.loads(text) == {"a": [1, 2.5], "b": None}

    def test_write_keeps_line_ends(self, tmp_path):
        path = tmp_path / "out.csv"
        write_text(path, csv_text([("id", "x"), ("é", 1.5)]))
        assert path.read_bytes() == "id,x\né,1.5\n".encode("utf-8")


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
