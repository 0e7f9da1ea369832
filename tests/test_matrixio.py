import csv
import json
import math
import numbers
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from kframes import MatrixFormatError, matrixio
from kframes.errors import MissingKeyError
from kframes.matrixio import (
    finite_entries,
    load_matrix,
    matrix_from_obj,
    matrix_to_obj,
    save_matrix,
    vector_from_obj,
)


class TestJsonFormat:
    def test_round_trip(self):
        mat = np.array([[1.5, -2.0, 0.0], [0.25, 1e-8, 7.0]])
        again = matrix_from_obj(matrix_to_obj(mat))
        np.testing.assert_array_equal(again, mat)

    def test_missing_keys(self):
        with pytest.raises(MatrixFormatError):
            matrix_from_obj({"rows": 1, "data": [[1.0]]})

    def test_row_count_mismatch(self):
        with pytest.raises(MatrixFormatError):
            matrix_from_obj({"rows": 2, "cols": 1, "data": [[1.0]]})

    def test_ragged_rows(self):
        with pytest.raises(MatrixFormatError):
            matrix_from_obj({"rows": 2, "cols": 2, "data": [[1.0, 2.0], [3.0]]})

    def test_non_numeric_entry(self):
        with pytest.raises(MatrixFormatError):
            matrix_from_obj({"rows": 1, "cols": 2, "data": [[1.0, "x"]]})

    def test_non_finite_rejected(self):
        with pytest.raises(MatrixFormatError):
            matrix_from_obj({"rows": 1, "cols": 1, "data": [[float("inf")]]})

    def test_bad_dimensions(self):
        with pytest.raises(MatrixFormatError):
            matrix_from_obj({"rows": 0, "cols": 2, "data": []})

    def test_python_and_numpy_reals_accepted(self):
        data = ([1, 2.5], (np.float64(-0.0), np.int64(3)), [np.float32(0.5), np.uint8(7)])
        got = matrix_from_obj({"rows": 3, "cols": 2, "data": data})
        np.testing.assert_array_equal(got, [[1.0, 2.5], [-0.0, 3.0], [0.5, 7.0]])

    @pytest.mark.parametrize("bad", [True, np.bool_(False), "2.5", None, np.float64("nan"),
                                     10**400, [1.0]])
    def test_bad_entry_named_by_position(self, bad):
        with pytest.raises(MatrixFormatError, match="row 2, column 1: expected a finite"):
            matrix_from_obj({"rows": 2, "cols": 2, "data": [[1.0, 2.0], [bad, 4.0]]})


class TestFileRoundTrips:
    def test_json_file(self, tmp_path):
        mat = np.array([[2.0, 0.5], [-1.0, 3.0]])
        path = tmp_path / "m.json"
        save_matrix(mat, path)
        np.testing.assert_array_equal(load_matrix(path), mat)

    def test_csv_file(self, tmp_path):
        mat = np.array([[1.0, 2.0, 3.0], [0.1, 0.2, 0.3]])
        path = tmp_path / "m.csv"
        save_matrix(mat, path)
        np.testing.assert_array_equal(load_matrix(path), mat)

    def test_csv_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n\n3.0,4.0\n")
        np.testing.assert_array_equal(
            load_matrix(path), [[1.0, 2.0], [3.0, 4.0]]
        )

    @pytest.mark.parametrize("cell, shown", [
        ("nan", "'nan'"), ("inf", "'inf'"), ("-1e999", "-inf"), ("x", "'x'"), (" ", "' '"),
        ("1_0", "'1_0'"), ("+1", "'+1'"), (".5", "'.5'"), ("1.", "'1.'"), ("01", "'01'"),
        ("NaN", "nan"), ("true", "True"), ("null", "None"),
    ])
    def test_csv_bad_cell_named_by_line_and_column(self, tmp_path, cell, shown):
        """A cell that is not a finite JSON number is refused with its 1-based
        line, blank lines counted, and column: text as it stands, and a JSON
        number past the float range as the infinity it reads as; other JSON
        as the value it reads as."""
        path = tmp_path / "m.csv"
        path.write_text(f"1.0,2.0\n\n3.0,{cell}\n")
        with pytest.raises(MatrixFormatError, match=re.escape(
                f"{path}: line 3, column 2: expected a finite number, got {shown}")):
            load_matrix(path)

    def test_nesting_past_the_stack_is_a_format_error(self, tmp_path):
        """A CSV cell or a JSON file nested deeper than the parser's stack is
        refused as a bad cell or invalid JSON, not a crash."""
        cell = tmp_path / "m.csv"
        cell.write_text("1.0," + "[" * 10**5 + "\n")
        with pytest.raises(MatrixFormatError, match="line 1, column 2: .*got '\\[\\["):
            load_matrix(cell)
        wrapped = tmp_path / "m.json"
        wrapped.write_text("[" * 10**5)
        with pytest.raises(MatrixFormatError, match="invalid JSON: maximum recursion"):
            load_matrix(wrapped)

    def test_csv_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n")
        with pytest.raises(MatrixFormatError):
            load_matrix(path)

    def test_keyed_load(self, tmp_path):
        path = tmp_path / "sys.json"
        obj = {"F": matrix_to_obj(np.eye(2)), "K": matrix_to_obj(np.zeros((2, 2)))}
        path.write_text(json.dumps(obj))
        np.testing.assert_array_equal(load_matrix(path, key="F"), np.eye(2))
        f, k = load_matrix(path, key=("F", "K"))
        np.testing.assert_array_equal(f, np.eye(2))
        np.testing.assert_array_equal(k, np.zeros((2, 2)))
        with pytest.raises(MissingKeyError):
            load_matrix(path, key="G")
        with pytest.raises(MissingKeyError, match="missing key 'G'"):
            load_matrix(path, key=("F", "G"))
        obj["G"] = {"rows": 1, "cols": 1, "data": [["x"]]}
        path.write_text(json.dumps(obj))
        with pytest.raises(MatrixFormatError, match="row 1, column 1") as info:
            load_matrix(path, key="G")
        assert not isinstance(info.value, MissingKeyError)

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_system_file_is_read_once(self, tmp_path, suffix):
        """Both keys of a system file come from one read and one parse; a CSV
        file is its own F and K, one array for both."""
        mat = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / f"sys{suffix}"
        if suffix == ".csv":
            save_matrix(mat, path)
        else:
            path.write_text(json.dumps({"F": matrix_to_obj(mat), "K": matrix_to_obj(mat)}))
        with mock.patch.object(matrixio, "_read_text", wraps=matrixio._read_text) as read:
            f, k = load_matrix(path, key=("F", "K"))
        assert read.call_count == 1
        np.testing.assert_array_equal(f, mat)
        np.testing.assert_array_equal(k, mat)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(MatrixFormatError):
            load_matrix(path)

    def test_byte_order_mark_is_named(self, tmp_path):
        """A UTF-8 BOM is refused with json.loads' own message, as the shared decoder
        would only report an unexpected first character."""
        path = tmp_path / "bom.json"
        path.write_text('\ufeff{"rows": 1, "cols": 1, "data": [[1.0]]}', encoding="utf-8")
        with pytest.raises(MatrixFormatError, match="invalid JSON: Unexpected UTF-8 BOM"):
            load_matrix(path)


# JSON values whose objects are written as lists of (key, value) pairs, so a key may repeat.
_KEYS = st.sampled_from(["F", "K", "G", "rows", "cols", "data", "erased", "é"])
_PAIRED = st.recursive(
    st.none() | st.booleans() | st.integers(-9, 9) | st.floats(-1e3, 1e3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.builds(
        lambda pairs: ("object", pairs), st.lists(st.tuples(_KEYS, inner), max_size=4)),
    max_leaves=12)


def _text(value) -> str:
    """The JSON text of a _PAIRED value, each object's pairs in their order."""
    if isinstance(value, tuple):
        return "{" + ", ".join(f"{json.dumps(k)}: {_text(v)}" for k, v in value[1]) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_text, value)) + "]"
    return json.dumps(value)


def _repeated(value) -> set:
    """Every key that repeats within one object of a _PAIRED value, at any depth."""
    if isinstance(value, tuple):
        keys = [k for k, _ in value[1]]
        return {k for k in keys if keys.count(k) > 1}.union(
            *(_repeated(v) for _, v in value[1]))
    if isinstance(value, list):
        return set().union(*map(_repeated, value))
    return set()


@settings(max_examples=200, deadline=None)
@given(value=_PAIRED)
@example(value=("object", [("F", 1), ("K", 2), ("F", 3)]))
@example(value=("object", [("F", ("object", [("rows", 1), ("data", []), ("rows", 1)]))]))
@example(value=[("object", [("G", None)]), ("object", [("G", None)])])
def test_read_json_refuses_a_repeated_key_at_any_depth(tmp_path_factory, value):
    """read_json gives json.loads' value when no object repeats a key, and else
    refuses the file, naming it and a key that repeats; objects apart may share keys."""
    path = tmp_path_factory.mktemp("json") / "file.json"
    path.write_text(_text(value), encoding="utf-8")
    repeated = _repeated(value)
    if not repeated:
        assert matrixio.read_json(path) == json.loads(path.read_text(encoding="utf-8"))
        return
    with pytest.raises(MatrixFormatError, match=f"^{re.escape(str(path))}: repeated key ") as exc:
        matrixio.read_json(path)
    assert str(exc.value).split(": repeated key ")[1] in {repr(k) for k in repeated}


class TestVectorFromObj:
    def test_flat_array(self):
        np.testing.assert_array_equal(
            vector_from_obj([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]
        )

    def test_column_matrix(self):
        obj = {"rows": 3, "cols": 1, "data": [[1.0], [2.0], [3.0]]}
        np.testing.assert_array_equal(vector_from_obj(obj), [1.0, 2.0, 3.0])

    def test_row_matrix(self):
        obj = {"rows": 1, "cols": 2, "data": [[4.0, 5.0]]}
        np.testing.assert_array_equal(vector_from_obj(obj), [4.0, 5.0])

    def test_rejects_full_matrix(self):
        obj = {"rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 1.0]]}
        with pytest.raises(MatrixFormatError):
            vector_from_obj(obj)

    def test_numpy_scalars_and_tuples(self):
        np.testing.assert_array_equal(vector_from_obj(list(np.arange(3.0))), [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(vector_from_obj((1, np.int64(2))), [1.0, 2.0])
        with pytest.raises(MatrixFormatError, match="v entry 2: expected a finite"):
            vector_from_obj([1.0, np.bool_(True)], name="v")

    def test_rejects_nested_array(self):
        with pytest.raises(MatrixFormatError):
            vector_from_obj([[1.0], [2.0]])


# Signed zeros, subnormals and values near both ends of the float64 range.
_EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1.5e-310, -1.5e-310, 1e300, -1e300, 1e-300,
                -1e-300, np.finfo(float).max, -np.finfo(float).max, np.finfo(float).tiny]


@settings(max_examples=80, deadline=None)
@given(
    mat=arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=5),
               elements=st.one_of(st.sampled_from(_EDGE_VALUES),
                                  st.floats(allow_nan=False, allow_infinity=False))),
    suffix=st.sampled_from([".json", ".csv"]),
)
def test_save_then_load_is_bit_exact(tmp_path_factory, mat, suffix):
    path = tmp_path_factory.mktemp("round") / f"m{suffix}"
    save_matrix(mat, path)
    got = load_matrix(path)
    assert got.shape == mat.shape
    np.testing.assert_array_equal(got.view(np.uint64), mat.view(np.uint64))


def _json_float(text):
    """The finite float json.loads reads text as, or None (not a number, a
    bool, or a number past the float range)."""
    try:
        value = json.loads(text)
        return float(value) if type(value) in (int, float) and math.isfinite(value) else None
    except (ValueError, OverflowError):
        return None


_JSON_NUMBER_TEXT = st.from_regex(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?",
                                  fullmatch=True)
# JSON numbers, with and without whitespace that JSON does or does not allow
# around them; Python's float spellings; near misses; and arbitrary text.
_CSV_CELL = st.one_of(
    _JSON_NUMBER_TEXT,
    st.tuples(st.text(" \t\r\n\x0b\x0c\xa0", max_size=2), _JSON_NUMBER_TEXT,
              st.text(" \t\r\n\x0b\x0c\xa0", max_size=2)).map("".join),
    st.floats().map(repr),
    st.sampled_from(["1_0", "+1", ".5", "1.", "01", "-0", "1e", "0x1", "--1", "NaN",
                     "Infinity", "-Infinity", "1e999", "٣", "true", "[1]", '"1"']),
    st.text("0123456789+-.eE_ \t\r\nxinfaN", max_size=8),
    st.text(max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(cell=_CSV_CELL)
@example(cell="1" * 400)
@example(cell="-0")
def test_csv_cell_loads_exactly_when_json_reads_a_finite_number(tmp_path_factory, cell):
    """A cell loads exactly when json.loads reads it as a finite float (or an
    int in float range), and it loads as that float, sign bit included."""
    path = tmp_path_factory.mktemp("cell") / "m.csv"
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerow(["1.0", cell])
    want = _json_float(cell)
    if want is None:
        with pytest.raises(MatrixFormatError, match=re.escape(
                f"{path}: line 1, column 2: expected a finite number, got ")):
            load_matrix(path)
    else:
        assert load_matrix(path).tobytes() == np.array([[1.0, want]]).tobytes()


def _entries_by_loop(values, where):
    """finite_entries checked one entry at a time: the reference for its numpy pass."""
    for k, value in enumerate(values, start=1):
        try:
            ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                  and math.isfinite(value))
        except OverflowError:  # an int beyond float range
            ok = False
        if not ok:
            raise MatrixFormatError(f"{where(k)}: expected a finite number, got {value!r}")
    return np.array(values, dtype=float)


# Entries of every kind a JSON file or a caller can hand over: finite and
# non-finite floats, ints in and beyond float range (2**1024 - 2**970 rounds
# up past it), bools, None, strings, nested lists and numpy scalars.
_PLAIN_ENTRY = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.integers(-(10**20), 10**20))
_FLOAT_OR_INT = st.one_of(
    st.floats(),
    st.integers(),
    st.sampled_from([math.inf, -math.inf, math.nan, 10**309, -(10**309), 10**308,
                     2**1024 - 2**970, 2**1024 - 2**971]),
)
_ANY_ENTRY = st.one_of(
    _FLOAT_OR_INT,
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.floats(), max_size=2),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.sampled_from([np.bool_(True), np.float64("nan"), np.float64(-np.inf), np.float64(2.5)]),
)


@settings(max_examples=300, deadline=None)
@given(values=st.one_of(
    st.lists(_PLAIN_ENTRY, max_size=12),
    st.lists(st.one_of(_PLAIN_ENTRY, _FLOAT_OR_INT), max_size=12),
    st.lists(st.one_of(_PLAIN_ENTRY, _ANY_ENTRY), max_size=12),
    st.lists(_ANY_ENTRY, max_size=6),
).flatmap(lambda v: st.sampled_from([v, tuple(v)])))
@example(values=[1.0, 10**309])
@example(values=[2**1024 - 2**970, float("inf")])
@example(values=[2**1024 - 2**971, -0.0, 3])
@example(values=[1.0, True])
@example(values=[1, float("nan"), None])
@example(values=[0.5, 2, -float("inf")])
@example(values=[])
def test_finite_entries_agrees_with_the_per_entry_loop(values):
    """Both accept with arrays equal bit for bit, or both name the same entry."""
    def where(k):
        return f"entry {k}"
    try:
        want = _entries_by_loop(values, where)
    except MatrixFormatError as exc:
        with pytest.raises(MatrixFormatError) as info:
            finite_entries(values, where)
        assert str(info.value) == str(exc)
    else:
        got = finite_entries(values, where)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
