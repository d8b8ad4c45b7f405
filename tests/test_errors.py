"""The shared readers and writers: `read_csv`, `read_json`, `format_value`,
`write_csv` and `write_json`."""

import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from odegate.data import read_events_csv, read_meta, read_series_csv
from odegate.errors import ParseError, format_value, read_csv, write_csv, write_json
from odegate.graph import load_graph


class TestFormatValue:
    @pytest.mark.parametrize("value, text", [
        (True, "true"),
        (False, "false"),
        (0.1 + 0.2, "0.30000000000000004"),
        (1.0, "1.0"),
        (float("nan"), "nan"),
        (float("-inf"), "-inf"),
        (np.float64(1e-17), "1e-17"),      # not "np.float64(1e-17)" under numpy 2
        (np.float64("nan"), "nan"),
        (np.float32(0.1), repr(float(np.float32(0.1)))),
        (3, "3"),
        (np.int64(-7), "-7"),
        ("full", "full"),
    ])
    def test_cell_text(self, value, text):
        assert format_value(value) == text

    @pytest.mark.parametrize("value", [0.1 + 0.2, 1e-300, -2.5e17, np.float64(np.pi)])
    def test_float_reads_back_exactly(self, value):
        assert float(format_value(value)) == value


class TestWriteCsv:
    def test_bytes(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ("name", "count", "value", "flag"),
                  [("a", np.int64(2), np.float64(0.1 + 0.2), True),
                   ("b", 0, float("nan"), False)])
        assert path.read_bytes() == (b"name,count,value,flag\n"
                                     b"a,2,0.30000000000000004,true\n"
                                     b"b,0,nan,false\n")

    def test_rows_may_be_a_generator(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["t", "x"], ([t, t / 3] for t in range(3)))
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [(int(t), float(x)) for t, x in rows] == [(t, t / 3) for t in range(3)]

    def test_no_rows_is_the_header(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["t"], [])
        assert path.read_bytes() == b"t\n"

    def test_mixed_rows_are_format_value(self, tmp_path):
        # plain int/float rows are joined by repr, every other row cell by cell
        rows = [(True, np.float32(0.1), "x", 3, 2.5),
                [7, -0.0, 5e-324, 1.7976931348623157e308, float("nan"), -np.inf],
                [np.float64(1e-17), 2, 0.5],
                (np.int64(-7), False, 1.0),
                [True, 1, 0.5]]
        path = tmp_path / "out.csv"
        write_csv(path, ("a", "b"), rows)
        assert path.read_text().splitlines()[1:] == [
            ",".join(format_value(cell) for cell in row) for row in rows]


# a valid file of each CSV input, and what loading it gives
CSV_INPUTS = {
    "series.csv": ("t,node_0,node_1", ["0,1.5,2.0", "1,0.5,-3.0"],
                   lambda path: read_series_csv(path).tolist()),
    "events.csv": ("t,node,magnitude", ["0,1,2.5", "3,0,4.0"],
                   lambda path: [event for _, event in read_events_csv(path)]),
    "edges.csv": ("src,dst,weight", ["0,1,1.5", "1,2,0.5"],
                  lambda path: load_graph(path, 3).edges),
}


def _quote_last(cells):
    return cells[:-1] + [f'"{cells[-1]}"']


# header, first row, second row -> lines of the file
DIALECT_CASES = {
    "blank_lines": (lambda h, a, b: [h, a, "", b, "  "], None),
    "spaced_header": (lambda h, a, b: [", ".join(h.split(",")), a, b], None),
    "extra_header_column": (lambda h, a, b: [h + ",x", a, b],
                            r"line 1: expected header"),
    "quoted_cell": (lambda h, a, b: [h, ",".join(_quote_last(a.split(","))), b],
                    r"line 2: could not convert"),
    "short_row": (lambda h, a, b: [h, a, b.rsplit(",", 1)[0]],
                  r"line 3: expected 3 cells, got 2"),
    "digit_group_underscore": (lambda h, a, b: [h, a, b.replace(".", "_0.", 1)],
                               r"line 3: '_' is not allowed"),
}


class TestCsvDialect:
    @pytest.mark.parametrize("case", sorted(DIALECT_CASES))
    @pytest.mark.parametrize("name", sorted(CSV_INPUTS))
    def test_one_dialect_for_every_csv_input(self, tmp_path, name, case):
        header, (first, second), load = CSV_INPUTS[name]
        edit, error = DIALECT_CASES[case]
        path = tmp_path / name
        path.write_text(f"{header}\n{first}\n{second}\n")
        valid = load(path)
        path.write_text("\n".join(edit(header, first, second)) + "\n")
        if error is None:
            assert load(path) == valid
        else:
            with pytest.raises(ParseError, match=f"{name}: {error}"):
                load(path)

    @pytest.mark.parametrize("cell", ["0,nan", "0,1e999", "1,-inf"])
    def test_non_finite_series_cell_names_line_and_column(self, tmp_path, cell):
        path = tmp_path / "series.csv"
        path.write_text(f"t,node_0,node_1\n0,1.0,2.0\n1,{cell}\n")
        with pytest.raises(ParseError, match=r"line 3: non-finite value in node_1$"):
            read_series_csv(path)


def _bits(rows):
    return [struct.pack(f"<{len(row)}d", *row) for row in rows]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.floats(allow_nan=False), min_size=3, max_size=3), max_size=8))
@example([[0.1 + 0.2, 1e-308, -0.0], [5e-324, -1.7976931348623157e308, float("inf")]])
def test_write_then_read_csv_is_bitwise_exact(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        write_csv(path, ("a", "b", "c"), rows)
        back = [row for _, row in read_csv(path, ("a", "b", "c"), (float,))]
    assert _bits(back) == _bits(rows)


class TestReadJson:
    def test_repeated_key_is_named(self, tmp_path):
        path = tmp_path / "meta.json"
        path.write_text('{"n_nodes": 3, "in_dim": 1, "tick_seconds": 300, '
                        '"edge_list_path": "edges.csv", "n_nodes": 5}\n')
        with pytest.raises(ParseError,
                           match="meta.json: not valid JSON .repeated key 'n_nodes'"):
            read_meta(path)

    def test_integer_too_long_to_read(self, tmp_path):
        # Python refuses to read an integer of more than 4300 digits
        path = tmp_path / "meta.json"
        path.write_text('{"n_nodes": 1' + "0" * 5000 + "}\n")
        with pytest.raises(ParseError, match="meta.json: not valid JSON .Exceeds the limit"):
            read_meta(path)


def strict_json(text: str):
    """`json.loads` that rejects the NaN and Infinity RFC 8259 does not have."""
    def no_constant(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=no_constant)


# A payload of every kind write_json meets or must refuse: nested dicts,
# lists and tuples; keys of each kind json.dumps accepts (one kind per
# dict, or mixed, which json.dumps refuses to sort); strings with
# non-ASCII and control characters; floats at the edges of float64.
JSON_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), JSON_FLOATS,
                        JSON_FLOATS.map(np.float64), st.text())
JSON_KEYS = st.one_of(st.text(), st.integers(), JSON_FLOATS, st.booleans(), st.none(),
                      JSON_FLOATS.map(np.float64))
JSON_PAYLOADS = st.recursive(JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=5),
    st.lists(inner, max_size=5).map(tuple),
    st.lists(JSON_FLOATS, max_size=5),
    st.dictionaries(st.text(), inner, max_size=5),
    st.dictionaries(st.one_of(st.integers(), JSON_FLOATS, st.booleans()), inner,
                    max_size=4),
    st.dictionaries(JSON_KEYS, inner, max_size=3)), max_leaves=20)


class TestWriteJson:
    def test_non_finite_floats_are_null(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"a": float("nan"), "b": [1.5, float("inf"), -np.inf],
                          "c": {"d": np.float64("nan"), "e": (2, "x")}, "f": 0.25})
        assert strict_json(path.read_text()) == {
            "a": None, "b": [1.5, None, None], "c": {"d": None, "e": [2, "x"]}, "f": 0.25}

    def test_non_finite_in_a_float_list_is_null(self, tmp_path):
        # the one-join path of an all-float list must still find the inf
        path = tmp_path / "out.json"
        write_json(path, {"w": [[0.5, -1.5], [2.0, float("inf")]]})
        assert strict_json(path.read_text()) == {"w": [[0.5, -1.5], [2.0, None]]}

    def test_finite_payload_keeps_its_bytes(self, tmp_path):
        payload = {"z": [0.1, -2.5e-300, 1e308], "a": {"k": True, "n": None}, "i": 7}
        path = tmp_path / "out.json"
        write_json(path, payload)
        assert path.read_text() == json.dumps(payload, sort_keys=True, indent=1) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(JSON_PAYLOADS)
    @example({"w": [[-0.0, 5e-324, 1.7976931348623157e308], []], "b": (0.5,)})
    @example({-0.0: "\x00\u00e9\u2028\U0001f600\n\t\"", 5e-324: None, 2: True})
    @example([np.float64(0.1), 1.0, [np.float64(-0.0)], {np.float64(2.5): {}}])
    @example({None: [1, 2.0, True]})
    @example({"a": 1, 2: "b"})
    def test_bytes_are_json_dumps(self, payload):
        try:
            expected = json.dumps(payload, sort_keys=True, indent=1) + "\n"
        except Exception as exc:
            with pytest.raises(type(exc)), tempfile.TemporaryDirectory() as tmp:
                write_json(Path(tmp) / "out.json", payload)
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.json"
            write_json(path, payload)
            assert path.read_text() == expected

    @pytest.mark.parametrize("payload", [
        {"n": np.int64(3)},
        [1.0, np.int64(3)],
        {"s": {1, 2}},
        {np.int64(1): 2.0},
        {"a": [0.5, {"b": frozenset()}]},
        {(1, 2): 0.5},
    ], ids=["int64", "int64-in-float-list", "set", "int64-key", "nested-frozenset",
            "tuple-key"])
    def test_unhandled_type_raises_as_json_dumps(self, tmp_path, payload):
        with pytest.raises(Exception) as expected:
            json.dumps(payload, sort_keys=True, indent=1)
        with pytest.raises(type(expected.value)):
            write_json(tmp_path / "out.json", payload)
