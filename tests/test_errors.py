"""The shared readers and writers: `read_csv`, `read_json`, `format_value` and
`write_csv`."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from odegate.data import read_events_csv, read_meta, read_series_csv
from odegate.errors import ParseError, format_value, read_csv, write_csv
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


# a valid file of each CSV input, and what loading it gives
CSV_INPUTS = {
    "series.csv": ("t,node_0,node_1", ["0,1.5,2.0", "1,0.5,-3.0"],
                   lambda path: read_series_csv(path).tolist()),
    "events.csv": ("t,node,magnitude", ["0,1,2.5", "3,0,4.0"], read_events_csv),
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
