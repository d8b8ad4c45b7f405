"""The shared output formatting: `format_value` and `write_csv`."""

import numpy as np
import pytest

from odegate.errors import format_value, write_csv


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
