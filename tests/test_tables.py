import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import short_id
from reference_impls import naive_number
from sketchsql.tables import (cell_text, column_numbers, distinct_text, normalize_text,
                              parse_number)

NUMBERS = [("+5", 5.0), (".5", 0.5), ("5.", 5.0), ("1e-05", 1e-05), (" 42 ", 42.0),
           ("-7.25E+2", -725.0), ("\x1c-0\u2003", 0.0), (7, 7.0), (88.5, 88.5),
           (2**53 + 1, 2.0**53), (10**308, 1e308)]

TEXT = ["nan", "NaN", "inf", "-Infinity", "1_000", "1,000", "١٢", "0x10", "1e400", "-1e400",
        10**400, -(10**400), float("nan"), float("inf"), float("-inf"), True, False, None,
        "", " ", ".", "+", "e5", "1e", "1e+", "--1", "1.2.3", "5 5", "½", {"v": 1}, [3]]


class TestParseNumber:
    @pytest.mark.parametrize("value,number", NUMBERS, ids=short_id)
    def test_number(self, value, number):
        assert parse_number(value) == number
        assert naive_number(value) == number

    @pytest.mark.parametrize("value", TEXT, ids=short_id)
    def test_text(self, value):
        assert parse_number(value) is None
        assert naive_number(value) is None


class TestCellText:
    @pytest.mark.parametrize("cell,text", [
        (7, "7"), (7.0, "7"), (-0.0, "0"), (88.5, "88.5"), (1e-05, "1e-05"),
        (1e16, "10000000000000000"), (2**53 + 1, "9007199254740992"),
        (10**400, "1" + "0" * 400), (float("nan"), "nan"), (float("inf"), "inf"),
        (float("-inf"), "-inf"), (True, "true"), (None, "none"), (" 42 ", "42"), ("+5", "+5"),
        ("1_000", "1_000"), ("١٢", "١٢"), ("  Mort  Drucker ", "mort drucker"),
    ], ids=short_id)
    def test_cell_text(self, cell, text):
        assert cell_text(cell) == text

    @pytest.mark.parametrize("cell", [value for value, _ in NUMBERS if not isinstance(value, str)],
                             ids=short_id)
    def test_number_cell_text_reads_back_as_its_number(self, cell):
        assert parse_number(cell_text(cell)) == parse_number(cell)


def floats_hex(values):
    """A list of floats as exact texts, so -0.0 and 0.0 differ."""
    return None if values is None else list(map(float.hex, values))


class TestNumberValues:
    @given(st.lists(st.one_of(st.integers(min_value=-(2**1100), max_value=2**1100),
                              st.floats(allow_nan=True, allow_infinity=True),
                              st.booleans(), st.none(), st.sampled_from(["5", " 2.5 ", "x"]))))
    @example([2**1024])
    @example([1, 2**1024 + 1])
    @example([1.5, float("nan")])
    @example([float("inf")])
    @example([3, float("-inf")])
    @example([-0.0, 0])
    @example([0, -0.0])
    @example([1, 1.0])
    @example([1.0, 1])
    @example([2**53 + 1, 2.0**53])
    @example([])
    @example([1, True])
    @example([0.0, False])
    @example([7, None])
    @example([7, "7"])
    def test_matches_parse_number(self, cells):
        # element by element: a number cell's float in place, or None for the column when
        # any cell is not an int or float number (number text, bools and None included)
        parsed = [parse_number(c) for c in cells]
        other = None in parsed or any(isinstance(c, str) for c in cells)
        assert floats_hex(column_numbers(cells)) == (None if other else floats_hex(parsed))

    @pytest.mark.parametrize("cells", [[-0.0, 0], [2**53 + 1, 2.0**53], [10**308, 1.5]])
    def test_a_float64_array_cell_by_cell(self, cells):
        values = column_numbers(cells)
        assert isinstance(values, np.ndarray) and values.dtype == np.float64
        assert floats_hex(values) == [float(c).hex() for c in cells]

    @pytest.mark.parametrize("cells", [[2**1024], [1.0, -(2**1024)]])
    def test_ints_beyond_float64_give_none(self, cells):
        assert column_numbers(cells) is None


class TestDistinctText:
    @pytest.mark.parametrize("cells", [[], ["a", " a", "a"], ("x", "y")])
    def test_all_str_columns_give_their_set(self, cells):
        assert distinct_text(cells) == set(cells)

    @pytest.mark.parametrize("cells", [[1], ["1", 1], ["a", True], ["a", None], [0.0, -0.0],
                                       ["a", ["a"]], [{"v": 1}, "a"]])
    def test_any_other_cell_gives_none(self, cells):
        # a Table built in code is not validated as load_tables input is, so a cell may be
        # a list or a dict, which no set holds
        assert distinct_text(cells) is None


class TestNormalizeText:
    @given(st.text(max_size=30))
    def test_matches_the_regex_definition(self, text):
        assert normalize_text(text) == re.sub(r"\s+", " ", text.strip()).lower()
