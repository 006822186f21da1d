"""Text format: strict parsing with positioned errors, lossless
round-trips."""

from __future__ import annotations

import random

import pytest

from tourney import format_tour, gen_random, gen_rlt, parse_tour, read_tour, write_tour
from tourney.errors import InvalidInput, ParseError
from tourney.io import _decimal


class TestRoundTrip:
    def test_rlt7(self):
        t = gen_rlt(7)
        assert parse_tour(format_tour(t)) == t

    def test_random_orders(self):
        rng = random.Random(3)
        for _ in range(25):
            t = gen_random(rng.randrange(1, 12), rng.randrange(1 << 30))
            assert parse_tour(format_tour(t)) == t

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "t.tour"
        t = gen_random(6, 44)
        write_tour(t, path)
        assert read_tour(path) == t

    def test_known_text(self):
        text = "3\n010\n001\n100\n"
        t = parse_tour(text)
        assert t.out_rows == (0b010, 0b100, 0b001)
        assert format_tour(t) == text


class TestParseErrors:
    def err(self, text: str) -> ParseError:
        with pytest.raises(ParseError) as info:
            parse_tour(text)
        return info.value

    def test_bad_header(self):
        e = self.err("x\n")
        assert e.line == 1

    def test_missing_rows(self):
        e = self.err("3\n010\n001\n")
        assert e.line == 4

    def test_short_row(self):
        e = self.err("3\n010\n01\n100\n")
        assert e.line == 3

    def test_bad_symbol_position(self):
        e = self.err("3\n010\n0x1\n100\n")
        assert e.line == 3 and e.col == 2

    def test_diagonal_bit(self):
        # structurally bad but textually fine: the validator finds it,
        # and parse_tour names the loop's line and column
        with pytest.raises(InvalidInput):
            parse_tour("2\n01\n01\n")

    @pytest.mark.parametrize("text,line,col", [
        ("3\n110\n001\n100\n", 2, 1),
        ("3\n010\n011\n100\n", 3, 2),
        ("3\n000\n001\n100\n", 2, 2),
        ("3\n011\n101\n100\n", 2, 2),
        ("3\n010\n000\n100\n", 3, 3),
        ("0\n", 1, None),
        ("65\n" + ("0" * 65 + "\n") * 65, 1, None),
        ("65\n", 1, None),
        ("100000\n", 1, None),
    ], ids=["loop-0", "loop-1", "no-arc", "both-arcs", "no-arc-1-2",
            "order-zero", "order-65", "order-65-no-rows",
            "order-100000-no-rows"])
    def test_structural_errors_name_their_line(self, text, line, col):
        e = self.err(text)
        assert (e.line, e.col) == (line, col)

    def test_double_arc(self):
        with pytest.raises(InvalidInput):
            parse_tour("2\n01\n10\n")

    def test_trailing_garbage(self):
        e = self.err("2\n01\n00\nextra\n")
        assert e.line == 4

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_tour("")


class TestRowsIntWouldTake:
    """int(row, 2) takes underscores, surrounding spaces, a sign and
    non-ASCII digits; a row must hold ASCII 0 and 1 only, so each of
    these is an error at its first bad column."""

    def err(self, text: str) -> ParseError:
        with pytest.raises(ParseError) as info:
            parse_tour(text)
        return info.value

    @pytest.mark.parametrize("row,col", [
        ("0_1", 2),
        (" 01", 1),
        ("01 ", 3),
        ("+01", 1),
        ("-01", 1),
        ("\u0660\u0660\u0661", 1),  # Arabic-Indic 001
        ("0\u0660\u0661", 2),
        ("00\uff11", 3),  # full-width 1
        ("\uff10\uff10\uff11", 1),
        ("0b1", 2),
    ])
    def test_first_bad_column(self, row, col):
        e = self.err(f"3\n010\n{row}\n100\n")
        assert (e.line, e.col) == (3, col)
        assert str(e).startswith("rows may contain only 0 and 1")

    def test_row_length_wins_over_a_bad_character(self):
        e = self.err("3\n010\n0_\n100\n")
        assert (e.line, e.col) == (3, 3)
        assert "must have exactly 3 characters" in str(e)
        e = self.err("3\n010\n_0_1\n100\n")
        assert (e.line, e.col) == (3, 4)

    def test_errors_in_text_order(self):
        # a bad character before a short row, and a short row before a
        # bad character: the earlier line is reported
        e = self.err("3\n010\n0_1\n10\n")
        assert (e.line, e.col) == (3, 2)
        e = self.err("3\n010\n00\n1_0\n")
        assert (e.line, e.col) == (3, 3)
        # a textual fault is found before a structural one above it
        e = self.err("3\n110\n001\n1+0\n")
        assert (e.line, e.col) == (4, 2)

    def test_order_64_rows_read_bit_for_bit(self):
        rng = random.Random(64)
        for _ in range(10):
            t = gen_random(64, rng.randrange(1 << 62))
            assert parse_tour(format_tour(t)) == t


class TestDecimal:
    """_decimal reads every decimal number the package takes from
    outside; without a line its message names no position, and only a
    value with too many digits has no column."""

    def test_no_line_no_position(self):
        with pytest.raises(ParseError) as info:
            _decimal("7x", "n")
        e = info.value
        assert str(e) == "n must be a decimal integer"
        assert (e.line, e.col) == (None, 2)

    def test_too_many_digits_has_no_column_nor_value(self):
        with pytest.raises(ParseError) as info:
            _decimal("7" * 5000, "n")
        e = info.value
        assert str(e) == "n has too many digits (5000)"
        assert (e.line, e.col) == (None, None)
