"""Command-line behaviour: exit codes, JSON shapes, file round-trips.
Tests drive main() in-process; one subprocess check covers the installed
entry point."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tourney import (TRACE_MAX_M, count_report, enumerate_regular,
                     format_tour, gen_qr, gen_random, gen_rlt,
                     gen_transitive, parse_tour, write_corpus, write_tour)
from tourney.cli import _build_parser, _emit, main
from tourney.counting import _FIXED_QUANTITIES
from tourney.errors import InvalidInput


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def assert_usage_error(capsys, *argv: str) -> str:
    """main exits 2 with a one-line message and no traceback."""
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    return err


# every integer flag, with X where the value goes and FILE for a .tour
INTEGER_FLAGS = [
    ["gen", "transitive", "--n", "X"],
    ["gen", "qr", "--p", "X"],
    ["gen", "qr", "--p", "3", "--power", "X"],
    ["gen", "random", "--n", "7", "--seed", "X"],
    ["verify", "thm1", "--n", "X"],
    ["verify", "lemma1", "--n", "7", "--p", "X"],
    ["enumerate", "--n", "X"],
]


@pytest.fixture()
def rlt7_file(tmp_path):
    path = tmp_path / "rlt7.tour"
    write_tour(gen_rlt(7), path)
    return str(path)


class TestGen:
    def test_stdout_tour(self, capsys):
        code, out = run(capsys, "gen", "rlt", "--n", "7")
        assert code == 0
        assert parse_tour(out) == gen_rlt(7)

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "t.tour"
        code, _ = run(capsys, "gen", "transitive", "--n", "5",
                      "--out", str(path))
        assert code == 0
        assert parse_tour(path.read_text()).n == 5

    def test_named(self, capsys):
        code, out = run(capsys, "gen", "named", "--name", "kz7")
        assert code == 0
        assert parse_tour(out).n == 7

    def test_random_is_seeded(self, capsys):
        _, a = run(capsys, "gen", "random", "--n", "6", "--seed", "9")
        _, b = run(capsys, "gen", "random", "--n", "6", "--seed", "9")
        assert a == b

    def test_rotational_symbol(self, capsys):
        code, out = run(capsys, "gen", "rotational", "--n", "7",
                        "--symbol", "1,2,3")
        assert code == 0
        assert parse_tour(out) == gen_rlt(7)

    def test_bad_symbol_is_usage_error(self, capsys):
        err = assert_usage_error(capsys, "gen", "rotational", "--n", "7",
                                 "--symbol", "1,2,x")
        assert "--symbol" in err

    @pytest.mark.parametrize("n,symbol,d", [("3", "1,1", 1),
                                            ("7", "1,2,3,2", 2)],
                             ids=["1,1", "1,2,3,2"])
    def test_repeated_difference_is_usage_error(self, capsys, n, symbol, d):
        # without the repeat, each is the symbol of RLT_n
        err = assert_usage_error(capsys, "gen", "rotational", "--n", n,
                                 "--symbol", symbol)
        assert err == f"error: --symbol repeats the difference {d}\n"

    @pytest.mark.parametrize("argv,digest", [
        (["--p", "3", "--power", "3"],
         "0c7c367d179ce2a26a9a62574960053473f59dd14ae9c096029a42afbbc1fa72"),
        (["--p", "59"],
         "8394e1cc1ce13b9aa269f7d3ee89cdebe4fe39771b87a84f6196d3d352063733"),
    ], ids=["qr27", "qr59"])
    def test_qr_stdout_is_pinned(self, capsys, argv, digest):
        code, out = run(capsys, "gen", "qr", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_missing_argument_is_usage_error(self, capsys):
        code, _ = run(capsys, "gen", "rlt")
        assert code == 2

    def test_bad_prime_is_usage_error(self, capsys):
        code, _ = run(capsys, "gen", "qr", "--p", "8")
        assert code == 2

    def test_order_above_the_cap(self, capsys):
        err = assert_usage_error(capsys, "gen", "transitive", "--n", "65")
        assert "order 65 exceeds the cap of 64" in err

    def test_seed_may_be_negative(self, capsys):
        code, out = run(capsys, "gen", "random", "--n", "6", "--seed", "-9")
        assert code == 0
        assert parse_tour(out) == gen_random(6, -9)

    def test_bad_negative_seed_is_echoed_with_its_sign(self, capsys):
        code = main(["gen", "random", "--n", "5", "--seed=-٧"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.endswith(
            "error: argument --seed: must be ASCII decimal digits, "
            "got '-٧'\n")

    @pytest.mark.parametrize("value", ["١,٢,٣", "+1,2,3", "1,2,0_3",
                                       " 1,2,3", "1,2,-4"],
                             ids=["arabic-indic", "sign", "underscore",
                                  "space", "minus"])
    def test_symbol_parts_are_ascii_digits(self, capsys, value):
        # int() reads the first four as 1, 2 and 3, the symbol of RLT_7
        err = assert_usage_error(capsys, "gen", "rotational", "--n", "7",
                                 "--symbol", value)
        assert "--symbol must be comma-separated ASCII decimal" in err

    @pytest.mark.parametrize("argv", INTEGER_FLAGS,
                             ids=[" ".join(a) for a in INTEGER_FLAGS])
    @pytest.mark.parametrize("bad", ["٧", "+7", "0_7"],
                             ids=["arabic-indic", "sign", "underscore"])
    def test_integers_are_ascii_digits(self, capsys, rlt7_file, argv, bad):
        # int() reads each of these as 7
        argv = [rlt7_file if a == "FILE" else bad if a == "X" else a
                for a in argv]
        flag = argv[argv.index(bad) - 1]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert f"argument {flag}: must be ASCII decimal digits" in err

    @pytest.mark.parametrize("power", ["1", "3"])
    def test_huge_prime_is_refused_before_trial_division(self, capsys,
                                                         power):
        # a 20-digit prime: trial division up to its square root would
        # run for hours, so the order cap must come first
        start = time.perf_counter()
        err = assert_usage_error(capsys, "gen", "qr", "--p",
                                 "100000000000000000039", "--power", power)
        assert time.perf_counter() - start < 1.0
        assert "exceeds 64" in err


class TestCount:
    def test_default_quantities(self, capsys, rlt7_file):
        code, out = run(capsys, "count", "--input", rlt7_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 7 and doc["cross_checked"]
        names = {e["name"] for e in doc["quantities"]}
        assert names == {"c3", "c4", "c5", "s3", "s4", "s5"}

    def test_c5_value(self, capsys, rlt7_file):
        code, out = run(capsys, "count", "--input", rlt7_file, "c5")
        doc = json.loads(out)
        values = {e["value"] for e in doc["quantities"]}
        assert code == 0 and values == {28}

    def test_w_and_trace(self, capsys, rlt7_file):
        code, out = run(capsys, "count", "--input", rlt7_file,
                        "w4", "tr5", "--method", "formula")
        doc = json.loads(out)
        assert code == 0
        assert {e["name"] for e in doc["quantities"]} == {"w4", "tr5"}

    def test_oracle_too_large_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "t13.tour"
        code, _ = run(capsys, "gen", "transitive", "--n", "13",
                      "--out", str(path))
        assert code == 0
        capsys.readouterr()
        code, _ = run(capsys, "count", "--input", str(path),
                      "c3", "--method", "oracle")
        assert code == 2

    def test_default_above_oracle_cap(self, capsys, tmp_path):
        # --method all reports the formula and trace routes at order 13
        path = tmp_path / "rlt13.tour"
        write_tour(gen_rlt(13), path)
        code, out = run(capsys, "count", "--input", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 13 and doc["cross_checked"]
        assert {(e["name"], e["method"]) for e in doc["quantities"]} == {
            *((c, how) for c in ("c3", "c4", "c5")
              for how in ("formula", "trace")),
            *((s, "formula") for s in ("s3", "s4", "s5"))}

    @pytest.mark.parametrize("data", [
        b"2\n01\n01\n",    # structurally bad: row 1 has its own bit set
        b"2\n0\xe9\n10\n",  # a non-ASCII byte
    ], ids=["loop", "non-ascii"])
    def test_malformed_input(self, capsys, tmp_path, data):
        path = tmp_path / "bad.tour"
        path.write_bytes(data)
        assert_usage_error(capsys, "count", "--input", str(path))

    def test_oversized_order_line(self, capsys, tmp_path):
        path = tmp_path / "big.tour"
        path.write_text("1" * 5000 + "\n")
        err = assert_usage_error(capsys, "count", "--input", str(path))
        assert "(line 1)" in err

    @pytest.mark.parametrize("order", ["65", "100000"])
    def test_order_out_of_range_names_line_1(self, capsys, tmp_path, order):
        # the order is checked before the rows after it are counted
        path = tmp_path / "big.tour"
        path.write_text(order + "\n")
        err = assert_usage_error(capsys, "count", "--input", str(path))
        assert err == (f"error: order {order} exceeds the cap of 64 "
                       f"(line 1)\n")

    def test_missing_file(self, capsys):
        code, _ = run(capsys, "count", "--input", "/nonexistent.tour")
        assert code == 2

    def test_trace_above_cap_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "r64.tour"
        write_tour(gen_random(64, 1), path)
        err = assert_usage_error(capsys, "count", "--input", str(path),
                                 "tr100000")
        assert str(TRACE_MAX_M) in err

    @pytest.mark.parametrize("names", [
        (),
        ("w4", "tr3", "w5", "tr5", "c4"),
        ("w4", "w4"),
        ("c5", "c6"),
    ], ids=["default", "w-tr-mix", "repeated-w4", "c6"])
    def test_names_go_to_count_report(self, capsys, rlt7_file, names):
        # stdout is count_report's for exactly these names, or exit 2
        # with its message
        code = main(["count", "--input", rlt7_file, *names])
        got = capsys.readouterr()
        assert code == (2 if "c6" in names else 0)
        try:
            _emit(count_report(gen_rlt(7), names or _FIXED_QUANTITIES))
        except InvalidInput as exc:
            assert (got.out, got.err) == ("", f"error: {exc}\n")
        else:
            assert got.out == capsys.readouterr().out

    @pytest.mark.parametrize("name", ["wX", "trX"])
    @pytest.mark.parametrize("bad", ["٧", "+7", "0_7"],
                             ids=["arabic-indic", "sign", "underscore"])
    def test_quantity_orders_are_ascii_digits(self, capsys, rlt7_file, name,
                                              bad):
        # int() reads each of these as 7
        name = name.replace("X", bad)
        err = assert_usage_error(capsys, "count", "--input", rlt7_file, name)
        assert err == f"error: unknown quantity {name!r}\n"

    @pytest.mark.parametrize("old", [["--c5"], ["--w", "4"], ["--trace", "5"]],
                             ids=["--c5", "--w", "--trace"])
    def test_flag_spellings_are_gone(self, capsys, rlt7_file, old):
        code = main(["count", "--input", rlt7_file, *old])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        # the value after the flag parses as a quantity name
        assert f"unrecognized arguments: {old[0]}\n" in captured.err


class TestParserReuse:
    """main builds its parser once per process; parse_args keeps no
    state in it from one call to the next."""

    def test_one_parser(self):
        assert _build_parser() is _build_parser()

    def test_calls_around_usage_errors_print_the_same(self, capsys,
                                                       tmp_path):
        path = str(tmp_path / "rlt7.tour")
        write_tour(gen_rlt(7), path)
        first = [run(capsys, "count", "--input", path, "w4", "w5"),
                 run(capsys, "count", "--input", path),
                 run(capsys, "gen", "qr", "--p", "7")]
        for bad in (("gen", "nosuchfamily"), ("count",),
                    ("verify", "thm1", "--n", "5", "--time-budget", "x")):
            code, out = run(capsys, *bad)
            assert code == 2 and out == ""
            again = [run(capsys, "count", "--input", path, "w4", "w5"),
                     run(capsys, "count", "--input", path),
                     run(capsys, "gen", "qr", "--p", "7")]
            assert again == first
        # the names of one call do not leak into the next
        names = [e["name"] for e in json.loads(first[1][1])["quantities"]]
        assert not any(name.startswith("w") for name in names)


# (argv, a flag the command does not read): each argv runs without the flag
# a value past the interpreter's 4,300-digit limit on int strings, at
# every path that reads a number from the command line
LONG = "7" * 5000
LONG_NUMBERS = [
    *INTEGER_FLAGS,
    ["gen", "rotational", "--n", "5", "--symbol", "1,X"],
    ["gen", "random", "--n", "7", "--seed", "-X"],
    ["verify", "thm1", "--n", "5", "--time-budget", "X"],
    ["count", "--input", "FILE", "wX"],
    ["count", "--input", "FILE", "trX"],
]


@pytest.mark.parametrize("argv", LONG_NUMBERS,
                         ids=[" ".join(a).replace("X", "<5000 digits>")
                              for a in LONG_NUMBERS])
def test_long_numbers_are_usage_errors(capsys, rlt7_file, argv):
    # io._decimal's message, without the value and without a traceback
    argv = [rlt7_file if a == "FILE" else a.replace("X", LONG) for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert "has too many digits (5000)" in errors[0]
    for leak in ("Traceback", "_natural", "_seed", "7" * 20):
        assert leak not in captured.err


# (argv with X for 300 sevens, the length of the value that holds X): one
# bad character in a value at each path that echoes it
LONG_BAD_VALUES = [
    (["gen", "rlt", "--n", "Xx"], 301),
    (["gen", "rotational", "--n", "5", "--symbol", "x,X"], 302),
    (["gen", "random", "--n", "5", "--seed=-Xx"], 302),
    (["verify", "thm1", "--n", "5", "--time-budget", "Xx"], 301),
]


@pytest.mark.parametrize("argv,length", LONG_BAD_VALUES,
                         ids=[" ".join(a).replace("X", "<300 digits>")
                              for a, _ in LONG_BAD_VALUES])
def test_long_bad_values_are_echoed_in_part(capsys, argv, length):
    # the message shows the value's first 40 characters and its length
    code = main([a.replace("X", "7" * 300) for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and len(errors[0]) < 240
    assert errors[0].endswith(f"'... ({length} characters)")
    assert "7" * 41 not in captured.err


# (argv with X for 300 sevens, the value that holds X, the message's
# text before the echo): outside names that reach the library's own
# messages, with FILE for RLT_7's .tour and CORPUS for an empty order-3
# corpus whose constraint line holds the value
LONG_BAD_NAMES = [
    (["count", "--input", "FILE", "wXx"], "wXx", "unknown quantity "),
    (["gen", "named", "--name", "Xx"], "Xx", "unknown tournament name "),
    (["enumerate", "--verify", "CORPUS"], "Xx",
     "constraint must be 'regular', got "),
]


@pytest.mark.parametrize("argv,value,before", LONG_BAD_NAMES,
                         ids=[" ".join(a).replace("X", "<300 digits>")
                              for a, _, _ in LONG_BAD_NAMES])
def test_long_bad_names_are_echoed_in_part(capsys, rlt7_file, tmp_path,
                                           argv, value, before):
    value = value.replace("X", "7" * 300)
    corpus = tmp_path / "e.corpus"
    corpus.write_text(f"tourney-corpus 1\nn 3\nconstraint {value}\n"
                      f"labeled_count 0\nclasses 0\n")
    files = {"FILE": rlt7_file, "CORPUS": str(corpus)}
    code = main([files.get(a, a.replace("X", "7" * 300)) for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and len(errors[0]) < 240
    assert f"{before}{value[:40]!r}... ({len(value)} characters)" in errors[0]
    assert "7" * 41 not in captured.err


@pytest.mark.parametrize("length", [40, 41])
def test_values_up_to_40_characters_are_echoed_whole(capsys, length):
    value = "7" * (length - 1) + "x"
    code = main(["gen", "rlt", "--n", value])
    shown = (f"'{value}'" if length == 40 else
             f"'{value[:40]}'... (41 characters)")
    assert code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument --n: must be ASCII decimal digits, got {shown}\n")


# (argv with X for 400 x's, the token that holds X, the message's text
# before the echo): a bad choice, which argparse reports, a flag before
# the command, which main reports, and an unread flag after it, which
# the parser reports, with FILE for RLT_7's .tour
LONG_ARGPARSE_ECHOES = [
    (["count", "--input", "FILE", "c5", "--method", "X"], "X",
     "argument --method: invalid choice: "),
    (["X", "classify", "--input", "FILE"], "X",
     "argument command: invalid choice: "),
    (["gen", "X", "--n", "5"], "X", "argument family: invalid choice: "),
    (["verify", "X"], "X", "argument target: invalid choice: "),
    (["--X", "classify", "--input", "FILE"], "--X",
     "unrecognized arguments: "),
    (["classify", "--input", "FILE", "--X"], "--X",
     "unrecognized arguments: "),
]


@pytest.mark.parametrize("argv,value,before", LONG_ARGPARSE_ECHOES,
                         ids=[" ".join(a).replace("X", "<400 x>")
                              for a, _, _ in LONG_ARGPARSE_ECHOES])
def test_long_choices_and_early_flags_are_echoed_in_part(capsys, rlt7_file,
                                                        argv, value, before):
    # the whole message, usage line included, stays under 300 bytes
    code = main([rlt7_file if a == "FILE" else a.replace("X", "x" * 400)
                 for a in argv])
    captured = capsys.readouterr()
    value = value.replace("X", "x" * 400)
    assert code == 2 and captured.out == ""
    assert len(captured.err.encode()) < 300
    assert f"error: {before}{value[:40]!r}... ({len(value)} characters)" \
        in captured.err
    assert "x" * 41 not in captured.err


def test_long_unread_flag_is_echoed_in_part_and_a_path_whole(capsys,
                                                             rlt7_file):
    flag = "--" + "x" * 400
    code = main(["classify", "--input", rlt7_file, flag, rlt7_file])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.endswith(
        f"error: unrecognized arguments: {flag[:40]!r}... (402 characters) "
        f"{rlt7_file}\n")


@pytest.mark.parametrize("length", [40, 41])
def test_choices_and_early_flags_up_to_40_characters_are_echoed_whole(
        capsys, rlt7_file, length):
    # argparse's own wording for a bad choice; a flag before the command
    # is shown bare, as argparse shows an unread flag after it
    value = "--" + "x" * (length - 2)
    code = main(["count", "--input", rlt7_file, f"--method={value}"])
    shown = (repr(value) if length == 40 else
             f"{value[:40]!r}... (41 characters)")
    assert code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument --method: invalid choice: {shown} (choose from "
        f"'formula', 'oracle', 'trace', 'all')\n")
    code = main([value, "classify", "--input", rlt7_file])
    shown = value if length == 40 else shown
    assert code == 2
    assert capsys.readouterr().err.endswith(
        f"error: unrecognized arguments: {shown} (a flag goes after the "
        f"command that reads it)\n")


UNREAD_FLAGS = [
    (["gen", "transitive", "--n", "5"], ["--seed", "3"]),
    (["gen", "rlt", "--n", "7"], ["--seed", "3"]),
    (["gen", "rotational", "--n", "7", "--symbol", "1,2,3"], ["--p", "7"]),
    (["gen", "qr", "--p", "7"], ["--n", "5"]),
    (["gen", "named", "--name", "kz7"], ["--seed", "7"]),
    (["gen", "random", "--n", "5", "--seed", "1"], ["--power", "3"]),
    (["verify", "thm1", "--n", "5"], ["--p", "2"]),
    (["verify", "prop2", "--corpus", "{corpus9}"], ["--n", "9"]),
    (["verify", "lemma1", "--n", "5", "--p", "4"], ["--input", "{qr11}"]),
    (["verify", "eq7", "--input", "{qr11}"], ["--corpus", "{corpus9}"]),
]

# (argv missing one required flag, that flag)
MISSING_FLAGS = [
    (["gen", "transitive"], "--n"),
    (["gen", "rlt"], "--n"),
    (["gen", "rotational", "--symbol", "1,2,3"], "--n"),
    (["gen", "rotational", "--n", "7"], "--symbol"),
    (["gen", "qr", "--power", "3"], "--p"),
    (["gen", "named"], "--name"),
    (["gen", "random", "--seed", "1"], "--n"),
    (["gen", "random", "--n", "5"], "--seed"),
    (["verify", "thm1"], "--n"),
    (["verify", "prop2"], "--corpus"),
    (["verify", "lemma1", "--p", "4"], "--n"),
    (["verify", "lemma1", "--n", "5"], "--p"),
    (["verify", "eq7"], "--input"),
]

# flags spelled short of a full name, which argparse would otherwise
# take as an abbreviation: --n for --name, --time for --time-budget, --o
# for --out, --met for --method, --ver for --verify, --inp for --input
ABBREVIATED_FLAGS = [
    ["gen", "named", "--n", "kz7"],
    ["enumerate", "--n", "3", "--time", "5"],
    ["gen", "rlt", "--n", "3", "--o", "{out}"],
    ["count", "--input", "{qr11}", "--met", "all"],
    ["enumerate", "--ver", "{corpus9}"],
    ["classify", "--inp", "{qr11}"],
]


# one argv per command path, enumerate once by --n and once by --verify
COMMAND_PATHS = [
    ["gen", "transitive", "--n", "5"],
    ["gen", "rlt", "--n", "7"],
    ["gen", "rotational", "--n", "7", "--symbol", "1,2,3"],
    ["gen", "qr", "--p", "7"],
    ["gen", "named", "--name", "kz7"],
    ["gen", "random", "--n", "5", "--seed", "1"],
    ["count", "--input", "{qr11}"],
    ["classify", "--input", "{qr11}"],
    ["verify", "thm1", "--n", "5"],
    ["verify", "prop2", "--corpus", "{corpus9}"],
    ["verify", "lemma1", "--n", "5", "--p", "4"],
    ["verify", "eq7", "--input", "{qr11}"],
    ["enumerate", "--n", "5"],
    ["enumerate", "--verify", "{corpus9}"],
]


def subcommands(parser) -> dict:
    """The subparsers of parser, by name."""
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestFlagsPerTarget:
    """Each gen family and verify target takes exactly the flags it
    reads: any other flag, a missing required one, or one not spelled in
    full is a usage error."""

    @pytest.mark.parametrize("argv,unread", UNREAD_FLAGS,
                             ids=[" ".join(a[:2]) for a, _ in UNREAD_FLAGS])
    def test_unread_flag_is_usage_error(self, capsys, golden_inputs, argv,
                                        unread):
        argv = [a.format(**golden_inputs) for a in argv]
        unread = [a.format(**golden_inputs) for a in unread]
        code, _ = run(capsys, *argv)
        assert code == 0
        code = main([*argv, *unread])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"unrecognized arguments: {' '.join(unread)}" in captured.err

    @pytest.mark.parametrize("argv,flag", MISSING_FLAGS,
                             ids=[f"{' '.join(a[:2])} {f}"
                                  for a, f in MISSING_FLAGS])
    def test_missing_flag_is_usage_error(self, capsys, argv, flag):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"the following arguments are required: {flag}" \
            in captured.err

    @pytest.mark.parametrize("argv", ABBREVIATED_FLAGS,
                             ids=[" ".join(a) for a in ABBREVIATED_FLAGS])
    def test_abbreviated_flag_is_usage_error(self, capsys, golden_inputs,
                                             tmp_path, argv):
        out = tmp_path / "out.tour"
        code = main([a.format(out=out, **golden_inputs) for a in argv])
        assert code == 2 and capsys.readouterr().out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv", COMMAND_PATHS,
                             ids=[" ".join(a[:2]).removesuffix(" --input")
                                  for a in COMMAND_PATHS])
    def test_time_budget_only_where_read(self, capsys, golden_inputs, argv):
        argv = [a.format(**golden_inputs) for a in argv]
        code, plain = run(capsys, *argv)
        assert code == 0
        code = main([*argv, "--time-budget", "5"])
        captured = capsys.readouterr()
        if argv[:2] in (["verify", "thm1"], ["enumerate", "--n"]):
            assert code == 0 and captured.out == plain
        elif argv[:2] == ["enumerate", "--verify"]:
            assert code == 2 and captured.out == ""
            assert captured.err == ("error: --out and --time-budget go with "
                                    "an enumeration by --n, not with "
                                    "--verify\n")
        else:
            assert code == 2 and captured.out == ""
            # count takes the 5 as a quantity name
            assert "unrecognized arguments: --time-budget" in captured.err
        # nor does the top level take a budget, and it names the flag
        code = main(["--time-budget", "5", *argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "unrecognized arguments: --time-budget (" in captured.err

    @pytest.mark.parametrize("flags", [
        ["--time-budget", "5"], ["--time-budget=5"], ["--time-budget"],
        ["--threads", "2"], ["--threads=2"], ["-x"],
    ], ids=" ".join)
    @pytest.mark.parametrize("argv", [
        ["classify", "--input", "{rlt9}"], ["enumerate", "--n", "5"],
        ["verify", "thm1", "--n", "5"],
    ], ids=" ".join)
    def test_flag_before_command_is_named(self, capsys, golden_inputs,
                                          flags, argv):
        # argparse alone reports the value after a flag as a bad command
        code = main([*flags, *(a.format(**golden_inputs) for a in argv)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.endswith(
            f"tourney: error: unrecognized arguments: {flags[0]} (a flag "
            f"goes after the command that reads it)\n")

    @pytest.mark.parametrize("argv,err", [
        (["-"], "argument command: invalid choice: '-'"),
        (["-", "classify"], "argument command: invalid choice: '-'"),
        (["--"], "the following arguments are required: command"),
        (["--", "classify"], "argument command: invalid choice: '--'"),
    ], ids=["-", "- classify", "--", "-- classify"])
    def test_dashes_before_command_are_argparse_errors(self, capsys, argv,
                                                       err):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"tourney: error: {err}" in captured.err

    def test_top_level_help(self, capsys):
        for flag in ("-h", "--help"):
            code, out = run(capsys, flag)
            assert code == 0 and out.startswith("usage: tourney")

    def test_enumerate_takes_n_or_verify(self, capsys, tmp_path):
        path = str(tmp_path / "r5.corpus")
        out = str(tmp_path / "copy.corpus")
        code, _ = run(capsys, "enumerate", "--n", "5", "--out", path)
        assert code == 0
        for argv in (["enumerate"], ["enumerate", "--n", "5", "--verify",
                                     path]):
            code, stdout = run(capsys, *argv)
            assert code == 2 and stdout == ""
        err = assert_usage_error(capsys, "enumerate", "--verify", path,
                                 "--out", out)
        assert "--out" in err
        assert not os.path.exists(out)

    def test_lemma1_order_zero(self, capsys):
        err = assert_usage_error(capsys, "verify", "lemma1", "--n", "0",
                                 "--p", "2")
        assert "need n >= 1, got 0" in err

    def test_option_strings(self):
        # every settable value of every command path, positional ones by
        # their dest, with whether it is required
        commands = subcommands(_build_parser())
        paths = {(name,): parser for name, parser in commands.items()
                 if name not in ("gen", "verify")}
        for command in ("gen", "verify"):
            for name, parser in subcommands(commands[command]).items():
                paths[command, name] = parser
        flags = {path: {(action.option_strings or [action.dest])[-1]:
                        action.required for action in parser._actions
                        if not isinstance(action, argparse._HelpAction)}
                 for path, parser in paths.items()}
        assert flags == {
            ("gen", "transitive"): {"--n": True, "--out": False},
            ("gen", "rlt"): {"--n": True, "--out": False},
            ("gen", "rotational"): {"--n": True, "--symbol": True,
                                    "--out": False},
            ("gen", "qr"): {"--p": True, "--power": False, "--out": False},
            ("gen", "named"): {"--name": True, "--out": False},
            ("gen", "random"): {"--n": True, "--seed": True, "--out": False},
            ("count",): {"--input": True, "names": False, "--method": False},
            ("classify",): {"--input": True},
            ("verify", "thm1"): {"--n": True, "--time-budget": False},
            ("verify", "prop2"): {"--corpus": True},
            ("verify", "lemma1"): {"--n": True, "--p": True},
            ("verify", "eq7"): {"--input": True},
            ("enumerate",): {"--n": False, "--verify": False, "--out": False,
                             "--time-budget": False},
        }
        assert sum(map(len, flags.values())) == 29
        # the top level takes no flag but --help
        assert [a.option_strings for a in _build_parser()._actions
                if a.option_strings] == [["-h", "--help"]]


class TestBlasThreads:
    """main gives numpy's BLAS one thread unless the caller chose."""

    def test_set_when_absent(self, capsys, monkeypatch):
        # setenv first, so that the teardown removes the value main sets
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        assert main(["gen", "transitive", "--n", "3"]) == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"

    def test_explicit_value_is_left_alone(self, capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert main(["gen", "transitive", "--n", "3"]) == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


class TestClassify:
    def test_flags_json(self, capsys, tmp_path):
        path = tmp_path / "q.tour"
        code, _ = run(capsys, "gen", "qr", "--p", "7", "--out", str(path))
        assert code == 0
        capsys.readouterr()
        code, out = run(capsys, "classify", "--input", str(path))
        doc = json.loads(out)
        assert code == 0
        assert doc["flags"]["doubly_regular"] is True
        assert doc["semi_degree"] == 3
        assert list(doc["flags"])[0] == "strong"


class TestVerify:
    def test_eq7_pass(self, capsys, tmp_path):
        path = tmp_path / "r.tour"
        write_tour(gen_rlt(9), path)
        code, out = run(capsys, "verify", "eq7", "--input", str(path))
        doc = json.loads(out)
        assert code == 0
        assert doc["lhs"] == doc["rhs"] == 324
        assert doc["trace_lhs"] == {"num": 1620, "den": 1}

    def test_eq7_rejects_irregular(self, capsys, tmp_path):
        path = tmp_path / "t.tour"
        code, _ = run(capsys, "gen", "transitive", "--n", "5",
                      "--out", str(path))
        capsys.readouterr()
        code, _ = run(capsys, "verify", "eq7", "--input", str(path))
        assert code == 2  # precondition failure, not a violated claim

    def test_eq7_fails_on_a_broken_identity(self, capsys, tmp_path,
                                            monkeypatch):
        from tourney import extremal
        path = tmp_path / "r.tour"
        write_tour(gen_rlt(9), path)
        monkeypatch.setattr(extremal, "regular_identity", lambda t: (1, 2))
        assert main(["verify", "eq7", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("claim violated: identity failed: 1 != 2 or ")

    def test_lemma1(self, capsys):
        code, out = run(capsys, "verify", "lemma1", "--n", "7", "--p", "4")
        doc = json.loads(out)
        assert code == 0
        assert doc["bound"]["observed"] == 0
        assert doc["balanced"] == [3] * 7
        assert doc["unique_minimizer"] is True

    def test_thm1_order5(self, capsys):
        code, out = run(capsys, "verify", "thm1", "--n", "5")
        doc = json.loads(out)
        assert code == 0
        assert doc["total_codes"] == 1024
        assert doc["c5"]["observed"] == 3
        assert doc["c5"]["bound_value"] == {"num": 9, "den": 2}
        assert doc["c5"]["tight"] is False

    def test_prop2_needs_corpus(self, capsys):
        code, _ = run(capsys, "verify", "prop2")
        assert code == 2

    @pytest.mark.parametrize("argv,message", [
        (["verify", "lemma1", "--n", "5", "--p", "1"], "need p >= 2, got 1"),
        (["gen", "qr", "--p", "4", "--power", "3"], "4 is not prime"),
        (["gen", "qr", "--p", "2", "--power", "3"],
         "need p = 3 (mod 4), got 2"),
        (["gen", "qr", "--p", "1"], "1 is not prime"),
    ], ids=["lemma1-p1", "qr-power-p4", "qr-power-p2", "qr-p1"])
    def test_out_of_range_values_are_usage_errors(self, capsys, argv,
                                                  message):
        assert assert_usage_error(capsys, *argv) == f"error: {message}\n"

    def test_unknown_target_is_usage_error(self, capsys):
        code, _ = run(capsys, "verify", "thm99")
        assert code == 2


class TestEnumerate:
    def test_write_and_verify(self, capsys, tmp_path):
        path = tmp_path / "r5.corpus"
        code, out = run(capsys, "enumerate", "--n", "5", "--out", str(path))
        doc = json.loads(out)
        assert code == 0
        assert doc["classes"] == 1 and doc["labeled_count"] == 24
        code, out = run(capsys, "enumerate", "--verify", str(path))
        assert code == 0
        assert json.loads(out)["classes"] == 1

    def test_verify_tampered_corpus_fails(self, capsys, tmp_path):
        path = tmp_path / "r5.corpus"
        code, _ = run(capsys, "enumerate", "--n", "5", "--out", str(path))
        assert code == 0
        capsys.readouterr()
        path.write_text(path.read_text().replace("labeled_count 24",
                                                 "labeled_count 23"))
        code, _ = run(capsys, "enumerate", "--verify", str(path))
        assert code == 1

    def test_even_order_is_usage_error(self, capsys):
        code, _ = run(capsys, "enumerate", "--n", "6")
        assert code == 2

    def test_no_constraint_flag(self, capsys):
        # regular is the one constraint, so enumerate takes no flag for it
        code = main(["enumerate", "--n", "5", "--constraint", "regular"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unrecognized arguments: --constraint regular" in err

    @pytest.mark.parametrize("old,new", [
        (b"n 5", b"n x"),
        (b"class ", b"class zz"),
        (b"regular", b"r\xe9gular"),
        (b"n 5", b"n 0_5"),
        (b"n 5", b"n +5"),
        (b"n 5", b"n 5 "),
        (b"labeled_count 24", b"labeled_count 2_4"),
        (b"classes 1", b"classes  1"),
        (b"regular", b"anything"),
        (b"class 038e186", b"class 0x038e186"),
        (b"class 038e186", b"class +038e186"),
        (b"class 038e186", b"class 038e_186"),
        (b"class 038e186", b"class 0038e186"),
        (b"class 038e186", b"class 038E186"),
        (b"class 038e186", b"class 038e186 "),
        (b"class 038e186", b"class 838e186"),
        (b"5\n00011\n", b"5\n10011\n"),
    ], ids=["n", "class-key", "non-ascii", "n-underscore", "n-plus",
            "n-space", "labeled-underscore", "classes-space", "constraint",
            "class-0x", "class-plus", "class-underscore", "class-leading-zero",
            "class-upper", "class-space", "class-too-wide", "block-loop"])
    @pytest.mark.parametrize("command", [["enumerate", "--verify"],
                                         ["verify", "prop2", "--corpus"]],
                             ids=["enumerate", "prop2"])
    def test_malformed_corpus_is_usage_error(self, capsys, tmp_path, old,
                                             new, command):
        path = tmp_path / "r5.corpus"
        code, _ = run(capsys, "enumerate", "--n", "5", "--out", str(path))
        assert code == 0
        path.write_bytes(path.read_bytes().replace(old, new, 1))
        err = assert_usage_error(capsys, *command, str(path))
        assert "(line " in err

    @staticmethod
    def empty_corpus(path, n: str, constraint: str, labeled: str) -> str:
        path.write_text(f"tourney-corpus 1\nn {n}\nconstraint {constraint}"
                        f"\nlabeled_count {labeled}\nclasses 0\n")
        return str(path)

    @pytest.mark.parametrize("n,constraint,labeled,line", [
        ("-3", "regular", "24", 2),
        ("0", "regular", "0", 2),
        ("4", "regular", "0", 2),
        ("13", "regular", "0", 2),
        ("3", "anything", "0", 3),
    ], ids=["n-minus", "n-zero", "n-even", "n-above-cap", "constraint"])
    def test_header_rules_on_empty_corpus(self, capsys, tmp_path, n,
                                          constraint, labeled, line):
        path = self.empty_corpus(tmp_path / "e.corpus", n, constraint,
                                 labeled)
        err = assert_usage_error(capsys, "enumerate", "--verify", path)
        assert f"(line {line}" in err

    def test_empty_order11_corpus_fails(self, capsys, tmp_path):
        # order 11 has 1223 regular classes, so an empty corpus is a
        # failed claim even though its orbit sum 0 matches its count
        path = self.empty_corpus(tmp_path / "r11.corpus", "11", "regular",
                                 "0")
        code = main(["enumerate", "--verify", path])
        err = capsys.readouterr().err
        assert code == 1
        assert err == ("claim violated: expected 1223 classes at order 11, "
                       "got 0\n")

    @pytest.mark.parametrize("argv", [["enumerate", "--verify"],
                                      ["verify", "prop2", "--corpus"]],
                             ids=["enumerate", "prop2"])
    def test_missing_corpus(self, capsys, tmp_path, argv):
        # open's own OSError, as for a missing .tour
        path = str(tmp_path / "missing.corpus")
        err = assert_usage_error(capsys, *argv, path)
        assert err == f"error: [Errno 2] No such file or directory: {path!r}\n"

    def test_prop2_rejects_order7_corpus(self, capsys, tmp_path, corpus7):
        path = tmp_path / "r7.corpus"
        write_corpus(corpus7, path)
        err = assert_usage_error(capsys, "verify", "prop2", "--corpus",
                                 str(path))
        assert err == "error: need the order-9 regular corpus\n"

    def test_prop2_refuses_order7_corpus_before_verifying_it(
            self, capsys, tmp_path, corpus7):
        # the order is checked first, so a count that fails orbit
        # counting is the same usage error as the corpus as built
        path = tmp_path / "r7.corpus"
        write_corpus(corpus7, path)
        path.write_text(path.read_text().replace("labeled_count 2640",
                                                 "labeled_count 2641"))
        err = assert_usage_error(capsys, "verify", "prop2", "--corpus",
                                 str(path))
        assert err == "error: need the order-9 regular corpus\n"

    @pytest.mark.parametrize("edit,claim", [
        (lambda b: [b[1], b[0], b[2]], "classes are not sorted by key"),
        (lambda b: [b[0], b[0], b[2]], "duplicate class key 01e1e1e0e0e0e"),
        (lambda b: [b[0].split("\n")[0] + "\n"
                    + format_tour(gen_transitive(7)).rstrip("\n"), *b[1:]],
         "a stored representative is not regular"),
    ], ids=["swapped", "repeated", "not-regular"])
    def test_verify_bad_class_list_fails(self, capsys, tmp_path, corpus7,
                                         edit, claim):
        path = tmp_path / "r7.corpus"
        write_corpus(corpus7, path)
        head, *blocks = path.read_text().rstrip("\n").split("\n\n")
        path.write_text("\n\n".join([head, *edit(blocks)]) + "\n")
        code = main(["enumerate", "--verify", str(path)])
        assert code == 1
        assert capsys.readouterr().err == f"claim violated: {claim}\n"

    def test_trailing_line_is_usage_error(self, capsys, tmp_path, corpus7):
        path = tmp_path / "r7.corpus"
        write_corpus(corpus7, path)
        text = path.read_text()
        path.write_text(text + "extra\n")
        err = assert_usage_error(capsys, "enumerate", "--verify", str(path))
        assert err == (f"error: trailing content after the last class "
                       f"(line {len(text.splitlines()) + 1})\n")

    def test_corpus_row_error_names_file_line(self, capsys, tmp_path):
        path = tmp_path / "r7.corpus"
        code, _ = run(capsys, "enumerate", "--n", "7", "--out", str(path))
        assert code == 0
        lines = path.read_text().split("\n")
        # lines 7 and 8 are the first class's key and order line
        assert lines[6].startswith("class ") and lines[7] == "7"
        lines[8] = "x" + lines[8][1:]
        path.write_text("\n".join(lines))
        err = assert_usage_error(capsys, "enumerate", "--verify", str(path))
        assert "(line 9, col 1)" in err

    @pytest.mark.parametrize("budget", ["0", "nan", "inf", "-1"],
                             ids=["budget-0", "budget-nan", "budget-inf",
                                  "budget-neg"])
    def test_bad_run_limits_are_usage_errors(self, capsys, budget):
        # each of these commands would otherwise run
        for command in (["enumerate", "--n", "5"],
                        ["verify", "thm1", "--n", "5"]):
            code = main([*command, "--time-budget", budget])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert "must be a positive finite number" in captured.err

    @pytest.mark.parametrize("budget", ["٥", "1_0", " 1", "+1", "1e3"],
                             ids=["arabic-indic", "underscore", "space",
                                  "sign", "exponent"])
    def test_budget_is_ascii_decimal(self, capsys, budget):
        # float() reads each of these as a positive finite number
        code = main(["verify", "thm1", "--n", "5", "--time-budget", budget])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"argument --time-budget: must be a positive finite number " \
               f"of seconds in ASCII decimal digits with at most one '.', " \
               f"got {budget!r}" in captured.err

    @pytest.mark.parametrize("budget", ["0.5", "30"])
    def test_decimal_budgets_run(self, capsys, budget):
        code, out = run(capsys, "enumerate", "--n", "5",
                        "--time-budget", budget)
        assert code == 0 and json.loads(out)["classes"] == 1

    def test_thm1_honours_the_budget(self, capsys):
        err = assert_usage_error(capsys, "verify", "thm1", "--n", "7",
                                 "--time-budget", "0.001")
        assert "ran past its budget" in err

    def test_thm1_within_its_budget_prints_the_same(self, capsys):
        code, out = run(capsys, "verify", "thm1", "--n", "5",
                        "--time-budget", "600")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            GOLDEN["thm1-5"][1]

    def test_no_worker_count_knobs(self, capsys, monkeypatch):
        # enumeration runs in this process, so the CLI has no worker cap
        code = main(["--threads=2", "enumerate", "--n", "5"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unrecognized arguments: --threads=2" in err
        _, plain = run(capsys, "enumerate", "--n", "5")
        monkeypatch.setenv("TOURNEY_THREADS", "abc")
        code, out = run(capsys, "enumerate", "--n", "5")
        assert code == 0 and out == plain


def mutated(seed: bytes) -> st.SearchStrategy[bytes]:
    """seed after one to four edits, each deleting up to four bytes at a
    position and inserting up to four others there."""
    edit = st.tuples(
        st.integers(0, 1 << 16), st.integers(0, 4),
        st.one_of(st.binary(max_size=4),
                  st.sampled_from([b"0", b"1", b"\n", b"9", b" "])))

    def apply(edits: list[tuple[int, int, bytes]]) -> bytes:
        data = seed
        for pos, cut, insert in edits:
            pos %= len(data) + 1
            data = data[:pos] + insert + data[pos + cut:]
        return data

    return st.lists(edit, min_size=1, max_size=4).map(apply)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def corpus5_bytes(fuzz_dir) -> bytes:
    path = fuzz_dir / "r5.corpus"
    write_corpus(enumerate_regular(5), path)
    return path.read_bytes()


def run_on_bytes(path, data: bytes, *argv: str) -> tuple[int, str]:
    """main on a file holding data; returns (exit code, stderr)."""
    path.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main([*argv, str(path)])
    return code, err.getvalue()


def assert_clean_exit(code: int, err: str, allowed: tuple[int, ...]) -> None:
    assert code in allowed
    assert "Traceback" not in err
    if code:
        assert err.startswith(("error:", "claim violated:"))


class TestFuzz:
    """main on mutated .tour and .corpus bytes exits with a message, never
    a traceback."""

    @given(data=mutated(format_tour(gen_rlt(7)).encode()),
           command=st.sampled_from(["count", "classify"]))
    @example(data=b"1" * 5000 + b"\n", command="count")
    @settings(max_examples=80, deadline=None)
    def test_tour(self, fuzz_dir, data, command):
        code, err = run_on_bytes(fuzz_dir / "t.tour", data, command,
                                 "--input")
        assert_clean_exit(code, err, (0, 2))

    @given(draw=st.data())
    @settings(max_examples=80, deadline=None)
    def test_corpus(self, fuzz_dir, corpus5_bytes, draw):
        data = draw.draw(mutated(corpus5_bytes))
        code, err = run_on_bytes(fuzz_dir / "c.corpus", data, "enumerate",
                                 "--verify")
        assert_clean_exit(code, err, (0, 1, 2))


# sha256 of stdout for every JSON document the CLI prints, pinned so that
# a change to how reports are encoded shows up as a changed byte
GOLDEN = {
    "count-qr11": (
        ("count", "--input", "{qr11}"),
        "45d72bc18ef74f911bc003527f40e7c8a079ba739dda3646d77f4c62f88aef0b"),
    "count-rlt9": (
        ("count", "--input", "{rlt9}"),
        "f1c8a944c685165353260329a05e686bcceca6608881818dd48a89ad180cd940"),
    "count-random8": (
        ("count", "--input", "{random8}"),
        "8f1fe7376d95a222c9828410c15e7ab30b2faee9f9fda2aede446b36526375ac"),
    "count-formula-qr11": (
        ("count", "--input", "{qr11}", "w4", "tr5", "--method", "formula"),
        "976c42f106e9c63d7660e17338e2d31e718ed89f5e765efe58db1c1a7eebac33"),
    "count-formula-rlt9": (
        ("count", "--input", "{rlt9}", "w4", "tr5", "--method", "formula"),
        "f443c5b44fee384c0e7b682972502d2cfefe1aa875ad3d42d72c9ff1c29a743a"),
    "count-formula-random8": (
        ("count", "--input", "{random8}", "w4", "tr5", "--method", "formula"),
        "42e3a2a884d06ea0f1547d433d3f5c7b4a2ab1de7afe8eba13c9df3d365cddcc"),
    "count-names-rlt7": (
        ("count", "--input", "{rlt7}", "c5", "s5", "w4", "tr5"),
        "8f87dd181bcbae0f6b76f56565537af0512e0bfe15c5b6c3aba8574b11a4f993"),
    "classify-qr11": (
        ("classify", "--input", "{qr11}"),
        "4be89107846978a5f61f9a5596787dbde7ede6ea7c9200ce5b264fe648678f00"),
    "classify-rlt9": (
        ("classify", "--input", "{rlt9}"),
        "443d57926d8bb402cef64c5866a9aa7327a6c0847f38f1e5e7cbf7d490f01c05"),
    "classify-random8": (
        ("classify", "--input", "{random8}"),
        "62fda3f2e832a1f864aeea06bc882641185acea044a60d1fd94f7fee5ca0cc83"),
    "thm1-5": (
        ("verify", "thm1", "--n", "5"),
        "bc3acc93428482a4a3a41ba7422394d3a5882cf5980886b99087cf4f758c6f73"),
    "lemma1-7-4": (
        ("verify", "lemma1", "--n", "7", "--p", "4"),
        "4dccda68484ace490f18f3c7413c1fdd7aa7f12a567638f43c49254658c102a2"),
    "lemma1-5-4": (
        ("verify", "lemma1", "--n", "5", "--p", "4"),
        "a0856165d850914d33d8e0d32d2aeaffa3a0d00001d1c40aad566ae5399c3bf8"),
    "eq7-qr11": (
        ("verify", "eq7", "--input", "{qr11}"),
        "2da44c0eb18141601250986bf730bc59e1aa238c770cc13d4785f90c35ccf3c8"),
    "enumerate-9": (
        ("enumerate", "--n", "9"),
        "8e8cdc5896f8ed3bb6be3c15982dd83e699ac0f5f75e2e880f1140b5360e605d"),
    "prop2": (
        ("verify", "prop2", "--corpus", "{corpus9}"),
        "d7c9bbddd265a255d571ad26144a1ceb4f328cfdd7c2584f6b915deaa531ac57"),
}


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory, corpus9) -> dict[str, str]:
    d = tmp_path_factory.mktemp("golden")
    paths = {"corpus9": str(d / "r9.corpus")}
    write_corpus(corpus9, paths["corpus9"])
    for name, t in (("qr11", gen_qr(11)), ("rlt7", gen_rlt(7)),
                    ("rlt9", gen_rlt(9)), ("random8", gen_random(8, 42))):
        paths[name] = str(d / f"{name}.tour")
        write_tour(t, paths[name])
    return paths


@pytest.mark.parametrize("argv,digest", GOLDEN.values(), ids=GOLDEN.keys())
def test_golden_stdout(capsys, golden_inputs, argv, digest):
    code, out = run(capsys, *(a.format(**golden_inputs) for a in argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_golden_thm1_order7(capsys, sweep7):
    # `verify thm1 --n 7` emits verify_c5_max(7); encoding the shared
    # sweep7 fixture pins its stdout without a second 2^21-code sweep
    _emit(sweep7)
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "31c7c642c7e55a864ca68ceb64fddafd52171f6e2cd9f6890935ed604cb38002")


class TestEntryPoint:
    def test_installed_script(self):
        proc = subprocess.run([sys.executable, "-m", "tourney.cli",
                               "gen", "rlt", "--n", "5"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert parse_tour(proc.stdout).n == 5

    def test_package_as_module(self):
        # python -m tourney, the same command as the installed script
        proc = subprocess.run([sys.executable, "-m", "tourney",
                               "verify", "thm1", "--n", "5"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
            GOLDEN["thm1-5"][1])
