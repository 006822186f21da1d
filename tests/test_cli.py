"""Command-line behaviour: exit codes, JSON shapes, file round-trips.
Tests drive main() in-process; one subprocess check covers the installed
entry point."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tourney import (TRACE_MAX_M, enumerate_regular, format_tour, gen_qr,
                     gen_random, gen_rlt, parse_tour, write_corpus,
                     write_tour)
from tourney.cli import _emit, main


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

    def test_missing_argument_is_usage_error(self, capsys):
        code, _ = run(capsys, "gen", "rlt")
        assert code == 2

    def test_bad_prime_is_usage_error(self, capsys):
        code, _ = run(capsys, "gen", "qr", "--p", "8")
        assert code == 2


class TestCount:
    @pytest.fixture()
    def rlt7_file(self, tmp_path):
        path = tmp_path / "rlt7.tour"
        write_tour(gen_rlt(7), path)
        return str(path)

    def test_default_quantities(self, capsys, rlt7_file):
        code, out = run(capsys, "count", "--input", rlt7_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 7 and doc["cross_checked"]
        names = {e["name"] for e in doc["quantities"]}
        assert names == {"c3", "c4", "c5", "s3", "s4", "s5"}

    def test_c5_value(self, capsys, rlt7_file):
        code, out = run(capsys, "count", "--input", rlt7_file, "--c5")
        doc = json.loads(out)
        values = {e["value"] for e in doc["quantities"]}
        assert code == 0 and values == {28}

    def test_w_and_trace(self, capsys, rlt7_file):
        code, out = run(capsys, "count", "--input", rlt7_file,
                        "--w", "4", "--trace", "5", "--method", "formula")
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
                      "--c3", "--method", "oracle")
        assert code == 2

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

    def test_missing_file(self, capsys):
        code, _ = run(capsys, "count", "--input", "/nonexistent.tour")
        assert code == 2

    def test_trace_above_cap_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "r64.tour"
        write_tour(gen_random(64, 1), path)
        err = assert_usage_error(capsys, "count", "--input", str(path),
                                 "--trace", "100000")
        assert str(TRACE_MAX_M) in err


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
    ], ids=["n", "class-key", "non-ascii", "n-underscore", "n-plus",
            "n-space", "labeled-underscore", "classes-space", "constraint",
            "class-0x", "class-plus", "class-underscore", "class-leading-zero",
            "class-upper", "class-space"])
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

    def test_threads_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("TOURNEY_THREADS", "2")
        code, out = run(capsys, "enumerate", "--n", "5")
        assert code == 0
        assert json.loads(out)["labeled_count"] == 24

    @pytest.mark.parametrize("flags", [["--threads", "0"],
                                       ["--threads", "-3"],
                                       ["--time-budget", "0"],
                                       ["--time-budget", "nan"],
                                       ["--time-budget", "inf"],
                                       ["--time-budget", "-1"]],
                             ids=["threads-0", "threads-neg", "budget-0",
                                  "budget-nan", "budget-inf", "budget-neg"])
    def test_bad_run_limits_are_usage_errors(self, capsys, flags):
        assert_usage_error(capsys, *flags, "enumerate", "--n", "5")

    def test_threads_env_below_one(self, capsys, monkeypatch):
        monkeypatch.setenv("TOURNEY_THREADS", "0")
        err = assert_usage_error(capsys, "enumerate", "--n", "5")
        assert "TOURNEY_THREADS" in err

    def test_threads_env_not_integer(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "r.tour"
        write_tour(gen_rlt(5), path)
        monkeypatch.setenv("TOURNEY_THREADS", "abc")
        err = assert_usage_error(capsys, "classify", "--input", str(path))
        assert "TOURNEY_THREADS" in err


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
        ("count", "--input", "{qr11}", "--w", "4", "--trace", "5",
         "--method", "formula"),
        "976c42f106e9c63d7660e17338e2d31e718ed89f5e765efe58db1c1a7eebac33"),
    "count-formula-rlt9": (
        ("count", "--input", "{rlt9}", "--w", "4", "--trace", "5",
         "--method", "formula"),
        "f443c5b44fee384c0e7b682972502d2cfefe1aa875ad3d42d72c9ff1c29a743a"),
    "count-formula-random8": (
        ("count", "--input", "{random8}", "--w", "4", "--trace", "5",
         "--method", "formula"),
        "42e3a2a884d06ea0f1547d433d3f5c7b4a2ab1de7afe8eba13c9df3d365cddcc"),
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
    for name, t in (("qr11", gen_qr(11)), ("rlt9", gen_rlt(9)),
                    ("random8", gen_random(8, 42))):
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
