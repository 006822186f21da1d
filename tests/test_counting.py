"""Counting layer: every closed formula is checked against an
independent brute-force oracle. The exhaustive order-5 check and the
seeded random sweep over orders 6..11 are the backbone; named identities
ride on top."""

from __future__ import annotations

import random
import re
from dataclasses import astuple
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourney import (
    TRACE_MAX_M,
    ArcIntersection,
    Tournament,
    CountEntry,
    arc_intersections,
    c3_formula,
    c4_formula,
    c5_formula,
    compose,
    converse,
    count_report,
    gen_named,
    gen_qr,
    gen_random,
    gen_rlt,
    gen_transitive,
    oracle_cycles,
    oracle_strong_subs,
    oracle_w,
    s5_formula,
    s_formula,
    scores,
    trace_m,
    w_formula,
)
from tourney import counting
from tourney.counting import (_adjacency_powers, _arc_profiles,
                              _cycle_counts, _cycles_by_trace, _histograms,
                              _strong_counts, _union_tables)
from tourney.errors import InternalParityError, InvalidInput

from oracle_reference import (
    count_copies,
    cycles_by_dfs,
    strong_subs_by_combinations,
    tournament_from_code,
    w_by_combinations,
)


# every per-tournament table a counting route keeps
ROUTE_CACHES = (_arc_profiles, _histograms, _union_tables, _cycle_counts,
                _strong_counts, _adjacency_powers)


def clear_route_caches() -> None:
    for cache in ROUTE_CACHES:
        cache.cache_clear()


def trace_by_repeated_products(t, m: int) -> int:
    """Trace of A**m from m - 1 products of Python-int matrices."""
    n = t.n
    a = [[int(t.has_arc(i, j)) for j in range(n)] for i in range(n)]
    power = a
    for _ in range(m - 1):
        power = [[sum(power[i][k] * a[k][j] for k in range(n))
                  for j in range(n)] for i in range(n)]
    return sum(power[i][i] for i in range(n))


def w_by_arc_loop(t, m: int) -> int:
    """Reference route for w_m: the subset formula with every arc's
    |N+(i) & N-(j)| counted by a popcount, one arc at a time."""
    n = t.n
    if m > n:
        return 0
    full = t.full_mask()
    rows = t.out_rows
    total = comb(n, m)
    for i in range(n):
        deg = rows[i].bit_count()
        total -= comb(deg, m - 1) + comb(n - 1 - deg, m - 1)
    for i, j in t.arcs():
        mj = full & ~rows[j] & ~(1 << j)
        total += comb((rows[i] & mj).bit_count(), m - 2)
    return total


def assert_arc_profiles(t) -> None:
    """The kernel's degrees and per-arc counts equal the per-pair route:
    for an arc i -> j, (dpp, n-1-d_i-d_j+dpp, d_i-1-dpp, d_j-dpp)."""
    d, *per_arc = _arc_profiles(t)
    assert d.tolist() == list(scores(t)[0])
    assert list(zip(*(x.tolist() for x in per_arc))) == [
        astuple(arc_intersections(t, i, j)) for i, j in t.arcs()]


def assert_formulas_match_oracles(t) -> None:
    assert c3_formula(t) == oracle_cycles(t, 3)
    assert c4_formula(t) == oracle_cycles(t, 4)
    assert c5_formula(t) == oracle_cycles(t, 5)
    for m in (3, 4, 5):
        assert s_formula(t, m) == oracle_strong_subs(t, m)
        assert trace_m(t, m) == m * oracle_cycles(t, m)
    assert s5_formula(t) == s_formula(t, 5)
    for m in (3, 4, 5, 6):
        assert w_formula(t, m) == oracle_w(t, m)


class TestExhaustiveOrder5:
    def test_all_1024(self):
        for code in range(1 << 10):
            t = tournament_from_code(5, code)
            assert c5_formula(t) == oracle_cycles(t, 5)
            assert c4_formula(t) == oracle_cycles(t, 4)
            assert s5_formula(t) == oracle_strong_subs(t, 5)
            for m in (3, 4, 5):
                assert trace_m(t, m) == m * oracle_cycles(t, m)


def outcome(oracle, t, m):
    """An oracle's value, or the message of the InvalidInput it raises
    for an order it rejects."""
    try:
        return oracle(t, m)
    except InvalidInput as exc:
        return str(exc)


ORACLE_PAIRS = [(oracle_cycles, cycles_by_dfs),
                (oracle_strong_subs, strong_subs_by_combinations),
                (oracle_w, w_by_combinations)]


def assert_oracles_match_references(t) -> None:
    for m in range(1, t.n + 2):
        for oracle, reference in ORACLE_PAIRS:
            assert outcome(oracle, t, m) == outcome(reference, t, m), (
                oracle.__name__, t, m)


class TestArrayOracles:
    """The array oracles against the scalar walks and subset loops, for
    every m from 1 to n + 1: equal counts, and InvalidInput with the same
    message for the same m."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_labeled_tournament(self, n):
        for code in range(1 << comb(n, 2)):
            assert_oracles_match_references(tournament_from_code(n, code))

    @pytest.mark.parametrize("n", range(6, 13))
    def test_seeded_and_named_families(self, n):
        family = [gen_random(n, seed) for seed in range(2)]
        family.append(gen_transitive(n))
        if n % 2:
            family.append(gen_rlt(n))
        if n in (7, 11):
            family.append(gen_qr(n))
        for t in family:
            assert_oracles_match_references(t)


class TestOnePass:
    """Each oracle answers every m up to its pass depth from one pass per
    tournament.  Asked for m = 1..n + 1 in a shuffled order, which moves
    between the depth-5 pass and deeper ones, and with no cache cleared
    between tournaments, both must still equal the references: a pass of
    another depth or tournament never answers."""

    @staticmethod
    def assert_shuffled(t, rng) -> None:
        ms = list(range(1, t.n + 2))
        rng.shuffle(ms)
        if t.n > 5:  # a deeper pass is asked before the depth-5 one
            assert any(5 < a <= t.n and b <= 5 for a, b in zip(ms, ms[1:]))
        for m in ms:
            for oracle, reference in ORACLE_PAIRS[:2]:
                assert outcome(oracle, t, m) == outcome(reference, t, m), (
                    oracle.__name__, t, m)

    def test_every_order5_tournament(self):
        rng = random.Random(5)
        for code in range(1 << 10):
            self.assert_shuffled(tournament_from_code(5, code), rng)

    @pytest.mark.parametrize("n", range(6, 13))
    def test_seeded(self, n):
        rng = random.Random(n + 2)  # shuffles that leave a deep pass
        for seed in (2, 3):
            self.assert_shuffled(gen_random(n, seed), rng)


class TestRandomOracleEquivalence:
    @pytest.mark.parametrize("n", [6, 7, 8, 9, 10, 11])
    def test_formulas_match_oracles(self, n):
        # 200 seeded tournaments per order
        for seed in range(200):
            assert_formulas_match_oracles(gen_random(n, seed))

    @pytest.mark.parametrize("n", [6, 9])
    def test_converse_invariance(self, n):
        for seed in range(40):
            t = gen_random(n, seed)
            c = converse(t)
            assert c3_formula(t) == c3_formula(c)
            assert c4_formula(t) == c4_formula(c)
            assert c5_formula(t) == c5_formula(c)
            for m in (3, 4, 5):
                assert s_formula(t, m) == s_formula(c, m)


# one seeded random tournament per order above the oracle cap, plus the
# two orders with no arc or one arc; TT_64 sets bit 63 of a row
_ABOVE_CAP = {f"random{n}": gen_random(n, n) for n in (1, 2, *range(13, 65))}
_ABOVE_CAP.update(rlt63=gen_rlt(63), qr59=gen_qr(59), tt64=gen_transitive(64))


class TestAboveOracleCap:
    @pytest.mark.parametrize("t", _ABOVE_CAP.values(), ids=_ABOVE_CAP.keys())
    def test_formulas_match_trace_and_arc_loop(self, t):
        assert c3_formula(t) == _cycles_by_trace(t, 3)
        assert c4_formula(t) == _cycles_by_trace(t, 4)
        assert c5_formula(t) == _cycles_by_trace(t, 5)
        n = t.n
        for m in {3, 4, 5, n // 2, n - 1, n} - {0, 1, 2}:
            assert w_formula(t, m) == w_by_arc_loop(t, m)


def test_c5_total_off_by_one_is_a_bug(monkeypatch):
    # one per-arc term shifted by 1 leaves 8 c5 + 1: c5_formula must
    # raise, even under python -O, never floor
    terms = counting._c5_arc_terms

    def shifted(t):
        x = terms(t).copy()
        x[0] += 1
        return x

    monkeypatch.setattr(counting, "_c5_arc_terms", shifted)
    with pytest.raises(InternalParityError, match="^17 not divisible by 8$"):
        c5_formula(gen_rlt(5))


class TestArcProfileMemo:
    """_arc_profiles keeps its last result.  Every formula must give what
    it gives with an empty memo, whichever tournament the memo holds."""

    _FORMULAS = (c4_formula, c5_formula, s5_formula,
                 lambda t: s_formula(t, 4), lambda t: w_formula(t, 6))

    @pytest.mark.parametrize("n", [6, 12, 40, 64])
    def test_alternating_and_equal_tournaments(self, n):
        t1, t2 = gen_random(n, 1), gen_random(n, 2)
        copy = Tournament(n, tuple(list(t1.out_rows)))
        assert copy == t1 and copy is not t1
        assert copy.out_rows is not t1.out_rows

        def fresh(t):
            values = []
            for f in self._FORMULAS:
                clear_route_caches()
                values.append(f(t))
            return values

        want = {t: fresh(t) for t in (t1, t2)}
        assert want[t1] != want[t2]
        for t in (t1, t2, t1, copy, t2, copy):
            assert [f(t) for f in self._FORMULAS] == want[t]
        if n <= 12:
            assert want[t1] == [oracle_cycles(t1, 4), oracle_cycles(t1, 5),
                                oracle_strong_subs(t1, 5),
                                oracle_strong_subs(t1, 4), oracle_w(t1, 6)]

    def test_equal_copy_reuses_the_product(self):
        t = gen_random(20, 3)
        c4_formula(t)
        hits = _arc_profiles.cache_info().hits
        assert c5_formula(Tournament(20, tuple(list(t.out_rows)))) == \
            _cycles_by_trace(t, 5)
        assert _arc_profiles.cache_info().hits == hits + 1

    def test_profiles_are_read_only(self):
        for x in _arc_profiles(gen_random(9, 4)):
            with pytest.raises(ValueError):
                x[0] = 0
            with pytest.raises(ValueError):
                x += 1


class TestRouteCaches:
    """Each route keeps one table per tournament, and no route reads
    another's.  Whatever the tables hold, a report must equal the one
    made from empty tables."""

    _NAMES = {
        "formula": ["c3", "c4", "c5", "s3", "s4", "s5", "w6", "w7"],
        "oracle": ["c3", "c4", "c5", "s3", "s4", "s5", "w6", "w7"],
        "trace": ["c3", "c4", "c5", "tr1", "tr2", "tr6", "tr7", "tr12"],
    }

    @staticmethod
    def fresh(t, method: str):
        clear_route_caches()
        return count_report(t, TestRouteCaches._NAMES[method], method)

    @pytest.mark.parametrize("n,seed", [(5, 23), (9, 21), (12, 21)])
    def test_each_route_on_a_then_b_then_a(self, n, seed):
        a, b = gen_random(n, seed), gen_random(n, seed + 1)
        copy = Tournament(n, tuple(list(a.out_rows)))
        want = {(t, how): self.fresh(t, how)
                for t in (a, b) for how in self._NAMES}
        assert want[a, "formula"] != want[b, "formula"]
        clear_route_caches()
        for how in self._NAMES:  # one route at a time
            for t in (a, b, a, copy):
                assert count_report(t, self._NAMES[how], how) == want[t, how]
        for t in (a, b, a, copy):  # the routes interleaved
            for how in self._NAMES:
                assert count_report(t, self._NAMES[how], how) == want[t, how]
        all_names = ["c3", "c4", "c5", "s3", "s4", "s5"]
        report = count_report(a, all_names, "all")
        assert report.cross_checked
        assert report == count_report(copy, all_names, "all")

    def test_the_cache_is_used(self):
        t = gen_random(10, 5)
        clear_route_caches()
        count_report(t, ["c3", "c4", "c5", "s3", "s4", "s5"], "all")
        # one build per route and per oracle pass; every other call
        # hits, and only the strong-subset pass reads the union tables
        for cache in ROUTE_CACHES:
            assert cache.cache_info().misses == 1
        assert _cycle_counts.cache_info().hits == 2
        assert _strong_counts.cache_info().hits == 2
        assert _union_tables.cache_info().hits == 0
        assert _adjacency_powers.cache_info().hits == 2

    def test_tables_are_read_only(self):
        t = gen_random(9, 4)
        arrays = [*_arc_profiles(t), *_union_tables(t),
                  *_adjacency_powers(t)]
        for x in arrays:
            with pytest.raises(ValueError):
                x[(0,) * x.ndim] = 1
            with pytest.raises(ValueError):
                x += 1
        passes = _cycle_counts(t, 5) + _strong_counts(t, 5)
        assert all(type(x) is int for x in passes)
        hists = _histograms(t)
        assert isinstance(hists, tuple)
        assert all(isinstance(h, tuple) for h in hists)
        assert [sum(h) for h in hists] == [9, 9, 36, 36]

    @pytest.mark.parametrize("n", [7, 16])
    def test_trace_after_a_cached_call(self, n):
        t = gen_random(n, 300 + n)
        clear_route_caches()
        trace_m(t, 3)
        for m in range(1, 13):
            assert trace_m(t, m) == trace_by_repeated_products(t, m)
        assert _adjacency_powers.cache_info().misses == 1

    def test_trace_object_path_after_a_cached_call(self):
        # 64**10 = 2**60 runs in int64, 64**11 = 2**66 in Python ints
        t = gen_random(64, 7)
        clear_route_caches()
        assert trace_m(t, 5) == trace_by_repeated_products(t, 5)
        for m in (10, 11, 12):
            assert trace_m(t, m) == trace_by_repeated_products(t, m)
        a, a2 = _adjacency_powers(t)
        assert a.dtype == a2.dtype == np.int64
        assert _adjacency_powers.cache_info().misses == 1


class TestArcIntersections:
    def test_degree_identities_order5(self):
        for code in range(1 << 10):
            assert_arc_profiles(tournament_from_code(5, code))

    @given(st.integers(6, 64), st.integers(0, (1 << 64) - 1))
    @settings(max_examples=40, deadline=None)
    def test_degree_identities(self, n, seed):
        assert_arc_profiles(gen_random(n, seed))

    def test_sum_rule(self):
        # the four neighbourhood intersections of an arc partition the rest
        for seed in range(30):
            t = gen_random(8, seed)
            for i, j in t.arcs():
                x = arc_intersections(t, i, j)
                assert x.dpp + x.dmm + x.dpm + x.dmp == t.n - 2

    def test_known_qr7(self):
        t = gen_qr(7)
        for i, j in t.arcs():
            assert arc_intersections(t, i, j) == ArcIntersection(1, 1, 1, 2)

    def test_rejects_non_arc(self):
        t = gen_transitive(3)
        with pytest.raises(InvalidInput, match=r"^\(2, 0\) is not an arc$"):
            arc_intersections(t, 2, 0)
        with pytest.raises(InvalidInput, match=r"^\(1, 1\) is not an arc$"):
            arc_intersections(t, 1, 1)

    @pytest.mark.parametrize("i, j", [(7, 0), (-1, 0), (0, -1)])
    def test_rejects_vertices_outside_the_tournament(self, i, j):
        with pytest.raises(InvalidInput,
                           match=r"^arc ends must lie in 0\.\.4$"):
            arc_intersections(gen_rlt(5), i, j)


class TestScores:
    def test_transitive(self):
        outs, ins = scores(gen_transitive(4))
        assert outs == (3, 2, 1, 0)
        assert ins == (0, 1, 2, 3)

    @given(st.integers(0, (1 << 15) - 1))
    @settings(max_examples=50, deadline=None)
    def test_score_sum(self, code):
        t = tournament_from_code(6, code)
        outs, ins = scores(t)
        assert sum(outs) == comb(6, 2)
        assert [o + i for o, i in zip(outs, ins)] == [5] * 6


class TestEdgeCases:
    def test_w_above_n_is_zero(self):
        t = gen_transitive(4)
        assert w_formula(t, 6) == 0
        assert oracle_w(t, 6) == 0

    def test_small_m_rejected(self):
        t = gen_transitive(5)
        with pytest.raises(InvalidInput, match="^w_m needs m >= 3, got 2$"):
            w_formula(t, 2)
        with pytest.raises(InvalidInput,
                           match="^the strong-subset formula holds only "
                                 "for m in {3, 4, 5}, got 6$"):
            s_formula(t, 6)

    @pytest.mark.parametrize("t,m", [(gen_rlt(9), 20),
                                     (gen_random(8, 3), 21),
                                     (gen_random(16, 4), 16)],
                             ids=["rlt9", "random8", "random16"])
    def test_trace_big_int_route(self, t, m):
        # n**m >= 2**62 takes the big-int route
        assert t.n ** m >= 1 << 62
        assert trace_m(t, m) == trace_by_repeated_products(t, m)

    @pytest.mark.parametrize("m", [20, 21], ids=["int64", "object"])
    def test_trace_either_side_of_dtype_switch(self, m):
        # 8**20 = 2**60 fits int64; 8**21 = 2**63 does not
        t = gen_random(8, 3)
        assert (t.n ** m < 1 << 62) == (m == 20)
        assert trace_m(t, m) == trace_by_repeated_products(t, m)

    @pytest.mark.parametrize("n", range(5, 17))
    def test_trace_split_matches_repeated_products(self, n):
        # m = 1..12 run in int64 (16**12 = 2**48); m0 - 1 and m0 are the
        # last int64 power and the first Python-int power of this order
        t = gen_random(n, 100 + n)
        m0 = next(m for m in range(1, 64) if n ** m >= 1 << 62)
        for m in [*range(1, 13), m0 - 1, m0]:
            assert trace_m(t, m) == trace_by_repeated_products(t, m)

    def test_trace_cap(self):
        t = gen_transitive(5)
        assert trace_m(t, TRACE_MAX_M) == 0
        with pytest.raises(InvalidInput,
                           match="^trace needs 1 <= m <= 1024, got 1025$"):
            trace_m(t, TRACE_MAX_M + 1)
        with pytest.raises(InvalidInput,
                           match="^trace needs 1 <= m <= 1024, got 0$"):
            trace_m(t, 0)

    def test_oracle_cap(self):
        t = gen_random(13, 0)
        cap = "^oracles are capped at order 12, got 13$"
        with pytest.raises(InvalidInput, match=cap):
            oracle_cycles(t, 3)
        with pytest.raises(InvalidInput, match=cap):
            oracle_strong_subs(t, 3)

    def test_transitive_has_no_cycles(self):
        t = gen_transitive(9)
        assert c3_formula(t) == c4_formula(t) == c5_formula(t) == 0
        assert s_formula(t, 5) == 0

    def test_strong_order_conventions(self):
        t = gen_random(6, 8)
        assert oracle_strong_subs(t, 1) == 6
        assert oracle_strong_subs(t, 2) == 0

    @pytest.mark.parametrize("m", [2.0, 3.0, 4.0, True, False], ids=repr)
    @pytest.mark.parametrize("f", [oracle_cycles, oracle_strong_subs,
                                   oracle_w, trace_m, w_formula, s_formula],
                             ids=lambda f: f.__name__)
    def test_m_must_be_an_int(self, f, m):
        # refused for its type, whether or not its value is in range
        with pytest.raises(InvalidInput, match="^m must be an int, got "
                                               f"{re.escape(repr(repr(m)))}$"):
            f(gen_rlt(7), m)

    def test_strong_subset_order_zero(self):
        with pytest.raises(InvalidInput,
                           match="^subset order must be >= 1, got 0$"):
            oracle_strong_subs(gen_transitive(5), 0)


class TestCopies:
    def test_tt3_in_tt5(self):
        assert count_copies(gen_transitive(5), gen_transitive(3)) == comb(5, 3)

    def test_rlt5_in_rlt7(self):
        assert count_copies(gen_rlt(7), gen_rlt(5)) == 7

    def test_delta_pattern_in_rlt7(self):
        assert count_copies(gen_rlt(7), gen_named("delta_o_tt3_o")) == 7

    def test_decomposition_identities(self):
        # s5 splits over the three locally transitive strong patterns;
        # c5 weights the regular one twice (it carries two 5-cycles)
        patterns = [gen_rlt(5), gen_named("delta_o_tt3_o"),
                    gen_named("delta_tt2_o_tt2")]
        for n in (5, 7, 9):
            t = gen_rlt(n)
            copies = [count_copies(t, p) for p in patterns]
            assert sum(copies) == s5_formula(t)
            assert 2 * copies[0] + copies[1] + copies[2] == c5_formula(t)

    def test_w6_minus_s6_counts_dominated_triangles(self):
        # order-6 subsets without sink or source that are not strong are
        # exactly one 3-cycle dominating another
        pattern = compose(gen_transitive(2),
                          [gen_named("delta"), gen_named("delta")])
        for seed in (4, 10, 11, 23):
            t = gen_random(9, seed)
            diff = w_formula(t, 6) - oracle_strong_subs(t, 6)
            assert diff > 0  # seeds chosen to make the check non-vacuous
            assert diff == count_copies(t, pattern)


class TestCountReport:
    def test_cross_checked_all_methods(self):
        t = gen_random(7, 5)
        rep = count_report(t, ["c3", "c5", "s5", "w4", "tr4"], "all")
        assert rep.cross_checked
        by_name: dict[str, set[int]] = {}
        for e in rep.quantities:
            by_name.setdefault(e.name, set()).add(e.value)
        assert all(len(v) == 1 for v in by_name.values())

    def test_formula_only(self):
        t = gen_random(7, 5)
        rep = count_report(t, ["c5"], "formula")
        assert [e.method for e in rep.quantities] == ["formula"]

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidInput, match="^unknown quantity 'c9'$"):
            count_report(gen_transitive(4), ["c9"], "formula")

    def test_entry_order_per_name(self):
        # names in request order; per name formula, oracle, trace
        t = gen_random(7, 5)
        rep = count_report(t, ["tr4", "s3", "c4", "w4", "c3"], "all")
        assert [(e.name, e.method) for e in rep.quantities] == [
            ("tr4", "trace"),
            ("s3", "formula"), ("s3", "oracle"),
            ("c4", "formula"), ("c4", "oracle"), ("c4", "trace"),
            ("w4", "formula"), ("w4", "oracle"),
            ("c3", "formula"), ("c3", "oracle"), ("c3", "trace"),
        ]

    def test_all_leaves_the_oracle_out_above_its_cap(self):
        t = gen_random(13, 2)
        rep = count_report(t, ["c3", "s4", "w5"], "all")
        assert rep.cross_checked
        assert [(e.name, e.method) for e in rep.quantities] == [
            ("c3", "formula"), ("c3", "trace"),
            ("s4", "formula"), ("w5", "formula")]
        with pytest.raises(InvalidInput,
                           match="^oracles are capped at order 12, got 13$"):
            count_report(t, ["s4"], "oracle")

    @pytest.mark.parametrize("method", ["formula", "oracle", "trace", "all"])
    def test_single_route_reported_under_every_method(self, method):
        rep = count_report(gen_rlt(7), ["tr5"], method)
        assert rep.quantities == (CountEntry("tr5", "trace", 140),)

    @pytest.mark.parametrize("names,method,message", [
        (["c3", "s3"], "trace", "method 'trace' does not apply to s3"),
        (["w4"], "trace", "method 'trace' does not apply to w4"),
        (["w2"], "all", "w_m needs m >= 3, got 2"),
        (["w2"], "oracle", "w oracle needs m >= 3, got 2"),
        (["tr0"], "all", "trace needs 1 <= m <= 1024, got 0"),
        (["w-1"], "all", "unknown quantity 'w-1'"),
        (["c6"], "all", "unknown quantity 'c6'"),
        (["c3"], "sum", "unknown method 'sum'"),
        (["w²"], "all", "unknown quantity 'w²'"),
        (["w٣"], "all", "unknown quantity 'w٣'"),
        (["tr٥"], "all", "unknown quantity 'tr٥'"),
        (["w" + "1" * 5000], "all",
         "the order of w has too many digits (5000)"),
    ], ids=["s3-trace", "w4-trace", "w2-all", "w2-oracle", "tr0", "w-1",
            "c6", "method", "w-superscript", "w-arabic-indic",
            "tr-arabic-indic", "w-too-long"])
    def test_bad_requests(self, names, method, message):
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            count_report(gen_rlt(7), names, method)
