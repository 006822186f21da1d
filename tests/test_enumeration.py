"""Exhaustive generation: the class engine by one-vertex extension, the
regular-tournament join with its orbit-mass certificate, and the corpus
file format.  Counts are cross-validated against a plain labeled sweep
and a plain labeled arc backtracker where that is affordable, and the
certificate's array bucket keys against the scalar bucket_key."""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourney import (
    CanonicalForm,
    EnumCorpus,
    Tournament,
    automorphism_count,
    canonical_form,
    enumerate_regular,
    enumeration,
    gen_rlt,
    gen_transitive,
    induced,
    is_regular,
    read_corpus,
    validate,
    verify_c5_max,
    verify_corpus,
    write_corpus,
)
from tourney.counting import _row_bits
from tourney.errors import (
    InvalidInput,
    TimeBudgetExceededError,
    VerificationFailedError,
)

from oracle_reference import (bucket_key, cross_matrices_by_recursion,
                              tournament_from_code)


def all_tournaments(n: int):
    """Reference route: every labeled tournament of order n, one per
    upper-triangle edge code."""
    for code in range(1 << math.comb(n, 2)):
        yield tournament_from_code(n, code)


class TestLabeledSweep:
    def test_code_bijection(self):
        seen = {tournament_from_code(4, code).out_rows
                for code in range(1 << 6)}
        assert len(seen) == 1 << 6

    def test_all_tournaments_count(self):
        assert sum(1 for _ in all_tournaments(4)) == 1 << 6

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_code_inverse_round_trip(self, data):
        # the decoder gives a tournament whose pairs, read from the
        # shared row unpack, re-encode to the code
        n = data.draw(st.integers(1, 11))
        code = data.draw(st.integers(0, (1 << math.comb(n, 2)) - 1))
        t = tournament_from_code(n, code)
        assert validate(n, t.out_rows) == t
        a = _row_bits(t.out_rows, n)
        assert sum(int(a[i, j]) << k for k, (i, j)
                   in enumerate(combinations(range(n), 2))) == code


class TestClassEngine:
    @pytest.mark.parametrize("k,count", enumerate(
        [1, 1, 2, 4, 12, 56, 456, 6880], start=1))
    def test_class_counts_and_orbits(self, request, k, count):
        # OEIS A000568; the orbits add up to every labeled tournament
        reps, orbits = (request.getfixturevalue("classes8") if k == 8
                        else enumeration._classes(k, None))
        assert reps.dtype == np.int64 and reps.shape == (count, k)
        assert len(orbits) == count
        assert sum(orbits) == 1 << math.comb(k, 2)
        for rows, orbit in zip(reps.tolist(), orbits):
            rep = Tournament(k, tuple(rows))
            assert orbit == math.factorial(k) // automorphism_count(rep)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_matches_every_labeled_tournament(self, k):
        _, orbits = enumeration.certified_classes(
            k, (([t.out_rows], 1) for t in all_tournaments(k)))
        assert sorted(orbits) == sorted(
            {canonical_form(t).key for t in all_tournaments(k)})
        reps, rep_orbits = enumeration._classes(k, None)
        assert [(tuple(rows), orbit)
                for rows, orbit in zip(reps.tolist(), rep_orbits)] == \
            [(CanonicalForm(k, key).rows(), orbits[key])
             for key in sorted(orbits)]

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5])
    def test_extend_matches_the_code_layout(self, m):
        # rep R plus out-set s is the tournament whose edge code lists
        # vertex 0's pairs first, then R's: (code of R << m) + s
        s = np.arange(1 << m)
        for base in range(1 << math.comb(m, 2)):
            rep = np.array(tournament_from_code(m, base).out_rows,
                           dtype=np.int64).reshape(m)
            assert enumeration._extend(rep, s).tolist() == [
                list(tournament_from_code(m + 1, (base << m) + q).out_rows)
                for q in range(1 << m)]


class TestEnumerateRegular:
    @pytest.mark.parametrize("n,classes,labeled",
                             [(1, 1, 1), (3, 1, 2), (5, 1, 24),
                              (7, 3, 2640)])
    def test_class_and_labeled_counts(self, n, classes, labeled):
        corpus = enumerate_regular(n)
        assert len(corpus.classes) == classes
        assert corpus.labeled_count == labeled

    @pytest.mark.parametrize("n", [3, 5])
    def test_matches_plain_sweep(self, n):
        # count regular tournaments in the full labeled space
        expect = sum(is_regular(t) for t in all_tournaments(n))
        assert enumerate_regular(n).labeled_count == expect

    def test_orbit_counting_identity(self):
        # labeled count = sum over classes of n! / |Aut|
        for n in (3, 5, 7):
            corpus = enumerate_regular(n)
            total = sum(math.factorial(n) // automorphism_count(rep)
                        for _, rep in corpus.classes)
            assert total == corpus.labeled_count

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_threads_do_not_change_output(self, n):
        a = enumerate_regular(n, threads=1)
        b = enumerate_regular(n, threads=2)
        assert a.labeled_count == b.labeled_count
        assert [cf.key for cf, _ in a.classes] == \
            [cf.key for cf, _ in b.classes]

    def test_reps_are_canonical(self):
        corpus = enumerate_regular(7)
        for cf, rep in corpus.classes:
            assert canonical_form(rep).key == cf.key
            assert is_regular(rep)

    def test_keys_sorted_distinct(self):
        keys = [cf.key for cf, _ in enumerate_regular(7).classes]
        assert keys == sorted(set(keys))

    def test_guards(self):
        with pytest.raises(InvalidInput, match="^regular tournaments have "
                                               "odd order, got 6$"):
            enumerate_regular(6)
        with pytest.raises(InvalidInput, match=r"^order must be odd in "
                                               r"1\.\.11, got 13$"):
            enumerate_regular(13)

    def test_time_budget(self):
        with pytest.raises(TimeBudgetExceededError):
            enumerate_regular(11, time_budget=0.02)

    def test_time_budget_covers_certification(self, monkeypatch):
        # the order-7 join has 13 members and 3 searches; slowed to
        # 0.05 s each, the searches alone overrun a 0.1 s budget
        real = enumeration._minimal_relabelings

        def slowed(t):
            if t.n == 7:
                time.sleep(0.05)
            return real(t)

        monkeypatch.setattr(enumeration, "_minimal_relabelings", slowed)
        with pytest.raises(TimeBudgetExceededError):
            enumerate_regular(7, time_budget=0.1)

    @pytest.mark.parametrize("budget", [0.0, math.nan, math.inf, -1.0])
    def test_time_budget_must_be_positive_finite(self, budget):
        with pytest.raises(InvalidInput):
            enumerate_regular(9, time_budget=budget)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_must_be_positive(self, threads):
        with pytest.raises(InvalidInput):
            enumerate_regular(5, threads=threads)


class TestJoin:
    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_completion_codes_decode_to_pair_and_cross_rows(self, n):
        # each completion's rows are the pair's rows plus the cross
        # matrix: they are a regular tournament, vertex 0 beats exactly
        # P = 1..h, R+ and R- sit on P and Q, and the cross rows are
        # the recursion's in walk order, one block per pair
        h = (n - 1) // 2
        full = (1 << h) - 1
        reps, orbits = enumeration._classes(h, None)
        classes = [(Tournament(h, tuple(rows)), orbit)
                   for rows, orbit in zip(reps.tolist(), orbits)]
        expected = [
            (plus.out_rows, minus.out_rows, m,
             plus_count * minus_count * math.comb(n - 1, h))
            for plus, plus_count in classes
            for minus, minus_count in classes
            for m in cross_matrices_by_recursion(
                [h - plus.out_degree(a) for a in range(h)],
                [1 + minus.out_degree(b) for b in range(h)])]
        blocks = list(enumeration._completions(n, reps, orbits))
        assert len(blocks) == len(classes) ** 2
        completions = [(rows, weight) for block, weight in blocks
                       for rows in block]
        assert len(completions) == len(expected)
        for (rows, weight), (plus, minus, m, want) in zip(completions,
                                                          expected):
            t = validate(n, rows.tolist())
            assert is_regular(t)
            assert t.out_rows[0] == full << 1
            assert induced(t, range(1, h + 1)).out_rows == plus
            assert induced(t, range(h + 1, n)).out_rows == minus
            assert tuple(row >> h + 1 for row in t.out_rows[1:h + 1]) == m
            assert weight == want

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    def test_cross_matrices_match_the_recursion_on_join_margins(self, n):
        # every (R+, R-) margin pair of the order-n join, in walk order
        h = (n - 1) // 2
        reps, _ = enumeration._classes(h, None)
        classes = [Tournament(h, tuple(rows)) for rows in reps.tolist()]
        margins = {(tuple(h - plus.out_degree(a) for a in range(h)),
                    tuple(1 + minus.out_degree(b) for b in range(h)))
                   for plus in classes for minus in classes}
        for row_sums, col_sums in margins:
            assert_walk_matches_the_recursion(row_sums, col_sums)

    def test_cross_matrices_match_the_recursion_on_random_margins(self):
        # the margins of seeded random 0/1 matrices with up to 6 rows
        # and 6 columns, so every margin pair is feasible and the matrix
        # itself is met; a random density keeps most of them far from
        # the 297,200 matrices of a 6 x 6 one with every margin 3
        rng = np.random.default_rng(2026)
        for _ in range(150):
            m = (rng.random(rng.integers(1, 7, size=2)) < rng.random()
                 ).astype(int)
            row_sums = m.sum(axis=1).tolist()
            col_sums = m.sum(axis=0).tolist()
            got = assert_walk_matches_the_recursion(row_sums, col_sums)
            assert [sum(int(v) << b for b, v in enumerate(row))
                    for row in m] in got

    @pytest.mark.parametrize("row_sums,col_sums", [
        ([1, 2], [1, 1]), ([0], [1]), ([2, 1, 1], [1, 1, 1]),
        ([3, 3, 3], [3, 3, 2])], ids=["rows3-cols2", "rows0-cols1",
                                      "rows4-cols3", "rows9-cols8"])
    def test_unequal_totals_give_no_matrix(self, row_sums, col_sums):
        assert assert_walk_matches_the_recursion(row_sums, col_sums) == []

    def test_empty_margins_give_one_empty_matrix(self):
        got = enumeration._cross_matrices([], [])
        assert got.dtype == np.int64 and got.shape == (1, 0)
        assert assert_walk_matches_the_recursion([], []) == [[]]

    @pytest.mark.parametrize("row_sums,col_sums,want", [
        ([2], [1, 0, 1], [[0b101]]), ([0], [0, 0], [[0]]),
        ([1], [2, 0], []), ([1], [1, -1, 1], []), ([4], [1, 1, 1], [])])
    def test_single_row_is_forced(self, row_sums, col_sums, want):
        assert assert_walk_matches_the_recursion(row_sums, col_sums) == want


def assert_walk_matches_the_recursion(row_sums, col_sums) -> list:
    """_cross_matrices' array, as lists of row masks, after checking
    that it is the recursion's matrices in the recursion's order."""
    got = enumeration._cross_matrices(list(row_sums), list(col_sums))
    assert got.dtype == np.int64 and got.shape[1:] == (len(row_sums),)
    assert got.tolist() == [list(m) for m in cross_matrices_by_recursion(
        row_sums, col_sums)]
    return got.tolist()


def relabel(t: Tournament, perm: list[int]) -> Tournament:
    rows = [0] * t.n
    for i in range(t.n):
        for j in range(t.n):
            if t.has_arc(i, j):
                rows[perm[i]] |= 1 << perm[j]
    return Tournament(t.n, tuple(rows))


def regular_completions(n: int, fixed_row: bool = True):
    """Reference route: the out-rows of every labeled regular tournament
    of order n, by a plain arc backtracker that shares no code with the
    engine.  With fixed_row, only those whose vertex 0 beats exactly
    1..(n-1)/2."""
    h = (n - 1) // 2
    rows = [0] * n
    out = [0] * n
    rem = [n - 1] * n
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def walk(k):
        if k == len(edges):
            # every out-degree is at most h and they sum to n * h
            yield tuple(rows)
            return
        i, j = edges[k]
        if fixed_row and i == 0:
            choices = [(0, j) if j <= h else (j, 0)]
        else:
            choices = [(i, j), (j, i)]
        rem[i] -= 1
        rem[j] -= 1
        for a, b in choices:
            if out[a] < h and out[b] + rem[b] >= h:
                rows[a] |= 1 << b
                out[a] += 1
                yield from walk(k + 1)
                out[a] -= 1
                rows[a] &= ~(1 << b)
        rem[i] += 1
        rem[j] += 1

    yield from walk(0)


def reference_keys(n: int, rows) -> list[tuple[int, ...]]:
    return [bucket_key(validate(n, r)) for r in np.asarray(rows).tolist()]


def assert_same_key(t: Tournament, u: Tournament) -> None:
    first, second = enumeration._bucket_keys(t.n, [t.out_rows, u.out_rows])
    assert first == second


def count_searches(monkeypatch) -> Counter:
    """Counts of the relabeling searches certified_classes makes from
    here on, by order."""
    calls: Counter = Counter()
    real = enumeration._minimal_relabelings

    def counted(t):
        calls[t.n] += 1
        return real(t)

    monkeypatch.setattr(enumeration, "_minimal_relabelings", counted)
    return calls


def canonicalize_every_completion(n: int, fixed_row: bool
                                  ) -> tuple[int, list[int]]:
    """Reference route: every completion of the plain backtracker
    canonicalized.  Returns (labeled count, sorted class keys)."""
    keys: set[int] = set()
    count = 0
    for rows in regular_completions(n, fixed_row):
        count += 1
        keys.add(canonical_form(Tournament(n, rows)).key)
    scale = math.comb(n - 1, (n - 1) // 2) if fixed_row else 1
    return count * scale, sorted(keys)


class TestOrbitMassCertificate:
    @pytest.mark.parametrize("n", [5, 7, 9])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_profile_invariant_on_regular(self, corpus7, corpus9, n, data):
        corpus = {5: enumerate_regular(5), 7: corpus7, 9: corpus9}[n]
        t = data.draw(st.sampled_from([rep for _, rep in corpus.classes]))
        perm = data.draw(st.permutations(range(n)))
        assert_same_key(t, relabel(t, perm))

    @given(code=st.integers(0, (1 << 21) - 1),
           perm=st.permutations(range(7)))
    @settings(max_examples=100, deadline=None)
    def test_profile_invariant_on_order7(self, code, perm):
        t = tournament_from_code(7, code)
        assert_same_key(t, relabel(t, perm))

    def test_profile_of_every_extension_candidate(self, monkeypatch):
        # every slice the class engine keys up to order 7, against the
        # scalar reference: the 1 + 2 + 4 + 16 + 64 + 384 + 3584
        # candidates, rep R plus out-set s, in slices of 2,048
        kernel = enumeration._bucket_keys
        seen = Counter()

        def checked(n, rows):
            keys = kernel(n, rows)
            assert keys == reference_keys(n, rows)
            seen[n] += len(rows)
            return keys

        monkeypatch.setattr(enumeration, "_bucket_keys", checked)
        enumeration._classes(7, None)
        assert seen == {1: 1, 2: 2, 3: 4, 4: 16, 5: 64, 6: 384, 7: 3584}

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_profile_of_drawn_codes(self, data):
        # orders 8..16, almost all irregular: the regular completions of
        # the join alone miss an (A^2)[v, u] for (A^2)[u, v] in the
        # in-set term
        n = data.draw(st.integers(8, 16))
        codes = data.draw(st.lists(
            st.integers(0, (1 << math.comb(n, 2)) - 1), min_size=1,
            max_size=16))
        rows = [list(tournament_from_code(n, code).out_rows)
                for code in codes]
        keys = enumeration._bucket_keys(n, rows)
        assert keys == reference_keys(n, rows)

    def test_profile_of_the_largest_code_at_order16(self):
        # a source over a regular order-15 tournament: its out-degree 15
        # and its 140 = C(15, 3) - 15 C(7, 2) out-set 3-cycles, with no
        # in-set, give the largest code at order 16, (15 B + 140) B for
        # B = C(15, 3) + 1 = 456; every key value stays below
        # 16^3 B^4 < 1.8e14, far inside int64
        rows = [(1 << 16) - 2] + [r << 1 for r in gen_rlt(15).out_rows]
        keys = enumeration._bucket_keys(16, [rows])
        assert keys == reference_keys(16, [rows])
        top = max(keys[0])
        assert top // (16 * 456) ** 2 == (15 * 456 + 140) * 456 == 3182880
        assert top < 16 ** 3 * 456 ** 4 < 1.8e14

    @pytest.mark.parametrize("fixed_row", [True, False])
    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    def test_matches_canonicalizing_every_completion(self, n, fixed_row):
        corpus = enumerate_regular(n)
        labeled, keys = canonicalize_every_completion(n, fixed_row)
        assert corpus.labeled_count == labeled
        assert [cf.key for cf, _ in corpus.classes] == keys

    def test_order9_labeled_count_matches_backtracker(self, corpus9):
        completions = sum(1 for _ in regular_completions(9))
        assert completions == 46144
        assert corpus9.labeled_count == completions * 70 == 3230080

    def test_a_missing_join_pair_fails_the_labeled_count(self, monkeypatch):
        # without the block of the first pair, transitive with
        # transitive, every bucket still meets its mass and RLT_9
        # (orbit 40,320) is lost; only the score count sees it
        completions = enumeration._completions
        monkeypatch.setattr(enumeration, "_completions", lambda *args:
                            itertools.islice(completions(*args), 1, None))
        with pytest.raises(VerificationFailedError,
                           match="^the join holds 3189760 labeled regular "
                                 "tournaments, the score count says "
                                 "3230080$"):
            enumerate_regular(9)

    def test_certified_classes_of_order4(self):
        labeled, orbits = enumeration.certified_classes(
            4, (([t.out_rows], 1) for t in all_tournaments(4)))
        assert labeled == 64 and sum(orbits.values()) == 64
        assert sorted(orbits) == sorted(
            {canonical_form(t).key for t in all_tournaments(4)})
        for key, orbit in orbits.items():
            rep = Tournament(4, CanonicalForm(4, key).rows())
            assert orbit == 24 // automorphism_count(rep)

    @pytest.mark.parametrize("mass,failure", [(23, "exceed"), (25, "short")])
    def test_bucket_off_its_mass_raises(self, mass, failure):
        # the regular tournaments of order 5 are one class of orbit 24
        with pytest.raises(VerificationFailedError, match=failure):
            enumeration.certified_classes(5, [([gen_rlt(5).out_rows], mass)])

    # orders whose C(n, 2) arcs no int64 edge code holds; RLT_13 has 13
    # automorphisms, and the transitive tournament only the identity
    @pytest.mark.parametrize("t", [gen_rlt(13), gen_transitive(16)],
                             ids=["rlt13", "transitive16"])
    def test_certifies_above_order_11(self, t):
        orbit = math.factorial(t.n) // automorphism_count(t)
        labeled, orbits = enumeration.certified_classes(
            t.n, [([t.out_rows], orbit)])
        assert labeled == orbit
        assert orbits == {canonical_form(t).key: orbit}
        for mass, failure in ((orbit - 1, "exceed"), (orbit + 1, "short")):
            with pytest.raises(VerificationFailedError, match=failure):
                enumeration.certified_classes(t.n, [([t.out_rows], mass)])

    def test_refuses_orders_it_cannot_canonicalize(self):
        with pytest.raises(InvalidInput, match="^classes are certified up "
                                               "to order 16, got 17$"):
            enumeration.certified_classes(
                17, [([gen_transitive(17).out_rows], 0)])

    @pytest.mark.parametrize("n,searches", [(7, 7), (9, 23), (11, 1250)])
    def test_one_walk_and_searches_only_while_short(self, monkeypatch, n,
                                                    searches):
        # the join's 3 (order 7), 15 (order 9) or 1,230 (order 11)
        # searches for 3, 15 or 1,223 classes, plus the half-order reps
        # grown one vertex at a time with one search per class,
        # 1 + 1 + 2 for order 3, 1 + 1 + 2 + 4 for order 4 and
        # 1 + 1 + 2 + 4 + 12 for order 5; canonicalizing every member
        # would take 13 + 7 or 157 + 23.  A bucket searches its members
        # in walk order, so the order-11 count pins the order of the
        # 144 pairs' blocks
        calls = Counter()

        def count_calls(name):
            real = getattr(enumeration, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(enumeration, name, counted)

        count_calls("_completions")
        count_calls("_minimal_relabelings")
        enumerate_regular(n)
        assert calls == {"_completions": 1, "_minimal_relabelings": searches}

    def test_class_engine_searches_once_per_class(self, monkeypatch):
        # each order's candidates are one block, and each bucket holds
        # one class, so order k searches once per class of order k
        calls = count_searches(monkeypatch)
        enumeration._classes(7, None)
        assert calls == {1: 1, 2: 1, 3: 2, 4: 4, 5: 12, 6: 56, 7: 456}

    def test_sweep_searches_once_per_class(self, monkeypatch):
        # the class scan grows the 1 + 1 + 2 + 4 + 12 + 56 classes of
        # orders 1..6, and the witnesses add 1 c5 class and 3 s5 classes
        calls = count_searches(monkeypatch)
        verify_c5_max(7)
        assert calls == {1: 1, 2: 1, 3: 2, 4: 4, 5: 12, 6: 56, 7: 4}
        assert sum(calls.values()) == 80

    def test_deadline_checked_per_slice(self, monkeypatch):
        # one block of 512 members keyed in 8 slices of 64, each slowed
        # to 0.05 s, overruns a 0.1 s budget before the last slice
        kernel = enumeration._bucket_keys
        sliced = []

        def slowed(n, rows):
            sliced.append(len(rows))
            time.sleep(0.05)
            return kernel(n, rows)

        monkeypatch.setattr(enumeration, "_PROFILE_BATCH", 64)
        monkeypatch.setattr(enumeration, "_bucket_keys", slowed)
        calls = count_searches(monkeypatch)
        rows = np.repeat([gen_rlt(5).out_rows], 512, axis=0)
        with pytest.raises(TimeBudgetExceededError):
            enumeration.certified_classes(5, [(rows, 1)],
                                          time.monotonic() + 0.1)
        assert 0 < len(sliced) < 8 and not calls

    @pytest.mark.parametrize("wrong", [lambda aut: 1, lambda aut: 2 * aut],
                             ids=["mass-over", "mass-short"])
    def test_wrong_automorphism_count_raises(self, monkeypatch, wrong):
        real = enumeration._minimal_relabelings

        def corrupted(t):
            cf, aut = real(t)
            return cf, wrong(aut)

        monkeypatch.setattr(enumeration, "_minimal_relabelings", corrupted)
        with pytest.raises(VerificationFailedError):
            enumerate_regular(7)


class TestCorpusFiles:
    def test_round_trip(self, tmp_path):
        corpus = enumerate_regular(5)
        path = tmp_path / "r5.corpus"
        write_corpus(corpus, path)
        again = read_corpus(path)
        assert again.n == 5
        assert again.labeled_count == corpus.labeled_count
        assert [cf.key for cf, _ in again.classes] == \
            [cf.key for cf, _ in corpus.classes]
        verify_corpus(again)

    def test_verify_rejects_wrong_count(self, tmp_path):
        corpus = enumerate_regular(5)
        path = tmp_path / "r5.corpus"
        write_corpus(corpus, path)
        text = path.read_text().replace("labeled_count 24",
                                        "labeled_count 25")
        path.write_text(text)
        with pytest.raises(VerificationFailedError):
            verify_corpus(read_corpus(path))

    def test_verify_rejects_tampered_key(self, tmp_path):
        corpus = enumerate_regular(7)
        path = tmp_path / "r7.corpus"
        write_corpus(corpus, path)
        first = corpus.classes[0][0].hex()
        text = path.read_text().replace(f"class {first}",
                                        f"class {'0' * len(first)}", 1)
        path.write_text(text)
        with pytest.raises(VerificationFailedError):
            verify_corpus(read_corpus(path))

    def test_order11_round_trip(self, tmp_path, corpus11):
        # 1,223 classes (OEIS A096368) and 48,251,508,480 labeled regular
        # tournaments (OEIS A007079); verify_corpus checks the orbit sum
        path = tmp_path / "r11.corpus"
        write_corpus(corpus11, path)
        again = read_corpus(path)
        verify_corpus(again)
        assert len(again.classes) == 1223
        assert again.labeled_count == 48251508480

    def test_verify_rejects_a_rep_of_another_order(self, corpus7):
        with pytest.raises(VerificationFailedError,
                           match="^class order disagrees with header$"):
            verify_corpus(EnumCorpus(9, corpus7.labeled_count,
                                     corpus7.classes))

    def test_verify_rejects_unknown_order(self):
        with pytest.raises(InvalidInput, match="^no known regular class "
                                               "count at order 13; the "
                                               "admitted orders are "
                                               "1, 3, 5, 7, 9, 11$"):
            verify_corpus(EnumCorpus(13, 0, ()))
