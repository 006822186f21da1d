"""Structural predicates. Flag tables for the named families are frozen
from first principles; the biconditional claims (plus/minus symmetry on
balanced score lists) run over the full regular corpora."""

from __future__ import annotations

import math
import random
from collections import Counter
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tourney import (
    aat_positive,
    arc_intersections,
    classification_report,
    compose,
    gen_named,
    gen_qr,
    gen_qr_power,
    gen_random,
    gen_rlt,
    gen_transitive,
    is_doubly_regular,
    is_locally_regular,
    is_locally_transitive,
    is_near_regular,
    is_nearly_doubly_regular,
    is_regular,
    is_rldr,
    is_rlndr,
    is_transitive,
    landau_feasible,
    scores,
    semi_degree,
    validate,
    vertices_of,
)

from tourney.classify import tournaments_with_scores
from tourney.enumeration import enumerate_regular
from tourney.errors import InvalidInput

from oracle_reference import (doubly_regular_by_pairs,
                              nearly_doubly_regular_by_out_sets,
                              rldr_by_induced, rlndr_by_induced,
                              tournament_from_code)


class TestBasicPredicates:
    def test_transitive(self):
        assert is_transitive(gen_transitive(6))
        assert not is_transitive(gen_named("delta"))

    def test_regular(self):
        assert is_regular(gen_rlt(9))
        assert not is_regular(gen_transitive(5))
        assert semi_degree(gen_rlt(9)) == 4
        with pytest.raises(InvalidInput, match="^semi-degree is defined for "
                                               "regular tournaments$"):
            semi_degree(gen_transitive(5))

    def test_near_regular(self):
        # two blocks of scores n/2 and n/2 - 1
        t = compose(gen_named("delta"), [gen_transitive(2)] * 3)
        outs, _ = scores(t)
        assert sorted(outs) == [2, 2, 2, 3, 3, 3]
        assert is_near_regular(t)
        assert not is_near_regular(gen_transitive(6))
        assert not is_near_regular(gen_rlt(7))


def balanced_by_definition(t, vs: list[int]) -> bool:
    """Regular (odd size) or near regular (even size), from the
    definitions, for the subtournament induced on vs."""
    k = len(vs)
    outs = [sum(t.has_arc(v, w) for w in vs) for v in vs]
    if k % 2 == 1:
        return all(d == (k - 1) // 2 for d in outs)
    ins = sorted(k - 1 - d for d in outs)
    return ins == [k // 2 - 1] * (k // 2) + [k // 2] * (k // 2)


def assert_balance_predicates_match_definitions(t) -> None:
    n = t.n
    every = list(range(n))
    assert is_regular(t) == (n % 2 == 1 and balanced_by_definition(t, every))
    assert is_near_regular(t) == (n % 2 == 0
                                  and balanced_by_definition(t, every))
    plus = all(balanced_by_definition(t, [w for w in every if t.has_arc(v, w)])
               for v in every)
    minus = all(balanced_by_definition(t, [w for w in every
                                           if t.has_arc(w, v)])
                for v in every)
    assert is_locally_regular(t, "plus") == plus
    assert is_locally_regular(t, "minus") == minus
    assert is_locally_regular(t) == (plus and minus)


class TestBalancePredicates:
    def test_all_order5(self):
        for code in range(1 << 10):
            assert_balance_predicates_match_definitions(
                tournament_from_code(5, code))

    @given(st.integers(0, (1 << 15) - 1))
    @settings(max_examples=200, deadline=None)
    def test_order6_sample(self, code):
        assert_balance_predicates_match_definitions(
            tournament_from_code(6, code))


class TestLocalStructure:
    def test_rlt_is_locally_transitive(self):
        for n in (5, 7, 9, 11):
            t = gen_rlt(n)
            assert is_locally_transitive(t, "plus")
            assert is_locally_transitive(t, "minus")
            assert is_locally_transitive(t)

    def test_rlt9_not_locally_regular(self):
        # out-sets are transitive, hence far from regular at order 4
        assert not is_locally_regular(gen_rlt(9))

    def test_qr7_locally_regular(self):
        assert is_locally_regular(gen_qr(7), "plus")
        assert is_locally_regular(gen_qr(7), "minus")

    def test_delta_delta_flags(self):
        t = gen_named("delta_delta")
        assert is_regular(t)
        assert not is_locally_transitive(t)
        assert not is_locally_regular(t)
        assert aat_positive(t)

    def test_plus_minus_symmetry_on_regular_corpora(self, corpus7, corpus9):
        # balanced score list makes the one-sided predicates agree
        for corpus in (corpus7, corpus9):
            for _, rep in corpus.classes:
                assert (is_locally_transitive(rep, "plus")
                        == is_locally_transitive(rep, "minus"))
                assert (is_locally_regular(rep, "plus")
                        == is_locally_regular(rep, "minus"))

    def test_side_must_be_named(self):
        with pytest.raises(InvalidInput, match=r"^side must be one of "
                                               r"\('plus', 'minus', 'both'\), "
                                               r"got 'up'$"):
            is_locally_transitive(gen_rlt(5), "up")


class TestDoublyRegular:
    def test_qr7_and_qr11(self):
        for p in (7, 11):
            t = gen_qr(p)
            assert is_doubly_regular(t)
            # every arc realizes the equality case of the intersection bound
            quarter = (p - 3) // 4
            for i, j in t.arcs():
                x = arc_intersections(t, i, j)
                assert (x.dpp, x.dmm, x.dpm, x.dmp) == \
                    (quarter, quarter, quarter, quarter + 1)

    def test_rlt7_is_not(self):
        assert not is_doubly_regular(gen_rlt(7))

    def test_wrong_residue_class(self):
        # order 9 = 1 mod 4 cannot be doubly regular
        assert not is_doubly_regular(gen_rlt(9))

    def test_ndr_families(self):
        assert is_nearly_doubly_regular(gen_rlt(5))
        assert not is_nearly_doubly_regular(gen_rlt(9))
        assert not is_nearly_doubly_regular(gen_qr(7))  # 3 mod 4 order


class TestRecursiveLocal:
    def test_qr_membership_table(self):
        assert is_rldr(gen_qr(7))
        assert is_rlndr(gen_qr(11))
        assert is_rlndr(gen_qr(19))
        assert not is_rldr(gen_qr(23))
        assert not is_rldr(gen_qr(31))
        assert not is_rldr(gen_qr(47))
        assert not is_rlndr(gen_qr(43))


NAMED = ("delta", "st4", "delta_tt2", "delta_delta", "delta_o_tt3_o",
         "delta_tt2_o_tt2", "delta_o_delta_o", "dr7", "kz7", "prop2_a",
         "prop2_b")


def family_hits(tournaments) -> list[int]:
    """Hold is_doubly_regular, is_nearly_doubly_regular, is_rldr and
    is_rlndr equal to their references in oracle_reference on every
    tournament, and count how often each one holds."""
    hits = [0, 0, 0, 0]
    for t in tournaments:
        flags = (is_doubly_regular(t), is_nearly_doubly_regular(t),
                 is_rldr(t), is_rlndr(t))
        assert flags == (doubly_regular_by_pairs(t),
                         nearly_doubly_regular_by_out_sets(t),
                         rldr_by_induced(t), rlndr_by_induced(t)), t
        hits = [h + f for h, f in zip(hits, flags)]
    return hits


def three_cycle_walk(start, steps: int, seed: int):
    """start, then the tournament after each of steps reversals of a
    seeded random 3-cycle.  A reversal keeps every score, so a walk from
    a regular tournament stays regular and roams its regular classes."""
    rng = random.Random(seed)
    n, rows = start.n, list(start.out_rows)
    full = (1 << n) - 1
    yield start
    for _ in range(steps):
        while True:
            i = rng.randrange(n)
            j = rng.choice(vertices_of(rows[i]))
            # k with j -> k -> i closes the cycle i -> j -> k -> i
            ks = vertices_of(rows[j] & (full ^ rows[i] ^ (1 << i)))
            if ks:
                break
        k = rng.choice(ks)
        rows[i] ^= (1 << j) | (1 << k)
        rows[j] ^= (1 << k) | (1 << i)
        rows[k] ^= (1 << i) | (1 << j)
        yield validate(n, rows)


class TestDoublyRegularFamilyReferences:
    """The four predicates share one rule on vertex masks; the pair loop
    and the induced copies they replaced stay in oracle_reference."""

    @pytest.mark.parametrize("n", range(7))
    def test_every_tournament_of_order_up_to_6(self, n):
        family_hits(tournament_from_code(n, code)
                    for code in range(1 << math.comb(n, 2)))

    def test_regular_corpora(self, corpus7, corpus9, corpus11):
        hits = family_hits(rep for corpus in (corpus7, corpus9, corpus11)
                           for _, rep in corpus.classes)
        # DR at 7 and 11, NDR at 9, rldr at 7, rlndr at 11
        assert all(hits)

    def test_qr_and_rlt(self):
        primes = [p for p in range(3, 60, 4)
                  if all(p % d for d in range(2, p))]
        assert primes == [3, 7, 11, 19, 23, 31, 43, 47, 59]
        hits = family_hits([*map(gen_qr, primes), gen_qr_power(3, 3),
                            *map(gen_rlt, range(1, 64, 2))])
        assert all(hits)

    def test_named_fixtures(self):
        family_hits(map(gen_named, NAMED))

    def test_random(self):
        family_hits(gen_random(n, seed) for n in range(7, 65)
                    for seed in range(3))

    @pytest.mark.parametrize("n", [13, 15, 19, 21, 27])
    def test_three_cycle_walks_from_rlt(self, n):
        family_hits(three_cycle_walk(gen_rlt(n), 150, seed=n))


class TestAat:
    def test_positive_cases(self):
        for name in ("delta_delta", "prop2_a", "prop2_b"):
            assert aat_positive(gen_named(name))
        # RLT_9 has vertex pairs with no common dominating vertex
        assert not aat_positive(gen_rlt(9))


class TestLandau:
    def test_generated_scores_feasible(self):
        for t in (gen_transitive(6), gen_rlt(9), gen_qr(7),
                  gen_random(8, 77)):
            outs, _ = scores(t)
            assert landau_feasible(tuple(sorted(outs)))

    def test_infeasible_cases(self):
        assert not landau_feasible((0, 0, 2, 4, 4))  # prefix 2 < binom(2,2)
        assert not landau_feasible((1, 1, 1, 3, 3))  # total 9 != binom(5,2)

    def test_requires_sorted(self):
        with pytest.raises(InvalidInput, match="^scores must be non-negative "
                                               "and non-decreasing$"):
            landau_feasible((2, 1, 2, 2, 3))


class TestScoreCount:
    """tournaments_with_scores, the labeled count by a score-vector DP,
    against every other route to a labeled count."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_labeled_walk(self, n):
        # every labeled tournament of order n, tallied by score vector
        walk = Counter(tuple(row.bit_count() for row in
                             tournament_from_code(n, code).out_rows)
                       for code in range(1 << math.comb(n, 2)))
        for vector, count in walk.items():
            assert tournaments_with_scores(vector) == count
        assert sum(walk.values()) == 1 << math.comb(n, 2)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_score_vectors_add_up_to_every_tournament(self, n):
        # each sorted vector stands for n! / prod(mult!) labeled vectors
        total = 0
        for vector in combinations_with_replacement(range(n), n):
            arrangements = math.factorial(n)
            for mult in Counter(vector).values():
                arrangements //= math.factorial(mult)
            total += arrangements * tournaments_with_scores(vector)
        assert total == 1 << math.comb(n, 2)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_positive_exactly_when_landau_holds(self, n):
        for vector in combinations_with_replacement(range(n + 1), n):
            assert (tournaments_with_scores(vector) > 0) == \
                landau_feasible(vector)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_small_regular_enumeration_totals(self, n):
        assert enumerate_regular(n).labeled_count == \
            tournaments_with_scores([(n - 1) // 2] * n)

    def test_join_and_sweep_totals(self, corpus7, corpus9, corpus11,
                                   sweep5, sweep7):
        # the join's weights and the labeled sweeps' regular tallies;
        # verify_corpus holds each corpus's orbit sum over |Aut| from the
        # search equal to its labeled_count, so this pins those too
        for total, n in ((corpus7.labeled_count, 7),
                         (corpus9.labeled_count, 9),
                         (corpus11.labeled_count, 11),
                         (sweep5.regular_codes, 5),
                         (sweep7.regular_codes, 7)):
            assert total == tournaments_with_scores([(n - 1) // 2] * n)
        assert tournaments_with_scores([5] * 11) == 48251508480

    def test_order_of_entries_and_impossible_vectors(self):
        assert tournaments_with_scores((2, 0, 1)) == 1
        assert tournaments_with_scores(()) == 1
        for vector in ((0, 0, 3), (-1, 1, 3), (1, 1), (0, 2, 2, 3)):
            assert tournaments_with_scores(vector) == 0


class TestReport:
    def test_flag_order_is_stable(self):
        rep = classification_report(gen_qr(7))
        assert list(rep.flags) == [
            "strong", "transitive", "regular", "near_regular",
            "doubly_regular", "nearly_doubly_regular",
            "locally_transitive_plus", "locally_transitive_minus",
            "locally_transitive", "locally_regular_plus",
            "locally_regular_minus", "locally_regular",
            "rldr", "rlndr", "aat_positive",
        ]
        assert rep.flags["doubly_regular"]
        assert rep.flags["rldr"]
        assert rep.semi_degree == 3

    def test_non_regular_has_no_semi_degree(self):
        rep = classification_report(gen_transitive(5))
        assert rep.semi_degree is None
        assert rep.flags["transitive"]

    def test_implication_chains(self, corpus9):
        # doubly regular forces regular + locally regular; likewise NDR
        for _, rep in corpus9.classes:
            flags = classification_report(rep).flags
            if flags["doubly_regular"]:
                assert flags["regular"] and flags["locally_regular"]
            if flags["nearly_doubly_regular"]:
                assert flags["regular"] and flags["locally_regular"]
            assert flags["locally_transitive"] == (
                flags["locally_transitive_plus"]
                and flags["locally_transitive_minus"])
